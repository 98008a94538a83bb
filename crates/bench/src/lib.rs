//! Workspace member hosting the Criterion benchmark suite; see `benches/`.
//!
//! One bench target per paper exhibit (`figure1`..`figure5`, `table1`,
//! `table2`) plus mechanism microbenches and design-choice ablations.
//! Shared fixtures live here.
//!
//! # The tabulation perf probe and `BENCH_tabulate.json`
//!
//! Beyond the Criterion targets, `bin/bench_tabulate` times the legacy
//! per-worker tabulation engine against the columnar CSR
//! [`DatasetIndex`](tabulate::DatasetIndex) engine on the canonical
//! eval dataset, and **panics if the two ever disagree on a single
//! cell** — CI runs it at small scale as a correctness smoke as well as
//! a perf probe. Regenerate the checked-in file with:
//!
//! ```text
//! cargo run --release -p bench --bin bench_tabulate
//! ```
//!
//! (`--iters N` controls best-of-N timing, `--out PATH` overrides the
//! destination, and `EREE_SCALE` = `small` / `default` / `paper` selects
//! the universe; the checked-in `BENCH_tabulate.json` is Default scale,
//! ≈ 1.0 M jobs. The legacy engine it times lives behind tabulate's
//! `reference` feature, which this crate enables.)
//!
//! `BENCH_tabulate_ci.json` is a second checked-in baseline at **Small**
//! scale, consumed by the CI delta guard: passing
//! `--check-against <baseline>` makes the run exit nonzero when the
//! Workload 1 `speedup_1t` regressed by more than `--max-regression`
//! (default 0.20) relative to the baseline. The guard compares speedup
//! *ratios* (two timings from one run), not absolute milliseconds, so it
//! travels across runner hardware; regenerate the CI baseline with
//! `EREE_SCALE=small cargo run --release -p bench --bin bench_tabulate --
//! --out BENCH_tabulate_ci.json` whenever the engine legitimately
//! changes speed.
//!
//! The JSON written at the repo root has this schema:
//!
//! | field | meaning |
//! |---|---|
//! | `bench` | always `"tabulate_old_vs_new"` |
//! | `scale` | the `EREE_SCALE` the run used |
//! | `jobs`, `establishments` | size of the timed universe |
//! | `threads` | hardware threads used for the `_mt` rows |
//! | `iters` | best-of-N iteration count |
//! | `index_build_ms` | one-time one-shard [`DatasetIndex`](tabulate::DatasetIndex) build cost |
//! | `dataset_digest_ms` | [`dataset_digest`](eree_core::store::dataset_digest) of the dataset: the digest an agency or service start pays, threaded over the host |
//! | `simd` | whether the AVX2 kernels were available at run time |
//! | `specs[].spec` | marginal spec name (`workload1`, `workload3`, full-attribute) |
//! | `specs[].cells` | nonzero cells tabulated |
//! | `specs[].legacy_ms` | legacy per-worker engine, single-threaded |
//! | `specs[].scalar_1t_ms` | CSR engine, single-threaded, `Kernel::Scalar` forced |
//! | `specs[].indexed_1t_ms` | CSR engine, single-threaded, `Kernel::Auto` (SIMD when available) |
//! | `specs[].indexed_mt_ms` | CSR engine, sharded across `effective_shards(threads)` (reuses the 1T time when sharding cannot pay, so MT never reads worse than 1T) |
//! | `specs[].speedup_1t` / `speedup_mt` | `legacy_ms` over the two indexed times |
//! | `specs[].simd_speedup_1t` | `scalar_1t_ms / indexed_1t_ms` — the kernel A/B on one index |
//!
//! Passing `--national JOBS` appends a `national` section: a
//! `GeneratorConfig::national` universe of roughly `JOBS` jobs is
//! **streamed** (`Generator::for_each_establishment`) into a
//! per-state `RegionIndexBuilder` without ever materializing the
//! dataset, and the section records the honest cost of that path:
//!
//! | field | meaning |
//! |---|---|
//! | `national.jobs`, `national.establishments`, `national.shards` | realized universe size and state-shard count |
//! | `national.simd` | AVX2 availability during the run |
//! | `national.stream_build_ms` | streaming generate-and-index wall time |
//! | `national.peak_rss_mb` | `VmHWM` after the build — the bounded-RSS claim, measured |
//! | `national.dataset_digest_ms` | [`dataset_digest`](eree_core::store::dataset_digest) of the same universe, generated flat after the peak-RSS reading |
//! | `national.scaling[].spec` / `.cells` | workload tabulated against the sharded index |
//! | `national.scaling[].scalar_1t_ms` / `.simd_speedup_1t` | kernel A/B at national scale |
//! | `national.scaling[].threads_ms[]` | `{threads, ms}` curve, doubling thread counts up to the host |
//!
//! When both the fresh run and the `--check-against` baseline carry a
//! `national` section, the guard also fails on a >`--max-regression`
//! drop of the national Workload 1 `simd_speedup_1t` (the CI baseline is
//! Small scale without `--national`, so this extra guard only arms on
//! full regenerations).
//!
//! **Caveat (from ROADMAP):** the dev container is 1-core, so the
//! checked-in `indexed_mt_ms` ≈ `indexed_1t_ms`, the national scaling
//! curve has a single `threads = 1` point, and `engine_batch`'s
//! sequential-vs-parallel comparison reads as parity there; multi-core
//! CI runners show the real sharded speedup. Treat `speedup_1t` and
//! `simd_speedup_1t` as the portable numbers.

use eval::runner::{EvalScale, ExperimentContext, TrialSpec};

/// Small-scale context shared by the figure benches (benchmarks measure
/// per-iteration cost of the experiment inner loops, not paper-scale wall
/// time).
pub fn bench_context() -> ExperimentContext {
    ExperimentContext::with_seed(EvalScale::Small, 42)
}

/// Two-trial spec keeping bench iterations fast.
pub fn bench_trials() -> TrialSpec {
    TrialSpec {
        trials: 2,
        base_seed: 7,
    }
}
