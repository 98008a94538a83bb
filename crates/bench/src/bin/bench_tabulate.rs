//! Old-vs-new tabulation timing: the legacy per-worker hash-map engine
//! against the columnar CSR [`DatasetIndex`] engine (one-shard layout),
//! on the canonical eval dataset.
//!
//! Writes `BENCH_tabulate.json` at the repo root (override with
//! `--out <path>`), recording per-spec wall times and speedups plus the
//! one-time index build cost. The spec list includes a `filtered:`
//! workload — Workload 3 over the workers an age-group set ∧ a race set
//! selects (about 40% of jobs, the shape of every release the release-path
//! benchmark sends), legacy filtered per-worker loop vs the CSR index —
//! and a `flows:` workload: the quarter-pair flow tabulation over a
//! two-quarter panel, legacy `establishment_size` scan vs the CSR index
//! pair. Exits nonzero (panics) if the two engines ever disagree on a
//! single cell, so CI can run it as a correctness smoke as well as a
//! perf probe.
//!
//! Usage: `cargo run --release -p bench --bin bench_tabulate --
//! [--iters N] [--out PATH] [--national JOBS]
//! [--check-against BASELINE [--max-regression F]]`.
//! Scale follows `EREE_SCALE` (`small`/`default`/`paper`);
//! `--national JOBS` additionally streams a ~`JOBS`-job
//! `GeneratorConfig::national` universe into a per-state index, checks
//! every thread count's result against the scalar 1-thread result, and
//! records the build cost, peak RSS, kernel A/B, thread-scaling curve
//! and dataset digest cost in a `national` section. Both levels record
//! `dataset_digest_ms`, the digest a service start pays.
//!
//! `--check-against` is the CI delta guard: after writing the fresh
//! results, the single-threaded speedups of Workload 1 and of the
//! filtered Workload 3 row are compared against the same fields of the
//! checked-in baseline file (which must come from the same scale), and
//! the run exits nonzero if either regressed by more than
//! `--max-regression` (default 0.20, i.e. >20%). Speedup is a *ratio* of
//! two timings from the same run, so it is far more stable across runner
//! hardware than absolute milliseconds.
//!
//! The output schema (field-by-field) is documented in the `bench`
//! crate's rustdoc (`crates/bench`).

use eree_core::store::dataset_digest;
use eval::runner::EvalScale;
use lodes::{AgeGroup, Dataset, DatasetPanel, Generator, GeneratorConfig, PanelConfig, Race};
use std::time::Instant;
use tabulate::{
    compute_flows_legacy, compute_marginal_filtered_legacy, compute_marginal_legacy,
    simd_available, workload1, workload3, DatasetIndex, FilterExpr, FlowMarginal, Kernel, Marginal,
    MarginalSpec, RegionIndexBuilder, WorkerAttr, WorkplaceAttr,
};

/// Canonical eval data seed (same as `ExperimentContext::new`).
const CANONICAL_SEED: u64 = 0xEEE5_2017;

/// Share of jobs the filtered row's filter must select: the band the
/// release-path benchmark draws every filter from.
const FILTER_SHARE: std::ops::Range<f64> = 0.35..0.45;

/// The filtered row's filter, in the release-path benchmark's shape (an
/// age-group set ∧ a race set): workers aged 35–64 who are White alone,
/// about 40% of jobs by the generator's priors.
fn benchmark_filter() -> FilterExpr {
    FilterExpr::age_in([AgeGroup::A35_44, AgeGroup::A45_54, AgeGroup::A55_64]).and(
        FilterExpr::WorkerIn(WorkerAttr::Race, vec![Race::White.index() as u32]),
    )
}

/// The results-file name of Workload 3 under [`benchmark_filter`].
fn filtered_name(spec: &MarginalSpec) -> String {
    format!("filtered:{}", spec.name())
}

fn time_best<T>(iters: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..iters {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (best, last.expect("at least one iteration"))
}

fn assert_identical(name: &str, legacy: &Marginal, indexed: &Marginal) {
    assert_eq!(
        legacy.num_cells(),
        indexed.num_cells(),
        "{name}: cell count mismatch"
    );
    for ((lk, ls), (ik, is)) in legacy.iter().zip(indexed.iter()) {
        assert_eq!(lk, ik, "{name}: key order mismatch");
        assert_eq!(ls, is, "{name}: stats mismatch at key {lk:?}");
    }
}

fn assert_flows_identical(name: &str, legacy: &FlowMarginal, indexed: &FlowMarginal) {
    assert_eq!(
        legacy.num_cells(),
        indexed.num_cells(),
        "{name}: flow cell count mismatch"
    );
    for ((lk, ls), (ik, is)) in legacy.iter().zip(indexed.iter()) {
        assert_eq!(lk, ik, "{name}: flow key order mismatch");
        assert_eq!(ls, is, "{name}: flow stats mismatch at key {lk:?}");
    }
    assert_eq!(
        legacy.content_digest(),
        indexed.content_digest(),
        "{name}: flow content digest mismatch"
    );
}

struct SpecResult {
    name: String,
    cells: usize,
    legacy_ms: f64,
    scalar_1t_ms: f64,
    indexed_ms: f64,
    indexed_mt_ms: f64,
    speedup_1t: f64,
    speedup_mt: f64,
    simd_speedup_1t: f64,
}

/// Old-vs-new timing of one spec, over the workers `filter` selects when
/// there is one (the legacy column then runs the reference semantics,
/// `FilterExpr::matches_record`, per worker).
fn bench_spec(
    dataset: &Dataset,
    index: &DatasetIndex,
    spec: &MarginalSpec,
    filter: Option<&FilterExpr>,
    iters: usize,
    threads: usize,
) -> SpecResult {
    let (legacy_ms, legacy) = time_best(iters, || match filter {
        None => compute_marginal_legacy(dataset, spec),
        Some(expr) => compute_marginal_filtered_legacy(dataset, spec, |w| {
            expr.matches_record(w, dataset.workplace(dataset.employer_of(w.id)))
        }),
    });
    let (scalar_1t_ms, scalar) =
        time_best(iters, || index.marginal(spec, filter, 1, Kernel::Scalar));
    let (indexed_ms, indexed) = time_best(iters, || index.marginal(spec, filter, 1, Kernel::Auto));
    // MT rows go through the same shard-count heuristic the release
    // engine applies: when the dataset is too small (or the host too
    // narrow) to pay for sharding, the 1-thread measurement IS the
    // multi-thread result — recorded as such, so MT never loses to 1T
    // on noise alone.
    let eff = index.effective_shards(threads);
    let (indexed_mt_ms, indexed_mt) = if eff <= 1 {
        (indexed_ms, indexed.clone())
    } else {
        time_best(iters, || index.marginal(spec, filter, eff, Kernel::Auto))
    };
    let name = match filter {
        None => spec.name(),
        Some(_) => filtered_name(spec),
    };
    assert_identical(&name, &legacy, &scalar);
    assert_identical(&name, &legacy, &indexed);
    assert_identical(&name, &legacy, &indexed_mt);
    if filter.is_some() {
        let share = legacy.total() as f64 / dataset.num_jobs() as f64;
        assert!(
            FILTER_SHARE.contains(&share),
            "{name}: the filter selects {share:.3} of jobs, outside {FILTER_SHARE:?}"
        );
    }
    SpecResult {
        name,
        cells: legacy.num_cells(),
        legacy_ms,
        scalar_1t_ms,
        indexed_ms,
        indexed_mt_ms,
        speedup_1t: legacy_ms / indexed_ms,
        speedup_mt: legacy_ms / indexed_mt_ms,
        simd_speedup_1t: scalar_1t_ms / indexed_ms,
    }
}

/// Old-vs-new timing for the flow (quarter-pair) tabulation: the legacy
/// per-establishment `establishment_size` scan against the CSR index pair,
/// on the workplace-only flow spec. Panics on any cell disagreement, so
/// the CI smoke covers the flow engine too.
fn bench_flows(
    panel: &DatasetPanel,
    spec: &MarginalSpec,
    iters: usize,
    threads: usize,
) -> SpecResult {
    let before = panel.quarter(0);
    let after = panel.quarter(1);
    let before_index = DatasetIndex::build_with_threshold(before, usize::MAX);
    let after_index = before_index.build_like(after);
    let flows = |threads, kernel| before_index.flows(&after_index, spec, None, threads, kernel);
    let (legacy_ms, legacy) = time_best(iters, || compute_flows_legacy(before, after, spec));
    let (scalar_1t_ms, scalar) = time_best(iters, || flows(1, Kernel::Scalar));
    let (indexed_ms, indexed) = time_best(iters, || flows(1, Kernel::Auto));
    let eff = before_index.effective_shards(threads);
    let (indexed_mt_ms, indexed_mt) = if eff <= 1 {
        (indexed_ms, indexed.clone())
    } else {
        time_best(iters, || flows(eff, Kernel::Auto))
    };
    let name = format!("flows:{}", spec.name());
    assert_flows_identical(&name, &legacy, &scalar);
    assert_flows_identical(&name, &legacy, &indexed);
    assert_flows_identical(&name, &legacy, &indexed_mt);
    SpecResult {
        name,
        cells: legacy.num_cells(),
        legacy_ms,
        scalar_1t_ms,
        indexed_ms,
        indexed_mt_ms,
        speedup_1t: legacy_ms / indexed_ms,
        speedup_mt: legacy_ms / indexed_mt_ms,
        simd_speedup_1t: scalar_1t_ms / indexed_ms,
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM` from
/// `/proc/self/status`); `0.0` where procfs is unavailable.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One spec's national-scale scaling curve.
struct NationalSpecResult {
    name: String,
    cells: usize,
    scalar_1t_ms: f64,
    simd_speedup_1t: f64,
    /// `(threads, best ms)` pairs, ascending in threads.
    threads_ms: Vec<(usize, f64)>,
}

/// The national streaming workload: stream-generate `target_jobs` jobs
/// straight into a per-state index (no flat `Dataset` is ever
/// materialized — peak RSS stays bounded by the index itself), then
/// record the 1..=N-thread scaling curve per spec. Returns the JSON
/// fragment for the `national` section.
fn bench_national(target_jobs: usize, iters: usize, threads: usize) -> String {
    let cfg = GeneratorConfig::national(CANONICAL_SEED, target_jobs);
    let generator = Generator::new(cfg);
    eprintln!("national: streaming ~{target_jobs} jobs into a per-state index ...");
    let build_start = Instant::now();
    let mut builder = RegionIndexBuilder::new(&generator.geography());
    generator.for_each_establishment(|wp, workers| builder.push_establishment(wp, workers));
    let index = builder.finish();
    let stream_build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    let rss = peak_rss_mb();
    eprintln!(
        "national: {} jobs, {} establishments, {} shards; stream build {:.0} ms; peak RSS {:.0} MiB",
        index.num_workers(),
        index.num_establishments(),
        index.num_shards(),
        stream_build_ms,
        rss
    );

    // Thread counts for the scaling curve: powers of two up to the
    // host's parallelism (always including 1). A 1-core container
    // records a single honest point; multi-core runners get the curve.
    let mut curve_threads = vec![1usize];
    let mut t = 2;
    while t <= threads {
        curve_threads.push(t);
        t *= 2;
    }

    let full_spec = MarginalSpec::new(
        vec![
            WorkplaceAttr::Place,
            WorkplaceAttr::Naics,
            WorkplaceAttr::Ownership,
        ],
        vec![
            WorkerAttr::Sex,
            WorkerAttr::Age,
            WorkerAttr::Race,
            WorkerAttr::Ethnicity,
            WorkerAttr::Education,
        ],
    );
    let mut results = Vec::new();
    for spec in [workload1(), full_spec] {
        let (scalar_1t_ms, scalar) =
            time_best(iters, || index.marginal(&spec, None, 1, Kernel::Scalar));
        let mut threads_ms = Vec::new();
        let mut auto_1t_ms = f64::INFINITY;
        for &t in &curve_threads {
            let (ms, m) = time_best(iters, || index.marginal(&spec, None, t, Kernel::Auto));
            assert_eq!(
                m,
                scalar,
                "national {}: {t}-thread result diverged from scalar",
                spec.name()
            );
            if t == 1 {
                auto_1t_ms = ms;
            }
            threads_ms.push((t, ms));
        }
        let r = NationalSpecResult {
            name: spec.name(),
            cells: scalar.num_cells(),
            scalar_1t_ms,
            simd_speedup_1t: scalar_1t_ms / auto_1t_ms,
            threads_ms,
        };
        eprintln!(
            "national {:<45} scalar(1t) {:>9.1} ms | simd(1t) {:>9.1} ms ({:.2}x) | curve {:?}",
            r.name, r.scalar_1t_ms, auto_1t_ms, r.simd_speedup_1t, r.threads_ms
        );
        results.push(r);
    }

    // The start cost at this scale: the flat universe a service would
    // be handed, generated only now so the peak-RSS reading above stays
    // the streaming build's.
    let flat = generator.generate();
    let (digest_ms, _) = time_best(iters, || dataset_digest(&flat));
    drop(flat);
    eprintln!("national: dataset digest {digest_ms:.1} ms");

    let scaling: Vec<String> = results
        .iter()
        .map(|r| {
            let curve: Vec<String> = r
                .threads_ms
                .iter()
                .map(|(t, ms)| format!("{{\"threads\": {t}, \"ms\": {ms:.3}}}"))
                .collect();
            format!(
                "      {{\n        \"spec\": \"{}\",\n        \"cells\": {},\n        \"scalar_1t_ms\": {:.3},\n        \"simd_speedup_1t\": {:.3},\n        \"threads_ms\": [{}]\n      }}",
                r.name,
                r.cells,
                r.scalar_1t_ms,
                r.simd_speedup_1t,
                curve.join(", ")
            )
        })
        .collect();
    format!(
        "  \"national\": {{\n    \"jobs\": {},\n    \"establishments\": {},\n    \"shards\": {},\n    \"simd\": {},\n    \"stream_build_ms\": {:.3},\n    \"peak_rss_mb\": {:.1},\n    \"dataset_digest_ms\": {:.3},\n    \"scaling\": [\n{}\n    ]\n  }}",
        index.num_workers(),
        index.num_establishments(),
        index.num_shards(),
        simd_available(),
        stream_build_ms,
        rss,
        digest_ms,
        scaling.join(",\n")
    )
}

/// Extract `national.scaling[spec == spec_name].simd_speedup_1t` from a
/// results file, `None` when the file has no `national` section (the
/// small-scale CI baseline deliberately omits it).
fn national_simd_speedup(json: &str, spec_name: &str) -> Option<f64> {
    let value: serde::Value = serde_json::from_str(json).ok()?;
    let scaling = match value.get("national")?.get("scaling") {
        Some(serde::Value::Seq(scaling)) => scaling,
        _ => return None,
    };
    for spec in scaling {
        if spec.get("spec") == Some(&serde::Value::Str(spec_name.to_string())) {
            return match spec.get("simd_speedup_1t") {
                Some(serde::Value::F64(x)) => Some(*x),
                Some(serde::Value::U64(n)) => Some(*n as f64),
                _ => None,
            };
        }
    }
    None
}

/// Extract the `scale` field from a results file.
fn result_scale(json: &str, path: &str) -> String {
    let value: serde::Value = serde_json::from_str(json)
        .unwrap_or_else(|e| panic!("unparseable results file {path}: {e}"));
    match value.get("scale") {
        Some(serde::Value::Str(scale)) => scale.clone(),
        _ => panic!("results file {path} has no `scale` field"),
    }
}

/// Extract `specs[name == spec_name].speedup_1t` from a results file.
fn speedup_1t(json: &str, spec_name: &str, path: &str) -> f64 {
    let value: serde::Value = serde_json::from_str(json)
        .unwrap_or_else(|e| panic!("unparseable results file {path}: {e}"));
    let specs = match value.get("specs") {
        Some(serde::Value::Seq(specs)) => specs,
        _ => panic!("results file {path} has no `specs` array"),
    };
    for spec in specs {
        if spec.get("spec") == Some(&serde::Value::Str(spec_name.to_string())) {
            return match spec.get("speedup_1t") {
                Some(serde::Value::F64(x)) => *x,
                Some(serde::Value::U64(n)) => *n as f64,
                _ => panic!("spec `{spec_name}` in {path} has no numeric `speedup_1t`"),
            };
        }
    }
    panic!("results file {path} has no spec named `{spec_name}`");
}

fn main() {
    let mut iters = 3usize;
    let mut out = format!("{}/../../BENCH_tabulate.json", env!("CARGO_MANIFEST_DIR"));
    let mut check_against: Option<String> = None;
    let mut max_regression = 0.20f64;
    let mut national_jobs: Option<usize> = None;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--iters" => {
                iters = args[i + 1].parse().expect("--iters takes a number");
                i += 2;
            }
            "--out" => {
                out = args[i + 1].clone();
                i += 2;
            }
            "--check-against" => {
                check_against = Some(args[i + 1].clone());
                i += 2;
            }
            "--max-regression" => {
                max_regression = args[i + 1].parse().expect("--max-regression takes a float");
                i += 2;
            }
            "--national" => {
                national_jobs = Some(args[i + 1].parse().expect("--national takes a job count"));
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }

    let scale = EvalScale::from_env();
    eprintln!("generating canonical eval dataset ({scale:?}) ...");
    let dataset = Generator::new(scale.generator_config(CANONICAL_SEED)).generate();
    let threads = tabulate::par::threads();
    eprintln!(
        "dataset: {} jobs, {} establishments; {threads} hardware threads; best of {iters} iters",
        dataset.num_jobs(),
        dataset.num_workplaces()
    );

    // The one-shard layout at every scale, so the recorded trajectory
    // stays comparable; the `national` section covers the per-state one.
    let (build_ms, index) = time_best(iters, || {
        DatasetIndex::build_with_threshold(&dataset, usize::MAX)
    });
    let (digest_ms, _) = time_best(iters, || dataset_digest(&dataset));
    eprintln!("index build {build_ms:.3} ms | dataset digest {digest_ms:.3} ms");

    // The full-attribute (workload3-class) spec: all establishment
    // attributes crossed with every worker attribute.
    let full_spec = MarginalSpec::new(
        vec![
            WorkplaceAttr::Place,
            WorkplaceAttr::Naics,
            WorkplaceAttr::Ownership,
        ],
        vec![
            WorkerAttr::Sex,
            WorkerAttr::Age,
            WorkerAttr::Race,
            WorkerAttr::Ethnicity,
            WorkerAttr::Education,
        ],
    );
    let filter = benchmark_filter();
    let specs = [
        (workload1(), None),
        (workload3(), None),
        (workload3(), Some(&filter)),
        (full_spec, None),
    ];
    let mut results = Vec::new();
    for (spec, filter) in &specs {
        let r = bench_spec(&dataset, &index, spec, *filter, iters, threads);
        eprintln!(
            "{:<55} legacy {:>9.3} ms | indexed(1t) {:>9.3} ms ({:>5.2}x) | indexed({}t) {:>9.3} ms ({:>5.2}x) | {} cells",
            r.name, r.legacy_ms, r.indexed_ms, r.speedup_1t, threads, r.indexed_mt_ms, r.speedup_mt, r.cells
        );
        results.push(r);
    }

    // The flow workload: a two-quarter panel over the same canonical
    // establishment frame, tabulated with the workplace-only flow spec.
    eprintln!("generating two-quarter panel for the flow workload ...");
    let panel = DatasetPanel::generate(
        &scale.generator_config(CANONICAL_SEED),
        &PanelConfig {
            quarters: 2,
            growth_sigma: 0.08,
            death_rate: 0.02,
            seed: CANONICAL_SEED ^ 0x0F10,
        },
    );
    let flow_spec = MarginalSpec::new(
        vec![
            WorkplaceAttr::Place,
            WorkplaceAttr::Naics,
            WorkplaceAttr::Ownership,
        ],
        vec![],
    );
    let r = bench_flows(&panel, &flow_spec, iters, threads);
    eprintln!(
        "{:<55} legacy {:>9.3} ms | indexed(1t) {:>9.3} ms ({:>5.2}x) | indexed({}t) {:>9.3} ms ({:>5.2}x) | {} cells",
        r.name, r.legacy_ms, r.indexed_ms, r.speedup_1t, threads, r.indexed_mt_ms, r.speedup_mt, r.cells
    );
    results.push(r);

    let national_json = national_jobs.map(|jobs| bench_national(jobs, iters.min(3), threads));

    let spec_json: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"spec\": \"{}\",\n      \"cells\": {},\n      \"legacy_ms\": {:.3},\n      \"scalar_1t_ms\": {:.3},\n      \"indexed_1t_ms\": {:.3},\n      \"indexed_mt_ms\": {:.3},\n      \"speedup_1t\": {:.3},\n      \"speedup_mt\": {:.3},\n      \"simd_speedup_1t\": {:.3}\n    }}",
                r.name, r.cells, r.legacy_ms, r.scalar_1t_ms, r.indexed_ms, r.indexed_mt_ms,
                r.speedup_1t, r.speedup_mt, r.simd_speedup_1t
            )
        })
        .collect();
    let national_section = national_json.map(|n| format!(",\n{n}")).unwrap_or_default();
    let json = format!(
        "{{\n  \"bench\": \"tabulate_old_vs_new\",\n  \"scale\": \"{:?}\",\n  \"jobs\": {},\n  \"establishments\": {},\n  \"threads\": {},\n  \"iters\": {},\n  \"simd\": {},\n  \"index_build_ms\": {:.3},\n  \"dataset_digest_ms\": {:.3},\n  \"specs\": [\n{}\n  ]{}\n}}\n",
        scale,
        dataset.num_jobs(),
        dataset.num_workplaces(),
        threads,
        iters,
        simd_available(),
        build_ms,
        digest_ms,
        spec_json.join(",\n"),
        national_section
    );
    std::fs::write(&out, &json).expect("write BENCH_tabulate.json");
    eprintln!("wrote {out}");

    // Delta guard: the single-threaded speedups of Workload 1 and of the
    // filtered Workload 3 row must not have regressed by more than
    // `max_regression` relative to the baseline.
    if let Some(baseline_path) = check_against {
        let baseline_json =
            std::fs::read_to_string(&baseline_path).expect("read baseline results file");
        // Speedups are only comparable within one universe size: refuse a
        // baseline generated at a different EREE_SCALE outright instead
        // of passing (or failing) on an apples-to-oranges ratio.
        let baseline_scale = result_scale(&baseline_json, &baseline_path);
        let fresh_scale = result_scale(&json, &out);
        assert_eq!(
            baseline_scale, fresh_scale,
            "baseline {baseline_path} was generated at {baseline_scale:?} scale but this run \
             is {fresh_scale:?} — regenerate the baseline at the scale the guard runs at"
        );
        for spec_name in [workload1().name(), filtered_name(&workload3())] {
            let baseline = speedup_1t(&baseline_json, &spec_name, &baseline_path);
            let fresh = speedup_1t(&json, &spec_name, &out);
            let floor = baseline * (1.0 - max_regression);
            eprintln!(
                "delta guard: {spec_name} speedup_1t fresh {fresh:.2}x vs baseline \
                 {baseline:.2}x (floor {floor:.2}x at {:.0}% allowed regression)",
                max_regression * 100.0
            );
            assert!(
                fresh >= floor,
                "{spec_name} single-threaded speedup regressed more than {:.0}%: \
                 {fresh:.2}x vs baseline {baseline:.2}x (floor {floor:.2}x; baseline \
                 {baseline_path})",
                max_regression * 100.0
            );
        }

        // National guard: when both runs carried the streaming national
        // workload, its workload1 SIMD speedup (a within-run ratio, so
        // portable across runner hardware) must not regress either. A
        // small-scale CI baseline without a `national` section skips
        // this leg — the CI baseline stays cheap by design.
        let spec_name = workload1().name();
        if let (Some(base_n), Some(fresh_n)) = (
            national_simd_speedup(&baseline_json, &spec_name),
            national_simd_speedup(&json, &spec_name),
        ) {
            let floor = base_n * (1.0 - max_regression);
            eprintln!(
                "delta guard: national workload1 simd_speedup_1t fresh {fresh_n:.2}x vs \
                 baseline {base_n:.2}x (floor {floor:.2}x)"
            );
            assert!(
                fresh_n >= floor,
                "national workload1 SIMD speedup regressed more than {:.0}%: \
                 {fresh_n:.2}x vs baseline {base_n:.2}x (baseline {baseline_path})",
                max_regression * 100.0
            );
        }
    }
}
