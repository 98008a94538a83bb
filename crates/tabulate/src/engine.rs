//! Marginal evaluation over one CSR shard ([`TabulationIndex`]) of a
//! [`DatasetIndex`].
//!
//! The per-shard evaluator iterates **establishments, not workers**, over
//! the shard's CSR layout (see [`crate::index`]):
//!
//! 1. The workplace part of the cell key is encoded **once per
//!    establishment** by accumulating the spec's workplace code columns
//!    against the schema strides.
//! 2. Worker-attribute combinations within the establishment are counted
//!    in a small **dense scratch array** over the worker sub-domain (at
//!    most a few thousand codes — the product of worker-attribute
//!    cardinalities), touching only the `u8` columns the spec names.
//!    The multiply-add that folds those columns into sub-keys does not run
//!    per worker: sub-keys for an L2-resident **block** of contiguous
//!    workers are precomputed by the branch-free kernels in
//!    [`crate::kernel`] (AVX2 when available, scalar otherwise — selected
//!    at runtime, bit-identical by construction), and the scatter loop
//!    then reads one `u16` per worker. Establishment base keys are
//!    precomputed the same way over the workplace `u32` columns.
//! 3. Each establishment emits `(cell key, contribution)` pairs; because
//!    one establishment's workers are contiguous, every pair *is* one
//!    establishment's exact contribution to one cell — no global
//!    `(cell, establishment)` hash map exists anywhere.
//!
//! **Workplace-only marginals** skip step 2 entirely: each establishment
//! lands in exactly one cell, contributing its whole (or filtered)
//! worker-range size.
//!
//! **Parallelism and determinism.** [`DatasetIndex::marginal`] splits
//! every shard's establishment loop into contiguous, worker-balanced
//! windows and runs them on the shared driver in [`crate::region`]; each
//! window sorts its emitted run by key, and the runs are combined by a
//! deterministic k-way merge that aggregates equal keys into
//! [`CellStats`] (`count` sums, `establishments` counts pairs,
//! `max_establishment` maxes). All three aggregates are commutative, so
//! the resulting [`Marginal`] — a `Vec` of cells sorted by key — is
//! **bit-identical at any thread count and in either layout**, preserving
//! the engine-wide determinism guarantee (artifacts depend only on
//! `(seed, cell key)`).
//!
//! Establishment metadata follows Lemma 8.5 throughout: for filtered
//! queries, `x_v` is the largest per-establishment count of workers
//! *matching the filter*, and `establishments` counts establishments with
//! at least one matching worker.
//!
//! The pre-index per-worker loop survives as `compute_marginal_legacy` /
//! `compute_marginal_filtered_legacy` — a brute-force reference for tests
//! and the old-vs-new benchmark — but only behind the **default-off
//! `reference` feature**: the reference evaluators are reachable from
//! nothing a production build compiles, so a release path can never
//! silently take the slow pre-index loop.

use crate::attr::MarginalSpec;
use crate::cell::CellKey;
use crate::cell::CellSchema;
use crate::filter::{CompiledFilter, FilterExpr};
use crate::index::TabulationIndex;
use crate::kernel::{establishment_keys, worker_subkeys, Kernel};
#[cfg(any(doc, feature = "reference"))]
use crate::marginal::CellStats;
use crate::marginal::Marginal;
use crate::region::DatasetIndex;
use lodes::Dataset;
#[cfg(feature = "reference")]
use lodes::Worker;
#[cfg(feature = "reference")]
use std::collections::{BTreeMap, HashMap};

/// Evaluate the marginal query `q_V(D)`.
///
/// Convenience wrapper: builds a throwaway one-shard [`DatasetIndex`] and
/// runs the indexed evaluator single-threaded. Callers tabulating one
/// dataset more than once should build the index themselves (or go
/// through the release engine, which shares one per batch/season).
pub fn compute_marginal(dataset: &Dataset, spec: &MarginalSpec) -> Marginal {
    DatasetIndex::one_shard(dataset).marginal(spec, None, 1, Kernel::Auto)
}

/// Evaluate a marginal over only the records matching the declarative
/// filter `expr` (see [`crate::filter`]).
///
/// Convenience wrapper building a throwaway one-shard [`DatasetIndex`];
/// callers tabulating one dataset more than once should build the index
/// themselves and use [`DatasetIndex::marginal`].
pub fn compute_marginal_expr(
    dataset: &Dataset,
    spec: &MarginalSpec,
    expr: &FilterExpr,
) -> Marginal {
    DatasetIndex::one_shard(dataset).marginal(spec, Some(expr), 1, Kernel::Auto)
}

/// Per-shard tabulation state, borrowed immutably by every task of one
/// shard. Built by [`DatasetIndex::marginal`], one per shard.
pub(crate) struct ShardPlan<'a> {
    index: &'a TabulationIndex,
    /// Workplace code columns of the spec's workplace attributes.
    wp_cols: Vec<&'a [u32]>,
    /// Schema strides of the workplace attributes (these already carry the
    /// worker sub-domain factor, so `base + subkey` is the full key).
    wp_strides: Vec<u64>,
    /// Worker code columns of the spec's worker attributes.
    wk_cols: Vec<&'a [u8]>,
    /// Schema strides of the worker attributes (the low mixed-radix part;
    /// sub-keys fit `u16` because worker domains are small enums — the
    /// full cross product is ≤ 768 codes).
    wk_strides: Vec<u16>,
    /// Worker sub-domain size — the dense scratch extent.
    worker_domain: usize,
    filter: Option<&'a CompiledFilter>,
    kernel: Kernel,
}

impl<'a> ShardPlan<'a> {
    pub(crate) fn new(
        index: &'a TabulationIndex,
        spec: &MarginalSpec,
        schema: &CellSchema,
        filter: Option<&'a CompiledFilter>,
        kernel: Kernel,
    ) -> Self {
        let n_wp = spec.workplace_attrs.len();
        Self {
            index,
            wp_cols: spec
                .workplace_attrs
                .iter()
                .map(|&a| index.workplace_column(a))
                .collect(),
            wp_strides: (0..n_wp).map(|i| schema.stride_of(i)).collect(),
            wk_cols: spec
                .worker_attrs
                .iter()
                .map(|&a| index.worker_column(a))
                .collect(),
            wk_strides: (0..spec.worker_attrs.len())
                .map(|i| {
                    u16::try_from(schema.stride_of(n_wp + i))
                        .expect("worker sub-domain exceeds u16")
                })
                .collect(),
            worker_domain: spec.worker_domain_size(),
            filter,
            kernel,
        }
    }
}

/// Workers per precomputed sub-key block: 2¹⁵ `u16` sub-keys = 64 KiB, an
/// L2-resident staging buffer between the key kernels and the scatter.
const WORKER_BLOCK: usize = 1 << 15;

/// Tabulate establishments `lo..hi` into a run of `(key, contribution)`
/// pairs sorted by key. Each pair is one establishment's exact count in
/// one cell; an establishment emits at most one pair per cell.
///
/// The shard walks its establishments in batches whose worker spans fill
/// one [`WORKER_BLOCK`]: the batch's establishment base keys and worker
/// sub-keys are precomputed by the [`crate::kernel`] kernels, then the
/// scalar scatter counts each establishment's workers into the dense
/// scratch. The scatter itself is identical for every kernel choice, so
/// the emitted run is bit-identical whichever kernel filled the buffers.
pub(crate) fn tabulate_shard(plan: &ShardPlan<'_>, lo: usize, hi: usize) -> Vec<(u64, u32)> {
    let mut run: Vec<(u64, u32)> = Vec::new();
    // Inclusive upper bound on emitted keys, tracked once per
    // establishment so the run sort can pick a radix strategy.
    let mut max_key: u64 = 0;
    // Dense per-establishment counts over the worker sub-domain, reset
    // via the touched list (sub-domains are ≤ a few thousand codes).
    let mut scratch = vec![0u32; plan.worker_domain];
    let mut touched: Vec<u32> = Vec::with_capacity(plan.worker_domain.min(256));
    let mut bases: Vec<u64> = Vec::new();
    let mut subkeys: Vec<u16> = Vec::new();
    let workers = plan.index.workers();
    let mut batch_lo = lo;
    while batch_lo < hi {
        // Extend the batch establishment-aligned until its worker span
        // fills the block (always at least one establishment, so a single
        // establishment larger than the block still processes — its
        // sub-key buffer just grows past the L2 target for that batch).
        let span_start = plan.index.worker_range(batch_lo).start;
        let mut batch_hi = batch_lo + 1;
        while batch_hi < hi && plan.index.worker_range(batch_hi).end - span_start <= WORKER_BLOCK {
            batch_hi += 1;
        }
        let span_end = plan.index.worker_range(batch_hi - 1).end;

        // Establishment base keys for the whole batch in one kernel pass.
        bases.resize(batch_hi - batch_lo, 0);
        establishment_keys(
            &plan.wp_cols,
            &plan.wp_strides,
            batch_lo,
            &mut bases,
            plan.kernel,
        );

        if plan.wk_cols.is_empty() {
            // Workplace-only fast path: each establishment lands in
            // exactly one cell with its whole (or filtered) size — no
            // per-worker attribute work at all when unfiltered.
            for e in batch_lo..batch_hi {
                let range = plan.index.worker_range(e);
                if range.is_empty() {
                    continue;
                }
                let count = match plan.filter {
                    None => range.len() as u32,
                    Some(f) => workers[range].iter().filter(|w| f.matches(w)).count() as u32,
                };
                if count > 0 {
                    let base = bases[e - batch_lo];
                    max_key = max_key.max(base);
                    run.push((base, count));
                }
            }
            batch_lo = batch_hi;
            continue;
        }

        // Worker sub-keys for the batch's whole span in one kernel pass.
        subkeys.resize(span_end - span_start, 0);
        worker_subkeys(
            &plan.wk_cols,
            &plan.wk_strides,
            span_start,
            &mut subkeys,
            plan.kernel,
        );

        for e in batch_lo..batch_hi {
            let range = plan.index.worker_range(e);
            if range.is_empty() {
                continue;
            }
            let base = bases[e - batch_lo];
            // Bound every key this establishment can emit in one step:
            // sub-keys are strictly below the worker domain.
            max_key = max_key.max(base + plan.worker_domain as u64 - 1);
            // SAFETY (both arms): every sub-key is `Σ code·stride` over
            // enum-derived code columns, each code strictly below its
            // attribute's cardinality, so `subkey < worker_domain ==
            // scratch.len()` by the mixed-radix construction — the same
            // invariant that makes the `u16` kernel arithmetic exact.
            // The emit loop below only revisits sub-keys pushed here.
            match plan.filter {
                None => {
                    for &subkey in &subkeys[range.start - span_start..range.end - span_start] {
                        let slot = unsafe { scratch.get_unchecked_mut(subkey as usize) };
                        if *slot == 0 {
                            touched.push(subkey as u32);
                        }
                        *slot += 1;
                    }
                }
                Some(f) => {
                    for i in range {
                        if f.matches(&workers[i]) {
                            let subkey = subkeys[i - span_start];
                            let slot = unsafe { scratch.get_unchecked_mut(subkey as usize) };
                            if *slot == 0 {
                                touched.push(subkey as u32);
                            }
                            *slot += 1;
                        }
                    }
                }
            }
            for &subkey in &touched {
                let slot = unsafe { scratch.get_unchecked_mut(subkey as usize) };
                run.push((base + subkey as u64, *slot));
                *slot = 0;
            }
            touched.clear();
        }
        batch_lo = batch_hi;
    }
    // Equal keys (same cell, different establishments) may interleave
    // arbitrarily under the sort; the merge's aggregates are commutative,
    // so the final marginal does not depend on their order.
    sort_run_by_key(&mut run, max_key, |&(key, _)| key);
    run
}

/// Minimum run length for which the counting passes of the radix sort
/// amortise; shorter runs go straight to the comparison sort.
const RADIX_MIN_LEN: usize = 1 << 12;

/// Sort a shard run by cell key.
///
/// Cell keys are mixed-radix codes bounded by the spec's cell-domain
/// size, so `max_key` (an inclusive upper bound tracked during emission)
/// is typically far below 64 bits. When it fits 32 bits and the run is
/// long enough, a two-pass LSD radix sort over 16-bit digits replaces the
/// comparison sort — the post-kernel sort is the largest cost shared by
/// the scalar and SIMD evaluators, so cutting it speeds both up and lets
/// the vectorized kernels show through. Wide domains and short runs fall
/// back to the standard unstable sort. Both paths order solely by key and
/// feed the same commutative merge, so the choice never changes results.
pub(crate) fn sort_run_by_key<T: Copy>(run: &mut Vec<T>, max_key: u64, key_of: impl Fn(&T) -> u64) {
    const DIGIT_BITS: u32 = 16;
    const BUCKETS: usize = 1 << DIGIT_BITS;
    let bits = u64::BITS - max_key.leading_zeros();
    let passes = bits.div_ceil(DIGIT_BITS);
    if passes > 2 || run.len() < RADIX_MIN_LEN {
        run.sort_unstable_by_key(|t| key_of(t));
        return;
    }
    let mut aux: Vec<T> = run.clone();
    let mut counts = vec![0usize; BUCKETS];
    for pass in 0..passes {
        let shift = pass * DIGIT_BITS;
        if pass > 0 {
            counts.fill(0);
        }
        for t in run.iter() {
            counts[((key_of(t) >> shift) as usize) & (BUCKETS - 1)] += 1;
        }
        let mut total = 0usize;
        for c in counts.iter_mut() {
            let n = *c;
            *c = total;
            total += n;
        }
        for t in run.iter() {
            let digit = ((key_of(t) >> shift) as usize) & (BUCKETS - 1);
            aux[counts[digit]] = *t;
            counts[digit] += 1;
        }
        std::mem::swap(run, &mut aux);
    }
}

/// Deterministic k-way merge of per-shard runs, each sorted by `key_of`
/// (see [`sort_run_by_key`]): every `(cell, establishment)` contribution
/// with the same key folds into one `S`, from `S::default()`, via `fold`.
/// Cell tabulations fold into [`CellStats`], flow tabulations into
/// [`FlowStats`](crate::flows::FlowStats); both folds are commutative sums
/// and maxima, so the order equal keys arrive in never changes the result.
pub(crate) fn merge_runs<T, S: Default>(
    runs: Vec<Vec<T>>,
    key_of: impl Fn(&T) -> u64,
    fold: impl Fn(&mut S, &T),
) -> Vec<(CellKey, S)> {
    let mut pos = vec![0usize; runs.len()];
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).max().unwrap_or(0));
    loop {
        let mut min_key: Option<u64> = None;
        for (run, &p) in runs.iter().zip(&pos) {
            if let Some(t) = run.get(p) {
                let key = key_of(t);
                min_key = Some(min_key.map_or(key, |m: u64| m.min(key)));
            }
        }
        let Some(key) = min_key else { break };
        let mut stats = S::default();
        for (run, p) in runs.iter().zip(&mut pos) {
            while let Some(t) = run.get(*p) {
                if key_of(t) != key {
                    break;
                }
                fold(&mut stats, t);
                *p += 1;
            }
        }
        out.push((CellKey(key), stats));
    }
    out
}

/// The pre-index evaluator: one pass over the joined `WorkerFull`
/// relation, accumulating a global `(cell, establishment)` hash map.
///
/// Retained as the brute-force *reference* — ground truth for property
/// tests and the old-vs-new benchmark, never a production path; see
/// [`compute_marginal`] for the indexed engine. Only compiled under the
/// default-off `reference` feature.
#[cfg(feature = "reference")]
pub fn compute_marginal_legacy(dataset: &Dataset, spec: &MarginalSpec) -> Marginal {
    // Unfiltered: every worker survives, no counting pass needed.
    legacy_with_survivors(dataset, spec, dataset.num_workers(), |_| true)
}

/// Filtered variant of [`compute_marginal_legacy`]. Only compiled under
/// the default-off `reference` feature.
#[cfg(feature = "reference")]
pub fn compute_marginal_filtered_legacy<F>(
    dataset: &Dataset,
    spec: &MarginalSpec,
    filter: F,
) -> Marginal
where
    F: Fn(&Worker) -> bool,
{
    // One cheap counting pass so the map is sized from the rows that
    // actually survive the filter (this is the fallback path; clarity and
    // a right-sized table beat avoiding the extra predicate evaluations).
    let survivors = dataset.workers().iter().filter(|w| filter(w)).count();
    legacy_with_survivors(dataset, spec, survivors, filter)
}

#[cfg(feature = "reference")]
fn legacy_with_survivors<F>(
    dataset: &Dataset,
    spec: &MarginalSpec,
    survivors: usize,
    filter: F,
) -> Marginal
where
    F: Fn(&Worker) -> bool,
{
    let schema = CellSchema::new(spec, dataset);
    // Accumulate per-(cell, establishment) counts. Establishments are dense
    // u32 ids, so key by (cell, establishment) pair. The map holds at most
    // one entry per filter-surviving worker, and at most one per
    // (establishment, worker-sub-domain code) pair — size from whichever
    // bound is tighter, so wide specs don't rehash and empty filters don't
    // allocate a workplace-sized table.
    let capacity = survivors.min(
        dataset
            .num_workplaces()
            .saturating_mul(spec.worker_domain_size()),
    );
    let mut per_estab: HashMap<(u64, u32), u32> = HashMap::with_capacity(capacity);

    let mut values: Vec<u32> = Vec::with_capacity(schema.attrs().len());
    for worker in dataset.workers() {
        if !filter(worker) {
            continue;
        }
        let wp = dataset.workplace(dataset.employer_of(worker.id));
        values.clear();
        for attr in &spec.workplace_attrs {
            values.push(attr.value(wp));
        }
        for attr in &spec.worker_attrs {
            values.push(attr.value(worker));
        }
        let key = schema.encode(&values);
        *per_estab.entry((key.0, wp.id.0)).or_insert(0) += 1;
    }

    let mut cells: BTreeMap<CellKey, CellStats> = BTreeMap::new();
    for (&(key, _estab), &count) in &per_estab {
        let entry = cells.entry(CellKey(key)).or_insert(CellStats {
            count: 0,
            establishments: 0,
            max_establishment: 0,
        });
        entry.count += count as u64;
        entry.establishments += 1;
        entry.max_establishment = entry.max_establishment.max(count);
    }

    Marginal::new(spec.clone(), schema, cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{MarginalSpec, WorkerAttr, WorkplaceAttr};
    use lodes::{Generator, GeneratorConfig, Sex};
    use std::collections::BTreeMap;

    #[test]
    fn radix_run_sort_matches_comparison_sort() {
        // Long enough to take the radix path, with duplicate keys and a
        // key range that needs both 16-bit digit passes.
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut radix: Vec<(u64, u32)> = (0..(RADIX_MIN_LEN * 2))
            .map(|_| (next() % 100_000, next() as u32))
            .collect();
        let mut comparison = radix.clone();
        sort_run_by_key(&mut radix, 99_999, |&(key, _)| key);
        comparison.sort_by_key(|&(key, _)| key);
        // The radix sort is stable, so equal keys keep insertion order and
        // the full pair sequences match the stable comparison sort's.
        assert_eq!(radix, comparison);

        // Below the length threshold (and for > 32-bit domains) the
        // fallback must still order by key.
        let mut short: Vec<(u64, u32)> = (0..64).map(|_| (next(), next() as u32)).collect();
        sort_run_by_key(&mut short, u64::MAX, |&(key, _)| key);
        assert!(short.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    fn dataset() -> Dataset {
        Generator::new(GeneratorConfig::test_small(4)).generate()
    }

    /// Brute-force recomputation of one cell's stats.
    fn brute_force_cell(d: &Dataset, spec: &MarginalSpec, key_values: &[u32]) -> (u64, u32, u32) {
        let mut per_estab: BTreeMap<u32, u32> = BTreeMap::new();
        for w in d.workers() {
            let wp = d.workplace(d.employer_of(w.id));
            let mut vals = Vec::new();
            for a in &spec.workplace_attrs {
                vals.push(a.value(wp));
            }
            for a in &spec.worker_attrs {
                vals.push(a.value(w));
            }
            if vals == key_values {
                *per_estab.entry(wp.id.0).or_insert(0) += 1;
            }
        }
        let count: u64 = per_estab.values().map(|&c| c as u64).sum();
        let estabs = per_estab.len() as u32;
        let max = per_estab.values().copied().max().unwrap_or(0);
        (count, estabs, max)
    }

    fn assert_marginals_identical(a: &Marginal, b: &Marginal) {
        assert_eq!(a.num_cells(), b.num_cells());
        assert_eq!(a.total(), b.total());
        for ((ka, sa), (kb, sb)) in a.iter().zip(b.iter()) {
            assert_eq!(ka, kb);
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn engine_matches_brute_force() {
        let d = dataset();
        let spec = MarginalSpec::new(
            vec![WorkplaceAttr::Naics, WorkplaceAttr::Ownership],
            vec![WorkerAttr::Sex],
        );
        let m = compute_marginal(&d, &spec);
        // Check ten arbitrary nonzero cells + totals.
        for (key, stats) in m.iter().take(10) {
            let vals = m.schema().decode(key);
            let (count, estabs, max) = brute_force_cell(&d, &spec, &vals);
            assert_eq!(stats.count, count);
            assert_eq!(stats.establishments, estabs);
            assert_eq!(stats.max_establishment, max);
        }
        assert_eq!(m.total() as usize, d.num_jobs());
    }

    #[cfg(feature = "reference")]
    #[test]
    fn indexed_engine_matches_legacy_engine() {
        let d = dataset();
        let specs = [
            MarginalSpec::new(vec![], vec![]),
            MarginalSpec::new(vec![WorkplaceAttr::Place], vec![]),
            MarginalSpec::new(vec![], vec![WorkerAttr::Age, WorkerAttr::Race]),
            MarginalSpec::new(
                vec![
                    WorkplaceAttr::Place,
                    WorkplaceAttr::Naics,
                    WorkplaceAttr::Ownership,
                ],
                vec![WorkerAttr::Sex, WorkerAttr::Education],
            ),
        ];
        let female = FilterExpr::sex(Sex::Female);
        for index in [DatasetIndex::one_shard(&d), DatasetIndex::per_state(&d)] {
            for spec in &specs {
                let legacy = compute_marginal_legacy(&d, spec);
                let indexed = index.marginal(spec, None, 1, Kernel::Auto);
                assert_marginals_identical(&indexed, &legacy);
                // Filtered path too.
                let legacy_f = compute_marginal_filtered_legacy(&d, spec, |w| w.sex == Sex::Female);
                let indexed_f = index.marginal(spec, Some(&female), 1, Kernel::Auto);
                assert_marginals_identical(&indexed_f, &legacy_f);
            }
        }
    }

    #[test]
    fn sharded_tabulation_is_bit_identical_at_any_thread_count() {
        let d = dataset();
        let index = DatasetIndex::one_shard(&d);
        let spec = MarginalSpec::new(
            vec![
                WorkplaceAttr::Place,
                WorkplaceAttr::Naics,
                WorkplaceAttr::Ownership,
            ],
            vec![WorkerAttr::Sex, WorkerAttr::Education],
        );
        let reference = index.marginal(&spec, None, 1, Kernel::Auto);
        for threads in [2, 3, 7, 64] {
            let m = index.marginal(&spec, None, threads, Kernel::Auto);
            assert_marginals_identical(&m, &reference);
        }
        let male = FilterExpr::sex(Sex::Male);
        let filtered_ref = index.marginal(&spec, Some(&male), 1, Kernel::Auto);
        for threads in [2, 5, 16] {
            let m = index.marginal(&spec, Some(&male), threads, Kernel::Auto);
            assert_marginals_identical(&m, &filtered_ref);
        }
    }

    /// The dispatch choice must never change a released cell: scalar and
    /// Auto (AVX2 on this CI hardware) kernels agree bit-for-bit on every
    /// spec shape, filtered and not, at several thread counts, in either
    /// layout.
    #[test]
    fn simd_and_scalar_kernels_are_bit_identical() {
        let d = dataset();
        let specs = [
            MarginalSpec::new(vec![], vec![]),
            MarginalSpec::new(vec![WorkplaceAttr::Block], vec![]),
            MarginalSpec::new(vec![], vec![WorkerAttr::Age, WorkerAttr::Race]),
            MarginalSpec::new(
                vec![WorkplaceAttr::Place, WorkplaceAttr::Naics],
                vec![
                    WorkerAttr::Sex,
                    WorkerAttr::Age,
                    WorkerAttr::Race,
                    WorkerAttr::Ethnicity,
                    WorkerAttr::Education,
                ],
            ),
        ];
        let female = FilterExpr::sex(Sex::Female);
        for index in [DatasetIndex::one_shard(&d), DatasetIndex::per_state(&d)] {
            for spec in &specs {
                for threads in [1, 3] {
                    for filter in [None, Some(&female)] {
                        let scalar = index.marginal(spec, filter, threads, Kernel::Scalar);
                        let auto = index.marginal(spec, filter, threads, Kernel::Auto);
                        assert_marginals_identical(&auto, &scalar);
                    }
                }
            }
        }
    }

    #[test]
    fn workplace_only_marginal_max_is_establishment_size() {
        let d = dataset();
        // Group by block: cells are small; every establishment contributes
        // its entire size to its one cell.
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Block], vec![]);
        let m = compute_marginal(&d, &spec);
        let mut by_block: BTreeMap<u32, u32> = BTreeMap::new();
        for wp in d.workplaces() {
            let max = by_block.entry(wp.block.0).or_insert(0);
            *max = (*max).max(d.establishment_size(wp.id));
        }
        for (key, stats) in m.iter() {
            let block = m.schema().value_of(key, 0);
            assert_eq!(stats.max_establishment, by_block[&block]);
        }
    }

    #[test]
    fn filtered_marginal_counts_only_matching_workers() {
        let d = dataset();
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Naics], vec![]);
        let females = compute_marginal_expr(&d, &spec, &FilterExpr::sex(Sex::Female));
        let males = compute_marginal_expr(&d, &spec, &FilterExpr::sex(Sex::Male));
        let all = compute_marginal(&d, &spec);
        assert_eq!(females.total() + males.total(), all.total());
        // Filtered x_v never exceeds unfiltered x_v.
        for (key, f_stats) in females.iter() {
            let a_stats = all.cell(key).expect("filtered cell must exist unfiltered");
            assert!(f_stats.max_establishment <= a_stats.max_establishment);
            assert!(f_stats.count <= a_stats.count);
        }
    }

    #[test]
    fn empty_filter_yields_empty_marginal() {
        let d = dataset();
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Place], vec![]);
        // An empty disjunction matches no record.
        let m = compute_marginal_expr(&d, &spec, &FilterExpr::Or(vec![]));
        assert_eq!(m.num_cells(), 0);
        assert_eq!(m.total(), 0);
        // The legacy reference agrees (and its capacity heuristic now
        // sizes from the zero filter-surviving rows).
        #[cfg(feature = "reference")]
        {
            let legacy = compute_marginal_filtered_legacy(&d, &spec, |_| false);
            assert_eq!(legacy.num_cells(), 0);
            assert_eq!(legacy.total(), 0);
        }
    }

    #[test]
    fn full_marginal_spec_with_all_attrs() {
        let d = dataset();
        let spec = MarginalSpec::new(
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
        let m = compute_marginal(&d, &spec);
        assert_eq!(m.total() as usize, d.num_jobs());
        // Sparsity: nonzero cells are a tiny fraction of the domain.
        assert!((m.num_cells() as u64) < m.schema().domain_size() / 10);
        // The widest worker sub-domain still matches the legacy engine.
        #[cfg(feature = "reference")]
        assert_marginals_identical(&m, &compute_marginal_legacy(&d, &spec));
    }

    /// Worker-balanced shard boundaries produce bit-identical marginals to
    /// the single-shard (contiguous) evaluation on a skewed universe —
    /// the merge, not the chunking, carries the determinism guarantee.
    #[test]
    fn worker_balanced_sharding_is_bit_identical_to_contiguous() {
        let d = Generator::new(GeneratorConfig {
            target_establishments: 400,
            seed: 99,
            ..GeneratorConfig::default()
        })
        .generate();
        let index = DatasetIndex::one_shard(&d);
        let spec = MarginalSpec::new(
            vec![WorkplaceAttr::County, WorkplaceAttr::Naics],
            vec![WorkerAttr::Sex, WorkerAttr::Age],
        );
        let contiguous = index.marginal(&spec, None, 1, Kernel::Auto);
        for threads in [2, 3, 5, 13, 64] {
            let m = index.marginal(&spec, None, threads, Kernel::Auto);
            assert_marginals_identical(&m, &contiguous);
        }
    }
}
