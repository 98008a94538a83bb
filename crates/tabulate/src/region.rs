//! The dataset index: the one index type every tabulation runs on, its
//! two layouts, and the one parallel driver both evaluators share.
//!
//! A [`DatasetIndex`] is a list of CSR shards ([`TabulationIndex`]es) in
//! one of two **layouts**:
//!
//! * the **one-shard** layout — one index over the whole dataset — for
//!   ordinary datasets;
//! * the **per-state** layout — one index per state — at national scale.
//!   National-scale production (10–100 M job records) does not fit one
//!   flat CSR index forever: the build is a serial pass, the columns
//!   become multi-gigabyte allocations, and a future multi-machine
//!   deployment needs a partition unit that can live on different nodes.
//!   The natural unit is the **state**: LODES/QWI processing is
//!   state-partitioned in real life, every establishment belongs to
//!   exactly one state, and a state never straddles two shards.
//!
//! Both layouts tabulate through one driver. [`DatasetIndex::marginal`]
//! and [`DatasetIndex::flows`] compile the filter once per shard, split
//! `threads` into `(shard, establishment window)` tasks in proportion to
//! shard worker counts, run the tasks on at most `threads` threads of the
//! workspace's one fork-join, [`par::map`] (see `group_tasks`), and
//! combine every task's key-sorted run with the engine's one
//! deterministic k-way merge (`crate::engine::merge_runs`, folding into
//! `CellStats` or `FlowStats`). With one shard the tasks are exactly the
//! worker-balanced [`TabulationIndex::shard_bounds`] windows, one thread
//! each.
//!
//! Two invariants make every result **bit-identical** across layouts and
//! thread counts:
//!
//! * The index holds the **universe** geography's attribute
//!   cardinalities (not one state's subset), so every shard's keys use
//!   the same [`CellSchema`], strides and all. Workplace codes are global
//!   ids (a state-3 county keeps its global county code in the state-3
//!   shard), so keys agree across shards.
//! * Each establishment is tabulated exactly once, by one task of its
//!   home shard, so the merged multiset of per-establishment
//!   contributions is the same whatever the layout or task split; all
//!   merge aggregates are commutative.
//!
//! **Establishment indexes are shard-local** in the per-state layout, so
//! a [`FilterExpr`] is compiled once per shard, against that shard's own
//! establishments. A spec's cell → sub-key table depends on the spec
//! alone, so it is built once per tabulation and shared by every shard.

use crate::attr::MarginalSpec;
use crate::cell::CellSchema;
use crate::engine::{merge_runs, subkey_table, tabulate_shard, ShardPlan};
use crate::filter::{CompiledFilter, FilterExpr};
use crate::flows::{flow_shard, FlowMarginal, FlowPlan, FlowStats};
use crate::index::{
    cards_from_geography, schema_from_cards, worker_cell, IndexBuilder, TabulationIndex,
};
use crate::kernel::Kernel;
use crate::marginal::{CellStats, Marginal};
use crate::par;
use lodes::{Dataset, Geography, Worker, WorkerId, Workplace};
use std::sync::Arc;

/// Size threshold at which [`DatasetIndex::build_auto`] picks the
/// per-state layout (4 M jobs — well past the point where the one-shard
/// build's serial counting sort and monolithic columns start to
/// dominate).
pub const SHARD_JOB_THRESHOLD: usize = 4_000_000;

/// Minimum workers a shard must scan to pay for its thread spawn, sort,
/// and merge cursor (see [`DatasetIndex::effective_shards`]).
const MIN_SHARD_WORKERS: usize = 1 << 16;

/// An indexed dataset: CSR shards in the one-shard or the per-state
/// layout (see the [module docs](self)), with one evaluator per query
/// family — [`marginal`](Self::marginal) and [`flows`](Self::flows).
/// Every result is bit-identical between the layouts, at any thread
/// count, and for either [`Kernel`].
///
/// Self-contained: after a build, tabulation never touches the
/// [`Dataset`] again, and a clone is a pointer copy, so one index can be
/// shared by every season and thread that tabulates the dataset.
#[derive(Debug, Clone)]
pub struct DatasetIndex {
    /// Universe workplace-attribute cardinalities: the one schema source
    /// for every shard.
    workplace_cards: [u64; 6],
    /// Per-state layout: each shard's global state id, ascending. `None`
    /// in the one-shard layout.
    states: Option<Arc<[u32]>>,
    /// The CSR shards, in state order in the per-state layout.
    shards: Arc<[TabulationIndex]>,
}

impl DatasetIndex {
    /// Index `dataset`, choosing the layout automatically: per-state when
    /// the dataset has at least [`SHARD_JOB_THRESHOLD`] jobs *and* more
    /// than one state (a single-state universe has exactly one shard
    /// either way), one-shard otherwise.
    pub fn build_auto(dataset: &Dataset) -> Self {
        Self::build_with_threshold(dataset, SHARD_JOB_THRESHOLD)
    }

    /// [`build_auto`](Self::build_auto) with an explicit job-count
    /// threshold (tests force either layout on small data).
    pub fn build_with_threshold(dataset: &Dataset, threshold: usize) -> Self {
        if dataset.num_jobs() >= threshold && dataset.geography().num_states() > 1 {
            Self::per_state(dataset)
        } else {
            Self::one_shard(dataset)
        }
    }

    /// Index `dataset` in this index's layout. Flow tabulation pairs the
    /// two quarters shard by shard, so a panel's quarters must share one
    /// layout.
    pub fn build_like(&self, dataset: &Dataset) -> Self {
        if self.is_per_state() {
            Self::per_state(dataset)
        } else {
            Self::one_shard(dataset)
        }
    }

    /// The one-shard layout: one [`TabulationIndex`] over all of
    /// `dataset`.
    pub(crate) fn one_shard(dataset: &Dataset) -> Self {
        Self {
            workplace_cards: cards_from_geography(dataset.geography()),
            states: None,
            shards: Arc::new([TabulationIndex::build(dataset)]),
        }
    }

    /// The per-state layout: `dataset` partitioned by state, one counting
    /// sort over the job table and then one streaming append per
    /// establishment — `O(workers + establishments)` like the one-shard
    /// build.
    pub(crate) fn per_state(dataset: &Dataset) -> Self {
        let mut builder = RegionIndexBuilder::new(dataset.geography());
        let (offsets, order) = dataset.workers_by_employer();
        for (e, wp) in dataset.workplaces().iter().enumerate() {
            let workers = &order[offsets[e] as usize..offsets[e + 1] as usize];
            builder.shard(wp).push_establishment(
                wp,
                workers
                    .iter()
                    .map(|&w| worker_cell(dataset.worker(WorkerId(w)))),
            );
        }
        builder.finish()
    }

    /// Whether this is the per-state layout.
    pub fn is_per_state(&self) -> bool {
        self.states.is_some()
    }

    /// Number of shards: 1 in the one-shard layout, the number of states
    /// with at least one establishment in the per-state layout.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total workers indexed.
    pub fn num_workers(&self) -> usize {
        self.shards.iter().map(TabulationIndex::num_workers).sum()
    }

    /// Total establishments indexed.
    pub fn num_establishments(&self) -> usize {
        self.shards
            .iter()
            .map(TabulationIndex::num_establishments)
            .sum()
    }

    /// The key schema `spec` induces over the indexed universe —
    /// identical to `CellSchema::new(spec, dataset)` on the source
    /// dataset, in either layout.
    pub fn schema(&self, spec: &MarginalSpec) -> CellSchema {
        schema_from_cards(&self.workplace_cards, spec)
    }

    /// Advisory thread-count heuristic: the number of threads `threads`
    /// should actually be cut down to on this index so that parallel
    /// tabulation never loses to single-threaded.
    ///
    /// Every task costs a sorted run plus a k-way-merge cursor, and a task
    /// scanning only a few thousand workers finishes faster than its
    /// thread spawns — on small datasets the fixed per-task overhead made
    /// the recorded multithreaded full-attribute workload *slower* than
    /// 1T. The heuristic caps the count so each thread scans at least
    /// `MIN_SHARD_WORKERS` (2¹⁶) workers, collapsing to one (the 1T code
    /// path, bit-identical by the merge guarantee) whenever the dataset is
    /// too small to amortize fan-out. The release engine and the
    /// benchmarks apply it before tabulating; direct evaluator calls keep
    /// the caller's count so tests can force any task split.
    pub fn effective_shards(&self, threads: usize) -> usize {
        threads
            .max(1)
            .min((self.num_workers() / MIN_SHARD_WORKERS).max(1))
            .min(self.num_establishments().max(1))
    }

    /// Evaluate `q_V` over the records matching `filter` (every record
    /// when `None`), on at most `threads` scoped threads. Workplace
    /// leaves of the filter resolve per establishment, worker leaves
    /// collapse into domain truth tables (see [`crate::filter`]).
    ///
    /// `Kernel::Scalar` forces the scalar key kernels — the only path on
    /// hardware without AVX2; the result is bit-identical to
    /// `Kernel::Auto` by construction (the property tests assert it, the
    /// benchmark measures the difference).
    pub fn marginal(
        &self,
        spec: &MarginalSpec,
        filter: Option<&FilterExpr>,
        threads: usize,
        kernel: Kernel,
    ) -> Marginal {
        let schema = self.schema(spec);
        let subkeys = subkey_table(spec, &schema);
        let filters = self.compile(filter);
        let plans: Vec<ShardPlan<'_>> = self
            .shards
            .iter()
            .zip(&filters)
            .map(|(index, f)| ShardPlan::new(index, spec, &schema, &subkeys, f.as_ref(), kernel))
            .collect();
        let runs = self.run_tasks(threads, |(shard, lo, hi)| {
            tabulate_shard(&plans[shard], lo, hi)
        });
        let cells = merge_runs(
            runs,
            |&(key, _)| key,
            |s: &mut CellStats, &(_, c)| s.absorb(c),
        );
        Marginal::from_sorted(spec.clone(), schema, cells)
    }

    /// [`marginal`](Self::marginal) with a required filter and
    /// `Kernel::Auto`. Kept only because the release-path benchmark
    /// (`releasebench/`) calls it by this name; new code calls
    /// [`marginal`](Self::marginal).
    pub fn marginal_expr_sharded(
        &self,
        spec: &MarginalSpec,
        expr: &FilterExpr,
        threads: usize,
    ) -> Marginal {
        self.marginal(spec, Some(expr), threads, Kernel::Auto)
    }

    /// Tabulate job flows from this quarter (`t`) to `after` (`t+1`) over
    /// the records matching `filter` — on both sides of the pair — on at
    /// most `threads` scoped threads. The filter is compiled against each
    /// quarter's shards separately; `kernel` is chosen as for
    /// [`marginal`](Self::marginal). See [`crate::flows`] for the
    /// statistics.
    ///
    /// # Panics
    /// Panics if the spec has worker attributes (flows are
    /// establishment-level quantities), if the two quarters differ in
    /// layout or state shards (build the second with
    /// [`build_like`](Self::build_like)), or if a shard pair does not
    /// share an establishment frame (the panel generator guarantees a
    /// fixed frame).
    pub fn flows(
        &self,
        after: &DatasetIndex,
        spec: &MarginalSpec,
        filter: Option<&FilterExpr>,
        threads: usize,
        kernel: Kernel,
    ) -> FlowMarginal {
        assert!(
            !spec.has_worker_attrs(),
            "job flows are establishment-level: spec must not include worker attributes"
        );
        assert!(
            self.states == after.states,
            "flow tabulation requires both quarters in the same layout"
        );
        let schema = self.schema(spec);
        let before_filters = self.compile(filter);
        let after_filters = after.compile(filter);
        let plans: Vec<FlowPlan<'_>> = self
            .shards
            .iter()
            .zip(after.shards.iter())
            .zip(before_filters.iter().zip(&after_filters))
            .map(|((b, a), (bf, af))| {
                FlowPlan::new(b, a, spec, &schema, bf.as_ref().zip(af.as_ref()), kernel)
            })
            .collect();
        let runs = self.run_tasks(threads, |(shard, lo, hi)| flow_shard(&plans[shard], lo, hi));
        let cells = merge_runs(
            runs,
            |&(key, _, _)| key,
            |s: &mut FlowStats, &(_, b, e)| s.absorb(b, e),
        );
        FlowMarginal::from_sorted(spec.clone(), schema, cells)
    }

    /// `filter` compiled against every shard, in shard order.
    fn compile(&self, filter: Option<&FilterExpr>) -> Vec<Option<CompiledFilter>> {
        self.shards
            .iter()
            .map(|shard| filter.map(|expr| expr.compile(shard)))
            .collect()
    }

    /// Split `threads` across shards in proportion to worker counts
    /// (every shard gets at least one window) and expand each budget into
    /// worker-balanced establishment windows. Returns `(shard, lo, hi)`
    /// tasks. Pure function of the index and `threads`, but determinism
    /// never depends on it — the merge does that.
    fn plan_tasks(&self, threads: usize) -> Vec<(usize, usize, usize)> {
        let threads = threads.max(1);
        let total = self.num_workers().max(1);
        let mut tasks = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let budget = (threads * shard.num_workers() / total).max(1);
            for w in shard.shard_bounds(budget).windows(2) {
                tasks.push((i, w[0], w[1]));
            }
        }
        tasks
    }

    /// The one parallel driver: run `task((shard, lo, hi))` for every
    /// task of [`plan_tasks`](Self::plan_tasks), grouped by
    /// [`group_tasks`], one [`par::map`] thread per group, and return
    /// every result. The result order follows the grouping; callers merge
    /// order-insensitively.
    fn run_tasks<R: Send>(
        &self,
        threads: usize,
        task: impl Fn((usize, usize, usize)) -> R + Sync,
    ) -> Vec<R> {
        let tasks = self.plan_tasks(threads);
        let weights: Vec<usize> = tasks
            .iter()
            .map(|&(shard, lo, hi)| self.shards[shard].workers_between(lo, hi))
            .collect();
        let groups = group_tasks(&weights, threads);
        let run_group =
            |group: &Vec<usize>| group.iter().map(|&t| task(tasks[t])).collect::<Vec<_>>();
        par::map(&groups, groups.len(), run_group)
            .into_iter()
            .flatten()
            .collect()
    }
}

/// Assign tasks (given by their worker counts) to at most `threads`
/// groups, one group per scoped thread: heaviest task first, each to the
/// group with the least work so far (then the fewest tasks, then the
/// lowest index). Every task lands in exactly one group, no group is
/// empty, and with no more tasks than threads every task gets a group of
/// its own. A pure function of its inputs.
fn group_tasks(weights: &[usize], threads: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    // Stable: equal weights keep task order.
    order.sort_by_key(|&t| std::cmp::Reverse(weights[t]));
    let mut groups: Vec<(usize, Vec<usize>)> =
        vec![(0, Vec::new()); threads.max(1).min(weights.len())];
    for t in order {
        let (load, group) = groups
            .iter_mut()
            .min_by_key(|(load, group)| (*load, group.len()))
            .expect("a task implies at least one group");
        *load += weights[t];
        group.push(t);
    }
    groups.into_iter().map(|(_, group)| group).collect()
}

/// Streaming construction of the per-state layout: establishments arrive
/// in any order and are routed to their home state's `IndexBuilder`.
///
/// The national-scale path: the generator streams establishments (see
/// `lodes::Generator::for_each_establishment`) straight into this
/// builder, so peak memory is the finished shards themselves — no flat
/// [`Dataset`], no counting-sort scratch.
#[derive(Debug, Clone)]
pub struct RegionIndexBuilder {
    cards: [u64; 6],
    /// Lazily created per-state builders, indexed by global state id.
    builders: Vec<Option<IndexBuilder>>,
}

impl RegionIndexBuilder {
    /// Start an empty per-state index over `geography` (the universe —
    /// its cardinalities give every shard one schema).
    pub fn new(geography: &Geography) -> Self {
        Self {
            cards: cards_from_geography(geography),
            builders: vec![None; geography.num_states() as usize],
        }
    }

    /// Route one establishment (and its whole workforce) to its home
    /// state's shard.
    ///
    /// # Panics
    /// Panics if the workplace's state id is outside the geography.
    pub fn push_establishment(&mut self, workplace: &Workplace, workers: &[Worker]) {
        self.shard(workplace)
            .push_establishment(workplace, workers.iter().map(worker_cell));
    }

    /// The builder of `workplace`'s home state's shard.
    fn shard(&mut self, workplace: &Workplace) -> &mut IndexBuilder {
        self.builders[workplace.state.0 as usize].get_or_insert_with(IndexBuilder::new)
    }

    /// Establishments pushed so far, across all shards.
    pub fn num_establishments(&self) -> usize {
        self.builders
            .iter()
            .flatten()
            .map(IndexBuilder::num_establishments)
            .sum()
    }

    /// Workers pushed so far, across all shards.
    pub fn num_workers(&self) -> usize {
        self.builders
            .iter()
            .flatten()
            .map(IndexBuilder::num_workers)
            .sum()
    }

    /// Seal every shard into a per-state [`DatasetIndex`]. States that
    /// never saw an establishment get no shard (their cells would be
    /// empty anyway).
    pub fn finish(self) -> DatasetIndex {
        let (states, shards): (Vec<u32>, Vec<TabulationIndex>) = self
            .builders
            .into_iter()
            .enumerate()
            .filter_map(|(state, b)| b.map(|b| (state as u32, b.finish())))
            .unzip();
        DatasetIndex {
            workplace_cards: self.cards,
            states: Some(states.into()),
            shards: shards.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{WorkerAttr, WorkplaceAttr};
    use lodes::{DatasetPanel, Generator, GeneratorConfig, PanelConfig, Sex};

    fn dataset() -> Dataset {
        // Multi-state universe so the partition is non-trivial.
        Generator::new(GeneratorConfig::test_small(11)).generate()
    }

    fn specs() -> Vec<MarginalSpec> {
        vec![
            MarginalSpec::new(vec![], vec![]),
            MarginalSpec::new(vec![WorkplaceAttr::State], vec![]),
            MarginalSpec::new(
                vec![WorkplaceAttr::County, WorkplaceAttr::Naics],
                vec![WorkerAttr::Sex, WorkerAttr::Education],
            ),
            MarginalSpec::new(
                vec![WorkplaceAttr::Place, WorkplaceAttr::Ownership],
                vec![
                    WorkerAttr::Sex,
                    WorkerAttr::Age,
                    WorkerAttr::Race,
                    WorkerAttr::Ethnicity,
                    WorkerAttr::Education,
                ],
            ),
        ]
    }

    fn assert_marginals_identical(a: &Marginal, b: &Marginal) {
        assert_eq!(a.num_cells(), b.num_cells());
        for ((ka, sa), (kb, sb)) in a.iter().zip(b.iter()) {
            assert_eq!(ka, kb);
            assert_eq!(sa, sb);
        }
        assert_eq!(a.content_digest(), b.content_digest());
    }

    #[test]
    fn sharded_marginals_are_bit_identical_to_flat_index() {
        let d = dataset();
        let flat = DatasetIndex::one_shard(&d);
        let sharded = DatasetIndex::per_state(&d);
        assert!(sharded.num_shards() > 1, "universe must span states");
        assert_eq!(sharded.num_workers(), flat.num_workers());
        assert_eq!(sharded.num_establishments(), flat.num_establishments());
        for spec in &specs() {
            let reference = flat.marginal(spec, None, 1, Kernel::Auto);
            for threads in [1, 2, 7] {
                assert_marginals_identical(
                    &sharded.marginal(spec, None, threads, Kernel::Auto),
                    &reference,
                );
            }
        }
    }

    #[test]
    fn sharded_expr_marginals_match_flat_index() {
        let d = dataset();
        let flat = DatasetIndex::one_shard(&d);
        let sharded = DatasetIndex::per_state(&d);
        let spec = MarginalSpec::new(
            vec![WorkplaceAttr::Naics],
            vec![WorkerAttr::Age, WorkerAttr::Education],
        );
        // A worker-only and a workplace-leaf expression: the latter
        // compiles to different establishment patterns in every shard.
        let exprs = [
            FilterExpr::sex(Sex::Female),
            FilterExpr::in_state(lodes::StateId(0)).or(FilterExpr::sex(Sex::Male)),
        ];
        for expr in &exprs {
            let reference = flat.marginal(&spec, Some(expr), 1, Kernel::Auto);
            for threads in [1, 3] {
                let e = sharded.marginal_expr_sharded(&spec, expr, threads);
                assert_marginals_identical(&e, &reference);
            }
        }
    }

    #[test]
    fn streaming_build_equals_dataset_build() {
        let d = dataset();
        // Stream establishments in dataset order through the builder …
        let built = DatasetIndex::per_state(&d);
        // … and again by hand in *reverse* order: the per-shard CSR
        // layout changes, but tabulations must not.
        let (offsets, order) = d.workers_by_employer();
        let mut builder = RegionIndexBuilder::new(d.geography());
        for (e, wp) in d.workplaces().iter().enumerate().rev() {
            let buf: Vec<Worker> = order[offsets[e] as usize..offsets[e + 1] as usize]
                .iter()
                .map(|&w| *d.worker(WorkerId(w)))
                .collect();
            builder.push_establishment(wp, &buf);
        }
        assert_eq!(builder.num_workers(), d.num_workers());
        assert_eq!(builder.num_establishments(), d.num_workplaces());
        let reversed = builder.finish();
        let spec = MarginalSpec::new(
            vec![WorkplaceAttr::County, WorkplaceAttr::Naics],
            vec![WorkerAttr::Sex],
        );
        assert_marginals_identical(
            &built.marginal(&spec, None, 2, Kernel::Auto),
            &reversed.marginal(&spec, None, 2, Kernel::Auto),
        );
    }

    #[test]
    fn sharded_flows_are_bit_identical_to_flat_pair() {
        let p = DatasetPanel::generate(
            &GeneratorConfig::test_small(23),
            &PanelConfig {
                quarters: 2,
                growth_sigma: 0.1,
                death_rate: 0.05,
                seed: 7,
            },
        );
        let flat_b = DatasetIndex::one_shard(p.quarter(0));
        let flat_a = flat_b.build_like(p.quarter(1));
        let shard_b = DatasetIndex::per_state(p.quarter(0));
        let shard_a = shard_b.build_like(p.quarter(1));
        assert!(!flat_a.is_per_state() && shard_a.is_per_state());
        let spec = MarginalSpec::new(vec![WorkplaceAttr::County, WorkplaceAttr::Naics], vec![]);
        // Unfiltered and filtered flows agree at every thread count.
        for filter in [None, Some(&FilterExpr::sex(Sex::Male))] {
            let flat = flat_b.flows(&flat_a, &spec, filter, 1, Kernel::Auto);
            for threads in [1, 2, 5] {
                let sharded = shard_b.flows(&shard_a, &spec, filter, threads, Kernel::Auto);
                assert_eq!(sharded, flat);
                assert_eq!(sharded.content_digest(), flat.content_digest());
            }
        }
    }

    #[test]
    #[should_panic(expected = "same layout")]
    fn flows_refuse_quarters_in_different_layouts() {
        let d = dataset();
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Naics], vec![]);
        DatasetIndex::one_shard(&d).flows(
            &DatasetIndex::per_state(&d),
            &spec,
            None,
            1,
            Kernel::Auto,
        );
    }

    #[test]
    fn build_with_threshold_picks_the_layout() {
        let d = dataset();
        let single = DatasetIndex::build_with_threshold(&d, usize::MAX);
        assert!(!single.is_per_state());
        assert_eq!(single.num_shards(), 1);
        let sharded = DatasetIndex::build_with_threshold(&d, 1);
        assert!(sharded.is_per_state());
        assert_eq!(single.num_workers(), sharded.num_workers());
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Place], vec![WorkerAttr::Sex]);
        assert_marginals_identical(
            &single.marginal(&spec, None, 2, Kernel::Auto),
            &sharded.marginal(&spec, None, 2, Kernel::Auto),
        );
    }

    #[test]
    fn single_state_universe_never_auto_shards() {
        let d = Generator::new(GeneratorConfig {
            states: 1,
            ..GeneratorConfig::test_small(3)
        })
        .generate();
        // Even a zero threshold keeps the one-shard layout for one state.
        let idx = DatasetIndex::build_with_threshold(&d, 0);
        assert!(!idx.is_per_state());
    }

    #[test]
    fn schema_matches_dataset_schema() {
        let d = dataset();
        let spec = MarginalSpec::new(
            vec![WorkplaceAttr::Place, WorkplaceAttr::Naics],
            vec![WorkerAttr::Sex, WorkerAttr::Education],
        );
        let from_dataset = CellSchema::new(&spec, &d);
        for index in [DatasetIndex::one_shard(&d), DatasetIndex::per_state(&d)] {
            let from_index = index.schema(&spec);
            assert_eq!(from_index.domain_size(), from_dataset.domain_size());
            assert_eq!(from_index.attrs(), from_dataset.attrs());
            for i in 0..from_index.attrs().len() {
                assert_eq!(from_index.stride_of(i), from_dataset.stride_of(i));
                assert_eq!(from_index.cardinality_of(i), from_dataset.cardinality_of(i));
            }
        }
    }

    #[test]
    fn effective_shards_collapse_small_datasets() {
        let d = dataset();
        // The test universe (~40k workers) is below the 2^16-per-thread
        // floor: any requested parallelism collapses to the 1T path, in
        // either layout.
        for index in [DatasetIndex::one_shard(&d), DatasetIndex::per_state(&d)] {
            for threads in [1, 2, 8, 64] {
                assert_eq!(index.effective_shards(threads), 1);
            }
        }
    }

    /// The task-to-thread assignment: every task runs exactly once, on at
    /// most `threads` threads (the per-state layout has at least one task
    /// per state, so 51 states at 2 threads must still mean 2 threads),
    /// no thread idles while another holds two tasks when there are
    /// threads to spare, and equal inputs give equal output.
    #[test]
    fn task_groups_cover_every_task_once_on_at_most_threads_threads() {
        let national: Vec<usize> = (0..51).map(|s| 1_000 + (s * 7_919) % 50_000).collect();
        let cases: [Vec<usize>; 6] = [
            vec![],
            vec![5],
            vec![0, 0, 0],
            vec![3, 1, 4, 1, 5, 9, 2, 6],
            vec![10, 10, 10, 10],
            national,
        ];
        for weights in &cases {
            for threads in [0, 1, 2, 3, 4, 8, 64] {
                let groups = group_tasks(weights, threads);
                assert_eq!(groups.len(), threads.max(1).min(weights.len()));
                assert!(groups.iter().all(|g| !g.is_empty()), "no idle thread");
                let mut seen = groups.concat();
                seen.sort_unstable();
                assert_eq!(seen, (0..weights.len()).collect::<Vec<_>>());
                assert_eq!(groups, group_tasks(weights, threads));
            }
        }
        // Balance: four equal tasks on two threads split two and two.
        let loads: Vec<usize> = group_tasks(&[10, 10, 10, 10], 2)
            .iter()
            .map(|g| g.len())
            .collect();
        assert_eq!(loads, [2, 2]);
    }

    /// The one-shard layout's tasks are exactly the worker-balanced
    /// windows of its one index, one per thread.
    #[test]
    fn one_shard_tasks_are_the_shard_bounds_windows() {
        let d = dataset();
        let index = DatasetIndex::one_shard(&d);
        for threads in [1, 2, 3, 7] {
            let expected: Vec<(usize, usize, usize)> = index.shards[0]
                .shard_bounds(threads)
                .windows(2)
                .map(|w| (0, w[0], w[1]))
                .collect();
            assert_eq!(index.plan_tasks(threads), expected);
        }
    }
}
