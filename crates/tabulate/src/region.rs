//! Region-sharded tabulation: one independent [`TabulationIndex`] per
//! state, tabulated in parallel and combined by the engine's
//! deterministic k-way merge.
//!
//! National-scale production (10–100 M job records) does not fit the
//! "one flat CSR index" model forever: the index build is a serial pass,
//! the columns become multi-gigabyte allocations, and a future
//! multi-machine deployment needs a partition unit that can live on
//! different nodes. The natural unit is the **state**: LODES/QWI
//! processing is state-partitioned in real life, every establishment
//! belongs to exactly one state, and a state never straddles two shards —
//! so each shard's `(cell key, contribution)` runs are *disjoint by
//! establishment* and the existing commutative merge
//! (`crate::engine::merge_runs` / `crate::flows::merge_flow_runs`)
//! combines them into a [`Marginal`]/[`FlowMarginal`] **bit-identical**
//! to what one flat index over the whole country would produce.
//!
//! Two invariants make that identity hold by construction:
//!
//! * Every shard snapshots the **universe** geography's attribute
//!   cardinalities (not its own subset), so all shards — and the flat
//!   index — derive the same [`CellSchema`], strides and all. Workplace
//!   codes are global ids (a state-3 county keeps its global county
//!   code in the state-3 shard), so keys agree across shards.
//! * Each establishment is tabulated exactly once, by its home shard, so
//!   the merged multiset of per-establishment contributions is the same
//!   multiset the flat evaluator emits; all merge aggregates are
//!   commutative.
//!
//! **Worker ids are shard-local.** Each shard's index rebases worker ids
//! dense-per-shard (see [`IndexBuilder`]); a [`FilterExpr`] is compiled
//! once per shard, against that shard's own ids.
//!
//! [`DatasetIndex`] is the dispatch layer the release engine holds: a
//! flat index for ordinary datasets, a [`RegionShardedIndex`] above a
//! size threshold, one evaluator surface over both.

use crate::attr::MarginalSpec;
use crate::cell::CellSchema;
use crate::engine::{merge_runs, tabulate_shard, ShardPlan, MIN_SHARD_WORKERS};
use crate::filter::{CompiledFilter, FilterExpr};
use crate::flows::{flow_shard, merge_flow_runs, FlowMarginal, FlowPlan};
use crate::index::{cards_from_geography, schema_from_cards, IndexBuilder, TabulationIndex};
use crate::kernel::Kernel;
use crate::marginal::Marginal;
use lodes::{Dataset, Geography, Worker, WorkerId, Workplace};
use std::sync::Arc;

/// One state's slice of the universe: its home-state id plus a flat
/// [`TabulationIndex`] over exactly its establishments.
#[derive(Debug, Clone)]
struct RegionShard {
    /// Global state id this shard owns.
    state: u32,
    index: TabulationIndex,
}

/// A national dataset partitioned by state into independent
/// [`TabulationIndex`]es — the multi-machine partition unit — whose
/// tabulations merge bit-identically to a single flat index.
///
/// See the [module docs](self) for the identity argument. Built either
/// from a materialized [`Dataset`] ([`RegionShardedIndex::build`]) or
/// streamed establishment-at-a-time through [`RegionIndexBuilder`]
/// without ever materializing the dataset.
#[derive(Debug, Clone)]
pub struct RegionShardedIndex {
    /// Shards in ascending state order; states with no establishments
    /// have no shard.
    shards: Vec<RegionShard>,
    /// Universe workplace-attribute cardinalities (every shard snapshots
    /// these same values).
    workplace_cards: [u64; 6],
    num_workers: usize,
    num_establishments: usize,
}

impl RegionShardedIndex {
    /// Partition `dataset` by state and index each partition. One
    /// counting-sort pass over the job table, then one streaming append
    /// per establishment — `O(workers + establishments)` like the flat
    /// build.
    pub fn build(dataset: &Dataset) -> Self {
        let mut builder = RegionIndexBuilder::new(dataset.geography());
        let (offsets, order) = dataset.workers_by_employer();
        let mut buf: Vec<Worker> = Vec::new();
        for (e, wp) in dataset.workplaces().iter().enumerate() {
            buf.clear();
            buf.extend(
                order[offsets[e] as usize..offsets[e + 1] as usize]
                    .iter()
                    .map(|&w| *dataset.worker(WorkerId(w))),
            );
            builder.push_establishment(wp, &buf);
        }
        builder.finish()
    }

    /// Number of state shards (states with at least one establishment).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Global state ids with a shard, ascending.
    pub fn shard_states(&self) -> impl Iterator<Item = u32> + '_ {
        self.shards.iter().map(|s| s.state)
    }

    /// Total workers across all shards.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Total establishments across all shards.
    pub fn num_establishments(&self) -> usize {
        self.num_establishments
    }

    /// The key schema `spec` induces — identical to the flat index's
    /// [`TabulationIndex::schema`] over the same universe.
    pub fn schema(&self, spec: &MarginalSpec) -> CellSchema {
        schema_from_cards(&self.workplace_cards, spec)
    }

    /// Advisory shard-count heuristic over the whole region set — same
    /// floor as [`TabulationIndex::effective_shards`], applied to the
    /// national worker count.
    pub fn effective_shards(&self, threads: usize) -> usize {
        threads
            .max(1)
            .min((self.num_workers / MIN_SHARD_WORKERS).max(1))
            .min(self.num_establishments.max(1))
    }

    /// Evaluate `q_V` across all region shards, splitting up to `threads`
    /// scoped workers among them in proportion to shard worker counts.
    /// Bit-identical to the flat index's result at any thread count.
    pub fn marginal_sharded(&self, spec: &MarginalSpec, threads: usize) -> Marginal {
        self.marginal_sharded_with_kernel(spec, None, threads, Kernel::Auto)
    }

    /// Evaluate `q_V` over only the records matching the declarative
    /// filter `expr`. Bit-identical to the flat index's
    /// [`TabulationIndex::marginal_expr_sharded`].
    pub fn marginal_expr_sharded(
        &self,
        spec: &MarginalSpec,
        expr: &FilterExpr,
        threads: usize,
    ) -> Marginal {
        self.marginal_sharded_with_kernel(spec, Some(expr), threads, Kernel::Auto)
    }

    /// The general evaluator (see
    /// [`TabulationIndex::marginal_sharded_with_kernel`]): `filter` is
    /// compiled once per region shard (workplace leaves resolve against
    /// each shard's own establishment columns), threads are budgeted in
    /// proportion to shard worker counts, every establishment window is
    /// tabulated in one scope, and all runs merge by the deterministic
    /// k-way merge.
    pub fn marginal_sharded_with_kernel(
        &self,
        spec: &MarginalSpec,
        filter: Option<&FilterExpr>,
        threads: usize,
        kernel: Kernel,
    ) -> Marginal {
        let schema = self.schema(spec);
        let compiled = self.compile_per_shard(filter);
        let plans: Vec<ShardPlan<'_>> = self
            .shards
            .iter()
            .zip(&compiled)
            .map(|(s, f)| ShardPlan::new(&s.index, spec, &schema, f.as_ref(), kernel))
            .collect();
        let tasks = self.plan_tasks(threads);
        let runs: Vec<Vec<(u64, u32)>> = if threads.max(1) <= 1 {
            tasks
                .iter()
                .map(|&(i, lo, hi)| tabulate_shard(&plans[i], lo, hi))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let plans = &plans;
                let handles: Vec<_> = tasks
                    .iter()
                    .map(|&(i, lo, hi)| scope.spawn(move || tabulate_shard(&plans[i], lo, hi)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("region tabulation shard panicked"))
                    .collect()
            })
        };
        Marginal::from_sorted(spec.clone(), schema, merge_runs(runs))
    }

    /// `filter` compiled against every shard's index, in shard order.
    fn compile_per_shard(&self, filter: Option<&FilterExpr>) -> Vec<Option<CompiledFilter>> {
        self.shards
            .iter()
            .map(|s| filter.map(|expr| expr.compile(&s.index)))
            .collect()
    }

    /// Split `threads` across region shards in proportion to worker
    /// counts (every shard gets at least one window) and expand each
    /// budget into worker-balanced establishment windows. Returns
    /// `(shard, lo, hi)` tasks. Pure function of the index and `threads`,
    /// but determinism never depends on it — the merge does that.
    fn plan_tasks(&self, threads: usize) -> Vec<(usize, usize, usize)> {
        let threads = threads.max(1);
        let total = self.num_workers.max(1);
        let mut tasks = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let budget = (threads * shard.index.num_workers() / total).max(1);
            for w in shard.index.shard_bounds(budget).windows(2) {
                tasks.push((i, w[0], w[1]));
            }
        }
        tasks
    }

    /// Tabulate job flows from this sharded quarter (`t`) to `after`
    /// (`t+1`). Both quarters must share the establishment frame shard by
    /// shard (the panel generator guarantees a fixed frame, so partitions
    /// agree). Bit-identical to the flat pair's
    /// [`TabulationIndex::flows_sharded`].
    ///
    /// # Panics
    /// Panics if the spec has worker attributes or the shard structures
    /// disagree (different states or establishment counts).
    pub fn flows_sharded(
        &self,
        after: &RegionShardedIndex,
        spec: &MarginalSpec,
        threads: usize,
    ) -> FlowMarginal {
        self.flows_with_filter(after, spec, None, threads)
    }

    /// Tabulate job flows over only the records matching the declarative
    /// filter `expr`, compiled per shard per quarter.
    pub fn flows_expr_sharded(
        &self,
        after: &RegionShardedIndex,
        spec: &MarginalSpec,
        expr: &FilterExpr,
        threads: usize,
    ) -> FlowMarginal {
        self.flows_with_filter(after, spec, Some(expr), threads)
    }

    /// The sharded flow evaluator core: one [`FlowPlan`] per aligned
    /// shard pair, the same worker-proportional task split as marginals,
    /// merged by the deterministic flow merge.
    fn flows_with_filter(
        &self,
        after: &RegionShardedIndex,
        spec: &MarginalSpec,
        filter: Option<&FilterExpr>,
        threads: usize,
    ) -> FlowMarginal {
        assert_eq!(
            self.shards.len(),
            after.shards.len(),
            "flow tabulation requires matching region shard structures"
        );
        let schema = self.schema(spec);
        let before_compiled = self.compile_per_shard(filter);
        let after_compiled = after.compile_per_shard(filter);
        let plans: Vec<FlowPlan<'_>> = self
            .shards
            .iter()
            .zip(&after.shards)
            .zip(before_compiled.iter().zip(&after_compiled))
            .map(|((b, a), (bf, af))| {
                assert_eq!(
                    b.state, a.state,
                    "flow tabulation requires matching region shard structures"
                );
                let filters = bf.as_ref().zip(af.as_ref());
                FlowPlan::new(&b.index, &a.index, spec, &schema, filters, Kernel::Auto)
            })
            .collect();
        let tasks = self.plan_tasks(threads);
        let runs: Vec<Vec<(u64, u32, u32)>> = if threads.max(1) <= 1 {
            tasks
                .iter()
                .map(|&(i, lo, hi)| flow_shard(&plans[i], lo, hi))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let plans = &plans;
                let handles: Vec<_> = tasks
                    .iter()
                    .map(|&(i, lo, hi)| scope.spawn(move || flow_shard(&plans[i], lo, hi)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("region flow shard panicked"))
                    .collect()
            })
        };
        FlowMarginal::from_sorted(spec.clone(), schema, merge_flow_runs(runs))
    }
}

/// Streaming [`RegionShardedIndex`] construction: establishments arrive
/// in any order and are routed to their home state's [`IndexBuilder`].
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
    /// Start an empty sharded index over `geography` (the universe — its
    /// cardinalities are snapshotted into every shard so all shards share
    /// one schema).
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
        let cards = self.cards;
        self.builders[workplace.state.0 as usize]
            .get_or_insert_with(|| IndexBuilder::with_cards(cards))
            .push_establishment(workplace, workers);
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

    /// Seal every shard. States that never saw an establishment get no
    /// shard (their cells would be empty anyway).
    pub fn finish(self) -> RegionShardedIndex {
        let cards = self.cards;
        let shards: Vec<RegionShard> = self
            .builders
            .into_iter()
            .enumerate()
            .filter_map(|(state, b)| {
                b.map(|b| RegionShard {
                    state: state as u32,
                    index: b.finish(),
                })
            })
            .collect();
        let num_workers = shards.iter().map(|s| s.index.num_workers()).sum();
        let num_establishments = shards.iter().map(|s| s.index.num_establishments()).sum();
        RegionShardedIndex {
            shards,
            workplace_cards: cards,
            num_workers,
            num_establishments,
        }
    }
}

/// Size threshold above which [`DatasetIndex::build_auto`] switches to
/// the region-sharded representation (4 M jobs — well past the point
/// where the flat build's serial counting sort and monolithic columns
/// start to dominate).
pub const SHARD_JOB_THRESHOLD: usize = 4_000_000;

/// The release engine's view of an indexed dataset: one flat
/// [`TabulationIndex`] for ordinary datasets, a [`RegionShardedIndex`]
/// at national scale — one evaluator surface over both, every result
/// bit-identical between the two representations.
#[derive(Debug, Clone)]
pub enum DatasetIndex {
    /// A single flat CSR index (the default).
    Single(Arc<TabulationIndex>),
    /// State-partitioned shards (national scale).
    Sharded(Arc<RegionShardedIndex>),
}

impl DatasetIndex {
    /// Index `dataset`, choosing the representation automatically: region
    /// shards when the dataset has at least [`SHARD_JOB_THRESHOLD`] jobs
    /// *and* more than one state (a single-state universe has exactly one
    /// shard — the flat index, without the dispatch layer).
    pub fn build_auto(dataset: &Dataset) -> Self {
        Self::build_with_threshold(dataset, SHARD_JOB_THRESHOLD)
    }

    /// [`build_auto`](Self::build_auto) with an explicit job-count
    /// threshold (tests force both representations on small data).
    pub fn build_with_threshold(dataset: &Dataset, threshold: usize) -> Self {
        if dataset.num_jobs() >= threshold && dataset.geography().num_states() > 1 {
            Self::Sharded(Arc::new(RegionShardedIndex::build(dataset)))
        } else {
            Self::Single(Arc::new(TabulationIndex::build(dataset)))
        }
    }

    /// Whether this is the region-sharded representation.
    pub fn is_sharded(&self) -> bool {
        matches!(self, Self::Sharded(_))
    }

    /// Total workers indexed.
    pub fn num_workers(&self) -> usize {
        match self {
            Self::Single(i) => i.num_workers(),
            Self::Sharded(s) => s.num_workers(),
        }
    }

    /// Total establishments indexed.
    pub fn num_establishments(&self) -> usize {
        match self {
            Self::Single(i) => i.num_establishments(),
            Self::Sharded(s) => s.num_establishments(),
        }
    }

    /// Advisory shard-count heuristic; see
    /// [`TabulationIndex::effective_shards`].
    pub fn effective_shards(&self, threads: usize) -> usize {
        match self {
            Self::Single(i) => i.effective_shards(threads),
            Self::Sharded(s) => s.effective_shards(threads),
        }
    }

    /// Evaluate `q_V`; see [`TabulationIndex::marginal_sharded`].
    pub fn marginal_sharded(&self, spec: &MarginalSpec, threads: usize) -> Marginal {
        match self {
            Self::Single(i) => i.marginal_sharded(spec, threads),
            Self::Sharded(s) => s.marginal_sharded(spec, threads),
        }
    }

    /// Evaluate a declaratively filtered `q_V`; see
    /// [`TabulationIndex::marginal_expr_sharded`].
    pub fn marginal_expr_sharded(
        &self,
        spec: &MarginalSpec,
        expr: &FilterExpr,
        threads: usize,
    ) -> Marginal {
        match self {
            Self::Single(i) => i.marginal_expr_sharded(spec, expr, threads),
            Self::Sharded(s) => s.marginal_expr_sharded(spec, expr, threads),
        }
    }

    /// Tabulate job flows to `after`; see
    /// [`TabulationIndex::flows_sharded`].
    ///
    /// # Panics
    /// Panics if the two quarters use different representations (the
    /// release engine always indexes a panel's quarters the same way) or
    /// their frames disagree.
    pub fn flows_sharded(
        &self,
        after: &DatasetIndex,
        spec: &MarginalSpec,
        threads: usize,
    ) -> FlowMarginal {
        match (self, after) {
            (Self::Single(b), Self::Single(a)) => b.flows_sharded(a, spec, threads),
            (Self::Sharded(b), Self::Sharded(a)) => b.flows_sharded(a, spec, threads),
            _ => panic!("flow tabulation requires both quarters in the same index representation"),
        }
    }

    /// Tabulate declaratively filtered job flows to `after`; see
    /// [`TabulationIndex::flows_expr_sharded`].
    pub fn flows_expr_sharded(
        &self,
        after: &DatasetIndex,
        spec: &MarginalSpec,
        expr: &FilterExpr,
        threads: usize,
    ) -> FlowMarginal {
        match (self, after) {
            (Self::Single(b), Self::Single(a)) => b.flows_expr_sharded(a, spec, expr, threads),
            (Self::Sharded(b), Self::Sharded(a)) => b.flows_expr_sharded(a, spec, expr, threads),
            _ => panic!("flow tabulation requires both quarters in the same index representation"),
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
        let flat = TabulationIndex::build(&d);
        let sharded = RegionShardedIndex::build(&d);
        assert!(sharded.num_shards() > 1, "universe must span states");
        assert_eq!(sharded.num_workers(), flat.num_workers());
        assert_eq!(sharded.num_establishments(), flat.num_establishments());
        for spec in &specs() {
            for threads in [1, 2, 7] {
                assert_marginals_identical(
                    &sharded.marginal_sharded(spec, threads),
                    &flat.marginal_sharded(spec, 1),
                );
            }
        }
    }

    #[test]
    fn sharded_expr_marginals_match_flat_index() {
        let d = dataset();
        let flat = TabulationIndex::build(&d);
        let sharded = RegionShardedIndex::build(&d);
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
            let reference = flat.marginal_expr_sharded(&spec, expr, 1);
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
        let built = RegionShardedIndex::build(&d);
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
            &built.marginal_sharded(&spec, 2),
            &reversed.marginal_sharded(&spec, 2),
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
        let flat_b = TabulationIndex::build(p.quarter(0));
        let flat_a = TabulationIndex::build(p.quarter(1));
        let shard_b = RegionShardedIndex::build(p.quarter(0));
        let shard_a = RegionShardedIndex::build(p.quarter(1));
        let spec = MarginalSpec::new(vec![WorkplaceAttr::County, WorkplaceAttr::Naics], vec![]);
        let flat = flat_b.flows_sharded(&flat_a, &spec, 1);
        for threads in [1, 2, 5] {
            let sharded = shard_b.flows_sharded(&shard_a, &spec, threads);
            assert_eq!(sharded, flat);
            assert_eq!(sharded.content_digest(), flat.content_digest());
        }
        // Filtered flows agree too.
        let expr = FilterExpr::sex(Sex::Male);
        let filtered_flat = flat_b.flows_expr_sharded(&flat_a, &spec, &expr, 1);
        for threads in [1, 2] {
            let filtered_sharded = shard_b.flows_expr_sharded(&shard_a, &spec, &expr, threads);
            assert_eq!(filtered_sharded, filtered_flat);
        }
    }

    #[test]
    fn dataset_index_dispatch_chooses_representation_and_agrees() {
        let d = dataset();
        let single = DatasetIndex::build_with_threshold(&d, usize::MAX);
        assert!(!single.is_sharded());
        let sharded = DatasetIndex::build_with_threshold(&d, 1);
        assert!(sharded.is_sharded());
        assert_eq!(single.num_workers(), sharded.num_workers());
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Place], vec![WorkerAttr::Sex]);
        assert_marginals_identical(
            &single.marginal_sharded(&spec, 2),
            &sharded.marginal_sharded(&spec, 2),
        );
    }

    #[test]
    fn single_state_universe_never_auto_shards() {
        let d = Generator::new(GeneratorConfig {
            states: 1,
            ..GeneratorConfig::test_small(3)
        })
        .generate();
        // Even a zero threshold keeps the flat index for one state.
        let idx = DatasetIndex::build_with_threshold(&d, 0);
        assert!(!idx.is_sharded());
    }
}
