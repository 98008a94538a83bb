//! Columnar, employer-grouped tabulation index.
//!
//! The paper's workloads tabulate the same confidential snapshot many
//! times under different marginal specs; a production release service does
//! so thousands of times per publication season. [`TabulationIndex`]
//! amortizes everything that is spec-independent into one build per
//! [`Dataset`]:
//!
//! * a **CSR grouping** of workers by employing establishment —
//!   `offsets[e]..offsets[e + 1]` is establishment `e`'s contiguous worker
//!   range — so per-establishment statistics (`x_v`, contributing-
//!   establishment counts) fall out of a sequential scan instead of a
//!   global `(cell, establishment)` hash map;
//! * one packed **worker-cell column** in CSR order: each worker's five
//!   attributes as its [`WorkerCell`] code (below 768, a `u16`), the one
//!   column every worker attribute and every filter's worker leaves are
//!   read from, through a 768-entry table per spec or filter pattern;
//! * **workplace attribute code columns**, dense `u32` codes per
//!   establishment — tabulation reads only the columns a spec names.
//!
//! A [`TabulationIndex`] is one shard of a [`crate::DatasetIndex`] — the
//! whole dataset in the one-shard layout, one state in the per-state
//! layout — and the target [`crate::FilterExpr::compile`] resolves
//! against. It has no evaluators of its own: the drivers live in
//! [`crate::region`], the per-shard marginal algorithm and its
//! determinism guarantee in [`crate::engine`].

use crate::attr::{Attr, MarginalSpec, WorkplaceAttr};
use crate::cell::CellSchema;
use crate::filter::CompiledFilter;
use lodes::histogram::WorkerCell;
use lodes::{Dataset, Geography, Worker, WorkerId, Workplace};

/// All workplace attributes, in the order their columns are stored.
const WORKPLACE_ATTRS: [WorkplaceAttr; 6] = [
    WorkplaceAttr::State,
    WorkplaceAttr::County,
    WorkplaceAttr::Place,
    WorkplaceAttr::Block,
    WorkplaceAttr::Naics,
    WorkplaceAttr::Ownership,
];

fn workplace_slot(attr: WorkplaceAttr) -> usize {
    match attr {
        WorkplaceAttr::State => 0,
        WorkplaceAttr::County => 1,
        WorkplaceAttr::Place => 2,
        WorkplaceAttr::Block => 3,
        WorkplaceAttr::Naics => 4,
        WorkplaceAttr::Ownership => 5,
    }
}

/// A worker's [`WorkerCell`] code, the value the index stores per worker.
#[inline]
pub(crate) fn worker_cell(worker: &Worker) -> u16 {
    WorkerCell::of(worker).0
}

/// Columnar employer-grouped (CSR) layout of one [`Dataset`], built once
/// and shared across every tabulation of that dataset.
///
/// Self-contained: after `build`, tabulation never touches the `Dataset`
/// again, so an index can be handed to worker threads or cached next to
/// the truth marginals it produced without borrowing the database.
#[derive(Debug, Clone)]
pub struct TabulationIndex {
    /// CSR offsets: establishment `e`'s workers occupy
    /// `offsets[e] as usize .. offsets[e + 1] as usize` in the
    /// employer-grouped worker-cell column.
    offsets: Vec<u32>,
    /// Each worker's [`WorkerCell`] code in employer-grouped order; every
    /// code is below `lodes::worker::WORKER_DOMAIN_SIZE` (768).
    cells: Vec<u16>,
    /// Workplace attribute code columns, one entry per establishment,
    /// indexed by `workplace_slot` (state, county, place, block, naics,
    /// ownership).
    workplace_codes: [Vec<u32>; 6],
}

impl TabulationIndex {
    /// Build the index: one counting sort over the Job table plus one
    /// column-extraction pass per column. `O(workers + establishments)`
    /// — cheap next to a single tabulation, and amortized across all of
    /// them.
    pub fn build(dataset: &Dataset) -> Self {
        let (offsets, order) = dataset.workers_by_employer();
        let cells = order
            .iter()
            .map(|&w| worker_cell(dataset.worker(WorkerId(w))))
            .collect();
        let workplace_codes = WORKPLACE_ATTRS.map(|attr| {
            dataset
                .workplaces()
                .iter()
                .map(|wp| attr.value(wp))
                .collect()
        });
        Self {
            offsets,
            cells,
            workplace_codes,
        }
    }

    /// Number of establishments indexed.
    pub fn num_establishments(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of workers indexed.
    pub fn num_workers(&self) -> usize {
        self.cells.len()
    }

    /// Establishment `e`'s worker range in the employer-grouped columns.
    #[inline]
    pub(crate) fn worker_range(&self, e: usize) -> std::ops::Range<usize> {
        self.offsets[e] as usize..self.offsets[e + 1] as usize
    }

    /// Workers employed by establishments `lo..hi`.
    pub(crate) fn workers_between(&self, lo: usize, hi: usize) -> usize {
        (self.offsets[hi] - self.offsets[lo]) as usize
    }

    /// The worker-cell column in employer-grouped order.
    #[inline]
    pub(crate) fn cells(&self) -> &[u16] {
        &self.cells
    }

    /// Establishment `e`'s employment, counting only the workers `filter`
    /// admits when there is one.
    #[inline]
    pub(crate) fn employment(&self, e: usize, filter: Option<&CompiledFilter>) -> u32 {
        let range = self.worker_range(e);
        match filter {
            None => range.len() as u32,
            Some(f) => f.count(e, &self.cells[range]),
        }
    }

    /// The `u32` code column of one workplace attribute (one entry per
    /// establishment).
    #[inline]
    pub(crate) fn workplace_column(&self, attr: WorkplaceAttr) -> &[u32] {
        &self.workplace_codes[workplace_slot(attr)]
    }

    /// Establishment shard boundaries balanced by **cumulative worker
    /// count**: `shards + 1` monotone establishment indexes whose windows
    /// partition `0..num_establishments()` so that every shard scans
    /// roughly `num_workers() / shards` workers.
    ///
    /// Contiguous establishment-count chunking (the obvious split) hands a
    /// shard of tiny establishments and a shard of giant ones the same
    /// establishment count but wildly different worker counts — on skewed
    /// (power-law) universes the slowest shard dominates wall clock. The
    /// tabulation cost of a shard is linear in the workers it scans, so
    /// balancing on the CSR offsets balances the actual work. A boundary
    /// never splits an establishment (shards stay establishment-aligned,
    /// which the per-establishment evaluator requires), so one
    /// establishment larger than the ideal shard yields empty neighbors —
    /// harmless to the merge.
    ///
    /// The boundaries are a pure function of the index and `shards`;
    /// sharded tabulation stays bit-identical at any shard count because
    /// the k-way merge is order-insensitive, not because the boundaries
    /// are fixed.
    pub fn shard_bounds(&self, shards: usize) -> Vec<usize> {
        let n = self.num_establishments();
        let shards = shards.max(1).min(n.max(1));
        let total = *self.offsets.last().expect("offsets never empty") as u64;
        let mut bounds = Vec::with_capacity(shards + 1);
        bounds.push(0usize);
        for t in 1..shards {
            let target = total * t as u64 / shards as u64;
            // First establishment starting at or beyond the target worker
            // count, clamped monotone so windows never run backwards.
            let b = self
                .offsets
                .partition_point(|&o| (o as u64) < target)
                .min(n)
                .max(*bounds.last().expect("nonempty"));
            bounds.push(b);
        }
        bounds.push(n);
        bounds
    }
}

/// Workplace-attribute domain cardinalities of a geography, in column-slot
/// order — what [`WorkplaceAttr::cardinality`] reports for any dataset
/// over that geography.
pub(crate) fn cards_from_geography(geography: &Geography) -> [u64; 6] {
    [
        geography.num_states() as u64,
        geography.num_counties() as u64,
        geography.num_places() as u64,
        geography.num_blocks() as u64,
        lodes::NaicsSector::COUNT as u64,
        lodes::Ownership::COUNT as u64,
    ]
}

/// Derive the [`CellSchema`] for `spec` from snapshotted workplace
/// cardinalities (worker domains are fixed enums).
pub(crate) fn schema_from_cards(cards: &[u64; 6], spec: &MarginalSpec) -> CellSchema {
    let attrs: Vec<Attr> = spec.attrs().collect();
    let cardinalities: Vec<u64> = attrs
        .iter()
        .map(|a| match a {
            Attr::Workplace(w) => cards[workplace_slot(*w)],
            Attr::Worker(w) => w.cardinality() as u64,
        })
        .collect();
    CellSchema::from_parts(attrs, cardinalities)
}

/// Streaming [`TabulationIndex`] construction, one establishment at a
/// time, without ever materializing a [`Dataset`].
///
/// The generator emits workers already grouped by employing establishment,
/// which is exactly the CSR layout the index stores — so a national-scale
/// index can be built from a generation *stream* with peak memory bounded
/// by the index itself (no second copy as a `Dataset`, no counting-sort
/// scratch). [`crate::RegionIndexBuilder`] routes the stream into one
/// builder per state.
#[derive(Debug, Clone)]
pub(crate) struct IndexBuilder {
    offsets: Vec<u32>,
    cells: Vec<u16>,
    workplace_codes: [Vec<u32>; 6],
}

impl IndexBuilder {
    /// Start an empty index.
    pub fn new() -> Self {
        Self {
            offsets: vec![0],
            cells: Vec::new(),
            workplace_codes: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// Append one establishment and the [`worker_cell`] codes of its
    /// workers (its entire workforce — an establishment cannot be pushed
    /// twice).
    pub fn push_establishment(&mut self, workplace: &Workplace, cells: impl Iterator<Item = u16>) {
        for (slot, attr) in WORKPLACE_ATTRS.iter().enumerate() {
            self.workplace_codes[slot].push(attr.value(workplace));
        }
        self.cells.extend(cells);
        self.offsets
            .push(u32::try_from(self.cells.len()).expect("worker count exceeds u32"));
    }

    /// Establishments pushed so far.
    pub fn num_establishments(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Workers pushed so far.
    pub fn num_workers(&self) -> usize {
        self.cells.len()
    }

    /// Seal the stream into an index.
    pub fn finish(self) -> TabulationIndex {
        TabulationIndex {
            offsets: self.offsets,
            cells: self.cells,
            workplace_codes: self.workplace_codes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodes::{Generator, GeneratorConfig};

    #[test]
    fn index_matches_dataset_layout() {
        let d = Generator::new(GeneratorConfig::test_small(3)).generate();
        let idx = TabulationIndex::build(&d);
        assert_eq!(idx.num_establishments(), d.num_workplaces());
        assert_eq!(idx.num_workers(), d.num_workers());
        // Every CSR range holds exactly that establishment's workers'
        // cells, in the counting sort's order.
        let (_, order) = d.workers_by_employer();
        for e in 0..idx.num_establishments() {
            let range = idx.worker_range(e);
            assert_eq!(
                range.len() as u32,
                d.establishment_size(lodes::WorkplaceId(e as u32))
            );
            for i in range {
                let w = d.worker(WorkerId(order[i]));
                assert_eq!(d.employer_of(w.id).0 as usize, e);
                assert_eq!(idx.cells()[i], WorkerCell::of(w).0);
            }
        }
        // Workplace columns agree with the record API.
        let naics = idx.workplace_column(WorkplaceAttr::Naics);
        for (e, wp) in d.workplaces().iter().enumerate() {
            assert_eq!(naics[e], WorkplaceAttr::Naics.value(wp));
        }
    }

    #[test]
    fn shard_bounds_balance_worker_counts() {
        let d = Generator::new(GeneratorConfig::test_small(7)).generate();
        let idx = TabulationIndex::build(&d);
        let total = idx.num_workers();
        for shards in [1, 2, 3, 7, 16] {
            let bounds = idx.shard_bounds(shards);
            assert_eq!(bounds[0], 0);
            assert_eq!(*bounds.last().unwrap(), idx.num_establishments());
            assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "monotone bounds");
            let ideal = total.div_ceil(shards);
            let biggest_estab = (0..idx.num_establishments())
                .map(|e| idx.worker_range(e).len())
                .max()
                .unwrap_or(0);
            for w in bounds.windows(2) {
                let workers: usize = (w[0]..w[1]).map(|e| idx.worker_range(e).len()).sum();
                // Establishment-aligned boundaries can overshoot the ideal
                // by at most one establishment's worth of workers.
                assert!(
                    workers <= ideal + biggest_estab,
                    "shard {w:?} scans {workers} workers (ideal {ideal}, \
                     biggest establishment {biggest_estab})"
                );
            }
        }
    }
}
