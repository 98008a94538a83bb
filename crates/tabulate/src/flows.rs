//! QWI-style job-flow statistics over consecutive quarters.
//!
//! The paper's opening motivation: ER-EE publications "are used to compute
//! national and local economic indicators, including job creation and
//! destruction statistics" — the Quarterly Workforce Indicators. Given two
//! snapshots of the same establishment frame, per cell `v`:
//!
//! * **beginning employment** `B(v)` — jobs in quarter `t`;
//! * **ending employment** `E(v)` — jobs in quarter `t+1`;
//! * **job creation** `JC(v) = Σ_w max(0, n_{t+1,w} − n_{t,w})` over the
//!   cell's establishments;
//! * **job destruction** `JD(v) = Σ_w max(0, n_{t,w} − n_{t+1,w})`;
//! * **net change** `E − B = JC − JD` (an identity, checked in tests).
//!
//! For private release, each statistic carries its own `x_v` analogue: the
//! largest single-establishment contribution to that statistic
//! ([`FlowStats::max_beginning`], [`FlowStats::max_creation`], …). A strong
//! α-neighbor step perturbs one establishment's employment by at most an
//! α-fraction per quarter, so flow queries plug into the same
//! smooth-sensitivity machinery as level queries (the per-establishment
//! flow contribution is itself bounded by the size change).
//!
//! A flow table, [`FlowMarginal`], is the one table type of
//! [`crate::marginal`] with [`FlowStats`] cells: the same sorted run,
//! accessors, validation, serde and content digest as a level
//! [`Marginal`](crate::Marginal), keyed alike. What is particular to flows
//! is `FlowStats`'s [`CellAggregate`] impl: its digest words, its per-cell
//! checks (the accounting identity, the maxima) and its refusal of worker
//! attributes.
//!
//! # Evaluation
//!
//! [`DatasetIndex::flows`] tabulates a **pair** of [`DatasetIndex`]es in
//! one layout, sharing one establishment frame, through the same driver
//! as level marginals (see [`crate::region`]): each aligned pair of
//! [`TabulationIndex`] shards is split into contiguous CSR windows, each
//! window emits a key-sorted run of per-establishment
//! `(key, before, after)` contributions, and a deterministic k-way merge
//! aggregates equal keys into [`FlowStats`]. Every aggregate (sums of
//! `B`/`E`/`JC`/`JD`, per-statistic maxima) is commutative, so the result
//! is **bit-identical at any thread count and in either layout** — the
//! engine-wide determinism guarantee extends to flows. Filtered flows
//! count only matching workers on *both* sides of the pair.

use crate::attr::MarginalSpec;
use crate::cell::{CellKey, CellSchema};
use crate::filter::CompiledFilter;
use crate::index::TabulationIndex;
use crate::kernel::{establishment_keys, Kernel};
use crate::marginal::{CellAggregate, Tabulation};
use crate::region::DatasetIndex;
use lodes::Dataset;
use serde::{Deserialize, Serialize};
#[cfg(feature = "reference")]
use std::collections::BTreeMap;

/// Flow statistics for one cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowStats {
    /// Beginning-of-period employment `B`.
    pub beginning: u64,
    /// End-of-period employment `E`.
    pub ending: u64,
    /// Job creation `JC` (gross gains at growing establishments).
    pub job_creation: u64,
    /// Job destruction `JD` (gross losses at shrinking establishments).
    pub job_destruction: u64,
    /// Largest single-establishment contribution to `B` (the `x_v` of the
    /// beginning-employment query).
    pub max_beginning: u32,
    /// Largest single-establishment contribution to `E`.
    pub max_ending: u32,
    /// Largest single-establishment contribution to `JC` (the `x_v` of the
    /// creation query).
    pub max_creation: u32,
    /// Largest single-establishment contribution to `JD`.
    pub max_destruction: u32,
}

impl FlowStats {
    /// Net employment change `E − B = JC − JD`.
    pub fn net_change(&self) -> i64 {
        self.ending as i64 - self.beginning as i64
    }

    /// Fold one establishment's `(before, after)` pair into the cell.
    #[inline]
    pub(crate) fn absorb(&mut self, b: u32, e: u32) {
        self.beginning += b as u64;
        self.ending += e as u64;
        let creation = e.saturating_sub(b);
        let destruction = b.saturating_sub(e);
        self.job_creation += creation as u64;
        self.job_destruction += destruction as u64;
        self.max_beginning = self.max_beginning.max(b);
        self.max_ending = self.max_ending.max(e);
        self.max_creation = self.max_creation.max(creation);
        self.max_destruction = self.max_destruction.max(destruction);
    }
}

/// Six words: `B`, `E`, `JC`, `JD`, then the maxima two to a word, the
/// first of each pair in the low half.
impl CellAggregate for FlowStats {
    const WORDS: usize = 6;

    fn words(&self) -> impl IntoIterator<Item = u64> {
        [
            self.beginning,
            self.ending,
            self.job_creation,
            self.job_destruction,
            (self.max_beginning as u64) | ((self.max_ending as u64) << 32),
            (self.max_creation as u64) | ((self.max_destruction as u64) << 32),
        ]
    }

    fn from_words(words: &[u64]) -> Self {
        Self {
            beginning: words[0],
            ending: words[1],
            job_creation: words[2],
            job_destruction: words[3],
            max_beginning: words[4] as u32,
            max_ending: (words[4] >> 32) as u32,
            max_creation: words[5] as u32,
            max_destruction: (words[5] >> 32) as u32,
        }
    }

    /// A stored cell is active (nonzero `B` or `E`), keeps the accounting
    /// identity `E − B = JC − JD`, has per-statistic maxima that are
    /// positive exactly when their statistic is and never exceed it, and
    /// gross flows bounded by employment.
    fn check(&self) -> Result<(), String> {
        if self.beginning == 0 && self.ending == 0 {
            return Err("dead cell".into());
        }
        let net = self.ending as i128 - self.beginning as i128;
        let gross = self.job_creation as i128 - self.job_destruction as i128;
        if net != gross {
            return Err(format!("violates E - B = JC - JD ({net} vs {gross})"));
        }
        // Each maximum is one establishment's contribution to its
        // statistic: bounded by the statistic's total and positive
        // exactly when the total is.
        let pairs = [
            (self.max_beginning, self.beginning, "beginning"),
            (self.max_ending, self.ending, "ending"),
            (self.max_creation, self.job_creation, "creation"),
            (self.max_destruction, self.job_destruction, "destruction"),
        ];
        for (max, total, what) in pairs {
            if max as u64 > total || (max == 0) != (total == 0) {
                return Err(format!(
                    "impossible {what} stats (total {total}, max {max})"
                ));
            }
        }
        // Creation is a sum of per-establishment gains, each bounded by
        // that establishment's after-size; destruction likewise by the
        // before-size.
        if self.job_creation > self.ending || self.job_destruction > self.beginning {
            return Err("gross flows exceed employment".into());
        }
        Ok(())
    }

    /// Flows are establishment-level: a flow spec groups by workplace
    /// attributes only.
    fn check_table(spec: &MarginalSpec, _: &[(CellKey, Self)]) -> Result<(), String> {
        if spec.has_worker_attrs() {
            return Err("flow marginal spec must not include worker attributes".into());
        }
        Ok(())
    }
}

/// A materialized flow tabulation between two quarters: only active cells
/// (nonzero `B` or `E`) are stored. Its keys are those of the level
/// marginal of the same spec.
pub type FlowMarginal = Tabulation<FlowStats>;

impl FlowMarginal {
    /// Aggregate totals across all cells.
    pub fn totals(&self) -> FlowStats {
        let mut out = FlowStats::default();
        for (_, stats) in self.iter() {
            out.beginning += stats.beginning;
            out.ending += stats.ending;
            out.job_creation += stats.job_creation;
            out.job_destruction += stats.job_destruction;
            out.max_beginning = out.max_beginning.max(stats.max_beginning);
            out.max_ending = out.max_ending.max(stats.max_ending);
            out.max_creation = out.max_creation.max(stats.max_creation);
            out.max_destruction = out.max_destruction.max(stats.max_destruction);
        }
        out
    }
}

/// Evaluate the flow query `(B, E, JC, JD)` between two snapshots grouped
/// by the workplace attributes of `spec`.
///
/// Convenience wrapper: builds two throwaway one-shard [`DatasetIndex`]es
/// and runs [`DatasetIndex::flows`] single-threaded. Callers tabulating a
/// pair more than once should build (or share) the indexes themselves.
///
/// # Panics
/// Panics if the spec has worker attributes (flows are establishment-level
/// quantities), or if the two snapshots do not share an establishment
/// frame (same workplace count; the panel generator guarantees identical
/// frames).
pub fn compute_flows(before: &Dataset, after: &Dataset, spec: &MarginalSpec) -> FlowMarginal {
    let before = DatasetIndex::one_shard(before);
    let after = before.build_like(after);
    before.flows(&after, spec, None, 1, Kernel::Auto)
}

/// One filter compiled against each side of the pair.
type PairFilter<'a> = (&'a CompiledFilter, &'a CompiledFilter);

/// Per-shard-pair flow tabulation state, borrowed immutably by every task
/// of one shard. Built by [`DatasetIndex::flows`], one per aligned pair
/// of shards.
pub(crate) struct FlowPlan<'a> {
    before: &'a TabulationIndex,
    after: &'a TabulationIndex,
    /// Workplace code columns of the spec's workplace attributes, from the
    /// before-quarter (both quarters share the establishment frame).
    wp_cols: Vec<&'a [u32]>,
    wp_strides: Vec<u64>,
    filters: Option<PairFilter<'a>>,
    kernel: Kernel,
}

impl<'a> FlowPlan<'a> {
    pub(crate) fn new(
        before: &'a TabulationIndex,
        after: &'a TabulationIndex,
        spec: &MarginalSpec,
        schema: &CellSchema,
        filters: Option<PairFilter<'a>>,
        kernel: Kernel,
    ) -> Self {
        assert_eq!(
            before.num_establishments(),
            after.num_establishments(),
            "flow tabulation requires a shared establishment frame"
        );
        let wp_cols: Vec<&[u32]> = spec
            .workplace_attrs
            .iter()
            .map(|&a| before.workplace_column(a))
            .collect();
        let wp_strides: Vec<u64> = (0..wp_cols.len()).map(|i| schema.stride_of(i)).collect();
        Self {
            before,
            after,
            wp_cols,
            wp_strides,
            filters,
            kernel,
        }
    }
}

/// Establishments per precomputed key block (128 KiB of `u64` keys).
const ESTAB_BLOCK: usize = 1 << 14;

/// Tabulate establishments `lo..hi` of a flow pair into a run of
/// `(key, before, after)` contributions sorted by key. Establishment keys
/// are precomputed blockwise by the [`crate::kernel`] establishment-key
/// kernel; the per-establishment sizes come straight off each quarter's
/// CSR offsets (or a filtered scan), unchanged for every kernel choice.
pub(crate) fn flow_shard(plan: &FlowPlan<'_>, lo: usize, hi: usize) -> Vec<(u64, u32, u32)> {
    let mut run: Vec<(u64, u32, u32)> = Vec::new();
    let mut max_key: u64 = 0;
    let mut keys: Vec<u64> = Vec::new();
    let mut batch_lo = lo;
    while batch_lo < hi {
        let batch_hi = (batch_lo + ESTAB_BLOCK).min(hi);
        keys.resize(batch_hi - batch_lo, 0);
        establishment_keys(
            &plan.wp_cols,
            &plan.wp_strides,
            batch_lo,
            &mut keys,
            plan.kernel,
        );
        for e in batch_lo..batch_hi {
            let b = side_count(plan.before, e, plan.filters.map(|(f, _)| f));
            let a = side_count(plan.after, e, plan.filters.map(|(_, f)| f));
            if b == 0 && a == 0 {
                continue;
            }
            let key = keys[e - batch_lo];
            max_key = max_key.max(key);
            run.push((key, b, a));
        }
        batch_lo = batch_hi;
    }
    // Equal keys (same cell, different establishments) may interleave
    // arbitrarily; the merge's aggregates are all commutative.
    crate::engine::sort_run_by_key(&mut run, max_key, |&(key, _, _)| key);
    run
}

/// One quarter's (possibly filtered) employment of establishment `e`.
#[inline]
fn side_count(index: &TabulationIndex, e: usize, filter: Option<&CompiledFilter>) -> u32 {
    let range = index.worker_range(e);
    match filter {
        None => range.len() as u32,
        Some(f) => index.workers()[range]
            .iter()
            .filter(|w| f.matches(w))
            .count() as u32,
    }
}

/// The pre-index flow evaluator: one pass over the workplace table using
/// `Dataset::establishment_size` on each side. Retained as the brute-force
/// *reference* for property tests and the old-vs-new benchmark; only
/// compiled under the default-off `reference` feature.
#[cfg(feature = "reference")]
pub fn compute_flows_legacy(
    before: &Dataset,
    after: &Dataset,
    spec: &MarginalSpec,
) -> FlowMarginal {
    assert!(
        !spec.has_worker_attrs(),
        "job flows are establishment-level: spec must not include worker attributes"
    );
    assert_eq!(
        before.num_workplaces(),
        after.num_workplaces(),
        "flow tabulation requires a shared establishment frame"
    );
    let schema = CellSchema::new(spec, before);
    let mut cells: BTreeMap<CellKey, FlowStats> = BTreeMap::new();
    let mut values: Vec<u32> = Vec::with_capacity(schema.attrs().len());
    for wp in before.workplaces() {
        let b = before.establishment_size(wp.id);
        let e = after.establishment_size(wp.id);
        if b == 0 && e == 0 {
            continue;
        }
        values.clear();
        for attr in &spec.workplace_attrs {
            values.push(attr.value(wp));
        }
        let key = schema.encode(&values);
        cells.entry(key).or_default().absorb(b, e);
    }
    FlowMarginal::from_sorted(spec.clone(), schema, cells.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{MarginalSpec, WorkerAttr, WorkplaceAttr};
    use crate::filter::FilterExpr;
    use lodes::{DatasetPanel, GeneratorConfig, PanelConfig};

    fn panel() -> DatasetPanel {
        DatasetPanel::generate(
            &GeneratorConfig::test_small(91),
            &PanelConfig {
                quarters: 2,
                growth_sigma: 0.1,
                death_rate: 0.05,
                seed: 19,
            },
        )
    }

    #[test]
    fn accounting_identity_holds_per_cell_and_overall() {
        let p = panel();
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Naics], vec![]);
        let flows = compute_flows(p.quarter(0), p.quarter(1), &spec);
        assert!(flows.num_cells() > 0);
        for (key, stats) in flows.iter() {
            assert_eq!(
                stats.net_change(),
                stats.job_creation as i64 - stats.job_destruction as i64,
                "E - B = JC - JD must hold for cell {key:?}"
            );
            assert!(stats.max_creation as u64 <= stats.job_creation.max(1));
            assert!(stats.max_destruction as u64 <= stats.job_destruction.max(1));
            assert!(stats.max_beginning as u64 <= stats.beginning);
            assert!(stats.max_ending as u64 <= stats.ending);
        }
        let totals = flows.totals();
        assert_eq!(totals.beginning as usize, p.quarter(0).num_jobs());
        assert_eq!(totals.ending as usize, p.quarter(1).num_jobs());
        // With 5% deaths there must be real destruction.
        assert!(totals.job_destruction > 0);
        assert!(totals.job_creation > 0);
    }

    #[test]
    fn flows_are_zero_between_identical_quarters() {
        let p = panel();
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Place], vec![]);
        let flows = compute_flows(p.quarter(0), p.quarter(0), &spec);
        for (_, stats) in flows.iter() {
            assert_eq!(stats.job_creation, 0);
            assert_eq!(stats.job_destruction, 0);
            assert_eq!(stats.beginning, stats.ending);
            assert_eq!(stats.max_beginning, stats.max_ending);
        }
    }

    #[test]
    #[should_panic(expected = "must not include worker attributes")]
    fn rejects_worker_attributes() {
        let p = panel();
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Naics], vec![WorkerAttr::Sex]);
        compute_flows(p.quarter(0), p.quarter(1), &spec);
    }

    #[test]
    fn flow_keys_align_with_level_marginal_keys() {
        use crate::engine::compute_marginal;
        let p = panel();
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Naics, WorkplaceAttr::Ownership], vec![]);
        let flows = compute_flows(p.quarter(0), p.quarter(1), &spec);
        let levels = compute_marginal(p.quarter(0), &spec);
        for (key, stats) in flows.iter() {
            if stats.beginning > 0 {
                let level = levels.cell(key).expect("beginning > 0 implies level cell");
                assert_eq!(level.count, stats.beginning, "keys must align");
                assert_eq!(
                    level.max_establishment, stats.max_beginning,
                    "B's x_v is the level marginal's x_v"
                );
            }
        }
    }

    #[test]
    fn sharded_flows_are_bit_identical_at_any_thread_count() {
        let p = panel();
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Place, WorkplaceAttr::Naics], vec![]);
        let before = DatasetIndex::one_shard(p.quarter(0));
        let after = before.build_like(p.quarter(1));
        let reference = before.flows(&after, &spec, None, 1, Kernel::Auto);
        for threads in [2, 3, 7, 64] {
            let sharded = before.flows(&after, &spec, None, threads, Kernel::Auto);
            assert_eq!(sharded, reference);
            assert_eq!(sharded.content_digest(), reference.content_digest());
        }
    }

    /// The kernel dispatch choice never changes a flow cell: scalar and
    /// Auto (AVX2 on CI hardware) agree bit-for-bit, in either layout.
    #[test]
    fn simd_and_scalar_flow_kernels_are_bit_identical() {
        let p = panel();
        let female = FilterExpr::sex(lodes::Sex::Female);
        let specs = [
            MarginalSpec::new(vec![], vec![]),
            MarginalSpec::new(vec![WorkplaceAttr::Naics], vec![]),
            MarginalSpec::new(
                vec![
                    WorkplaceAttr::Block,
                    WorkplaceAttr::Naics,
                    WorkplaceAttr::Ownership,
                ],
                vec![],
            ),
        ];
        for before in [
            DatasetIndex::one_shard(p.quarter(0)),
            DatasetIndex::per_state(p.quarter(0)),
        ] {
            let after = before.build_like(p.quarter(1));
            for spec in &specs {
                for threads in [1, 3] {
                    for filter in [None, Some(&female)] {
                        let scalar = before.flows(&after, spec, filter, threads, Kernel::Scalar);
                        let auto = before.flows(&after, spec, filter, threads, Kernel::Auto);
                        assert_eq!(auto, scalar);
                        assert_eq!(auto.content_digest(), scalar.content_digest());
                    }
                }
            }
        }
    }

    #[test]
    fn filtered_flows_count_matching_workers_on_both_sides() {
        use lodes::Sex;
        let p = panel();
        let spec = MarginalSpec::new(vec![WorkplaceAttr::County], vec![]);
        let before = DatasetIndex::one_shard(p.quarter(0));
        let after = before.build_like(p.quarter(1));
        let (female_expr, male_expr) = (FilterExpr::sex(Sex::Female), FilterExpr::sex(Sex::Male));
        let all = before.flows(&after, &spec, None, 2, Kernel::Auto);
        let female = before.flows(&after, &spec, Some(&female_expr), 2, Kernel::Auto);
        let male = before.flows(&after, &spec, Some(&male_expr), 2, Kernel::Auto);
        assert_eq!(
            female.totals().beginning + male.totals().beginning,
            all.totals().beginning
        );
        assert_eq!(
            female.totals().ending + male.totals().ending,
            all.totals().ending
        );
        // The thread count never changes a filtered flow cell.
        let three = before.flows(&after, &spec, Some(&female_expr), 3, Kernel::Auto);
        assert_eq!(three, female);
    }

    #[test]
    fn serde_round_trip_is_bit_identical() {
        let p = panel();
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Naics, WorkplaceAttr::Ownership], vec![]);
        let flows = compute_flows(p.quarter(0), p.quarter(1), &spec);
        let json = serde_json::to_string(&flows).unwrap();
        let back: FlowMarginal = serde_json::from_str(&json).unwrap();
        assert_eq!(back, flows);
        assert_eq!(back.content_digest(), flows.content_digest());
    }

    #[test]
    fn deserialization_refuses_invalid_snapshots() {
        let p = panel();
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Naics], vec![]);
        let flows = compute_flows(p.quarter(0), p.quarter(1), &spec);
        let json = serde_json::to_string(&flows).unwrap();
        let (key, stats) = flows.iter().next().expect("nonempty flows");
        // Breaking the accounting identity is refused.
        let tampered = json.replacen(
            &format!("\"job_creation\":{}", stats.job_creation),
            &format!("\"job_creation\":{}", stats.job_creation + 1),
            1,
        );
        assert_ne!(tampered, json);
        assert!(serde_json::from_str::<FlowMarginal>(&tampered).is_err());
        // An out-of-domain key is refused.
        let domain = flows.schema().domain_size();
        let tampered = json.replacen(&format!("[{}", key.0), &format!("[{domain}"), 1);
        assert_ne!(tampered, json);
        assert!(serde_json::from_str::<FlowMarginal>(&tampered).is_err());
        // An impossible maximum (x_v above its statistic) is refused.
        let tampered = json.replacen(
            &format!("\"max_beginning\":{}", stats.max_beginning),
            &format!("\"max_beginning\":{}", stats.beginning + 1),
            1,
        );
        assert_ne!(tampered, json);
        assert!(serde_json::from_str::<FlowMarginal>(&tampered).is_err());
    }

    #[cfg(feature = "reference")]
    #[test]
    fn indexed_flows_match_legacy_flows() {
        let p = panel();
        let specs = [
            MarginalSpec::new(vec![], vec![]),
            MarginalSpec::new(vec![WorkplaceAttr::Naics], vec![]),
            MarginalSpec::new(
                vec![
                    WorkplaceAttr::Place,
                    WorkplaceAttr::Naics,
                    WorkplaceAttr::Ownership,
                ],
                vec![],
            ),
        ];
        for spec in &specs {
            let legacy = compute_flows_legacy(p.quarter(0), p.quarter(1), spec);
            let indexed = compute_flows(p.quarter(0), p.quarter(1), spec);
            assert_eq!(indexed, legacy);
            assert_eq!(indexed.content_digest(), legacy.content_digest());
        }
    }
}
