//! SDL publication of marginal queries.
//!
//! For a marginal `q_V`, the published answer of a cell `v` is
//! `q*_V(D, v) = Σ_w f_w · h(w, c_v(w))` — every establishment's
//! contribution scaled by its own confidential factor — except:
//!
//! * cells whose **true** count is zero are not published (implicit exact
//!   zero), and
//! * cells whose true count lies in `(0, S)` are replaced by a
//!   posterior-predictive draw (see [`crate::small_cell`]).
//!
//! Published values are real-valued by default; production systems round,
//! which [`SdlConfig::round_output`] enables.

use crate::distortion::{DistortionFactors, DistortionParams};
use crate::small_cell::SmallCellModel;
use lodes::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tabulate::{CellKey, DatasetIndex, FilterExpr, Kernel, Marginal, MarginalSpec};

/// Configuration of the SDL publication pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SdlConfig {
    /// Distortion-factor parameters.
    pub distortion: DistortionParams,
    /// Small-cell model.
    pub small_cell: SmallCellModel,
    /// Round published values to the nearest integer.
    pub round_output: bool,
    /// Seed for factor assignment and small-cell draws.
    pub seed: u64,
}

impl Default for SdlConfig {
    fn default() -> Self {
        Self {
            distortion: DistortionParams::default(),
            small_cell: SmallCellModel::default(),
            round_output: true,
            seed: 0x5D15,
        }
    }
}

/// A published SDL tabulation: noisy counts per nonzero-true-count cell,
/// alongside the true marginal for evaluation.
///
/// Serializable since `Marginal` gained its stable serialized form: an
/// evaluation run can persist SDL baselines next to the engine's
/// `ReleaseArtifact`s and replay comparisons without re-publishing.
/// (The `truth` field makes a serialized release *confidential* — it
/// exists for experiments, never for dissemination.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SdlRelease {
    /// Published (noisy) value per cell.
    pub published: BTreeMap<CellKey, f64>,
    /// The underlying true marginal (for error computation in experiments;
    /// never released by a real agency).
    pub truth: Marginal,
}

impl SdlRelease {
    /// Total absolute error `‖q − q*‖₁` over published cells.
    pub fn l1_error(&self) -> f64 {
        self.truth
            .iter()
            .map(|(key, stats)| {
                let noisy = self.published.get(&key).copied().unwrap_or(0.0);
                (stats.count as f64 - noisy).abs()
            })
            .sum()
    }

    /// Average absolute per-cell error.
    pub fn mean_l1_error(&self) -> f64 {
        if self.truth.num_cells() == 0 {
            return 0.0;
        }
        self.l1_error() / self.truth.num_cells() as f64
    }
}

/// The SDL publication engine: holds the per-establishment factor table and
/// publishes marginals on demand.
#[derive(Debug, Clone)]
pub struct SdlPublisher {
    config: SdlConfig,
    factors: DistortionFactors,
}

impl SdlPublisher {
    /// Assign distortion factors for `dataset` and build a publisher.
    pub fn new(dataset: &Dataset, config: SdlConfig) -> Self {
        let factors = DistortionFactors::assign(dataset, config.distortion, config.seed);
        Self { config, factors }
    }

    /// The factor table (used by the attack demonstrations).
    pub fn factors(&self) -> &DistortionFactors {
        &self.factors
    }

    /// The configuration.
    pub fn config(&self) -> &SdlConfig {
        &self.config
    }

    /// Publish the marginal `spec` over `dataset`.
    pub fn publish(&self, dataset: &Dataset, spec: &MarginalSpec) -> SdlRelease {
        self.publish_on(&DatasetIndex::build_auto(dataset), dataset, spec)
    }

    /// Publish a marginal restricted to the sub-population matching the
    /// declarative `expr` (e.g. [`tabulate::ranking2_expr`] for Ranking
    /// 2's "female × bachelor's-or-higher" workers). The expression form
    /// keeps the SDL baseline on the same filter definitions — and the
    /// same provenance story — as the formally private engine it is
    /// compared against.
    pub fn publish_expr(
        &self,
        dataset: &Dataset,
        spec: &MarginalSpec,
        expr: &FilterExpr,
    ) -> SdlRelease {
        self.publish_expr_on(&DatasetIndex::build_auto(dataset), dataset, spec, expr)
    }

    /// Like [`publish`](Self::publish), but tabulating the truth over a
    /// caller-provided [`DatasetIndex`] of `dataset`, so repeated
    /// publications share one index build.
    pub fn publish_on(
        &self,
        index: &DatasetIndex,
        dataset: &Dataset,
        spec: &MarginalSpec,
    ) -> SdlRelease {
        self.publish_inner(index, dataset, spec, None)
    }

    /// Declaratively filtered variant of [`publish_on`](Self::publish_on).
    /// `index` must be an index of `dataset`.
    pub fn publish_expr_on(
        &self,
        index: &DatasetIndex,
        dataset: &Dataset,
        spec: &MarginalSpec,
        expr: &FilterExpr,
    ) -> SdlRelease {
        self.publish_inner(index, dataset, spec, Some(expr))
    }

    fn publish_inner(
        &self,
        index: &DatasetIndex,
        dataset: &Dataset,
        spec: &MarginalSpec,
        filter: Option<&FilterExpr>,
    ) -> SdlRelease {
        // Noisy per-cell sums: every worker contributes its establishment's
        // factor. (Equivalent to Σ_w f_w·h(w,c) without materializing the
        // per-establishment histograms.)
        let truth = index.marginal(spec, filter, 1, Kernel::Auto);
        let schema = truth.schema();

        let mut noisy: BTreeMap<CellKey, f64> = BTreeMap::new();
        let mut values: Vec<u32> = Vec::with_capacity(schema.attrs().len());
        for worker in dataset.workers() {
            let wp = dataset.workplace(dataset.employer_of(worker.id));
            // Record semantics, not a compiled filter: a compiled filter
            // takes index-local establishment indexes, which the
            // per-state layout renumbers shard by shard.
            if filter.is_some_and(|expr| !expr.matches_record(worker, wp)) {
                continue;
            }
            values.clear();
            for attr in &spec.workplace_attrs {
                values.push(attr.value(wp));
            }
            for attr in &spec.worker_attrs {
                values.push(attr.value(worker));
            }
            let key = schema.encode(&values);
            *noisy.entry(key).or_insert(0.0) += self.factors.factor(wp.id.0 as usize);
        }

        // Small-cell replacement + optional rounding. A fresh RNG seeded
        // from (seed, cell key) makes each cell's draw independent of
        // publication order.
        let mut published = BTreeMap::new();
        for (key, stats) in truth.iter() {
            let raw = noisy.get(&key).copied().unwrap_or(0.0);
            let value = if self.config.small_cell.applies(stats.count) {
                let mut cell_rng = StdRng::seed_from_u64(
                    self.config.seed ^ key.0.wrapping_mul(0x9E3779B97F4A7C15),
                );
                self.config.small_cell.sample(&mut cell_rng) as f64
            } else if self.config.round_output {
                raw.round()
            } else {
                raw
            };
            published.insert(key, value);
        }

        SdlRelease { published, truth }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodes::{Generator, GeneratorConfig};
    use tabulate::{workload1, WorkplaceAttr};

    fn setup() -> (Dataset, SdlPublisher) {
        let d = Generator::new(GeneratorConfig::test_small(10)).generate();
        let p = SdlPublisher::new(&d, SdlConfig::default());
        (d, p)
    }

    #[test]
    fn publishes_every_nonzero_cell() {
        let (d, p) = setup();
        let release = p.publish(&d, &workload1());
        assert_eq!(release.published.len(), release.truth.num_cells());
        for (key, _) in release.truth.iter() {
            assert!(release.published.contains_key(&key));
        }
    }

    #[test]
    fn zero_cells_are_absent() {
        let (d, p) = setup();
        let release = p.publish(&d, &workload1());
        // Published keys are exactly truth keys: zero-count cells absent.
        let truth_keys: Vec<_> = release.truth.iter().map(|(k, _)| k).collect();
        let pub_keys: Vec<_> = release.published.keys().copied().collect();
        assert_eq!(truth_keys, pub_keys);
    }

    #[test]
    fn small_cells_replaced_within_support() {
        let (d, p) = setup();
        let release = p.publish(&d, &workload1());
        let model = p.config().small_cell;
        for (key, stats) in release.truth.iter() {
            if model.applies(stats.count) {
                let v = release.published[&key];
                assert!(
                    v == 1.0 || v == 2.0,
                    "small cell {key:?} (true {}) published {v}",
                    stats.count
                );
            }
        }
    }

    #[test]
    fn large_cells_carry_multiplicative_noise() {
        let (d, _p) = setup();
        let cfg = SdlConfig {
            round_output: false,
            ..SdlConfig::default()
        };
        let p_exact = SdlPublisher::new(&d, cfg);
        let release = p_exact.publish(&d, &workload1());
        let (s, t) = (cfg.distortion.s, cfg.distortion.t);
        for (key, stats) in release.truth.iter() {
            if stats.count as f64 >= cfg.small_cell.limit {
                let v = release.published[&key];
                let ratio = v / stats.count as f64;
                // Aggregates of per-establishment factors stay within the
                // factor envelope.
                assert!(
                    ratio >= 1.0 - t - 1e-9 && ratio <= 1.0 + t + 1e-9,
                    "cell {key:?}: ratio {ratio}"
                );
                // Single-establishment cells: ratio must be bounded away
                // from 1 by s — the "no exact disclosure" property.
                if stats.establishments == 1 {
                    assert!(
                        (ratio - 1.0).abs() >= s - 1e-9,
                        "singleton cell ratio {ratio} inside the s-gap"
                    );
                }
            }
        }
    }

    #[test]
    fn l1_error_scales_with_distortion() {
        let d = Generator::new(GeneratorConfig::test_small(11)).generate();
        let small = SdlPublisher::new(
            &d,
            SdlConfig {
                distortion: DistortionParams::new(
                    0.01,
                    0.03,
                    crate::distortion::FuzzDistribution::Ramp,
                ),
                ..SdlConfig::default()
            },
        );
        let large = SdlPublisher::new(
            &d,
            SdlConfig {
                distortion: DistortionParams::new(
                    0.10,
                    0.30,
                    crate::distortion::FuzzDistribution::Ramp,
                ),
                ..SdlConfig::default()
            },
        );
        let spec = MarginalSpec::new(vec![WorkplaceAttr::Naics], vec![]);
        let e_small = small.publish(&d, &spec).l1_error();
        let e_large = large.publish(&d, &spec).l1_error();
        assert!(
            e_large > 3.0 * e_small,
            "10x distortion should raise error: {e_small} vs {e_large}"
        );
    }

    #[test]
    fn release_json_round_trips_bit_identically() {
        let (d, p) = setup();
        let release = p.publish(&d, &workload1());
        let json = serde_json::to_string(&release).unwrap();
        let back: SdlRelease = serde_json::from_str(&json).unwrap();
        assert_eq!(back, release);
        assert_eq!(back.truth.content_digest(), release.truth.content_digest());
        assert_eq!(back.l1_error(), release.l1_error());
    }

    #[test]
    fn expr_publication_restricts_to_the_filtered_population() {
        let (d, p) = setup();
        let expr = tabulate::ranking2_expr();
        let release = p.publish_expr(&d, &workload1(), &expr);
        // The truth is the filtered tabulation, and only its cells are
        // published.
        let truth = tabulate::compute_marginal_expr(&d, &workload1(), &expr);
        assert_eq!(release.truth, truth);
        assert!(release.truth.total() < p.publish(&d, &workload1()).truth.total());
        assert!(release
            .published
            .keys()
            .all(|key| truth.cell(*key).is_some()));
        // The noisy sums count exactly the matching workers, judged by the
        // reference record semantics (every cell not replaced by a
        // small-cell draw).
        let mut expected: BTreeMap<CellKey, f64> = BTreeMap::new();
        for w in d.workers() {
            let wp = d.workplace(d.employer_of(w.id));
            if expr.matches_record(w, wp) {
                let values: Vec<u32> = workload1()
                    .workplace_attrs
                    .iter()
                    .map(|a| a.value(wp))
                    .collect();
                *expected
                    .entry(truth.schema().encode(&values))
                    .or_insert(0.0) += p.factors().factor(wp.id.0 as usize);
            }
        }
        for (key, stats) in truth.iter() {
            if !p.config().small_cell.applies(stats.count) {
                assert_eq!(
                    release.published[&key],
                    expected[&key].round(),
                    "cell {key:?}"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (d, _) = setup();
        let a = SdlPublisher::new(&d, SdlConfig::default()).publish(&d, &workload1());
        let b = SdlPublisher::new(&d, SdlConfig::default()).publish(&d, &workload1());
        assert_eq!(a.published, b.published);
    }
}
