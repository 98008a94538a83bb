//! Private release of establishment-class *shapes* — workforce
//! compositions over a worker-attribute partition.
//!
//! Definition 4.3 protects the *distribution* of an establishment's
//! workforce over worker characteristics ("shape"), not just its
//! magnitude. Data users, conversely, often want exactly that
//! distribution — e.g. the education mix of manufacturing employment in a
//! place. Shape releases carry the weak (α,ε)-ER-EE guarantee: every
//! sub-count of the partition is released with a mechanism at budget
//! `ε/d` (sequential composition over the `d` partition classes, Sec 8),
//! then normalized. Normalization is post-processing, so the composition
//! bound is the entire privacy cost.
//!
//! Released fractions are clamped to `[0, 1]` and renormalized; the
//! released total is the sum of the noisy sub-counts (consistent by
//! construction — the fractions and total always agree, unlike releasing
//! them from separate budgets).
//!
//! The sampling logic lives in [`crate::engine`]
//! ([`ReleaseRequest::shapes`](crate::engine::ReleaseRequest::shapes));
//! this module holds the released type and the shape-specific error.

use serde::{Deserialize, Serialize};
use tabulate::CellKey;

/// A privately released shape for one workplace-attribute cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShapeRelease {
    /// The workplace cell (keyed in the *worker-free* layout, matching the
    /// corresponding workplace-only marginal).
    pub cell: CellKey,
    /// Released fraction per worker-partition class (sums to 1 unless the
    /// released total collapses to 0, in which case all fractions are 0).
    pub fractions: Vec<f64>,
    /// Released (noisy, non-negative) sub-count per class.
    pub sub_counts: Vec<f64>,
    /// Released total (sum of sub-counts).
    pub total: f64,
}

/// Errors from shape release. A budget the per-class mechanism rejects
/// after the d-way split is an
/// [`EngineError::InvalidParameters`](crate::error::EngineError::InvalidParameters).
#[derive(Debug, Clone, PartialEq)]
pub enum ShapeError {
    /// The marginal must group by at least one worker attribute to define
    /// a partition.
    NoWorkerAttributes,
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeError::NoWorkerAttributes => {
                write!(f, "shape release needs worker attributes in the marginal")
            }
        }
    }
}

impl std::error::Error for ShapeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::definitions::PrivacyParams;
    use crate::engine::{ReleaseEngine, ReleaseRequest};
    use crate::error::EngineError;
    use crate::mechanisms::MechanismKind;
    use lodes::{Generator, GeneratorConfig};
    use tabulate::{compute_marginal, workload1, workload3, Marginal};

    fn truth() -> Marginal {
        let d = Generator::new(GeneratorConfig::test_small(71)).generate();
        compute_marginal(&d, &workload3())
    }

    /// Release `truth`'s shapes through an engine whose ledger holds
    /// exactly the request's total budget.
    fn release_shapes(
        truth: &Marginal,
        mechanism: MechanismKind,
        total_budget: &PrivacyParams,
        seed: u64,
    ) -> Result<Vec<ShapeRelease>, EngineError> {
        let request = ReleaseRequest::shapes(truth.spec().clone())
            .mechanism(mechanism)
            .budget(*total_budget)
            .seed(seed);
        let artifact = ReleaseEngine::new(*total_budget).execute_precomputed(truth, &request)?;
        Ok(artifact
            .shapes()
            .expect("shapes request yields shapes")
            .to_vec())
    }

    #[test]
    fn fractions_are_normalized() {
        let truth = truth();
        let shapes = release_shapes(
            &truth,
            MechanismKind::SmoothLaplace,
            &PrivacyParams::approximate(0.1, 16.0, 0.05),
            3,
        )
        .unwrap();
        assert!(!shapes.is_empty());
        for s in &shapes {
            let sum: f64 = s.fractions.iter().sum();
            if s.total > 0.0 {
                assert!((sum - 1.0).abs() < 1e-9, "fractions sum {sum}");
            }
            assert!(s.fractions.iter().all(|&f| (0.0..=1.0).contains(&f)));
            assert_eq!(s.fractions.len(), 8, "sex x education partition");
            let total_check: f64 = s.sub_counts.iter().sum();
            assert!(
                (total_check - s.total).abs() < 1e-9,
                "internally consistent"
            );
        }
    }

    #[test]
    fn shapes_approach_truth_at_high_epsilon() {
        let truth = truth();
        let shapes = release_shapes(
            &truth,
            MechanismKind::SmoothLaplace,
            &PrivacyParams::approximate(0.1, 400.0, 0.05),
            4,
        )
        .unwrap();
        // Compare released female share against truth for large cells.
        let spec = truth.spec();
        let schema = truth.schema();
        let n_wp = spec.workplace_attrs.len();
        let mut true_groups: std::collections::BTreeMap<u64, (f64, f64)> =
            std::collections::BTreeMap::new();
        for (key, stats) in truth.iter() {
            let mut wp_key: u64 = 0;
            for pos in 0..n_wp {
                wp_key = wp_key * schema.cardinality_of(pos) + schema.value_of(key, pos) as u64;
            }
            let sex = schema.value_of(key, n_wp); // first worker attr = sex
            let entry = true_groups.entry(wp_key).or_insert((0.0, 0.0));
            entry.1 += stats.count as f64;
            if sex == 1 {
                entry.0 += stats.count as f64;
            }
        }
        let mut checked = 0;
        for s in &shapes {
            let (female, total) = true_groups[&s.cell.0];
            if total < 200.0 {
                continue;
            }
            // Classes 4..8 are female x education (sex index 1).
            let released_female: f64 = s.fractions[4..8].iter().sum();
            assert!(
                (released_female - female / total).abs() < 0.1,
                "female share {released_female} vs true {}",
                female / total
            );
            checked += 1;
        }
        assert!(checked > 3, "need large cells to check");
    }

    #[test]
    fn rejects_marginals_without_worker_attributes() {
        let d = Generator::new(GeneratorConfig::test_small(72)).generate();
        let truth = compute_marginal(&d, &workload1());
        let err = release_shapes(
            &truth,
            MechanismKind::SmoothLaplace,
            &PrivacyParams::approximate(0.1, 8.0, 0.05),
            1,
        )
        .unwrap_err();
        assert_eq!(err, EngineError::Shape(ShapeError::NoWorkerAttributes));
    }

    #[test]
    fn rejects_insufficient_budget() {
        let truth = truth();
        // Smooth Gamma per-class budget 4/8 = 0.5 < 5 ln(1.2) = 0.91 at
        // alpha = 0.2: invalid.
        let err = release_shapes(
            &truth,
            MechanismKind::SmoothGamma,
            &PrivacyParams::pure(0.2, 4.0),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::InvalidParameters { .. }));
        assert!(!err.to_string().is_empty());
    }
}
