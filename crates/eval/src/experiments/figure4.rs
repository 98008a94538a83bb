//! Figure 4 (Appendix C): average L1 error ratio of releasing the *full*
//! worker-and-workplace marginal (Workload 3: place × industry × ownership
//! × sex × education) compared to the current SDL system.
//!
//! Releasing all cells requires weak (α,ε)-ER-EE privacy with sequential
//! composition over the d = |sex×education| = 8 worker cells (Sec 8), so a
//! total budget ε funds each cell at ε/8 — which is why this figure's ε
//! axis extends to 20 and why errors are an order of magnitude above
//! Figure 3's single queries (Finding 3).

use super::{grid_params, plottable, release_cells, L1Baseline, Series};
use crate::report::{write_pivoted, Point};
use crate::runner::{ExperimentContext, TrialSpec};
use eree_core::accountant::ReleaseCost;
use eree_core::neighbors::NeighborKind;
use eree_core::{MechanismKind, PrivacyParams};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;
use tabulate::workload3;

/// One plotted point of Figure 4.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure4Row {
    /// Mechanism series label.
    pub series: String,
    /// α.
    pub alpha: f64,
    /// Total privacy-loss budget ε for the whole marginal (the per-cell
    /// budget is ε divided by the worker-domain size 8).
    pub epsilon: f64,
    /// Per-cell ε after the weak-composition split.
    pub per_cell_epsilon: f64,
    /// Stratum label; `"overall"` for the headline panel.
    pub stratum: String,
    /// Average total L1 error divided by the SDL system's.
    pub l1_ratio: f64,
}

/// Run the Figure 4 experiment.
pub fn run(ctx: &ExperimentContext, trials: &TrialSpec) -> Vec<Figure4Row> {
    let spec = workload3();
    let truth = &ctx.sdl_w3.truth;
    let baseline = L1Baseline::new(&ctx.sdl_w3, &ctx.dataset);

    let mut rows = Vec::new();
    for kind in MechanismKind::ALL {
        for &alpha in &ExperimentContext::ALPHA_GRID {
            for &epsilon in &ExperimentContext::EPSILON_GRID_WIDE {
                // Split the total budget across the worker domain (weak
                // regime), then check validity at the per-cell parameters.
                let total = match kind {
                    MechanismKind::SmoothLaplace => {
                        PrivacyParams::approximate(alpha, epsilon, ExperimentContext::DELTA)
                    }
                    _ => PrivacyParams::pure(alpha, epsilon),
                };
                let per_cell = ReleaseCost::per_cell_for_total(&spec, &total, NeighborKind::Weak);
                if !plottable(kind, alpha, per_cell.epsilon, per_cell.delta) {
                    continue;
                }
                let params = grid_params(kind, alpha, per_cell.epsilon, per_cell.delta);
                let ratios = baseline.ratios(trials, |seed| {
                    release_cells(truth, kind, &params, seed)
                        .expect("plottable() pre-checked validity")
                });
                for (stratum, l1_ratio) in ratios {
                    rows.push(Figure4Row {
                        series: Series::Mechanism(kind).label(),
                        alpha,
                        epsilon,
                        per_cell_epsilon: per_cell.epsilon,
                        stratum,
                        l1_ratio,
                    });
                }
            }
        }
    }
    rows
}

/// Run Figure 4 and write it as `figure4.{md,csv,json}` under `dir`.
/// Returns the markdown.
pub fn write(ctx: &ExperimentContext, trials: &TrialSpec, dir: &Path) -> io::Result<String> {
    write_pivoted(
        dir,
        "figure4",
        "Figure 4: L1 error ratio for the full (sex x education) marginal (vs SDL)",
        ("L1 ratio", "l1_ratio"),
        &run(ctx, trials),
        |r| Point::new(&r.series, r.alpha, r.epsilon, &r.stratum, r.l1_ratio),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::EvalScale;

    #[test]
    fn marginal_release_is_costlier_than_single_queries() {
        let ctx = ExperimentContext::with_seed(EvalScale::Small, 5);
        let trials = TrialSpec {
            trials: 3,
            base_seed: 41,
        };
        let f4 = run(&ctx, &trials);
        assert!(!f4.is_empty());
        // Per-cell budget is total/8.
        for r in &f4 {
            assert!((r.per_cell_epsilon - r.epsilon / 8.0).abs() < 1e-12);
        }
        // Finding 3: Smooth Laplace within a factor ~10 at eps >= 4 for
        // the smallest alpha. (Loose bound: small-scale data is noisy.)
        let sl = f4
            .iter()
            .find(|r| {
                r.series == "Smooth Laplace"
                    && r.alpha == 0.01
                    && r.epsilon == 8.0
                    && r.stratum == "overall"
            })
            .expect("smooth laplace point");
        assert!(sl.l1_ratio < 30.0, "ratio {}", sl.l1_ratio);

        // Compare with figure 3 at matched (mech, alpha, per-cell eps):
        // the figure-4 ratio must be at least as large (same mechanism,
        // same per-cell budget, identical workload) — they are in fact
        // equal by construction here; the *total* budget differs 8x.
        let f3 = crate::experiments::figure3::run(&ctx, &trials);
        let f3_point = f3
            .iter()
            .find(|r| {
                r.series == "Smooth Laplace"
                    && r.alpha == 0.01
                    && (r.epsilon - 1.0).abs() < 1e-9
                    && r.stratum == "overall"
            })
            .expect("figure 3 point");
        let f4_point = f4
            .iter()
            .find(|r| {
                r.series == "Smooth Laplace"
                    && r.alpha == 0.01
                    && (r.epsilon - 8.0).abs() < 1e-9
                    && r.stratum == "overall"
            })
            .expect("figure 4 point");
        // Same per-cell epsilon (1.0): ratios should agree closely.
        assert!(
            (f3_point.l1_ratio - f4_point.l1_ratio).abs() / f3_point.l1_ratio < 0.5,
            "f3 {} vs f4 {}",
            f3_point.l1_ratio,
            f4_point.l1_ratio
        );
    }
}
