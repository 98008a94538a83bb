//! Figure 1: average L1 error ratio of releasing the Workload 1 marginal
//! (Census place × NAICS sector × ownership) compared to the current SDL
//! system — overall and stratified by place population — plus the
//! Truncated Laplace series of Finding 6.

use super::{grid_params, plottable, release_cells, L1Baseline, Series};
use crate::report::{write_pivoted, Point};
use crate::runner::{ExperimentContext, TrialSpec};
use eree_core::MechanismKind;
use graphdp::TruncatedTabulation;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// One plotted point of Figure 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure1Row {
    /// Mechanism series label.
    pub series: String,
    /// α (0 for the Truncated Laplace rows, which have no α).
    pub alpha: f64,
    /// Privacy-loss parameter ε.
    pub epsilon: f64,
    /// Stratum label; `"overall"` for the headline panel.
    pub stratum: String,
    /// Average (over trials) total L1 error of the mechanism divided by
    /// the SDL release's total L1 error on the same cells.
    pub l1_ratio: f64,
}

/// Run the Figure 1 experiment.
pub fn run(ctx: &ExperimentContext, trials: &TrialSpec) -> Vec<Figure1Row> {
    let truth = &ctx.sdl_w1.truth;
    let baseline = L1Baseline::new(&ctx.sdl_w1, &ctx.dataset);
    let mut rows = Vec::new();
    let mut push = |series: Series, alpha: f64, epsilon: f64, ratios: Vec<(String, f64)>| {
        for (stratum, l1_ratio) in ratios {
            rows.push(Figure1Row {
                series: series.label(),
                alpha,
                epsilon,
                stratum,
                l1_ratio,
            });
        }
    };

    // The three ER-EE mechanisms over the (α, ε) grid.
    for kind in MechanismKind::ALL {
        for &alpha in &ExperimentContext::ALPHA_GRID {
            for &epsilon in &ExperimentContext::EPSILON_GRID {
                if !plottable(kind, alpha, epsilon, ExperimentContext::DELTA) {
                    continue;
                }
                let params = grid_params(kind, alpha, epsilon, ExperimentContext::DELTA);
                let ratios = baseline.ratios(trials, |seed| {
                    release_cells(truth, kind, &params, seed)
                        .expect("plottable() pre-checked validity")
                });
                push(Series::Mechanism(kind), alpha, epsilon, ratios);
            }
        }
    }

    // Truncated Laplace (Finding 6): θ sweep, no α. The projection and
    // tabulation are precomputed once per θ; trials only redraw noise.
    for &theta in &ExperimentContext::THETA_GRID {
        let tabulation = TruncatedTabulation::new(&ctx.dataset, &tabulate::workload1(), theta);
        for &epsilon in &ExperimentContext::EPSILON_GRID {
            let ratios = baseline.ratios(trials, |seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                tabulation.release_counts(epsilon, &mut rng)
            });
            push(Series::TruncatedLaplace(theta), 0.0, epsilon, ratios);
        }
    }

    rows
}

/// Run Figure 1 and write it as `figure1.{md,csv,json}` under `dir`.
/// Returns the markdown.
pub fn write(ctx: &ExperimentContext, trials: &TrialSpec, dir: &Path) -> io::Result<String> {
    write_pivoted(
        dir,
        "figure1",
        "Figure 1: L1 error ratio, place x industry x ownership (vs SDL)",
        ("L1 ratio", "l1_ratio"),
        &run(ctx, trials),
        |r| Point::new(&r.series, r.alpha, r.epsilon, &r.stratum, r.l1_ratio),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::EvalScale;

    fn quick_rows() -> Vec<Figure1Row> {
        let ctx = ExperimentContext::with_seed(EvalScale::Small, 5);
        let trials = TrialSpec {
            trials: 3,
            base_seed: 11,
        };
        run(&ctx, &trials)
    }

    #[test]
    fn produces_expected_grid_shape() {
        let rows = quick_rows();
        // Every row has a positive finite ratio.
        for r in &rows {
            assert!(r.l1_ratio.is_finite() && r.l1_ratio > 0.0, "{r:?}");
        }
        // Overall rows exist for each mechanism at the baseline point.
        for label in ["Log-Laplace", "Smooth Laplace", "Smooth Gamma"] {
            assert!(
                rows.iter().any(|r| r.series == label
                    && r.alpha == 0.1
                    && r.epsilon == 2.0
                    && r.stratum == "overall"),
                "missing {label} baseline point"
            );
        }
        // Truncated Laplace series present.
        assert!(rows.iter().any(|r| r.series.starts_with("Truncated")));
    }

    #[test]
    fn smooth_laplace_beats_truncated_laplace() {
        // Finding 6's qualitative claim at the paper's baseline (eps=4).
        let rows = quick_rows();
        let ours = rows
            .iter()
            .filter(|r| {
                r.series == "Smooth Laplace"
                    && r.epsilon == 4.0
                    && r.alpha == 0.1
                    && r.stratum == "overall"
            })
            .map(|r| r.l1_ratio)
            .next()
            .expect("smooth laplace at eps=4");
        for theta_row in rows.iter().filter(|r| {
            r.series.starts_with("Truncated") && r.epsilon == 4.0 && r.stratum == "overall"
        }) {
            assert!(
                theta_row.l1_ratio > ours,
                "Truncated Laplace ({}) ratio {} should exceed Smooth Laplace {}",
                theta_row.series,
                theta_row.l1_ratio,
                ours
            );
        }
    }

    #[test]
    fn error_ratio_decreases_with_epsilon() {
        let rows = quick_rows();
        let series: Vec<f64> = ExperimentContext::EPSILON_GRID
            .iter()
            .filter_map(|&eps| {
                rows.iter()
                    .find(|r| {
                        r.series == "Smooth Laplace"
                            && r.alpha == 0.1
                            && (r.epsilon - eps).abs() < 1e-9
                            && r.stratum == "overall"
                    })
                    .map(|r| r.l1_ratio)
            })
            .collect();
        assert!(series.len() >= 2);
        assert!(
            series.first().unwrap() > series.last().unwrap(),
            "ratio should fall with epsilon: {series:?}"
        );
    }
}
