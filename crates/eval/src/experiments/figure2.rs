//! Figure 2: Spearman rank correlation between the ordering of Workload 1
//! cells by our mechanisms' noisy counts and the ordering by the current
//! SDL system's published counts (Ranking 1), overall and by place-size
//! stratum, plus the Truncated Laplace series.

use super::{grid_params, plottable, release_cells, RankingBaseline, Series};
use crate::report::{write_pivoted, Point};
use crate::runner::{ExperimentContext, TrialSpec};
use eree_core::MechanismKind;
use graphdp::TruncatedTabulation;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// One plotted point of Figure 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure2Row {
    /// Mechanism series label.
    pub series: String,
    /// α (0 for Truncated Laplace rows).
    pub alpha: f64,
    /// Privacy-loss parameter ε.
    pub epsilon: f64,
    /// Stratum label; `"overall"` for the headline panel.
    pub stratum: String,
    /// Average (over trials) Spearman correlation with the SDL ordering.
    pub spearman: f64,
}

/// Run the Figure 2 experiment.
pub fn run(ctx: &ExperimentContext, trials: &TrialSpec) -> Vec<Figure2Row> {
    let truth = &ctx.sdl_w1.truth;
    let baseline = RankingBaseline::new(truth, &ctx.sdl_w1.published, &ctx.dataset);
    let mut rows = Vec::new();
    let mut push = |series: Series, alpha: f64, epsilon: f64, correlations: Vec<(String, f64)>| {
        for (stratum, spearman) in correlations {
            rows.push(Figure2Row {
                series: series.label(),
                alpha,
                epsilon,
                stratum,
                spearman,
            });
        }
    };

    for kind in MechanismKind::ALL {
        for &alpha in &ExperimentContext::ALPHA_GRID {
            for &epsilon in &ExperimentContext::EPSILON_GRID {
                if !plottable(kind, alpha, epsilon, ExperimentContext::DELTA) {
                    continue;
                }
                let params = grid_params(kind, alpha, epsilon, ExperimentContext::DELTA);
                let correlations = baseline.correlations(trials, |seed| {
                    release_cells(truth, kind, &params, seed)
                        .expect("plottable() pre-checked validity")
                });
                push(Series::Mechanism(kind), alpha, epsilon, correlations);
            }
        }
    }

    for &theta in &ExperimentContext::THETA_GRID {
        let tabulation = TruncatedTabulation::new(&ctx.dataset, &tabulate::workload1(), theta);
        for &epsilon in &ExperimentContext::EPSILON_GRID {
            let correlations = baseline.correlations(trials, |seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                tabulation.release_counts(epsilon, &mut rng)
            });
            push(Series::TruncatedLaplace(theta), 0.0, epsilon, correlations);
        }
    }

    rows
}

/// Run Figure 2 and write it as `figure2.{md,csv,json}` under `dir`.
/// Returns the markdown.
pub fn write(ctx: &ExperimentContext, trials: &TrialSpec, dir: &Path) -> io::Result<String> {
    write_pivoted(
        dir,
        "figure2",
        "Figure 2: Spearman correlation of employment-count ranking (vs SDL ordering)",
        ("rho", "spearman"),
        &run(ctx, trials),
        |r| Point::new(&r.series, r.alpha, r.epsilon, &r.stratum, r.spearman),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::EvalScale;

    fn quick_rows() -> Vec<Figure2Row> {
        let ctx = ExperimentContext::with_seed(EvalScale::Small, 5);
        let trials = TrialSpec {
            trials: 3,
            base_seed: 21,
        };
        run(&ctx, &trials)
    }

    #[test]
    fn correlations_are_valid_and_improve_with_epsilon() {
        let rows = quick_rows();
        for r in &rows {
            assert!(
                (-1.0..=1.0).contains(&r.spearman),
                "correlation out of range: {r:?}"
            );
        }
        // Smooth Laplace overall: eps=4 must beat eps=0.25 handily.
        let get = |eps: f64| {
            rows.iter()
                .find(|r| {
                    r.series == "Smooth Laplace"
                        && r.alpha == 0.1
                        && (r.epsilon - eps).abs() < 1e-9
                        && r.stratum == "overall"
                })
                .map(|r| r.spearman)
        };
        let low = get(0.25);
        let high = get(4.0).expect("eps=4 point");
        if let Some(low) = low {
            assert!(high > low, "rho(eps=4)={high} vs rho(eps=0.25)={low}");
        }
        // High-epsilon Smooth Laplace correlation approaches 1 (Finding 1).
        assert!(high > 0.8, "rho at eps=4: {high}");
    }

    #[test]
    fn truncated_laplace_ranks_poorly() {
        // Finding 6: correlation no better than ~0.7 for theta=2 even at
        // large epsilon.
        let rows = quick_rows();
        let tl2 = rows
            .iter()
            .filter(|r| r.series == "Truncated Laplace (theta=2)" && r.stratum == "overall")
            .map(|r| r.spearman)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            tl2 < 0.85,
            "theta=2 best correlation {tl2} should stay well below 1"
        );
    }
}
