//! Figure 3: average L1 error ratio for releasing *single* (sex ×
//! education) queries on the workplace marginal (Workload 2), compared to
//! the current SDL system.
//!
//! Each cell of the place × industry × ownership × sex × education
//! marginal is treated as an individually-released single count under weak
//! (α,ε)-ER-EE privacy — so the mechanism is instantiated at the full
//! per-query ε, with no sequential-composition multiplier.

use super::{grid_params, plottable, release_cells, L1Baseline, Series};
use crate::report::{write_pivoted, Point};
use crate::runner::{ExperimentContext, TrialSpec};
use eree_core::MechanismKind;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// One plotted point of Figure 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure3Row {
    /// Mechanism series label.
    pub series: String,
    /// α.
    pub alpha: f64,
    /// Per-query privacy-loss parameter ε.
    pub epsilon: f64,
    /// Stratum label; `"overall"` for the headline panel.
    pub stratum: String,
    /// Average single-query L1 error divided by the SDL system's.
    pub l1_ratio: f64,
}

/// Run the Figure 3 experiment.
pub fn run(ctx: &ExperimentContext, trials: &TrialSpec) -> Vec<Figure3Row> {
    let truth = &ctx.sdl_w3.truth;
    let baseline = L1Baseline::new(&ctx.sdl_w3, &ctx.dataset);
    let mut rows = Vec::new();
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
                for (stratum, l1_ratio) in ratios {
                    rows.push(Figure3Row {
                        series: Series::Mechanism(kind).label(),
                        alpha,
                        epsilon,
                        stratum,
                        l1_ratio,
                    });
                }
            }
        }
    }
    rows
}

/// Run Figure 3 and write it as `figure3.{md,csv,json}` under `dir`.
/// Returns the markdown.
pub fn write(ctx: &ExperimentContext, trials: &TrialSpec, dir: &Path) -> io::Result<String> {
    write_pivoted(
        dir,
        "figure3",
        "Figure 3: L1 error ratio for single (sex x education) queries (vs SDL)",
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
    fn single_queries_are_cheap_at_high_epsilon() {
        let ctx = ExperimentContext::with_seed(EvalScale::Small, 5);
        let trials = TrialSpec {
            trials: 3,
            base_seed: 31,
        };
        let rows = run(&ctx, &trials);
        assert!(!rows.is_empty());
        // Finding 2: at eps = 4, Smooth Laplace outperforms SDL for all
        // alpha values tested — ratio below ~1.
        for r in rows
            .iter()
            .filter(|r| r.series == "Smooth Laplace" && r.epsilon == 4.0 && r.stratum == "overall")
        {
            assert!(
                r.l1_ratio < 1.5,
                "Smooth Laplace at eps=4 should be near or below SDL: {r:?}"
            );
        }
        // Ratios fall with epsilon for Log-Laplace too.
        let ll: Vec<f64> = ExperimentContext::EPSILON_GRID
            .iter()
            .filter_map(|&eps| {
                rows.iter()
                    .find(|r| {
                        r.series == "Log-Laplace"
                            && r.alpha == 0.05
                            && (r.epsilon - eps).abs() < 1e-9
                            && r.stratum == "overall"
                    })
                    .map(|r| r.l1_ratio)
            })
            .collect();
        assert!(ll.len() >= 2);
        assert!(ll.first().unwrap() > ll.last().unwrap(), "{ll:?}");
    }
}
