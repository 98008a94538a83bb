//! Figure 5: Spearman rank correlation for Ranking 2 — ordering the
//! Workload 1 cells by their count of female workers holding a bachelor's
//! degree or higher, our mechanisms vs the current SDL system.
//!
//! The ranked quantity is a *filtered* count (establishment attributes plus
//! a worker predicate), so the formal guarantee is weak (α,ε)-ER-EE
//! privacy; each cell is a single query at the full per-query ε, and the
//! cells parallel-compose across establishments (Thm 7.4).

use super::{grid_params, plottable, release_cells, RankingBaseline, Series};
use crate::report::{write_pivoted, Point};
use crate::runner::{ExperimentContext, TrialSpec};
use eree_core::MechanismKind;
use sdl::{SdlConfig, SdlPublisher};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;
use tabulate::{ranking2_expr, workload1, Kernel};

/// One plotted point of Figure 5.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure5Row {
    /// Mechanism series label.
    pub series: String,
    /// α.
    pub alpha: f64,
    /// Per-query privacy-loss parameter ε.
    pub epsilon: f64,
    /// Stratum label; `"overall"` for the headline panel.
    pub stratum: String,
    /// Average Spearman correlation with the SDL ordering.
    pub spearman: f64,
}

/// Run the Figure 5 experiment.
pub fn run(ctx: &ExperimentContext, trials: &TrialSpec) -> Vec<Figure5Row> {
    // Truth: female × bachelor's+ counts per Workload 1 cell, tabulated
    // over the context's shared columnar index. The population is the
    // declarative `ranking2_expr()` filter, so this experiment exercises
    // the same filter definition a release pipeline would record in
    // provenance.
    let filter = ranking2_expr();
    let truth = ctx
        .index
        .marginal(&workload1(), Some(&filter), 1, Kernel::Auto);
    // SDL baseline on the same filtered population (sharing the index).
    let sdl = SdlPublisher::new(&ctx.dataset, SdlConfig::default()).publish_expr_on(
        &ctx.index,
        &ctx.dataset,
        &workload1(),
        &filter,
    );

    let baseline = RankingBaseline::new(&truth, &sdl.published, &ctx.dataset);

    let mut rows = Vec::new();
    for kind in MechanismKind::ALL {
        for &alpha in &ExperimentContext::ALPHA_GRID {
            for &epsilon in &ExperimentContext::EPSILON_GRID {
                if !plottable(kind, alpha, epsilon, ExperimentContext::DELTA) {
                    continue;
                }
                let params = grid_params(kind, alpha, epsilon, ExperimentContext::DELTA);
                let correlations = baseline.correlations(trials, |seed| {
                    release_cells(&truth, kind, &params, seed)
                        .expect("plottable() pre-checked validity")
                });
                for (stratum, spearman) in correlations {
                    rows.push(Figure5Row {
                        series: Series::Mechanism(kind).label(),
                        alpha,
                        epsilon,
                        stratum,
                        spearman,
                    });
                }
            }
        }
    }
    rows
}

/// Run Figure 5 and write it as `figure5.{md,csv,json}` under `dir`.
/// Returns the markdown.
pub fn write(ctx: &ExperimentContext, trials: &TrialSpec, dir: &Path) -> io::Result<String> {
    write_pivoted(
        dir,
        "figure5",
        "Figure 5: Spearman correlation, females with college degree ranking (vs SDL ordering)",
        ("rho", "spearman"),
        &run(ctx, trials),
        |r| Point::new(&r.series, r.alpha, r.epsilon, &r.stratum, r.spearman),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::EvalScale;

    #[test]
    fn female_college_ranking_improves_with_epsilon() {
        let ctx = ExperimentContext::with_seed(EvalScale::Small, 5);
        let trials = TrialSpec {
            trials: 3,
            base_seed: 51,
        };
        let rows = run(&ctx, &trials);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!((-1.0..=1.0).contains(&r.spearman), "{r:?}");
        }
        // Smooth Laplace approaches good correlation at eps = 4
        // (Finding 2: "only the Smooth Laplace algorithm approaches
        // relative error of 1 for eps at least 4" for the overall panel).
        let high = rows
            .iter()
            .find(|r| {
                r.series == "Smooth Laplace"
                    && r.alpha == 0.1
                    && r.epsilon == 4.0
                    && r.stratum == "overall"
            })
            .expect("smooth laplace eps=4");
        let low = rows.iter().find(|r| {
            r.series == "Smooth Laplace"
                && r.alpha == 0.1
                && r.epsilon == 0.25
                && r.stratum == "overall"
        });
        if let Some(low) = low {
            assert!(high.spearman > low.spearman);
        }
        assert!(high.spearman > 0.5, "rho {}", high.spearman);
    }
}
