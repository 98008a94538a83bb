//! QWI job-flow release accuracy: relative L1 error of engine-released
//! B / JC / JD statistics over a two-quarter panel, across the
//! (mechanism, ε) grid.
//!
//! This is the flow counterpart of the level figures: every released
//! number goes end-to-end through
//! [`ReleaseRequest::flows`](eree_core::engine::ReleaseRequest::flows) and a
//! ledger-checked engine, pricing B + JC + JD per cell and deriving
//! E = B + JC − JD as free post-processing. The flow noise scale is
//! driven by the per-flow maximum establishment *contribution* (largest
//! single-establishment gain/loss), not the establishment's level size —
//! the reason flow releases stay accurate even where levels are
//! concentrated.

use super::{grid_params, plottable, release_flow_cells, Series};
use crate::report::{write_pivoted, Point};
use crate::runner::{ExperimentContext, TrialSpec};
use eree_core::MechanismKind;
use lodes::{DatasetPanel, PanelConfig};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;
use tabulate::{compute_flows, workload1};

/// One plotted point of the flows exhibit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowsRow {
    /// Mechanism series label.
    pub series: String,
    /// α of the release.
    pub alpha: f64,
    /// Per-cell privacy-loss parameter ε.
    pub epsilon: f64,
    /// Which flow statistic: `"beginning"`, `"job_creation"`, or
    /// `"job_destruction"`.
    pub statistic: String,
    /// Average (over trials) total L1 error of the released statistic,
    /// divided by the statistic's true total.
    pub rel_l1: f64,
}

/// The fixed α of the flows exhibit (the paper's headline α).
pub const ALPHA: f64 = 0.1;

/// The two-quarter panel the flows are tabulated over, derived from the
/// context's scale with the canonical data seed.
pub fn panel(ctx: &ExperimentContext) -> DatasetPanel {
    DatasetPanel::generate(
        &ctx.scale.generator_config(0xEEE5_2017),
        &PanelConfig {
            quarters: 2,
            growth_sigma: 0.08,
            death_rate: 0.02,
            seed: 0x0F10,
        },
    )
}

/// Run the flows experiment.
pub fn run(ctx: &ExperimentContext, trials: &TrialSpec) -> Vec<FlowsRow> {
    let panel = panel(ctx);
    let truth = compute_flows(panel.quarter(0), panel.quarter(1), &workload1());
    let totals = truth.totals();
    let denominators = [
        ("beginning", totals.beginning as f64),
        ("job_creation", totals.job_creation as f64),
        ("job_destruction", totals.job_destruction as f64),
    ];

    let mut rows = Vec::new();
    for kind in MechanismKind::ALL {
        for &epsilon in &ExperimentContext::EPSILON_GRID {
            if !plottable(kind, ALPHA, epsilon, ExperimentContext::DELTA) {
                continue;
            }
            let params = grid_params(kind, ALPHA, epsilon, ExperimentContext::DELTA);
            let mut acc = [0.0f64; 3];
            for t in 0..trials.trials {
                let released = release_flow_cells(&truth, kind, &params, trials.seed(t))
                    .expect("plottable() pre-checked validity");
                for (key, stats) in truth.iter() {
                    let cell = &released[&key];
                    acc[0] += (cell.beginning - stats.beginning as f64).abs();
                    acc[1] += (cell.job_creation - stats.job_creation as f64).abs();
                    acc[2] += (cell.job_destruction - stats.job_destruction as f64).abs();
                }
            }
            let n = trials.trials as f64;
            for (i, (statistic, denom)) in denominators.iter().enumerate() {
                if *denom > 0.0 {
                    rows.push(FlowsRow {
                        series: Series::Mechanism(kind).label(),
                        alpha: ALPHA,
                        epsilon,
                        statistic: statistic.to_string(),
                        rel_l1: (acc[i] / n) / denom,
                    });
                }
            }
        }
    }
    rows
}

/// Run the flows experiment and write it as `flows.{md,csv,json}` under `dir`.
/// Returns the markdown.
pub fn write(ctx: &ExperimentContext, trials: &TrialSpec, dir: &Path) -> io::Result<String> {
    write_pivoted(
        dir,
        "flows",
        "QWI flows: B/JC/JD relative L1 error (engine flow releases)",
        ("rel L1", "rel_l1"),
        &run(ctx, trials),
        |r| Point::new(&r.series, r.alpha, r.epsilon, &r.statistic, r.rel_l1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::EvalScale;

    #[test]
    fn produces_finite_rows_that_improve_with_epsilon() {
        let ctx = ExperimentContext::with_seed(EvalScale::Small, 5);
        let trials = TrialSpec {
            trials: 3,
            base_seed: 11,
        };
        let rows = run(&ctx, &trials);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.rel_l1.is_finite() && r.rel_l1 > 0.0, "{r:?}");
        }
        // All three statistics present for Log-Laplace at the baseline.
        for statistic in ["beginning", "job_creation", "job_destruction"] {
            assert!(
                rows.iter().any(|r| r.series == "Log-Laplace"
                    && r.epsilon == 2.0
                    && r.statistic == statistic),
                "missing {statistic} baseline point"
            );
        }
        // More budget, less error (Log-Laplace job creation).
        let jc = |eps: f64| {
            rows.iter()
                .find(|r| {
                    r.series == "Log-Laplace"
                        && (r.epsilon - eps).abs() < 1e-9
                        && r.statistic == "job_creation"
                })
                .map(|r| r.rel_l1)
                .expect("grid point")
        };
        assert!(
            jc(0.25) > jc(4.0),
            "relative error should fall with epsilon: {} vs {}",
            jc(0.25),
            jc(4.0)
        );
    }
}
