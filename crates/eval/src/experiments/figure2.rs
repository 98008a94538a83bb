//! Figure 2: Spearman rank correlation between the ordering of Workload 1
//! cells by our mechanisms' noisy counts and the ordering by the current
//! SDL system's published counts (Ranking 1), overall and by place-size
//! stratum, plus the Truncated Laplace series.

use super::{grid_params, plottable, release_cells, Series};
use crate::metrics::spearman;
use crate::report::{write_pivoted, Point};
use crate::runner::{ExperimentContext, TrialSpec};
use eree_core::MechanismKind;
use graphdp::TruncatedTabulation;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use tabulate::{stratify_by_place_size, CellKey};

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

fn correlation_for(
    sdl: &BTreeMap<CellKey, f64>,
    ours: &BTreeMap<CellKey, f64>,
    keys: &[CellKey],
) -> Option<f64> {
    let a: Vec<f64> = keys
        .iter()
        .map(|k| sdl.get(k).copied().unwrap_or(0.0))
        .collect();
    let b: Vec<f64> = keys
        .iter()
        .map(|k| ours.get(k).copied().unwrap_or(0.0))
        .collect();
    spearman(&a, &b)
}

/// Run the Figure 2 experiment.
pub fn run(ctx: &ExperimentContext, trials: &TrialSpec) -> Vec<Figure2Row> {
    let truth = &ctx.sdl_w1.truth;
    let strata = stratify_by_place_size(truth, &ctx.dataset);
    let all_keys: Vec<CellKey> = truth.iter().map(|(k, _)| k).collect();

    let mut panels: Vec<(String, Vec<CellKey>)> = vec![("overall".to_string(), all_keys)];
    for (class, keys) in &strata {
        if keys.len() >= 3 {
            panels.push((class.label().to_string(), keys.clone()));
        }
    }

    let mut rows = Vec::new();
    // Average per-trial Spearman correlations for one series point and
    // append the resulting rows.
    #[allow(clippy::too_many_arguments)]
    fn push_correlations<F>(
        series: &Series,
        alpha: f64,
        epsilon: f64,
        rows: &mut Vec<Figure2Row>,
        trials: &TrialSpec,
        sdl: &BTreeMap<CellKey, f64>,
        panels: &[(String, Vec<CellKey>)],
        mut release: F,
    ) where
        F: FnMut(u64) -> BTreeMap<CellKey, f64>,
    {
        let mut acc = vec![0.0; panels.len()];
        let mut counts = vec![0usize; panels.len()];
        for t in 0..trials.trials {
            let published = release(trials.seed(t));
            for (i, (_, keys)) in panels.iter().enumerate() {
                if let Some(rho) = correlation_for(sdl, &published, keys) {
                    acc[i] += rho;
                    counts[i] += 1;
                }
            }
        }
        for (i, (label, _)) in panels.iter().enumerate() {
            if counts[i] > 0 {
                rows.push(Figure2Row {
                    series: series.label(),
                    alpha,
                    epsilon,
                    stratum: label.clone(),
                    spearman: acc[i] / counts[i] as f64,
                });
            }
        }
    }

    for kind in MechanismKind::ALL {
        for &alpha in &ExperimentContext::ALPHA_GRID {
            for &epsilon in &ExperimentContext::EPSILON_GRID {
                if !plottable(kind, alpha, epsilon, ExperimentContext::DELTA) {
                    continue;
                }
                let params = grid_params(kind, alpha, epsilon, ExperimentContext::DELTA);
                push_correlations(
                    &Series::Mechanism(kind),
                    alpha,
                    epsilon,
                    &mut rows,
                    trials,
                    &ctx.sdl_w1.published,
                    &panels,
                    |seed| {
                        release_cells(truth, kind, &params, seed)
                            .expect("plottable() pre-checked validity")
                    },
                );
            }
        }
    }

    for &theta in &ExperimentContext::THETA_GRID {
        let tabulation = TruncatedTabulation::new(&ctx.dataset, &tabulate::workload1(), theta);
        for &epsilon in &ExperimentContext::EPSILON_GRID {
            push_correlations(
                &Series::TruncatedLaplace(theta),
                0.0,
                epsilon,
                &mut rows,
                trials,
                &ctx.sdl_w1.published,
                &panels,
                |seed| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    tabulation.release_counts(epsilon, &mut rng)
                },
            );
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
