//! One module per paper exhibit.
//!
//! Each module's `run` computes the exhibit's rows, and its `write` runs,
//! renders and writes it under a results directory (`<name>.md`,
//! `<name>.csv`, `<name>.json`), returning the markdown. Both entry points
//! go through `write`: the exhibit binaries (every exhibit but `flows` has
//! one) and [`write_all`], which the `run_all` binary calls, so the two
//! write the same bytes.
//!
//! | Module | Paper exhibit | Workload |
//! |---|---|---|
//! | [`figure1`] | Fig. 1 + Finding 6 | W1 L1 error ratio vs SDL (incl. Truncated Laplace) |
//! | [`figure2`] | Fig. 2 | Ranking 1 Spearman correlation |
//! | [`figure3`] | Fig. 3 | W2 single-query L1 error ratio |
//! | [`figure4`] | Fig. 4 | W3 full-marginal L1 error ratio |
//! | [`figure5`] | Fig. 5 | Ranking 2 Spearman correlation |
//! | [`table1`]  | Table 1 | Requirement-satisfaction matrix |
//! | [`table2`]  | Table 2 | Minimum ε given (α, δ) |
//! | [`flows`]   | QWI flows | B/JC/JD relative L1 over a quarter pair |

pub mod figure1;
pub mod figure2;
pub mod figure3;
pub mod figure4;
pub mod figure5;
pub mod flows;
pub mod table1;
pub mod table2;

use crate::metrics::{l1_error, l1_error_over, spearman};
use crate::runner::{ExperimentContext, TrialSpec};
use eree_core::engine::{ArtifactPayload, FlowRelease, ReleaseEngine, ReleaseRequest, TruthSource};
use eree_core::{Ledger, MechanismKind, PrivacyParams};
use lodes::Dataset;
use sdl::SdlRelease;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use tabulate::{stratify_by_place_size, CellKey, FlowMarginal, Marginal};

/// Write every exhibit under `dir` through its module's `write`.
pub fn write_all(ctx: &ExperimentContext, trials: &TrialSpec, dir: &Path) -> io::Result<()> {
    figure1::write(ctx, trials, dir)?;
    figure2::write(ctx, trials, dir)?;
    figure3::write(ctx, trials, dir)?;
    figure4::write(ctx, trials, dir)?;
    figure5::write(ctx, trials, dir)?;
    flows::write(ctx, trials, dir)?;
    table1::write(dir)?;
    table2::write(dir)?;
    Ok(())
}

/// A mechanism series in a figure: the three ER-EE mechanisms, or a
/// Truncated Laplace baseline at a given θ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Series {
    /// One of the paper's mechanisms.
    Mechanism(MechanismKind),
    /// Node-DP Truncated Laplace with degree bound θ.
    TruncatedLaplace(u32),
}

impl Series {
    /// Display label.
    pub fn label(&self) -> String {
        match self {
            Series::Mechanism(kind) => kind.label().to_string(),
            Series::TruncatedLaplace(theta) => format!("Truncated Laplace (theta={theta})"),
        }
    }
}

/// The SDL baseline of an L1-error-ratio figure (Figures 1, 3 and 4): the
/// SDL release's total L1 error on every cell of its marginal and on each
/// place-size stratum, the denominators of the plotted ratios.
pub struct L1Baseline<'a> {
    truth: &'a Marginal,
    overall: f64,
    /// Per stratum: its label, its cells and the SDL release's L1 error
    /// on them.
    strata: Vec<(&'static str, Vec<CellKey>, f64)>,
}

impl<'a> L1Baseline<'a> {
    /// The baseline of `sdl`, stratified by the place sizes of `dataset`.
    pub fn new(sdl: &'a SdlRelease, dataset: &Dataset) -> Self {
        let truth = &sdl.truth;
        let strata = stratify_by_place_size(truth, dataset)
            .into_iter()
            .map(|(class, keys)| {
                let sdl_err = l1_error_over(truth, &sdl.published, &keys);
                (class.label(), keys, sdl_err)
            })
            .collect();
        Self {
            truth,
            overall: l1_error(truth, &sdl.published),
            strata,
        }
    }

    /// Average the total L1 error of `release` (called once per trial
    /// seed) overall and on each stratum, and divide each average by the
    /// SDL release's: `("overall", ratio)`, then `(stratum, ratio)` for
    /// every stratum on which the SDL release has any error.
    pub fn ratios<F>(&self, trials: &TrialSpec, mut release: F) -> Vec<(String, f64)>
    where
        F: FnMut(u64) -> BTreeMap<CellKey, f64>,
    {
        let mut acc_overall = 0.0;
        let mut acc_strata = vec![0.0; self.strata.len()];
        for t in 0..trials.trials {
            let published = release(trials.seed(t));
            acc_overall += l1_error(self.truth, &published);
            for (acc, (_, keys, _)) in acc_strata.iter_mut().zip(&self.strata) {
                *acc += l1_error_over(self.truth, &published, keys);
            }
        }
        let n = trials.trials as f64;
        let mut ratios = vec![("overall".to_string(), (acc_overall / n) / self.overall)];
        for (acc, (label, _, sdl_err)) in acc_strata.iter().zip(&self.strata) {
            if *sdl_err > 0.0 {
                ratios.push((label.to_string(), (acc / n) / sdl_err));
            }
        }
        ratios
    }
}

/// The SDL ordering a ranking figure (Figures 2 and 5) compares against:
/// the SDL release's published counts, and the panels they are ranked
/// over — every cell (`"overall"`), then each place-size stratum with at
/// least 3 cells.
pub struct RankingBaseline<'a> {
    sdl: &'a BTreeMap<CellKey, f64>,
    panels: Vec<(String, Vec<CellKey>)>,
}

impl<'a> RankingBaseline<'a> {
    /// The SDL ordering `sdl` of `truth`'s cells, stratified by the place
    /// sizes of `dataset`.
    pub fn new(truth: &Marginal, sdl: &'a BTreeMap<CellKey, f64>, dataset: &Dataset) -> Self {
        let mut panels = vec![(
            "overall".to_string(),
            truth.iter().map(|(k, _)| k).collect(),
        )];
        for (class, keys) in stratify_by_place_size(truth, dataset) {
            if keys.len() >= 3 {
                panels.push((class.label().to_string(), keys));
            }
        }
        Self { sdl, panels }
    }

    /// Average the Spearman correlation between `release` (called once per
    /// trial seed) and the SDL ordering on each panel: `(panel, mean ρ)`
    /// for every panel with at least one defined correlation.
    pub fn correlations<F>(&self, trials: &TrialSpec, mut release: F) -> Vec<(String, f64)>
    where
        F: FnMut(u64) -> BTreeMap<CellKey, f64>,
    {
        let mut acc = vec![0.0; self.panels.len()];
        let mut counts = vec![0usize; self.panels.len()];
        for t in 0..trials.trials {
            let published = release(trials.seed(t));
            for (i, (_, keys)) in self.panels.iter().enumerate() {
                let counts_of = |cells: &BTreeMap<CellKey, f64>| -> Vec<f64> {
                    keys.iter()
                        .map(|k| cells.get(k).copied().unwrap_or(0.0))
                        .collect()
                };
                if let Some(rho) = spearman(&counts_of(self.sdl), &counts_of(&published)) {
                    acc[i] += rho;
                    counts[i] += 1;
                }
            }
        }
        self.panels
            .iter()
            .zip(acc.iter().zip(&counts))
            .filter(|(_, (_, &count))| count > 0)
            .map(|((label, _), (acc, &count))| (label.clone(), acc / count as f64))
            .collect()
    }
}

/// Release every nonzero cell of a precomputed `truth` marginal with the
/// mechanism `kind` instantiated at *per-cell* parameters `params`.
///
/// This is the hot inner loop of the figures. Each call runs one
/// [`ReleaseRequest`] through a single-use [`ReleaseEngine`] whose ledger
/// holds exactly the request's induced total cost, so even the evaluation
/// sweeps exercise ledger-enforced composition accounting end to end; the
/// precomputed `truth` skips re-tabulating the marginal for every trial.
/// Returns `None` when the mechanism's validity constraint rejects the
/// parameters — the gaps in the paper's plots.
pub fn release_cells(
    truth: &Marginal,
    kind: MechanismKind,
    params: &PrivacyParams,
    seed: u64,
) -> Option<BTreeMap<CellKey, f64>> {
    let request = ReleaseRequest::marginal(truth.spec().clone())
        .mechanism(kind)
        .budget_per_cell(*params)
        .seed(seed);
    // Invalid per-cell parameters surface here, before any budget moves.
    let plan = request.plan().ok()?;
    let mut engine = ReleaseEngine::with_ledger(Ledger::new(PrivacyParams {
        alpha: params.alpha,
        epsilon: plan.cost.epsilon,
        delta: plan.cost.delta,
    }));
    let artifact = engine
        .execute_precomputed(truth, &request)
        .expect("exact ledger covers the request");
    match artifact.payload {
        ArtifactPayload::Cells(cells) => Some(cells),
        ArtifactPayload::Shapes(_) | ArtifactPayload::Flows(_) => {
            unreachable!("marginal request yields cells")
        }
    }
}

/// Release every cell of a precomputed `truth` flow marginal with the
/// mechanism `kind` at *per-cell* parameters `params` — the flow
/// counterpart of [`release_cells`], pricing B + JC + JD per cell on a
/// ledger holding exactly the request's induced cost. Returns `None` when
/// the mechanism's validity constraint rejects the parameters.
pub fn release_flow_cells(
    truth: &FlowMarginal,
    kind: MechanismKind,
    params: &PrivacyParams,
    seed: u64,
) -> Option<BTreeMap<CellKey, FlowRelease>> {
    let request = ReleaseRequest::flows(truth.spec().clone())
        .mechanism(kind)
        .budget_per_cell(*params)
        .seed(seed);
    let plan = request.plan().ok()?;
    let mut engine = ReleaseEngine::with_ledger(Ledger::new(PrivacyParams {
        alpha: params.alpha,
        epsilon: plan.cost.epsilon,
        delta: plan.cost.delta,
    }));
    let artifact = engine
        .execute(&request, TruthSource::Flows(truth))
        .expect("exact ledger covers the request");
    match artifact.payload {
        ArtifactPayload::Flows(cells) => Some(cells),
        ArtifactPayload::Cells(_) | ArtifactPayload::Shapes(_) => {
            unreachable!("flow request yields flows")
        }
    }
}

/// Whether a mechanism/parameter combination should be plotted, following
/// the paper's conventions: Smooth Gamma and Smooth Laplace are skipped
/// when their constraints reject (α, ε[, δ]); Log-Laplace is skipped when
/// its expectation is unbounded (λ ≥ 1, Lemma 8.2).
pub fn plottable(kind: MechanismKind, alpha: f64, epsilon: f64, delta: f64) -> bool {
    match kind {
        MechanismKind::LogLaplace => eree_core::definitions::log_laplace_bounded(alpha, epsilon),
        MechanismKind::SmoothGamma => eree_core::definitions::smooth_gamma_valid(alpha, epsilon),
        MechanismKind::SmoothLaplace => {
            eree_core::definitions::smooth_laplace_valid(alpha, epsilon, delta)
        }
    }
}

/// Parameters for one grid point, with δ applied only to Smooth Laplace.
pub fn grid_params(kind: MechanismKind, alpha: f64, epsilon: f64, delta: f64) -> PrivacyParams {
    match kind {
        MechanismKind::SmoothLaplace => PrivacyParams::approximate(alpha, epsilon, delta),
        _ => PrivacyParams::pure(alpha, epsilon),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{EvalScale, ExperimentContext};

    #[test]
    fn release_cells_respects_validity() {
        let ctx = ExperimentContext::with_seed(EvalScale::Small, 3);
        let truth = &ctx.sdl_w1.truth;
        // Valid: publishes all cells.
        let params = PrivacyParams::pure(0.1, 2.0);
        let rel = release_cells(truth, MechanismKind::SmoothGamma, &params, 1).unwrap();
        assert_eq!(rel.len(), truth.num_cells());
        // Invalid Smooth Gamma parameters.
        let bad = PrivacyParams::pure(0.3, 1.0);
        assert!(release_cells(truth, MechanismKind::SmoothGamma, &bad, 1).is_none());
    }

    #[test]
    fn plottable_matches_paper_conventions() {
        // Log-Laplace unbounded at eps=0.25, alpha=0.2.
        assert!(!plottable(MechanismKind::LogLaplace, 0.2, 0.25, 0.0));
        assert!(plottable(MechanismKind::LogLaplace, 0.2, 1.0, 0.0));
        // Smooth Laplace at delta=0.05 needs eps >= ~2 ln(20) ln(1.2) = 1.09
        // for alpha = 0.2.
        assert!(!plottable(MechanismKind::SmoothLaplace, 0.2, 1.0, 0.05));
        assert!(plottable(MechanismKind::SmoothLaplace, 0.2, 2.0, 0.05));
    }

    #[test]
    fn series_labels() {
        assert_eq!(
            Series::Mechanism(MechanismKind::LogLaplace).label(),
            "Log-Laplace"
        );
        assert_eq!(
            Series::TruncatedLaplace(50).label(),
            "Truncated Laplace (theta=50)"
        );
    }
}
