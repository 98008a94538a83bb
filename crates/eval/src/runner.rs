//! Shared experiment context and trial orchestration.
//!
//! Every figure needs the same ingredients: a synthetic dataset, the SDL
//! baseline release, and repeated (20-trial, per the paper) mechanism
//! releases across the (mechanism, α, ε) grid. This module builds those
//! once and exposes deterministic per-trial seeds so any single number in
//! any figure can be regenerated in isolation.

use lodes::{Dataset, Generator, GeneratorConfig};
use sdl::{SdlConfig, SdlPublisher, SdlRelease};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use tabulate::{workload1, workload3, DatasetIndex};

/// Universe scale for experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalScale {
    /// ≈ 2 k establishments — smoke tests and CI.
    Small,
    /// ≈ 60 k establishments — the default for figure regeneration.
    Default,
    /// ≈ 527 k establishments / ≈ 10.9 M jobs — the paper's sample size.
    Paper,
}

impl EvalScale {
    /// The scale a value of `EREE_SCALE` names: `small`, `default` or
    /// `paper`, and `Default` when it is unset (`None`). Any other value
    /// is refused with a message naming it and the three accepted ones.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("default") => Ok(EvalScale::Default),
            Some("small") => Ok(EvalScale::Small),
            Some("paper") => Ok(EvalScale::Paper),
            Some(other) => Err(format!(
                "EREE_SCALE={other:?} is not a scale: use small, default or paper"
            )),
        }
    }

    /// Read from the `EREE_SCALE` environment variable (see
    /// [`parse`](Self::parse)). A value it refuses stops the process
    /// with that message and exit status 2.
    pub fn from_env() -> Self {
        let value = std::env::var_os("EREE_SCALE").map(|v| v.to_string_lossy().into_owned());
        Self::parse(value.as_deref()).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2)
        })
    }

    /// Generator configuration for this scale.
    pub fn generator_config(&self, seed: u64) -> GeneratorConfig {
        match self {
            EvalScale::Small => GeneratorConfig::test_small(seed),
            EvalScale::Default => GeneratorConfig {
                seed,
                ..GeneratorConfig::default()
            },
            EvalScale::Paper => GeneratorConfig::paper_scale(seed),
        }
    }
}

/// Trial plan: how many independent releases to average, and the base seed
/// from which per-trial seeds derive.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrialSpec {
    /// Number of independent trials (paper: 20).
    pub trials: usize,
    /// Base seed; trial `i` uses `base_seed + i`.
    pub base_seed: u64,
}

impl Default for TrialSpec {
    fn default() -> Self {
        Self {
            trials: 20,
            base_seed: 0xF160,
        }
    }
}

impl TrialSpec {
    /// The seed of trial `i`.
    pub fn seed(&self, trial: usize) -> u64 {
        self.base_seed.wrapping_add(trial as u64)
    }

    /// Average a per-trial statistic over all trials.
    pub fn average<F>(&self, mut f: F) -> f64
    where
        F: FnMut(u64) -> f64,
    {
        let total: f64 = (0..self.trials).map(|i| f(self.seed(i))).sum();
        total / self.trials as f64
    }
}

/// Everything the figures share: the dataset, the workload marginals'
/// SDL baseline releases, and the parameter grids.
pub struct ExperimentContext {
    /// The synthetic universe.
    pub dataset: Dataset,
    /// Shared columnar tabulation index of [`dataset`](Self::dataset),
    /// built once so every experiment's truth marginals reuse it.
    pub index: DatasetIndex,
    /// SDL release of Workload 1 (place × industry × ownership).
    pub sdl_w1: SdlRelease,
    /// SDL release of Workload 2/3 (… × sex × education).
    pub sdl_w3: SdlRelease,
    /// Scale this context was built at.
    pub scale: EvalScale,
}

impl ExperimentContext {
    /// Build the context at the given scale with the canonical data seed.
    pub fn new(scale: EvalScale) -> Self {
        Self::with_seed(scale, 0xEEE5_2017)
    }

    /// Build the context at the `EREE_SCALE` scale
    /// ([`EvalScale::from_env`]), logging its size to stderr under
    /// `label` — the setup every exhibit binary starts with.
    pub fn from_env(label: &str) -> Self {
        let scale = EvalScale::from_env();
        let start = Instant::now();
        eprintln!("{label}: building context at {scale:?} scale...");
        let ctx = Self::new(scale);
        eprintln!(
            "{label}: {} jobs / {} establishments ({:.1?})",
            ctx.dataset.num_jobs(),
            ctx.dataset.num_workplaces(),
            start.elapsed()
        );
        ctx
    }

    /// Build with an explicit data seed (exposed so tests can vary data).
    pub fn with_seed(scale: EvalScale, seed: u64) -> Self {
        let dataset = Generator::new(scale.generator_config(seed)).generate();
        let index = DatasetIndex::build_auto(&dataset);
        let publisher = SdlPublisher::new(&dataset, SdlConfig::default());
        let sdl_w1 = publisher.publish_on(&index, &dataset, &workload1());
        let sdl_w3 = publisher.publish_on(&index, &dataset, &workload3());
        Self {
            dataset,
            index,
            sdl_w1,
            sdl_w3,
            scale,
        }
    }

    /// The ε grid of Figures 1–3 and 5.
    pub const EPSILON_GRID: [f64; 6] = [0.25, 0.5, 0.67, 1.0, 2.0, 4.0];

    /// The extended ε grid of Figure 4.
    pub const EPSILON_GRID_WIDE: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 10.0, 16.0, 20.0];

    /// The α grid of all figures.
    pub const ALPHA_GRID: [f64; 5] = [0.01, 0.05, 0.1, 0.15, 0.2];

    /// The θ grid for the Truncated Laplace comparison (Finding 6).
    pub const THETA_GRID: [u32; 6] = [2, 20, 50, 100, 200, 500];

    /// δ used for Smooth Laplace throughout the figures (the paper reports
    /// the δ = 0.05 feasibility frontier and notes smaller δ just removes
    /// (α, ε) points).
    pub const DELTA: f64 = 0.05;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_are_distinct_and_deterministic() {
        let spec = TrialSpec {
            trials: 5,
            base_seed: 100,
        };
        let seeds: Vec<u64> = (0..spec.trials).map(|i| spec.seed(i)).collect();
        assert_eq!(seeds, vec![100, 101, 102, 103, 104]);
        let avg = spec.average(|s| s as f64);
        assert!((avg - 102.0).abs() < 1e-12);
    }

    #[test]
    fn small_context_builds_consistently() {
        let ctx = ExperimentContext::with_seed(EvalScale::Small, 7);
        assert!(ctx.dataset.num_jobs() > 10_000);
        assert_eq!(ctx.sdl_w1.published.len(), ctx.sdl_w1.truth.num_cells());
        assert!(ctx.sdl_w3.truth.num_cells() > ctx.sdl_w1.truth.num_cells());
        // SDL error is positive but small relative to total jobs.
        let err = ctx.sdl_w1.l1_error();
        assert!(err > 0.0);
        assert!(err < 0.2 * ctx.dataset.num_jobs() as f64);
    }

    #[test]
    fn scale_from_env_defaults() {
        // Not setting the variable in tests: default expected.
        std::env::remove_var("EREE_SCALE");
        assert_eq!(EvalScale::from_env(), EvalScale::Default);
    }

    #[test]
    fn only_the_three_scale_names_are_accepted() {
        assert_eq!(EvalScale::parse(None), Ok(EvalScale::Default));
        assert_eq!(EvalScale::parse(Some("small")), Ok(EvalScale::Small));
        assert_eq!(EvalScale::parse(Some("default")), Ok(EvalScale::Default));
        assert_eq!(EvalScale::parse(Some("paper")), Ok(EvalScale::Paper));
        for value in ["Small", "SMALL", "", "tiny", "paper "] {
            let refused = EvalScale::parse(Some(value)).unwrap_err();
            assert!(refused.contains(&format!("{value:?}")), "{refused}");
            assert!(refused.contains("small, default or paper"), "{refused}");
        }
    }
}
