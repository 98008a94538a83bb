//! Longitudinal panels: quarterly snapshots of the same establishment
//! universe.
//!
//! LODES is an annual cross-section, but the surrounding QWI system
//! publishes *quarterly* workforce indicators from the same establishment
//! frame, and the SDL distortion factor `f_w` is deliberately
//! **time-invariant** ("dynamically consistent noise infusion",
//! Abowd et al. 2012) so that published growth rates are undistorted.
//! That design choice is precisely what the time-series variant of the
//! Sec 5.2 attacks exploits — the ratio of two published quarters of the
//! same cell reveals the establishment's true growth exactly.
//!
//! [`DatasetPanel`] keeps the geography and establishment frame fixed and
//! evolves employment by a multiplicative random walk with establishment
//! births and deaths, regenerating each quarter's workforce at the evolved
//! size.

use crate::generator::{Generator, GeneratorConfig};
use crate::schema::{Dataset, Job, Worker, WorkerId};
use crate::worker::{AgeGroup, Education, Ethnicity, Race, Sex};
use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::LogNormal;

/// Evolution parameters for a quarterly panel.
#[derive(Debug, Clone, Copy)]
pub struct PanelConfig {
    /// Number of quarters (snapshots) including the base quarter.
    pub quarters: usize,
    /// Log-scale standard deviation of the quarterly size random walk
    /// (≈ 0.05 gives ±5 % typical quarterly employment changes).
    pub growth_sigma: f64,
    /// Per-quarter probability an establishment closes (size drops to 0
    /// permanently).
    pub death_rate: f64,
    /// Seed for the evolution (independent of the base dataset's seed).
    pub seed: u64,
}

impl Default for PanelConfig {
    fn default() -> Self {
        Self {
            quarters: 4,
            growth_sigma: 0.05,
            death_rate: 0.005,
            seed: 0x9A7E1,
        }
    }
}

/// A sequence of quarterly snapshots over a fixed establishment frame.
///
/// Workplace IDs are stable across quarters (the invariant the
/// time-invariant SDL factor relies on); worker IDs are per-snapshot.
#[derive(Debug, Clone)]
pub struct DatasetPanel {
    snapshots: Vec<Dataset>,
}

impl DatasetPanel {
    /// Generate a panel: quarter 0 is the base generator output; later
    /// quarters evolve establishment sizes and regenerate workforces.
    pub fn generate(base: &GeneratorConfig, panel: &PanelConfig) -> Self {
        assert!(panel.quarters >= 1, "panel needs at least one quarter");
        assert!(
            panel.growth_sigma >= 0.0 && panel.growth_sigma < 1.0,
            "growth sigma must be in [0, 1)"
        );
        assert!(
            (0.0..1.0).contains(&panel.death_rate),
            "death rate must be in [0, 1)"
        );
        let base_dataset = Generator::new(base.clone()).generate();
        let mut rng = StdRng::seed_from_u64(panel.seed);

        let mut snapshots = Vec::with_capacity(panel.quarters);
        let mut sizes: Vec<u32> = base_dataset.establishment_sizes().to_vec();
        let mut alive: Vec<bool> = vec![true; sizes.len()];
        snapshots.push(base_dataset.clone());

        let growth = LogNormal::new(0.0, panel.growth_sigma.max(1e-9)).expect("valid sigma");
        for _q in 1..panel.quarters {
            for i in 0..sizes.len() {
                if !alive[i] {
                    sizes[i] = 0;
                    continue;
                }
                if rng.gen::<f64>() < panel.death_rate {
                    alive[i] = false;
                    sizes[i] = 0;
                    continue;
                }
                // Stochastic rounding so that small establishments still
                // move (1 x 1.03 deterministically rounds back to 1).
                let target = sizes[i] as f64 * growth.sample(&mut rng);
                let next = target.floor() as u32 + u32::from(rng.gen::<f64>() < target.fract());
                sizes[i] = next.max(1);
            }
            snapshots.push(regenerate_workforces(&base_dataset, &sizes, &mut rng));
        }
        Self { snapshots }
    }

    /// Number of quarters.
    pub fn quarters(&self) -> usize {
        self.snapshots.len()
    }

    /// Snapshot of quarter `q` (0-based).
    pub fn quarter(&self, q: usize) -> &Dataset {
        &self.snapshots[q]
    }

    /// All snapshots.
    pub fn snapshots(&self) -> &[Dataset] {
        &self.snapshots
    }

    /// The snapshots, quarter 0 first, moved out of the panel.
    pub fn into_snapshots(self) -> Vec<Dataset> {
        self.snapshots
    }

    /// True quarterly growth rate of one establishment between consecutive
    /// quarters, `size(q+1)/size(q)`; `None` if the establishment is dead
    /// in either quarter.
    pub fn growth_rate(&self, workplace: crate::schema::WorkplaceId, q: usize) -> Option<f64> {
        let a = self.snapshots[q].establishment_size(workplace);
        let b = self.snapshots[q + 1].establishment_size(workplace);
        (a > 0 && b > 0).then(|| b as f64 / a as f64)
    }
}

/// Rebuild workers/jobs with new per-establishment sizes, keeping the
/// geography and workplace frame of `base`. Worker attributes are drawn
/// from the national priors (shape persistence across quarters is not
/// modeled — the time-series experiments only use totals).
fn regenerate_workforces(base: &Dataset, sizes: &[u32], rng: &mut StdRng) -> Dataset {
    let sex_dist = WeightedIndex::new([0.52, 0.48]).expect("weights");
    let age_dist = WeightedIndex::new(AgeGroup::ALL.map(|a| a.weight())).expect("weights");
    let race_dist = WeightedIndex::new(Race::ALL.map(|r| r.weight())).expect("weights");
    let eth_dist = WeightedIndex::new(Ethnicity::ALL.map(|e| e.weight())).expect("weights");
    let edu_dist = WeightedIndex::new(Education::ALL.map(|e| e.weight())).expect("weights");

    let mut workers = Vec::new();
    let mut jobs = Vec::new();
    for wp in base.workplaces() {
        let size = sizes[wp.id.0 as usize];
        for _ in 0..size {
            let id = WorkerId(workers.len() as u32);
            workers.push(Worker {
                id,
                sex: Sex::ALL[sex_dist.sample(rng)],
                age: AgeGroup::ALL[age_dist.sample(rng)],
                race: Race::ALL[race_dist.sample(rng)],
                ethnicity: Ethnicity::ALL[eth_dist.sample(rng)],
                education: Education::ALL[edu_dist.sample(rng)],
            });
            jobs.push(Job {
                worker: id,
                workplace: wp.id,
            });
        }
    }
    Dataset::new(
        base.geography().clone(),
        base.workplaces().to_vec(),
        workers,
        jobs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::WorkplaceId;

    fn panel() -> DatasetPanel {
        DatasetPanel::generate(
            &GeneratorConfig::test_small(31),
            &PanelConfig {
                quarters: 4,
                growth_sigma: 0.05,
                death_rate: 0.01,
                seed: 5,
            },
        )
    }

    #[test]
    fn frame_is_stable_across_quarters() {
        let p = panel();
        assert_eq!(p.quarters(), 4);
        let n = p.quarter(0).num_workplaces();
        for q in 1..p.quarters() {
            assert_eq!(p.quarter(q).num_workplaces(), n, "frame must not change");
            // Workplace attributes identical.
            assert_eq!(
                p.quarter(q).workplace(WorkplaceId(0)).naics,
                p.quarter(0).workplace(WorkplaceId(0)).naics
            );
        }
    }

    #[test]
    fn sizes_evolve_smoothly() {
        let p = panel();
        let mut changed = 0usize;
        let mut total = 0usize;
        for i in 0..p.quarter(0).num_workplaces() {
            let wp = WorkplaceId(i as u32);
            if let Some(rate) = p.growth_rate(wp, 0) {
                total += 1;
                // Tiny establishments legitimately double (1 -> 2) under
                // stochastic rounding; check the range only where the law
                // of large numbers applies.
                if p.quarter(0).establishment_size(wp) >= 10 {
                    assert!(
                        (0.5..2.0).contains(&rate),
                        "quarterly growth {rate} out of plausible range"
                    );
                }
                if (rate - 1.0).abs() > 1e-9 {
                    changed += 1;
                }
            }
        }
        assert!(total > 100);
        assert!(changed > total / 4, "sizes should actually move");
    }

    #[test]
    fn deaths_are_permanent() {
        let p = DatasetPanel::generate(
            &GeneratorConfig::test_small(32),
            &PanelConfig {
                quarters: 6,
                growth_sigma: 0.02,
                death_rate: 0.15,
                seed: 6,
            },
        );
        let n = p.quarter(0).num_workplaces();
        let mut died = 0usize;
        for i in 0..n {
            let wp = WorkplaceId(i as u32);
            let mut dead_at = None;
            for q in 0..p.quarters() {
                let size = p.quarter(q).establishment_size(wp);
                if let Some(dq) = dead_at {
                    assert_eq!(size, 0, "establishment {i} resurrected after quarter {dq}");
                } else if size == 0 && q > 0 {
                    dead_at = Some(q);
                    died += 1;
                }
            }
        }
        assert!(died > 0, "with 15% quarterly deaths some must die");
    }

    #[test]
    fn panel_is_deterministic() {
        let a = panel();
        let b = panel();
        for q in 0..a.quarters() {
            assert_eq!(
                a.quarter(q).establishment_sizes(),
                b.quarter(q).establishment_sizes()
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one quarter")]
    fn rejects_empty_panel() {
        DatasetPanel::generate(
            &GeneratorConfig::test_small(1),
            &PanelConfig {
                quarters: 0,
                ..PanelConfig::default()
            },
        );
    }
}
