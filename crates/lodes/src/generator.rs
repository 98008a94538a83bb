//! Seeded synthetic ER-EE generator calibrated to the paper's aggregates.
//!
//! The paper's evaluation sample (Sec 10): a 2011 3-state LODES snapshot
//! with 10.9 M beginning-of-quarter jobs across ~527 k establishments —
//! mean ≈ 20.7 jobs per establishment — with employment "highly right
//! skewed" at the establishment level, and (per Sec 6) roughly 740–815
//! establishments above 1 000 employees (≈0.15 % of establishments).
//!
//! The generator reproduces those stylized facts with:
//!
//! * **Place populations** drawn from a Pareto distribution (many villages,
//!   few metros), covering all four strata used in the figures;
//! * **Establishment counts per place** proportional to population (plus a
//!   floor so small places host at least one establishment);
//! * **Establishment sizes** from a discretized log-normal whose `(μ, σ)`
//!   are sector- and ownership-shifted, yielding a long right tail;
//! * **Worker attributes** drawn from national priors *tilted per
//!   establishment* (each establishment gets its own attribute tilts), so
//!   establishment "shape" genuinely varies — required for the shape-privacy
//!   experiments and the SDL shape attack demo.

use crate::geo::{Block, BlockId, CountyId, Geography, Place, PlaceId, StateId};
use crate::naics::NaicsSector;
use crate::ownership::Ownership;
use crate::schema::{Dataset, Job, Worker, WorkerId, Workplace, WorkplaceId};
use crate::worker::{AgeGroup, Education, Ethnicity, Race, Sex};
use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{LogNormal, Pareto};

/// Configuration of the synthetic universe.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// RNG seed; every dataset is a pure function of the config.
    pub seed: u64,
    /// Number of states (the paper uses a 3-state sample).
    pub states: u16,
    /// Counties per state.
    pub counties_per_state: u16,
    /// Places per county.
    pub places_per_county: u16,
    /// Blocks per place.
    pub blocks_per_place: u16,
    /// Target number of establishments across the whole universe.
    pub target_establishments: usize,
    /// Log-normal `μ` for the establishment-size body. The default, together
    /// with `size_sigma`, yields mean size ≈ 20 jobs.
    pub size_mu: f64,
    /// Log-normal `σ` for the establishment-size body (controls skew).
    pub size_sigma: f64,
    /// Pareto shape for place populations (smaller ⇒ heavier metro tail).
    pub place_pop_shape: f64,
    /// Minimum place population scale.
    pub place_pop_scale: f64,
    /// Dirichlet-style concentration for per-establishment attribute tilts.
    /// Larger ⇒ establishments look more like the national prior; smaller ⇒
    /// more idiosyncratic shapes.
    pub shape_concentration: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            seed: 0xEEE5_2017,
            states: 3,
            counties_per_state: 8,
            places_per_county: 24,
            blocks_per_place: 4,
            target_establishments: 60_000,
            size_mu: 1.55,
            size_sigma: 1.45,
            place_pop_shape: 0.95,
            place_pop_scale: 40.0,
            shape_concentration: 8.0,
        }
    }
}

impl GeneratorConfig {
    /// A small configuration for fast unit/integration tests
    /// (~2 k establishments, ~40 k jobs).
    pub fn test_small(seed: u64) -> Self {
        Self {
            seed,
            states: 2,
            counties_per_state: 3,
            places_per_county: 8,
            blocks_per_place: 2,
            target_establishments: 2_000,
            ..Self::default()
        }
    }

    /// Full paper-scale configuration (~527 k establishments, ~10.9 M jobs).
    /// Heavy: only used when explicitly requested.
    pub fn paper_scale(seed: u64) -> Self {
        Self {
            seed,
            states: 3,
            counties_per_state: 30,
            places_per_county: 40,
            blocks_per_place: 6,
            target_establishments: 527_000,
            ..Self::default()
        }
    }

    /// National-scale configuration: a 51-state universe sized to hit
    /// `target_jobs` total jobs (mean establishment size ≈ 20, so the
    /// establishment target is `target_jobs / 20`). 10–100 M jobs is the
    /// QWI/QCEW production range; datasets this size should be **streamed**
    /// through [`Generator::for_each_establishment`] into a per-state
    /// index rather than materialized as one [`Dataset`].
    pub fn national(seed: u64, target_jobs: usize) -> Self {
        Self {
            seed,
            states: 51,
            counties_per_state: 30,
            places_per_county: 12,
            blocks_per_place: 4,
            target_establishments: (target_jobs / 20).max(1),
            ..Self::default()
        }
    }
}

/// The synthetic-data generator.
#[derive(Debug, Clone)]
pub struct Generator {
    config: GeneratorConfig,
}

impl Generator {
    /// Create a generator from a configuration.
    pub fn new(config: GeneratorConfig) -> Self {
        Self { config }
    }

    /// Convenience: default config with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        Self::new(GeneratorConfig {
            seed,
            ..GeneratorConfig::default()
        })
    }

    /// Generate the complete dataset.
    pub fn generate(&self) -> Dataset {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let geography = self.generate_geography(&mut rng);
        let workplaces = self.generate_workplaces(&geography, &mut rng);
        let (workers, jobs) = self.generate_workforces(&workplaces, &mut rng);
        Dataset::new(geography, workplaces, workers, jobs)
    }

    /// Stream the same universe [`generate`](Self::generate) would build,
    /// one establishment at a time, without materializing the worker or
    /// job tables. Returns the geography once the stream is exhausted.
    ///
    /// The callback receives each workplace with its complete workforce,
    /// in workplace-id order, drawn from the **same RNG stream** as
    /// `generate` — the streamed records are byte-identical to the
    /// materialized dataset's (same ids, same attributes). This is the
    /// national-scale path: at 100 M jobs the flat `Dataset` (workers +
    /// jobs + a counting-sort permutation) costs several GiB that a
    /// streaming index build never allocates; peak memory is one
    /// establishment's workforce plus whatever the consumer keeps.
    pub fn for_each_establishment<F>(&self, mut f: F) -> Geography
    where
        F: FnMut(&Workplace, &[Worker]),
    {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let geography = self.generate_geography(&mut rng);
        let workplaces = self.generate_workplaces(&geography, &mut rng);
        let mut buf: Vec<Worker> = Vec::new();
        let mut next_id = 0u32;
        for wp in &workplaces {
            self.establishment_workforce(wp, next_id, &mut rng, &mut buf);
            next_id += buf.len() as u32;
            f(wp, &buf);
        }
        geography
    }

    /// The geography this generator's universe uses — drawn from the same
    /// RNG prefix as [`generate`](Self::generate) and
    /// [`for_each_establishment`](Self::for_each_establishment), so it is
    /// identical to the geography either of them produces. Cheap relative
    /// to the establishment stream; use it to size a streaming consumer
    /// (e.g. a per-state index builder) before the stream starts.
    pub fn geography(&self) -> Geography {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.generate_geography(&mut rng)
    }

    fn generate_geography(&self, rng: &mut StdRng) -> Geography {
        let cfg = &self.config;
        let pop_dist = Pareto::new(cfg.place_pop_scale, cfg.place_pop_shape)
            .expect("place population Pareto parameters");

        let mut counties = Vec::new();
        let mut places = Vec::new();
        let mut blocks = Vec::new();
        for s in 0..cfg.states {
            for c in 0..cfg.counties_per_state {
                let county = CountyId(counties.len() as u16);
                counties.push(StateId(s));
                for p in 0..cfg.places_per_county {
                    let place_id = PlaceId(places.len() as u32);
                    // The first few places in each county are "anchors" that
                    // guarantee every population stratum of the paper's
                    // figures is populated at any generation scale; the rest
                    // follow the Pareto tail (capped at a NYC-scale 4M).
                    let population = match p {
                        0 => rng.gen_range(10..100),
                        1 => rng.gen_range(200..8_000),
                        2 => rng.gen_range(15_000..90_000),
                        3 if c == 0 => rng.gen_range(150_000..800_000),
                        _ => (pop_dist.sample(rng) as u64).min(4_000_000),
                    };
                    places.push(Place {
                        id: place_id,
                        county,
                        state: StateId(s),
                        population,
                    });
                    for _ in 0..cfg.blocks_per_place {
                        blocks.push(Block {
                            id: BlockId(blocks.len() as u32),
                            place: place_id,
                        });
                    }
                }
            }
        }
        Geography::new(cfg.states, counties, places, blocks)
    }

    fn generate_workplaces(&self, geography: &Geography, rng: &mut StdRng) -> Vec<Workplace> {
        let cfg = &self.config;
        // Establishments per place ∝ population, with a floor of 1.
        let total_pop: f64 = geography.places().map(|p| p.population as f64).sum();
        let naics_weights: Vec<f64> = NaicsSector::ALL
            .iter()
            .map(|s| s.establishment_weight())
            .collect();
        let naics_dist = WeightedIndex::new(&naics_weights).expect("naics weights");
        let own_weights: Vec<f64> = Ownership::ALL
            .iter()
            .map(|o| o.establishment_weight())
            .collect();
        let own_dist = WeightedIndex::new(&own_weights).expect("ownership weights");

        // One pass over the block table, grouped by place — a per-place
        // filter scan is O(places × blocks), which matters at national
        // scale (tens of thousands of each).
        let mut blocks_of_place: Vec<Vec<BlockId>> = vec![Vec::new(); geography.num_places()];
        for b in geography.blocks() {
            blocks_of_place[b.place.0 as usize].push(b.id);
        }

        let mut workplaces = Vec::with_capacity(cfg.target_establishments);
        for place in geography.places() {
            let share = place.population as f64 / total_pop;
            let expected = share * cfg.target_establishments as f64;
            // Randomized rounding keeps the total near the target without
            // biasing against small places.
            let n =
                expected.floor() as usize + usize::from(rng.gen::<f64>() < expected.fract()) + 1;
            let place_blocks = &blocks_of_place[place.id.0 as usize];
            for _ in 0..n {
                let id = WorkplaceId(workplaces.len() as u32);
                let block = place_blocks[rng.gen_range(0..place_blocks.len())];
                workplaces.push(Workplace {
                    id,
                    block,
                    place: place.id,
                    county: place.county,
                    state: place.state,
                    naics: NaicsSector::ALL[naics_dist.sample(rng)],
                    ownership: Ownership::ALL[own_dist.sample(rng)],
                });
            }
        }
        workplaces
    }

    fn generate_workforces(
        &self,
        workplaces: &[Workplace],
        rng: &mut StdRng,
    ) -> (Vec<Worker>, Vec<Job>) {
        let mut workers = Vec::new();
        let mut jobs = Vec::new();
        let mut buf: Vec<Worker> = Vec::new();

        for wp in workplaces {
            self.establishment_workforce(wp, workers.len() as u32, rng, &mut buf);
            for w in &buf {
                workers.push(*w);
                jobs.push(Job {
                    worker: w.id,
                    workplace: wp.id,
                });
            }
        }
        (workers, jobs)
    }

    /// Draw one establishment's workforce into `out` (cleared first),
    /// assigning worker ids `base_id..`. The single source of per-
    /// establishment randomness for both the materialized and streaming
    /// paths — they stay byte-identical because both call exactly this,
    /// in the same order, on the same RNG stream.
    fn establishment_workforce(
        &self,
        wp: &Workplace,
        base_id: u32,
        rng: &mut StdRng,
        out: &mut Vec<Worker>,
    ) {
        let cfg = &self.config;
        out.clear();

        // Establishment size: log-normal with sector/ownership-shifted μ.
        let mult = wp.naics.size_multiplier() * wp.ownership.size_multiplier();
        let mu = cfg.size_mu + mult.ln();
        let size_dist = LogNormal::new(mu, cfg.size_sigma).expect("log-normal params");
        let size = (size_dist.sample(rng).round() as u64).clamp(1, 40_000) as u32;

        // Per-establishment attribute tilts: perturb each prior weight by
        // a Gamma(k,1)-style multiplicative factor so shapes differ
        // across establishments (the larger `shape_concentration`, the
        // closer to the national prior).
        let sex_w = tilt(rng, cfg.shape_concentration, &[0.52, 0.48]);
        let age_w = tilt(
            rng,
            cfg.shape_concentration,
            &AgeGroup::ALL.map(|a| a.weight()),
        );
        let race_w = tilt(rng, cfg.shape_concentration, &Race::ALL.map(|r| r.weight()));
        let eth_w = tilt(
            rng,
            cfg.shape_concentration,
            &Ethnicity::ALL.map(|e| e.weight()),
        );
        let edu_w = tilt(
            rng,
            cfg.shape_concentration,
            &Education::ALL.map(|e| e.weight()),
        );
        let sex_dist = WeightedIndex::new(&sex_w).expect("sex weights");
        let age_dist = WeightedIndex::new(&age_w).expect("age weights");
        let race_dist = WeightedIndex::new(&race_w).expect("race weights");
        let eth_dist = WeightedIndex::new(&eth_w).expect("ethnicity weights");
        let edu_dist = WeightedIndex::new(&edu_w).expect("education weights");

        for i in 0..size {
            out.push(Worker {
                id: WorkerId(base_id + i),
                sex: Sex::ALL[sex_dist.sample(rng)],
                age: AgeGroup::ALL[age_dist.sample(rng)],
                race: Race::ALL[race_dist.sample(rng)],
                ethnicity: Ethnicity::ALL[eth_dist.sample(rng)],
                education: Education::ALL[edu_dist.sample(rng)],
            });
        }
    }
}

/// Multiply prior weights by independent positive random factors with mean 1
/// and variance `1/concentration` (a cheap Dirichlet-like tilt built from a
/// sum of uniforms; exact distribution is unimportant, only that tilts are
/// positive, mean-preserving, and controlled by `concentration`).
fn tilt<R: Rng + ?Sized>(rng: &mut R, concentration: f64, priors: &[f64]) -> Vec<f64> {
    let sd = (1.0 / concentration).sqrt();
    priors
        .iter()
        .map(|&p| {
            // Irwin–Hall(12) - 6 approximates a standard normal.
            let z: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
            p * (1.0 + sd * z).max(0.05)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Generator::new(GeneratorConfig::test_small(1)).generate();
        let b = Generator::new(GeneratorConfig::test_small(1)).generate();
        assert_eq!(a.num_jobs(), b.num_jobs());
        assert_eq!(a.num_workplaces(), b.num_workplaces());
        for (x, y) in a.establishment_sizes().iter().zip(b.establishment_sizes()) {
            assert_eq!(x, y);
        }
        // Different seed actually changes the data.
        let c = Generator::new(GeneratorConfig::test_small(2)).generate();
        assert_ne!(
            a.establishment_sizes(),
            c.establishment_sizes(),
            "different seeds must differ"
        );
    }

    #[test]
    fn streaming_generation_is_byte_identical_to_materialized() {
        let gen = Generator::new(GeneratorConfig::test_small(9));
        let d = gen.generate();
        let (offsets, order) = d.workers_by_employer();
        let mut e = 0usize;
        let geography = gen.for_each_establishment(|wp, workers| {
            assert_eq!(wp, &d.workplaces()[e]);
            let range = offsets[e] as usize..offsets[e + 1] as usize;
            assert_eq!(workers.len(), range.len());
            for (w, &id) in workers.iter().zip(&order[range]) {
                assert_eq!(w, d.worker(WorkerId(id)));
            }
            e += 1;
        });
        assert_eq!(e, d.num_workplaces());
        assert_eq!(geography.num_blocks(), d.geography().num_blocks());
    }

    #[test]
    fn national_config_targets_job_count() {
        let cfg = GeneratorConfig::national(1, 10_000_000);
        assert_eq!(cfg.states, 51);
        assert_eq!(cfg.target_establishments, 500_000);
    }

    #[test]
    fn establishment_count_near_target() {
        let d = Generator::new(GeneratorConfig::test_small(7)).generate();
        let n = d.num_workplaces() as f64;
        let target = 2_000.0;
        // The +1 floor per place adds at most places-many extras.
        let places = d.geography().num_places() as f64;
        assert!(n >= target * 0.8, "n={n}");
        assert!(n <= target * 1.2 + places, "n={n}");
    }

    #[test]
    fn sizes_are_right_skewed() {
        let d = Generator::new(GeneratorConfig::test_small(3)).generate();
        let sizes: Vec<f64> = d.establishment_sizes().iter().map(|&s| s as f64).collect();
        let n = sizes.len() as f64;
        let mean = sizes.iter().sum::<f64>() / n;
        let mut sorted = sizes.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        // Right skew: mean well above median.
        assert!(
            mean > 1.5 * median,
            "mean {mean} should exceed 1.5x median {median}"
        );
        // Mean establishment size should be near the paper's ~20.7.
        assert!(mean > 8.0 && mean < 45.0, "mean size {mean}");
        // There should exist a heavy tail.
        let max = sorted[sorted.len() - 1];
        assert!(max > 50.0 * median, "max {max} vs median {median}");
    }

    #[test]
    fn all_strata_are_populated() {
        use crate::geo::PlaceSizeClass;
        let d = Generator::new(GeneratorConfig::test_small(5)).generate();
        let mut seen = std::collections::BTreeSet::new();
        for p in d.geography().places() {
            seen.insert(p.size_class());
        }
        for class in PlaceSizeClass::ALL {
            assert!(seen.contains(&class), "missing stratum {class:?}");
        }
    }

    #[test]
    fn default_scale_has_large_establishments() {
        // Sec 6 of the paper: hundreds of establishments above 1000
        // employees out of 527k (~0.1-0.2%). Verify our tail at reduced
        // scale: among 60k establishments expect dozens above 1000.
        let d = Generator::new(GeneratorConfig {
            target_establishments: 20_000,
            ..GeneratorConfig::default()
        })
        .generate();
        let over_1000 = d
            .establishment_sizes()
            .iter()
            .filter(|&&s| s > 1000)
            .count();
        let frac = over_1000 as f64 / d.num_workplaces() as f64;
        assert!(
            frac > 0.0002 && frac < 0.02,
            "fraction above 1000 employees: {frac} ({over_1000})"
        );
    }

    #[test]
    fn shapes_vary_across_establishments() {
        use crate::histogram::DatasetHistograms;
        use crate::worker::Sex;
        let d = Generator::new(GeneratorConfig::test_small(11)).generate();
        let hists = DatasetHistograms::build(&d);
        // Female share should vary across large establishments.
        let mut shares = Vec::new();
        for (_, h) in hists.iter() {
            if h.total() >= 50 {
                let f = h.count_matching(|s, _, _, _, _| s == Sex::Female) as f64;
                shares.push(f / h.total() as f64);
            }
        }
        assert!(shares.len() > 10, "need enough large establishments");
        let mean = shares.iter().sum::<f64>() / shares.len() as f64;
        let var = shares.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / shares.len() as f64;
        assert!(var > 1e-4, "female share variance {var} too small");
    }
}
