//! What the benchmark submits: seeded op sequences over the paper's
//! Workload 3 spec, and the percentile rule the report follows.
//!
//! Everything here is a pure function of the workload seed. The service
//! only ever receives the submissions these sequences describe.

use eree_core::definitions::PrivacyParams;
use eree_core::engine::RequestKind;
use eree_core::mechanisms::MechanismKind;
use eree_service::ReleaseSubmission;
use lodes::{AgeGroup, Race};
use tabulate::{FilterExpr, WorkerAttr};

/// α of every budget in the run: the season budgets, the agency cap and
/// the per-cell release budget must agree on it.
pub const ALPHA: f64 = 0.1;
/// Per-cell ε of every release. Per-cell budgets keep Log-Laplace output
/// finite; a total budget spread over Workload 3's worker cells does not.
pub const CELL_EPSILON: f64 = 1.0;
/// Releases pre-populated for `restart`, half per season.
pub const PREPOPULATED: usize = 64;
/// The two seasons, one per client.
pub const SEASONS: [&str; 2] = ["s0", "s1"];

/// A small seeded generator (splitmix64). The benchmark must not depend
/// on a crate's RNG stream staying stable across versions.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A worker-attribute filter: a set of age groups (bit `i` selects
/// `AgeGroup::ALL[i]`) and a set of races (bit `i` selects `Race::ALL[i]`).
/// Neither attribute is in the Workload 3 spec, so every release still
/// scans every job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Filter {
    /// Age-group bit set, never zero.
    pub ages: u8,
    /// Race bit set, never zero.
    pub races: u8,
}

/// Workforce shares of the age groups and races, as the generator's
/// priors set them.
const AGE_SHARE: [f64; AgeGroup::COUNT] = [0.03, 0.06, 0.08, 0.23, 0.22, 0.21, 0.13, 0.04];
const RACE_SHARE: [f64; Race::COUNT] = [0.72, 0.13, 0.01, 0.09, 0.01, 0.04];

/// The share of the workforce every filter selects. Artifact size, and
/// with it the cost of every layer after tabulation, follows the share a
/// filter selects; one narrow band keeps a run's cost from hinging on
/// which filters its seed happens to draw.
pub const SELECTIVITY: std::ops::Range<f64> = 0.35..0.45;

impl Filter {
    /// Expected share of the workforce the filter selects.
    pub fn share(&self) -> f64 {
        let pick = |bits: u8, shares: &[f64]| -> f64 {
            (0..shares.len())
                .filter(|i| bits & (1 << i) != 0)
                .map(|i| shares[i])
                .sum()
        };
        pick(self.ages, &AGE_SHARE) * pick(self.races, &RACE_SHARE)
    }

    /// The filter as the service's declarative expression.
    pub fn expr(&self) -> FilterExpr {
        let ages = AgeGroup::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| self.ages & (1 << i) != 0)
            .map(|(_, &age)| age);
        let races = (0..Race::COUNT as u32)
            .filter(|i| self.races & (1 << i) != 0)
            .collect();
        FilterExpr::age_in(ages).and(FilterExpr::WorkerIn(WorkerAttr::Race, races))
    }
}

/// Every filter in the [`SELECTIVITY`] band, in a fixed order.
pub fn filters() -> Vec<Filter> {
    (1..1u16 << AgeGroup::COUNT)
        .flat_map(|ages| {
            (1..1u16 << Race::COUNT).map(move |races| Filter {
                ages: ages as u8,
                races: races as u8,
            })
        })
        .filter(|f| SELECTIVITY.contains(&f.share()))
        .collect()
}

/// One release submission of the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Release {
    /// Its worker filter.
    pub filter: Filter,
    /// Log-Laplace or Smooth Gamma.
    pub mechanism: MechanismKind,
    /// Noise seed (kept below 2^31 so it survives any JSON number path).
    pub seed: u64,
}

impl Release {
    /// The wire body: Workload 3, per-cell (α, ε), integerized.
    pub fn submission(&self) -> ReleaseSubmission {
        ReleaseSubmission {
            kind: RequestKind::Marginal,
            spec: tabulate::workload3(),
            mechanism: self.mechanism,
            budget: PrivacyParams::pure(ALPHA, CELL_EPSILON),
            budget_is_per_cell: true,
            filter: Some(self.filter.expr()),
            integerize: true,
            seed: self.seed,
            description: None,
        }
    }

    /// The same (spec, filter) under a different noise seed.
    pub fn reseeded(&self, seed: u64) -> Release {
        Release {
            seed,
            ..self.clone()
        }
    }
}

/// The `publish` sequence: every filter of [`filters`] exactly once, in
/// seeded order.
/// Position `i` belongs to client `i % 2` (season `SEASONS[i % 2]`), and
/// each client alternates Log-Laplace and Smooth Gamma. Set-up and
/// pre-population draw from its front, so `restart` keys its traffic on
/// releases this sequence defines.
pub fn publish_sequence(seed: u64) -> Vec<Release> {
    let mut rng = Rng::new(seed, 1);
    let mut filters = filters();
    rng.shuffle(&mut filters);
    filters
        .into_iter()
        .enumerate()
        .map(|(i, filter)| Release {
            filter,
            mechanism: if (i / 2) % 2 == 0 {
                MechanismKind::LogLaplace
            } else {
                MechanismKind::SmoothGamma
            },
            seed: rng.next_u64() >> 33,
        })
        .collect()
}

/// Key popularity for `restart`: a seeded permutation of the
/// pre-populated keys weighted by a Zipf(1) law, so a few keys take most
/// of the traffic.
#[derive(Debug, Clone)]
pub struct Popularity {
    ranked: Vec<usize>,
    cumulative: Vec<f64>,
}

impl Popularity {
    /// The popularity law of `seed` over `keys` keys.
    pub fn new(seed: u64, keys: usize) -> Self {
        let mut rng = Rng::new(seed, 2);
        let mut ranked: Vec<usize> = (0..keys).collect();
        rng.shuffle(&mut ranked);
        let mut total = 0.0;
        let cumulative = (1..=keys)
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        Self { ranked, cumulative }
    }

    /// Draw one key.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("at least one key");
        let target = rng.unit() * total;
        let rank = self.cumulative.partition_point(|&c| c <= target);
        self.ranked[rank.min(self.ranked.len() - 1)]
    }
}

/// One `restart` cycle: which pre-populated release to read first, and
/// which one to re-release under a fresh seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Cycle {
    /// Pre-populated release read right after start.
    pub first_get: usize,
    /// Pre-populated release whose (spec, filter) the first release reuses.
    pub reuse: usize,
    /// The first release after start.
    pub release: Release,
}

/// The `restart` sequence of `len` cycles.
pub fn restart_sequence(seed: u64, prepopulated: &[Release], len: usize) -> Vec<Cycle> {
    let popularity = Popularity::new(seed, prepopulated.len());
    let mut rng = Rng::new(seed, 3);
    (0..len)
        .map(|_| {
            let first_get = popularity.draw(&mut rng);
            let reuse = popularity.draw(&mut rng);
            // The high bit keeps the new seed apart from every
            // pre-populated one (those stay below 2^31).
            let release = prepopulated[reuse].reseeded((1 << 31) | (rng.next_u64() >> 34));
            Cycle {
                first_get,
                reuse,
                release,
            }
        })
        .collect()
}

/// Whether the `q`-quantile of `n` samples leaves at least ten samples
/// beyond it, under the nearest-rank definition of [`quantile`].
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= 10
}

/// The highest of p50, p90, p99 and p99.9 that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| supports(n, q))
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `q`-quantile of `samples` (need not be sorted); `None`
/// when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(0, 0.5));
        assert_eq!(highest_supported(10), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(99), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), Some(50.0));
        assert_eq!(quantile(&samples, 0.9), Some(90.0));
        assert_eq!(quantile(&[3.0], 0.9), Some(3.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_filters() {
        assert_eq!(publish_sequence(7), publish_sequence(7));
        let a: Vec<Filter> = publish_sequence(7).iter().map(|r| r.filter).collect();
        let b: Vec<Filter> = publish_sequence(8).iter().map(|r| r.filter).collect();
        assert_ne!(a[..PREPOPULATED], b[..PREPOPULATED]);
        let prepopulated = &publish_sequence(7)[..PREPOPULATED];
        assert_eq!(
            restart_sequence(7, prepopulated, 50),
            restart_sequence(7, prepopulated, 50)
        );
        assert_ne!(
            restart_sequence(7, prepopulated, 50),
            restart_sequence(8, prepopulated, 50)
        );
    }

    #[test]
    fn publish_never_repeats_a_spec_filter_pair() {
        let sequence = publish_sequence(11);
        assert_eq!(sequence.len(), filters().len());
        assert!(sequence.len() > 1000, "{} filters", sequence.len());
        let distinct: BTreeSet<Filter> = sequence.iter().map(|r| r.filter).collect();
        assert_eq!(distinct.len(), sequence.len());
        // Every release uses the one spec, so distinct filters mean
        // distinct (spec, filter) pairs and distinct cache keys.
        let spec = tabulate::workload3();
        assert!(sequence.iter().all(|r| r.submission().spec == spec));
        // Each client alternates its two mechanisms.
        for client in 0..2 {
            let mechanisms: Vec<MechanismKind> = sequence
                .iter()
                .skip(client)
                .step_by(2)
                .take(4)
                .map(|r| r.mechanism)
                .collect();
            assert_eq!(
                mechanisms,
                [
                    MechanismKind::LogLaplace,
                    MechanismKind::SmoothGamma,
                    MechanismKind::LogLaplace,
                    MechanismKind::SmoothGamma
                ]
            );
        }
    }

    #[test]
    fn restart_only_references_prepopulated_keys() {
        let sequence = publish_sequence(3);
        let prepopulated = &sequence[..PREPOPULATED];
        for cycle in restart_sequence(3, prepopulated, 200) {
            assert!(cycle.first_get < PREPOPULATED && cycle.reuse < PREPOPULATED);
            let reused = &prepopulated[cycle.reuse];
            assert_eq!(cycle.release.filter, reused.filter);
            assert_eq!(cycle.release.mechanism, reused.mechanism);
            assert!(prepopulated.iter().all(|r| r.seed != cycle.release.seed));
        }
    }

    #[test]
    fn popularity_is_skewed() {
        let popularity = Popularity::new(5, PREPOPULATED);
        let mut rng = Rng::new(5, 99);
        let mut counts = [0usize; PREPOPULATED];
        for _ in 0..20_000 {
            counts[popularity.draw(&mut rng)] += 1;
        }
        counts.sort_unstable();
        let top = counts[PREPOPULATED - 1];
        let bottom = counts[0];
        assert!(top > 20 * bottom.max(1), "top {top} vs bottom {bottom}");
    }

    #[test]
    fn filters_select_one_band_of_the_workforce() {
        for f in filters() {
            assert!(SELECTIVITY.contains(&f.share()), "{f:?}");
            assert!(f.ages != 0 && f.races != 0);
        }
        let f = Filter {
            ages: 0b0111_1000,
            races: 0b11,
        };
        assert_eq!(f.expr(), f.expr());
        assert_ne!(
            f.expr(),
            Filter {
                ages: 0b0111_1000,
                races: 0b1
            }
            .expr()
        );
        assert_ne!(
            f.expr(),
            Filter {
                ages: 0b0111_0000,
                races: 0b11
            }
            .expr()
        );
    }
}
