//! Property tests for the SIMD tabulation kernel: on random specs,
//! filters, seeds, thread counts, index layouts (one shard or one per
//! state), and dataset sizes — including datasets smaller than one SIMD
//! chunk, which exercise the scalar remainder path — the vectorized
//! establishment-key kernel must agree **bit-for-bit** with the scalar
//! kernel, for marginals and flows alike.
//!
//! On non-AVX2 hardware `Kernel::Auto` resolves to the scalar kernel and
//! these properties hold trivially.

use eree::prelude::*;
use lodes::{DatasetPanel, PanelConfig};
use proptest::prelude::*;
use tabulate::{Cmp, FilterExpr, Kernel};

/// SplitMix64 step: derives spec/filter choices from one sampled seed
/// (the vendored proptest has no recursive strategies).
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const WORKPLACE_ATTRS: [WorkplaceAttr; 6] = [
    WorkplaceAttr::State,
    WorkplaceAttr::County,
    WorkplaceAttr::Place,
    WorkplaceAttr::Block,
    WorkplaceAttr::Naics,
    WorkplaceAttr::Ownership,
];

const WORKER_ATTRS: [WorkerAttr; 5] = [
    WorkerAttr::Sex,
    WorkerAttr::Age,
    WorkerAttr::Race,
    WorkerAttr::Ethnicity,
    WorkerAttr::Education,
];

/// A random marginal spec: 1–3 workplace attributes (the columns the
/// SIMD establishment-key kernel reads) and 0–3 worker attributes (zero
/// covers the establishment-only path).
fn random_spec(state: &mut u64) -> MarginalSpec {
    let wp = random_workplace_attrs(state);
    let n_wk = (next(state) % 4) as usize;
    let wk = distinct_picks(state, &WORKER_ATTRS, n_wk);
    MarginalSpec::new(wp, wk)
}

/// 1–3 distinct workplace attributes (flow specs must be
/// establishment-level, so this doubles as the flow-spec generator).
fn random_workplace_attrs(state: &mut u64) -> Vec<WorkplaceAttr> {
    let n = 1 + (next(state) % 3) as usize;
    distinct_picks(state, &WORKPLACE_ATTRS, n)
}

/// Up to `n` draws from `pool` without replacement (specs reject
/// duplicate attributes).
fn distinct_picks<T: Copy + PartialEq>(state: &mut u64, pool: &[T], n: usize) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(n);
    for _ in 0..n {
        let pick = pool[(next(state) as usize) % pool.len()];
        if !out.contains(&pick) {
            out.push(pick);
        }
    }
    out
}

/// A random shallow filter expression over both record sides.
fn random_filter(state: &mut u64) -> FilterExpr {
    let leaf = |state: &mut u64| match next(state) % 3 {
        0 => FilterExpr::WorkerCmp(
            WORKER_ATTRS[(next(state) % 5) as usize],
            Cmp::Le,
            next(state) as u32 % 6,
        ),
        1 => FilterExpr::WorkplaceCmp(WorkplaceAttr::Naics, Cmp::Lt, next(state) as u32 % 20),
        _ => FilterExpr::WorkerIn(
            WORKER_ATTRS[(next(state) % 5) as usize],
            vec![next(state) as u32 % 4, next(state) as u32 % 8],
        ),
    };
    match next(state) % 3 {
        0 => leaf(state),
        1 => FilterExpr::And(vec![leaf(state), leaf(state)]),
        _ => FilterExpr::Or(vec![leaf(state), leaf(state).not()]),
    }
}

/// The job-count threshold that builds the drawn layout:
/// [`DatasetIndex::build_with_threshold`] picks the per-state layout at
/// threshold 1 (on any multi-state universe) and the one-shard layout at
/// `usize::MAX`.
fn layout_threshold(per_state: bool) -> usize {
    if per_state {
        1
    } else {
        usize::MAX
    }
}

/// A dataset sized by `size_class`: 0 ⇒ a single establishment (smaller
/// than one 4-lane SIMD chunk, so the whole tabulation runs through the
/// kernel's remainder path), 1 ⇒ a few establishments (straddles one
/// chunk), 2 ⇒ the standard small test universe (thousands of chunks
/// plus remainders of every phase).
fn config(seed: u64, size_class: u8) -> GeneratorConfig {
    match size_class {
        0 => GeneratorConfig {
            seed,
            states: 1,
            counties_per_state: 1,
            places_per_county: 1,
            blocks_per_place: 1,
            target_establishments: 1,
            ..GeneratorConfig::default()
        },
        1 => GeneratorConfig {
            seed,
            states: 2,
            counties_per_state: 2,
            places_per_county: 2,
            blocks_per_place: 2,
            target_establishments: 4,
            ..GeneratorConfig::default()
        },
        _ => GeneratorConfig::test_small(seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simd_marginals_are_bit_identical_to_scalar(
        seed in 0u64..u64::MAX,
        size_class in 0u8..3,
        threads in 1usize..4,
        per_state in any::<bool>(),
    ) {
        let mut state = seed;
        let spec = random_spec(&mut state);
        let d = Generator::new(config(next(&mut state), size_class)).generate();
        let index = DatasetIndex::build_with_threshold(&d, layout_threshold(per_state));

        let scalar = index.marginal(&spec, None, threads, Kernel::Scalar);
        let auto = index.marginal(&spec, None, threads, Kernel::Auto);
        prop_assert_eq!(&scalar, &auto, "unfiltered marginal diverged");

        let expr = random_filter(&mut state);
        let scalar_f = index.marginal(&spec, Some(&expr), threads, Kernel::Scalar);
        let auto_f = index.marginal(&spec, Some(&expr), threads, Kernel::Auto);
        prop_assert_eq!(&scalar_f, &auto_f, "filtered marginal diverged");
        prop_assert!(scalar_f.total() <= scalar.total());
    }

    #[test]
    fn simd_flows_are_bit_identical_to_scalar(
        seed in 0u64..u64::MAX,
        size_class in 0u8..3,
        threads in 1usize..4,
        per_state in any::<bool>(),
    ) {
        let mut state = seed;
        // Flows are establishment-level: workplace attributes only.
        let spec = MarginalSpec::new(random_workplace_attrs(&mut state), vec![]);
        let p = DatasetPanel::generate(
            &config(next(&mut state), size_class),
            &PanelConfig {
                quarters: 2,
                growth_sigma: 0.1,
                death_rate: 0.05,
                seed: next(&mut state),
            },
        );
        let before = DatasetIndex::build_with_threshold(p.quarter(0), layout_threshold(per_state));
        let after = before.build_like(p.quarter(1));

        let scalar = before.flows(&after, &spec, None, threads, Kernel::Scalar);
        let auto = before.flows(&after, &spec, None, threads, Kernel::Auto);
        prop_assert_eq!(&scalar, &auto, "unfiltered flows diverged");

        // A worker-side threshold filter, compiled against each quarter.
        let attr = WORKER_ATTRS[(next(&mut state) % 5) as usize];
        let cut = next(&mut state) as u32 % 6;
        let expr = FilterExpr::WorkerCmp(attr, Cmp::Le, cut);
        let scalar_f = before.flows(&after, &spec, Some(&expr), threads, Kernel::Scalar);
        let auto_f = before.flows(&after, &spec, Some(&expr), threads, Kernel::Auto);
        prop_assert_eq!(&scalar_f, &auto_f, "filtered flows diverged");
    }
}
