//! Property tests for the declarative filter AST: serde round-trips
//! preserve structure and identity ([`FilterId`]), and the compiled form
//! agrees bit-for-bit with the reference record semantics — and therefore
//! with the brute-force reference evaluator run on the equivalent closure,
//! on random specs, in both index layouts, at any thread count and with
//! either kernel — on randomly generated expressions.

use eree::prelude::*;
use lodes::Worker;
use proptest::prelude::*;
use std::sync::OnceLock;
use tabulate::{Cmp, FilterExpr, Kernel, TabulationIndex};

fn dataset() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| Generator::new(GeneratorConfig::test_small(77)).generate())
}

/// SplitMix64 step: the deterministic source the expression generator
/// draws from (the vendored proptest has no recursive strategies, so
/// expressions are derived from one sampled seed).
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const CMPS: [Cmp; 6] = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge];

const WORKER_ATTRS: [(WorkerAttr, u32); 5] = [
    (WorkerAttr::Sex, 2),
    (WorkerAttr::Age, 8),
    (WorkerAttr::Race, 6),
    (WorkerAttr::Ethnicity, 2),
    (WorkerAttr::Education, 4),
];

// Cardinalities here are upper bounds loose enough to also generate
// out-of-range codes (which must simply never match).
const WORKPLACE_ATTRS: [(WorkplaceAttr, u32); 6] = [
    (WorkplaceAttr::State, 4),
    (WorkplaceAttr::County, 8),
    (WorkplaceAttr::Place, 40),
    (WorkplaceAttr::Block, 200),
    (WorkplaceAttr::Naics, 20),
    (WorkplaceAttr::Ownership, 4),
];

/// A random workplace leaf: a comparison when `cmp`, else a membership
/// set.
fn random_workplace_leaf(state: &mut u64, cmp: bool) -> FilterExpr {
    let (attr, card) = WORKPLACE_ATTRS[(next(state) % 6) as usize];
    if cmp {
        let cmp = CMPS[(next(state) % 6) as usize];
        FilterExpr::WorkplaceCmp(attr, cmp, next(state) as u32 % (card + 2))
    } else {
        let len = next(state) % 4;
        let values = (0..len).map(|_| next(state) as u32 % (card + 2)).collect();
        FilterExpr::WorkplaceIn(attr, values)
    }
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

/// A random marginal spec: 1–3 workplace attributes and 0–5 worker
/// attributes, so the worker scatter runs at every sub-domain width.
fn random_spec(state: &mut u64) -> MarginalSpec {
    let n_wp = 1 + (next(state) % 3) as usize;
    let wp = distinct_picks(state, &WORKPLACE_ATTRS.map(|(attr, _)| attr), n_wp);
    let n_wk = (next(state) % 6) as usize;
    let wk = distinct_picks(state, &WORKER_ATTRS.map(|(attr, _)| attr), n_wk);
    MarginalSpec::new(wp, wk)
}

/// A random expression of depth ≤ `depth`, biased toward leaves.
fn random_expr(state: &mut u64, depth: u32) -> FilterExpr {
    let choice = if depth == 0 {
        next(state) % 5
    } else {
        next(state) % 8
    };
    match choice {
        0 => FilterExpr::All,
        1 => {
            let (attr, card) = WORKER_ATTRS[(next(state) % 5) as usize];
            let cmp = CMPS[(next(state) % 6) as usize];
            FilterExpr::WorkerCmp(attr, cmp, next(state) as u32 % (card + 2))
        }
        2 => {
            let (attr, card) = WORKER_ATTRS[(next(state) % 5) as usize];
            let len = next(state) % 4;
            let values = (0..len).map(|_| next(state) as u32 % (card + 2)).collect();
            FilterExpr::WorkerIn(attr, values)
        }
        3 | 4 => random_workplace_leaf(state, choice == 3),
        5 | 6 => {
            let n = next(state) % 3 + 1;
            let ops = (0..n).map(|_| random_expr(state, depth - 1)).collect();
            if choice == 5 {
                FilterExpr::And(ops)
            } else {
                FilterExpr::Or(ops)
            }
        }
        _ => random_expr(state, depth - 1).not(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn serde_round_trip_preserves_structure_and_id(seed in 0u64..u64::MAX) {
        let mut state = seed;
        let expr = random_expr(&mut state, 3);
        let json = serde_json::to_string(&expr).unwrap();
        let back: FilterExpr = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &expr);
        prop_assert_eq!(back.id(), expr.id());
        // Pretty-printing round-trips identically too (the store persists
        // pretty JSON).
        let pretty = serde_json::to_string_pretty(&expr).unwrap();
        let back: FilterExpr = serde_json::from_str(&pretty).unwrap();
        prop_assert_eq!(back.id(), expr.id());
    }

    #[test]
    fn compiled_filter_agrees_with_record_semantics(seed in 0u64..u64::MAX) {
        let mut state = seed;
        let expr = random_expr(&mut state, 3);
        let d = dataset();
        let index = TabulationIndex::build(d);
        let compiled = expr.compile(&index);
        for worker in d.workers() {
            let e = d.employer_of(worker.id);
            let wp = d.workplace(e);
            prop_assert_eq!(
                compiled.matches(e.0 as usize, worker),
                expr.matches_record(worker, wp),
                "compiled and reference semantics disagree for {:?}",
                &expr
            );
        }
    }

    #[test]
    fn expr_marginal_equals_equivalent_closure_marginal(seed in 0u64..u64::MAX) {
        let mut state = seed;
        let spec = random_spec(&mut state);
        // Two workplace leaves beside a random expression, so a shard
        // compiles several establishment patterns.
        let leaves = random_workplace_leaf(&mut state, true)
            .or(random_workplace_leaf(&mut state, false));
        let expr = if next(&mut state).is_multiple_of(2) {
            random_expr(&mut state, 2).and(leaves)
        } else {
            random_expr(&mut state, 2).or(leaves)
        };
        let d = dataset();
        let closure = |w: &Worker| {
            let wp = d.workplace(d.employer_of(w.id));
            expr.matches_record(w, wp)
        };
        let via_closure = tabulate::compute_marginal_filtered_legacy(d, &spec, closure);
        for threshold in [usize::MAX, 1] {
            let index = DatasetIndex::build_with_threshold(d, threshold);
            for threads in [1, 3] {
                for kernel in [Kernel::Scalar, Kernel::Auto] {
                    let via_expr = index.marginal(&spec, Some(&expr), threads, kernel);
                    prop_assert_eq!(
                        &via_expr,
                        &via_closure,
                        "{} filtered by {:?}: threshold {}, {} threads, {:?}",
                        spec.name(),
                        &expr,
                        threshold,
                        threads,
                        kernel
                    );
                }
            }
        }
    }
}
