//! Integration of the Section 5.2 attacks: they must succeed against the
//! SDL baseline and fail — quantifiably — against the formally private
//! mechanisms.
//!
//! Attack structure (Sec 5.2): the adversary knows the *true* count of one
//! worker-attribute cell of a singleton establishment (e.g. a payroll
//! clerk knows there are exactly k female college graduates). From the
//! published value of that cell they recover the establishment's
//! confidential distortion factor `f_w = published/known`, then divide any
//! other published cell by `f_w` to recover its true value — including the
//! total employment. This cancellation works because SDL reuses one
//! factor across all cells; it fails against the ER-EE mechanisms, whose
//! noise is fresh per cell.

use eree::prelude::*;
use sdl::attack::{establishment_of_singleton, singleton_cells, size_attack_with_known_cell};
use std::collections::BTreeMap;
use tabulate::{compute_marginal, Marginal, WorkerAttr};

/// Release `spec` through a single-use engine and return the published
/// cells (each test site is an independent guarantee statement).
fn engine_release(
    dataset: &Dataset,
    spec: &MarginalSpec,
    mechanism: MechanismKind,
    budget: PrivacyParams,
    seed: u64,
) -> BTreeMap<CellKey, f64> {
    let mut engine = ReleaseEngine::new(budget);
    let artifact = engine
        .execute(
            dataset,
            &ReleaseRequest::marginal(spec.clone())
                .mechanism(mechanism)
                .budget(budget)
                .seed(seed),
        )
        .unwrap();
    match artifact.payload {
        ArtifactPayload::Cells(cells) => cells,
        _ => unreachable!("marginal request yields cells"),
    }
}

struct AttackScenario {
    dataset: Dataset,
    /// Workload 1 truth (place × naics × ownership).
    w1_truth: Marginal,
    /// The victim's singleton Workload 1 cell.
    w1_key: CellKey,
    /// The victim establishment.
    victim: lodes::WorkplaceId,
    /// A Workload 3 cell (same workplace values + sex × education) whose
    /// true count the attacker knows, with count above the small-cell
    /// limit and below the establishment total.
    known_w3_key: CellKey,
    /// The known cell's true count.
    known_count: u64,
}

fn setup() -> AttackScenario {
    let dataset = Generator::new(GeneratorConfig::test_small(2020)).generate();
    let w1_truth = compute_marginal(&dataset, &workload1());
    let w3_truth = compute_marginal(&dataset, &workload3());

    // Find a singleton establishment with a known-cell candidate: a sex ×
    // education sub-cell with 3 <= count < total.
    for key in singleton_cells(&w1_truth) {
        let stats = w1_truth.cell(key).unwrap();
        if stats.count < 20 {
            continue;
        }
        let Some(victim) = establishment_of_singleton(&dataset, &w1_truth, key) else {
            continue;
        };
        let wp_values = w1_truth.schema().decode(key);
        // Scan the victim's worker cells in the W3 marginal.
        for (w3_key, w3_stats) in w3_truth.iter() {
            let values = w3_truth.schema().decode(w3_key);
            if values[..3] == wp_values[..] && w3_stats.count >= 3 && w3_stats.count < stats.count {
                return AttackScenario {
                    dataset,
                    w1_key: key,
                    victim,
                    known_w3_key: w3_key,
                    known_count: w3_stats.count,
                    w1_truth,
                };
            }
        }
    }
    panic!("no attack scenario found in test data");
}

#[test]
fn size_attack_succeeds_against_sdl_exactly() {
    let s = setup();
    let cfg = SdlConfig {
        round_output: false,
        ..SdlConfig::default()
    };
    let publisher = SdlPublisher::new(&s.dataset, cfg);
    let w1 = publisher.publish(&s.dataset, &workload1());
    let w3 = publisher.publish(&s.dataset, &workload3());

    // Recover f_w from the known worker cell, then unmask the total.
    let published_known = w3.published[&s.known_w3_key];
    let published_total = w1.published[&s.w1_key];
    let result = size_attack_with_known_cell(
        &s.dataset,
        s.victim,
        s.known_count as u32,
        published_known,
        published_total,
    );
    assert!(
        (result.recovered_size - result.true_size as f64).abs() < 1e-6,
        "SDL leaks the exact size: recovered {} vs true {}",
        result.recovered_size,
        result.true_size
    );
    // And the recovered factor matches the confidential assignment.
    let f_true = publisher.factors().factor(s.victim.0 as usize);
    assert!((result.recovered_factor - f_true).abs() < 1e-9);
}

#[test]
fn size_attack_fails_against_private_release() {
    let s = setup();
    let true_size = s.w1_truth.cell(s.w1_key).unwrap().count as f64;

    // Repeat the attack over many fresh private releases of both
    // marginals; the relative recovery error should be macroscopic
    // (comparable to the mechanisms' relative noise), not ~0 as with SDL.
    let mut rel_errors: Vec<f64> = (0..40u64)
        .map(|seed| {
            let w1 = engine_release(
                &s.dataset,
                &workload1(),
                MechanismKind::SmoothLaplace,
                PrivacyParams::approximate(0.1, 2.0, 0.05),
                seed,
            );
            let w3 = engine_release(
                &s.dataset,
                &workload3(),
                MechanismKind::SmoothLaplace,
                PrivacyParams::approximate(0.1, 16.0, 0.05),
                seed + 1000,
            );
            let published_known = w3[&s.known_w3_key];
            let published_total = w1[&s.w1_key];
            let result = size_attack_with_known_cell(
                &s.dataset,
                s.victim,
                s.known_count as u32,
                published_known,
                published_total,
            );
            (result.recovered_size - true_size).abs() / true_size
        })
        .collect();
    rel_errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = rel_errors[rel_errors.len() / 2];
    assert!(
        median > 0.01,
        "factor-cancellation attack must not recover the size: median relative error {median}"
    );
}

#[test]
fn shape_ratios_are_exact_under_sdl_but_noisy_under_private_release() {
    let s = setup();
    let cfg = SdlConfig {
        round_output: false,
        ..SdlConfig::default()
    };
    let publisher = SdlPublisher::new(&s.dataset, cfg);
    let w3_truth = compute_marginal(&s.dataset, &workload3());

    // Collect the victim's published worker cells above the small-cell
    // limit under SDL: ratios must equal true ratios exactly.
    let wp_values = s.w1_truth.schema().decode(s.w1_key);
    let sdl_w3 = publisher.publish(&s.dataset, &workload3());
    let mut sdl_cells: Vec<(f64, f64)> = Vec::new(); // (published, true)
    for (key, stats) in w3_truth.iter() {
        let values = w3_truth.schema().decode(key);
        if values[..3] == wp_values[..] && stats.count as f64 >= cfg.small_cell.limit {
            sdl_cells.push((sdl_w3.published[&key], stats.count as f64));
        }
    }
    if sdl_cells.len() >= 2 {
        let (p0, t0) = sdl_cells[0];
        for &(p, t) in &sdl_cells[1..] {
            assert!(
                (p / p0 - t / t0).abs() < 1e-9,
                "SDL shape ratios must be exact: {}/{} vs {}/{}",
                p,
                p0,
                t,
                t0
            );
        }
    }

    // Under the private release the same ratios are noisy.
    let private = engine_release(
        &s.dataset,
        &workload3(),
        MechanismKind::SmoothGamma,
        PrivacyParams::pure(0.1, 16.0),
        17,
    );
    let mut priv_cells: Vec<(f64, f64)> = Vec::new();
    for (key, stats) in w3_truth.iter() {
        let values = w3_truth.schema().decode(key);
        if values[..3] == wp_values[..] && stats.count >= 3 {
            priv_cells.push((private[&key], stats.count as f64));
        }
    }
    if priv_cells.len() >= 2 {
        let (p0, t0) = priv_cells[0];
        let max_ratio_err = priv_cells[1..]
            .iter()
            .map(|&(p, t)| (p / p0 - t / t0).abs())
            .fold(0.0, f64::max);
        assert!(
            max_ratio_err > 1e-4,
            "private release must not preserve exact shape ratios: {max_ratio_err}"
        );
    }
}

#[test]
fn zero_preservation_attack_channel_quantified() {
    let s = setup();
    let spec = workload3();
    let truth = compute_marginal(&s.dataset, &spec);
    let sdl = SdlPublisher::new(&s.dataset, SdlConfig::default()).publish(&s.dataset, &spec);
    // SDL publishes exactly the nonzero support: absent cells are certain
    // zeros — the re-identification channel of Sec 5.2.
    assert_eq!(sdl.published.len(), truth.num_cells());

    // The private release also publishes the nonzero support, but small
    // cells carry macroscopic noise: count-1 cells cannot be told from
    // count-2 cells (the +1 neighbor step) within the epsilon bound.
    let release = engine_release(
        &s.dataset,
        &spec,
        MechanismKind::SmoothGamma,
        PrivacyParams::pure(0.1, 16.0),
        4,
    );
    let mut small_cell_errors = Vec::new();
    for (key, stats) in truth.iter() {
        if stats.count <= 2 {
            small_cell_errors.push((release[&key] - stats.count as f64).abs());
        }
    }
    assert!(!small_cell_errors.is_empty());
    let mean: f64 = small_cell_errors.iter().sum::<f64>() / small_cell_errors.len() as f64;
    assert!(
        mean > 0.5,
        "small cells must carry macroscopic noise, got mean {mean}"
    );

    // Ranking-2 slice integrity under the weak regime: slicing the sex x
    // education marginal agrees with a filtered tabulation.
    let sliced = truth.slice_worker_attrs(&[(WorkerAttr::Sex, 1), (WorkerAttr::Education, 3)]);
    let filtered = compute_marginal_expr(&s.dataset, &workload1(), &ranking2_expr());
    for (key, stats) in filtered.iter() {
        assert_eq!(sliced.get(&key).copied(), Some(stats.count));
    }
}
