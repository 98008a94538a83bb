//! End-to-end integration: generate → tabulate → release → evaluate,
//! across crates, through the ledger-enforced `ReleaseEngine`.

use eree::prelude::*;
use eree_core::neighbors::NeighborKind;

fn dataset() -> Dataset {
    Generator::new(GeneratorConfig::test_small(1001)).generate()
}

#[test]
fn full_pipeline_all_mechanisms_workload1() {
    let d = dataset();
    let spec = workload1();
    let truth = compute_marginal(&d, &spec);
    // One engine batch releases all three mechanisms under a shared ledger.
    let mut engine = ReleaseEngine::new(PrivacyParams::approximate(0.1, 6.0, 0.05));
    let batch = vec![
        ReleaseRequest::marginal(spec.clone())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .seed(5),
        ReleaseRequest::marginal(spec.clone())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .seed(5),
        ReleaseRequest::marginal(spec.clone())
            .mechanism(MechanismKind::SmoothLaplace)
            .budget(PrivacyParams::approximate(0.1, 2.0, 0.05))
            .seed(5),
    ];
    for outcome in engine.execute_all(&d, &batch) {
        let artifact = outcome.unwrap();
        assert_eq!(artifact.regime, NeighborKind::Strong);
        let cells = artifact.cells().expect("marginal payload");
        assert_eq!(cells.len(), truth.num_cells());
        let l1 = artifact.l1_error_against(&truth).unwrap();
        assert!(l1 > 0.0, "{} must add noise", artifact.mechanism_name);
        // Totals approximately preserved (mechanisms are unbiased or
        // mildly biased): released total within 25% of truth.
        let released_total: f64 = cells.values().sum();
        let true_total = truth.total() as f64;
        assert!(
            (released_total - true_total).abs() < 0.25 * true_total,
            "{}: released total {released_total} vs {true_total}",
            artifact.mechanism_name
        );
    }
    // The whole session is accounted on one ledger.
    assert!(engine.ledger().remaining_epsilon() < 1e-9);
}

#[test]
fn weak_release_costs_match_domain_size() {
    let d = dataset();
    let mut engine = ReleaseEngine::new(PrivacyParams::approximate(0.1, 8.0, 0.08));
    let artifact = engine
        .execute(
            &ReleaseRequest::marginal(workload3())
                .mechanism(MechanismKind::SmoothLaplace)
                .budget(PrivacyParams::approximate(0.1, 8.0, 0.08))
                .seed(9),
            TruthSource::Tabulate {
                data: Snapshot::of(&d),
                cache: &mut TabulationCache::new(),
            },
        )
        .unwrap();
    assert_eq!(artifact.regime, NeighborKind::Weak);
    assert_eq!(artifact.cost.multiplier, 8);
    assert!((artifact.cost.per_cell_epsilon - 1.0).abs() < 1e-12);
    assert!((artifact.cost.epsilon - 8.0).abs() < 1e-12);
}

#[test]
fn filtered_release_is_weak_but_parallel() {
    let d = dataset();
    let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 2.0));
    let artifact = engine
        .execute(
            &ReleaseRequest::marginal(workload1())
                .mechanism(MechanismKind::SmoothGamma)
                .budget(PrivacyParams::pure(0.1, 2.0))
                .filter_expr(ranking2_expr())
                .seed(12),
            TruthSource::Tabulate {
                data: Snapshot::of(&d),
                cache: &mut TabulationCache::new(),
            },
        )
        .unwrap();
    // Worker-predicate filter forces the weak regime...
    assert_eq!(artifact.regime, NeighborKind::Weak);
    // ...and the declarative filter is recorded in provenance.
    assert_eq!(artifact.request.filter_id(), Some(ranking2_expr().id()));
    // ...but cells still partition establishments: multiplier 1.
    assert_eq!(artifact.cost.multiplier, 1);
    // Filtered totals are a strict subset of employment.
    let filtered_truth = compute_marginal_expr(&d, &workload1(), &ranking2_expr());
    assert!(filtered_truth.total() < compute_marginal(&d, &workload1()).total());
    assert_eq!(
        artifact.cells().unwrap().len(),
        filtered_truth.num_cells(),
        "engine tabulates the filtered population"
    );
}

#[test]
fn private_release_error_tracks_analytic_expectation() {
    // Cross-crate consistency: the empirical mean L1 per cell should be
    // close to the average of the mechanism's analytic per-cell E|noise|.
    use eree_core::{CellQuery, CountMechanism};
    let d = dataset();
    let spec = workload1();
    let truth = compute_marginal(&d, &spec);
    let mech = eree_core::mechanisms::SmoothLaplaceMechanism::new(0.1, 2.0, 0.05).unwrap();
    let analytic_total: f64 = truth
        .iter()
        .map(|(_, s)| mech.expected_l1(&CellQuery::from_stats(s)).unwrap())
        .sum();

    // Average over several releases.
    let trials = 30;
    let mut total = 0.0;
    for seed in 0..trials {
        let mut engine = ReleaseEngine::new(PrivacyParams::approximate(0.1, 2.0, 0.05));
        let artifact = engine
            .execute_precomputed(
                &truth,
                &ReleaseRequest::marginal(spec.clone())
                    .mechanism(MechanismKind::SmoothLaplace)
                    .budget(PrivacyParams::approximate(0.1, 2.0, 0.05))
                    .seed(seed),
            )
            .unwrap();
        total += artifact.l1_error_against(&truth).unwrap();
    }
    let empirical = total / trials as f64;
    assert!(
        (empirical - analytic_total).abs() / analytic_total < 0.15,
        "empirical {empirical} vs analytic {analytic_total}"
    );
}

#[test]
fn sdl_and_private_releases_share_support() {
    let d = dataset();
    let spec = workload1();
    let sdl = SdlPublisher::new(&d, SdlConfig::default()).publish(&d, &spec);
    let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 2.0));
    let artifact = engine
        .execute(
            &ReleaseRequest::marginal(spec.clone())
                .mechanism(MechanismKind::SmoothGamma)
                .budget(PrivacyParams::pure(0.1, 2.0))
                .seed(1),
            TruthSource::Tabulate {
                data: Snapshot::of(&d),
                cache: &mut TabulationCache::new(),
            },
        )
        .unwrap();
    let sdl_keys: Vec<_> = sdl.published.keys().collect();
    let private_keys: Vec<_> = artifact.cells().unwrap().keys().collect();
    assert_eq!(sdl_keys, private_keys, "same published support");
}

#[test]
fn paper_scale_config_is_calibrated() {
    // Don't generate the full paper-scale universe in tests; check the
    // target arithmetic instead.
    let cfg = GeneratorConfig::paper_scale(1);
    assert_eq!(cfg.target_establishments, 527_000);
    assert_eq!(cfg.states, 3);
}
