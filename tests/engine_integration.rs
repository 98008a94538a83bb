//! Integration coverage for the `ReleaseEngine`: ledger-enforced batch
//! semantics, artifact serialization, and determinism under parallelism.

use eree::prelude::*;

fn dataset() -> Dataset {
    Generator::new(GeneratorConfig::test_small(5005)).generate()
}

#[test]
fn rejection_ordering_consumes_no_budget() {
    let d = dataset();
    let data = Snapshot::of(&d);
    let mut cache = TabulationCache::new();
    let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 4.0));

    // A request that fails mechanism validation: nothing spent, nothing
    // recorded.
    let err = engine
        .execute(
            &ReleaseRequest::marginal(workload1())
                .mechanism(MechanismKind::SmoothGamma)
                .budget(PrivacyParams::pure(0.1, 0.3))
                .seed(1),
            TruthSource::Tabulate {
                data,
                cache: &mut cache,
            },
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidParameters { .. }));
    assert!((engine.ledger().remaining_epsilon() - 4.0).abs() < 1e-12);
    assert!(engine.ledger().entries().is_empty());

    // A request that overdraws: rejected before sampling, nothing spent.
    let err = engine
        .execute(
            &ReleaseRequest::marginal(workload1())
                .mechanism(MechanismKind::SmoothGamma)
                .budget(PrivacyParams::pure(0.1, 5.0))
                .seed(2),
            TruthSource::Tabulate {
                data,
                cache: &mut cache,
            },
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::Budget(_)));
    assert!((engine.ledger().remaining_epsilon() - 4.0).abs() < 1e-12);

    // An under-specified request is caught before everything else.
    let err = engine
        .execute(
            &ReleaseRequest::marginal(workload1()).seed(3),
            TruthSource::Tabulate {
                data,
                cache: &mut cache,
            },
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::IncompleteRequest { .. }));
    assert!(cache.is_empty(), "no refusal reached the tabulation cache");

    // The budget is still fully available for a valid request.
    assert!(engine
        .execute(
            &ReleaseRequest::marginal(workload1())
                .mechanism(MechanismKind::SmoothGamma)
                .budget(PrivacyParams::pure(0.1, 4.0))
                .seed(4),
            TruthSource::Tabulate {
                data,
                cache: &mut cache
            },
        )
        .is_ok());
    assert!(engine.ledger().remaining_epsilon() < 1e-9);
}

#[test]
fn artifact_json_roundtrip_is_lossless() {
    let d = dataset();
    let mut engine = ReleaseEngine::new(PrivacyParams::approximate(0.1, 26.0, 0.05));
    let batch = vec![
        // Marginal with integerization and a declarative filter (its
        // expression must survive the JSON round-trip in provenance).
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .filter_expr(ranking2_expr())
            .integerize(true)
            .describe("filtered integerized W1")
            .seed(11),
        // Weak-regime full marginal.
        ReleaseRequest::marginal(workload3())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 8.0))
            .seed(12),
        // Shapes release.
        ReleaseRequest::shapes(workload3())
            .mechanism(MechanismKind::SmoothLaplace)
            .budget(PrivacyParams::approximate(0.1, 16.0, 0.05))
            .seed(13),
    ];
    for outcome in engine.execute_all(&d, &batch) {
        let artifact = outcome.unwrap();
        let json = serde_json::to_string_pretty(&artifact).unwrap();
        let back: ReleaseArtifact = serde_json::from_str(&json).unwrap();
        assert_eq!(back, artifact, "JSON round-trip must be lossless");
        // Spot-check provenance survived.
        assert_eq!(back.request.seed, artifact.request.seed);
        assert_eq!(back.mechanism_name, artifact.mechanism_name);
        assert_eq!(back.cost, artifact.cost);
        // Compact form round-trips too.
        let compact = serde_json::to_string(&artifact).unwrap();
        let back: ReleaseArtifact = serde_json::from_str(&compact).unwrap();
        assert_eq!(back, artifact);
    }
}

#[test]
fn execute_all_deterministic_for_any_thread_count() {
    let d = dataset();
    let requests = vec![
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .seed(21),
        ReleaseRequest::marginal(workload3())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 8.0))
            .seed(22),
        ReleaseRequest::shapes(workload3())
            .mechanism(MechanismKind::SmoothLaplace)
            .budget(PrivacyParams::approximate(0.1, 16.0, 0.05))
            .seed(23),
    ];
    let run = |threads: usize| {
        let mut engine = ReleaseEngine::new(PrivacyParams::approximate(0.1, 26.0, 0.05))
            .with_parallelism(threads);
        engine
            .execute_all(&d, &requests)
            .into_iter()
            .map(|o| o.unwrap())
            .collect::<Vec<_>>()
    };
    let baseline = run(1);
    for threads in [2, 4, 16] {
        assert_eq!(run(threads), baseline, "threads={threads}");
    }
    // Serialized forms are bit-identical as well.
    let a = serde_json::to_string(&baseline).unwrap();
    let b = serde_json::to_string(&run(8)).unwrap();
    assert_eq!(a, b);
}

#[test]
fn indexed_artifacts_bit_identical_to_legacy_tabulation() {
    // The CSR-index engine replaced the legacy per-worker tabulation
    // under every release path; per-cell noise depends only on
    // (seed, cell key), so artifacts must be bit-identical to ones
    // sampled from a legacy-tabulated truth — at any thread count.
    use tabulate::{compute_marginal_filtered_legacy, compute_marginal_legacy, ranking2_filter};
    let d = dataset();
    let request = |seed: u64| {
        ReleaseRequest::marginal(workload3())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 8.0))
            .seed(seed)
    };
    let legacy_truth = compute_marginal_legacy(&d, &workload3());
    for threads in [1, 2, 8] {
        let mut via_legacy =
            ReleaseEngine::new(PrivacyParams::pure(0.1, 8.0)).with_parallelism(threads);
        let mut via_index =
            ReleaseEngine::new(PrivacyParams::pure(0.1, 8.0)).with_parallelism(threads);
        let a = via_legacy
            .execute_precomputed(&legacy_truth, &request(77))
            .unwrap();
        let b = via_index
            .execute(
                &request(77),
                TruthSource::Tabulate {
                    data: Snapshot::of(&d),
                    cache: &mut TabulationCache::new(),
                },
            )
            .unwrap();
        assert_eq!(a, b, "threads={threads}");
    }
    // Filtered releases agree too (weak-regime single-query workload):
    // the declarative filter's tabulation must match the legacy
    // brute-force engine driven by the equivalent closure.
    let filtered_truth = compute_marginal_filtered_legacy(&d, &workload1(), ranking2_filter);
    let filtered_request = ReleaseRequest::marginal(workload1())
        .filter_expr(ranking2_expr())
        .mechanism(MechanismKind::LogLaplace)
        .budget(PrivacyParams::pure(0.1, 2.0))
        .seed(78);
    let mut via_legacy = ReleaseEngine::new(PrivacyParams::pure(0.1, 2.0));
    let mut via_index = ReleaseEngine::new(PrivacyParams::pure(0.1, 2.0));
    let a = via_legacy
        .execute_precomputed(&filtered_truth, &filtered_request)
        .unwrap();
    let b = via_index
        .execute(
            &filtered_request,
            TruthSource::Tabulate {
                data: Snapshot::of(&d),
                cache: &mut TabulationCache::new(),
            },
        )
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn production_artifacts_carry_no_truth_digest() {
    // A truth digest fingerprints the unnoised data: a released artifact
    // carries none, not even as a null field.
    let d = dataset();
    let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 2.0));
    let artifact = engine
        .execute(
            &ReleaseRequest::marginal(workload1())
                .mechanism(MechanismKind::SmoothGamma)
                .budget(PrivacyParams::pure(0.1, 2.0))
                .seed(31),
            TruthSource::Tabulate {
                data: Snapshot::of(&d),
                cache: &mut TabulationCache::new(),
            },
        )
        .unwrap();
    let json = serde_json::to_string(&artifact).unwrap();
    assert!(!json.contains("truth_digest"));
}
