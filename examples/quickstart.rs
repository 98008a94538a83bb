//! Quickstart: generate a synthetic ER-EE universe, release a tabulation
//! three ways (exact, SDL, formally private), and compare.
//!
//! Formally private releases flow through the [`ReleaseEngine`]: one
//! ledger governs the whole session, every request is budget-checked
//! before sampling, and each release comes back as a durable
//! [`ReleaseArtifact`].
//!
//! Run: `cargo run --release --example quickstart`

use eree::prelude::*;
use tabulate::compute_marginal;

fn main() {
    // 1. A synthetic LODES-style universe (seeded: fully reproducible).
    let dataset = Generator::new(GeneratorConfig::test_small(2017)).generate();
    let stats = DatasetStats::compute(&dataset);
    println!("universe: {}", stats.summary());

    // 2. The paper's Workload 1: employment counts by Census place x
    //    NAICS sector x ownership.
    let spec = workload1();
    let truth = compute_marginal(&dataset, &spec);
    println!(
        "\nWorkload 1 ({}): {} nonzero cells, {} total jobs",
        spec.name(),
        truth.num_cells(),
        truth.total()
    );

    // 3a. Current practice: input noise infusion (no provable guarantee).
    let sdl = SdlPublisher::new(&dataset, SdlConfig::default());
    let sdl_release = sdl.publish(&dataset, &spec);
    println!(
        "SDL release:            total L1 error {:>10.1} (mean {:>6.2}/cell)",
        sdl_release.l1_error(),
        sdl_release.mean_l1_error()
    );

    // 3b. Provable privacy: the three mechanisms at the paper's baseline
    //     (alpha = 0.1, epsilon = 2; delta = 0.05 for Smooth Laplace),
    //     executed as one batch under a single session ledger.
    let mut engine = ReleaseEngine::new(PrivacyParams::approximate(0.1, 6.0, 0.05));
    let batch = vec![
        ReleaseRequest::marginal(spec.clone())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .seed(42),
        ReleaseRequest::marginal(spec.clone())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .seed(42),
        ReleaseRequest::marginal(spec.clone())
            .mechanism(MechanismKind::SmoothLaplace)
            .budget(PrivacyParams::approximate(0.1, 2.0, 0.05))
            .seed(42),
    ];
    for outcome in engine.execute_all(&dataset, &batch) {
        let artifact = outcome.expect("valid parameters and sufficient budget");
        let l1 = artifact
            .l1_error_against(&truth)
            .expect("complete cell release");
        println!(
            "{:<22} total L1 error {:>10.1} (mean {:>6.2}/cell)  [{} regime, eps={} alpha={}]",
            format!("{}:", artifact.mechanism_name),
            l1,
            l1 / truth.num_cells() as f64,
            match artifact.regime {
                eree_core::neighbors::NeighborKind::Strong => "strong",
                eree_core::neighbors::NeighborKind::Weak => "weak",
            },
            artifact.cost.epsilon,
            artifact.request.budget.alpha,
        );
    }
    println!(
        "session ledger: spent eps={:.1}, remaining eps={:.1}",
        engine.ledger().budget().epsilon - engine.ledger().remaining_epsilon(),
        engine.ledger().remaining_epsilon()
    );

    // 4. A sub-population release: filters are declarative expressions
    //    (serializable, with a stable content digest), so the artifact
    //    records exactly which population was tabulated and structurally
    //    equal filters share one tabulation.
    let filter = ranking2_expr(); // female x bachelor's degree or higher
    let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 2.0));
    let request = ReleaseRequest::marginal(workload1())
        .mechanism(MechanismKind::SmoothGamma)
        .budget(PrivacyParams::pure(0.1, 2.0))
        .filter_expr(filter.clone())
        .seed(42);
    let data = Snapshot::of(&dataset);
    let cache = &mut TabulationCache::new();
    let artifact = engine
        .execute(&request, TruthSource::Tabulate { data, cache })
        .expect("valid filtered request");
    println!(
        "\nfiltered release ({} cells, weak regime): filter digest {} recorded in provenance",
        artifact.cells().expect("marginal payload").len(),
        artifact.request.filter_id().expect("AST-filtered request"),
    );

    println!(
        "\nThe formally private releases carry provable (alpha, epsilon)-ER-EE \
         guarantees;\nthe SDL release does not (see the sdl_attacks example)."
    );
}
