//! Time-series integration: dynamically consistent SDL noise leaks exact
//! growth rates while ER-EE-private quarterly releases (real mechanisms,
//! fresh noise, ledger-accounted) do not.

use eree::prelude::*;
use lodes::{DatasetPanel, PanelConfig};
use sdl::{growth_rate_attack, PanelPublisher, SdlRelease};

fn panel() -> DatasetPanel {
    DatasetPanel::generate(
        &GeneratorConfig::test_small(3030),
        &PanelConfig {
            quarters: 3,
            growth_sigma: 0.08,
            death_rate: 0.0,
            seed: 17,
        },
    )
}

#[test]
fn sdl_panel_leaks_exact_growth_rates() {
    let p = panel();
    let cfg = SdlConfig {
        round_output: false,
        ..SdlConfig::default()
    };
    let publisher = PanelPublisher::new(&p, cfg);
    let releases = publisher.publish_all(&p, &workload1());
    let results = growth_rate_attack(&p, &releases, cfg.small_cell.limit);
    assert!(
        results.len() > 10,
        "found {} attackable cells",
        results.len()
    );
    for r in &results {
        assert!(
            (r.recovered_growth - r.true_growth).abs() < 1e-9,
            "dynamic consistency must cancel the factor exactly: {r:?}"
        );
    }
}

#[test]
fn private_panel_resists_growth_attack_within_budget() {
    let p = panel();
    let dir = std::env::temp_dir().join(format!("eree-timeseries-it-panel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let annual = PrivacyParams::approximate(0.1, 6.0, 0.05);
    let per_quarter = PrivacyParams::approximate(0.1, 2.0, 0.015);

    // Release each quarter with the real Smooth Laplace mechanism through
    // the quarterly-panel agency: one season per quarter, every season's
    // reservation drawn from the one multi-year cap. Each request uses the
    // SAME base seed — the consistent-over-time rewrite derives distinct
    // per-quarter noise streams, which is exactly what the ratio attack
    // needs to fail.
    let mut agency = eree_core::AgencyStore::create_panel(&dir, annual).unwrap();
    let releases: Vec<SdlRelease> = (0..p.quarters())
        .map(|q| {
            let name = format!("q{q}");
            agency.create_season(&name, per_quarter).unwrap();
            let report = agency
                .run_panel_season(
                    &name,
                    &p,
                    q,
                    &[ReleaseRequest::marginal(workload1())
                        .mechanism(MechanismKind::SmoothLaplace)
                        .budget(per_quarter)
                        .describe(format!("Q{q}"))
                        .seed(500)],
                )
                .expect("annual cap covers three quarters");
            assert_eq!(report.executed, 1);
            let artifact = agency.open_season(&name).unwrap().load_artifact(0).unwrap();
            let published = match artifact.payload {
                ArtifactPayload::Cells(cells) => cells,
                _ => unreachable!("marginal request yields cells"),
            };
            SdlRelease {
                published,
                truth: compute_marginal(p.quarter(q), &workload1()),
            }
        })
        .collect();

    // The cap is fully reserved: 3 x 2.0 = 6.0.
    assert!(agency.remaining_epsilon() < 1e-9);
    // A fourth season must be refused without reserving.
    let refused = agency.create_season("q3", per_quarter).unwrap_err();
    assert!(matches!(refused, StoreError::AgencyBudget { .. }));
    assert_eq!(agency.seasons().len(), 3);

    // The ratio attack's recovered growth rates are materially wrong.
    let results = growth_rate_attack(&p, &releases, 2.5);
    assert!(!results.is_empty());
    let exact = results
        .iter()
        .filter(|r| (r.recovered_growth - r.true_growth).abs() < 1e-9)
        .count();
    assert!(
        exact == 0,
        "fresh per-quarter noise must never cancel exactly ({exact}/{})",
        results.len()
    );
    let mut rel_errors: Vec<f64> = results
        .iter()
        .map(|r| ((r.recovered_growth - r.true_growth) / r.true_growth).abs())
        .collect();
    rel_errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = rel_errors[rel_errors.len() / 2];
    assert!(
        median > 0.005,
        "median relative recovery error {median} should be macroscopic"
    );
    drop(agency);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panel_quarters_compose_in_ledger_with_integerized_outputs() {
    use eree_core::{CellQuery, Integerized, SmoothGammaMechanism};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // Integer publication path across the panel: outputs are plausible
    // non-negative integers every quarter.
    let p = panel();
    let mech = Integerized::new(SmoothGammaMechanism::new(0.1, 2.0).unwrap());
    let mut rng = StdRng::seed_from_u64(9);
    for snapshot in p.snapshots() {
        let truth = compute_marginal(snapshot, &workload1());
        for (_, stats) in truth.iter().take(50) {
            let out = mech.release(&CellQuery::from_stats(stats), &mut rng);
            // Non-negative by construction; sanity: same order of magnitude
            // for large cells.
            if stats.count > 1000 {
                assert!(
                    (out as f64) > 0.2 * stats.count as f64
                        && (out as f64) < 5.0 * stats.count as f64,
                    "integerized output {out} vs count {}",
                    stats.count
                );
            }
        }
    }
}
