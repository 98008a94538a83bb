//! Private release of QWI-style job flows through the release engine:
//! `ReleaseRequest::flows` prices and noises B, JC, JD per cell with the
//! per-flow maximum establishment contribution driving the noise scale,
//! and derives E = B + JC − JD as free post-processing.

use eree::prelude::*;
use eree_core::{CellQuery, CountMechanism, Ledger, SmoothLaplaceMechanism};
use lodes::{DatasetPanel, PanelConfig};
use std::collections::BTreeMap;
use tabulate::WorkplaceAttr;

fn panel() -> DatasetPanel {
    DatasetPanel::generate(
        &GeneratorConfig::test_small(5050),
        &PanelConfig {
            quarters: 2,
            growth_sigma: 0.12,
            death_rate: 0.03,
            seed: 29,
        },
    )
}

/// One engine-mediated flow release of `truth` at per-cell
/// (α=0.1, ε, δ=0.05) Smooth Laplace, on a ledger holding exactly the
/// request's priced cost.
fn release_flows(truth: &FlowMarginal, epsilon: f64, seed: u64) -> BTreeMap<CellKey, FlowRelease> {
    let request = ReleaseRequest::flows(truth.spec().clone())
        .mechanism(MechanismKind::SmoothLaplace)
        .budget_per_cell(PrivacyParams::approximate(0.1, epsilon, 0.05))
        .seed(seed);
    let plan = request.plan().expect("valid flow request");
    let mut engine = ReleaseEngine::with_ledger(Ledger::new(PrivacyParams {
        alpha: 0.1,
        epsilon: plan.cost.epsilon,
        delta: plan.cost.delta,
    }));
    let artifact = engine
        .execute(&request, TruthSource::Flows(truth))
        .expect("exact ledger covers the request");
    match artifact.payload {
        ArtifactPayload::Flows(flows) => flows,
        _ => unreachable!("flow request yields flows"),
    }
}

#[test]
fn private_flow_release_tracks_truth() {
    let p = panel();
    let spec = MarginalSpec::new(vec![WorkplaceAttr::Naics], vec![]);
    let flows = compute_flows(p.quarter(0), p.quarter(1), &spec);

    // Average over engine releases (distinct seeds, fresh noise each) to
    // beat noise in the test.
    let n = 200;
    let mut sums: BTreeMap<CellKey, f64> = BTreeMap::new();
    for seed in 0..n {
        for (key, release) in release_flows(&flows, 2.0, seed) {
            *sums.entry(key).or_insert(0.0) += release.job_creation;
        }
    }

    let mut total_rel_err = 0.0;
    let mut cells = 0usize;
    for (key, stats) in flows.iter() {
        if stats.job_creation < 20 {
            continue;
        }
        let mean = sums[&key] / n as f64;
        total_rel_err += (mean - stats.job_creation as f64).abs() / stats.job_creation as f64;
        cells += 1;
    }
    assert!(cells >= 3, "need cells with substantial creation");
    let mean_rel_err = total_rel_err / cells as f64;
    assert!(
        mean_rel_err < 0.1,
        "averaged releases should track true creation: {mean_rel_err}"
    );
}

#[test]
fn flow_noise_scales_with_flow_concentration_not_level() {
    // A cell whose creation is spread across many establishments gets far
    // less noise than its employment level would suggest: the flow x_v is
    // the largest single-establishment *gain*, not the largest
    // establishment. The tabulated `FlowStats` carry exactly the per-flow
    // maxima the engine prices against.
    let p = panel();
    let spec = MarginalSpec::new(vec![WorkplaceAttr::Place], vec![]);
    let flows = compute_flows(p.quarter(0), p.quarter(1), &spec);
    let levels = compute_marginal(p.quarter(0), &spec);

    let mech = SmoothLaplaceMechanism::new(0.1, 2.0, 0.05).unwrap();
    let mut checked = 0;
    for (key, stats) in flows.iter() {
        let Some(level) = levels.cell(key) else {
            continue;
        };
        if stats.job_creation == 0 || level.count < 100 {
            continue;
        }
        let flow_q = CellQuery {
            count: stats.job_creation,
            max_establishment: stats.max_creation,
        };
        let level_q = CellQuery::from_stats(level);
        let flow_noise = mech.expected_l1(&flow_q).unwrap();
        let level_noise = mech.expected_l1(&level_q).unwrap();
        assert!(
            flow_noise <= level_noise + 1e-9,
            "flow x_v {} <= level x_v {} must give no more noise",
            stats.max_creation,
            level.max_establishment
        );
        checked += 1;
    }
    assert!(checked > 5, "need comparable cells, got {checked}");
}

#[test]
fn net_change_consistency_survives_release() {
    // The engine releases B, JC, JD and derives E = B + JC - JD: the QWI
    // accounting identity holds exactly in every published cell, by
    // construction (post-processing), and E is never charged for.
    let p = panel();
    let spec = MarginalSpec::new(vec![WorkplaceAttr::Ownership], vec![]);
    let flows = compute_flows(p.quarter(0), p.quarter(1), &spec);

    // Three noised statistics per cell, nothing for the derived E.
    let per_cell = 4.0;
    let request = ReleaseRequest::flows(spec)
        .mechanism(MechanismKind::SmoothLaplace)
        .budget_per_cell(PrivacyParams::approximate(0.1, per_cell, 0.05))
        .seed(11);
    let plan = request.plan().unwrap();
    // Cells partition establishments (parallel composition), so the
    // total is 3x the per-cell budget — B, JC, JD — with nothing for E.
    assert!(
        (plan.cost.epsilon - 3.0 * per_cell).abs() < 1e-9,
        "a flow release prices exactly B + JC + JD per cell: {}",
        plan.cost.epsilon
    );

    let released = release_flows(&flows, per_cell, 11);
    assert_eq!(released.len(), flows.num_cells());
    for (key, cell) in &released {
        let stats = flows.cell(*key).expect("released cells come from truth");
        assert!(cell.ending.is_finite());
        // Identity exact: E - B == JC - JD.
        assert!(
            ((cell.ending - cell.beginning) - (cell.job_creation - cell.job_destruction)).abs()
                < 1e-9,
            "net change identity must hold by construction"
        );
        let tolerance = 2000.0 + 0.5 * stats.ending as f64;
        assert!(
            (cell.ending - stats.ending as f64).abs() < tolerance,
            "derived E {} vs true {}",
            cell.ending,
            stats.ending
        );
    }
}
