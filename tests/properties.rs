//! Property-based tests (proptest) over cross-crate invariants:
//! mechanism privacy on random neighbor pairs, engine conservation laws,
//! metric invariants, and accounting arithmetic.

use eree::prelude::*;
use eree_core::mechanisms::{LogLaplaceMechanism, SmoothGammaMechanism, SmoothLaplaceMechanism};
use eree_core::{CellQuery, CountMechanism};
use proptest::prelude::*;
use tabulate::{Cmp, Kernel};

/// The population filters the brute-force properties draw from: none, a
/// worker equality leaf, and a worker threshold leaf.
fn random_filter(kind: u8) -> Option<FilterExpr> {
    match kind {
        0 => None,
        1 => Some(FilterExpr::sex(lodes::Sex::Female)),
        _ => Some(FilterExpr::WorkerCmp(WorkerAttr::Age, Cmp::Ge, 3)),
    }
}

/// Pointwise density-ratio check on a coarse grid (cheap enough for many
/// proptest cases).
fn ratio_bounded(mech: &dyn CountMechanism, q1: &CellQuery, q2: &CellQuery, epsilon: f64) -> bool {
    let hi = 4.0 * (q1.count.max(q2.count) as f64 + 10.0);
    let lo = -hi;
    let e_eps = epsilon.exp() * (1.0 + 1e-9);
    (0..=800).all(|i| {
        let omega = lo + (hi - lo) * i as f64 / 800.0;
        let p1 = mech.output_pdf(q1, omega);
        let p2 = mech.output_pdf(q2, omega);
        if p1 < 1e-290 && p2 < 1e-290 {
            return true;
        }
        p1 <= e_eps * p2 + 1e-300 && p2 <= e_eps * p1 + 1e-300
    })
}

/// A strong α-neighbor pair: the cell belongs to one establishment whose
/// workforce grows from `x` to a random `y ∈ (x, max((1+α)x, x+1)]`.
fn neighbor_pair(x: u64, alpha: f64, t: f64) -> (CellQuery, CellQuery) {
    let max_y = (((1.0 + alpha) * x as f64).floor() as u64).max(x + 1);
    let y = x + 1 + ((max_y - x - 1) as f64 * t) as u64;
    (
        CellQuery {
            count: x,
            max_establishment: x as u32,
        },
        CellQuery {
            count: y,
            max_establishment: y as u32,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn log_laplace_private_on_random_neighbors(
        x in 0u64..20_000,
        alpha in 0.01f64..0.25,
        epsilon in 0.25f64..4.0,
        t in 0.0f64..=1.0,
    ) {
        let mech = LogLaplaceMechanism::new(alpha, epsilon);
        let (q1, q2) = neighbor_pair(x, alpha, t);
        prop_assert!(ratio_bounded(&mech, &q1, &q2, epsilon));
    }

    #[test]
    fn smooth_gamma_private_on_random_neighbors(
        x in 0u64..20_000,
        alpha in 0.01f64..0.2,
        eps_slack in 0.1f64..3.0,
        t in 0.0f64..=1.0,
    ) {
        // Choose an epsilon above the validity threshold.
        let epsilon = 5.0 * (1.0 + alpha).ln() + eps_slack;
        let mech = SmoothGammaMechanism::new(alpha, epsilon).expect("valid by construction");
        let (q1, q2) = neighbor_pair(x, alpha, t);
        prop_assert!(ratio_bounded(&mech, &q1, &q2, epsilon));
    }

    #[test]
    fn smooth_laplace_interval_private_on_random_neighbors(
        x in 0u64..5_000,
        alpha in 0.01f64..0.2,
        eps_slack in 1.05f64..2.0,
        t in 0.0f64..=1.0,
    ) {
        let delta = 0.05f64;
        let epsilon = 2.0 * (1.0 / delta).ln() * (1.0 + alpha).ln() * eps_slack;
        let mech = SmoothLaplaceMechanism::new(alpha, epsilon, delta)
            .expect("valid by construction");
        let (q1, q2) = neighbor_pair(x, alpha, t);
        // Interval check on a coarse grid of one-sided intervals.
        let hi = 4.0 * (q2.count as f64 + 10.0);
        let e_eps = epsilon.exp();
        for i in 0..=60 {
            let b = -hi + 2.0 * hi * i as f64 / 60.0;
            let p1 = mech.output_cdf(&q1, b);
            let p2 = mech.output_cdf(&q2, b);
            prop_assert!(p1 <= e_eps * p2 + delta + 1e-9);
            prop_assert!(p2 <= e_eps * p1 + delta + 1e-9);
            // Complement intervals too.
            let c1 = 1.0 - p1;
            let c2 = 1.0 - p2;
            prop_assert!(c1 <= e_eps * c2 + delta + 1e-9);
            prop_assert!(c2 <= e_eps * c1 + delta + 1e-9);
        }
    }

    #[test]
    fn unbiased_mechanisms_have_zero_mean_noise(
        count in 0u64..100_000,
        x_v in 1u32..10_000,
        alpha in 0.02f64..0.2,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let epsilon = 5.0 * (1.0 + alpha).ln() + 1.0;
        let mech = SmoothGammaMechanism::new(alpha, epsilon).unwrap();
        let q = CellQuery { count, max_establishment: x_v.min(count.max(1) as u32) };
        let mut rng = StdRng::seed_from_u64(count ^ x_v as u64);
        let n = 4000;
        let mean: f64 = (0..n).map(|_| mech.release(&q, &mut rng)).sum::<f64>() / n as f64;
        let scale = mech.noise_scale(&q);
        // Mean within 6 standard errors (sigma = scale).
        prop_assert!(
            (mean - count as f64).abs() < 6.0 * scale / (n as f64).sqrt() + 1e-9,
            "mean {} vs count {} (scale {})", mean, count, scale
        );
    }

    #[test]
    fn engine_conserves_jobs_on_random_specs(
        seed in 0u64..50,
        use_naics in any::<bool>(),
        use_own in any::<bool>(),
        use_sex in any::<bool>(),
        use_edu in any::<bool>(),
    ) {
        let d = Generator::new(GeneratorConfig {
            target_establishments: 300,
            states: 1,
            counties_per_state: 2,
            places_per_county: 4,
            blocks_per_place: 2,
            seed,
            ..GeneratorConfig::default()
        }).generate();
        let mut wp = vec![WorkplaceAttr::Place];
        if use_naics { wp.push(WorkplaceAttr::Naics); }
        if use_own { wp.push(WorkplaceAttr::Ownership); }
        let mut wk = vec![];
        if use_sex { wk.push(WorkerAttr::Sex); }
        if use_edu { wk.push(WorkerAttr::Education); }
        let spec = MarginalSpec::new(wp, wk);
        let m = compute_marginal(&d, &spec);
        prop_assert_eq!(m.total() as usize, d.num_jobs());
        // Per-cell invariants.
        for (_, stats) in m.iter() {
            prop_assert!(stats.count > 0);
            prop_assert!(stats.max_establishment as u64 <= stats.count);
            prop_assert!(stats.establishments as u64 <= stats.count);
        }
    }

    /// The index-based CSR tabulation engine is cell-for-cell identical —
    /// `count`, `establishments`, `max_establishment` — to an independent
    /// brute-force reference (per-worker loop into a per-establishment
    /// map), across random specs, filters, data seeds, and thread counts.
    #[test]
    fn indexed_tabulation_matches_brute_force(
        seed in 0u64..40,
        use_place in any::<bool>(),
        use_naics in any::<bool>(),
        use_own in any::<bool>(),
        use_sex in any::<bool>(),
        use_age in any::<bool>(),
        use_edu in any::<bool>(),
        filter_kind in 0u8..3,
        threads in 1usize..5,
    ) {
        use lodes::Worker;
        use std::collections::BTreeMap;

        let d = Generator::new(GeneratorConfig {
            target_establishments: 250,
            states: 1,
            counties_per_state: 2,
            places_per_county: 3,
            blocks_per_place: 2,
            seed,
            ..GeneratorConfig::default()
        }).generate();
        let mut wp = vec![];
        if use_place { wp.push(WorkplaceAttr::Place); }
        if use_naics { wp.push(WorkplaceAttr::Naics); }
        if use_own { wp.push(WorkplaceAttr::Ownership); }
        let mut wk = vec![];
        if use_sex { wk.push(WorkerAttr::Sex); }
        if use_age { wk.push(WorkerAttr::Age); }
        if use_edu { wk.push(WorkerAttr::Education); }
        let spec = MarginalSpec::new(wp, wk);
        let filter = random_filter(filter_kind);
        let keep = |w: &Worker| {
            filter.as_ref().is_none_or(|e| e.matches_record(w, d.workplace(d.employer_of(w.id))))
        };

        // Brute-force reference: per-worker loop into a
        // (cell values, establishment) -> count map, aggregated per cell.
        let index = TabulationIndex::build(&d);
        let schema = index.schema(&spec);
        let mut per_estab: BTreeMap<(u64, u32), u32> = BTreeMap::new();
        for w in d.workers() {
            if !keep(w) { continue; }
            let wp_rec = d.workplace(d.employer_of(w.id));
            let mut vals = Vec::new();
            for a in &spec.workplace_attrs { vals.push(a.value(wp_rec)); }
            for a in &spec.worker_attrs { vals.push(a.value(w)); }
            *per_estab.entry((schema.encode(&vals).0, wp_rec.id.0)).or_insert(0) += 1;
        }
        let mut reference: BTreeMap<u64, (u64, u32, u32)> = BTreeMap::new();
        for (&(key, _), &c) in &per_estab {
            let cell = reference.entry(key).or_insert((0, 0, 0));
            cell.0 += c as u64;
            cell.1 += 1;
            cell.2 = cell.2.max(c);
        }

        let m = index.marginal_sharded_with_kernel(&spec, filter.as_ref(), threads, Kernel::Auto);
        prop_assert_eq!(m.num_cells(), reference.len());
        for (key, stats) in m.iter() {
            let &(count, estabs, max) = reference.get(&key.0)
                .expect("indexed cell missing from brute force");
            prop_assert_eq!(stats.count, count);
            prop_assert_eq!(stats.establishments, estabs);
            prop_assert_eq!(stats.max_establishment, max);
        }

        // Worker-count-balanced shard boundaries (the skew-proof split)
        // are bit-identical to the contiguous single-chunk evaluation:
        // chunking strategy is a performance choice, never a semantic one.
        let contiguous = index.marginal_sharded_with_kernel(&spec, filter.as_ref(), 1, Kernel::Auto);
        prop_assert_eq!(&m, &contiguous);
        prop_assert_eq!(m.content_digest(), contiguous.content_digest());
    }

    /// The index-based flow tabulation — sharded per-establishment loop,
    /// sorted runs, deterministic k-way merge — is cell-for-cell identical
    /// to an independent per-worker brute force across random specs,
    /// filters, data seeds, and thread counts; and the tabulation (hence
    /// any release derived from it) is bit-identical at any shard count.
    #[test]
    fn indexed_flows_match_brute_force(
        seed in 0u64..40,
        use_place in any::<bool>(),
        use_naics in any::<bool>(),
        use_own in any::<bool>(),
        filter_kind in 0u8..3,
        threads in 1usize..5,
        growth in 0.02f64..0.2,
        deaths in 0.0f64..0.1,
    ) {
        use lodes::{DatasetPanel, PanelConfig};
        use std::collections::BTreeMap;

        let panel = DatasetPanel::generate(
            &GeneratorConfig {
                target_establishments: 250,
                states: 1,
                counties_per_state: 2,
                places_per_county: 3,
                blocks_per_place: 2,
                seed,
                ..GeneratorConfig::default()
            },
            &PanelConfig {
                quarters: 2,
                growth_sigma: growth,
                death_rate: deaths,
                seed: seed ^ 0x51,
            },
        );
        let mut wp = vec![];
        if use_place { wp.push(WorkplaceAttr::Place); }
        if use_naics { wp.push(WorkplaceAttr::Naics); }
        if use_own { wp.push(WorkplaceAttr::Ownership); }
        // Flows are establishment-level: workplace attributes only.
        let spec = MarginalSpec::new(wp, vec![]);
        let filter = random_filter(filter_kind);

        // Brute-force reference: per-worker loop on each side into a
        // per-establishment (filtered) count, folded per cell with the
        // published FlowStats semantics.
        let before = TabulationIndex::build(panel.quarter(0));
        let after = TabulationIndex::build(panel.quarter(1));
        let schema = before.schema(&spec);
        let side = |d: &Dataset| -> BTreeMap<u32, u32> {
            let mut counts = BTreeMap::new();
            for w in d.workers() {
                let wp_rec = d.workplace(d.employer_of(w.id));
                if !filter.as_ref().is_none_or(|e| e.matches_record(w, wp_rec)) { continue; }
                *counts.entry(d.employer_of(w.id).0).or_insert(0u32) += 1;
            }
            counts
        };
        let b_counts = side(panel.quarter(0));
        let e_counts = side(panel.quarter(1));
        // (B, E, JC, JD, max_B, max_E, max_JC, max_JD) per cell key.
        type FlowRef = (u64, u64, u64, u64, u32, u32, u32, u32);
        let mut reference: BTreeMap<u64, FlowRef> = BTreeMap::new();
        for wp_rec in panel.quarter(0).workplaces() {
            let b = b_counts.get(&wp_rec.id.0).copied().unwrap_or(0);
            let e = e_counts.get(&wp_rec.id.0).copied().unwrap_or(0);
            if b == 0 && e == 0 { continue; }
            let vals: Vec<u32> = spec.workplace_attrs.iter().map(|a| a.value(wp_rec)).collect();
            let cell = reference.entry(schema.encode(&vals).0)
                .or_insert((0, 0, 0, 0, 0, 0, 0, 0));
            let (jc, jd) = (e.saturating_sub(b), b.saturating_sub(e));
            cell.0 += b as u64;
            cell.1 += e as u64;
            cell.2 += jc as u64;
            cell.3 += jd as u64;
            cell.4 = cell.4.max(b);
            cell.5 = cell.5.max(e);
            cell.6 = cell.6.max(jc);
            cell.7 = cell.7.max(jd);
        }

        let m = before.flows_sharded_with_kernel(&after, &spec, filter.as_ref(), threads, Kernel::Auto);
        prop_assert_eq!(m.num_cells(), reference.len());
        for (key, stats) in m.iter() {
            let &(b, e, jc, jd, mb, me, mc, md) = reference.get(&key.0)
                .expect("indexed flow cell missing from brute force");
            prop_assert_eq!(stats.beginning, b);
            prop_assert_eq!(stats.ending, e);
            prop_assert_eq!(stats.job_creation, jc);
            prop_assert_eq!(stats.job_destruction, jd);
            prop_assert_eq!(stats.max_beginning, mb);
            prop_assert_eq!(stats.max_ending, me);
            prop_assert_eq!(stats.max_creation, mc);
            prop_assert_eq!(stats.max_destruction, md);
        }

        // Shard count is a performance choice, never a semantic one: the
        // tabulation — and therefore the released artifact drawn from it
        // under a fixed seed — is bit-identical at any thread count.
        let contiguous = before.flows_sharded_with_kernel(&after, &spec, filter.as_ref(), 1, Kernel::Auto);
        prop_assert_eq!(&m, &contiguous);
        prop_assert_eq!(m.content_digest(), contiguous.content_digest());
        let release = |truth: &FlowMarginal| {
            let request = ReleaseRequest::flows(truth.spec().clone())
                .mechanism(MechanismKind::LogLaplace)
                .budget_per_cell(PrivacyParams::pure(0.1, 1.0))
                .seed(seed);
            let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 3.0));
            engine.execute_flows_precomputed(truth, &request).expect("budget covers one release")
        };
        let a1 = serde_json::to_string(&release(&m)).unwrap();
        let a2 = serde_json::to_string(&release(&contiguous)).unwrap();
        prop_assert_eq!(a1, a2);
    }

    #[test]
    fn spearman_stays_in_range_and_detects_identity(
        values in prop::collection::vec(0.0f64..1e6, 3..60),
    ) {
        use eval::metrics::spearman;
        if let Some(rho) = spearman(&values, &values) {
            prop_assert!((rho - 1.0).abs() < 1e-9);
        }
        let reversed: Vec<f64> = values.iter().map(|v| -v).collect();
        if let Some(rho) = spearman(&values, &reversed) {
            prop_assert!((rho + 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn size_distance_triangle_inequality(
        x in 1u64..10_000,
        y in 1u64..10_000,
        z in 1u64..10_000,
        alpha in 0.01f64..0.5,
    ) {
        use eree_core::size_distance;
        let dxz = size_distance(x, z, alpha);
        let dxy = size_distance(x, y, alpha);
        let dyz = size_distance(y, z, alpha);
        prop_assert!(dxz <= dxy + dyz, "d({x},{z})={dxz} > {dxy}+{dyz}");
        // Identity and symmetry.
        prop_assert_eq!(size_distance(x, x, alpha), 0);
        prop_assert_eq!(size_distance(x, y, alpha), size_distance(y, x, alpha));
    }

    #[test]
    fn release_cost_arithmetic(
        eps in 0.1f64..16.0,
        alpha in 0.01f64..0.3,
    ) {
        use eree_core::accountant::ReleaseCost;
        use eree_core::neighbors::NeighborKind;
        let total = PrivacyParams::pure(alpha, eps);
        let spec = workload3();
        let per_cell = ReleaseCost::per_cell_for_total(&spec, &total, NeighborKind::Weak);
        let cost = ReleaseCost::for_marginal(&spec, &per_cell, NeighborKind::Weak);
        prop_assert!((cost.epsilon - eps).abs() < 1e-9);
        prop_assert_eq!(cost.multiplier, 8);
    }

    /// However a charge sequence is interleaved with refusals, the
    /// lifetime spend never exceeds the budget by more than one relative
    /// tolerance — the regression property for the old absolute, per-charge
    /// tolerance that admitted tiny charges forever after exhaustion.
    #[test]
    fn ledger_never_overspends_its_budget(
        budget_eps in 0.25f64..16.0,
        charges in prop::collection::vec(0.0f64..3.0, 1..60),
        tiny_scale in 1e-12f64..1e-9,
    ) {
        use eree_core::accountant::ReleaseCost;
        use eree_core::LEDGER_REL_TOL;
        let budget = PrivacyParams::pure(0.1, budget_eps);
        let mut ledger = Ledger::new(budget);
        let cap = budget_eps * (1.0 + LEDGER_REL_TOL);
        let charge = |eps: f64| ReleaseCost {
            epsilon: eps,
            delta: 0.0,
            per_cell_epsilon: eps,
            multiplier: 1,
        };
        for (i, &eps) in charges.iter().enumerate() {
            let params = PrivacyParams::pure(0.1, eps);
            let _ = ledger.charge(format!("c{i}"), &params, &charge(eps));
            prop_assert!(
                ledger.spent_epsilon() <= cap,
                "spent {} above cap {} after charge {}", ledger.spent_epsilon(), cap, i
            );
        }
        // Hammer the exhausted (or near-exhausted) ledger with sub-tol
        // charges: the cumulative cap must still hold.
        let tiny = tiny_scale * budget_eps;
        let tiny_params = PrivacyParams::pure(0.1, tiny);
        for i in 0..2_000 {
            let _ = ledger.charge(format!("tiny{i}"), &tiny_params, &charge(tiny));
        }
        prop_assert!(
            ledger.spent_epsilon() <= cap,
            "tiny-charge hammering drove spend {} above cap {}", ledger.spent_epsilon(), cap
        );
        // The ledger's own bookkeeping agrees with an entry replay.
        let replayed = Ledger::replay(*ledger.budget(), ledger.entries()).expect("replayable");
        prop_assert_eq!(replayed.spent_epsilon(), ledger.spent_epsilon());
    }
}
