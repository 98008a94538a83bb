//! Property-based tests for the agency layer:
//!
//! * however season creates, release charges, and agency reopens are
//!   interleaved, the total ε spent across all seasons never exceeds the
//!   agency cap (and every refusal happens with nothing recorded);
//! * tampering any one season's ledger snapshot makes `AgencyStore::open`
//!   refuse the whole agency;
//! * truths loaded from the persistent truth store are bit-identical to
//!   freshly computed ones, across random specs, filters, and shard
//!   counts.

use eree::prelude::*;
use eree_core::agency::AgencyStore;
use eree_core::{TruthStore, LEDGER_REL_TOL};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tabulate::compute_marginal_expr;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(prefix: &str) -> PathBuf {
    let id = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "eree-agency-prop-{prefix}-{}-{id}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A release consuming `epsilon` of a season's budget.
fn request(seed: u64, epsilon: f64) -> ReleaseRequest {
    ReleaseRequest::marginal(workload1())
        .mechanism(MechanismKind::LogLaplace)
        .budget(PrivacyParams::pure(0.1, epsilon))
        .seed(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random interleavings of season creates / release charges / agency
    /// reopens: the lifetime spend across every season stays under the
    /// cap, season spends stay under their reservations, and reopening
    /// always succeeds with unchanged totals.
    #[test]
    fn interleaved_seasons_never_exceed_the_cap(
        cap_eps in 2.0f64..10.0,
        // Each op packs (kind, fraction): kind = v % 3, frac from v / 3.
        raw_ops in prop::collection::vec(0u32..3000, 1..7),
        data_seed in 0u64..20,
    ) {
        let ops: Vec<(u8, f64)> = raw_ops
            .iter()
            .map(|&v| ((v % 3) as u8, 0.05 + 0.85 * ((v / 3) as f64 / 1000.0)))
            .collect();
        let dir = tmp_dir("interleave");
        let d = Generator::new(GeneratorConfig::test_small(data_seed)).generate();
        let cap = PrivacyParams::pure(0.1, cap_eps);
        let tol = 1.0 + LEDGER_REL_TOL;
        let mut agency = AgencyStore::create(&dir, cap).unwrap();
        let mut created: Vec<String> = Vec::new();
        let mut seed = 0u64;

        for (i, &(kind, frac)) in ops.iter().enumerate() {
            match kind {
                // Create a season taking `frac` of the whole cap.
                0 => {
                    let name = format!("s{i}");
                    let budget = PrivacyParams::pure(0.1, frac * cap_eps);
                    match agency.create_season(&name, budget) {
                        Ok(_) => created.push(name),
                        Err(StoreError::AgencyBudget { .. }) => {
                            // Refusal must mean the reservation would
                            // genuinely overdraw the cap.
                            prop_assert!(
                                agency.meta_ledger().reserved_epsilon() + budget.epsilon
                                    > cap_eps * tol
                            );
                        }
                        Err(e) => panic!("unexpected store error: {e}"),
                    }
                }
                // Charge a release against some existing season.
                1 if !created.is_empty() => {
                    let name = &created[i % created.len()];
                    // Scoped peek: the handle's write lease must be
                    // released before `run_season` opens the season again.
                    let eps = {
                        let season = agency.open_season(name).unwrap();
                        (frac * season.ledger().remaining_epsilon()).max(0.01)
                    };
                    seed += 1;
                    match agency.run_season(name, &d, &[request(seed, eps)]) {
                        Ok(_) => {}
                        Err(StoreError::Refused { .. }) => {}
                        Err(e) => panic!("unexpected store error: {e}"),
                    }
                }
                // Resume: drop everything and reopen from disk.
                _ => {
                    let reserved = agency.meta_ledger().reserved_epsilon();
                    let spent = agency.spent_epsilon();
                    drop(agency);
                    agency = AgencyStore::open(&dir).unwrap();
                    prop_assert_eq!(agency.meta_ledger().reserved_epsilon(), reserved);
                    prop_assert!((agency.spent_epsilon() - spent).abs() < 1e-12);
                }
            }
            // The cap invariants hold after every operation.
            prop_assert!(agency.meta_ledger().reserved_epsilon() <= cap_eps * tol);
            prop_assert!(agency.spent_epsilon() <= cap_eps * tol);
            for summary in agency.seasons() {
                prop_assert!(summary.spent_epsilon <= summary.budget.epsilon * tol);
            }
        }
        // Whatever happened, each season's plan is still resumable: the
        // full verification passes on a final reopen.
        drop(agency);
        let agency = AgencyStore::open(&dir).unwrap();
        prop_assert!(agency.spent_epsilon() <= cap_eps * tol);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Tampering any one season's ledger snapshot — whichever season, and
    /// whether the totals are inflated, deflated, or the file truncated —
    /// refuses the whole agency on open.
    #[test]
    fn tampering_any_season_ledger_refuses_open(
        victim in 0usize..3,
        mode in 0u8..3,
        data_seed in 0u64..10,
    ) {
        let dir = tmp_dir("tamper");
        let d = Generator::new(GeneratorConfig::test_small(data_seed)).generate();
        let mut agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 9.0)).unwrap();
        for i in 0..3 {
            let name = format!("s{i}");
            agency.create_season(&name, PrivacyParams::pure(0.1, 3.0)).unwrap();
            agency
                .run_season(&name, &d, &[request(i as u64, 1.5)])
                .unwrap();
        }
        drop(agency);

        let ledger_path = dir
            .join("seasons")
            .join(format!("s{victim}"))
            .join("ledger.json");
        let original = fs::read_to_string(&ledger_path).unwrap();
        let spent = format!("\"spent_epsilon\":{:?}", 1.5f64);
        let tampered = match mode {
            // Deflate the recorded spend (claim budget back).
            0 => original.replace(&spent, "\"spent_epsilon\":0.25"),
            // Inflate the season's budget beyond its reservation.
            1 => original.replacen("\"epsilon\":3.0", "\"epsilon\":7.0", 1),
            // Truncate: not even parseable.
            _ => original[..original.len() / 2].to_string(),
        };
        assert_ne!(tampered, original);
        fs::write(&ledger_path, &tampered).unwrap();
        prop_assert!(AgencyStore::open(&dir).is_err());
        // Restoring the snapshot restores the agency.
        fs::write(&ledger_path, &original).unwrap();
        prop_assert!(AgencyStore::open(&dir).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Truths loaded from the persistent store are bit-identical to
    /// freshly computed ones — same cells, same stats, same schema, same
    /// content digest — across random specs, filters, data seeds, and
    /// shard counts.
    #[test]
    fn loaded_truths_are_bit_identical_to_fresh_tabulation(
        data_seed in 0u64..20,
        use_place in any::<bool>(),
        use_naics in any::<bool>(),
        use_sex in any::<bool>(),
        use_edu in any::<bool>(),
        filter_kind in 0u8..3,
        threads in 1usize..5,
    ) {
        use lodes::{Education, Sex};

        let dir = tmp_dir("truths");
        let d = Generator::new(GeneratorConfig::test_small(data_seed)).generate();
        let mut wp = vec![WorkplaceAttr::County];
        if use_place { wp.push(WorkplaceAttr::Place); }
        if use_naics { wp.push(WorkplaceAttr::Naics); }
        let mut wk = vec![];
        if use_sex { wk.push(WorkerAttr::Sex); }
        if use_edu { wk.push(WorkerAttr::Education); }
        let spec = MarginalSpec::new(wp, wk);
        let filter = match filter_kind {
            0 => None,
            1 => Some(FilterExpr::sex(Sex::Female)),
            _ => Some(
                FilterExpr::sex(Sex::Male)
                    .and(FilterExpr::education_at_least(Education::BachelorOrHigher)),
            ),
        };

        let index = DatasetIndex::build_auto(&d);
        let truth = index.marginal(&spec, filter.as_ref(), threads, Kernel::Auto);
        let digest = eree_core::store::dataset_digest(&d);
        let store = TruthStore::open(&dir, digest).unwrap();
        store.save(&spec, filter.as_ref(), &truth).unwrap();

        // Loaded == saved, bit for bit.
        let loaded = store.load(&spec, filter.as_ref()).expect("persisted truth loads");
        prop_assert_eq!(&loaded, &truth);
        prop_assert_eq!(loaded.content_digest(), truth.content_digest());

        // …and == an independent fresh tabulation (single-threaded, fresh
        // index), so persistence composes with the determinism guarantee.
        let fresh = match &filter {
            Some(expr) => compute_marginal_expr(&d, &spec, expr),
            None => compute_marginal(&d, &spec),
        };
        prop_assert_eq!(&loaded, &fresh);
        fs::remove_dir_all(&dir).unwrap();
    }
}
