//! Integration tests for the agency layer: a two-season agency over one
//! confidential dataset with a global ε cap, a durable meta-ledger, and a
//! persistent content-addressed truth store shared across seasons.
//!
//! These are the acceptance gates of the agency layer:
//! (a) a season — or a request within one — that would exceed its bound
//!     is refused *before sampling*;
//! (b) a killed season resumes bit-identically with ε spent unchanged;
//! (c) a sibling season sharing a `(spec, filter)` tabulation is served
//!     from the persistent truth store with zero recomputation.

use eree::prelude::*;
use eree_core::agency::AgencyStore;
use std::fs;
use std::path::{Path, PathBuf};
use tabulate::ranking2_expr;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eree-agency-it-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn dataset() -> Dataset {
    Generator::new(GeneratorConfig::test_small(55)).generate()
}

fn county() -> MarginalSpec {
    MarginalSpec::new(vec![WorkplaceAttr::County], vec![])
}

/// Season A: three releases over two distinct truth identities (the
/// filtered county release has its own).
fn season_a() -> Vec<ReleaseRequest> {
    vec![
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .describe("A1: workload1")
            .seed(0xA1),
        ReleaseRequest::marginal(county())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .describe("A2: county")
            .seed(0xA2),
        ReleaseRequest::marginal(county())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .filter_expr(ranking2_expr())
            .describe("A3: county, Ranking 2 population")
            .seed(0xA3),
    ]
}

/// Season B: re-releases of all three of season A's truth identities —
/// separately constructed specs and filter expressions, so sharing rests
/// on structural identity, never on object reuse.
fn season_b() -> Vec<ReleaseRequest> {
    vec![
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .describe("B1: workload1 re-release")
            .seed(0xB1),
        ReleaseRequest::marginal(county())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .filter_expr(ranking2_expr())
            .describe("B2: filtered county re-release")
            .seed(0xB2),
    ]
}

fn artifact_bytes(season_dir: &Path) -> Vec<Vec<u8>> {
    let mut files: Vec<_> = fs::read_dir(season_dir.join("artifacts"))
        .expect("artifacts dir")
        .map(|e| e.expect("entry").path())
        .collect();
    files.sort();
    files.iter().map(|p| fs::read(p).expect("bytes")).collect()
}

/// Acceptance (a): the global cap refuses an over-budget season before
/// any sampling — and an in-budget season still refuses an over-budget
/// *request* through its own ledger, also before sampling.
#[test]
fn cap_refuses_over_budget_seasons_and_requests_before_sampling() {
    let dir = tmp_dir("cap");
    let d = dataset();
    let mut agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 6.0)).unwrap();
    agency
        .create_season("a", PrivacyParams::pure(0.1, 4.0))
        .unwrap();

    // Season-level refusal: 3.0 > remaining 2.0 under the cap.
    let err = agency
        .create_season("too-big", PrivacyParams::pure(0.1, 3.0))
        .unwrap_err();
    assert!(matches!(err, StoreError::AgencyBudget { .. }), "{err}");
    assert!(!dir.join("seasons").join("too-big").exists());

    // Request-level refusal: season `a` holds 4.0; its plan asks for 5.0.
    // The refusal happens at admission — nothing is persisted, no ε moves.
    let plan = vec![
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 4.0))
            .seed(1),
        ReleaseRequest::marginal(county())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .seed(2),
    ];
    let err = agency.run_season("a", &d, &plan).unwrap_err();
    assert!(matches!(err, StoreError::Refused { index: 1, .. }), "{err}");
    let season = agency.open_season("a").unwrap();
    assert_eq!(
        season.completed(),
        1,
        "only the in-budget release persisted"
    );
    assert!((season.ledger().spent_epsilon() - 4.0).abs() < 1e-12);
    fs::remove_dir_all(&dir).unwrap();
}

/// Acceptance (b) + (c): kill the second season partway; resume it from a
/// fresh process bit-identically with ε unchanged, serving every truth —
/// including the resumed requests' — from the persistent store with zero
/// recomputation.
#[test]
fn killed_sibling_season_resumes_bit_identically_from_shared_truths() {
    let base = tmp_dir("resume");
    let oneshot_dir = base.join("oneshot");
    let killed_dir = base.join("killed");
    let d = dataset();
    let cap = PrivacyParams::pure(0.1, 6.0);
    let budgets = [
        ("a", PrivacyParams::pure(0.1, 4.0)),
        ("b", PrivacyParams::pure(0.1, 2.0)),
    ];

    // Reference: both seasons, uninterrupted.
    let mut oneshot = AgencyStore::create(&oneshot_dir, cap).unwrap();
    for (name, budget) in budgets {
        oneshot.create_season(name, budget).unwrap();
    }
    let ra = oneshot.run_season("a", &d, &season_a()).unwrap();
    let rb = oneshot.run_season("b", &d, &season_b()).unwrap();
    assert_eq!(ra.tabulations_computed, 3);
    assert_eq!(
        (rb.tabulations_computed, rb.tabulation_disk_hits),
        (0, 2),
        "sibling season must be served entirely from the truth store"
    );

    // Same program; season b killed after its first release.
    let mut agency = AgencyStore::create(&killed_dir, cap).unwrap();
    for (name, budget) in budgets {
        agency.create_season(name, budget).unwrap();
    }
    agency.run_season("a", &d, &season_a()).unwrap();
    agency.run_season("b", &d, &season_b()[..1]).unwrap();
    let spent_before = agency.open_season("b").unwrap().ledger().spent_epsilon();
    drop(agency); // the kill

    let mut agency = AgencyStore::open(&killed_dir).unwrap();
    let resumed = agency.run_season("b", &d, &season_b()).unwrap();
    assert_eq!((resumed.resumed_from, resumed.executed), (1, 1));
    assert_eq!(resumed.tabulations_computed, 0, "resume re-tabulated");
    let season_b_store = agency.open_season("b").unwrap();
    // ε was spent exactly once per release: the prefix's spend carried
    // over untouched, the remainder added its own.
    assert!((season_b_store.ledger().spent_epsilon() - spent_before - 1.0).abs() < 1e-12);
    // Bit-identical artifacts, season by season.
    for name in ["a", "b"] {
        assert_eq!(
            artifact_bytes(&oneshot_dir.join("seasons").join(name)),
            artifact_bytes(&killed_dir.join("seasons").join(name)),
            "season `{name}` artifacts diverged across kill/resume"
        );
    }
    fs::remove_dir_all(&base).unwrap();
}

/// The meta-ledger and season ledgers agree after any interleaving of
/// opens: total spend across seasons never exceeds the cap, and reopening
/// is idempotent.
#[test]
fn reopened_agency_agrees_with_itself() {
    let dir = tmp_dir("reopen");
    let d = dataset();
    let mut agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 6.0)).unwrap();
    agency
        .create_season("a", PrivacyParams::pure(0.1, 4.0))
        .unwrap();
    agency.run_season("a", &d, &season_a()).unwrap();
    drop(agency);
    let mut agency = AgencyStore::open(&dir).unwrap();
    agency
        .create_season("b", PrivacyParams::pure(0.1, 2.0))
        .unwrap();
    agency.run_season("b", &d, &season_b()).unwrap();
    drop(agency);
    let agency = AgencyStore::open(&dir).unwrap();
    assert!(agency.spent_epsilon() <= agency.cap().epsilon * (1.0 + 1e-9));
    assert!(agency.remaining_epsilon() < 1e-9);
    assert_eq!(agency.seasons().len(), 2);
    assert!(agency.seasons().iter().all(|s| s.materialized));
    fs::remove_dir_all(&dir).unwrap();
}

/// Tampering either level of the hierarchy — a season's ledger snapshot
/// or the agency's meta-ledger — refuses the whole agency on open.
#[test]
fn tampering_either_ledger_level_refuses_open() {
    let dir = tmp_dir("tamper");
    let d = dataset();
    let mut agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 6.0)).unwrap();
    agency
        .create_season("a", PrivacyParams::pure(0.1, 4.0))
        .unwrap();
    agency.run_season("a", &d, &season_a()).unwrap();
    drop(agency);

    // Season ledger: claim less spend than the artifacts charged.
    let season_ledger = dir.join("seasons").join("a").join("ledger.json");
    let original = fs::read_to_string(&season_ledger).unwrap();
    let tampered = original.replace("\"spent_epsilon\":4.0", "\"spent_epsilon\":1.0");
    assert_ne!(tampered, original);
    fs::write(&season_ledger, &tampered).unwrap();
    assert!(AgencyStore::open(&dir).is_err());
    fs::write(&season_ledger, &original).unwrap();
    AgencyStore::open(&dir).expect("restored agency opens again");

    // Meta-ledger: shrink a recorded reservation so the totals lie.
    let meta_path = dir.join("meta_ledger.json");
    let original = fs::read_to_string(&meta_path).unwrap();
    let tampered = original.replace("\"reserved_epsilon\":4.0", "\"reserved_epsilon\":1.0");
    assert_ne!(tampered, original);
    fs::write(&meta_path, &tampered).unwrap();
    assert!(AgencyStore::open(&dir).is_err());
    fs::remove_dir_all(&dir).unwrap();
}

/// The truth store serves only verified truths: corrupting a persisted
/// truth file silently falls back to recomputation (self-healing) and the
/// released artifacts are unchanged.
#[test]
fn corrupted_truth_files_self_heal_without_changing_artifacts() {
    let base = tmp_dir("truth-heal");
    let clean_dir = base.join("clean");
    let corrupt_dir = base.join("corrupt");
    let d = dataset();
    let cap = PrivacyParams::pure(0.1, 6.0);

    for dir in [&clean_dir, &corrupt_dir] {
        let mut agency = AgencyStore::create(dir, cap).unwrap();
        agency
            .create_season("a", PrivacyParams::pure(0.1, 4.0))
            .unwrap();
        agency.run_season("a", &d, &season_a()).unwrap();
        agency
            .create_season("b", PrivacyParams::pure(0.1, 2.0))
            .unwrap();
        drop(agency);
    }
    // Corrupt every persisted truth in one agency.
    for entry in fs::read_dir(corrupt_dir.join("truths")).unwrap() {
        fs::write(entry.unwrap().path(), "{garbage").unwrap();
    }
    let mut clean = AgencyStore::open(&clean_dir).unwrap();
    let mut corrupt = AgencyStore::open(&corrupt_dir).unwrap();
    let rc = clean.run_season("b", &d, &season_b()).unwrap();
    let rk = corrupt.run_season("b", &d, &season_b()).unwrap();
    // The corrupted agency recomputed (and re-persisted) instead of
    // serving garbage…
    assert_eq!((rc.tabulations_computed, rc.tabulation_disk_hits), (0, 2));
    assert_eq!((rk.tabulations_computed, rk.tabulation_disk_hits), (2, 0));
    // …and the published artifacts are bit-identical either way.
    assert_eq!(
        artifact_bytes(&clean_dir.join("seasons").join("b")),
        artifact_bytes(&corrupt_dir.join("seasons").join("b")),
    );
    fs::remove_dir_all(&base).unwrap();
}
