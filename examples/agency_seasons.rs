//! A two-season agency over one confidential snapshot: global cap,
//! cross-season truth sharing, kill/resume with zero re-tabulation.
//!
//! A statistical agency runs a recurring release *program*, not one
//! season. This example drives the `AgencyStore` end to end and asserts
//! the three guarantees the agency layer adds over a lone `SeasonStore`:
//!
//! 1. **Global cap, enforced up front** — a season whose budget would
//!    overspend the agency's ε cap is refused before any directory is
//!    created or any record is scanned;
//! 2. **Cross-season truth sharing** — the second season re-publishes a
//!    marginal the first season already tabulated, and its truth is
//!    served digest-verified from the persistent truth store with zero
//!    recomputation;
//! 3. **Kill/resume, still zero recomputation** — a season killed partway
//!    resumes bit-identically (no ε re-spent), and even the resumed
//!    requests' truths come from the truth store.
//!
//! Run: `cargo run --release --example agency_seasons`
//! (CI runs this as the agency smoke step; every `assert!` is a gate.)

use eree::prelude::*;
use std::fs;
use std::path::Path;

fn county() -> MarginalSpec {
    MarginalSpec::new(vec![WorkplaceAttr::County], vec![])
}

/// Season A: the "annual" program.
fn annual_plan() -> Vec<ReleaseRequest> {
    vec![
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .describe("A1: place x naics x ownership")
            .seed(1),
        ReleaseRequest::marginal(county())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .describe("A2: county marginal")
            .seed(2),
    ]
}

/// Season B: re-releases sharing both of season A's tabulations.
fn followup_plan() -> Vec<ReleaseRequest> {
    vec![
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .describe("B1: workload1 re-release (shared truth)")
            .seed(3),
        ReleaseRequest::marginal(county())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .describe("B2: county re-release (shared truth)")
            .seed(4),
    ]
}

fn artifact_bytes(season_dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = fs::read_dir(season_dir.join("artifacts"))
        .expect("artifacts dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                fs::read(&p).expect("artifact bytes"),
            )
        })
        .collect()
}

fn main() {
    let dataset = Generator::new(GeneratorConfig::test_small(42)).generate();
    let cap = PrivacyParams::pure(0.1, 5.0);

    let base = std::env::temp_dir().join("eree-agency-seasons");
    let oneshot_dir = base.join("oneshot");
    let killed_dir = base.join("killed");
    let _ = fs::remove_dir_all(&base);

    // --- Reference: both seasons, uninterrupted. ---
    let mut oneshot = AgencyStore::create(&oneshot_dir, cap).unwrap();
    oneshot
        .create_season("annual", PrivacyParams::pure(0.1, 3.0))
        .unwrap();
    oneshot
        .create_season("followup", PrivacyParams::pure(0.1, 2.0))
        .unwrap();
    let a = oneshot
        .run_season("annual", &dataset, &annual_plan())
        .unwrap();
    let b = oneshot
        .run_season("followup", &dataset, &followup_plan())
        .unwrap();
    println!(
        "one-shot:   annual tabulated {} truths; followup tabulated {} ({} from truth store)",
        a.tabulations_computed, b.tabulations_computed, b.tabulation_disk_hits
    );
    // Gate 2: the sibling season recomputed nothing.
    assert_eq!(a.tabulations_computed, 2);
    assert_eq!(b.tabulations_computed, 0, "sibling season re-tabulated");
    assert_eq!(b.tabulation_disk_hits, 2);

    // Gate 1: the cap (5.0) is fully reserved; another season is refused
    // before anything touches disk or data.
    match oneshot.create_season("greedy", PrivacyParams::pure(0.1, 0.5)) {
        Err(StoreError::AgencyBudget { season, source }) => {
            println!("cap:        season `{season}` refused up front — {source}")
        }
        other => panic!("over-cap season must be refused, got {other:?}"),
    }
    assert!(!oneshot_dir.join("seasons").join("greedy").exists());

    // --- The same program, with the followup season killed partway. ---
    let mut agency = AgencyStore::create(&killed_dir, cap).unwrap();
    agency
        .create_season("annual", PrivacyParams::pure(0.1, 3.0))
        .unwrap();
    agency
        .create_season("followup", PrivacyParams::pure(0.1, 2.0))
        .unwrap();
    agency
        .run_season("annual", &dataset, &annual_plan())
        .unwrap();
    let partial = agency
        .run_season("followup", &dataset, &followup_plan()[..1])
        .unwrap();
    println!(
        "killed:     followup persisted {} of {} releases — process dies here",
        partial.executed,
        followup_plan().len()
    );
    drop(agency); // the kill: only on-disk state survives

    // --- A fresh process resumes the whole agency. ---
    let mut agency = AgencyStore::open(&killed_dir).unwrap();
    let resumed = agency
        .run_season("followup", &dataset, &followup_plan())
        .unwrap();
    println!(
        "resumed:    skipped {}, executed {}, {} tabulations computed ({} from truth store)",
        resumed.resumed_from,
        resumed.executed,
        resumed.tabulations_computed,
        resumed.tabulation_disk_hits
    );
    // Gate 3: resume skipped the persisted release, executed the rest,
    // and recomputed *nothing* — every truth came from the store.
    assert_eq!(resumed.resumed_from, 1);
    assert_eq!(resumed.executed, 1);
    assert_eq!(resumed.tabulations_computed, 0, "resume re-tabulated");
    assert_eq!(resumed.tabulation_disk_hits, 1);

    // ε was never re-spent, and the artifacts are byte-identical to the
    // uninterrupted run's, season by season.
    for name in ["annual", "followup"] {
        let season = agency.open_season(name).unwrap();
        assert!(season.ledger().remaining_epsilon() < 1e-9);
        let x = artifact_bytes(&oneshot_dir.join("seasons").join(name));
        let y = artifact_bytes(&killed_dir.join("seasons").join(name));
        assert_eq!(x, y, "season `{name}` artifacts must be byte-identical");
    }
    println!("verified:   resumed artifacts byte-identical; no eps re-spent");

    // A tampered season ledger refuses the whole agency. (Drop the live
    // handle first: its write lease would otherwise refuse the reopen
    // before verification even looks at the ledgers.)
    drop(agency);
    let ledger_path = killed_dir
        .join("seasons")
        .join("annual")
        .join("ledger.json");
    let original = fs::read_to_string(&ledger_path).unwrap();
    let tampered = original.replace("\"spent_epsilon\":3.0", "\"spent_epsilon\":0.5");
    assert_ne!(tampered, original, "the tamper must change the ledger");
    fs::write(&ledger_path, tampered).unwrap();
    match AgencyStore::open(&killed_dir) {
        Err(e) => println!("tampered:   agency refused to open — {e}"),
        Ok(_) => panic!("tampered season ledger must refuse the agency"),
    }

    fs::remove_dir_all(&base).unwrap();
}
