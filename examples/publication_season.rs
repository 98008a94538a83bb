//! A killable, resumable publication season.
//!
//! A statistical agency's season is an ordered plan of releases spending
//! one season-long `(α, ε, δ)` budget (sequential composition, Thm 7.3).
//! At national scale the season runs for hours, so the process executing
//! it will eventually die partway. This example persists every release
//! through a `SeasonStore` and shows that:
//!
//! 1. a run killed after the first two releases resumes from disk,
//!    executing only the remainder — no ε is ever re-spent;
//! 2. the resumed season's artifacts are byte-for-byte identical to an
//!    uninterrupted run's (noise streams derive from `(seed, cell key)`);
//! 3. a tampered ledger snapshot refuses to resume at all.
//!
//! Run: `cargo run --release --example publication_season`

use eree::prelude::*;
use std::fs;
use std::path::Path;

fn season_plan() -> Vec<ReleaseRequest> {
    let county = MarginalSpec::new(vec![WorkplaceAttr::County], vec![]);
    vec![
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .describe("Q1: place x naics x ownership")
            .seed(1),
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .describe("Q2: same marginal, tighter re-release")
            .seed(2),
        ReleaseRequest::marginal(workload3())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 8.0))
            .describe("Q3: ... x sex x education")
            .seed(3),
        ReleaseRequest::marginal(county)
            .mechanism(MechanismKind::SmoothLaplace)
            .budget(PrivacyParams::approximate(0.1, 1.0, 0.05))
            .describe("Q4: county marginal")
            .seed(4),
    ]
}

fn artifact_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = fs::read_dir(dir.join("artifacts"))
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
    let dataset = Generator::new(GeneratorConfig::test_small(77)).generate();
    let budget = PrivacyParams::approximate(0.1, 12.0, 0.05);
    let plan = season_plan();
    let data = Snapshot::of(&dataset);

    let base = std::env::temp_dir().join("eree-publication-season");
    let interrupted_dir = base.join("interrupted");
    let oneshot_dir = base.join("oneshot");
    let _ = fs::remove_dir_all(&base);

    // --- Reference: the season, uninterrupted. ---
    let mut oneshot = SeasonStore::create(&oneshot_dir, budget).unwrap();
    let report = oneshot
        .run(data, &plan, &mut TabulationCache::new())
        .unwrap();
    println!(
        "one-shot run:  executed {} releases, {} tabulations ({} served from cache)",
        report.executed, report.tabulations_computed, report.tabulation_hits
    );

    // --- The same season, killed after two releases. ---
    let mut store = SeasonStore::create(&interrupted_dir, budget).unwrap();
    store
        .run(data, &plan[..2], &mut TabulationCache::new())
        .unwrap();
    println!(
        "interrupted:   {} of {} releases persisted, eps spent {:.2} — process dies here",
        store.completed(),
        plan.len(),
        store.ledger().spent_epsilon()
    );
    drop(store); // the kill: only the on-disk state survives

    // --- A fresh process resumes from disk. ---
    let mut store = SeasonStore::open(&interrupted_dir).unwrap();
    let report = store.run(data, &plan, &mut TabulationCache::new()).unwrap();
    println!(
        "resumed:       skipped {} persisted releases, executed the remaining {}",
        report.resumed_from, report.executed
    );
    println!(
        "               eps spent {:.2} of {:.2} (nothing re-spent), remaining {:.2}",
        store.ledger().spent_epsilon(),
        budget.epsilon,
        store.ledger().remaining_epsilon()
    );

    // --- The interrupted-and-resumed season is bit-identical. ---
    let a = artifact_bytes(&oneshot_dir);
    let b = artifact_bytes(&interrupted_dir);
    assert_eq!(a, b, "resumed artifacts must be byte-identical");
    println!(
        "verified:      all {} artifact files byte-identical to the one-shot run",
        a.len()
    );

    // --- A tampered ledger cannot resume. (Drop the live handle first:
    // its write lease would otherwise refuse the reopen before
    // verification even looks at the ledger.) ---
    drop(store);
    let ledger_path = interrupted_dir.join("ledger.json");
    let original = fs::read_to_string(&ledger_path).unwrap();
    let tampered = original.replace("\"spent_epsilon\":12.0", "\"spent_epsilon\":1.0");
    assert_ne!(tampered, original, "the tamper must change the ledger");
    fs::write(&ledger_path, tampered).unwrap();
    match SeasonStore::open(&interrupted_dir) {
        Err(e @ StoreError::Corrupt { .. }) => println!("tampered:      refused to resume — {e}"),
        Err(e) => panic!("tampered ledger refused for another reason: {e}"),
        Ok(_) => panic!("tampered ledger must not open"),
    }

    fs::remove_dir_all(&base).unwrap();
}
