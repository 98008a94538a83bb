//! The chaos sweep: fault-inject **every** syscall boundary of the full
//! durability protocol and prove the global invariant.
//!
//! The scenario is the whole lifecycle — create agency → reserve season →
//! release (persist artifacts + truths) → cache-publish → resume from a
//! fresh handle → close the season with a meta-ledger refund. Pass one
//! runs it fault-free under [`chaos::arm_count`] to *count* the syscall
//! boundaries it crosses (coverage is the counted denominator, not a
//! hand-picked list). Pass two re-runs it once per boundary × fault mode:
//! an injected I/O error (destructors run) and an injected kill (the
//! process "dies" holding its leases, like `kill -9`).
//!
//! After every fault, a recovery run — the "next process" — must complete
//! the identical scenario, and the resulting store must satisfy:
//!
//! * it opens cleanly, repairing whatever the fault left behind:
//!   half-written temp files, stale leases, an artifact ahead of its
//!   ledger, a refund frozen between close-begin and close-seal;
//! * every season body matches its commit record
//!   (`SeasonStore::verify_bodies`);
//! * replayed budget totals equal the fault-free baseline — never above
//!   the cap, never missing an admitted charge, refund credited exactly
//!   once;
//! * every released artifact is bit-identical to the baseline's;
//! * no orphaned `.tmp` file survives anywhere in the tree.

use eree_core::chaos::{self, FaultMode};
use eree_core::store::StoreError;
use eree_core::{AgencyStore, MechanismKind, PrivacyParams, ReleaseKey, ReleaseRequest};
use lodes::{Dataset, Generator, GeneratorConfig};
use std::collections::BTreeMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use tabulate::{workload1, workload3};

const SEASON: &str = "s";

fn tmp_dir(name: &str) -> PathBuf {
    // Keyed by PID so two sweeps (e.g. debug and release profiles) can
    // run concurrently without clobbering each other's directories.
    let dir = std::env::temp_dir().join(format!("eree-chaos-sweep-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn plan() -> Vec<ReleaseRequest> {
    vec![
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .seed(7),
        ReleaseRequest::marginal(workload3())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .seed(8),
    ]
}

/// One full lifecycle, written to be re-runnable: every step either makes
/// progress or recognizes the progress a previous (possibly killed) run
/// already made — exactly the recovery discipline a real operator retry
/// loop follows.
fn scenario(root: &Path, dataset: &Dataset) -> Result<f64, StoreError> {
    let cap = PrivacyParams::pure(0.1, 8.0);
    let mut agency = AgencyStore::open_or_create(root, cap)?;
    if agency.meta_ledger().closure(SEASON).is_none() {
        drop(agency.open_or_create_season(SEASON, PrivacyParams::pure(0.1, 5.0))?);
        agency.run_season(SEASON, dataset, &plan())?;
        // Cache-publish every completed artifact (what the service does
        // after a release lands).
        let digest = agency
            .dataset_digest()
            .expect("run_season binds the dataset");
        let cache = agency.release_cache()?;
        let season = agency.open_season(SEASON)?;
        for index in 0..season.releases().len() {
            let artifact = season.load_artifact(index)?;
            if let Some(key) = ReleaseKey::of(&artifact.request, digest) {
                cache.save(&key, &artifact)?;
            }
        }
    }
    // Resume from a fresh handle — the reopen path is part of the swept
    // surface — then close the season, refunding the unspent remainder.
    drop(agency);
    let mut agency = AgencyStore::open(root)?;
    let receipt = agency.close_season(SEASON)?;
    Ok(receipt.refund_epsilon)
}

/// The durable end state a completed scenario must always reach,
/// independent of what faults happened along the way.
#[derive(Debug)]
struct EndState {
    remaining_epsilon: f64,
    refunded_epsilon: f64,
    spent_epsilon: f64,
    artifacts: BTreeMap<String, Vec<u8>>,
    truth_entries: usize,
    cache_entries: usize,
    /// Replay-derived metrics: total accepted releases and family-summed
    /// ε spend, as the reopened agency rebuilt them from its ledgers.
    /// Counted once per admitted release however many faults and resumes
    /// happened — never double-counted, never lost.
    metrics_accepted: u64,
    metrics_epsilon_spent: f64,
}

fn walk_tmp_files(dir: &Path, found: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            walk_tmp_files(&path, found);
        } else if path.to_string_lossy().ends_with(".tmp") {
            found.push(path);
        }
    }
}

fn inspect(root: &Path) -> EndState {
    let agency = AgencyStore::open(root).expect("recovered agency must open cleanly");
    let summary = agency
        .seasons()
        .iter()
        .find(|s| s.name == SEASON)
        .expect("the season is reserved")
        .clone();
    assert!(summary.closed, "the season must end closed");
    assert!(
        agency.spent_epsilon() <= agency.cap().epsilon,
        "spent ε exceeds the cap"
    );
    let truth_entries = agency
        .truth_store_pinned(agency.dataset_digest().expect("dataset is bound"))
        .expect("truth store opens")
        .len();
    let cache_entries = agency.release_cache().expect("cache opens").len();
    // Open checks commit records, not bodies: read every body against its
    // record too (`SeasonStore::verify_bodies`, the full-scan audit).
    let failed = agency
        .open_season(SEASON)
        .expect("the recovered season opens")
        .verify_bodies();
    assert!(
        failed.is_empty(),
        "bodies fail their commit records: {failed:?}"
    );
    let mut artifacts = BTreeMap::new();
    let artifacts_dir = root.join("seasons").join(SEASON).join("artifacts");
    for entry in fs::read_dir(&artifacts_dir)
        .expect("artifacts dir exists")
        .filter_map(Result::ok)
    {
        artifacts.insert(
            entry.file_name().to_string_lossy().into_owned(),
            fs::read(entry.path()).expect("artifact readable"),
        );
    }
    // The reopened agency's metrics must agree with the ledgers they
    // mirror, bit for bit — the gauges are refreshed from the replayed
    // meta-ledger, the accepted totals rebuilt from the persisted
    // releases.
    let snapshot = agency.metrics_snapshot();
    assert_eq!(
        snapshot.epsilon_remaining.to_bits(),
        agency.remaining_epsilon().to_bits(),
        "metrics remaining-ε gauge disagrees with the meta-ledger replay"
    );
    assert_eq!(
        snapshot.epsilon_refunded.to_bits(),
        agency.refunded_epsilon().to_bits(),
        "metrics refunded-ε gauge disagrees with the meta-ledger replay"
    );
    let metrics_accepted: u64 = snapshot.families.iter().map(|f| f.accepted_total).sum();
    assert_eq!(
        metrics_accepted as usize,
        artifacts.len(),
        "metrics accepted totals disagree with the persisted artifacts"
    );
    let state = EndState {
        remaining_epsilon: agency.remaining_epsilon(),
        refunded_epsilon: agency.refunded_epsilon(),
        spent_epsilon: summary.spent_epsilon,
        artifacts,
        truth_entries,
        cache_entries,
        metrics_accepted,
        metrics_epsilon_spent: snapshot.epsilon_spent,
    };
    drop(agency);
    // Opening swept every orphaned temp file; none may survive anywhere.
    let mut stray = Vec::new();
    walk_tmp_files(root, &mut stray);
    assert!(stray.is_empty(), "orphaned temp files survived: {stray:?}");
    state
}

fn assert_matches_baseline(end: &EndState, baseline: &EndState, context: &str) {
    let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
    assert!(
        close(end.remaining_epsilon, baseline.remaining_epsilon),
        "{context}: remaining ε {} != baseline {}",
        end.remaining_epsilon,
        baseline.remaining_epsilon
    );
    assert!(
        close(end.refunded_epsilon, baseline.refunded_epsilon),
        "{context}: refunded ε {} != baseline {}",
        end.refunded_epsilon,
        baseline.refunded_epsilon
    );
    assert!(
        close(end.spent_epsilon, baseline.spent_epsilon),
        "{context}: an admitted charge was lost or double-counted \
         (spent {} vs baseline {})",
        end.spent_epsilon,
        baseline.spent_epsilon
    );
    assert_eq!(
        end.artifacts.keys().collect::<Vec<_>>(),
        baseline.artifacts.keys().collect::<Vec<_>>(),
        "{context}: artifact set diverged"
    );
    for (name, bytes) in &end.artifacts {
        assert_eq!(
            bytes, &baseline.artifacts[name],
            "{context}: artifact {name} is not bit-identical to the baseline"
        );
    }
    assert_eq!(
        end.truth_entries, baseline.truth_entries,
        "{context}: truth store diverged"
    );
    assert_eq!(
        end.cache_entries, baseline.cache_entries,
        "{context}: release cache diverged"
    );
    assert_eq!(
        end.metrics_accepted, baseline.metrics_accepted,
        "{context}: a metrics admission count was lost or double-counted"
    );
    assert!(
        close(end.metrics_epsilon_spent, baseline.metrics_epsilon_spent),
        "{context}: metrics ε-spend {} != baseline {}",
        end.metrics_epsilon_spent,
        baseline.metrics_epsilon_spent
    );
}

#[test]
fn every_boundary_errors_and_kills_recover_to_the_baseline() {
    chaos::silence_kill_panics();
    let dataset = Generator::new(GeneratorConfig::test_small(17)).generate();

    // Pass one: count the boundaries of a fault-free run, and capture the
    // end state every faulted run must recover to.
    let base_root = tmp_dir("baseline");
    chaos::arm_count();
    let refund = scenario(&base_root, &dataset).expect("fault-free scenario");
    let census = chaos::disarm();
    assert!(!census.tripped);
    let boundaries = census.boundaries;
    // Counted coverage, not a hand-picked list: the denominator is what
    // the code actually crossed, and it must span every layer and every
    // kind of durable mutation in the protocol.
    assert!(
        boundaries >= 40,
        "expected a rich boundary census, counted {boundaries}: {:?}",
        census.sites
    );
    assert_eq!(boundaries as usize, census.sites.len());
    println!(
        "chaos sweep: {boundaries} syscall boundaries, {} faulted runs",
        2 * boundaries
    );
    for needle in [
        "agency.json",      // agency manifest
        "meta_ledger.json", // reservation + refund records
        "season.json",      // season manifest (incl. the close seal)
        "ledger.json",      // season spend ledger
        "000000.json",      // a persisted release artifact
        "truths/",          // persisted confidential truths
        "public/",          // released-artifact cache entries
        "agency.lock",      // agency write lease
        "season.lock",      // season write lease
    ] {
        assert!(
            census.sites.iter().any(|s| s.contains(needle)),
            "no syscall boundary touches {needle}; sites: {:?}",
            census.sites
        );
    }
    // Counters live for the process: none is written to disk.
    assert!(
        !census.sites.iter().any(|s| s.contains("metrics")),
        "a syscall boundary writes metrics; sites: {:?}",
        census.sites
    );
    for op in [
        "rename:",
        "create_dir_all:",
        "create:",
        "create_new:",
        "write:",
        "sync:",
    ] {
        assert!(
            census.sites.iter().any(|s| s.starts_with(op)),
            "no boundary of kind {op}; sites: {:?}",
            census.sites
        );
    }
    let baseline = inspect(&base_root);
    assert!((baseline.refunded_epsilon - refund).abs() < 1e-9);
    fs::remove_dir_all(&base_root).unwrap();

    // Pass two: for every boundary k, inject each fault mode at exactly
    // the k-th boundary, then recover as the "next process".
    for k in 1..=boundaries {
        for (mode_ix, mode) in [FaultMode::Error, FaultMode::Kill].into_iter().enumerate() {
            let context = format!("boundary {k}/{boundaries} {mode:?}");
            let root = tmp_dir(&format!("k{k}-m{mode_ix}"));
            // The faulted run gets a fake process identity so a kill can
            // leave provably-dead leases behind inside this one test
            // process.
            let pid = 0x4000_0000 + (k as u32) * 2 + mode_ix as u32;
            chaos::set_lease_pid(pid);
            chaos::arm(k, mode);
            let outcome = catch_unwind(AssertUnwindSafe(|| scenario(&root, &dataset)));
            let report = chaos::disarm();
            chaos::clear_lease_pid();
            assert!(report.tripped, "{context}: the armed fault never fired");
            match (mode, &outcome) {
                // A kill always unwinds out of the scenario, leaving the
                // crashed flag set (leases stay behind).
                (FaultMode::Kill, Ok(_)) => panic!("{context}: scenario survived a kill"),
                (FaultMode::Kill, Err(_)) => assert!(chaos::crashed()),
                // An injected error must surface as a typed error (or be
                // absorbed by a best-effort cleanup such as the tmp
                // sweep) — never as a panic.
                (FaultMode::Error, Err(_)) => {
                    panic!("{context}: injected error caused a panic")
                }
                (FaultMode::Error, Ok(_)) => {}
            }
            chaos::clear_crashed();
            // Recovery: a fresh "process" (real PID, no faults armed)
            // re-runs the identical scenario to completion.
            let recovered = scenario(&root, &dataset)
                .unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
            assert!(
                (recovered - refund).abs() < 1e-9,
                "{context}: recovered refund {recovered} != baseline {refund}"
            );
            let end = inspect(&root);
            assert_matches_baseline(&end, &baseline, &context);
            fs::remove_dir_all(&root).unwrap();
        }
    }
}
