//! Integration tests for the publication-season store: kill/resume
//! bit-identity, crash-window repair, and refusal of corrupted,
//! tampered, inconsistent, or re-planned stores.

use eree::prelude::*;
use eree_core::{ReleaseCache, ReleaseKey};
use lodes::{Dataset, DatasetPanel, PanelConfig};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("store-resume-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn dataset() -> Dataset {
    Generator::new(GeneratorConfig::test_small(41)).generate()
}

/// Run (or resume) `plan` on `store` over `d` through a fresh
/// memory-only tabulation cache.
fn run(
    store: &mut SeasonStore,
    d: &Dataset,
    plan: &[ReleaseRequest],
) -> Result<SeasonReport, StoreError> {
    store.run(Snapshot::of(d), plan, &mut TabulationCache::new())
}

fn budget() -> PrivacyParams {
    PrivacyParams::pure(0.1, 11.0)
}

/// A three-release season; the first two share the Workload 1 tabulation.
fn plan() -> Vec<ReleaseRequest> {
    vec![
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .describe("R0: workload1 smooth-gamma")
            .seed(1),
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .describe("R1: workload1 log-laplace")
            .seed(2),
        ReleaseRequest::marginal(workload3())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 8.0))
            .describe("R2: workload3 log-laplace")
            .seed(3),
    ]
}

fn sorted_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut paths: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                fs::read(&p).unwrap(),
            )
        })
        .collect()
}

#[test]
fn interrupted_season_resumes_bit_identically() {
    let d = dataset();
    let plan = plan();

    // Reference: uninterrupted season.
    let full_dir = test_dir("bitident-full");
    let mut full = SeasonStore::create(&full_dir, budget()).unwrap();
    let report = run(&mut full, &d, &plan).unwrap();
    assert_eq!(report.executed, 3);
    assert_eq!(report.tabulations_computed, 2, "W1 shared, W3 computed");
    assert_eq!(report.tabulation_hits, 1);

    // Killed after one release, then resumed by a fresh process.
    let cut_dir = test_dir("bitident-cut");
    let mut cut = SeasonStore::create(&cut_dir, budget()).unwrap();
    run(&mut cut, &d, &plan[..1]).unwrap();
    assert_eq!(cut.completed(), 1);
    drop(cut); // the kill

    let mut resumed = SeasonStore::open(&cut_dir).unwrap();
    assert_eq!(resumed.completed(), 1);
    let report = run(&mut resumed, &d, &plan).unwrap();
    assert_eq!(report.resumed_from, 1);
    assert_eq!(report.executed, 2);

    // Bit-identical artifacts and ledger, identical remaining budget.
    assert_eq!(
        sorted_files(&full_dir.join("artifacts")),
        sorted_files(&cut_dir.join("artifacts"))
    );
    assert_eq!(
        fs::read(full_dir.join("ledger.json")).unwrap(),
        fs::read(cut_dir.join("ledger.json")).unwrap()
    );
    assert_eq!(
        resumed.ledger().remaining_epsilon(),
        full.ledger().remaining_epsilon()
    );
    assert_eq!(resumed.ledger().spent_epsilon(), 11.0);

    fs::remove_dir_all(full_dir).unwrap();
    fs::remove_dir_all(cut_dir).unwrap();
}

#[test]
fn corrupted_or_tampered_stores_refuse_to_open() {
    let d = dataset();
    let plan = plan();
    let dir = test_dir("tampered");
    let mut store = SeasonStore::create(&dir, budget()).unwrap();
    run(&mut store, &d, &plan[..2]).unwrap();
    drop(store);
    let ledger_path = dir.join("ledger.json");
    let pristine = fs::read_to_string(&ledger_path).unwrap();

    // Unparseable ledger: refused as corrupt.
    fs::write(&ledger_path, &pristine[..pristine.len() / 2]).unwrap();
    assert!(matches!(
        SeasonStore::open(&dir),
        Err(StoreError::Corrupt { .. })
    ));

    // Understated spend (trying to resume with more budget than is left):
    // the replay cross-check inside ledger deserialization refuses.
    let tampered = pristine.replace("\"spent_epsilon\":3.0", "\"spent_epsilon\":1.0");
    assert_ne!(tampered, pristine);
    fs::write(&ledger_path, &tampered).unwrap();
    assert!(matches!(
        SeasonStore::open(&dir),
        Err(StoreError::Corrupt { .. })
    ));

    // Inflated budget: the ledger no longer matches the season manifest.
    let tampered = pristine.replacen("\"epsilon\":11.0", "\"epsilon\":100.0", 1);
    assert_ne!(tampered, pristine);
    fs::write(&ledger_path, &tampered).unwrap();
    assert!(matches!(
        SeasonStore::open(&dir),
        Err(StoreError::Inconsistent { .. })
    ));

    // A commit record's description is the charge's only copy: renamed,
    // the season still replays and opens, and the record then disagrees
    // with its body when the body is read.
    let at = pristine.find("R1: workload1 log-laplace").unwrap();
    let mut tampered = pristine.clone();
    tampered.replace_range(at..at + 2, "R9");
    fs::write(&ledger_path, &tampered).unwrap();
    let store = SeasonStore::open(&dir).expect("a renamed charge still replays");
    match store.load_artifact(1) {
        Err(StoreError::Corrupt { detail, .. }) => {
            assert!(detail.contains("commit record 1"), "{detail}")
        }
        other => panic!("expected a record/body refusal, got {other:?}"),
    }
    drop(store);

    // Restored pristine state opens again.
    fs::write(&ledger_path, &pristine).unwrap();
    let store = SeasonStore::open(&dir).unwrap();
    assert_eq!(store.completed(), 2);
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn artifact_gaps_and_strays_are_refused() {
    let d = dataset();
    let dir = test_dir("gaps");
    let mut store = SeasonStore::create(&dir, budget()).unwrap();
    run(&mut store, &d, &plan()[..2]).unwrap();
    drop(store);

    // Deleting the first artifact leaves a gap: 000001.json without
    // 000000.json can never be trusted as a contiguous season.
    fs::remove_file(dir.join("artifacts").join("000000.json")).unwrap();
    assert!(matches!(
        SeasonStore::open(&dir),
        Err(StoreError::Inconsistent { .. })
    ));

    // A stray non-artifact file is refused as corrupt, not ignored.
    fs::write(dir.join("artifacts").join("notes.json"), "{}").unwrap();
    assert!(matches!(
        SeasonStore::open(&dir),
        Err(StoreError::Corrupt { .. })
    ));
    fs::remove_file(dir.join("artifacts").join("notes.json")).unwrap();

    // A non-zero-padded name is refused even when its index would parse.
    fs::copy(
        dir.join("artifacts").join("000001.json"),
        dir.join("artifacts").join("0.json"),
    )
    .unwrap();
    assert!(matches!(
        SeasonStore::open(&dir),
        Err(StoreError::Corrupt { .. })
    ));
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn crash_between_artifact_and_ledger_snapshot_rolls_forward() {
    let d = dataset();
    let plan = plan();

    // Reference store: both releases fully recorded.
    let ref_dir = test_dir("crashwin-ref");
    let mut reference = SeasonStore::create(&ref_dir, budget()).unwrap();
    run(&mut reference, &d, &plan[..2]).unwrap();

    // Crashed store: artifact 1 landed but its ledger snapshot did not
    // (the artifact-first write protocol's only in-between state).
    let crash_dir = test_dir("crashwin");
    let mut crashed = SeasonStore::create(&crash_dir, budget()).unwrap();
    run(&mut crashed, &d, &plan[..1]).unwrap();
    drop(crashed);
    fs::copy(
        ref_dir.join("artifacts").join("000001.json"),
        crash_dir.join("artifacts").join("000001.json"),
    )
    .unwrap();

    // Open rolls the ledger forward from the artifact's recorded cost…
    let mut repaired = SeasonStore::open(&crash_dir).unwrap();
    assert_eq!(repaired.completed(), 2);
    assert_eq!(
        repaired.ledger().spent_epsilon(),
        reference.ledger().spent_epsilon()
    );
    // …persisting the repaired snapshot bit-identically to the reference.
    assert_eq!(
        fs::read(crash_dir.join("ledger.json")).unwrap(),
        fs::read(ref_dir.join("ledger.json")).unwrap()
    );
    // The season then resumes as if the crash never happened.
    let report = run(&mut repaired, &d, &plan).unwrap();
    assert_eq!(report.resumed_from, 2);
    assert_eq!(report.executed, 1);
    fs::remove_dir_all(crash_dir).unwrap();

    // A crash-window store whose last body cannot roll forward — its
    // cost overdraws the season's budget — is refused, and the refused
    // open leaves every byte untouched (no half-applied roll-forward).
    // Body 1 comes from a season with room for it: R0 (2.0) and R1 (1.0)
    // overdraw a 2.5 budget.
    let bad_dir = test_dir("crashwin-bad");
    let mut bad = SeasonStore::create(&bad_dir, PrivacyParams::pure(0.1, 2.5)).unwrap();
    run(&mut bad, &d, &plan[..1]).unwrap();
    drop(bad);
    fs::copy(
        ref_dir.join("artifacts").join("000001.json"),
        bad_dir.join("artifacts").join("000001.json"),
    )
    .unwrap();
    let ledger_before = fs::read(bad_dir.join("ledger.json")).unwrap();
    match SeasonStore::open(&bad_dir) {
        Err(StoreError::Inconsistent { detail }) => {
            assert!(detail.contains("rolling the ledger forward"), "{detail}")
        }
        other => panic!("expected an overdraw refusal, got {other:?}"),
    }
    assert_eq!(
        fs::read(bad_dir.join("ledger.json")).unwrap(),
        ledger_before,
        "a refused open must not modify the store"
    );
    fs::remove_dir_all(ref_dir).unwrap();
    fs::remove_dir_all(bad_dir).unwrap();
}

/// Every file under `dir`, recursively, in path order.
fn tree_files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(next) = pending.pop() {
        for entry in fs::read_dir(next).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                files.push((path.clone(), fs::read(&path).unwrap()));
            }
        }
    }
    files.sort();
    files
}

/// Every file of a season directory, in path order.
fn season_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files = vec![
        (
            "season.json".to_string(),
            fs::read(dir.join("season.json")).unwrap(),
        ),
        (
            "ledger.json".to_string(),
            fs::read(dir.join("ledger.json")).unwrap(),
        ),
    ];
    files.extend(sorted_files(&dir.join("artifacts")));
    files
}

/// `ledger.json` is the season budget, the spent totals and the commit
/// records — each charge stored once. Open rebuilds the ledger by
/// replaying the records' costs under the budget and checks the recorded
/// totals against the replay, so each single-value fault below refuses
/// the open and leaves every byte as it was; a renamed charge replays,
/// and its body read is what refuses it. An untouched file reopens to the
/// ledger the season charged, which keeps enforcing its budget.
#[test]
fn single_value_ledger_faults_are_refused() {
    let d = dataset();
    let plan = plan();
    let dir = test_dir("ledger-faults");
    let mut store = SeasonStore::create(&dir, budget()).unwrap();
    run(&mut store, &d, &plan[..2]).unwrap();
    let live = store.ledger().clone();
    drop(store);
    let ledger_path = dir.join("ledger.json");
    let pristine = read_value(&ledger_path);
    let serde::Value::Map(fields) = &pristine else {
        panic!("a ledger file is an object")
    };
    let names: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(names, ["budget", "spent_epsilon", "spent_delta", "commits"]);

    let reopened = SeasonStore::open(&dir).unwrap();
    let ledger = reopened.ledger();
    assert_eq!(ledger.budget(), live.budget());
    assert_eq!(ledger.entries().len(), 2);
    assert_eq!(
        ledger.spent_epsilon().to_bits(),
        live.spent_epsilon().to_bits()
    );
    assert_eq!(ledger.spent_delta().to_bits(), live.spent_delta().to_bits());
    assert_eq!(ledger.remaining_epsilon(), 8.0);
    let mut engine = reopened.engine();
    let overdraw = ReleaseRequest::marginal(workload3())
        .mechanism(MechanismKind::LogLaplace)
        .budget(PrivacyParams::pure(0.1, 8.5))
        .seed(4);
    let data = TruthSource::Tabulate {
        data: Snapshot::of(&d),
        cache: &mut TabulationCache::new(),
    };
    assert!(engine.execute(&overdraw, data).is_err(), "8.5 > the 8 left");
    drop(reopened);

    fn commit_epsilon(ledger: &mut serde::Value) -> &mut serde::Value {
        field_mut(field_mut(commit_mut(ledger, 1), "cost"), "epsilon")
    }
    fn budget_epsilon(ledger: &mut serde::Value) -> &mut serde::Value {
        field_mut(field_mut(ledger, "budget"), "epsilon")
    }
    /// Damages one value of a parsed `ledger.json`.
    type Fault = fn(&mut serde::Value);
    let faults: [(&str, Fault); 5] = [
        ("a commit's cost alone", |v| {
            *commit_epsilon(v) = serde::Value::F64(1.5)
        }),
        ("the recorded total alone", |v| {
            *field_mut(v, "spent_epsilon") = serde::Value::F64(2.5)
        }),
        ("a cost raised past the budget, totals to match", |v| {
            *commit_epsilon(v) = serde::Value::F64(20.0);
            *field_mut(v, "spent_epsilon") = serde::Value::F64(22.0);
        }),
        ("the budget raised alone", |v| {
            *budget_epsilon(v) = serde::Value::F64(12.0)
        }),
        ("the budget cut below the spend alone", |v| {
            *budget_epsilon(v) = serde::Value::F64(2.5)
        }),
    ];
    for (fault, apply) in faults {
        let mut tampered = pristine.clone();
        apply(&mut tampered);
        write_value(&ledger_path, &tampered);
        let before = season_files(&dir);
        match SeasonStore::open(&dir) {
            Err(StoreError::Corrupt { .. } | StoreError::Inconsistent { .. }) => {}
            other => panic!("{fault}: expected a refusal, got {other:?}"),
        }
        assert_eq!(
            season_files(&dir),
            before,
            "{fault}: a refused open writes nothing"
        );
    }

    // A renamed charge: the replay is unchanged, so the season opens, and
    // the record no longer describes its body.
    let mut renamed = pristine.clone();
    *field_mut(
        field_mut(commit_mut(&mut renamed, 1), "request"),
        "description",
    ) = serde::Value::Str("R9: renamed".to_string());
    write_value(&ledger_path, &renamed);
    let store = SeasonStore::open(&dir).expect("a renamed charge replays");
    assert!(matches!(
        store.load_artifact(1),
        Err(StoreError::Corrupt { .. })
    ));
    let failed: Vec<usize> = store.verify_bodies().into_iter().map(|(i, _)| i).collect();
    assert_eq!(failed, [1]);
    drop(store);
    fs::remove_dir_all(dir).unwrap();
}

/// Open checks commit records and reads no body; a body is checked when
/// it is read. So a season with a tampered body — here artifact 0's
/// recorded cost — opens, and the body then fails `load_artifact` and the
/// `verify_bodies` audit, which name it.
#[test]
fn tampered_bodies_fail_their_read_and_the_audit_not_open() {
    let d = dataset();
    let dir = test_dir("tampered-body");
    let mut store = SeasonStore::create(&dir, budget()).unwrap();
    run(&mut store, &d, &plan()[..2]).unwrap();
    assert!(store.verify_bodies().is_empty());
    drop(store);
    let artifact0 = dir.join("artifacts").join("000000.json");
    let text = fs::read_to_string(&artifact0).unwrap();
    let tampered = text.replace("\"epsilon\":2.0", "\"epsilon\":0.25");
    assert_ne!(tampered, text);
    fs::write(&artifact0, &tampered).unwrap();
    let ledger_before = fs::read(dir.join("ledger.json")).unwrap();

    let store = SeasonStore::open(&dir).expect("open reads no body");
    assert_eq!(store.completed(), 2);
    assert!(matches!(
        store.load_artifact(0),
        Err(StoreError::Corrupt { .. })
    ));
    store
        .load_artifact(1)
        .expect("an untouched body still reads");
    let failed: Vec<usize> = store.verify_bodies().into_iter().map(|(i, _)| i).collect();
    assert_eq!(failed, [0]);
    assert_eq!(
        fs::read(dir.join("ledger.json")).unwrap(),
        ledger_before,
        "reads and audits never write"
    );

    // A body whose bytes match its record's digest but whose record was
    // rewritten to match a forged body is still caught: the parsed
    // provenance and cost must equal the record.
    drop(store);
    fs::write(&artifact0, &text).unwrap();
    let ledger = fs::read_to_string(dir.join("ledger.json")).unwrap();
    let forged_digest = fnv1a(tampered.as_bytes());
    let value: serde::Value = serde_json::from_str(&ledger).unwrap();
    let commits = value.get("commits").unwrap();
    let serde::Value::Seq(records) = commits else {
        panic!("commit records are a list")
    };
    let Some(serde::Value::U64(digest0)) = records[0].get("digest") else {
        panic!("a commit record holds its digest")
    };
    let forged = ledger.replacen(
        &format!("\"digest\":{digest0}"),
        &format!("\"digest\":{forged_digest}"),
        1,
    );
    assert_ne!(forged, ledger);
    fs::write(dir.join("ledger.json"), forged).unwrap();
    fs::write(&artifact0, &tampered).unwrap();
    let store = SeasonStore::open(&dir).unwrap();
    match store.load_artifact(0) {
        Err(StoreError::Corrupt { detail, .. }) => {
            assert!(detail.contains("commit record 0"), "{detail}")
        }
        other => panic!("expected a provenance/cost refusal, got {other:?}"),
    }
    drop(store);
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn resuming_under_a_different_plan_is_refused() {
    let d = dataset();
    let plan = plan();
    let dir = test_dir("replanned");
    let mut store = SeasonStore::create(&dir, budget()).unwrap();
    run(&mut store, &d, &plan[..1]).unwrap();

    // Same description, different seed: the persisted artifact's
    // provenance no longer matches the plan's first request.
    let mut reseeded = plan.clone();
    reseeded[0] = ReleaseRequest::marginal(workload1())
        .mechanism(MechanismKind::SmoothGamma)
        .budget(PrivacyParams::pure(0.1, 2.0))
        .describe("R0: workload1 smooth-gamma")
        .seed(999);
    assert!(matches!(
        run(&mut store, &d, &reseeded),
        Err(StoreError::Inconsistent { .. })
    ));

    // A plan shorter than what is already persisted is refused too.
    assert!(matches!(
        run(&mut store, &d, &[]),
        Err(StoreError::Inconsistent { .. })
    ));

    // The original plan still resumes.
    let report = run(&mut store, &d, &plan).unwrap();
    assert_eq!(report.resumed_from, 1);
    assert_eq!(report.executed, 2);
    fs::remove_dir_all(dir).unwrap();
}

/// A filtered two-release plan whose sub-population is the declarative
/// `expr` (the S-prefixed canonical style: shared workload1 tabulation,
/// then the filtered county release).
fn filtered_plan(expr: FilterExpr) -> Vec<ReleaseRequest> {
    vec![
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .describe("F0: workload1 smooth-gamma")
            .seed(1),
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .filter_expr(expr)
            .describe("F1: workload1 sub-population")
            .seed(2),
    ]
}

#[test]
fn ast_filtered_season_resumes_bit_identically() {
    let d = dataset();
    let plan = filtered_plan(ranking2_expr());

    // Reference: uninterrupted season.
    let full_dir = test_dir("ast-full");
    let mut full = SeasonStore::create(&full_dir, budget()).unwrap();
    run(&mut full, &d, &plan).unwrap();
    drop(full);

    // Killed after the unfiltered release, resumed by a fresh process
    // with a *separately constructed* (but structurally equal) filter.
    let cut_dir = test_dir("ast-cut");
    let mut cut = SeasonStore::create(&cut_dir, budget()).unwrap();
    run(&mut cut, &d, &plan[..1]).unwrap();
    drop(cut);
    let mut cut = SeasonStore::open(&cut_dir).unwrap();
    let report = run(&mut cut, &d, &filtered_plan(ranking2_expr())).unwrap();
    assert_eq!((report.resumed_from, report.executed), (1, 1));

    // Every persisted byte agrees with the uninterrupted run.
    assert_eq!(
        sorted_files(&full_dir.join("artifacts")),
        sorted_files(&cut_dir.join("artifacts"))
    );
    // And the filter expression is part of the persisted provenance.
    let stored = cut.load_artifact(1).unwrap();
    assert_eq!(stored.request.filter_id(), Some(ranking2_expr().id()));
    fs::remove_dir_all(full_dir).unwrap();
    fs::remove_dir_all(cut_dir).unwrap();
}

#[test]
fn resuming_with_a_changed_filter_digest_is_refused() {
    let d = dataset();
    let dir = test_dir("refiltered");
    let mut store = SeasonStore::create(&dir, budget()).unwrap();
    run(&mut store, &d, &filtered_plan(ranking2_expr())).unwrap();
    drop(store);

    // Same plan shape, same descriptions and seeds — but the filter now
    // names a different population. The pre-AST `filtered` boolean could
    // not see this; the digest comparison must.
    let changed = FilterExpr::sex(lodes::Sex::Female);
    assert_ne!(changed.id(), ranking2_expr().id());
    let mut store = SeasonStore::open(&dir).unwrap();
    match run(&mut store, &d, &filtered_plan(changed)) {
        Err(StoreError::Inconsistent { detail }) => {
            assert!(detail.contains("digest"), "unexpected detail: {detail}");
        }
        other => panic!("expected Inconsistent, got {other:?}"),
    }

    // Dropping the filter from the plan entirely is a plan change too.
    let mut unfiltered = filtered_plan(ranking2_expr());
    unfiltered[1] = ReleaseRequest::marginal(workload1())
        .mechanism(MechanismKind::LogLaplace)
        .budget(PrivacyParams::pure(0.1, 1.0))
        .describe("F1: workload1 sub-population")
        .seed(2);
    assert!(matches!(
        run(&mut store, &d, &unfiltered),
        Err(StoreError::Inconsistent { .. })
    ));

    // And the other way round: an unfiltered stored release never
    // matches a filtered plan.
    let unf_dir = test_dir("refiltered-unfiltered");
    let mut unfiltered_store = SeasonStore::create(&unf_dir, budget()).unwrap();
    run(&mut unfiltered_store, &d, &unfiltered).unwrap();
    assert!(matches!(
        run(&mut unfiltered_store, &d, &filtered_plan(ranking2_expr())),
        Err(StoreError::Inconsistent { .. })
    ));
    fs::remove_dir_all(unf_dir).unwrap();

    // The original filter still resumes.
    let report = run(&mut store, &d, &filtered_plan(ranking2_expr())).unwrap();
    assert_eq!((report.resumed_from, report.executed), (2, 0));
    fs::remove_dir_all(dir).unwrap();
}

/// The named member of a JSON object.
fn field_mut<'a>(value: &'a mut serde::Value, name: &str) -> &'a mut serde::Value {
    let serde::Value::Map(fields) = value else {
        panic!("expected a JSON object holding `{name}`");
    };
    &mut fields
        .iter_mut()
        .find(|(key, _)| key == name)
        .unwrap_or_else(|| panic!("missing field `{name}`"))
        .1
}

/// Commit record `index` of a parsed `ledger.json`.
fn commit_mut(ledger: &mut serde::Value, index: usize) -> &mut serde::Value {
    let serde::Value::Seq(commits) = field_mut(ledger, "commits") else {
        panic!("commit records are a list")
    };
    &mut commits[index]
}

fn read_value(path: &Path) -> serde::Value {
    serde_json::from_str(&fs::read_to_string(path).unwrap()).unwrap()
}

fn write_value(path: &Path, value: &serde::Value) {
    fs::write(path, serde_json::to_string_pretty(value).unwrap()).unwrap();
}

/// Rewrite a serialized provenance into the format-1 layout, which
/// carried a `filtered` flag between `seed` and `filter`. A `closure`
/// release recorded `filtered: true` and no expression.
fn to_format1_provenance(provenance: &mut serde::Value, closure: bool) {
    let filtered = closure || !matches!(field_mut(provenance, "filter"), serde::Value::Null);
    if closure {
        *field_mut(provenance, "filter") = serde::Value::Null;
    }
    let serde::Value::Map(fields) = provenance else {
        unreachable!("field_mut checked the object");
    };
    let at = fields.iter().position(|(key, _)| key == "filter").unwrap();
    fields.insert(at, ("filtered".to_string(), serde::Value::Bool(filtered)));
}

/// FNV-1a, the public cache's content digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Stores and cache files written in format 1 (provenance with the
/// closure-era `filtered` flag), format-2 to format-4 seasons and a
/// format-1 agency are refused, never misread: the derived
/// provenance deserializer ignores unknown fields, so a format-1 closure
/// release (`filtered: true`, `filter: null`) would otherwise load as an
/// unfiltered one. A JSON truth (truth format 1) and a one-document cache
/// entry (cache format 2) read as misses too, and count as self-heals.
#[test]
fn format1_stores_and_cache_files_are_refused() {
    let d = dataset();
    let dir = test_dir("format1");
    let mut agency = AgencyStore::create(&dir, budget()).unwrap();
    agency
        .create_season("a", PrivacyParams::pure(0.1, 3.0))
        .unwrap();
    agency
        .run_season("a", &d, &filtered_plan(ranking2_expr()))
        .unwrap();
    let season_dir = dir.join("seasons").join("a");
    let filtered = agency.open_season("a").unwrap().load_artifact(1).unwrap();
    drop(agency);

    // A format-4 season and a format-1 agency pinned their dataset by the
    // older digest, so their pins name the same data by another value.
    // Each is refused as an unsupported format naming its file, before
    // anything is written — never as a wrong dataset.
    let refused =
        |file: &Path, store: &str, format: u64, open: &dyn Fn() -> Result<(), StoreError>| {
            let pristine = fs::read(file).unwrap();
            let mut value = read_value(file);
            *field_mut(&mut value, "format") = serde::Value::U64(format);
            let pin = field_mut(&mut value, "dataset_digest");
            let serde::Value::U64(digest) = *pin else {
                panic!("{} is pinned", file.display())
            };
            *pin = serde::Value::U64(!digest);
            write_value(file, &value);
            let before = tree_files(&dir);
            match open() {
                Err(StoreError::Corrupt { path, detail }) => {
                    assert_eq!(path, file);
                    let expected = format!("unsupported {store} format {format}");
                    assert!(detail.contains(&expected), "unexpected detail: {detail}");
                }
                other => panic!("expected an unsupported-format refusal, got {other:?}"),
            }
            assert_eq!(tree_files(&dir), before, "a refused open writes nothing");
            fs::write(file, pristine).unwrap();
        };
    let season_manifest = season_dir.join("season.json");
    let agency_manifest = dir.join("agency.json");
    refused(&season_manifest, "store", 4, &|| {
        SeasonStore::open(&season_dir).map(drop)
    });
    refused(&season_manifest, "store", 4, &|| {
        AgencyStore::open(&dir).map(drop)
    });
    refused(&agency_manifest, "agency", 1, &|| {
        AgencyStore::open(&dir).map(drop)
    });
    drop(AgencyStore::open(&dir).expect("the restored stores open"));

    // The season as format 1 wrote it: every filtered release a closure
    // release.
    let manifest = season_dir.join("season.json");
    let mut value = read_value(&manifest);
    *field_mut(&mut value, "format") = serde::Value::U64(1);
    write_value(&manifest, &value);
    for entry in fs::read_dir(season_dir.join("artifacts")).unwrap() {
        let path = entry.unwrap().path();
        let mut artifact = read_value(&path);
        let request = field_mut(&mut artifact, "request");
        let closure = !matches!(request.get("filter"), Some(serde::Value::Null));
        to_format1_provenance(request, closure);
        write_value(&path, &artifact);
    }
    let unsupported = |result: Result<(), StoreError>| match result {
        Err(StoreError::Corrupt { detail, .. }) => {
            assert!(
                detail.contains("unsupported store format 1"),
                "unexpected detail: {detail}"
            );
        }
        other => panic!("expected an unsupported-format refusal, got {other:?}"),
    };
    unsupported(SeasonStore::open(&season_dir).map(drop));
    unsupported(AgencyStore::open(&dir).map(drop));

    // A format-2 season (no commit records in its ledger) and a format-3
    // one (ledger entries beside the commit records) are refused the same
    // way.
    for format in [2, 3] {
        *field_mut(&mut value, "format") = serde::Value::U64(format);
        write_value(&manifest, &value);
        match SeasonStore::open(&season_dir).map(drop) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(
                    detail.contains(&format!("unsupported store format {format}")),
                    "unexpected detail: {detail}"
                );
            }
            other => panic!("expected an unsupported-format refusal, got {other:?}"),
        }
    }

    // A truth as format 1 wrote it: one JSON document, here at the
    // address the format-2 truth occupies.
    let registry = Arc::new(MetricsRegistry::new());
    let digest = eree_core::dataset_digest(&d);
    let truths = TruthStore::open(dir.join("truths"), digest)
        .unwrap()
        .with_metrics(registry.clone());
    let (spec, expr) = (workload1(), ranking2_expr());
    let truth = truths
        .load(&spec, Some(&expr))
        .expect("the season persisted its truth");
    let truth_path = dir.join("truths").join(format!(
        "{:016x}.truth",
        truths.key_digest(&spec, Some(&expr))
    ));
    let format1_truth = serde::Value::Map(vec![
        ("format".to_string(), serde::Value::U64(1)),
        ("dataset_digest".to_string(), serde::Value::U64(digest)),
        ("spec".to_string(), serde_json::to_value(&spec)),
        (
            "filter".to_string(),
            serde_json::to_value(&Some(expr.normalized())),
        ),
        (
            "content_digest".to_string(),
            serde::Value::U64(truth.content_digest()),
        ),
        ("marginal".to_string(), serde_json::to_value(&truth)),
    ]);
    write_value(&truth_path, &format1_truth);
    assert!(
        truths.load(&spec, Some(&expr)).is_none(),
        "a format-1 truth is a miss"
    );
    assert_eq!(registry.caches.truth_self_heals.get(), 1);

    // Public-cache entries as formats 1 and 2 wrote them: one JSON
    // document holding the key, the content digest and the artifact,
    // with a digest the artifact reproduces.
    let cache = ReleaseCache::open(dir.join("public"))
        .unwrap()
        .with_metrics(registry.clone());
    let key = ReleaseKey::of(&filtered.request, digest).unwrap();
    cache.save(&key, &filtered).unwrap();
    assert_eq!(cache.load(&key).as_ref(), Some(&filtered));
    let path = dir
        .join("public")
        .join(format!("{:016x}.json", ReleaseCache::key_digest(&key)));
    let old_entry = |format: u64, artifact: serde::Value| {
        let content_digest = fnv1a(serde_json::to_string(&artifact).unwrap().as_bytes());
        serde::Value::Map(vec![
            ("format".to_string(), serde::Value::U64(format)),
            ("key".to_string(), serde_json::to_value(&key)),
            (
                "content_digest".to_string(),
                serde::Value::U64(content_digest),
            ),
            ("artifact".to_string(), artifact),
        ])
    };
    let format2 = old_entry(2, serde_json::to_value(&filtered));
    assert_eq!(
        format2.get("content_digest"),
        Some(&serde::Value::U64(ReleaseCache::artifact_digest(&filtered))),
        "the rewrite must reproduce the cache's own digest"
    );
    write_value(&path, &format2);
    assert!(cache.load(&key).is_none(), "a format-2 file is a miss");
    assert_eq!(registry.caches.public_self_heals.get(), 1);
    let mut format1_artifact = serde_json::to_value(&filtered);
    to_format1_provenance(field_mut(&mut format1_artifact, "request"), false);
    write_value(&path, &old_entry(1, format1_artifact));
    assert!(cache.load(&key).is_none(), "a format-1 file is a miss");
    assert_eq!(registry.caches.public_self_heals.get(), 2);
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn resuming_against_a_different_dataset_is_refused() {
    let d = dataset();
    let plan = plan();
    let dir = test_dir("redatasetted");
    let mut store = SeasonStore::create(&dir, budget()).unwrap();
    run(&mut store, &d, &plan[..1]).unwrap();
    drop(store);

    // Same plan, different confidential database: the digest bound by the
    // first run no longer matches, in-session and across reopen alike.
    let other = Generator::new(GeneratorConfig::test_small(42)).generate();
    let mut store = SeasonStore::open(&dir).unwrap();
    assert!(matches!(
        run(&mut store, &other, &plan),
        Err(StoreError::Inconsistent { .. })
    ));
    assert_eq!(store.completed(), 1, "refusal must not execute anything");

    // The original dataset still resumes.
    let report = run(&mut store, &d, &plan).unwrap();
    assert_eq!(report.resumed_from, 1);
    assert_eq!(report.executed, 2);
    fs::remove_dir_all(dir).unwrap();
}

#[test]
fn overdrawn_plans_abort_cleanly_and_stay_resumable() {
    let d = dataset();
    let plan = plan(); // needs eps 11
    let dir = test_dir("overdrawn");
    let tight = PrivacyParams::pure(0.1, 3.5);
    let mut store = SeasonStore::create(&dir, tight).unwrap();

    // R0 (2.0) and R1 (1.0) fit; R2 (8.0) overdraws and aborts the run.
    let err = run(&mut store, &d, &plan).unwrap_err();
    match err {
        StoreError::Refused { index, .. } => assert_eq!(index, 2),
        other => panic!("expected Refused, got {other}"),
    }
    assert_eq!(store.completed(), 2);
    assert!((store.ledger().spent_epsilon() - 3.0).abs() < 1e-12);
    drop(store);

    // The aborted store reopens consistently, and a re-planned tail that
    // fits the remaining budget completes the season.
    let mut store = SeasonStore::open(&dir).unwrap();
    assert_eq!(store.completed(), 2);
    let mut replanned = plan[..2].to_vec();
    replanned.push(
        ReleaseRequest::marginal(workload3())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 0.5))
            .describe("R2: workload3 at the remaining eps")
            .seed(3),
    );
    let report = run(&mut store, &d, &replanned).unwrap();
    assert_eq!(report.executed, 1);
    assert!(store.ledger().remaining_epsilon() < 1e-9);
    fs::remove_dir_all(dir).unwrap();
}

/// A two-quarter panel: quarter 1 is the level snapshot, and the pair is
/// what flow requests tabulate.
fn quarter_pair() -> &'static DatasetPanel {
    static PANEL: OnceLock<DatasetPanel> = OnceLock::new();
    PANEL.get_or_init(|| {
        DatasetPanel::generate(
            &GeneratorConfig::test_small(41),
            &PanelConfig {
                quarters: 2,
                growth_sigma: 0.1,
                death_rate: 0.05,
                seed: 9,
            },
        )
    })
}

fn pair_snapshot(panel: &DatasetPanel) -> Snapshot<'_> {
    Snapshot::of(panel.quarter(1)).after(Snapshot::of(panel.quarter(0)))
}

/// Every number an artifact publishes.
fn released_numbers(artifact: &ReleaseArtifact) -> Vec<f64> {
    match &artifact.payload {
        ArtifactPayload::Cells(cells) => cells.values().copied().collect(),
        ArtifactPayload::Shapes(shapes) => shapes
            .iter()
            .flat_map(|s| s.fractions.iter().chain(&s.sub_counts).chain([&s.total]))
            .copied()
            .collect(),
        ArtifactPayload::Flows(flows) => flows
            .values()
            .flat_map(|f| [f.beginning, f.job_creation, f.job_destruction, f.ending])
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Log-Laplace perturbs in log space, so a small per-cell ε overflows
    /// `exp` to `+∞`. The engine saturates every released number at
    /// `±f64::MAX` (post-processing, so it costs no privacy), so whatever
    /// the engine admits and charges also persists: the artifact `admit`
    /// returns reads back from disk as byte-identical JSON. The smooth
    /// mechanisms' validity floors keep their per-cell ε (and so their
    /// noise) bounded; for them the case checks the persist path alone.
    #[test]
    fn admitted_releases_are_finite_and_persist_byte_identically(
        kind in 0u8..3,
        mechanism in 0u8..3,
        tiny in 1e-6f64..1e-3,
        integerize in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let request = match kind {
            0 => ReleaseRequest::marginal(workload3()),
            1 => ReleaseRequest::shapes(workload3()),
            _ => ReleaseRequest::flows(workload1()),
        };
        let (mechanism, per_cell) = match mechanism {
            0 => (MechanismKind::LogLaplace, PrivacyParams::pure(0.1, tiny)),
            // 5·ln(1.1) ≈ 0.477 is Smooth Gamma's floor.
            1 => (MechanismKind::SmoothGamma, PrivacyParams::pure(0.1, 0.5 + tiny)),
            // 2·ln(1e6)·ln(1.1) ≈ 2.63 is Smooth Laplace's floor at δ = 1e-6.
            _ => (
                MechanismKind::SmoothLaplace,
                PrivacyParams::approximate(0.1, 2.7 + tiny, 1e-6),
            ),
        };
        let request = request
            .mechanism(mechanism)
            .budget_per_cell(per_cell)
            .integerize(integerize)
            .seed(seed);
        let dir = test_dir("finite-artifacts");
        let mut store =
            SeasonStore::create(&dir, PrivacyParams::approximate(0.1, 100.0, 0.01)).unwrap();
        let (admitted, _) = store
            .admit(pair_snapshot(quarter_pair()), &request, &mut TabulationCache::new())
            .unwrap();
        let numbers = released_numbers(&admitted);
        prop_assert!(!numbers.is_empty());
        prop_assert!(numbers.iter().all(|v| v.is_finite()), "a non-finite value was released");
        let stored = store.load_artifact(0).unwrap();
        prop_assert_eq!(
            serde_json::to_string(&stored).unwrap(),
            serde_json::to_string(&admitted).unwrap()
        );
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// The release service serves the artifact `admit` returns, and a client
/// checks the served bytes against the public cache's content digest. So
/// each release has one canonical body — the compact JSON of the artifact
/// `admit` returns — which is byte for byte the season's artifact file and
/// the public entry's body, and whose FNV-1a is the content digest.
#[test]
fn admitted_stored_and_cached_artifacts_share_one_content_digest() {
    let data = pair_snapshot(quarter_pair());
    let dir = test_dir("served-bytes");
    let mut store = SeasonStore::create(dir.join("season"), budget()).unwrap();
    let public = ReleaseCache::open(dir.join("public")).unwrap();
    let mut cache = TabulationCache::new();
    let requests = [
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .filter_expr(ranking2_expr())
            .seed(1),
        ReleaseRequest::shapes(workload3())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 4.0))
            .seed(2),
        ReleaseRequest::flows(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 3.0))
            .seed(3),
    ];
    for request in &requests {
        let (admitted, body) = store.admit(data, request, &mut cache).unwrap();
        let index = store.completed() - 1;
        let canonical = serde_json::to_string(&admitted).unwrap();
        let served = ReleaseCache::artifact_digest(&admitted);
        assert_eq!(body.json(), canonical);
        assert_eq!(body.digest(), served);
        assert_eq!(fnv1a(canonical.as_bytes()), served);

        let season_body = fs::read(
            dir.join("season")
                .join("artifacts")
                .join(format!("{index:06}.json")),
        )
        .unwrap();
        assert_eq!(
            season_body,
            canonical.as_bytes(),
            "the season body is the canonical compact JSON"
        );

        // The public entry stores the same bytes after its header line,
        // whether written from the admitted body (the service's path) or
        // from the artifact.
        let digest = match request.kind() {
            RequestKind::Flows => data.pair_digest().unwrap(),
            _ => data.digest(),
        };
        let key = ReleaseKey::of(&admitted.request, digest).unwrap();
        let entry_path = dir
            .join("public")
            .join(format!("{:016x}.json", ReleaseCache::key_digest(&key)));
        public.save_body(&key, &body).unwrap();
        let entry = fs::read(&entry_path).unwrap();
        let header_end = entry.iter().position(|&b| b == b'\n').unwrap();
        assert_eq!(
            &entry[header_end + 1..],
            canonical.as_bytes(),
            "the public entry's body is the canonical compact JSON"
        );
        public.save(&key, &admitted).unwrap();
        assert_eq!(fs::read(&entry_path).unwrap(), entry);

        assert_eq!(store.releases()[index].digest, served, "the commit record");
        let stored = store.load_artifact(index).unwrap();
        let cached = public.load(&key).unwrap();
        assert_eq!(ReleaseCache::artifact_digest(&stored), served);
        assert_eq!(ReleaseCache::artifact_digest(&cached), served);
    }
    drop(store);
    fs::remove_dir_all(dir).unwrap();
}

/// What the corruption property damages: a level truth, a flow truth and
/// a released artifact with its public-cache key.
struct Persisted {
    level: Marginal,
    flows: FlowMarginal,
    artifact: ReleaseArtifact,
    key: ReleaseKey,
}

fn persisted() -> &'static Persisted {
    static PERSISTED: OnceLock<Persisted> = OnceLock::new();
    PERSISTED.get_or_init(|| {
        let panel = quarter_pair();
        let data = pair_snapshot(panel);
        let request = ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .filter_expr(ranking2_expr())
            .seed(5);
        let artifact = ReleaseEngine::new(budget())
            .execute(
                &request,
                TruthSource::Tabulate {
                    data,
                    cache: &mut TabulationCache::new(),
                },
            )
            .unwrap();
        Persisted {
            level: compute_marginal(panel.quarter(1), &workload3()),
            flows: compute_flows(panel.quarter(0), panel.quarter(1), &workload1()),
            key: ReleaseKey::of(&artifact.request, data.digest()).unwrap(),
            artifact,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A truth file is sealed by FNV-1a over all its bytes; a public-cache
    /// entry's body by its content digest, under a header line that must
    /// be canonical. So one flipped byte, a truncation at any offset or
    /// one appended byte reads as a miss and counts one self-heal of that
    /// store, and a re-save makes the address load again. Offsets are
    /// drawn from the whole file, its first 256 bytes (the header) or its
    /// last 16 (a truth's seal), so each part is hit.
    #[test]
    fn damaged_truths_and_cache_entries_read_as_misses_and_heal(
        target in 0u8..3,
        damage in 0u8..3,
        region in 0u8..3,
        at in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let p = persisted();
        let dir = test_dir("damaged");
        let registry = Arc::new(MetricsRegistry::new());
        let truths = TruthStore::open(dir.join("truths"), p.key.dataset_digest)
            .unwrap()
            .with_metrics(registry.clone());
        let public = ReleaseCache::open(dir.join("public"))
            .unwrap()
            .with_metrics(registry.clone());
        let pair = 7;
        let save = || {
            let saved = match target {
                0 => truths.save(&workload3(), None, &p.level),
                1 => truths.save_flows(pair, &workload1(), None, &p.flows),
                _ => public.save(&p.key, &p.artifact),
            };
            saved.unwrap();
        };
        let load = || match target {
            0 => truths.load(&workload3(), None).map(|t| t == p.level),
            1 => truths.load_flows(pair, &workload1(), None).map(|f| f == p.flows),
            _ => public.load(&p.key).map(|a| a == p.artifact),
        };
        let heals = || {
            (
                registry.caches.truth_self_heals.get(),
                registry.caches.public_self_heals.get(),
            )
        };
        save();
        prop_assert_eq!(load(), Some(true));
        let sub = if target < 2 { "truths" } else { "public" };
        let path = fs::read_dir(dir.join(sub))
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut bytes = fs::read(&path).unwrap();
        let len = bytes.len() as u64;
        let offset = match region {
            0 => at % len,
            1 => at % len.min(256),
            _ => len - 1 - at % len.min(16),
        } as usize;
        match damage {
            0 => bytes[offset] ^= mask,
            1 => bytes.truncate(offset),
            _ => bytes.push(mask),
        }
        fs::write(&path, &bytes).unwrap();
        prop_assert_eq!(load(), None);
        let healed = if target < 2 { (1, 0) } else { (0, 1) };
        prop_assert_eq!(heals(), healed);
        save();
        prop_assert_eq!(load(), Some(true));
        prop_assert_eq!(heals(), healed);
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// A one-release season, recorded once; each case below damages a copy.
fn pristine_season() -> &'static Path {
    static SEASON: OnceLock<PathBuf> = OnceLock::new();
    SEASON.get_or_init(|| {
        let dir = test_dir("damaged-body-pristine");
        let mut store = SeasonStore::create(&dir, budget()).unwrap();
        let request = ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .filter_expr(ranking2_expr())
            .seed(5);
        store
            .admit(
                pair_snapshot(quarter_pair()),
                &request,
                &mut TabulationCache::new(),
            )
            .unwrap();
        dir
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Open checks commit records and reads no body, so a season body with
    /// one flipped byte, truncated at any offset or with one byte appended
    /// still opens; reading it is `Corrupt`, and `verify_bodies` names it.
    /// Offsets are drawn from the whole body, its first 256 bytes (the
    /// provenance and cost) or its last 16 (the cells), so a flipped digit
    /// in a cell — which still parses, with cost and description intact —
    /// is caught too.
    #[test]
    fn damaged_season_bodies_fail_their_read_not_open(
        damage in 0u8..3,
        region in 0u8..3,
        at in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let pristine = pristine_season();
        let dir = test_dir("damaged-body");
        fs::create_dir_all(dir.join("artifacts")).unwrap();
        for name in ["season.json", "ledger.json", "artifacts/000000.json"] {
            fs::copy(pristine.join(name), dir.join(name)).unwrap();
        }
        let path = dir.join("artifacts").join("000000.json");
        let mut bytes = fs::read(&path).unwrap();
        let len = bytes.len() as u64;
        let offset = match region {
            0 => at % len,
            1 => at % len.min(256),
            _ => len - 1 - at % len.min(16),
        } as usize;
        match damage {
            0 => bytes[offset] ^= mask,
            1 => bytes.truncate(offset),
            _ => bytes.push(mask),
        }
        fs::write(&path, &bytes).unwrap();
        let store = SeasonStore::open(&dir).unwrap();
        prop_assert!(matches!(store.load_artifact(0), Err(StoreError::Corrupt { .. })));
        let failed: Vec<usize> = store.verify_bodies().into_iter().map(|(i, _)| i).collect();
        prop_assert_eq!(failed, vec![0]);
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }
}
