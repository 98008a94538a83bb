//! Integration tests for the publication-season store: kill/resume
//! bit-identity, crash-window repair, and refusal of corrupted,
//! tampered, inconsistent, or re-planned stores.

use eree::prelude::*;
use eree_core::{ReleaseCache, ReleaseKey};
use lodes::{Dataset, DatasetPanel, PanelConfig};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("store-resume-{name}"));
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
    let tampered = pristine.replace("\"spent_epsilon\": 3.0", "\"spent_epsilon\": 1.0");
    assert_ne!(tampered, pristine);
    fs::write(&ledger_path, &tampered).unwrap();
    assert!(matches!(
        SeasonStore::open(&dir),
        Err(StoreError::Corrupt { .. })
    ));

    // Inflated budget: the ledger no longer matches the season manifest.
    let tampered = pristine.replacen("\"epsilon\": 11.0", "\"epsilon\": 100.0", 1);
    assert_ne!(tampered, pristine);
    fs::write(&ledger_path, &tampered).unwrap();
    assert!(matches!(
        SeasonStore::open(&dir),
        Err(StoreError::Inconsistent { .. })
    ));

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
    fs::remove_dir_all(ref_dir).unwrap();
    fs::remove_dir_all(crash_dir).unwrap();

    // A crash-window store whose artifacts ALSO disagree with the ledger
    // is refused — and the refused open leaves every byte untouched (no
    // half-applied roll-forward).
    let bad_dir = test_dir("crashwin-bad");
    let mut bad = SeasonStore::create(&bad_dir, budget()).unwrap();
    run(&mut bad, &d, &plan[..2]).unwrap();
    drop(bad);
    // Simulate the crash window (delete the newest ledger entry by
    // restoring the 1-release snapshot)…
    let one_dir = test_dir("crashwin-bad-one");
    let mut one = SeasonStore::create(&one_dir, budget()).unwrap();
    run(&mut one, &d, &plan[..1]).unwrap();
    drop(one);
    fs::copy(one_dir.join("ledger.json"), bad_dir.join("ledger.json")).unwrap();
    // …and corrupt artifact 0's recorded cost so verification must fail.
    let artifact0 = bad_dir.join("artifacts").join("000000.json");
    let text = fs::read_to_string(&artifact0).unwrap();
    let tampered = text.replace("\"epsilon\": 2.0", "\"epsilon\": 0.25");
    assert_ne!(tampered, text);
    fs::write(&artifact0, tampered).unwrap();
    let ledger_before = fs::read(bad_dir.join("ledger.json")).unwrap();
    assert!(matches!(
        SeasonStore::open(&bad_dir),
        Err(StoreError::Inconsistent { .. })
    ));
    assert_eq!(
        fs::read(bad_dir.join("ledger.json")).unwrap(),
        ledger_before,
        "a refused open must not modify the store"
    );
    fs::remove_dir_all(one_dir).unwrap();
    fs::remove_dir_all(bad_dir).unwrap();
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
/// closure-era `filtered` flag) are refused, never misread: the derived
/// provenance deserializer ignores unknown fields, so a format-1 closure
/// release (`filtered: true`, `filter: null`) would otherwise load as an
/// unfiltered one.
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

    // A public-cache file as format 1 wrote it, content digest included.
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    let cache = eree_core::ReleaseCache::open(dir.join("public"))
        .unwrap()
        .with_metrics(registry.clone());
    let key = eree_core::ReleaseKey::of(&filtered.request, eree_core::dataset_digest(&d)).unwrap();
    cache.save(&key, &filtered).unwrap();
    assert_eq!(cache.load(&key).as_ref(), Some(&filtered));
    let path = fs::read_dir(dir.join("public"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .find(|path| path.extension().is_some_and(|ext| ext == "json"))
        .unwrap();
    let mut file = read_value(&path);
    let digest_of =
        |artifact: &serde::Value| fnv1a(serde_json::to_string(artifact).unwrap().as_bytes());
    let stored_digest = field_mut(&mut file, "content_digest").clone();
    assert_eq!(
        stored_digest,
        serde::Value::U64(digest_of(field_mut(&mut file, "artifact"))),
        "the rewrite must reproduce the cache's own digest"
    );
    *field_mut(&mut file, "format") = serde::Value::U64(1);
    let artifact = field_mut(&mut file, "artifact");
    to_format1_provenance(field_mut(artifact, "request"), false);
    let format1_digest = digest_of(artifact);
    *field_mut(&mut file, "content_digest") = serde::Value::U64(format1_digest);
    write_value(&path, &file);
    assert!(cache.load(&key).is_none(), "a format-1 file is a miss");
    assert_eq!(registry.caches.public_self_heals.get(), 1);
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
        let admitted = store
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
/// the returned artifact, its stored copy and its public-cache entry must
/// all serialize to the same bytes.
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
        let admitted = store.admit(data, request, &mut cache).unwrap();
        let stored = store.load_artifact(store.completed() - 1).unwrap();
        let digest = match request.kind() {
            RequestKind::Flows => data.pair_digest().unwrap(),
            _ => data.digest(),
        };
        let key = ReleaseKey::of(&admitted.request, digest).unwrap();
        public.save(&key, &admitted).unwrap();
        let cached = public.load(&key).unwrap();
        let served = ReleaseCache::artifact_digest(&admitted);
        assert_eq!(ReleaseCache::artifact_digest(&stored), served);
        assert_eq!(ReleaseCache::artifact_digest(&cached), served);
    }
    drop(store);
    fs::remove_dir_all(dir).unwrap();
}
