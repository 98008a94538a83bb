//! Loopback integration tests for the service's quarterly-panel mode and
//! its operational satellites: flow + level releases over HTTP from one
//! multi-year cap, the persistent release-id registry across a restart,
//! a season bound to its quarter by its own manifest's dataset pin, the
//! refusal of an older build's season → quarter bindings file, and
//! idle-season worker retirement releasing the season write lease.

use eree_core::agency::AgencyStore;
use eree_core::definitions::PrivacyParams;
use eree_core::engine::RequestKind;
use eree_core::mechanisms::MechanismKind;
use eree_core::store::{dataset_digest, SeasonStore};
use eree_core::StoreError;
use eree_service::{
    Client, ClientError, ReleaseService, ReleaseSubmission, ServiceConfig, ServiceError,
};
use lodes::{DatasetPanel, GeneratorConfig, PanelConfig};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};
use tabulate::{MarginalSpec, WorkplaceAttr};

const ALPHA: f64 = 0.1;
const WAIT: Duration = Duration::from_secs(60);

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eree-service-it-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn panel() -> DatasetPanel {
    DatasetPanel::generate(
        &GeneratorConfig::test_small(77),
        &PanelConfig {
            quarters: 4,
            growth_sigma: 0.08,
            death_rate: 0.02,
            seed: 7,
        },
    )
}

fn county() -> MarginalSpec {
    MarginalSpec::new(vec![WorkplaceAttr::County], vec![])
}

fn submission(kind: RequestKind, epsilon: f64, seed: u64) -> ReleaseSubmission {
    ReleaseSubmission {
        kind,
        spec: county(),
        mechanism: MechanismKind::LogLaplace,
        budget: PrivacyParams::pure(ALPHA, epsilon),
        budget_is_per_cell: false,
        filter: None,
        integerize: false,
        seed,
        description: None,
    }
}

fn api_status(result: Result<impl std::fmt::Debug, ClientError>) -> u16 {
    match result {
        Err(ClientError::Api { status, .. }) => status,
        other => panic!("expected an API error, got {other:?}"),
    }
}

#[test]
fn quarterly_panel_over_http_under_one_cap() {
    let dir = tmp_dir("panel");
    let cap = PrivacyParams::pure(ALPHA, 10.0);
    let service = ReleaseService::start_panel(&dir, panel(), ServiceConfig::new(cap))
        .expect("panel service starts");
    let client = Client::new(service.addr());

    // Panel seasons must bind a quarter; unbound and out-of-range are
    // client errors, refused before anything is reserved.
    assert_eq!(
        api_status(client.create_season("loose", PrivacyParams::pure(ALPHA, 1.0))),
        400
    );
    assert_eq!(
        api_status(client.create_panel_season("future", PrivacyParams::pure(ALPHA, 1.0), 9)),
        400
    );

    // One season per quarter, all reserved from the one multi-year cap.
    client
        .create_panel_season("q0", PrivacyParams::pure(ALPHA, 1.0), 0)
        .expect("q0 fits");
    for q in 1..4u64 {
        client
            .create_panel_season(&format!("q{q}"), PrivacyParams::pure(ALPHA, 2.5), q)
            .expect("quarter season fits");
    }
    let audit = client.audit().expect("audit");
    assert!((audit.reserved_epsilon - 8.5).abs() < 1e-9);
    assert!((audit.remaining_epsilon - 1.5).abs() < 1e-9);

    // The base quarter has no predecessor: flows are refused up front.
    assert_eq!(
        api_status(client.submit("q0", &submission(RequestKind::Flows, 0.9, 9))),
        400
    );

    // Levels on every quarter, flows on every quarter pair — same base
    // seed everywhere; the consistent-over-time rewrite derives the
    // actual noise streams per quarter.
    let mut flow_ids = Vec::new();
    for q in 0..4u64 {
        let name = format!("q{q}");
        let level = client
            .submit(&name, &submission(RequestKind::Marginal, 0.5, 9))
            .expect("level accepted");
        assert!(!level.cached);
        let done = client.wait_for(level.id, WAIT).expect("level runs");
        assert_eq!(done.status, "complete", "error: {:?}", done.error);
        if q > 0 {
            let flows = client
                .submit(&name, &submission(RequestKind::Flows, 1.5, 9))
                .expect("flow accepted");
            assert!(!flows.cached);
            let done = client.wait_for(flows.id, WAIT).expect("flow runs");
            assert_eq!(done.status, "complete", "error: {:?}", done.error);
            let artifact = done.artifact.expect("flow artifact");
            let cells = artifact.flows().expect("flow payload");
            assert!(!cells.is_empty());
            // The QWI identity E - B = JC - JD holds in every published
            // cell, by construction.
            for cell in cells.values() {
                assert!(
                    ((cell.ending - cell.beginning) - (cell.job_creation - cell.job_destruction))
                        .abs()
                        < 1e-9
                );
            }
            flow_ids.push(flows.id);
        }
    }

    // Every season charged under its reservation, under the one cap.
    let audit = client.audit().expect("audit after releases");
    let spent_before = audit.spent_epsilon;
    assert!((spent_before - (4.0 * 0.5 + 3.0 * 1.5)).abs() < 1e-9);
    for season in &audit.seasons {
        assert!(season.spent_epsilon <= season.budget.epsilon + 1e-9);
    }

    // Repeat an identical flow submission: served from the public cache,
    // with the agency's ε spend unchanged.
    let repeat = client
        .submit("q2", &submission(RequestKind::Flows, 1.5, 9))
        .expect("repeat accepted");
    assert!(repeat.cached, "identical flow request must be a cache hit");
    let audit = client.audit().expect("audit after repeat");
    assert_eq!(audit.spent_epsilon, spent_before, "repeats spend zero ε");
    assert_eq!(audit.metrics.caches.public_hits, 1);

    let survivor = flow_ids[0];
    service.shutdown();

    // Restart: the release-id registry is persistent, so the completed
    // flow release is still addressable by its old id — artifact and all
    // (read from its season's stored body). The season → quarter bindings
    // are persistent too: a new submission to q3 needs no re-binding.
    let service = ReleaseService::start_panel(&dir, panel(), ServiceConfig::new(cap))
        .expect("panel service restarts");
    let client = Client::new(service.addr());
    let view = client.release(survivor).expect("old id survives restart");
    assert_eq!(view.status, "complete");
    assert!(view.artifact.is_some(), "artifact served after restart");
    let fresh = client
        .submit("q3", &submission(RequestKind::Marginal, 0.4, 77))
        .expect("binding survived restart");
    let done = client
        .wait_for(fresh.id, WAIT)
        .expect("resumed quarter runs");
    assert_eq!(done.status, "complete", "error: {:?}", done.error);
    service.shutdown();

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn single_snapshot_services_refuse_panel_vocabulary() {
    let dir = tmp_dir("no-panel");
    let cap = PrivacyParams::pure(ALPHA, 2.0);
    let dataset = lodes::Generator::new(GeneratorConfig::test_small(55)).generate();
    let service =
        ReleaseService::start(&dir, dataset, ServiceConfig::new(cap)).expect("service starts");
    let client = Client::new(service.addr());

    // Quarter bindings and flow submissions belong to panel services.
    assert_eq!(
        api_status(client.create_panel_season("q0", PrivacyParams::pure(ALPHA, 1.0), 0)),
        400
    );
    client
        .create_season("s", PrivacyParams::pure(ALPHA, 1.0))
        .expect("plain season");
    assert_eq!(
        api_status(client.submit("s", &submission(RequestKind::Flows, 0.3, 1))),
        400
    );

    let audit = client.audit().expect("audit");
    assert_eq!(audit.spent_epsilon, 0.0, "nothing was ever charged");
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn idle_season_workers_retire_and_release_their_leases() {
    let dir = tmp_dir("idle");
    let cap = PrivacyParams::pure(ALPHA, 2.0);
    let dataset = lodes::Generator::new(GeneratorConfig::test_small(55)).generate();
    let config = ServiceConfig {
        idle_timeout: Some(Duration::from_millis(150)),
        ..ServiceConfig::new(cap)
    };
    let service = ReleaseService::start(&dir, dataset, config).expect("service starts");
    let client = Client::new(service.addr());

    client
        .create_season("s", PrivacyParams::pure(ALPHA, 1.0))
        .expect("season");
    let receipt = client
        .submit("s", &submission(RequestKind::Marginal, 0.25, 3))
        .expect("submit");
    let done = client.wait_for(receipt.id, WAIT).expect("release runs");
    assert_eq!(done.status, "complete", "error: {:?}", done.error);
    assert_eq!(service.live_workers(), 1);
    let repeat = client
        .submit("s", &submission(RequestKind::Marginal, 0.25, 3))
        .expect("repeat submit");
    assert!(repeat.cached, "an identical request is a public-cache hit");
    let live = client.audit().expect("audit with a live worker");
    assert_eq!(live.metrics.caches.truth_computed, 1);
    assert_eq!(live.metrics.caches.public_hits, 1);

    // Idle long enough and the worker retires, dropping the season store
    // and with it the season directory's write lease.
    let season_dir = dir.join("seasons").join("s");
    assert!(
        matches!(SeasonStore::open(&season_dir), Err(StoreError::Locked { path }) if path == season_dir),
        "live worker holds the season lease"
    );
    let deadline = Instant::now() + WAIT;
    while service.live_workers() > 0 {
        assert!(Instant::now() < deadline, "worker never retired");
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(SeasonStore::open(&season_dir).expect("retirement releases the season lease"));

    // The audit view stays exact while the season has no worker, and its
    // counters are cumulative: they do not drop when the worker that
    // counted them retires.
    let audit = client.audit().expect("audit with retired worker");
    let season = &audit.seasons[0];
    assert_eq!(season.completed, 1);
    assert!((season.spent_epsilon - 0.25).abs() < 1e-9);
    assert_eq!(audit.metrics.caches, live.metrics.caches);

    // The registry still serves the completed release.
    let view = client.release(receipt.id).expect("status after retirement");
    assert_eq!(view.status, "complete");

    // A new submission transparently respawns the worker on the same
    // season, which admits it on top of the persisted release.
    let fresh = client
        .submit("s", &submission(RequestKind::Marginal, 0.25, 4))
        .expect("respawn submit");
    assert!(!fresh.cached);
    let done = client.wait_for(fresh.id, WAIT).expect("respawned runs");
    assert_eq!(done.status, "complete", "error: {:?}", done.error);
    assert_eq!(service.live_workers(), 1);
    let audit = client.audit().expect("audit after respawn");
    assert_eq!(audit.seasons[0].completed, 2);

    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// The dataset digest season `name`'s manifest pins, read from its
/// `season.json`.
fn manifest_pin(dir: &Path, name: &str) -> Option<u64> {
    let path = dir.join("seasons").join(name).join("season.json");
    let manifest: serde::Value = serde_json::from_str(&fs::read_to_string(path).unwrap()).unwrap();
    match manifest.get("dataset_digest") {
        Some(serde::Value::U64(digest)) => Some(*digest),
        _ => None,
    }
}

/// Submit a level and a flow release to `season` and wait for both.
fn level_and_flow_complete(client: &Client, season: &str, seed: u64) {
    for kind in [RequestKind::Marginal, RequestKind::Flows] {
        let receipt = client
            .submit(season, &submission(kind, 0.25, seed))
            .expect("the bound season takes releases");
        let done = client.wait_for(receipt.id, WAIT).expect("finishes");
        assert_eq!(done.status, "complete", "error: {:?}", done.error);
    }
}

/// A season's quarter is its dataset pin, written by the one manifest
/// write that creates the season: no file of the service's own need
/// survive for the season to stay bound.
#[test]
fn a_panel_season_is_bound_by_its_own_manifest() {
    let dir = tmp_dir("own-manifest");
    let cap = PrivacyParams::pure(ALPHA, 10.0);
    let panel = panel();
    let service = ReleaseService::start_panel(&dir, panel.clone(), ServiceConfig::new(cap))
        .expect("panel service starts");
    let client = Client::new(service.addr());
    client
        .create_panel_season("q1", PrivacyParams::pure(ALPHA, 2.0), 1)
        .expect("season binds quarter 1");
    assert_eq!(
        manifest_pin(&dir, "q1"),
        Some(dataset_digest(panel.quarter(1))),
        "the season pins its quarter before its first release"
    );
    service.shutdown();

    let _ = fs::remove_file(dir.join("panel_quarters.json"));
    let service = ReleaseService::start_panel(&dir, panel, ServiceConfig::new(cap))
        .expect("panel service restarts");
    let client = Client::new(service.addr());
    level_and_flow_complete(&client, "q1", 1);
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Every file under `dir`, with its bytes and modification time.
fn snapshot_tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>, SystemTime)> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(next) = pending.pop() {
        for entry in fs::read_dir(&next).unwrap() {
            let path = entry.unwrap().path();
            let meta = fs::metadata(&path).unwrap();
            if meta.is_dir() {
                pending.push(path);
            } else {
                files.push((
                    path.clone(),
                    fs::read(&path).unwrap(),
                    meta.modified().unwrap(),
                ));
            }
        }
    }
    files.sort();
    files
}

/// An older build bound panel seasons in `panel_quarters.json`, and its
/// seasons that never released are bound nowhere else. A start that finds
/// that path — a file or a directory — is refused naming it, and changes
/// nothing under the agency directory.
#[test]
fn a_leftover_quarter_map_refuses_the_start() {
    let dir = tmp_dir("quarter-map");
    let cap = PrivacyParams::pure(ALPHA, 10.0);
    let service = ReleaseService::start_panel(&dir, panel(), ServiceConfig::new(cap))
        .expect("panel service starts");
    let client = Client::new(service.addr());
    client
        .create_panel_season("q1", PrivacyParams::pure(ALPHA, 1.0), 1)
        .expect("season binds quarter 1");
    service.shutdown();

    let leftover = dir.join("panel_quarters.json");
    let old_bindings = r#"{"format":1,"bindings":[{"season":"q1","quarter":1}]}"#;
    for as_dir in [false, true] {
        if as_dir {
            fs::create_dir(&leftover).unwrap();
        } else {
            fs::write(&leftover, old_bindings).unwrap();
        }
        let before = snapshot_tree(&dir);
        match ReleaseService::start_panel(&dir, panel(), ServiceConfig::new(cap)) {
            Err(ServiceError::Store(StoreError::Corrupt { path, .. })) => {
                assert_eq!(path, leftover)
            }
            Err(other) => panic!("expected a refusal naming the bindings file, got {other}"),
            Ok(service) => {
                service.shutdown();
                panic!("a start beside a leftover bindings file must be refused")
            }
        }
        assert_eq!(
            snapshot_tree(&dir),
            before,
            "a refused start changes nothing"
        );
        if as_dir {
            fs::remove_dir(&leftover).unwrap();
        } else {
            fs::remove_file(&leftover).unwrap();
        }
    }

    // Removed, the season serves by its own pin.
    let service = ReleaseService::start_panel(&dir, panel(), ServiceConfig::new(cap))
        .expect("panel service starts");
    let client = Client::new(service.addr());
    let receipt = client
        .submit("q1", &submission(RequestKind::Marginal, 0.25, 1))
        .expect("the bound season takes releases");
    let done = client.wait_for(receipt.id, WAIT).expect("finishes");
    assert_eq!(done.status, "complete", "error: {:?}", done.error);
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// A panel season whose pin names no quarter of the served panel is not
/// bound to one: its submissions answer 404 naming it, before the cache
/// or a worker is touched, and nothing is spent.
#[test]
fn a_season_pinned_to_no_quarter_of_the_panel_is_refused() {
    let dir = tmp_dir("foreign-pin");
    let cap = PrivacyParams::pure(ALPHA, 10.0);
    let mut agency = AgencyStore::create_panel(&dir, cap).expect("panel agency");
    agency
        .create_season_pinned("stray", PrivacyParams::pure(ALPHA, 1.0), 0xf0f0_f0f0)
        .expect("a panel season may pin any quarter's digest");
    drop(agency);

    let service = ReleaseService::start_panel(&dir, panel(), ServiceConfig::new(cap))
        .expect("panel service starts");
    let client = Client::new(service.addr());
    for kind in [RequestKind::Marginal, RequestKind::Flows] {
        match client.submit("stray", &submission(kind, 0.25, 1)) {
            Err(ClientError::Api { status, message }) => {
                assert_eq!(status, 404);
                assert!(message.contains("`stray`"), "{message}");
            }
            other => panic!("expected a 404 naming the season, got {other:?}"),
        }
    }
    let audit = client.audit().expect("audit");
    assert_eq!(audit.spent_epsilon, 0.0);
    assert_eq!(audit.releases, 0);
    assert_eq!(audit.metrics.service.worker_spawns, 0);
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// The creation crash window: the reservation is durable, the season
/// directory never appeared. Re-posting the season with its budget and
/// quarter materializes it pinned to that quarter, and it serves.
#[test]
fn a_reposted_crash_window_season_is_materialized_pinned() {
    let dir = tmp_dir("crash-window");
    let cap = PrivacyParams::pure(ALPHA, 10.0);
    let panel = panel();
    let budget = PrivacyParams::pure(ALPHA, 2.0);
    let service = ReleaseService::start_panel(&dir, panel.clone(), ServiceConfig::new(cap))
        .expect("panel service starts");
    Client::new(service.addr())
        .create_panel_season("q2", budget, 2)
        .expect("season binds quarter 2");
    service.shutdown();
    fs::remove_dir_all(dir.join("seasons").join("q2")).unwrap();

    let service = ReleaseService::start_panel(&dir, panel.clone(), ServiceConfig::new(cap))
        .expect("panel service restarts");
    let client = Client::new(service.addr());
    let audit = client.audit().expect("audit");
    assert!(!audit.seasons[0].materialized);
    assert_eq!(audit.seasons[0].dataset_digest, None);
    assert_eq!(
        api_status(client.submit("q2", &submission(RequestKind::Marginal, 0.25, 1))),
        404,
        "an unmaterialized season is bound to no quarter"
    );
    client
        .create_panel_season("q2", budget, 2)
        .expect("re-posting materializes the reservation");
    let pin = Some(dataset_digest(panel.quarter(2)));
    assert_eq!(manifest_pin(&dir, "q2"), pin);
    assert_eq!(
        client.audit().expect("audit").seasons[0].dataset_digest,
        pin
    );
    level_and_flow_complete(&client, "q2", 2);
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
