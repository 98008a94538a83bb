//! Loopback integration tests for the service's quarterly-panel mode and
//! its operational satellites: flow + level releases over HTTP from one
//! multi-year cap, the persistent release-id registry across a restart,
//! and idle-season worker retirement releasing the season write lease.

use eree_core::definitions::PrivacyParams;
use eree_core::engine::RequestKind;
use eree_core::mechanisms::MechanismKind;
use eree_service::{Client, ClientError, ReleaseService, ReleaseSubmission, ServiceConfig};
use lodes::{DatasetPanel, GeneratorConfig, PanelConfig};
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tabulate::{MarginalSpec, WorkplaceAttr};

const ALPHA: f64 = 0.1;
const WAIT: Duration = Duration::from_secs(60);

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eree-service-it-{name}"));
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
    assert_eq!(audit.cache_hits, 1);

    let survivor = flow_ids[0];
    service.shutdown();

    // Restart: the release-id registry is persistent, so the completed
    // flow release is still addressable by its old id — artifact and all
    // (rehydrated from the public cache). The season → quarter bindings
    // are persistent too: a new submission to q3 needs no re-binding.
    let service = ReleaseService::start_panel(&dir, panel(), ServiceConfig::new(cap))
        .expect("panel service restarts");
    let client = Client::new(service.addr());
    let view = client.release(survivor).expect("old id survives restart");
    assert_eq!(view.status, "complete");
    assert!(view.artifact.is_some(), "artifact rehydrated from cache");
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
    assert_eq!(live.tabulations.computed, 1);
    assert_eq!(live.cache_hits, 1);

    // Idle long enough and the worker retires, dropping the season store
    // and with it the season's on-disk write lease.
    let lease = dir.join("seasons").join("s").join("season.lock");
    assert!(lease.exists(), "live worker holds the season lease");
    let deadline = Instant::now() + WAIT;
    while service.live_workers() > 0 {
        assert!(Instant::now() < deadline, "worker never retired");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(!lease.exists(), "retirement releases the season lease");

    // The audit view stays exact while the season has no worker, and its
    // counters are cumulative: they do not drop when the worker that
    // counted them retires.
    let audit = client.audit().expect("audit with retired worker");
    let season = &audit.seasons[0];
    assert_eq!(season.completed, 1);
    assert!((season.spent_epsilon - 0.25).abs() < 1e-9);
    assert_eq!(audit.tabulations, live.tabulations);
    assert_eq!(audit.cache_hits, live.cache_hits);

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
