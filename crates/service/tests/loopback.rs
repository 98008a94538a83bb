//! Loopback integration test for the release service: concurrent tenants
//! over one agency, cap enforcement end to end, the public cache's
//! zero-ε repeat path, the agency write lease, durable replay across a
//! stop/start cycle, and the audit's season summaries against the agency
//! reopened from disk.

use eree_core::agency::AgencyStore;
use eree_core::definitions::PrivacyParams;
use eree_core::engine::RequestKind;
use eree_core::mechanisms::MechanismKind;
use eree_core::StoreError;
use eree_service::{Client, ReleaseService, ReleaseSubmission, ServiceConfig, SubmitReceipt};
use lodes::{Dataset, Generator, GeneratorConfig};
use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tabulate::{MarginalSpec, WorkerAttr, WorkplaceAttr};

const ALPHA: f64 = 0.1;
const WAIT: Duration = Duration::from_secs(60);

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eree-service-it-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn dataset() -> Dataset {
    Generator::new(GeneratorConfig::test_small(55)).generate()
}

fn county() -> MarginalSpec {
    MarginalSpec::new(vec![WorkplaceAttr::County], vec![])
}

fn county_by_sector() -> MarginalSpec {
    MarginalSpec::new(vec![WorkplaceAttr::County], vec![WorkerAttr::Age])
}

fn submission(spec: MarginalSpec, epsilon: f64, seed: u64) -> ReleaseSubmission {
    ReleaseSubmission {
        kind: RequestKind::Marginal,
        spec,
        mechanism: MechanismKind::LogLaplace,
        budget: PrivacyParams::pure(ALPHA, epsilon),
        budget_is_per_cell: false,
        filter: None,
        integerize: false,
        seed,
        description: None,
    }
}

#[test]
fn concurrent_tenants_share_one_agency_under_the_cap() {
    let dir = tmp_dir("concurrent");
    let cap = PrivacyParams::pure(ALPHA, 2.0);
    let service =
        ReleaseService::start(&dir, dataset(), ServiceConfig::new(cap)).expect("service starts");
    let client = Client::new(service.addr());

    // While the service runs, the agency directory is write-leased: a
    // second writer (library or service) is refused with a clear error.
    match AgencyStore::open(&dir) {
        Err(StoreError::Locked { path }) => assert_eq!(path, dir, "refusal names the directory"),
        other => panic!("second writer must be refused, got {other:?}"),
    }

    // Two tenants reserve their seasons up front; a third that would
    // overdraw the agency cap is refused before anything exists.
    client
        .create_season("tenant-a", PrivacyParams::pure(ALPHA, 1.0))
        .expect("tenant-a fits under the cap");
    client
        .create_season("tenant-b", PrivacyParams::pure(ALPHA, 0.8))
        .expect("tenant-b fits under the cap");
    let refused = client.create_season("tenant-c", PrivacyParams::pure(ALPHA, 5.0));
    match refused {
        Err(eree_service::ClientError::Api { status, .. }) => assert_eq!(status, 409),
        other => panic!("over-cap season must 409, got {other:?}"),
    }

    // Both tenants submit concurrently from their own threads. Within a
    // season the worker serializes; across seasons they run in parallel.
    std::thread::scope(|scope| {
        for (season, base_seed) in [("tenant-a", 0xA0u64), ("tenant-b", 0xB0u64)] {
            scope.spawn(move || {
                for i in 0..3u64 {
                    let spec = if i % 2 == 0 {
                        county()
                    } else {
                        county_by_sector()
                    };
                    let receipt = client
                        .submit(season, &submission(spec, 0.25, base_seed + i))
                        .expect("submit accepted");
                    assert!(!receipt.cached, "first-time requests are not cache hits");
                    let done = client.wait_for(receipt.id, WAIT).expect("release finishes");
                    assert_eq!(done.status, "complete", "error: {:?}", done.error);
                    assert_eq!(done.season, season);
                    assert!(
                        done.artifact.is_some(),
                        "completed releases carry artifacts"
                    );
                }
            });
        }
    });

    // The audit view proves the budget hierarchy held under concurrency.
    let audit = client.audit().expect("audit");
    assert!(audit.reserved_epsilon <= cap.epsilon + 1e-9);
    assert_eq!(audit.seasons.len(), 2);
    for season in &audit.seasons {
        assert!(
            season.spent_epsilon <= season.budget.epsilon + 1e-9,
            "season {} spent {} over its {}",
            season.name,
            season.spent_epsilon,
            season.budget.epsilon
        );
        assert_eq!(season.completed, 3);
    }
    let spent_before = audit.spent_epsilon;
    let caches_before = audit.metrics.caches;
    assert!(caches_before.truth_computed > 0, "real tabulation happened");
    assert_eq!(caches_before.public_hits, 0);
    assert!(audit.cache_entries >= 6, "every release was published");

    // A release over the season's remaining budget fails cleanly — the
    // refusal is an answer, not a crash, and nothing is charged.
    let over = client
        .submit("tenant-a", &submission(county(), 0.9, 0xFF))
        .expect("submission is accepted for queuing");
    let failed = client.wait_for(over.id, WAIT).expect("refusal comes back");
    assert_eq!(failed.status, "failed");
    assert!(failed.error.is_some());

    // Repeat an identical request: answered from the public cache with
    // zero additional ε and zero tabulation — truth counters unchanged.
    let repeat = client
        .submit("tenant-a", &submission(county(), 0.25, 0xA0))
        .expect("repeat accepted");
    assert!(repeat.cached, "identical request must be a cache hit");
    assert_eq!(repeat.status, "complete");
    let cached_view = client.release(repeat.id).expect("cached release view");
    assert!(cached_view.cached);
    assert_eq!(cached_view.season, "", "cache hits never resolve a season");
    assert!(
        cached_view.artifact.is_some(),
        "hits carry the full artifact"
    );

    // The cache key ignores the submitting season entirely: the same
    // request "via tenant-b" is also a hit and charges tenant-b nothing.
    let cross = client
        .submit("tenant-b", &submission(county(), 0.25, 0xA0))
        .expect("cross-tenant repeat accepted");
    assert!(cross.cached);

    let audit_after = client.audit().expect("audit after repeats");
    assert_eq!(
        audit_after.spent_epsilon, spent_before,
        "repeats spent zero ε"
    );
    let caches_after = &audit_after.metrics.caches;
    assert_eq!(caches_after.public_hits, 2);
    assert_eq!(
        caches_after.truth_computed, caches_before.truth_computed,
        "repeats tabulated nothing"
    );
    assert_eq!(
        caches_after.truth_memory_hits,
        caches_before.truth_memory_hits
    );
    assert_eq!(caches_after.truth_disk_hits, caches_before.truth_disk_hits);

    service.shutdown();

    // Shutdown released everything: the agency directory opens first try.
    drop(AgencyStore::open(&dir).expect("lease released on shutdown"));

    // Restart on the same directory: every admission was durable. The
    // meta-ledger, per-season spend, and the public cache all replay.
    let service = ReleaseService::start(&dir, dataset(), ServiceConfig::new(cap))
        .expect("service reopens the same agency");
    let client = Client::new(service.addr());
    let replayed = client.audit().expect("audit after restart");
    assert_eq!(replayed.spent_epsilon, spent_before);
    assert_eq!(replayed.seasons.len(), 2);
    for season in &replayed.seasons {
        assert_eq!(season.completed, 3, "persisted releases replayed");
    }
    let hit = client
        .submit("tenant-a", &submission(county(), 0.25, 0xA0))
        .expect("repeat after restart");
    assert!(hit.cached, "the public cache is durable too");

    // A season resumes: the respawned worker reopens the season store
    // and admits release #4 on top of the replayed three.
    let fresh = client
        .submit("tenant-a", &submission(county_by_sector(), 0.2, 0xA9))
        .expect("new release after restart");
    assert!(!fresh.cached);
    let done = client
        .wait_for(fresh.id, WAIT)
        .expect("resumed season runs");
    assert_eq!(done.status, "complete", "error: {:?}", done.error);
    let final_audit = client.audit().expect("final audit");
    let tenant_a = final_audit
        .seasons
        .iter()
        .find(|s| s.name == "tenant-a")
        .expect("tenant-a summary");
    assert_eq!(tenant_a.completed, 4);
    assert!(tenant_a.spent_epsilon <= tenant_a.budget.epsilon + 1e-9);
    service.shutdown();

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bad_requests_never_reach_the_ledger() {
    let dir = tmp_dir("bad-requests");
    let cap = PrivacyParams::pure(ALPHA, 1.0);
    let service =
        ReleaseService::start(&dir, dataset(), ServiceConfig::new(cap)).expect("service starts");
    let client = Client::new(service.addr());

    // Unknown season → 404.
    match client.submit("nope", &submission(county(), 0.1, 1)) {
        Err(eree_service::ClientError::Api { status, .. }) => assert_eq!(status, 404),
        other => panic!("unknown season must 404, got {other:?}"),
    }
    // Duplicate season → 409.
    client
        .create_season("s", PrivacyParams::pure(ALPHA, 0.5))
        .expect("first create");
    match client.create_season("s", PrivacyParams::pure(ALPHA, 0.1)) {
        Err(eree_service::ClientError::Api { status, .. }) => assert_eq!(status, 409),
        other => panic!("duplicate season must 409, got {other:?}"),
    }
    // Unpriceable parameters → 400 before any queue. A zero-ε budget is
    // constructible over the wire (typed constructors refuse it), so it
    // must be refused at the service boundary, not panic a worker.
    let mut bad = submission(county(), 0.1, 1);
    bad.budget = serde_json::from_str(r#"{"alpha":0.1,"epsilon":0.0,"delta":0.0}"#)
        .expect("wire budgets bypass constructor validation");
    match client.submit("s", &bad) {
        Err(eree_service::ClientError::Api { status, .. }) => assert_eq!(status, 400),
        other => panic!("zero-budget must 400, got {other:?}"),
    }
    // Unknown release id → 404.
    match client.release(999) {
        Err(eree_service::ClientError::Api { status, .. }) => assert_eq!(status, 404),
        other => panic!("unknown release must 404, got {other:?}"),
    }

    let audit = client.audit().expect("audit");
    assert_eq!(audit.spent_epsilon, 0.0, "nothing was ever charged");
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// The service keeps one summary per season, set by whoever last changed
/// the season. Across every way a season can stand — never used, served
/// by a live worker, retired idle, closed after retiring, closed with its
/// worker live — the last audit is exactly what the agency reads back
/// from disk once the service is gone.
#[test]
fn audit_seasons_match_a_reopened_agency() {
    let dir = tmp_dir("audit-vs-reopen");
    let config = ServiceConfig {
        idle_timeout: Duration::from_millis(1500),
        ..ServiceConfig::new(PrivacyParams::pure(ALPHA, 4.0))
    };
    let service = ReleaseService::start(&dir, dataset(), config).expect("service starts");
    let client = Client::new(service.addr());
    for name in ["unused", "live", "retired", "closed-retired", "closed-live"] {
        client
            .create_season(name, PrivacyParams::pure(ALPHA, 0.5))
            .expect("season fits under the cap");
    }
    let release = |season: &str, seed: u64| {
        let receipt = client
            .submit(season, &submission(county(), 0.2, seed))
            .expect("submitted");
        let done = client.wait_for(receipt.id, WAIT).expect("finishes");
        assert_eq!(done.status, "complete", "error: {:?}", done.error);
    };

    release("retired", 1);
    release("closed-retired", 2);
    let deadline = Instant::now() + WAIT;
    while service.live_workers() > 0 {
        assert!(Instant::now() < deadline, "workers never retired");
        std::thread::sleep(Duration::from_millis(20));
    }
    client.close_season("closed-retired").expect("closes");

    release("live", 3);
    release("live", 4);
    release("closed-live", 5);
    assert_eq!(service.live_workers(), 2);
    client.close_season("closed-live").expect("closes");
    assert_eq!(service.live_workers(), 1, "the close stopped its worker");

    let audit = client.audit().expect("audit");
    service.shutdown();

    let agency = AgencyStore::open(&dir).expect("agency reopens");
    assert_eq!(agency.seasons(), audit.seasons.as_slice());
    for (reopened, audited) in agency.seasons().iter().zip(&audit.seasons) {
        assert_eq!(
            reopened.spent_epsilon.to_bits(),
            audited.spent_epsilon.to_bits()
        );
        assert_eq!(
            reopened.spent_delta.to_bits(),
            audited.spent_delta.to_bits()
        );
    }
    let closed: Vec<&str> = audit
        .seasons
        .iter()
        .filter(|s| s.closed)
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(closed, ["closed-retired", "closed-live"]);
    let completed: Vec<usize> = audit.seasons.iter().map(|s| s.completed).collect();
    assert_eq!(completed, [0, 2, 1, 1, 1]);
    drop(agency);
    let _ = fs::remove_dir_all(&dir);
}

/// One raw exchange: `POST path` carrying `body`, answered in full (the
/// server closes each connection after its response).
fn post_raw(addr: SocketAddr, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connects");
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("request sent");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response read");
    response
}

/// A spec naming an attribute twice is refused at the boundary with 400,
/// whether its key domain would overflow `u64` (16 × `Block`) or not
/// (8 × `Block`), and the season it was sent to keeps serving.
#[test]
fn repeated_attribute_specs_are_refused_and_the_season_keeps_serving() {
    let dir = tmp_dir("repeated-attribute");
    let service = ReleaseService::start(
        &dir,
        dataset(),
        ServiceConfig::new(PrivacyParams::pure(ALPHA, 2.0)),
    )
    .expect("service starts");
    let client = Client::new(service.addr());
    client
        .create_season("s", PrivacyParams::pure(ALPHA, 1.0))
        .expect("season fits under the cap");
    let block = MarginalSpec::new(vec![WorkplaceAttr::Block], vec![]);
    let json = serde_json::to_string(&submission(block, 0.25, 1)).unwrap();
    for copies in [16, 8] {
        let repeated = vec!["\"Block\""; copies].join(",");
        let body = json.replace(
            "\"workplace_attrs\":[\"Block\"]",
            &format!("\"workplace_attrs\":[{repeated}]"),
        );
        assert_ne!(body, json);
        let response = post_raw(service.addr(), "/seasons/s/releases", &body);
        assert!(
            response.starts_with("HTTP/1.1 400 "),
            "{copies} copies: {response}"
        );
    }
    let receipt = client
        .submit("s", &submission(county(), 0.25, 2))
        .expect("a valid release is accepted");
    let done = client.wait_for(receipt.id, WAIT).expect("release finishes");
    assert_eq!(done.status, "complete", "error: {:?}", done.error);
    assert_eq!(service.live_workers(), 1);
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// A `description` whose character lies outside the Basic Multilingual
/// Plane, sent as a JSON surrogate pair (how Python's default
/// `json.dumps` writes 😀), is recorded as that one character: in the
/// released artifact's provenance and in the season's ledger.
#[test]
fn surrogate_pair_descriptions_are_recorded_as_one_character() {
    let dir = tmp_dir("surrogate-pair");
    let service = ReleaseService::start(
        &dir,
        dataset(),
        ServiceConfig::new(PrivacyParams::pure(ALPHA, 2.0)),
    )
    .expect("service starts");
    let client = Client::new(service.addr());
    client
        .create_season("s", PrivacyParams::pure(ALPHA, 1.0))
        .expect("season fits under the cap");
    let mut release = submission(county(), 0.25, 3);
    release.description = Some("jobs \u{1F600}".to_string());
    let json = serde_json::to_string(&release).unwrap();
    let body = json.replace('\u{1F600}', "\\ud83d\\ude00");
    assert_ne!(body, json);
    let response = post_raw(service.addr(), "/seasons/s/releases", &body);
    assert!(response.starts_with("HTTP/1.1 202 "), "{response}");
    let (_, receipt) = response.split_once("\r\n\r\n").expect("a body");
    let receipt: SubmitReceipt = serde_json::from_str(receipt).expect("a receipt");
    let done = client.wait_for(receipt.id, WAIT).expect("release finishes");
    assert_eq!(done.status, "complete", "error: {:?}", done.error);
    let artifact = done.artifact.expect("a complete release has its artifact");
    assert_eq!(artifact.request.description, "jobs \u{1F600}");
    service.shutdown();
    let ledger = fs::read_to_string(dir.join("seasons/s/ledger.json")).unwrap();
    assert!(
        ledger.contains("\"description\":\"jobs \u{1F600}\""),
        "{ledger}"
    );
    let _ = fs::remove_dir_all(&dir);
}
