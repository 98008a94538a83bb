//! Restart and read paths of the release service: the registry keeps
//! content digests and body sites, not artifacts, so a start reads no
//! body and `GET /releases/{id}` serves the stored bytes, checked against
//! the recorded digest. Pins the served bytes, the deep audit, the
//! refusal of a registry the service cannot read, and that an id is
//! handed out only once its record is durable.

use eree_core::agency::AgencyStore;
use eree_core::definitions::PrivacyParams;
use eree_core::engine::RequestKind;
use eree_core::mechanisms::MechanismKind;
use eree_core::store::dataset_digest;
use eree_core::{ReleaseKey, StoreError};
use eree_service::{
    AuditView, BodyAudit, Client, ClientError, ReleaseService, ReleaseStatusView,
    ReleaseSubmission, ServiceConfig, ServiceError,
};
use lodes::{Dataset, Generator, GeneratorConfig};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;
use tabulate::{MarginalSpec, WorkerAttr, WorkplaceAttr};

const ALPHA: f64 = 0.1;
const WAIT: Duration = Duration::from_secs(60);

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "eree-service-restart-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn dataset() -> Dataset {
    Generator::new(GeneratorConfig::test_small(61)).generate()
}

fn cap() -> PrivacyParams {
    PrivacyParams::pure(ALPHA, 4.0)
}

fn submission(seed: u64) -> ReleaseSubmission {
    ReleaseSubmission {
        kind: RequestKind::Marginal,
        spec: MarginalSpec::new(vec![WorkplaceAttr::County], vec![WorkerAttr::Age]),
        mechanism: MechanismKind::LogLaplace,
        budget: PrivacyParams::pure(ALPHA, 0.5),
        budget_is_per_cell: false,
        filter: None,
        integerize: false,
        seed,
        description: None,
    }
}

fn start(dir: &Path) -> ReleaseService {
    ReleaseService::start(dir, dataset(), ServiceConfig::new(cap())).expect("service starts")
}

/// Start a service on a fresh `dir`, create season `s`, and complete one
/// admitted release per seed; returns the release ids.
fn populate(dir: &Path, seeds: &[u64]) -> Vec<u64> {
    let service = start(dir);
    let client = Client::new(service.addr());
    client
        .create_season("s", PrivacyParams::pure(ALPHA, 2.0))
        .expect("season fits under the cap");
    let ids = seeds
        .iter()
        .map(|&seed| {
            let receipt = client.submit("s", &submission(seed)).expect("submitted");
            let done = client.wait_for(receipt.id, WAIT).expect("finishes");
            assert_eq!(done.status, "complete", "error: {:?}", done.error);
            receipt.id
        })
        .collect();
    service.shutdown();
    ids
}

/// The public-cache key of `submission(7)`, the cache hit's release.
fn hit_key(dir: &Path) -> ReleaseKey {
    let agency = AgencyStore::open(dir).expect("agency opens");
    let artifact = agency
        .open_season("s")
        .expect("season opens")
        .load_artifact(0)
        .expect("the body reads back");
    ReleaseKey::of(&artifact.request, dataset_digest(&dataset())).expect("a declarative release")
}

/// The view `GET /releases/{id}` must write: the typed view of the
/// artifact `load_artifact` reads back, serialized.
fn expected_view(id: u64, season: &str, cached: bool, dir: &Path, index: usize) -> String {
    let agency = AgencyStore::open(dir).expect("agency opens");
    let artifact = agency
        .open_season("s")
        .expect("season opens")
        .load_artifact(index)
        .expect("the body reads back");
    serde_json::to_string(&ReleaseStatusView {
        id,
        season: season.to_string(),
        status: "complete".to_string(),
        cached,
        error: None,
        artifact: Some(artifact),
    })
    .unwrap()
}

#[test]
fn served_bytes_are_the_stored_body_before_and_after_a_restart() {
    let dir = tmp_dir("served-bytes");
    let admitted = populate(&dir, &[7])[0];
    let service = start(&dir);
    let client = Client::new(service.addr());
    let hit = client
        .submit("s", &submission(7))
        .expect("repeat submitted");
    assert!(hit.cached, "an identical request is a cache hit");
    let before = [
        client.release_json(admitted).unwrap(),
        client.release_json(hit.id).unwrap(),
    ];
    service.shutdown();

    let expected = [
        expected_view(admitted, "s", false, &dir, 0),
        expected_view(hit.id, "", true, &dir, 0),
    ];
    assert_eq!(before, expected, "served before the restart");

    // Each record holds only what locates its body: an admitted release
    // its season and index, a cache hit its public key.
    let registry: serde::Value =
        serde_json::from_str(&fs::read_to_string(dir.join("releases.json")).unwrap()).unwrap();
    let Some(serde::Value::Seq(records)) = registry.get("records") else {
        panic!("a registry holds a list of records")
    };
    let names = |id: u64| -> Vec<String> {
        let serde::Value::Map(fields) = &records[id as usize] else {
            panic!("a record is an object")
        };
        fields.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(names(admitted), ["season", "status", "digest", "index"]);
    assert_eq!(names(hit.id), ["status", "digest", "key"]);
    assert_eq!(
        records[hit.id as usize].get("key"),
        Some(&serde_json::to_value(&hit_key(&dir)))
    );
    for view in &expected {
        // The shape the benchmark parses: `status` in the first 512
        // bytes, the artifact last.
        assert!(view[..512].contains(r#""status":"complete""#));
        let at = view.find(r#""artifact":"#).unwrap();
        assert!(view[at..].starts_with(r#""artifact":{"request":"#));
        assert!(view.ends_with("}}"));
    }

    let service = start(&dir);
    let client = Client::new(service.addr());
    let after = [
        client.release_json(admitted).unwrap(),
        client.release_json(hit.id).unwrap(),
    ];
    assert_eq!(after, expected, "served after the restart");
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// The plain audit fields a body check cannot change.
fn ledger_view(audit: &AuditView) -> (f64, u64, u64, String) {
    (
        audit.spent_epsilon,
        audit.releases,
        audit.cache_entries,
        serde_json::to_string(&audit.seasons).unwrap(),
    )
}

#[test]
fn deep_audit_names_a_damaged_body_that_start_does_not_read() {
    let dir = tmp_dir("deep-audit");
    let ids = populate(&dir, &[11, 12]);
    let service = start(&dir);
    let client = Client::new(service.addr());
    let plain = client.audit().unwrap();
    assert_eq!(plain.bodies, None, "the plain audit reads no body");
    let deep = client.audit_deep().unwrap();
    assert_eq!(
        deep.bodies,
        Some(BodyAudit {
            checked: 2,
            failed: vec![]
        })
    );
    service.shutdown();

    // Flip one byte of the second release's season body.
    let body = dir
        .join("seasons")
        .join("s")
        .join("artifacts")
        .join("000001.json");
    let mut bytes = fs::read(&body).unwrap();
    let last = bytes.len() - 3;
    bytes[last] ^= 0x01;
    fs::write(&body, &bytes).unwrap();
    let registry = fs::read(dir.join("releases.json")).unwrap();

    let service = start(&dir);
    let client = Client::new(service.addr());
    let damaged = client.audit().unwrap();
    assert_eq!(ledger_view(&damaged), ledger_view(&plain));
    assert_eq!(damaged.bodies, None);
    assert_eq!(
        client.audit_deep().unwrap().bodies,
        Some(BodyAudit {
            checked: 2,
            failed: vec![ids[1]]
        })
    );
    let view = client.release(ids[1]).unwrap();
    assert_eq!(view.status, "failed");
    assert!(view.artifact.is_none());
    let error = view.error.unwrap();
    assert!(error.contains("content-digest"), "{error}");
    assert_eq!(client.release(ids[0]).unwrap().status, "complete");
    service.shutdown();
    assert_eq!(
        fs::read(dir.join("releases.json")).unwrap(),
        registry,
        "reads and audits never rewrite the registry"
    );
    let _ = fs::remove_dir_all(&dir);
}

fn refused(dir: &Path) -> String {
    match ReleaseService::start(dir, dataset(), ServiceConfig::new(cap())) {
        Err(ServiceError::Store(StoreError::Corrupt { detail, .. })) => detail,
        Err(other) => panic!("expected a corrupt-registry refusal, got {other}"),
        Ok(service) => {
            service.shutdown();
            panic!("a start on an unreadable registry must be refused")
        }
    }
}

#[test]
fn an_unreadable_registry_refuses_the_start() {
    let dir = tmp_dir("registry");
    let ids = populate(&dir, &[21]);
    let path = dir.join("releases.json");
    let original = fs::read_to_string(&path).unwrap();

    // Garbled, an unknown format, and the format-1 and format-2 layouts
    // are each refused, and the file is left alone — an empty registry
    // would reissue id 0 over the old records.
    for (file, needle) in [
        (original[..original.len() / 2].to_string(), ""),
        (
            original.replace(r#""format":3"#, r#""format":99"#),
            "unsupported registry format 99",
        ),
        (in_old_layout(&original, 1), "unsupported registry format 1"),
        (in_old_layout(&original, 2), "unsupported registry format 2"),
    ] {
        fs::write(&path, &file).unwrap();
        let detail = refused(&dir);
        assert!(detail.contains(needle), "{detail}");
        assert_eq!(fs::read_to_string(&path).unwrap(), file);
    }

    // A missing file is an empty registry.
    fs::remove_file(&path).unwrap();
    let service = start(&dir);
    let client = Client::new(service.addr());
    assert!(client.release(ids[0]).is_err(), "no records after a reset");
    service.shutdown();

    fs::write(&path, &original).unwrap();
    let service = start(&dir);
    let client = Client::new(service.addr());
    assert_eq!(client.release(ids[0]).unwrap().status, "complete");
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// While the registry cannot be written, a submission — a cache hit or a
/// miss — is refused with a 500 naming the registry file and takes no id:
/// an id whose record was lost would be issued again after a restart, and
/// then answer another release.
#[test]
fn a_release_id_is_handed_out_only_once_its_record_is_durable() {
    let dir = tmp_dir("durable-ids");
    let service = start(&dir);
    let client = Client::new(service.addr());
    client
        .create_season("s", PrivacyParams::pure(ALPHA, 2.0))
        .expect("season fits under the cap");
    let first = client.submit("s", &submission(1)).expect("submitted");
    let done = client.wait_for(first.id, WAIT).expect("finishes");
    assert_eq!(done.status, "complete", "error: {:?}", done.error);
    let before = client.audit().unwrap();

    // Block the registry: a non-empty directory where its file goes.
    let path = dir.join("releases.json");
    let saved = fs::read(&path).unwrap();
    fs::remove_file(&path).unwrap();
    fs::create_dir(&path).unwrap();
    fs::write(path.join("blocker"), b"").unwrap();
    for seed in [1, 2] {
        match client.submit("s", &submission(seed)) {
            Err(ClientError::Api { status, message }) => {
                assert_eq!(status, 500);
                assert!(message.contains("releases.json"), "{message}");
            }
            other => panic!("an id that cannot be recorded must not be handed out: {other:?}"),
        }
    }
    let leftover: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("releases.json.") && name.ends_with(".tmp"))
        .collect();
    assert!(
        leftover.is_empty(),
        "a refused write leaves no temp file: {leftover:?}"
    );
    let blocked = client.audit().unwrap();
    assert_eq!(blocked.releases, before.releases);
    assert_eq!(blocked.spent_epsilon, before.spent_epsilon);
    let (was, now) = (&before.metrics, &blocked.metrics);
    assert_eq!(now.caches.public_hits, was.caches.public_hits);
    assert_eq!(now.service.releases_enqueued, was.service.releases_enqueued);
    assert_eq!(now.service.http_5xx, was.service.http_5xx + 2);
    service.shutdown();

    // Unblocked and restarted, every id handed out answers its own
    // release.
    fs::remove_dir_all(&path).unwrap();
    fs::write(&path, saved).unwrap();
    let service = start(&dir);
    let client = Client::new(service.addr());
    let next = client.submit("s", &submission(3)).expect("submitted");
    let done = client.wait_for(next.id, WAIT).expect("finishes");
    assert_eq!(done.status, "complete", "error: {:?}", done.error);
    for (id, seed) in [(first.id, 1), (next.id, 3)] {
        let view = client.release(id).unwrap();
        assert_eq!(
            view.artifact.expect("a complete release").request.seed,
            seed
        );
    }
    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// `registry`'s records in an older layout: format 2 gave every record a
/// `cached` flag and nullable `error` and `key`; format 1 had no `digest`
/// or `index` besides.
fn in_old_layout(registry: &str, format: u64) -> String {
    let mut value: serde::Value = serde_json::from_str(registry).unwrap();
    let serde::Value::Map(fields) = &mut value else {
        panic!("a registry is an object")
    };
    for (name, field) in fields {
        match (name.as_str(), field) {
            ("format", old) => *old = serde::Value::U64(format),
            ("records", serde::Value::Seq(records)) => {
                for record in records {
                    let serde::Value::Map(fields) = record else {
                        panic!("a record is an object")
                    };
                    fields.push(("cached".to_string(), serde::Value::Bool(false)));
                    fields.push(("error".to_string(), serde::Value::Null));
                    fields.push(("key".to_string(), serde::Value::Null));
                    if format == 1 {
                        fields.retain(|(name, _)| name != "digest" && name != "index");
                    }
                }
            }
            _ => {}
        }
    }
    serde_json::to_string(&value).unwrap()
}
