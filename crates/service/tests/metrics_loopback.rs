//! Loopback test for `GET /metrics`: admission and denial counters over
//! HTTP, the zero-ε repeat path showing up as cache hits (and *only*
//! cache hits — family ε-spend stays bit-identical), and a full service
//! stop/start cycle: the values the ledgers carry come back bit for bit,
//! and every other counter starts again from zero under a later
//! `created` stamp.

use eree_core::definitions::PrivacyParams;
use eree_core::engine::RequestKind;
use eree_core::mechanisms::MechanismKind;
use eree_core::metrics::{FamilySnapshot, MetricsSnapshot};
use eree_service::{Client, ReleaseService, ReleaseSubmission, ServiceConfig};
use lodes::{Dataset, Generator, GeneratorConfig};
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tabulate::{MarginalSpec, WorkerAttr, WorkplaceAttr};

const ALPHA: f64 = 0.1;
const WAIT: Duration = Duration::from_secs(60);

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eree-metrics-it-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn dataset() -> Dataset {
    Generator::new(GeneratorConfig::test_small(55)).generate()
}

fn county() -> MarginalSpec {
    MarginalSpec::new(vec![WorkplaceAttr::County], vec![])
}

fn county_by_age() -> MarginalSpec {
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

fn family<'a>(snapshot: &'a MetricsSnapshot, label: &str) -> &'a FamilySnapshot {
    snapshot
        .families
        .iter()
        .find(|f| f.family == label)
        .expect("snapshot carries every family")
}

/// Poll `/metrics` until the work queue has drained (the executed counter
/// ticks a moment after the release's status flips to terminal).
fn drained(client: &Client) -> MetricsSnapshot {
    let deadline = Instant::now() + WAIT;
    loop {
        let snapshot = client.metrics().expect("GET /metrics");
        if snapshot.service.releases_enqueued == snapshot.service.releases_executed {
            return snapshot;
        }
        assert!(
            Instant::now() < deadline,
            "queue never drained: {snapshot:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn metrics_endpoint_counts_admissions_and_restarts_volatile_counters() {
    let dir = tmp_dir("restart");
    let cap = PrivacyParams::pure(ALPHA, 2.0);
    let service =
        ReleaseService::start(&dir, dataset(), ServiceConfig::new(cap)).expect("service starts");
    let client = Client::new(service.addr());
    client
        .create_season("s", PrivacyParams::pure(ALPHA, 1.0))
        .expect("season fits under the cap");

    // A fresh agency: budget gauges are live before any release.
    let empty = client.metrics().expect("GET /metrics");
    assert_eq!(empty.epsilon_cap.to_bits(), cap.epsilon.to_bits());
    assert_eq!(family(&empty, "marginal").accepted_total, 0);

    // One admitted release: the marginal family accepts it, prices it on
    // the latency histogram, and the worker pipeline counters balance.
    let receipt = client
        .submit("s", &submission(county(), 0.25, 7))
        .expect("submit accepted");
    let done = client.wait_for(receipt.id, WAIT).expect("release finishes");
    assert_eq!(done.status, "complete", "error: {:?}", done.error);
    let snapshot = drained(&client);
    let marginal = family(&snapshot, "marginal");
    assert_eq!(marginal.accepted_total, 1);
    assert_eq!(marginal.denied_total, 0);
    assert!(marginal.latency.count >= 1, "admissions are timed");
    assert!(marginal.epsilon_spent > 0.0);
    assert_eq!(snapshot.service.releases_enqueued, 1);
    assert_eq!(snapshot.service.queue_depth, 0);
    assert!(snapshot.service.worker_spawns >= 1);
    assert!(snapshot.service.http_2xx > 0);
    assert_eq!(snapshot.caches.public_hits, 0);

    // An over-budget submission queues, runs, and is refused by the
    // ledger: one denial with a named reason, nothing charged.
    let over = client
        .submit("s", &submission(county_by_age(), 0.9, 8))
        .expect("submission accepted for queuing");
    let failed = client.wait_for(over.id, WAIT).expect("refusal comes back");
    assert_eq!(failed.status, "failed");
    let snapshot = drained(&client);
    let marginal = family(&snapshot, "marginal");
    assert_eq!(
        marginal.accepted_total, 1,
        "denials never count as accepted"
    );
    assert_eq!(marginal.denied_total, 1);
    let by_reason: u64 = marginal.denied_by_reason.iter().map(|r| r.denied).sum();
    assert_eq!(by_reason, 1, "every denial carries a reason");
    assert_eq!(
        marginal.epsilon_spent.to_bits(),
        family(&drained(&client), "marginal")
            .epsilon_spent
            .to_bits(),
        "a refusal spends nothing"
    );

    // A repeat of the admitted release: answered from the public cache.
    // The hit counter moves; the family's admission count and ε-spend do
    // not move by a single bit.
    let spent_bits = marginal.epsilon_spent.to_bits();
    let repeat = client
        .submit("s", &submission(county(), 0.25, 7))
        .expect("repeat accepted");
    assert!(repeat.cached, "identical request must be a cache hit");
    let snapshot = drained(&client);
    assert_eq!(snapshot.caches.public_hits, 1);
    assert_eq!(family(&snapshot, "marginal").accepted_total, 1);
    assert_eq!(
        family(&snapshot, "marginal").epsilon_spent.to_bits(),
        spent_bits
    );

    // The wire snapshot round-trips through its own JSON bit-exactly.
    let json = serde_json::to_string(&snapshot).expect("serialize");
    let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, snapshot);

    // The audit view embeds the same snapshot.
    let audit = client.audit().expect("audit");
    assert_eq!(audit.metrics.families, snapshot.families);

    // Create a second season, then stop and start the service on the
    // same agency. What the ledgers carry is rebuilt bit for bit; every
    // other counter lives for the process and starts again from zero.
    client
        .create_season("s2", PrivacyParams::pure(ALPHA, 0.5))
        .expect("second season");
    let before = client.metrics().expect("metrics before restart");
    service.shutdown();

    let service = ReleaseService::start(&dir, dataset(), ServiceConfig::new(cap))
        .expect("service reopens the same agency");
    let client = Client::new(service.addr());
    let after = client.metrics().expect("GET /metrics after restart");
    let marginal = family(&after, "marginal");
    assert_eq!(
        marginal.accepted_total, 1,
        "admissions replayed exactly once"
    );
    assert_eq!(
        marginal.epsilon_spent.to_bits(),
        family(&before, "marginal").epsilon_spent.to_bits(),
        "replay-derived spend is bit-exact across restart"
    );
    assert_eq!(
        after.epsilon_remaining.to_bits(),
        before.epsilon_remaining.to_bits()
    );
    assert_eq!(marginal.denied_total, 0, "denials count from the start");
    assert_eq!(
        after.caches.public_hits, 0,
        "cache hits count from the start"
    );
    assert!(
        after.created > before.created,
        "a restart shows as a later creation time"
    );
    // No phantom worker and no phantom queued release.
    assert_eq!(
        after.service.worker_spawns - after.service.worker_retirements,
        service.live_workers() as u64,
        "spawns − retirements is the live worker count: {:?}",
        after.service
    );
    assert_eq!(after.service.queue_depth, 0);

    // Repeats stay free after the restart too: the durable public cache
    // answers, the hit counter moves, the spend still does not.
    let hit = client
        .submit("s", &submission(county(), 0.25, 7))
        .expect("repeat after restart");
    assert!(hit.cached, "the public cache is durable");
    let final_snapshot = drained(&client);
    assert_eq!(final_snapshot.caches.public_hits, 1);
    assert_eq!(
        family(&final_snapshot, "marginal").epsilon_spent.to_bits(),
        family(&before, "marginal").epsilon_spent.to_bits()
    );
    assert_eq!(family(&final_snapshot, "marginal").accepted_total, 1);

    // A shapes release and a per-cell-budget release repeat as hits too:
    // the submit path and the worker key a release by one provenance.
    let mut shapes = submission(county_by_age(), 0.2, 9);
    shapes.kind = RequestKind::Shapes;
    let mut per_cell = submission(county(), 0.1, 10);
    per_cell.budget_is_per_cell = true;
    for repeatable in [shapes, per_cell] {
        let receipt = client.submit("s2", &repeatable).expect("submitted");
        assert!(!receipt.cached);
        let done = client.wait_for(receipt.id, WAIT).expect("finishes");
        assert_eq!(done.status, "complete", "error: {:?}", done.error);
        let repeat = client.submit("s2", &repeatable).expect("repeat");
        assert!(
            repeat.cached,
            "a {:?} repeat is a cache hit",
            repeatable.kind
        );
    }
    assert_eq!(drained(&client).caches.public_hits, 3);

    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Pull the first sample line of metric `name` out of an exposition.
fn sample<'a>(text: &'a str, name: &str) -> &'a str {
    text.lines()
        .find(|l| !l.starts_with('#') && l.starts_with(name))
        .unwrap_or_else(|| panic!("exposition has no {name} sample"))
}

#[test]
fn openmetrics_exposition_mirrors_the_json_snapshot() {
    let dir = tmp_dir("openmetrics");
    let cap = PrivacyParams::pure(ALPHA, 2.0);
    let service =
        ReleaseService::start(&dir, dataset(), ServiceConfig::new(cap)).expect("service starts");
    let client = Client::new(service.addr());
    client
        .create_season("s", PrivacyParams::pure(ALPHA, 1.0))
        .expect("season fits under the cap");
    let receipt = client
        .submit("s", &submission(county(), 0.25, 7))
        .expect("submit accepted");
    let done = client.wait_for(receipt.id, WAIT).expect("release finishes");
    assert_eq!(done.status, "complete", "error: {:?}", done.error);
    let snapshot = drained(&client);

    let text = client
        .metrics_text()
        .expect("GET /metrics?format=openmetrics");
    assert!(text.ends_with("# EOF\n"), "exposition must terminate");

    // Every non-comment line is `name{labels} value` with a float value.
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value in {line:?}"
        );
    }

    // The text samples agree with the JSON snapshot fetched alongside.
    let marginal = family(&snapshot, "marginal");
    assert_eq!(
        sample(&text, "eree_releases_accepted_total{family=\"marginal\"}"),
        format!(
            "eree_releases_accepted_total{{family=\"marginal\"}} {}",
            marginal.accepted_total
        )
    );
    assert_eq!(
        sample(
            &text,
            "eree_release_latency_micros_count{family=\"marginal\"}"
        ),
        format!(
            "eree_release_latency_micros_count{{family=\"marginal\"}} {}",
            marginal.latency.count
        )
    );
    // The +Inf bucket is cumulative: it equals the histogram count.
    assert_eq!(
        sample(
            &text,
            "eree_release_latency_micros_bucket{family=\"marginal\",le=\"+Inf\"}"
        )
        .rsplit_once(' ')
        .unwrap()
        .1,
        marginal.latency.count.to_string()
    );
    let cap_line = sample(&text, "eree_epsilon_cap");
    assert_eq!(
        cap_line.rsplit_once(' ').unwrap().1.parse::<f64>().unwrap(),
        snapshot.epsilon_cap
    );
    assert_eq!(
        sample(&text, "eree_season_queue_depth{season=\"s\"}"),
        "eree_season_queue_depth{season=\"s\"} 0"
    );

    // Every counter and histogram series carries one `_created` sample,
    // the registry's creation time.
    let samples: Vec<(&str, &str)> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.rsplit_once(' ').expect("sample has a value"))
        .collect();
    let series = samples
        .iter()
        .filter(|(name, _)| {
            name.contains("_total") || name.starts_with("eree_release_latency_micros_count")
        })
        .count();
    let created: Vec<f64> = samples
        .iter()
        .filter(|(name, _)| name.contains("_created"))
        .map(|(_, value)| value.parse().expect("created is a float"))
        .collect();
    assert!(series > 0);
    assert_eq!(created.len(), series, "one _created per series");
    assert!(created.iter().all(|&c| c == snapshot.created));

    // The default format is still JSON.
    let json_snapshot = client.metrics().expect("plain GET /metrics stays JSON");
    assert_eq!(json_snapshot.families, snapshot.families);

    // An unknown format is refused with a 400, not silently defaulted.
    {
        use std::io::{Read as _, Write as _};
        let mut stream = std::net::TcpStream::connect(service.addr()).expect("connect");
        stream
            .write_all(b"GET /metrics?format=xml HTTP/1.1\r\nHost: s\r\nConnection: close\r\n\r\n")
            .expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 400"), "got: {raw}");
    }

    service.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
