//! The release service end to end on loopback: start the HTTP frontend
//! over a fresh agency, serve two tenants, demonstrate the zero-ε public
//! cache on a repeat request, print the audit trail, then restart on the
//! same directory and check that every release reads back unchanged, that
//! the deep audit finds every stored body intact, and that the agency
//! reopened after shutdown reports the same seasons as the last audit.
//!
//! ```text
//! cargo run --release --example release_service
//! ```

use eree::prelude::*;
use eree_core::engine::{ReleaseArtifact, RequestKind};
use eree_core::ReleaseCache;
use eree_service::BodyAudit;
use std::time::Duration;

fn submission(spec: MarginalSpec, epsilon: f64, seed: u64) -> ReleaseSubmission {
    ReleaseSubmission {
        kind: RequestKind::Marginal,
        spec,
        mechanism: MechanismKind::LogLaplace,
        budget: PrivacyParams::pure(0.1, epsilon),
        budget_is_per_cell: false,
        filter: None,
        integerize: true,
        seed,
        description: None,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("eree-example-release-service");
    let _ = std::fs::remove_dir_all(&dir);

    // One agency, one global cap, one confidential dataset — exposed to
    // many tenants over HTTP.
    let dataset = Generator::new(GeneratorConfig::test_small(7)).generate();
    let cap = PrivacyParams::pure(0.1, 2.0);
    let service = ReleaseService::start(&dir, dataset.clone(), ServiceConfig::new(cap))?;
    let client = Client::new(service.addr());
    println!("release service listening on http://{}", service.addr());

    // Two tenants reserve their seasons; the budget is held durably in
    // the agency meta-ledger before either runs anything.
    for (season, epsilon) in [("census-q1", 1.0), ("bls-q1", 0.6)] {
        let created = client.create_season(season, PrivacyParams::pure(0.1, epsilon))?;
        println!(
            "season {:<9} reserved eps={:.1} (agency eps remaining: {:.1})",
            created.name, created.budget.epsilon, created.remaining_epsilon
        );
    }

    // Each tenant releases the county x age marginal under its own
    // budget and seed.
    let spec = MarginalSpec::new(vec![WorkplaceAttr::County], vec![WorkerAttr::Age]);
    let mut ids = Vec::new();
    for (season, seed) in [("census-q1", 41), ("bls-q1", 42)] {
        let receipt = client.submit(season, &submission(spec.clone(), 0.3, seed))?;
        ids.push(receipt.id);
        let done = client.wait_for(receipt.id, Duration::from_secs(60))?;
        println!(
            "{season}: release {} is {} (cached: {})",
            done.id, done.status, done.cached
        );
        assert_eq!(done.status, "complete");
    }

    // A repeat of an identical request never touches the confidential
    // side again: it is served from the public released-artifact cache,
    // spends zero ε, and tabulates nothing.
    let before = client.audit()?;
    let repeat = client.submit("census-q1", &submission(spec.clone(), 0.3, 41))?;
    let after = client.audit()?;
    println!(
        "repeat request: status={} cached={} (eps spent {:.2} -> {:.2}, tabulations {} -> {})",
        repeat.status,
        repeat.cached,
        before.spent_epsilon,
        after.spent_epsilon,
        before.metrics.caches.truth_computed,
        after.metrics.caches.truth_computed,
    );
    assert!(repeat.cached, "repeat must be a cache hit");
    ids.push(repeat.id);
    assert_eq!(before.spent_epsilon, after.spent_epsilon);
    assert_eq!(
        before.metrics.caches.truth_computed,
        after.metrics.caches.truth_computed
    );

    println!(
        "\naudit: cap eps={:.1}, reserved={:.1}, spent={:.2}, cache entries={}, cache hits={}",
        after.cap.epsilon,
        after.reserved_epsilon,
        after.spent_epsilon,
        after.cache_entries,
        after.metrics.caches.public_hits,
    );
    for season in &after.seasons {
        println!(
            "  {:<9} eps {:.2}/{:.1} across {} release(s)",
            season.name, season.spent_epsilon, season.budget.epsilon, season.completed
        );
    }

    // `GET /metrics` publishes the same accounting as a structured
    // snapshot: two admitted marginals, one public-cache hit, and a JSON
    // form that round-trips bit-exactly.
    let metrics = client.metrics()?;
    let marginal = metrics
        .families
        .iter()
        .find(|f| f.family == "marginal")
        .expect("snapshot carries the marginal family");
    assert_eq!(marginal.accepted_total, 2);
    assert_eq!(marginal.denied_total, 0);
    assert!(metrics.caches.public_hits >= 1, "the repeat was a hit");
    let roundtrip: eree_core::metrics::MetricsSnapshot =
        serde_json::from_str(&serde_json::to_string(&metrics)?)?;
    assert_eq!(roundtrip, metrics);
    println!(
        "metrics: marginal accepted={} eps_spent={:.2}, public cache hits={}",
        marginal.accepted_total, marginal.epsilon_spent, metrics.caches.public_hits,
    );

    // Restart on the same directory. The registry keeps each release's
    // content digest and where its body lives, so the start reads no body;
    // every id then answers the same artifact bytes, and the deep audit
    // reads and checks every stored body.
    let digests = artifact_digests(&client, &ids)?;
    service.shutdown();
    println!("\nservice drained, leases released, agency directory intact");
    let service = ReleaseService::start(&dir, dataset, ServiceConfig::new(cap))?;
    let client = Client::new(service.addr());
    assert_eq!(artifact_digests(&client, &ids)?, digests);
    let deep = client.audit_deep()?;
    assert_eq!(
        deep.bodies,
        Some(BodyAudit {
            checked: ids.len() as u64,
            failed: vec![],
        })
    );
    println!(
        "restarted: {} release(s) read back with unchanged digests; deep audit checked {} bodies, \
         none failed",
        ids.len(),
        ids.len()
    );

    // The service keeps one summary per season; once it is gone, the
    // agency reopened from disk reports exactly what its last audit did.
    service.shutdown();
    let agency = AgencyStore::open(&dir)?;
    assert_eq!(agency.seasons(), deep.seasons.as_slice());
    println!(
        "reopened agency: {} season summaries equal the final audit's",
        agency.seasons().len()
    );
    drop(agency);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The content digest of each release's served artifact.
fn artifact_digests(client: &Client, ids: &[u64]) -> Result<Vec<u64>, Box<dyn std::error::Error>> {
    ids.iter()
        .map(|&id| {
            let view = client.release(id)?;
            let artifact: ReleaseArtifact = view
                .artifact
                .ok_or_else(|| format!("release {id} is {}: {:?}", view.status, view.error))?;
            Ok(ReleaseCache::artifact_digest(&artifact))
        })
        .collect()
}
