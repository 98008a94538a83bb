//! The traced run's layer pass: the first ops of a workload's sequence
//! replayed on a scratch agency by calling each layer's public functions
//! in the order the season worker calls them, each call inside a span.

use crate::host;
use crate::plan::{self, ALPHA, SEASONS};
use crate::trace::Tracer;
use crate::workloads::{Stage, Workload, CAP_EPSILON, CLIENTS, SEASON_EPSILON};
use eree_core::agency::AgencyStore;
use eree_core::definitions::PrivacyParams;
use eree_core::engine::ReleaseArtifact;
use eree_core::public_cache::{ReleaseCache, ReleaseKey};
use eree_core::store::dataset_digest;
use std::path::Path;
use tabulate::DatasetIndex;

/// Ops the `publish` pass replays.
const REPLAYED_OPS: usize = 16;
/// Cycles the `restart` pass replays.
const REPLAYED_CYCLES: usize = 3;
/// Repetitions of the codec measurement.
const CODEC_REPETITIONS: usize = 5;

fn failed<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("layer pass, {what}: {e}")
}

/// Replay the workload's first ops layer by layer under `tracer`;
/// returns how many ops (cycles on `restart`) were replayed.
pub fn replay(
    workload: Workload,
    stage: &Stage,
    seed: u64,
    work: &Path,
    tracer: &mut Tracer,
) -> Result<usize, String> {
    let dir = work.join("layers");
    let digest = dataset_digest(&stage.dataset);
    let replayed = match workload {
        Workload::Publish => publish(stage, &dir, digest, tracer)?,
        Workload::Restart => restart(stage, seed, &dir, digest, tracer)?,
    };
    codec(stage, digest, tracer)?;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(replayed)
}

/// The season worker's path for a new release: tabulate, persist the
/// truth, sample and charge, record, load back, publish to the cache.
fn publish(stage: &Stage, dir: &Path, digest: u64, tracer: &mut Tracer) -> Result<usize, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(failed("clearing"))?;
    }
    let mut agency = AgencyStore::create(dir, PrivacyParams::pure(ALPHA, CAP_EPSILON))
        .map_err(failed("agency"))?;
    agency.bind_dataset(digest).map_err(failed("bind"))?;
    let mut season = agency
        .create_season(SEASONS[0], PrivacyParams::pure(ALPHA, SEASON_EPSILON))
        .map_err(failed("season"))?;
    let truths = agency
        .truth_store_pinned(digest)
        .map_err(failed("truths"))?;
    let cache = agency.release_cache().map_err(failed("cache"))?;
    // A season worker builds its index once per spawn, not per release, so
    // this span sits outside every replayed op.
    let index = tracer.time("tabulate.index_build", u64::MAX, None, || {
        DatasetIndex::build_auto(&stage.dataset)
    });
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shards = index.effective_shards(threads);
    let mut engine = season.engine();
    // The ops the first measured round ran (after the set-up's warm-ups).
    let ops = &stage.sequence[CLIENTS..CLIENTS + REPLAYED_OPS];
    for (i, release) in ops.iter().enumerate() {
        let op = i as u64;
        let root = tracer.open("op.replay", op, None);
        let request = release.submission().to_request();
        let spec = tabulate::workload3();
        let expr = release.filter.expr().normalized();
        let truth = tracer.time("tabulate.marginal", op, root, || {
            index.marginal_expr_sharded(&spec, &expr, shards)
        });
        tracer
            .time("truths.save", op, root, || {
                truths.save(&spec, Some(&expr), &truth)
            })
            .map_err(failed("truth save"))?;
        let artifact = tracer
            .time("engine.sample", op, root, || {
                engine.execute_precomputed(&truth, &request)
            })
            .map_err(failed("sample"))?;
        tracer
            .time("store.record", op, root, || {
                season.record(engine.ledger(), &artifact)
            })
            .map_err(failed("record"))?;
        let loaded = tracer
            .time("store.load_artifact", op, root, || {
                season.load_artifact(season.completed() - 1)
            })
            .map_err(failed("load back"))?;
        let key = ReleaseKey::of(&loaded.request, digest).ok_or("layer pass: no cache key")?;
        tracer
            .time("public_cache.save", op, root, || cache.save(&key, &loaded))
            .map_err(failed("cache save"))?;
        tracer.close(root);
    }
    Ok(ops.len())
}

/// What a start and the first release after it open: the agency (which
/// verifies every season), every registry record's artifact, the
/// released season a second time, the index, and the reused truth.
fn restart(
    stage: &Stage,
    seed: u64,
    dir: &Path,
    digest: u64,
    tracer: &mut Tracer,
) -> Result<usize, String> {
    let prepopulated: Vec<_> = stage.released.iter().map(|r| r.release.clone()).collect();
    let cycles = plan::restart_sequence(seed, &prepopulated, REPLAYED_CYCLES);
    for (c, cycle) in cycles.iter().enumerate() {
        let op = c as u64;
        host::link_tree(&stage.pristine, dir).map_err(failed("reset"))?;
        let root = tracer.open("op.replay", op, None);
        let agency = tracer
            .time("agency.open", op, root, || AgencyStore::open(dir))
            .map_err(failed("agency open"))?;
        let cache = agency.release_cache().map_err(failed("cache"))?;
        for key in 0..stage.released.len() {
            let key = stage.key(key, digest);
            tracer
                .time("public_cache.load", op, root, || cache.load(&key))
                .ok_or("layer pass: a pre-populated release is not in the cache")?;
        }
        let season = SEASONS[stage.released[cycle.reuse].season];
        let store = tracer
            .time("store.open", op, root, || agency.open_season(season))
            .map_err(failed("season open"))?;
        drop(store);
        tracer.time("tabulate.index_build", op, root, || {
            DatasetIndex::build_auto(&stage.dataset)
        });
        let truths = agency
            .truth_store_pinned(digest)
            .map_err(failed("truths"))?;
        let expr = cycle.release.filter.expr().normalized();
        tracer
            .time("truths.load", op, root, || {
                truths.load(&tabulate::workload3(), Some(&expr))
            })
            .ok_or("layer pass: the reused truth is not on disk")?;
        tracer.close(root);
    }
    Ok(cycles.len())
}

/// The vendored `serde_json` on one ≈1 MB artifact, both directions.
fn codec(stage: &Stage, digest: u64, tracer: &mut Tracer) -> Result<(), String> {
    let cache = ReleaseCache::open(stage.pristine.join("public")).map_err(failed("cache"))?;
    let artifact = cache
        .load(&stage.key(0, digest))
        .ok_or("layer pass: the first release is not in the cache")?;
    for _ in 0..CODEC_REPETITIONS {
        let json = tracer.time("codec.serialize", u64::MAX, None, || {
            serde_json::to_string(&artifact).expect("artifacts serialize")
        });
        let parsed: ReleaseArtifact = tracer
            .time("codec.parse", u64::MAX, None, || {
                serde_json::from_str(&json)
            })
            .map_err(failed("parse"))?;
        if ReleaseCache::artifact_digest(&parsed) != ReleaseCache::artifact_digest(&artifact) {
            return Err("layer pass: an artifact did not survive a JSON round trip".to_string());
        }
    }
    Ok(())
}
