//! The **public** released-artifact cache: once ε is spent, serving the
//! same artifact again is free.
//!
//! A [`ReleaseArtifact`] is a *published* object. The moment it leaves
//! the engine, its privacy cost is paid in full, and differential privacy
//! is closed under post-processing — so answering an **identical** repeat
//! request from a copy of the artifact spends zero additional budget and
//! needs zero access to the confidential snapshot. At
//! millions-of-users scale repeat queries are the overwhelming majority
//! of traffic, and this cache is what lets a release service answer them
//! without touching tabulation, the ledger, or the data: the hot path of
//! [`eree_service`'s](crate) HTTP frontend is a single digest-named file
//! read.
//!
//! # The public/confidential boundary
//!
//! Everything under the cache directory is, by construction,
//! **releasable**: only completed artifacts — already charged to a
//! ledger, already persisted by a [`SeasonStore`](crate::store::SeasonStore)
//! — are ever written here. Nothing in a cache file derives from the
//! confidential data except through a mechanism whose cost the
//! meta-ledger accounts for. The directory can be rsynced to a public
//! mirror wholesale. Contrast the sibling
//! [`TruthStore`](crate::truths::TruthStore), which holds *exact*
//! confidential tabulations and must never cross that boundary; the two
//! stores share their integrity machinery (atomic temp-file + rename
//! writes, content-digest verification on load, structural key
//! comparison) but sit on opposite sides of the release barrier.
//!
//! # Addressing
//!
//! A released artifact is a **pure function** of its [`ReleaseKey`]:
//! dataset digest, request kind, marginal spec, mechanism, budget (and
//! whether it was per-cell), normalized filter expression, integerization
//! flag, and seed. Noise streams derive deterministically from
//! `(seed, cell key)`, so two requests agreeing on the key produce
//! bit-identical artifacts — which is exactly what licenses serving a
//! cached copy. The free-form description is *not* part of the key: it
//! labels a release, it does not define one.
//!
//! Files are named by an FNV-1a digest of the canonical key JSON, but the
//! digest only names: the full key is stored inside the file, compared
//! structurally on load, and cross-checked against the artifact's own
//! recorded provenance, so a digest collision (or a tampered pairing of
//! key and artifact) can alias nothing.
//!
//! # Integrity
//!
//! Same discipline as the truth store: atomic writes, and loads verify
//! format, structural key equality, key-vs-provenance agreement, and a
//! recorded content digest that must reproduce from the stored artifact.
//! Any failure reads as a **miss** — the caller re-executes the release
//! (deterministically identical, though re-charged) and the rewrite
//! repairs the file. A corrupt cache can cost budget; it can never serve
//! garbage.

use crate::definitions::PrivacyParams;
use crate::engine::{ReleaseArtifact, RequestKind, RequestProvenance};
use crate::mechanisms::MechanismKind;
use crate::metrics::MetricsRegistry;
use crate::store::{fnv1a_bytes, read_json, write_json_atomic, StoreError};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tabulate::{FilterExpr, MarginalSpec};

/// Cache-file format version, recorded in every file so a future layout
/// change invalidates (rather than misreads) old entries.
/// Version 2: provenance no longer carries the closure-era `filtered`
/// flag, so a version-1 file (which may record `filtered: true` with no
/// expression) is a miss, never an unfiltered hit.
const CACHE_FORMAT_VERSION: u32 = 2;

/// The full identity of one released artifact — everything its bits are a
/// deterministic function of. See the [module docs](self) for why the
/// description is excluded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReleaseKey {
    /// Fingerprint of the confidential dataset
    /// ([`dataset_digest`](crate::store::dataset_digest)).
    pub dataset_digest: u64,
    /// Marginal or shapes release.
    pub kind: RequestKind,
    /// The tabulated spec.
    pub spec: MarginalSpec,
    /// The sampling mechanism.
    pub mechanism: MechanismKind,
    /// The requested budget (total or per-cell, per
    /// [`budget_is_per_cell`](Self::budget_is_per_cell)).
    pub budget: PrivacyParams,
    /// Whether [`budget`](Self::budget) was per-cell parameters.
    pub budget_is_per_cell: bool,
    /// The **normalized** filter expression, `None` when unfiltered.
    pub filter: Option<FilterExpr>,
    /// Whether outputs were rounded to non-negative integers.
    pub integerized: bool,
    /// The request seed the noise streams derive from.
    pub seed: u64,
}

impl ReleaseKey {
    /// The key of the artifact `provenance` describes, released against
    /// the dataset fingerprinted by `dataset_digest`.
    ///
    /// Always `Some`: every release records its filter as a declarative
    /// expression, so every artifact has a cache identity. The `Option`
    /// is kept for callers written against it.
    pub fn of(provenance: &RequestProvenance, dataset_digest: u64) -> Option<Self> {
        Some(Self {
            dataset_digest,
            kind: provenance.kind,
            spec: provenance.spec.clone(),
            mechanism: provenance.mechanism,
            budget: provenance.budget,
            budget_is_per_cell: provenance.budget_is_per_cell,
            filter: provenance.filter.as_ref().map(FilterExpr::normalized),
            integerized: provenance.integerized,
            seed: provenance.seed,
        })
    }
}

/// The on-disk form of one cached release: the full identity key, the
/// artifact, and the artifact's content digest.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CacheFile {
    format: u32,
    key: ReleaseKey,
    content_digest: u64,
    artifact: ReleaseArtifact,
}

/// A directory of content-addressed released artifacts — the public side
/// of the release pipeline. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ReleaseCache {
    dir: PathBuf,
    /// Registry corrupt-entry discards (self-heals) are counted into.
    /// Hit/miss counters stay with the serving layer — `load` is also
    /// the verification path of registry rehydration, which must not
    /// inflate them.
    metrics: Option<Arc<MetricsRegistry>>,
}

impl ReleaseCache {
    /// Open (creating if absent) the cache directory `dir`. Unlike the
    /// truth store, the cache is not pinned to one dataset: the dataset
    /// digest is part of every [`ReleaseKey`], so artifacts of different
    /// snapshots coexist without aliasing.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        crate::store::cfs::create_dir_all(&dir).map_err(|source| StoreError::Io {
            path: dir.clone(),
            source,
        })?;
        Ok(Self { dir, metrics: None })
    }

    /// The same cache counting corrupt-on-load entries (self-heals) into
    /// `registry`.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content address of `key`: FNV-1a over its canonical JSON.
    /// Names the file only; loads always re-verify the full key
    /// structurally.
    pub fn key_digest(key: &ReleaseKey) -> u64 {
        let json = serde_json::to_string(key).expect("key serialization is infallible");
        fnv1a_bytes(json.as_bytes())
    }

    fn path_for(&self, key: &ReleaseKey) -> PathBuf {
        self.dir
            .join(format!("{:016x}.json", Self::key_digest(key)))
    }

    /// Content digest of an artifact: FNV-1a over its canonical JSON.
    /// (The vendored serde emits fields in declaration order, so the JSON
    /// form is canonical by construction.)
    pub fn artifact_digest(artifact: &ReleaseArtifact) -> u64 {
        let json = serde_json::to_string(artifact).expect("artifact serialization is infallible");
        fnv1a_bytes(json.as_bytes())
    }

    /// Load the cached artifact for `key`, or `None` when it is absent or
    /// fails any verification (format, structural key equality, key vs
    /// artifact provenance, content digest). A failed verification reads
    /// as a miss so the caller re-executes and overwrites the bad file —
    /// self-healing, never garbage-serving.
    pub fn load(&self, key: &ReleaseKey) -> Option<ReleaseArtifact> {
        let path = self.path_for(key);
        if !path.exists() {
            return None;
        }
        let verified = (|| {
            let file: CacheFile = read_json(&path).ok()?;
            if file.format != CACHE_FORMAT_VERSION || &file.key != key {
                return None;
            }
            // The stored key and the stored artifact must describe the
            // same release: a tampered pairing (right key, wrong
            // artifact) fails here even with a self-consistent content
            // digest.
            if ReleaseKey::of(&file.artifact.request, key.dataset_digest).as_ref() != Some(key) {
                return None;
            }
            if Self::artifact_digest(&file.artifact) != file.content_digest {
                return None;
            }
            Some(file.artifact)
        })();
        if verified.is_none() {
            if let Some(registry) = &self.metrics {
                registry.caches.public_self_heals.inc();
            }
        }
        verified
    }

    /// Persist `artifact` under `key` atomically (temp + rename). An
    /// existing file at the same address is replaced — a released
    /// artifact is a pure function of its key, so a replacement can only
    /// repair a corrupt file.
    ///
    /// Refuses (as [`StoreError::Inconsistent`]) an artifact whose own
    /// provenance does not reproduce `key`: the cache only ever pairs a
    /// key with the artifact it identifies.
    pub fn save(&self, key: &ReleaseKey, artifact: &ReleaseArtifact) -> Result<(), StoreError> {
        if ReleaseKey::of(&artifact.request, key.dataset_digest).as_ref() != Some(key) {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "released-artifact cache refused a save: the artifact's provenance ({}) \
                     does not reproduce the supplied key",
                    artifact.request.description
                ),
            });
        }
        let file = CacheFile {
            format: CACHE_FORMAT_VERSION,
            key: key.clone(),
            content_digest: Self::artifact_digest(artifact),
            artifact: artifact.clone(),
        };
        write_json_atomic(&self.path_for(key), &file)
    }

    /// Number of cached artifacts currently in the directory.
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.file_name().to_string_lossy().ends_with(".json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the directory holds no cached artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ReleaseEngine, ReleaseRequest, Snapshot, TabulationCache, TruthSource};
    use crate::store::dataset_digest;
    use lodes::{Generator, GeneratorConfig, Sex};
    use std::fs;
    use tabulate::workload1;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eree-public-cache-{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn release(seed: u64) -> (u64, ReleaseArtifact) {
        let d = Generator::new(GeneratorConfig::test_small(31)).generate();
        let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 8.0));
        let request = ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .filter_expr(FilterExpr::sex(Sex::Female))
            .seed(seed);
        let data = Snapshot::of(&d);
        let cache = &mut TabulationCache::new();
        let artifact = engine
            .execute(&request, TruthSource::Tabulate { data, cache })
            .unwrap();
        (dataset_digest(&d), artifact)
    }

    #[test]
    fn save_load_round_trips_and_keys_discriminate() {
        let dir = tmp_dir("roundtrip");
        let cache = ReleaseCache::open(&dir).unwrap();
        let (digest, artifact) = release(7);
        let key = ReleaseKey::of(&artifact.request, digest).unwrap();
        cache.save(&key, &artifact).unwrap();
        assert_eq!(cache.load(&key).unwrap(), artifact);
        assert_eq!(cache.len(), 1);
        // A different seed is a different release: a miss.
        let other = ReleaseKey {
            seed: 8,
            ..key.clone()
        };
        assert!(cache.load(&other).is_none());
        // A different dataset is a different release too.
        let other = ReleaseKey {
            dataset_digest: digest ^ 1,
            ..key.clone()
        };
        assert!(cache.load(&other).is_none());
        // The description is display-only: identical requests differing
        // only in description share one key.
        let mut relabeled = artifact.request.clone();
        relabeled.description = "some other label".to_string();
        assert_eq!(ReleaseKey::of(&relabeled, digest).unwrap(), key);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_or_mismatched_entries_read_as_miss() {
        let dir = tmp_dir("tamper");
        let cache = ReleaseCache::open(&dir).unwrap();
        let (digest, artifact) = release(9);
        let key = ReleaseKey::of(&artifact.request, digest).unwrap();
        cache.save(&key, &artifact).unwrap();
        let path = cache.path_for(&key);

        // Outright garbage reads as a miss.
        fs::write(&path, "{not json").unwrap();
        assert!(cache.load(&key).is_none());
        // Recompute-and-save self-heals the address.
        cache.save(&key, &artifact).unwrap();
        assert_eq!(cache.load(&key).unwrap(), artifact);

        // A tampered payload value breaks the content digest.
        let json = fs::read_to_string(&path).unwrap();
        let digest_field = format!(
            "\"content_digest\": {}",
            ReleaseCache::artifact_digest(&artifact)
        );
        let tampered = json.replacen(
            &digest_field,
            &format!(
                "\"content_digest\": {}",
                ReleaseCache::artifact_digest(&artifact) ^ 1
            ),
            1,
        );
        assert_ne!(tampered, json);
        fs::write(&path, tampered).unwrap();
        assert!(cache.load(&key).is_none());

        // Pairing the key with a different release's artifact is refused
        // on save and (if forged on disk) on load.
        let (_, other_artifact) = release(10);
        assert!(matches!(
            cache.save(&key, &other_artifact),
            Err(StoreError::Inconsistent { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
