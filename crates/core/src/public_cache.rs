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
//! # Layout
//!
//! An entry `<key-digest>.json` is one header line of compact JSON, then
//! the artifact's body exactly as its season stored it — the canonical
//! compact JSON of an [`ArtifactBody`], serialized once per release:
//!
//! ```text
//! {"format":3,"key":{…},"content_digest":…}\n
//! {"request":{…},"cost":{…},…}              the artifact body, no newline
//! ```
//!
//! # Integrity
//!
//! Same discipline as the truth store: atomic writes, and loads verify
//! format, structural key equality, the recorded content digest over the
//! stored body bytes (before the body is parsed), and key-vs-provenance
//! agreement. A load never serializes the artifact again. Any failure
//! reads as a **miss** — the caller re-executes the release
//! (deterministically identical, though re-charged) and the rewrite
//! repairs the file. A corrupt cache can cost budget; it can never serve
//! garbage.
//!
//! A server that answers a hit later, from a digest instead of a parsed
//! artifact, records [`ReleaseCache::verified_digest`] (the full check
//! above) and serves [`ReleaseCache::read_body`]: the body bytes, checked
//! — header, key and FNV-1a against that digest — but never parsed.

use crate::definitions::PrivacyParams;
use crate::engine::{ReleaseArtifact, RequestKind, RequestProvenance};
use crate::mechanisms::MechanismKind;
use crate::metrics::MetricsRegistry;
use crate::store::{
    fnv1a_bytes, header_line, split_header_line, write_bytes_atomic, ArtifactBody, StoreError,
};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tabulate::{FilterExpr, MarginalSpec};

/// Cache-file format version, recorded in every file so a future layout
/// change invalidates (rather than misreads) old entries.
/// Version 2: provenance no longer carries the closure-era `filtered`
/// flag, so a version-1 file (which may record `filtered: true` with no
/// expression) is a miss, never an unfiltered hit. Version 3: a header
/// line, then the artifact body's bytes (see the [module docs](self)); a
/// version-2 file, one JSON document, has no header line and is a miss.
const CACHE_FORMAT_VERSION: u32 = 3;

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

/// The header line of one cached release: the full identity key and the
/// content digest of the body bytes that follow it.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CacheHeader {
    format: u32,
    key: ReleaseKey,
    content_digest: u64,
}

/// A directory of content-addressed released artifacts — the public side
/// of the release pipeline. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ReleaseCache {
    dir: PathBuf,
    /// Registry corrupt-entry discards (self-heals) are counted into.
    /// Hit/miss counters stay with the serving layer, which alone knows
    /// whether a lookup answered a request (a layer replay or an audit
    /// must not inflate them).
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

    /// Content digest of an artifact: FNV-1a over its canonical JSON, the
    /// [`ArtifactBody::digest`] of its one encoding. (The vendored serde
    /// emits fields in declaration order, so the JSON form is canonical by
    /// construction.)
    pub fn artifact_digest(artifact: &ReleaseArtifact) -> u64 {
        ArtifactBody::encode(artifact)
            .expect("artifact serialization is infallible")
            .digest()
    }

    /// Load the cached artifact for `key`, or `None` when it is absent or
    /// fails any verification (format, structural key equality, content
    /// digest over the stored body, key vs artifact provenance). A failed
    /// verification reads as a miss so the caller re-executes and
    /// overwrites the bad file — self-healing, never garbage-serving.
    pub fn load(&self, key: &ReleaseKey) -> Option<ReleaseArtifact> {
        self.load_entry(key).map(|(artifact, _)| artifact)
    }

    /// Verify the entry for `key` exactly as [`load`](Self::load) does
    /// (one parse) and return its content digest — what a server that
    /// keeps digests instead of artifacts records for a cache hit, to
    /// serve it later through [`read_body`](Self::read_body).
    pub fn verified_digest(&self, key: &ReleaseKey) -> Option<u64> {
        self.load_entry(key).map(|(_, digest)| digest)
    }

    fn load_entry(&self, key: &ReleaseKey) -> Option<(ReleaseArtifact, u64)> {
        let bytes = std::fs::read(self.path_for(key)).ok()?;
        let verified = (|| {
            let (digest, body) = split_entry(key, &bytes)?;
            let artifact: ReleaseArtifact =
                serde_json::from_str(std::str::from_utf8(body).ok()?).ok()?;
            // The stored key and the stored artifact must describe the
            // same release: a tampered pairing (right key, wrong
            // artifact) fails here even with a self-consistent content
            // digest.
            (ReleaseKey::of(&artifact.request, key.dataset_digest).as_ref() == Some(key))
                .then_some((artifact, digest))
        })();
        if verified.is_none() {
            if let Some(registry) = &self.metrics {
                registry.caches.public_self_heals.inc();
            }
        }
        verified
    }

    /// The body bytes of the entry for `key`, checked without a parse: the
    /// header must be canonical, of this format and for `key`, and the
    /// body must hash to `digest` — the content digest recorded when the
    /// entry was [verified](Self::verified_digest). Anything else is
    /// [`StoreError::Corrupt`] (a missing entry, [`StoreError::Io`]). A
    /// failed read changes nothing and counts no self-heal: the entry is
    /// rewritten only by the next miss of its key.
    pub fn read_body(&self, key: &ReleaseKey, digest: u64) -> Result<Vec<u8>, StoreError> {
        let path = self.path_for(key);
        let mut bytes = std::fs::read(&path).map_err(|source| StoreError::Io {
            path: path.clone(),
            source,
        })?;
        let start = match split_entry(key, &bytes) {
            Some((found, body)) if found == digest => bytes.len() - body.len(),
            _ => {
                return Err(StoreError::Corrupt {
                    path,
                    detail: format!(
                        "the public entry is not a canonical entry of this key whose body \
                         hashes to the recorded content digest {digest:016x}"
                    ),
                })
            }
        };
        bytes.drain(..start);
        Ok(bytes)
    }

    /// Persist `artifact` under `key` atomically (temp + rename): encode
    /// it once and [`save_body`](Self::save_body). An existing file at the
    /// same address is replaced — a released artifact is a pure function
    /// of its key, so a replacement can only repair a corrupt file.
    ///
    /// Refuses (as [`StoreError::Inconsistent`]) an artifact whose own
    /// provenance does not reproduce `key`: the cache only ever pairs a
    /// key with the artifact it identifies.
    pub fn save(&self, key: &ReleaseKey, artifact: &ReleaseArtifact) -> Result<(), StoreError> {
        let body = ArtifactBody::encode(artifact).map_err(|e| StoreError::Corrupt {
            path: self.path_for(key),
            detail: format!("serialization failed: {e}"),
        })?;
        self.save_body(key, &body)
    }

    /// Persist an already-encoded release under `key`: its header line,
    /// then `body`'s bytes as they are — the same bytes its season stored.
    /// Refuses a body whose provenance does not reproduce `key`, like
    /// [`save`](Self::save).
    pub fn save_body(&self, key: &ReleaseKey, body: &ArtifactBody) -> Result<(), StoreError> {
        let request = &body.release().request;
        if ReleaseKey::of(request, key.dataset_digest).as_ref() != Some(key) {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "released-artifact cache refused a save: the artifact's provenance ({}) \
                     does not reproduce the supplied key",
                    request.description
                ),
            });
        }
        let mut bytes = header_line(&CacheHeader {
            format: CACHE_FORMAT_VERSION,
            key: key.clone(),
            content_digest: body.digest(),
        });
        bytes.extend_from_slice(body.json().as_bytes());
        write_bytes_atomic(&self.path_for(key), &bytes)
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

/// The content digest and body of an entry read for `key`, when its
/// header is canonical, of this format and for `key`, and the body hashes
/// to the header's content digest.
fn split_entry<'a>(key: &ReleaseKey, bytes: &'a [u8]) -> Option<(u64, &'a [u8])> {
    let (header, body): (CacheHeader, _) = split_header_line(bytes)?;
    (header.format == CACHE_FORMAT_VERSION
        && &header.key == key
        && fnv1a_bytes(body) == header.content_digest)
        .then_some((header.content_digest, body))
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
        let dir =
            std::env::temp_dir().join(format!("eree-public-cache-{}-{name}", std::process::id()));
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
    fn read_body_serves_the_checked_body_bytes() {
        let dir = tmp_dir("read-body");
        let registry = Arc::new(MetricsRegistry::new());
        let cache = ReleaseCache::open(&dir)
            .unwrap()
            .with_metrics(registry.clone());
        let (digest, artifact) = release(11);
        let key = ReleaseKey::of(&artifact.request, digest).unwrap();
        let body = ArtifactBody::encode(&artifact).unwrap();
        assert!(matches!(
            cache.read_body(&key, body.digest()),
            Err(StoreError::Io { .. })
        ));
        cache.save(&key, &artifact).unwrap();
        assert_eq!(cache.verified_digest(&key), Some(body.digest()));
        assert_eq!(
            cache.read_body(&key, body.digest()).unwrap(),
            body.json().as_bytes()
        );
        // Another digest than the one recorded, or a damaged body, is
        // refused; a read counts no self-heal and rewrites nothing.
        assert!(matches!(
            cache.read_body(&key, body.digest() ^ 1),
            Err(StoreError::Corrupt { .. })
        ));
        let path = cache.path_for(&key);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            cache.read_body(&key, body.digest()),
            Err(StoreError::Corrupt { .. })
        ));
        assert_eq!(registry.caches.public_self_heals.get(), 0);
        assert_eq!(fs::read(&path).unwrap(), bytes);
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

        // A header must be the canonical encoding: `2e0` parses to the
        // key's own 2.0 but is a miss. A float past f64's range (`1e999`
        // parses to infinity) cannot be re-encoded: a miss, not a panic.
        let entry = fs::read_to_string(&path).unwrap();
        for respelled in ["2e0", "1e999"] {
            let tampered =
                entry.replacen("\"epsilon\":2.0", &format!("\"epsilon\":{respelled}"), 1);
            assert_ne!(tampered, entry);
            fs::write(&path, tampered).unwrap();
            assert!(cache.load(&key).is_none());
        }

        // Pairing the key with a different release's artifact is refused
        // on save and (if forged on disk) on load.
        let (_, other_artifact) = release(10);
        assert!(matches!(
            cache.save(&key, &other_artifact),
            Err(StoreError::Inconsistent { .. })
        ));
        let other = ArtifactBody::encode(&other_artifact).unwrap();
        let mut forged = header_line(&CacheHeader {
            format: CACHE_FORMAT_VERSION,
            key: key.clone(),
            content_digest: other.digest(),
        });
        forged.extend_from_slice(other.json().as_bytes());
        fs::write(&path, forged).unwrap();
        assert!(cache.load(&key).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }
}
