//! Persistent, content-addressed truth tabulations.
//!
//! Tabulating a truth marginal is the engine's dominant cost at national
//! scale, and the truth for a given `(dataset, spec, filter)` triple never
//! changes — it is a pure function of confidential data that is itself
//! pinned by digest. The [`TruthStore`] makes tabulated truths durable and
//! shareable: a season that resumes, or a *sibling* season publishing the
//! same marginal under a different mechanism or budget, loads the truth
//! from disk instead of re-scanning millions of job records.
//!
//! # Addressing
//!
//! Every truth file is addressed by a stable FNV-1a digest of its full
//! identity — the **dataset digest** (the same fingerprint
//! [`SeasonStore`](crate::store::SeasonStore) pins into season manifests),
//! the [`MarginalSpec`], and the **normalized** [`FilterExpr`] (so
//! structurally equal filters share one truth, exactly like the in-memory
//! cache). The digest only names the file; it is never the last word on
//! identity — the full key is stored *inside* the file and compared
//! structurally on every load, so a digest collision can alias nothing.
//!
//! # Integrity
//!
//! Files are written atomically (temp + rename, fsynced) and verified on
//! load: format version, dataset digest, structural key equality, the
//! marginal's own invariants (strict key order, in-domain keys, nonzero
//! counts — re-checked by `Marginal`'s deserializer), and a recorded
//! [`content digest`](Marginal::content_digest) that must reproduce from
//! the loaded cells. Any failure makes the load a miss: the truth is
//! recomputed from the index and the file rewritten — self-healing, and
//! always correct, because the store is a cache of a pure function, never
//! the source of record. (Like the season store, the directory is trusted
//! infrastructure: the digest defends against corruption and drift, not
//! against an adversary who can rewrite the file *and* its digest.)

use crate::metrics::MetricsRegistry;
use crate::store::{read_json, write_json_atomic, StoreError};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tabulate::{FilterExpr, FlowMarginal, Marginal, MarginalSpec};

/// Truth-file format version, recorded in every file so a future layout
/// change invalidates (rather than misreads) old truths.
const TRUTH_FORMAT_VERSION: u32 = 1;

/// The on-disk form of one persisted truth: the full identity key, the
/// serialized marginal, and its content digest.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TruthFile {
    format: u32,
    dataset_digest: u64,
    spec: MarginalSpec,
    /// The normalized filter expression, `None` for unfiltered truths.
    filter: Option<FilterExpr>,
    content_digest: u64,
    marginal: Marginal,
}

/// The on-disk form of one persisted *flow* truth. Flow truths are
/// functions of a `(before, after)` snapshot **pair**, so they are
/// addressed by the pair's digest
/// ([`dataset_pair_digest`](crate::store::dataset_pair_digest)) rather
/// than the store handle's single-dataset pin — any handle over a shared
/// `truths/` directory can serve them, and the pair digest inside the file
/// is verified on every load.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FlowTruthFile {
    format: u32,
    pair_digest: u64,
    spec: MarginalSpec,
    /// The normalized filter expression, `None` for unfiltered truths.
    filter: Option<FilterExpr>,
    content_digest: u64,
    flows: FlowMarginal,
}

/// A directory of content-addressed truth marginals, pinned to one
/// confidential dataset by digest. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct TruthStore {
    dir: PathBuf,
    dataset_digest: u64,
    /// Registry self-heals are counted into (`None` outside an agency).
    metrics: Option<Arc<MetricsRegistry>>,
}

impl TruthStore {
    /// Open (creating if absent) the truth directory `dir`, pinned to the
    /// dataset whose [`dataset_digest`](crate::store::dataset_digest) is
    /// `dataset_digest`. Truths of other datasets stored in the same
    /// directory are invisible to this handle — the digest is part of
    /// every address and every verification.
    pub fn open(dir: impl AsRef<Path>, dataset_digest: u64) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        crate::store::cfs::create_dir_all(&dir).map_err(|source| StoreError::Io {
            path: dir.clone(),
            source,
        })?;
        Ok(Self {
            dir,
            dataset_digest,
            metrics: None,
        })
    }

    /// The same store counting corrupt-on-load truths (self-heals) into
    /// `registry`.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Count one truth file that existed but failed verification — the
    /// caller recomputes and overwrites it (the self-heal path).
    fn note_self_heal(&self) {
        if let Some(registry) = &self.metrics {
            registry.caches.truth_self_heals.inc();
        }
    }

    /// The digest of the dataset this handle serves truths for.
    pub fn dataset_digest(&self) -> u64 {
        self.dataset_digest
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The content address of `(dataset, spec, filter)`: FNV-1a over the
    /// canonical JSON of the normalized key. Names the file only; loads
    /// always re-verify the full key structurally.
    pub fn key_digest(&self, spec: &MarginalSpec, filter: Option<&FilterExpr>) -> u64 {
        let key = (
            self.dataset_digest,
            spec.clone(),
            filter.map(FilterExpr::normalized),
        );
        let json = serde_json::to_string(&key).expect("key serialization is infallible");
        crate::store::fnv1a_bytes(json.as_bytes())
    }

    fn path_for(&self, spec: &MarginalSpec, filter: Option<&FilterExpr>) -> PathBuf {
        self.dir
            .join(format!("{:016x}.json", self.key_digest(spec, filter)))
    }

    /// Load the persisted truth for `(spec, filter)`, or `None` when it is
    /// absent or fails any verification (format, dataset digest,
    /// structural key equality, marginal invariants, content digest) — a
    /// failed verification reads as a miss so the caller recomputes and
    /// overwrites the bad file.
    pub fn load(&self, spec: &MarginalSpec, filter: Option<&FilterExpr>) -> Option<Marginal> {
        let path = self.path_for(spec, filter);
        if !path.exists() {
            return None;
        }
        let verified = (|| {
            let file: TruthFile = read_json(&path).ok()?;
            if file.format != TRUTH_FORMAT_VERSION || file.dataset_digest != self.dataset_digest {
                return None;
            }
            if &file.spec != spec || file.marginal.spec() != spec {
                return None;
            }
            match (&file.filter, filter) {
                (None, None) => {}
                (Some(stored), Some(requested)) if *stored == requested.normalized() => {}
                _ => return None,
            }
            if file.marginal.content_digest() != file.content_digest {
                return None;
            }
            Some(file.marginal)
        })();
        if verified.is_none() {
            self.note_self_heal();
        }
        verified
    }

    /// Persist the truth for `(spec, filter)` atomically (temp + rename).
    /// An existing file at the same address is replaced — the truth of a
    /// pure function has exactly one value, so a replacement can only
    /// repair a corrupt file.
    pub fn save(
        &self,
        spec: &MarginalSpec,
        filter: Option<&FilterExpr>,
        marginal: &Marginal,
    ) -> Result<(), StoreError> {
        let file = TruthFile {
            format: TRUTH_FORMAT_VERSION,
            dataset_digest: self.dataset_digest,
            spec: spec.clone(),
            filter: filter.map(FilterExpr::normalized),
            content_digest: marginal.content_digest(),
            marginal: marginal.clone(),
        };
        write_json_atomic(&self.path_for(spec, filter), &file)
    }

    /// The content address of a flow truth: FNV-1a over the canonical
    /// JSON of `("flows", pair_digest, spec, filter)`. The `"flows"`
    /// marker keeps flow addresses disjoint from level-marginal addresses
    /// even in a shared directory; the pair digest replaces the handle's
    /// single-dataset pin.
    pub fn flow_key_digest(
        &self,
        pair_digest: u64,
        spec: &MarginalSpec,
        filter: Option<&FilterExpr>,
    ) -> u64 {
        let key = (
            ("flows", pair_digest),
            spec.clone(),
            filter.map(FilterExpr::normalized),
        );
        let json = serde_json::to_string(&key).expect("key serialization is infallible");
        crate::store::fnv1a_bytes(json.as_bytes())
    }

    fn flow_path_for(
        &self,
        pair_digest: u64,
        spec: &MarginalSpec,
        filter: Option<&FilterExpr>,
    ) -> PathBuf {
        self.dir.join(format!(
            "{:016x}.json",
            self.flow_key_digest(pair_digest, spec, filter)
        ))
    }

    /// Load the persisted flow truth for `(pair, spec, filter)`, or `None`
    /// when absent or failing any verification (format, pair digest,
    /// structural key equality, the flow marginal's own invariants —
    /// re-checked by its deserializer — and the recorded
    /// [`content digest`](FlowMarginal::content_digest)). A failed
    /// verification reads as a miss, so the caller recomputes and repairs.
    pub fn load_flows(
        &self,
        pair_digest: u64,
        spec: &MarginalSpec,
        filter: Option<&FilterExpr>,
    ) -> Option<FlowMarginal> {
        let path = self.flow_path_for(pair_digest, spec, filter);
        if !path.exists() {
            return None;
        }
        let verified = (|| {
            let file: FlowTruthFile = read_json(&path).ok()?;
            if file.format != TRUTH_FORMAT_VERSION || file.pair_digest != pair_digest {
                return None;
            }
            if &file.spec != spec || file.flows.spec() != spec {
                return None;
            }
            match (&file.filter, filter) {
                (None, None) => {}
                (Some(stored), Some(requested)) if *stored == requested.normalized() => {}
                _ => return None,
            }
            if file.flows.content_digest() != file.content_digest {
                return None;
            }
            Some(file.flows)
        })();
        if verified.is_none() {
            self.note_self_heal();
        }
        verified
    }

    /// Persist the flow truth for `(pair, spec, filter)` atomically.
    pub fn save_flows(
        &self,
        pair_digest: u64,
        spec: &MarginalSpec,
        filter: Option<&FilterExpr>,
        flows: &FlowMarginal,
    ) -> Result<(), StoreError> {
        let file = FlowTruthFile {
            format: TRUTH_FORMAT_VERSION,
            pair_digest,
            spec: spec.clone(),
            filter: filter.map(FilterExpr::normalized),
            content_digest: flows.content_digest(),
            flows: flows.clone(),
        };
        write_json_atomic(&self.flow_path_for(pair_digest, spec, filter), &file)
    }

    /// Number of truth files currently in the directory (all datasets).
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

    /// Whether the directory holds no truth files.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::dataset_digest;
    use lodes::{Generator, GeneratorConfig, Sex};
    use std::fs;
    use tabulate::{compute_marginal, compute_marginal_expr, workload1, workload3};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eree-truths-unit-{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trips_bit_identically() {
        let dir = tmp_dir("roundtrip");
        let d = Generator::new(GeneratorConfig::test_small(11)).generate();
        let store = TruthStore::open(&dir, dataset_digest(&d)).unwrap();

        let plain = compute_marginal(&d, &workload3());
        store.save(&workload3(), None, &plain).unwrap();
        assert_eq!(store.load(&workload3(), None).unwrap(), plain);

        let expr = FilterExpr::sex(Sex::Female);
        let filtered = compute_marginal_expr(&d, &workload1(), &expr);
        store.save(&workload1(), Some(&expr), &filtered).unwrap();
        assert_eq!(store.load(&workload1(), Some(&expr)).unwrap(), filtered);
        // The filtered and unfiltered truths are distinct addresses.
        assert!(store.load(&workload1(), None).is_none());
        assert_eq!(store.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_dataset_spec_or_filter_reads_as_miss() {
        let dir = tmp_dir("mismatch");
        let d = Generator::new(GeneratorConfig::test_small(12)).generate();
        let store = TruthStore::open(&dir, dataset_digest(&d)).unwrap();
        let truth = compute_marginal(&d, &workload1());
        store.save(&workload1(), None, &truth).unwrap();

        // A handle pinned to a different dataset cannot see the truth.
        let other = TruthStore::open(&dir, dataset_digest(&d) ^ 1).unwrap();
        assert!(other.load(&workload1(), None).is_none());
        // Different spec / filter: different address, a miss.
        assert!(store.load(&workload3(), None).is_none());
        assert!(store
            .load(&workload1(), Some(&FilterExpr::sex(Sex::Male)))
            .is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flow_truths_round_trip_and_verify_by_pair_digest() {
        use crate::store::dataset_pair_digest;
        use lodes::{DatasetPanel, PanelConfig};
        use tabulate::compute_flows;

        let dir = tmp_dir("flows");
        let panel = DatasetPanel::generate(
            &GeneratorConfig::test_small(14),
            &PanelConfig {
                quarters: 2,
                growth_sigma: 0.1,
                death_rate: 0.02,
                seed: 3,
            },
        );
        let (q0, q1) = (panel.quarter(0), panel.quarter(1));
        let pair = dataset_pair_digest(dataset_digest(q0), dataset_digest(q1));
        let store = TruthStore::open(&dir, dataset_digest(q1)).unwrap();

        let spec = workload1();
        let flows = compute_flows(q0, q1, &spec);
        store.save_flows(pair, &spec, None, &flows).unwrap();
        assert_eq!(store.load_flows(pair, &spec, None).unwrap(), flows);
        // The wrong pair digest is a miss, even via the same handle.
        assert!(store.load_flows(pair ^ 1, &spec, None).is_none());
        // Flow and level addresses never collide: the level slot for the
        // same spec is still empty.
        assert!(store.load(&spec, None).is_none());
        // Tampering the recorded digest reads as a miss and self-heals.
        let path = store.flow_path_for(pair, &spec, None);
        let json = fs::read_to_string(&path).unwrap();
        let tampered = json.replacen(
            &format!("\"content_digest\": {}", flows.content_digest()),
            &format!("\"content_digest\": {}", flows.content_digest() ^ 1),
            1,
        );
        assert_ne!(tampered, json);
        fs::write(&path, &tampered).unwrap();
        assert!(store.load_flows(pair, &spec, None).is_none());
        store.save_flows(pair, &spec, None, &flows).unwrap();
        assert_eq!(store.load_flows(pair, &spec, None).unwrap(), flows);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_or_tampered_truths_read_as_miss() {
        let dir = tmp_dir("tamper");
        let d = Generator::new(GeneratorConfig::test_small(13)).generate();
        let store = TruthStore::open(&dir, dataset_digest(&d)).unwrap();
        let truth = compute_marginal(&d, &workload1());
        store.save(&workload1(), None, &truth).unwrap();
        let path = store.path_for(&workload1(), None);

        // Tamper the recorded digest: the loaded cells no longer reproduce
        // it (equivalently: any cell edit breaks the digest the other way).
        let json = fs::read_to_string(&path).unwrap();
        let recorded = format!("\"content_digest\": {}", truth.content_digest());
        let tampered = json.replacen(
            &recorded,
            &format!("\"content_digest\": {}", truth.content_digest() ^ 1),
            1,
        );
        assert_ne!(tampered, json);
        fs::write(&path, &tampered).unwrap();
        assert!(store.load(&workload1(), None).is_none());

        // Outright garbage also reads as a miss.
        fs::write(&path, "{not json").unwrap();
        assert!(store.load(&workload1(), None).is_none());

        // Recompute-and-save repairs the address.
        store.save(&workload1(), None, &truth).unwrap();
        assert_eq!(store.load(&workload1(), None).unwrap(), truth);
        fs::remove_dir_all(&dir).unwrap();
    }
}
