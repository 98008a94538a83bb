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
//! # Layout
//!
//! A truth is written once, compactly, as `<key-digest>.truth`:
//!
//! ```text
//! {"format":2,"kind":…,"source_digest":…,"spec":…,"schema":…,"filter":…,"cells":N,"content_digest":…}\n
//! N cells, strictly ascending by key, each its key and then its aggregate's
//! digest words, every one a little-endian u64:
//!   level  key · count · establishments | max_establishment << 32                24 bytes
//!   flows  key · B · E · JC · JD · max_B | max_E << 32 · max_JC | max_JD << 32   56 bytes
//! the seal: FNV-1a over every byte above, u64 little-endian
//! ```
//!
//! The header is one line of compact JSON; `kind` names the aggregate
//! (`level` for [`CellStats`], `flows` for [`FlowStats`]), and
//! `source_digest` is the dataset digest of a level truth and the pair
//! digest of a flow truth. A cell is stored as the words the table's
//! [`content digest`](Tabulation::content_digest) folds, so one encoder
//! and one decoder serve every [`CellAggregate`].
//!
//! # Integrity
//!
//! Files are written atomically (temp + rename, fsynced) and verified on
//! load: the seal first, before anything is decoded; then the format
//! version, the kind, the source digest, structural key equality, the
//! cell count against the run's length, the table's own invariants
//! (strict key order, in-domain keys, possible cell stats — re-checked by
//! [`Tabulation::from_cells`], the same constructor its JSON deserializer
//! uses), and a recorded [`content digest`](Tabulation::content_digest)
//! that must reproduce from the decoded cells. Any failure makes the load
//! a miss: the truth is recomputed from the index and the file rewritten —
//! self-healing, and always correct, because the store is a cache of a
//! pure function, never the source of record. A format-1 (JSON) truth
//! fails the seal, so it reads as a miss too and is never misread. (Like the season store, the
//! directory is trusted infrastructure: the seal and digests defend
//! against corruption and drift, not against an adversary who can rewrite
//! a file *and* its digests.)

use crate::metrics::MetricsRegistry;
use crate::store::{fnv1a_bytes, header_line, split_header_line, write_bytes_atomic, StoreError};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tabulate::{
    CellAggregate, CellKey, CellSchema, CellStats, FilterExpr, FlowMarginal, FlowStats, Marginal,
    MarginalSpec, Tabulation,
};

/// Truth-file format version, recorded in every header so a future layout
/// change invalidates (rather than misreads) old truths. Version 2: the
/// header line, fixed-width cell run and seal of the [module docs](self);
/// version 1 was one JSON document.
const TRUTH_FORMAT_VERSION: u32 = 2;

/// File-name extension of a persisted truth.
const TRUTH_EXTENSION: &str = "truth";

/// Bytes of the trailing seal.
const SEAL_BYTES: usize = 8;

/// The header line of one persisted truth: the full identity key, the
/// schema the cell keys decode under, and what the cell run must hold.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct TruthHeader {
    format: u32,
    /// Which aggregate the cells hold: [`TruthKind::KIND`].
    kind: String,
    /// The dataset digest of a level truth, the pair digest of a flow
    /// truth.
    source_digest: u64,
    spec: MarginalSpec,
    schema: CellSchema,
    /// The normalized filter expression, `None` for unfiltered truths.
    filter: Option<FilterExpr>,
    /// Number of cells in the run.
    cells: u64,
    content_digest: u64,
}

/// The header's `kind` of a truth whose cells hold this aggregate, so a
/// level run is never decoded as flows.
trait TruthKind: CellAggregate {
    const KIND: &'static str;
}

impl TruthKind for CellStats {
    const KIND: &'static str = "level";
}

impl TruthKind for FlowStats {
    const KIND: &'static str = "flows";
}

/// Bytes per encoded cell of aggregate `S`: its key, then its digest words.
const fn cell_bytes<S: CellAggregate>() -> usize {
    8 * (1 + S::WORDS)
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
        fnv1a_bytes(json.as_bytes())
    }

    fn path_for(&self, spec: &MarginalSpec, filter: Option<&FilterExpr>) -> PathBuf {
        self.file_named(self.key_digest(spec, filter))
    }

    fn file_named(&self, key_digest: u64) -> PathBuf {
        self.dir
            .join(format!("{key_digest:016x}.{TRUTH_EXTENSION}"))
    }

    /// Load the persisted truth for `(spec, filter)`, or `None` when it is
    /// absent or fails any verification (seal, format, dataset digest,
    /// structural key equality, marginal invariants, content digest) — a
    /// failed verification reads as a miss so the caller recomputes and
    /// overwrites the bad file.
    pub fn load(&self, spec: &MarginalSpec, filter: Option<&FilterExpr>) -> Option<Marginal> {
        self.read(
            &self.path_for(spec, filter),
            self.dataset_digest,
            spec,
            filter,
        )
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
        write_bytes_atomic(
            &self.path_for(spec, filter),
            &encode(self.dataset_digest, spec, filter, marginal),
        )
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
        fnv1a_bytes(json.as_bytes())
    }

    fn flow_path_for(
        &self,
        pair_digest: u64,
        spec: &MarginalSpec,
        filter: Option<&FilterExpr>,
    ) -> PathBuf {
        self.file_named(self.flow_key_digest(pair_digest, spec, filter))
    }

    /// Load the persisted flow truth for `(pair, spec, filter)`, or `None`
    /// when absent or failing any verification (seal, format, pair
    /// digest, structural key equality, the flow marginal's own
    /// invariants, and the recorded
    /// [`content digest`](Tabulation::content_digest)). A failed
    /// verification reads as a miss, so the caller recomputes and repairs.
    pub fn load_flows(
        &self,
        pair_digest: u64,
        spec: &MarginalSpec,
        filter: Option<&FilterExpr>,
    ) -> Option<FlowMarginal> {
        self.read(
            &self.flow_path_for(pair_digest, spec, filter),
            pair_digest,
            spec,
            filter,
        )
    }

    /// Persist the flow truth for `(pair, spec, filter)` atomically.
    pub fn save_flows(
        &self,
        pair_digest: u64,
        spec: &MarginalSpec,
        filter: Option<&FilterExpr>,
        flows: &FlowMarginal,
    ) -> Result<(), StoreError> {
        write_bytes_atomic(
            &self.flow_path_for(pair_digest, spec, filter),
            &encode(pair_digest, spec, filter, flows),
        )
    }

    /// Read and verify the truth at `path`, counting a file that exists
    /// but fails verification as a self-heal.
    fn read<S: TruthKind>(
        &self,
        path: &Path,
        source_digest: u64,
        spec: &MarginalSpec,
        filter: Option<&FilterExpr>,
    ) -> Option<Tabulation<S>> {
        let bytes = std::fs::read(path).ok()?;
        let verified = decode(&bytes, source_digest, spec, filter);
        if verified.is_none() {
            if let Some(registry) = &self.metrics {
                registry.caches.truth_self_heals.inc();
            }
        }
        verified
    }

    /// Number of truth files currently in the directory (all datasets).
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| {
                        Path::new(&e.file_name())
                            .extension()
                            .is_some_and(|ext| ext == TRUTH_EXTENSION)
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the directory holds no truth files.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The file bytes of `truth` under its identity: header line, then each
/// cell's key and digest words (little-endian `u64`s), then the seal.
fn encode<S: TruthKind>(
    source_digest: u64,
    spec: &MarginalSpec,
    filter: Option<&FilterExpr>,
    truth: &Tabulation<S>,
) -> Vec<u8> {
    let mut bytes = header_line(&TruthHeader {
        format: TRUTH_FORMAT_VERSION,
        kind: S::KIND.to_string(),
        source_digest,
        spec: spec.clone(),
        schema: truth.schema().clone(),
        filter: filter.map(FilterExpr::normalized),
        cells: truth.num_cells() as u64,
        content_digest: truth.content_digest(),
    });
    bytes.reserve(truth.num_cells() * cell_bytes::<S>() + SEAL_BYTES);
    for (key, stats) in truth.iter() {
        bytes.extend_from_slice(&key.0.to_le_bytes());
        for word in stats.words() {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    let seal = fnv1a_bytes(&bytes);
    bytes.extend_from_slice(&seal.to_le_bytes());
    bytes
}

/// Verify and decode a truth file's bytes against the identity the caller
/// asked for; `None` on any failure.
fn decode<S: TruthKind>(
    bytes: &[u8],
    source_digest: u64,
    spec: &MarginalSpec,
    filter: Option<&FilterExpr>,
) -> Option<Tabulation<S>> {
    let (sealed, seal) = bytes.split_at(bytes.len().checked_sub(SEAL_BYTES)?);
    if fnv1a_bytes(sealed).to_le_bytes() != seal {
        return None;
    }
    let (header, run): (TruthHeader, _) = split_header_line(sealed)?;
    if header.format != TRUTH_FORMAT_VERSION
        || header.kind != S::KIND
        || header.source_digest != source_digest
        || &header.spec != spec
    {
        return None;
    }
    match (&header.filter, filter) {
        (None, None) => {}
        (Some(stored), Some(requested)) if *stored == requested.normalized() => {}
        _ => return None,
    }
    if usize::try_from(header.cells)
        .ok()?
        .checked_mul(cell_bytes::<S>())?
        != run.len()
    {
        return None;
    }
    let cells = run
        .chunks_exact(cell_bytes::<S>())
        .map(|cell| {
            // The cell's key and words, decoded on the stack.
            let mut words = [0u64; 8];
            const { assert!(S::WORDS < 8, "a cell's key and words fit the buffer") };
            for (i, word) in words.iter_mut().enumerate().take(1 + S::WORDS) {
                *word = u64::from_le_bytes(cell[8 * i..8 * i + 8].try_into().expect("8 bytes"));
            }
            (CellKey(words[0]), S::from_words(&words[1..=S::WORDS]))
        })
        .collect();
    let truth = Tabulation::from_cells(header.spec, header.schema, cells).ok()?;
    (truth.content_digest() == header.content_digest).then_some(truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::dataset_digest;
    use lodes::{Generator, GeneratorConfig, Sex};
    use std::fs;
    use tabulate::{compute_marginal, compute_marginal_expr, workload1, workload3};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eree-truths-unit-{}-{name}", std::process::id()));
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
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The file's bytes with the trailing seal recomputed: a forged file
    /// the seal alone cannot tell from a written one.
    fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
        bytes.truncate(bytes.len() - SEAL_BYTES);
        let seal = fnv1a_bytes(&bytes);
        bytes.extend_from_slice(&seal.to_le_bytes());
        bytes
    }

    /// The seal catches damage (see the corruption property in
    /// `tests/store_resume.rs`); these files carry a valid seal, so the
    /// checks behind it must refuse them.
    #[test]
    fn corrupt_or_tampered_truths_read_as_miss() {
        let dir = tmp_dir("tamper");
        let d = Generator::new(GeneratorConfig::test_small(13)).generate();
        let registry = Arc::new(MetricsRegistry::new());
        let store = TruthStore::open(&dir, dataset_digest(&d))
            .unwrap()
            .with_metrics(Arc::clone(&registry));
        let truth = compute_marginal(&d, &workload1());
        store.save(&workload1(), None, &truth).unwrap();
        let path = store.path_for(&workload1(), None);
        let written = fs::read(&path).unwrap();
        let (mut header, run): (TruthHeader, _) = split_header_line(&written).unwrap();
        let header_len = written.len() - run.len();

        // A recorded content digest the cells do not reproduce.
        header.content_digest ^= 1;
        let mut forged = header_line(&header);
        forged.extend_from_slice(run);
        fs::write(&path, resealed(forged)).unwrap();
        assert!(store.load(&workload1(), None).is_none());

        // A zero-count cell: `Marginal::from_cells` refuses it.
        let mut forged = written.clone();
        forged[header_len + 8..header_len + 16].fill(0);
        fs::write(&path, resealed(forged)).unwrap();
        assert!(store.load(&workload1(), None).is_none());

        // A level truth copied to a flow address never decodes as flows.
        let digest = store.dataset_digest();
        fs::write(store.flow_path_for(digest, &workload1(), None), &written).unwrap();
        assert!(store.load_flows(digest, &workload1(), None).is_none());

        // Outright garbage reads as a miss.
        fs::write(&path, "{not a truth").unwrap();
        assert!(store.load(&workload1(), None).is_none());
        assert_eq!(registry.caches.truth_self_heals.get(), 4);

        // Recompute-and-save repairs the address.
        store.save(&workload1(), None, &truth).unwrap();
        assert_eq!(fs::read(&path).unwrap(), written);
        assert_eq!(store.load(&workload1(), None).unwrap(), truth);
        fs::remove_dir_all(&dir).unwrap();
    }
}
