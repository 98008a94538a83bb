//! The agency layer: many publication seasons, one global privacy-loss
//! cap, one shared store of tabulated truths.
//!
//! A statistical agency does not run one season — it runs a recurring,
//! overlapping release program over a single confidential snapshot, and
//! the privacy semantics of sequential composition mean the quantity that
//! must be governed is the **total** ε spent across *all* of it (Abowd &
//! Schmutte's social choice of a global privacy-loss budget). The
//! [`AgencyStore`] is that governance made durable:
//!
//! ```text
//! <agency>/
//! ├── agency.json        manifest: format, cap, dataset digest
//! ├── meta_ledger.json   MetaLedger snapshot: cap + reserve/close event log
//! ├── seasons/
//! │   ├── <name>/        one SeasonStore per season
//! │   │   ├── season.json
//! │   │   ├── ledger.json      budget + spent totals + commit records
//! │   │   └── artifacts/000000.json …
//! │   └── …
//! ├── truths/            content-addressed truth store (shared,
//! │   └── <key-digest>.truth                            confidential)
//! └── public/            content-addressed released-artifact cache
//!     └── <key-digest>.json                             (releasable)
//! ```
//!
//! An open [`AgencyStore`] holds the agency directory's write lease, and
//! each open season its own directory's (a [`DirLease`]: a kernel lock on
//! the directory, dropped with its holder, so no file records it).
//!
//! # Budget hierarchy
//!
//! The [`MetaLedger`] reserves every season's **whole budget** from the
//! agency cap *before the season exists*: [`AgencyStore::create_season`]
//! writes the reservation durably, then creates the season directory.
//! A season that would overspend the cap is refused before any directory,
//! any tabulation, and any sampling. Because a season's
//! [`Ledger`](crate::accountant::Ledger) can
//! never admit more than its budget (same fail-closed
//! [`BudgetAccount`](crate::accountant::BudgetAccount) arithmetic at both
//! levels), the agency's lifetime privacy loss is bounded by the cap no
//! matter how seasons run, crash, resume, or interleave.
//!
//! The crash window of that two-step protocol is a reservation whose
//! directory was never created. That state *holds* budget (the safe
//! direction — fail closed) and is repaired by re-issuing
//! [`create_season`](AgencyStore::create_season) (or
//! [`open_or_create_season`](AgencyStore::open_or_create_season)) with the
//! same budget. The reverse state — a season directory with no
//! reservation — would be privacy loss outside the meta-ledger and is
//! refused outright on [`open`](AgencyStore::open).
//!
//! # Verification on open
//!
//! [`AgencyStore::open`] replays and cross-checks everything it governs:
//! the meta-ledger snapshot deserializes by replaying its event log
//! against the cap; every season directory must hold a reservation; every
//! reserved season that exists is opened through the full
//! [`SeasonStore::open`] verification (the ledger rebuilt by replaying its
//! commit records, totals checked against the replay, artifact files one
//! per record, crash-window repair) and must carry exactly its reserved
//! budget; and every season must be pinned to the agency's dataset.
//! Tampering any one season's `ledger.json` therefore makes the whole
//! agency refuse to open. [`AgencyStore::seasons`] then holds one
//! [`SeasonSummary`] per reservation, materialized or not. The metrics
//! registry's replay tallies (accepted releases, ε/δ spend per family)
//! come from the same commit records, so open reads no artifact body and
//! costs O(releases), not O(bytes released).
//!
//! A body is checked when it is read instead: through
//! [`SeasonStore::load_artifact`], or as raw bytes through
//! [`ReleaseBodies`], which checks FNV-1a against the recorded content
//! digest. [`SeasonStore::verify_bodies`] is the full-scan audit.
//!
//! # Shared truths
//!
//! [`AgencyStore::run_season`] and
//! [`run_panel_season`](AgencyStore::run_panel_season) — two signatures
//! for two kinds of input, one body — execute a season through a
//! [`TabulationCache`] backed by the agency-wide [`TruthStore`]: the
//! first season to tabulate
//! a `(spec, normalized filter)` persists the truth, and every later
//! season — or a resumed run of the same season — loads it back
//! digest-verified with zero recomputation.
//!
//! # The degenerate case
//!
//! A single [`SeasonStore`] used directly is exactly an agency with one
//! season and `cap = season budget`; the season API is unchanged and keeps
//! working standalone.
//!
//! ```
//! use eree_core::agency::AgencyStore;
//! use eree_core::{MechanismKind, PrivacyParams, ReleaseRequest};
//! use lodes::{Generator, GeneratorConfig};
//! use tabulate::{workload1, workload3};
//!
//! let dataset = Generator::new(GeneratorConfig::test_small(7)).generate();
//! let dir = std::env::temp_dir().join("eree-doctest-agency");
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! // A global cap of eps = 10 governs every season this agency will run.
//! let mut agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 10.0)).unwrap();
//! agency.create_season("annual", PrivacyParams::pure(0.1, 8.0)).unwrap();
//!
//! let annual = vec![ReleaseRequest::marginal(workload3())
//!     .mechanism(MechanismKind::LogLaplace)
//!     .budget(PrivacyParams::pure(0.1, 8.0))
//!     .seed(1)];
//! agency.run_season("annual", &dataset, &annual).unwrap();
//!
//! // A sibling season re-publishing the same marginal never re-tabulates:
//! // its truth is served from the agency's persistent truth store.
//! agency.create_season("update", PrivacyParams::pure(0.1, 2.0)).unwrap();
//! let update = vec![ReleaseRequest::marginal(workload3())
//!     .mechanism(MechanismKind::LogLaplace)
//!     .budget(PrivacyParams::pure(0.1, 2.0))
//!     .seed(2)];
//! let report = agency.run_season("update", &dataset, &update).unwrap();
//! assert_eq!(report.tabulations_computed, 0);
//! assert_eq!(report.tabulation_disk_hits, 1);
//!
//! // The cap is spoken for: a third season is refused before anything
//! // touches disk or data.
//! assert!(agency.create_season("extra", PrivacyParams::pure(0.1, 1.0)).is_err());
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

use crate::accountant::{MetaLedger, SeasonReservation};
use crate::definitions::PrivacyParams;
use crate::engine::{ReleaseRequest, RequestKind, Snapshot, TabulationCache};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::public_cache::{ReleaseCache, ReleaseKey};
use crate::store::{
    cfs, dataset_digest, panel_digest, read_json, season_body, sweep_tmp_files, write_json_atomic,
    DirLease, SeasonReport, SeasonStore, StoreError,
};
use crate::truths::TruthStore;
use lodes::{Dataset, DatasetPanel};
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Agency store format version, recorded in the manifest. Version 2: the
/// dataset pin is [`dataset_digest`] v2 (laned, chunked), and the truth
/// addresses and release-cache keys under the agency are named by it. A
/// version-1 agency is refused as an unsupported format before its pin is
/// compared, never as a wrong dataset.
const FORMAT_VERSION: u32 = 2;

/// Manifest file name under the agency directory.
const MANIFEST_FILE: &str = "agency.json";
/// Meta-ledger snapshot file name under the agency directory.
const META_LEDGER_FILE: &str = "meta_ledger.json";
/// Season subdirectory name.
const SEASONS_DIR: &str = "seasons";
/// Truth-store subdirectory name.
const TRUTHS_DIR: &str = "truths";
/// Released-artifact cache subdirectory name — everything under it sits on
/// the **public** side of the release barrier.
const PUBLIC_DIR: &str = "public";

/// The request families in [`crate::metrics::FAMILY_LABELS`] order, so
/// replay tallies land in the same slots the live registry uses.
const FAMILY_KINDS: [RequestKind; 3] = [
    RequestKind::Marginal,
    RequestKind::Shapes,
    RequestKind::Flows,
];

/// The agency manifest: identifies the directory as an agency, pins the
/// global cap the meta-ledger must carry, and — once the first
/// [`AgencyStore::run_season`] (or
/// [`run_panel_season`](AgencyStore::run_panel_season)) has seen the
/// confidential data — pins its fingerprint: the [`dataset_digest`] of
/// the one snapshot for a single-snapshot agency, the [`panel_digest`]
/// over every quarter for a panel agency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct AgencyManifest {
    format: u32,
    cap: PrivacyParams,
    dataset_digest: Option<u64>,
    /// Whether the agency governs a quarterly panel (per-quarter seasons
    /// pin their own quarter digests; the agency pins the panel digest).
    panel: bool,
}

/// The audit view of one governed season, refreshed on
/// [`AgencyStore::open`] and after every [`AgencyStore::run_season`].
/// Serializable so budget-audit endpoints can publish it as-is; code
/// that holds a season's store itself (like the release service's season
/// workers) refreshes its own copy with [`SeasonSummary::of`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeasonSummary {
    /// The season's name (its directory name under `seasons/`).
    pub name: String,
    /// The budget reserved for it in the meta-ledger.
    pub budget: PrivacyParams,
    /// ε the season has actually spent so far.
    pub spent_epsilon: f64,
    /// δ the season has actually spent so far.
    pub spent_delta: f64,
    /// Releases the season has persisted so far.
    pub completed: usize,
    /// Whether the season directory exists yet. `false` only in the
    /// crash window between a durable reservation and the directory's
    /// creation; the budget is held either way.
    pub materialized: bool,
    /// Whether the season has been closed: its unspent remainder was
    /// refunded to the cap and no further release is admitted.
    pub closed: bool,
    /// The dataset the season is pinned to
    /// ([`SeasonStore::dataset_digest`]): for a panel season, its
    /// quarter's. `None` while unmaterialized or not yet pinned.
    pub dataset_digest: Option<u64>,
}

impl SeasonSummary {
    /// The summary of materialized season `name`, read from its store.
    pub fn of(name: &str, season: &SeasonStore) -> Self {
        Self {
            name: name.to_string(),
            budget: *season.ledger().budget(),
            spent_epsilon: season.ledger().spent_epsilon(),
            spent_delta: season.ledger().spent_delta(),
            completed: season.completed(),
            materialized: true,
            closed: season.is_closed(),
            dataset_digest: season.dataset_digest(),
        }
    }

    /// The summary of a reservation whose season directory does not exist
    /// (the crash window of [`AgencyStore::create_season`]): nothing spent.
    fn unmaterialized(reservation: &SeasonReservation, closed: bool) -> Self {
        Self {
            name: reservation.name.clone(),
            budget: reservation.budget,
            spent_epsilon: 0.0,
            spent_delta: 0.0,
            completed: 0,
            materialized: false,
            closed,
            dataset_digest: None,
        }
    }
}

/// What [`AgencyStore::close_season`] accomplished: the refund credited
/// back to the cap (or the one recorded by an earlier completed close).
/// Serializable so the service can return it from the close endpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClosureReceipt {
    /// The closed season.
    pub name: String,
    /// ε refunded to the agency cap.
    pub refund_epsilon: f64,
    /// δ refunded to the agency cap.
    pub refund_delta: f64,
    /// `true` when the season was already closed and this call changed
    /// nothing (the refund fields echo the original closure).
    pub already_closed: bool,
    /// ε unreserved under the cap after the refund.
    pub remaining_epsilon: f64,
}

/// Where a published release's canonical body is stored.
#[derive(Debug, Clone, PartialEq)]
pub enum BodySite {
    /// Artifact `index` of season `season`: the body of a release the
    /// agency admitted.
    Season {
        /// The season's name.
        season: String,
        /// The release's index in the season.
        index: usize,
    },
    /// The public-cache entry of a key: the body a cache hit answers.
    Public(ReleaseKey),
}

/// Digest-checked reads of published bodies, by [`BodySite`]: the one
/// place that knows both file layouts, so a server holding only sites and
/// digests never builds a path. Cheap to clone and holds no lease — every
/// durable write is temp + rename, so a read sees a whole old file or a
/// whole new one, never a torn one.
#[derive(Debug, Clone)]
pub struct ReleaseBodies {
    seasons: PathBuf,
    cache: ReleaseCache,
}

impl ReleaseBodies {
    /// The body at `site`, provided it hashes (FNV-1a) to `digest` — the
    /// content digest recorded when the release completed. The bytes are
    /// checked, not parsed: a season body must hash to `digest`, a public
    /// entry must pass [`ReleaseCache::read_body`]. A missing body is
    /// [`StoreError::Io`], a mismatched one [`StoreError::Corrupt`].
    pub fn read(&self, site: &BodySite, digest: u64) -> Result<Vec<u8>, StoreError> {
        match site {
            BodySite::Season { season, index } => {
                AgencyStore::validate_name(season)?;
                season_body(&self.seasons.join(season), *index, digest)
            }
            BodySite::Public(key) => self.cache.read_body(key, digest),
        }
    }
}

/// A durable multi-season agency: meta-ledger + season stores + shared
/// truth store under one directory. See the [module docs](self).
#[derive(Debug)]
pub struct AgencyStore {
    root: PathBuf,
    manifest: AgencyManifest,
    meta: MetaLedger,
    seasons: Vec<SeasonSummary>,
    /// The agency-wide live metrics registry: shared (`Arc`) with every
    /// season store, engine, truth store, and cache handle this agency
    /// hands out. It lives as long as this handle; `open` rebuilds its
    /// ledger-derived values.
    metrics: Arc<MetricsRegistry>,
    /// Write lease on the agency directory: the meta-ledger and manifest
    /// have exactly one writer per agency at a time. Released on drop.
    _lease: DirLease,
}

impl AgencyStore {
    /// Start a fresh agency under `root` (created if absent) with the
    /// given global `(α, ε, δ)` cap. Refuses a directory that already
    /// holds one.
    pub fn create(root: impl AsRef<Path>, cap: PrivacyParams) -> Result<Self, StoreError> {
        Self::create_mode(root, cap, false)
    }

    /// [`create`](Self::create) in **panel mode**: the agency will govern
    /// per-quarter seasons of one quarterly panel, each season pinned to
    /// its own quarter's snapshot while the agency pins the
    /// [`panel_digest`] over all of them — and all quarters draw their
    /// season budgets from this one multi-year cap. Seasons run through
    /// [`run_panel_season`](Self::run_panel_season).
    pub fn create_panel(root: impl AsRef<Path>, cap: PrivacyParams) -> Result<Self, StoreError> {
        Self::create_mode(root, cap, true)
    }

    fn create_mode(
        root: impl AsRef<Path>,
        cap: PrivacyParams,
        panel: bool,
    ) -> Result<Self, StoreError> {
        let root = root.as_ref().to_path_buf();
        let manifest_path = root.join(MANIFEST_FILE);
        if manifest_path.exists() {
            return Err(StoreError::AlreadyExists { path: root });
        }
        for sub in [SEASONS_DIR, TRUTHS_DIR, PUBLIC_DIR] {
            cfs::create_dir_all(&root.join(sub)).map_err(|source| StoreError::Io {
                path: root.join(sub),
                source,
            })?;
        }
        // Lease before the manifest: from the moment this directory can be
        // recognized as an agency, it has exactly one writer.
        let lease = DirLease::acquire(&root)?;
        let manifest = AgencyManifest {
            format: FORMAT_VERSION,
            cap,
            dataset_digest: None,
            panel,
        };
        let meta = MetaLedger::new(cap);
        // Manifest last: its presence is the commit point (`open` demands
        // it, `create` refuses it). A crash before it leaves a directory
        // a retried `create` simply finishes; a crash after it leaves a
        // complete agency. Manifest-first would strand a directory that
        // `open` rejects (no meta-ledger) and `create` rejects
        // (AlreadyExists) — unrecoverable without manual deletion.
        write_json_atomic(&root.join(META_LEDGER_FILE), &meta)?;
        write_json_atomic(&manifest_path, &manifest)?;
        Ok(Self {
            root,
            manifest,
            meta,
            seasons: Vec::new(),
            metrics: Arc::new(MetricsRegistry::new()),
            _lease: lease,
        })
    }

    /// Reload a persisted agency, verifying everything it governs:
    ///
    /// 1. the manifest parses and its format is supported;
    /// 2. the meta-ledger snapshot parses, its reservations **replay**
    ///    within the cap, and its cap matches the manifest's;
    /// 3. every directory under `seasons/` holds a reservation (a season
    ///    with no reservation would be privacy loss outside the
    ///    meta-ledger);
    /// 4. every reserved season that exists passes the full
    ///    [`SeasonStore::open`] verification (which checks commit records
    ///    and reads no body) and carries exactly its reserved budget;
    /// 5. every materialized season is pinned to the agency's dataset (a
    ///    season bound before the agency was binds the agency, provided
    ///    all seasons agree).
    ///
    /// A reservation without a directory is the tolerated crash window of
    /// [`create_season`](Self::create_season): the budget stays held.
    pub fn open(root: impl AsRef<Path>) -> Result<Self, StoreError> {
        let root = root.as_ref().to_path_buf();
        let manifest_path = root.join(MANIFEST_FILE);
        if !manifest_path.exists() {
            return Err(StoreError::NotAStore { path: root });
        }
        // One writer per agency: a second live opener is refused with
        // [`StoreError::Locked`] before any verification work.
        let lease = DirLease::acquire(&root)?;
        // Clear temp files orphaned by a crash mid-write. Safe only under
        // the lease (a live writer's in-flight temp must survive); the
        // season and artifact directories sweep their own on
        // `SeasonStore::open`.
        sweep_tmp_files(&root);
        sweep_tmp_files(&root.join(TRUTHS_DIR));
        sweep_tmp_files(&root.join(PUBLIC_DIR));
        let mut manifest: AgencyManifest = read_json(&manifest_path)?;
        if manifest.format != FORMAT_VERSION {
            return Err(StoreError::Corrupt {
                path: manifest_path,
                detail: format!(
                    "unsupported agency format {} (this build reads {FORMAT_VERSION})",
                    manifest.format
                ),
            });
        }
        let mut meta: MetaLedger = read_json(&root.join(META_LEDGER_FILE))?;
        if meta.cap() != &manifest.cap {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "meta-ledger cap {:?} disagrees with agency manifest {:?}",
                    meta.cap(),
                    manifest.cap
                ),
            });
        }
        // Every season directory must be in the meta-ledger.
        let seasons_dir = root.join(SEASONS_DIR);
        let entries = fs::read_dir(&seasons_dir).map_err(|source| StoreError::Io {
            path: seasons_dir.clone(),
            source,
        })?;
        for entry in entries {
            let entry = entry.map_err(|source| StoreError::Io {
                path: seasons_dir.clone(),
                source,
            })?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if meta.reservation(&name).is_none() {
                return Err(StoreError::Inconsistent {
                    detail: format!(
                        "season directory `{name}` holds no meta-ledger reservation — \
                         privacy loss outside the agency cap"
                    ),
                });
            }
        }
        // Open and verify every reserved season that exists.
        let mut seasons = Vec::with_capacity(meta.reservations().len());
        let mut bound_digest = manifest.dataset_digest;
        // Per-family `(accepted, Σε, Σδ)` replay tallies over every
        // commit record, accumulated in release order — the same
        // naive summation order the live registry uses, so the reopened
        // registry reconciles bit-exactly with live accumulation.
        let mut tallies = [(0u64, 0.0f64, 0.0f64); 3];
        for reservation in meta.reservations() {
            let season_dir = seasons_dir.join(&reservation.name);
            // Materialization means the season *manifest* exists — a bare
            // directory left by a crash before the manifest landed is
            // still the repairable create window.
            if !SeasonStore::exists_at(&season_dir) {
                let closed = meta
                    .closure(&reservation.name)
                    .is_some_and(|closure| closure.sealed);
                seasons.push(SeasonSummary::unmaterialized(reservation, closed));
                continue;
            }
            let season = SeasonStore::open(&season_dir)?;
            if season.ledger().budget() != &reservation.budget {
                return Err(StoreError::Inconsistent {
                    detail: format!(
                        "season `{}` carries budget {:?} but its reservation is {:?}",
                        reservation.name,
                        season.ledger().budget(),
                        reservation.budget
                    ),
                });
            }
            // Panel agencies pin a panel digest while each per-quarter
            // season pins its own quarter's snapshot — the digests
            // legitimately differ, and the panel pin is re-verified
            // against the live panel on every `run_panel_season` instead.
            if !manifest.panel {
                if let Some(season_digest) = season.dataset_digest() {
                    match bound_digest {
                        Some(agency_digest) if agency_digest != season_digest => {
                            return Err(StoreError::Inconsistent {
                                detail: format!(
                                    "season `{}` is bound to dataset {season_digest:016x} but the \
                                     agency is bound to {agency_digest:016x}",
                                    reservation.name
                                ),
                            });
                        }
                        Some(_) => {}
                        // A season bound before the agency was (e.g. run
                        // standalone): adopt its dataset, provided every
                        // other season agrees.
                        None => bound_digest = Some(season_digest),
                    }
                }
            }
            for release in season.releases() {
                let slot = FAMILY_KINDS
                    .iter()
                    .position(|&kind| kind == release.request.kind)
                    .expect("every request kind belongs to a metrics family");
                tallies[slot].0 += 1;
                tallies[slot].1 += release.cost.epsilon;
                tallies[slot].2 += release.cost.delta;
            }
            seasons.push(SeasonSummary::of(&reservation.name, &season));
        }
        if bound_digest != manifest.dataset_digest {
            manifest.dataset_digest = bound_digest;
            write_json_atomic(&manifest_path, &manifest)?;
        }
        // Roll forward closes interrupted between the frozen refund and
        // the seal: the refund amount is already durable, so finishing
        // the close is the only direction that neither loses the refund
        // nor lets frozen budget be spent.
        let pending: Vec<String> = meta
            .closures()
            .iter()
            .filter(|closure| !closure.sealed)
            .map(|closure| closure.name.clone())
            .collect();
        for name in pending {
            let season_dir = seasons_dir.join(&name);
            if SeasonStore::exists_at(&season_dir) {
                let mut season = SeasonStore::open(&season_dir)?;
                season.seal()?;
            }
            let mut next = meta.clone();
            next.close_seal(&name)
                .map_err(|source| StoreError::AgencyBudget {
                    season: name.clone(),
                    source,
                })?;
            write_json_atomic(&root.join(META_LEDGER_FILE), &next)?;
            meta = next;
            if let Some(summary) = seasons.iter_mut().find(|s| s.name == name) {
                summary.closed = true;
            }
        }
        // A fresh registry: accepted totals and family ε/δ spend come from
        // the durable releases just verified, so they are exact across any
        // crash; every other counter starts at zero with this process.
        let metrics = Arc::new(MetricsRegistry::new());
        for (slot, &kind) in FAMILY_KINDS.iter().enumerate() {
            let family = metrics.family(kind);
            family.accepted_total.set(tallies[slot].0);
            family.epsilon_spent.set(tallies[slot].1);
            family.delta_spent.set(tallies[slot].2);
        }
        Ok(Self {
            root,
            manifest,
            meta,
            seasons,
            metrics,
            _lease: lease,
        })
    }

    /// [`open`](Self::open) if `root` holds an agency (whose cap must
    /// equal `cap`), else [`create`](Self::create).
    pub fn open_or_create(root: impl AsRef<Path>, cap: PrivacyParams) -> Result<Self, StoreError> {
        Self::open_or_create_mode(root, cap, false)
    }

    /// [`open_or_create`](Self::open_or_create) in **panel mode** — the
    /// resume path of a panel agency (see
    /// [`create_panel`](Self::create_panel)). Refuses a directory holding
    /// a single-snapshot agency, and vice versa.
    pub fn open_or_create_panel(
        root: impl AsRef<Path>,
        cap: PrivacyParams,
    ) -> Result<Self, StoreError> {
        Self::open_or_create_mode(root, cap, true)
    }

    fn open_or_create_mode(
        root: impl AsRef<Path>,
        cap: PrivacyParams,
        panel: bool,
    ) -> Result<Self, StoreError> {
        let root = root.as_ref();
        if root.join(MANIFEST_FILE).exists() {
            let agency = Self::open(root)?;
            if agency.cap() != &cap {
                return Err(StoreError::Inconsistent {
                    detail: format!(
                        "existing agency cap {:?} differs from requested {:?}",
                        agency.cap(),
                        cap
                    ),
                });
            }
            if agency.is_panel() != panel {
                return Err(StoreError::Inconsistent {
                    detail: format!(
                        "existing agency is a {} agency but a {} agency was requested",
                        mode_label(agency.is_panel()),
                        mode_label(panel)
                    ),
                });
            }
            Ok(agency)
        } else {
            Self::create_mode(root, cap, panel)
        }
    }

    /// The agency directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The global cap.
    pub fn cap(&self) -> &PrivacyParams {
        self.meta.cap()
    }

    /// The (restored) meta-ledger.
    pub fn meta_ledger(&self) -> &MetaLedger {
        &self.meta
    }

    /// ε still unreserved under the cap.
    pub fn remaining_epsilon(&self) -> f64 {
        self.meta.remaining_epsilon()
    }

    /// δ still unreserved under the cap.
    pub fn remaining_delta(&self) -> f64 {
        self.meta.remaining_delta()
    }

    /// The confidential-data fingerprint the agency is pinned to (`None`
    /// until the first [`run_season`](Self::run_season) or
    /// [`run_panel_season`](Self::run_panel_season) binds one): a
    /// [`dataset_digest`] for a single-snapshot agency, a
    /// [`panel_digest`] over every quarter for a panel agency.
    pub fn dataset_digest(&self) -> Option<u64> {
        self.manifest.dataset_digest
    }

    /// Whether this agency governs a quarterly panel (see
    /// [`create_panel`](Self::create_panel)).
    pub fn is_panel(&self) -> bool {
        self.manifest.panel
    }

    /// Audit summaries of every reserved season, in reservation order.
    pub fn seasons(&self) -> &[SeasonSummary] {
        &self.seasons
    }

    /// Total ε actually spent across all materialized seasons — always
    /// `≤` [`MetaLedger::reserved_epsilon`], which is `≤` the cap's ε.
    pub fn spent_epsilon(&self) -> f64 {
        self.seasons.iter().map(|s| s.spent_epsilon).sum()
    }

    /// A handle over the agency's shared `truths/` directory pinned to
    /// `digest`. Panel drivers use this to open one handle per quarter —
    /// the level truth keys fold the pin, so the quarters' truths coexist
    /// in the single shared directory without aliasing, while flow truths
    /// (addressed by their dataset-*pair* digest) are pin-agnostic.
    pub fn truth_store_pinned(&self, digest: u64) -> Result<TruthStore, StoreError> {
        Ok(TruthStore::open(self.root.join(TRUTHS_DIR), digest)?.with_metrics(self.metrics()))
    }

    /// The agency's **public** released-artifact cache (see
    /// [`ReleaseCache`]): completed artifacts land here keyed by their
    /// full release identity, and repeat identical requests are served
    /// from it with zero additional ε and zero tabulation. Unlike the
    /// truth store it needs no dataset pin — the dataset digest is part
    /// of every cache key.
    pub fn release_cache(&self) -> Result<ReleaseCache, StoreError> {
        Ok(ReleaseCache::open(self.root.join(PUBLIC_DIR))?.with_metrics(self.metrics()))
    }

    /// Digest-checked reads of this agency's published bodies, season
    /// artifacts and public entries alike (see [`ReleaseBodies`]).
    pub fn release_bodies(&self) -> Result<ReleaseBodies, StoreError> {
        Ok(ReleaseBodies {
            seasons: self.root.join(SEASONS_DIR),
            cache: self.release_cache()?,
        })
    }

    /// Pin the agency to the dataset fingerprinted by `digest`, durably,
    /// if it is not already pinned. Refuses a digest that disagrees with
    /// an existing pin — an agency never mixes databases.
    pub fn bind_dataset(&mut self, digest: u64) -> Result<(), StoreError> {
        match self.manifest.dataset_digest {
            Some(bound) if bound != digest => Err(StoreError::Inconsistent {
                detail: format!(
                    "agency is bound to dataset {bound:016x} but was asked to run \
                     against dataset {digest:016x} — refusing to mix databases"
                ),
            }),
            Some(_) => Ok(()),
            None => {
                self.manifest.dataset_digest = Some(digest);
                write_json_atomic(&self.root.join(MANIFEST_FILE), &self.manifest)
            }
        }
    }

    fn season_dir(&self, name: &str) -> PathBuf {
        self.root.join(SEASONS_DIR).join(name)
    }

    /// Season names become directory names; keep them boring so a name
    /// can never traverse outside `seasons/` or collide with store files.
    fn validate_name(name: &str) -> Result<(), StoreError> {
        let ok = !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
            && !name.starts_with('.');
        if ok {
            Ok(())
        } else {
            Err(StoreError::Inconsistent {
                detail: format!(
                    "invalid season name `{name}`: use 1-64 ASCII alphanumerics, `-`, `_`, `.` \
                     (not leading)"
                ),
            })
        }
    }

    /// Start a new season: reserve `budget` from the cap in the
    /// meta-ledger (durably, first), then create its [`SeasonStore`].
    ///
    /// Refused with [`StoreError::AgencyBudget`] — before anything touches
    /// disk — when the reservation would overspend the cap, duplicate a
    /// name, or mismatch the cap's α. Re-issuing after a crash that left
    /// the reservation without a directory materializes the season
    /// (`budget` must equal the reservation).
    ///
    /// The season is unpinned: its first run binds it to its dataset.
    pub fn create_season(
        &mut self,
        name: &str,
        budget: PrivacyParams,
    ) -> Result<SeasonStore, StoreError> {
        self.create_season_with(name, budget, None)
    }

    /// [`create_season`](Self::create_season) of a season pinned to the
    /// dataset fingerprinted by `dataset_digest`: the one manifest write
    /// that commits the season carries the pin, so the season's data is on
    /// record before its first release. A panel season pins its quarter's
    /// [`dataset_digest`]. A single-snapshot agency refuses, before
    /// anything is written, any pin but its own bound dataset, which
    /// [`open`](Self::open) holds every season to. Re-issuing after the
    /// crash window materializes the season with this call's pin.
    pub fn create_season_pinned(
        &mut self,
        name: &str,
        budget: PrivacyParams,
        dataset_digest: u64,
    ) -> Result<SeasonStore, StoreError> {
        self.create_season_with(name, budget, Some(dataset_digest))
    }

    /// The body of [`create_season`](Self::create_season) and
    /// [`create_season_pinned`](Self::create_season_pinned).
    fn create_season_with(
        &mut self,
        name: &str,
        budget: PrivacyParams,
        pin: Option<u64>,
    ) -> Result<SeasonStore, StoreError> {
        Self::validate_name(name)?;
        // A closed name never comes back — not even the unmaterialized
        // crash window, whose whole budget was refunded at close.
        if self.meta.closure(name).is_some() {
            return Err(StoreError::SeasonClosed {
                name: name.to_string(),
            });
        }
        // `open` holds every season of a single-snapshot agency to the
        // agency's dataset: refuse another pin before anything is written.
        let bound = self.manifest.dataset_digest;
        if pin.is_some() && !self.manifest.panel && pin != bound {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "season `{name}` cannot pin dataset {pin:016x?}: the agency is bound to \
                     {bound:016x?}"
                ),
            });
        }
        let season_dir = self.season_dir(name);
        if let Some(reservation) = self.meta.reservation(name) {
            if SeasonStore::exists_at(&season_dir) {
                return Err(StoreError::AlreadyExists { path: season_dir });
            }
            // Crash-window repair: the reservation is durable, the
            // directory never appeared. Materialize under the reserved
            // budget — and only that budget.
            if reservation.budget != budget {
                return Err(StoreError::Inconsistent {
                    detail: format!(
                        "season `{name}` already holds a reservation of {:?}; \
                         cannot materialize it with {:?}",
                        reservation.budget, budget
                    ),
                });
            }
        } else {
            // Reservation-first write protocol: the meta-ledger admits
            // (and durably records) the whole season budget before the
            // season exists, so a crash can strand held budget but never
            // unseen spending capacity.
            let mut meta = self.meta.clone();
            meta.reserve(name, budget)
                .map_err(|source| StoreError::AgencyBudget {
                    season: name.to_string(),
                    source,
                })?;
            write_json_atomic(&self.root.join(META_LEDGER_FILE), &meta)?;
            self.meta = meta;
            // The reservation is durable: the audit view covers it from
            // here, even if the directory below never appears.
            let reservation = self.meta.reservation(name).expect("reserved just above");
            self.seasons
                .push(SeasonSummary::unmaterialized(reservation, false));
        }
        let mut store = SeasonStore::create_pinned(&season_dir, budget, pin)?;
        store.set_metrics(self.metrics());
        self.upsert_summary(name, &store);
        Ok(store)
    }

    /// Refresh the audit view of one season from its live store.
    fn upsert_summary(&mut self, name: &str, season: &SeasonStore) {
        let summary = SeasonSummary::of(name, season);
        match self.seasons.iter_mut().find(|s| s.name == name) {
            Some(existing) => *existing = summary,
            None => self.seasons.push(summary),
        }
    }

    /// Open an existing season of this agency, re-verifying it end to end
    /// (full [`SeasonStore::open`]) and checking its budget against the
    /// reservation.
    pub fn open_season(&self, name: &str) -> Result<SeasonStore, StoreError> {
        Self::validate_name(name)?;
        let reservation = self
            .meta
            .reservation(name)
            .ok_or_else(|| StoreError::Inconsistent {
                detail: format!("agency holds no season named `{name}`"),
            })?;
        let mut season = SeasonStore::open(self.season_dir(name))?;
        if season.ledger().budget() != &reservation.budget {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "season `{name}` carries budget {:?} but its reservation is {:?}",
                    season.ledger().budget(),
                    reservation.budget
                ),
            });
        }
        season.set_metrics(self.metrics());
        Ok(season)
    }

    /// [`open_season`](Self::open_season) if the season exists (its
    /// reservation must equal `budget`), else
    /// [`create_season`](Self::create_season).
    pub fn open_or_create_season(
        &mut self,
        name: &str,
        budget: PrivacyParams,
    ) -> Result<SeasonStore, StoreError> {
        Self::validate_name(name)?;
        match self.meta.reservation(name) {
            Some(reservation) if reservation.budget != budget => Err(StoreError::Inconsistent {
                detail: format!(
                    "season `{name}` is reserved at {:?}, not the requested {:?}",
                    reservation.budget, budget
                ),
            }),
            Some(_) if SeasonStore::exists_at(self.season_dir(name)) => self.open_season(name),
            Some(_) => self.create_season(name, budget),
            None => self.create_season(name, budget),
        }
    }

    /// Execute (or resume) season `name` against `dataset` under the
    /// agency's shared truth store: verify the dataset pin (binding it on
    /// the agency's first run), open the season, and drive
    /// [`SeasonStore::run`] with a cache backed by the persistent
    /// [`TruthStore`] — so truths tabulated by *any* season of this agency
    /// are reused, digest-verified, with zero recomputation.
    pub fn run_season(
        &mut self,
        name: &str,
        dataset: &Dataset,
        requests: &[ReleaseRequest],
    ) -> Result<SeasonReport, StoreError> {
        if self.manifest.panel {
            return Err(StoreError::Inconsistent {
                detail: "this agency governs a quarterly panel — run seasons through \
                         run_panel_season"
                    .to_string(),
            });
        }
        let data = Snapshot::of(dataset);
        self.run_snapshot(name, data.digest(), data, requests)
    }

    /// Execute (or resume) season `name` as quarter `quarter` of `panel`
    /// — the panel-mode counterpart of [`run_season`](Self::run_season).
    ///
    /// The agency is pinned to the [`panel_digest`] over every quarter's
    /// snapshot (bound on the first run, verified on every later one), the
    /// season to its own quarter's [`dataset_digest`] — so neither a
    /// changed panel nor a season resumed against the wrong quarter can
    /// pass. Within the run:
    ///
    /// * level and shape requests tabulate the quarter's snapshot, with
    ///   truths persisted in the shared store under the quarter's digest;
    /// * [flow](crate::engine::ReleaseRequest::flows) requests tabulate
    ///   the `(quarter − 1, quarter)` pair (refused for the base quarter),
    ///   with truths content-addressed by the pair digest;
    /// * every request's noise seed is derived by [`panel_quarter_seed`]
    ///   from its own seed and the quarter index — the
    ///   **consistent-over-time seeding rule**: the noise a request draws
    ///   at quarter `q` depends only on `(request seed, q)`, never on
    ///   submission order or which other quarters have run, so
    ///   level-vs-change comparisons see coherent noise and resumed
    ///   quarters reproduce bit-identically.
    pub fn run_panel_season(
        &mut self,
        name: &str,
        panel: &DatasetPanel,
        quarter: usize,
        requests: &[ReleaseRequest],
    ) -> Result<SeasonReport, StoreError> {
        if !self.manifest.panel {
            return Err(StoreError::Inconsistent {
                detail: "this agency governs a single snapshot — run seasons through run_season"
                    .to_string(),
            });
        }
        if quarter >= panel.quarters() {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "panel holds {} quarters; quarter {quarter} does not exist",
                    panel.quarters()
                ),
            });
        }
        let digests: Vec<u64> = panel.snapshots().iter().map(dataset_digest).collect();
        let snapshot = |q: usize| Snapshot::with_digest(panel.quarter(q), digests[q]);
        let data = match quarter.checked_sub(1) {
            Some(before) => snapshot(quarter).after(snapshot(before)),
            None => snapshot(quarter),
        };
        let seeded: Vec<ReleaseRequest> = requests
            .iter()
            .map(|request| {
                let seed = panel_quarter_seed(request.seed_value(), quarter);
                request.clone().seed(seed)
            })
            .collect();
        self.run_snapshot(name, panel_digest(&digests), data, &seeded)
    }

    /// The season-run body both modes share: open the season, refuse a
    /// closed one, bind the agency to `pin`, run the plan through a cache
    /// over the shared truth store pinned to `data`'s dataset, then
    /// refresh the audit view.
    fn run_snapshot(
        &mut self,
        name: &str,
        pin: u64,
        data: Snapshot<'_>,
        requests: &[ReleaseRequest],
    ) -> Result<SeasonReport, StoreError> {
        // Validate the season *before* touching the dataset pin: a failed
        // call (typo'd name, corrupt season) must not durably bind the
        // agency to whatever data it happened to be handed.
        let mut season = self.open_season(name)?;
        if season.is_closed() {
            return Err(StoreError::SeasonClosed {
                name: name.to_string(),
            });
        }
        self.bind_dataset(pin)?;
        // The store handle is pinned to this snapshot: level truths of
        // different quarters have disjoint content addresses in the one
        // shared directory, and flow truths are addressed by pair digest.
        let mut cache = TabulationCache::with_store(self.truth_store_pinned(data.digest())?);
        let result = season.run(data, requests, &mut cache);
        // Refresh the audit view even when the run aborted mid-plan: the
        // season store reflects exactly what was durably persisted (and
        // charged) before the refusal, and that spend is real.
        self.upsert_summary(name, &season);
        result
    }

    /// Close season `name`: durably refund its unspent remainder to the
    /// agency cap and seal the season against further releases.
    ///
    /// The close is a three-step protocol, each step durable before the
    /// next, so every crash window rolls forward:
    ///
    /// 1. **Freeze** — [`MetaLedger::close_begin`] records the refund
    ///    (the season ledger's remaining `(ε, δ)`; the whole reservation
    ///    for a season that never materialized) and the meta-ledger is
    ///    persisted. A crash here leaves the refund frozen but not yet
    ///    spendable — fail closed.
    /// 2. **Seal** — the season manifest is marked closed
    ///    ([`SeasonStore::seal`]), so the remainder being refunded can
    ///    never also be spent by a resumed run.
    /// 3. **Credit** — [`MetaLedger::close_seal`] credits the frozen
    ///    amount back to the cap and the meta-ledger is persisted again.
    ///
    /// Crashes between the steps are repaired by [`open`](Self::open)
    /// (which rolls pending closures forward) or by re-issuing this call,
    /// which resumes from the durable record instead of recomputing the
    /// refund. Closing an already-closed season is not an error: it
    /// returns the original closure's receipt with
    /// [`already_closed`](ClosureReceipt::already_closed) set.
    pub fn close_season(&mut self, name: &str) -> Result<ClosureReceipt, StoreError> {
        Self::validate_name(name)?;
        let reservation = self
            .meta
            .reservation(name)
            .ok_or_else(|| StoreError::Inconsistent {
                detail: format!("agency holds no season named `{name}`"),
            })?
            .clone();
        if let Some(closure) = self.meta.closure(name) {
            if closure.sealed {
                return Ok(ClosureReceipt {
                    name: name.to_string(),
                    refund_epsilon: closure.refund_epsilon,
                    refund_delta: closure.refund_delta,
                    already_closed: true,
                    remaining_epsilon: self.meta.remaining_epsilon(),
                });
            }
        }
        let season_dir = self.season_dir(name);
        let mut season = if SeasonStore::exists_at(&season_dir) {
            Some(SeasonStore::open(&season_dir)?)
        } else {
            None
        };
        // Step 1 — freeze the refund durably. A re-issued close after a
        // crash honors the frozen amount rather than recomputing it (the
        // season may have been sealed in between, but its ledger cannot
        // have moved: the freeze-then-seal order leaves no window where
        // the remainder changes).
        let (refund_epsilon, refund_delta) = match self.meta.closure(name) {
            Some(pending) => (pending.refund_epsilon, pending.refund_delta),
            None => {
                let (refund_epsilon, refund_delta) = match &season {
                    Some(season) => (
                        season.ledger().remaining_epsilon(),
                        season.ledger().remaining_delta(),
                    ),
                    // Never materialized: the whole reservation comes back.
                    None => (reservation.budget.epsilon, reservation.budget.delta),
                };
                let mut meta = self.meta.clone();
                meta.close_begin(name, refund_epsilon, refund_delta)
                    .map_err(|source| StoreError::AgencyBudget {
                        season: name.to_string(),
                        source,
                    })?;
                write_json_atomic(&self.root.join(META_LEDGER_FILE), &meta)?;
                self.meta = meta;
                (refund_epsilon, refund_delta)
            }
        };
        // Step 2 — seal the season: from here no resumed run can spend
        // the remainder that step 3 is about to credit back.
        if let Some(season) = season.as_mut() {
            season.seal()?;
            self.upsert_summary(name, season);
        }
        // Step 3 — credit the frozen refund and seal the closure.
        let mut meta = self.meta.clone();
        meta.close_seal(name)
            .map_err(|source| StoreError::AgencyBudget {
                season: name.to_string(),
                source,
            })?;
        write_json_atomic(&self.root.join(META_LEDGER_FILE), &meta)?;
        self.meta = meta;
        if let Some(summary) = self.seasons.iter_mut().find(|s| s.name == name) {
            summary.closed = true;
        }
        Ok(ClosureReceipt {
            name: name.to_string(),
            refund_epsilon,
            refund_delta,
            already_closed: false,
            remaining_epsilon: self.meta.remaining_epsilon(),
        })
    }

    /// Total ε refunded to the cap by sealed season closures.
    pub fn refunded_epsilon(&self) -> f64 {
        self.meta.refunded_epsilon()
    }

    /// The agency's live metrics registry. Shared with every season
    /// store, engine, and cache handle this agency hands out; cheap to
    /// clone (an [`Arc`]) and safe to read from any thread.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// A point-in-time [`MetricsSnapshot`] with the budget gauges
    /// refreshed from the meta-ledger first, so the snapshot's ε
    /// accounting always matches [`Self::meta_ledger`] bit-exactly. The
    /// gauges are convenience mirrors of the ledger, overwritten (never
    /// accumulated) here, their only reader.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let metrics = &self.metrics;
        metrics.epsilon_cap.set(self.meta.cap().epsilon);
        metrics.epsilon_reserved.set(self.meta.reserved_epsilon());
        metrics.epsilon_remaining.set(self.meta.remaining_epsilon());
        metrics.epsilon_refunded.set(self.meta.refunded_epsilon());
        metrics.snapshot()
    }

    /// Total δ refunded to the cap by sealed season closures.
    pub fn refunded_delta(&self) -> f64 {
        self.meta.refunded_delta()
    }
}

/// `panel`-flag display helper for mode-mismatch errors.
fn mode_label(panel: bool) -> &'static str {
    if panel {
        "quarterly-panel"
    } else {
        "single-snapshot"
    }
}

/// Derive the noise seed a request uses at `quarter` of a panel: two
/// SplitMix64 rounds over the request's own seed and the quarter index —
/// the engine's per-cell seed derivation, with the quarter as the key.
///
/// This is the consistent-over-time seeding rule in one function — a pure
/// function of `(base, quarter)`, so a request's noise at a quarter is
/// independent of submission order, of resumption, and of every other
/// quarter, while distinct quarters (and distinct base seeds) get
/// decorrelated streams. A flow request over `(q − 1, q)` is seeded by its
/// *ending* quarter `q`: the flow and the quarter-`q` level release it
/// reconciles against draw from the same per-quarter stream family.
pub fn panel_quarter_seed(base: u64, quarter: usize) -> u64 {
    crate::engine::cell_seed(base, quarter as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::MechanismKind;
    use lodes::{Generator, GeneratorConfig};
    use tabulate::{workload1, workload3};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eree-agency-unit-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn dataset() -> Dataset {
        Generator::new(GeneratorConfig::test_small(21)).generate()
    }

    fn request(seed: u64, epsilon: f64) -> ReleaseRequest {
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, epsilon))
            .seed(seed)
    }

    #[test]
    fn create_then_open_round_trips() {
        let dir = tmp_dir("roundtrip");
        let cap = PrivacyParams::pure(0.1, 8.0);
        let mut agency = AgencyStore::create(&dir, cap).unwrap();
        agency
            .create_season("a", PrivacyParams::pure(0.1, 3.0))
            .unwrap();
        agency
            .create_season("b", PrivacyParams::pure(0.1, 4.0))
            .unwrap();
        drop(agency);
        let agency = AgencyStore::open(&dir).unwrap();
        assert_eq!(agency.cap(), &cap);
        assert_eq!(agency.seasons().len(), 2);
        assert!((agency.remaining_epsilon() - 1.0).abs() < 1e-12);
        assert!(matches!(
            AgencyStore::create(&dir, cap),
            Err(StoreError::AlreadyExists { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn over_cap_season_is_refused_before_any_disk_state() {
        let dir = tmp_dir("over-cap");
        let mut agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 4.0)).unwrap();
        agency
            .create_season("first", PrivacyParams::pure(0.1, 3.0))
            .unwrap();
        let err = agency
            .create_season("greedy", PrivacyParams::pure(0.1, 2.0))
            .unwrap_err();
        assert!(matches!(err, StoreError::AgencyBudget { .. }));
        assert!(!dir.join("seasons").join("greedy").exists());
        assert_eq!(agency.meta_ledger().reservations().len(), 1);
        // The durable state agrees: reopening sees one season.
        drop(agency);
        let agency = AgencyStore::open(&dir).unwrap();
        assert_eq!(agency.seasons().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_season_names_are_refused() {
        let dir = tmp_dir("names");
        let mut agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 4.0)).unwrap();
        for bad in ["", "..", "a/b", "a\\b", ".hidden", "x".repeat(65).as_str()] {
            assert!(
                matches!(
                    agency.create_season(bad, PrivacyParams::pure(0.1, 1.0)),
                    Err(StoreError::Inconsistent { .. })
                ),
                "name {bad:?} must be refused"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reservation_without_directory_is_the_repairable_crash_window() {
        let dir = tmp_dir("crash-window");
        let mut agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 4.0)).unwrap();
        agency
            .create_season("s", PrivacyParams::pure(0.1, 3.0))
            .unwrap();
        // Simulate the crash: the reservation landed, the directory never
        // did (and the crashed process's handle — with its lease — died).
        drop(agency);
        fs::remove_dir_all(dir.join("seasons").join("s")).unwrap();
        let mut agency = AgencyStore::open(&dir).unwrap();
        assert!(!agency.seasons()[0].materialized);
        // The budget stays held…
        assert!((agency.remaining_epsilon() - 1.0).abs() < 1e-12);
        // …a different budget cannot claim the name…
        assert!(matches!(
            agency.create_season("s", PrivacyParams::pure(0.1, 1.0)),
            Err(StoreError::Inconsistent { .. })
        ));
        // …and re-issuing with the reserved budget materializes it — in
        // the in-memory audit view too, not just on disk.
        agency
            .create_season("s", PrivacyParams::pure(0.1, 3.0))
            .unwrap();
        assert!(dir.join("seasons").join("s").exists());
        assert!(agency
            .seasons()
            .iter()
            .any(|s| s.name == "s" && s.materialized));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_single_snapshot_agency_pins_seasons_to_its_own_dataset_only() {
        let dir = tmp_dir("pinned");
        let digest = dataset_digest(&dataset());
        let budget = PrivacyParams::pure(0.1, 1.0);
        let mut agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 4.0)).unwrap();
        let meta = fs::read(dir.join(META_LEDGER_FILE)).unwrap();
        // Unbound, or bound to another dataset: `open` would refuse the
        // pin, so nothing is reserved or created.
        for bind in [false, true] {
            if bind {
                agency.bind_dataset(digest ^ 1).unwrap();
            }
            assert!(matches!(
                agency.create_season_pinned("s", budget, digest),
                Err(StoreError::Inconsistent { .. })
            ));
            assert_eq!(fs::read(dir.join(META_LEDGER_FILE)).unwrap(), meta);
            assert!(!dir.join("seasons").join("s").exists());
        }
        drop(agency);
        fs::remove_dir_all(&dir).unwrap();

        let mut agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 4.0)).unwrap();
        agency.bind_dataset(digest).unwrap();
        let season = agency.create_season_pinned("s", budget, digest).unwrap();
        assert_eq!(season.dataset_digest(), Some(digest));
        drop(season);
        assert_eq!(agency.seasons()[0].dataset_digest, Some(digest));
        let reopened = agency.seasons().to_vec();
        drop(agency);
        assert_eq!(AgencyStore::open(&dir).unwrap().seasons(), reopened);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_concurrent_agency_writer_is_refused() {
        let dir = tmp_dir("agency-lease");
        let agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 4.0)).unwrap();
        // The directory is write-leased while a handle lives…
        assert!(matches!(
            AgencyStore::open(&dir),
            Err(StoreError::Locked { path }) if path == dir
        ));
        // …and the public artifact cache exists from birth.
        assert!(agency.release_cache().unwrap().is_empty());
        drop(agency);
        let agency = AgencyStore::open(&dir).unwrap();
        drop(agency);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn layouts_no_build_writes_are_refused_naming_the_file() {
        let dir = tmp_dir("old-layouts");
        drop(AgencyStore::create(&dir, PrivacyParams::pure(0.1, 8.0)).unwrap());
        let refused = |file: &str, json: &str| {
            let path = dir.join(file);
            let pristine = fs::read(&path).unwrap();
            fs::write(&path, json).unwrap();
            match AgencyStore::open(&dir) {
                Err(StoreError::Corrupt { path: named, .. }) => assert_eq!(named, path),
                other => panic!("expected {file} to be refused as corrupt, got {other:?}"),
            }
            fs::write(&path, pristine).unwrap();
        };
        // A meta-ledger from before the event log: bare reservations.
        refused(
            META_LEDGER_FILE,
            r#"{"cap":{"alpha":0.1,"epsilon":8.0,"delta":0.0},"reservations":[],
                "reserved_epsilon":0.0,"reserved_delta":0.0}"#,
        );
        // A manifest from before panel agencies: no `panel` field.
        refused(
            MANIFEST_FILE,
            r#"{"format":1,"cap":{"alpha":0.1,"epsilon":8.0,"delta":0.0},"dataset_digest":null}"#,
        );
        drop(AgencyStore::open(&dir).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn season_directory_without_reservation_is_refused() {
        let dir = tmp_dir("rogue-season");
        let agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 4.0)).unwrap();
        drop(agency);
        SeasonStore::create(
            dir.join("seasons").join("rogue"),
            PrivacyParams::pure(0.1, 1.0),
        )
        .unwrap();
        let err = AgencyStore::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Inconsistent { .. }));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_season_binds_dataset_and_shares_truths() {
        let dir = tmp_dir("shared-truths");
        let d = dataset();
        let mut agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 6.0)).unwrap();
        // A failed run against a nonexistent season must not durably bind
        // the agency to the dataset it was (possibly wrongly) handed.
        assert!(agency.run_season("typo", &d, &[request(0, 1.0)]).is_err());
        assert_eq!(agency.dataset_digest(), None);
        agency
            .create_season("a", PrivacyParams::pure(0.1, 2.0))
            .unwrap();
        agency
            .create_season("b", PrivacyParams::pure(0.1, 2.0))
            .unwrap();
        let ra = agency.run_season("a", &d, &[request(1, 2.0)]).unwrap();
        assert_eq!(ra.tabulations_computed, 1);
        assert_eq!(ra.tabulation_disk_hits, 0);
        // Season b shares the (spec, filter): zero recomputation.
        let rb = agency.run_season("b", &d, &[request(2, 2.0)]).unwrap();
        assert_eq!(rb.tabulations_computed, 0);
        assert_eq!(rb.tabulation_disk_hits, 1);
        // The agency is now pinned: a different dataset is refused.
        let other = Generator::new(GeneratorConfig::test_small(22)).generate();
        agency
            .create_season("c", PrivacyParams::pure(0.1, 1.0))
            .unwrap();
        assert!(matches!(
            agency.run_season("c", &other, &[request(3, 1.0)]),
            Err(StoreError::Inconsistent { .. })
        ));
        // And so is a season plan that overdraws its own ledger.
        assert!(matches!(
            agency.run_season("c", &d, &[request(3, 1.5)]),
            Err(StoreError::Refused { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_season_ledger_refuses_the_whole_agency() {
        let dir = tmp_dir("tampered-season");
        let d = dataset();
        let mut agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 6.0)).unwrap();
        agency
            .create_season("a", PrivacyParams::pure(0.1, 2.0))
            .unwrap();
        agency.run_season("a", &d, &[request(1, 2.0)]).unwrap();
        drop(agency);
        let ledger_path = dir.join("seasons").join("a").join("ledger.json");
        let original = fs::read_to_string(&ledger_path).unwrap();
        let tampered = original.replace("\"spent_epsilon\":2.0", "\"spent_epsilon\":0.5");
        assert_ne!(tampered, original);
        fs::write(&ledger_path, tampered).unwrap();
        assert!(AgencyStore::open(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resumed_season_serves_truths_from_disk() {
        let dir = tmp_dir("resume-truths");
        let d = dataset();
        let plan = vec![
            request(1, 1.0),
            ReleaseRequest::marginal(workload3())
                .mechanism(MechanismKind::LogLaplace)
                .budget(PrivacyParams::pure(0.1, 8.0))
                .seed(2),
        ];
        let mut agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 9.0)).unwrap();
        agency
            .create_season("s", PrivacyParams::pure(0.1, 9.0))
            .unwrap();
        // First run killed after one release.
        agency.run_season("s", &d, &plan[..1]).unwrap();
        drop(agency);
        // Resume from a fresh process: the first request's truth comes
        // from the store (it is verified, not re-tabulated), the second is
        // computed and persisted.
        let mut agency = AgencyStore::open(&dir).unwrap();
        let report = agency.run_season("s", &d, &plan).unwrap();
        assert_eq!(report.resumed_from, 1);
        assert_eq!(report.executed, 1);
        assert_eq!(report.tabulations_computed, 1);
        let truths = agency.truth_store_pinned(dataset_digest(&d)).unwrap();
        assert_eq!(truths.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn close_season_refunds_unspent_budget_and_seals() {
        let dir = tmp_dir("close");
        let d = dataset();
        let mut agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 8.0)).unwrap();
        agency
            .create_season("s", PrivacyParams::pure(0.1, 5.0))
            .unwrap();
        agency.run_season("s", &d, &[request(1, 2.0)]).unwrap();
        // 5 reserved, 2 spent: the close refunds 3 back to the cap.
        let receipt = agency.close_season("s").unwrap();
        assert!(!receipt.already_closed);
        assert!((receipt.refund_epsilon - 3.0).abs() < 1e-9);
        assert!((agency.remaining_epsilon() - 6.0).abs() < 1e-9);
        assert!((agency.refunded_epsilon() - 3.0).abs() < 1e-9);
        // The sealed season refuses further runs, the name never returns,
        // and the refunded headroom is reservable by a new season.
        assert!(matches!(
            agency.run_season("s", &d, &[request(2, 1.0)]),
            Err(StoreError::SeasonClosed { .. })
        ));
        assert!(matches!(
            agency.create_season("s", PrivacyParams::pure(0.1, 1.0)),
            Err(StoreError::SeasonClosed { .. })
        ));
        agency
            .create_season("next", PrivacyParams::pure(0.1, 6.0))
            .unwrap();
        // Closing again is idempotent and echoes the original refund.
        let again = agency.close_season("s").unwrap();
        assert!(again.already_closed);
        assert!((again.refund_epsilon - 3.0).abs() < 1e-9);
        // Everything survives a reopen.
        drop(agency);
        let agency = AgencyStore::open(&dir).unwrap();
        assert!(agency
            .seasons()
            .iter()
            .any(|s| s.name == "s" && s.closed && s.materialized));
        assert!((agency.refunded_epsilon() - 3.0).abs() < 1e-9);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn close_of_unmaterialized_season_refunds_whole_reservation() {
        let dir = tmp_dir("close-unmaterialized");
        let mut agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 4.0)).unwrap();
        agency
            .create_season("s", PrivacyParams::pure(0.1, 3.0))
            .unwrap();
        // Simulate the create-season crash window: reservation, no dir.
        fs::remove_dir_all(dir.join("seasons").join("s")).unwrap();
        drop(agency);
        let mut agency = AgencyStore::open(&dir).unwrap();
        let receipt = agency.close_season("s").unwrap();
        assert!((receipt.refund_epsilon - 3.0).abs() < 1e-9);
        assert!((agency.remaining_epsilon() - 4.0).abs() < 1e-9);
        // The closed name cannot be re-materialized through the
        // crash-window repair path.
        assert!(matches!(
            agency.create_season("s", PrivacyParams::pure(0.1, 3.0)),
            Err(StoreError::SeasonClosed { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_close_rolls_forward_on_open() {
        let dir = tmp_dir("close-rollforward");
        let d = dataset();
        let mut agency = AgencyStore::create(&dir, PrivacyParams::pure(0.1, 8.0)).unwrap();
        agency
            .create_season("s", PrivacyParams::pure(0.1, 5.0))
            .unwrap();
        agency.run_season("s", &d, &[request(1, 2.0)]).unwrap();
        // Simulate a crash between close_begin and close_seal: freeze the
        // refund durably, then "die" before sealing.
        let mut meta = agency.meta_ledger().clone();
        meta.close_begin("s", 3.0, 0.0).unwrap();
        write_json_atomic(&dir.join("meta_ledger.json"), &meta).unwrap();
        drop(agency);
        // While frozen, the refund is not spendable (fail closed)…
        let frozen: MetaLedger = crate::store::read_json(&dir.join("meta_ledger.json")).unwrap();
        assert!((frozen.remaining_epsilon() - 3.0).abs() < 1e-9);
        // …and open rolls the close forward: season sealed, refund
        // credited, totals visible.
        let agency = AgencyStore::open(&dir).unwrap();
        assert!((agency.remaining_epsilon() - 6.0).abs() < 1e-9);
        assert!((agency.refunded_epsilon() - 3.0).abs() < 1e-9);
        assert!(agency.seasons().iter().any(|s| s.name == "s" && s.closed));
        assert!(agency.open_season("s").unwrap().is_closed());
        fs::remove_dir_all(&dir).unwrap();
    }

    fn panel() -> DatasetPanel {
        DatasetPanel::generate(
            &GeneratorConfig::test_small(31),
            &lodes::PanelConfig {
                quarters: 3,
                growth_sigma: 0.1,
                death_rate: 0.03,
                seed: 5,
            },
        )
    }

    fn flow_request(seed: u64, epsilon: f64) -> ReleaseRequest {
        ReleaseRequest::flows(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, epsilon))
            .seed(seed)
    }

    #[test]
    fn panel_agency_runs_quarters_under_one_cap() {
        let dir = tmp_dir("panel");
        let p = panel();
        let mut agency = AgencyStore::create_panel(&dir, PrivacyParams::pure(0.1, 13.0)).unwrap();
        assert!(agency.is_panel());
        for q in 0..p.quarters() {
            agency
                .create_season(&format!("q{q}"), PrivacyParams::pure(0.1, 4.0))
                .unwrap();
        }
        // All three quarterly budgets are reservations of the one cap.
        assert!((agency.remaining_epsilon() - 1.0).abs() < 1e-12);
        // Base quarter: a level release; later quarters: level + flows.
        agency
            .run_panel_season("q0", &p, 0, &[request(9, 4.0)])
            .unwrap();
        for q in 1..p.quarters() {
            let name = format!("q{q}");
            let plan = [request(9, 1.0), flow_request(9, 3.0)];
            let report = agency.run_panel_season(&name, &p, q, &plan).unwrap();
            assert_eq!(report.executed, 2);
        }
        // A flow in the base quarter has no before-snapshot: refused.
        agency
            .create_season("extra", PrivacyParams::pure(0.1, 1.0))
            .unwrap();
        assert!(matches!(
            agency.run_panel_season("extra", &p, 0, &[flow_request(1, 0.9)]),
            Err(StoreError::Refused { .. })
        ));
        // Mode mismatches are refused outright.
        assert!(matches!(
            agency.run_season("q1", p.quarter(1), &[request(1, 1.0)]),
            Err(StoreError::Inconsistent { .. })
        ));
        // The agency pin is the panel digest, not any quarter's.
        let quarter_digests: Vec<u64> = p.snapshots().iter().map(dataset_digest).collect();
        assert_eq!(
            agency.dataset_digest(),
            Some(panel_digest(&quarter_digests))
        );
        // Reopening verifies every per-quarter season without tripping the
        // single-snapshot digest cross-check.
        drop(agency);
        let agency = AgencyStore::open(&dir).unwrap();
        assert!(agency.is_panel());
        assert_eq!(agency.seasons().len(), 4);
        assert!(matches!(
            AgencyStore::open_or_create(&dir, PrivacyParams::pure(0.1, 13.0)),
            Err(StoreError::Locked { .. })
        ));
        drop(agency);
        // Mode is part of the open_or_create contract.
        assert!(matches!(
            AgencyStore::open_or_create(&dir, PrivacyParams::pure(0.1, 13.0)),
            Err(StoreError::Inconsistent { .. })
        ));
        let agency =
            AgencyStore::open_or_create_panel(&dir, PrivacyParams::pure(0.1, 13.0)).unwrap();
        drop(agency);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn panel_seasons_resume_bit_identically_and_share_flow_truths() {
        let dir = tmp_dir("panel-resume");
        let p = panel();
        let plan = [request(3, 1.0), flow_request(3, 3.0)];
        let mut agency = AgencyStore::create_panel(&dir, PrivacyParams::pure(0.1, 8.0)).unwrap();
        agency
            .create_season("q1", PrivacyParams::pure(0.1, 4.0))
            .unwrap();
        let first = agency.run_panel_season("q1", &p, 1, &plan).unwrap();
        assert_eq!(first.executed, 2);
        // Re-running the same quarter resumes: the derived seeds (and so
        // the persisted artifacts) reproduce, and the whole plan is
        // recognized as already published.
        let resumed = agency.run_panel_season("q1", &p, 1, &plan).unwrap();
        assert_eq!(resumed.resumed_from, 2);
        assert_eq!(resumed.executed, 0);
        // A sibling season publishing the same flow reuses its persisted
        // truth from disk (addressed by the pair digest).
        agency
            .create_season("q1-update", PrivacyParams::pure(0.1, 4.0))
            .unwrap();
        let sibling = agency.run_panel_season("q1-update", &p, 1, &plan).unwrap();
        assert_eq!(sibling.tabulations_computed, 0);
        assert_eq!(sibling.tabulation_disk_hits, 2);
        // The seeding rule is a pure function of (seed, quarter).
        assert_eq!(panel_quarter_seed(3, 1), panel_quarter_seed(3, 1));
        assert_ne!(panel_quarter_seed(3, 1), panel_quarter_seed(3, 2));
        assert_ne!(panel_quarter_seed(3, 1), panel_quarter_seed(4, 1));
        // A changed panel (e.g. a quarter swapped out) is refused by the
        // panel-digest pin before anything runs.
        let other = DatasetPanel::generate(
            &GeneratorConfig::test_small(32),
            &lodes::PanelConfig {
                quarters: 3,
                growth_sigma: 0.1,
                death_rate: 0.03,
                seed: 5,
            },
        );
        assert!(matches!(
            agency.run_panel_season("q1", &other, 1, &plan),
            Err(StoreError::Inconsistent { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
