//! On-disk persistence for publication seasons.
//!
//! A *publication season* is an agency's ordered plan of releases spending
//! one season-long [`Ledger`] budget — the operational reading of the
//! paper's composition theorems (Thms 7.3–7.5). A season runs for hours at
//! national scale, so the process executing it will eventually be killed
//! partway; what must never happen on restart is a request being noised
//! (and its ε spent) twice. The [`SeasonStore`] makes a season durable:
//!
//! * every completed [`ReleaseArtifact`] is written to its own file under
//!   `<season>/artifacts/`, atomically (temp file + rename), as its
//!   [`ArtifactBody`]: the canonical compact JSON, serialized once;
//! * after each artifact, `<season>/ledger.json` is refreshed the same
//!   way: the season budget, the spent totals, and one **commit record**
//!   per release — the body's content digest, provenance and cost
//!   ([`CompletedRelease`]). Each charge is stored once, as its record;
//! * [`SeasonStore::open`] rebuilds the [`Ledger`] by **replaying** the
//!   commit records' costs through the same compensated budget arithmetic
//!   the live [`Ledger::charge`] uses, and refuses a store whose records
//!   overdraw the budget, whose recorded totals differ from the replay,
//!   whose artifact files do not line up with its records, or whose files
//!   are corrupt — a tampered file can never resume with more budget than
//!   was actually left. Open reads no body: the commit records stand for
//!   them, so it costs O(releases), not O(bytes released);
//! * a body is checked when it is read: [`SeasonStore::load_artifact`]
//!   checks the bytes' FNV-1a against the commit record before parsing,
//!   then the parsed provenance and cost against it, and
//!   [`SeasonStore::verify_bodies`] runs that check over every body — the
//!   full-scan audit that keeps the old open-time check available;
//! * every open store holds an exclusive **write lease** on its directory
//!   (a [`DirLease`]: a kernel lock on an open handle to the directory):
//!   the whole protocol assumes one writer per season directory, so a
//!   second concurrent writer is refused with [`StoreError::Locked`]
//!   instead of silently risking corruption. The kernel drops the lock
//!   with its holder, so a killed writer leaves nothing to reclaim.
//!
//! The write protocol is artifact-first. A crash in the window between an
//! artifact landing and its ledger snapshot leaves the store one entry
//! behind its artifacts; [`SeasonStore::open`] detects exactly that state
//! and rolls the ledger forward from the artifact's recorded
//! [`cost`](ReleaseArtifact::cost) (which is bit-for-bit what the engine
//! charged) — the one body open parses. Any other disagreement is refused
//! as [`StoreError::Inconsistent`].
//!
//! # Resuming a season
//!
//! A season admits releases two ways, through one admission body.
//! [`SeasonStore::run`] is the resumable driver: given the season's full
//! request list, it verifies the already-persisted artifacts came from the
//! same plan — request-by-request provenance comparison, with filter
//! expressions compared in normalized form, so a plan whose
//! sub-population definition changed is refused — then executes
//! only the remainder through a [`ReleaseEngine`] opened on the restored
//! ledger, sharing tabulations via a [`TabulationCache`] — which also
//! builds the dataset's columnar `DatasetIndex` at most once, on its
//! first tabulation, so a resumed season re-tabulates over the shared CSR
//! index instead of from scratch, and one whose truths are all stored
//! builds none. [`SeasonStore::admit`] records one new release on top of
//! whatever the season holds and returns the artifact it recorded — the
//! path of a driver that receives releases one at a time, like the
//! release service's season workers. Per-cell noise streams derive from
//! `(request seed, cell key)`, tabulation's sharded merge is
//! order-insensitive and [`dataset_digest`] folds its chunks in order, so
//! the pins and artifacts a resumed run produces are bit-identical to an
//! uninterrupted run's at any thread count of [`tabulate::par`].
//!
//! ```
//! use eree_core::store::SeasonStore;
//! use eree_core::{MechanismKind, PrivacyParams, ReleaseRequest, Snapshot, TabulationCache};
//! use lodes::{Generator, GeneratorConfig};
//! use tabulate::{workload1, workload3};
//!
//! let dataset = Generator::new(GeneratorConfig::test_small(7)).generate();
//! let season = vec![
//!     ReleaseRequest::marginal(workload1())
//!         .mechanism(MechanismKind::SmoothGamma)
//!         .budget(PrivacyParams::pure(0.1, 2.0))
//!         .seed(1),
//!     ReleaseRequest::marginal(workload3())
//!         .mechanism(MechanismKind::LogLaplace)
//!         .budget(PrivacyParams::pure(0.1, 8.0))
//!         .seed(2),
//! ];
//! let dir = std::env::temp_dir().join("eree-doctest-season");
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! // First run: killed (here: stopped) after one release.
//! let data = Snapshot::of(&dataset);
//! let mut store = SeasonStore::create(&dir, PrivacyParams::pure(0.1, 10.0)).unwrap();
//! store.run(data, &season[..1], &mut TabulationCache::new()).unwrap();
//! drop(store);
//!
//! // Resume: only the second release executes; ε is not re-spent.
//! let mut store = SeasonStore::open(&dir).unwrap();
//! let report = store.run(data, &season, &mut TabulationCache::new()).unwrap();
//! assert_eq!(report.resumed_from, 1);
//! assert_eq!(report.executed, 1);
//! assert!(store.ledger().remaining_epsilon() < 1e-9);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

use crate::accountant::{Ledger, LedgerEntry, LedgerError};
use crate::definitions::PrivacyParams;
use crate::engine::{
    ReleaseArtifact, ReleaseEngine, ReleaseRequest, Snapshot, TabulationCache, TruthSource,
};
use crate::error::EngineError;
use crate::metrics::MetricsRegistry;
use lodes::{Dataset, Job, Worker, Workplace};
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tabulate::{par, Fnv1a};

/// Store format version, recorded in the season manifest so a layout
/// change refuses (or migrates) old directories explicitly. Version 2:
/// artifact provenance no longer carries the closure-era `filtered`
/// flag, so a version-1 season (whose artifacts may record
/// `filtered: true` with no expression) is refused, not misread as
/// unfiltered. Version 3: `ledger.json` carries one commit record per
/// entry, which open checks instead of the bodies; a version-2 ledger has
/// none, so a version-2 season is refused like a version-1 one. Version
/// 4: `ledger.json` is the budget, the spent totals and the commit
/// records, with no separate entry list; older seasons are refused.
/// Version 5: the dataset pin is [`dataset_digest`] v2 (laned, chunked),
/// so a version-4 pin names the same data by another value; a version-4
/// season is refused as an unsupported format before its pin is
/// compared, never as a wrong dataset.
const FORMAT_VERSION: u32 = 5;

/// Manifest file name under the season directory.
const MANIFEST_FILE: &str = "season.json";
/// Ledger snapshot file name under the season directory.
const LEDGER_FILE: &str = "ledger.json";
/// Artifact subdirectory name under the season directory.
const ARTIFACTS_DIR: &str = "artifacts";

/// Chaos-aware filesystem wrappers.
///
/// Every durable mutation the store layers perform — temp-file create,
/// write, fsync, rename, directory create, repair/sweep removal — and
/// every write-lease lock goes through these, so the default-off `chaos`
/// feature can count every syscall boundary and inject an error or a
/// kill at any one of them (see [`crate::chaos`]). Without the feature
/// each wrapper is exactly its `std::fs` counterpart: the `hit` probe
/// compiles to nothing.
pub(crate) mod cfs {
    use std::fs;
    use std::io;
    use std::path::Path;

    #[cfg(feature = "chaos")]
    fn hit(op: &str, path: &Path) -> io::Result<()> {
        crate::chaos::hit(op, path)
    }

    #[cfg(not(feature = "chaos"))]
    #[inline(always)]
    fn hit(_op: &str, _path: &Path) -> io::Result<()> {
        Ok(())
    }

    pub fn rename(from: &Path, to: &Path) -> io::Result<()> {
        hit("rename", to)?;
        fs::rename(from, to)
    }

    pub fn create_dir_all(path: &Path) -> io::Result<()> {
        hit("create_dir_all", path)?;
        fs::create_dir_all(path)
    }

    pub fn remove_file(path: &Path) -> io::Result<()> {
        hit("remove_file", path)?;
        fs::remove_file(path)
    }

    /// Open directory `path` and take a non-blocking exclusive lock on
    /// the handle — the write-lease primitive. A lock another open handle
    /// holds fails with [`io::ErrorKind::WouldBlock`].
    pub fn lock_dir(path: &Path) -> io::Result<fs::File> {
        hit("lock", path)?;
        let dir = fs::File::open(path)?;
        dir.try_lock()?;
        Ok(dir)
    }

    pub fn file_create(path: &Path) -> io::Result<fs::File> {
        hit("create", path)?;
        fs::File::create(path)
    }

    pub fn write_all(file: &mut fs::File, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use io::Write as _;
        hit("write", path)?;
        file.write_all(bytes)
    }

    pub fn sync_all(file: &fs::File, path: &Path) -> io::Result<()> {
        hit("sync", path)?;
        file.sync_all()
    }
}

/// A failure opening, verifying, or writing a [`SeasonStore`].
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem I/O failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A store file exists but does not parse as what it must be.
    Corrupt {
        /// The unparseable file.
        path: PathBuf,
        /// What went wrong.
        detail: String,
    },
    /// The store's files parse individually but contradict each other
    /// (ledger vs artifacts, manifest vs ledger, store vs resume plan).
    /// An inconsistent store is never partially trusted: nothing resumes.
    Inconsistent {
        /// The contradiction.
        detail: String,
    },
    /// [`SeasonStore::create`] on a directory that already holds a season.
    AlreadyExists {
        /// The occupied directory.
        path: PathBuf,
    },
    /// [`SeasonStore::open`] on a directory with no season manifest.
    NotAStore {
        /// The directory.
        path: PathBuf,
    },
    /// The engine refused a request during [`SeasonStore::run`] or
    /// [`SeasonStore::admit`] (over budget or invalid); nothing was
    /// recorded for it.
    Refused {
        /// Index of the refused request in the season plan.
        index: usize,
        /// The request's description.
        description: String,
        /// The engine's refusal.
        source: EngineError,
    },
    /// The agency meta-ledger refused a season: reserving its budget would
    /// overspend the global cap, the name is already reserved, or its α
    /// differs from the cap's. Refused before any directory is created or
    /// any sampling happens.
    AgencyBudget {
        /// The season whose reservation was refused.
        season: String,
        /// The meta-ledger's refusal.
        source: crate::accountant::LedgerError,
    },
    /// Another open handle — in another process or in this one — holds
    /// the store directory's write lease. Two concurrent writers against
    /// one season directory would race the artifact-first protocol into
    /// corruption, so the second acquirer is refused loudly instead.
    Locked {
        /// The store directory.
        path: PathBuf,
    },
    /// A charge-bearing operation against a season that has been closed:
    /// its unspent remainder was refunded to the agency cap, so admitting
    /// another charge would spend budget the agency already reclaimed.
    SeasonClosed {
        /// The closed season's name (its directory name).
        name: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store I/O failed at {}: {source}", path.display())
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "corrupt store file {}: {detail}", path.display())
            }
            StoreError::Inconsistent { detail } => {
                write!(f, "inconsistent season store: {detail}")
            }
            StoreError::AlreadyExists { path } => {
                write!(f, "season store already exists at {}", path.display())
            }
            StoreError::NotAStore { path } => {
                write!(f, "no season store at {}", path.display())
            }
            StoreError::Refused {
                index,
                description,
                source,
            } => {
                write!(
                    f,
                    "season request {index} ({description}) refused: {source}"
                )
            }
            StoreError::AgencyBudget { season, source } => {
                write!(f, "agency meta-ledger refused season `{season}`: {source}")
            }
            StoreError::Locked { path } => {
                write!(
                    f,
                    "store {} is write-locked by another open handle",
                    path.display()
                )
            }
            StoreError::SeasonClosed { name } => {
                write!(
                    f,
                    "season `{name}` is closed: its unspent budget was refunded \
                     to the agency cap and it can never charge again"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Refused { source, .. } => Some(source),
            StoreError::AgencyBudget { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// An exclusive write lease on a store directory: a non-blocking
/// exclusive lock on an open handle to the directory itself, held for the
/// lease's life.
///
/// The season store's crash protocol (artifact-first atomic writes,
/// replay-verified open) assumes **one writer at a time** per directory;
/// a second concurrent writer could interleave `ledger.json` renames and
/// leave a store that verifies but under-reports spending. The lease
/// makes that assumption explicit and enforced: acquiring a directory
/// that another open handle holds — in another process or in this one —
/// fails with [`StoreError::Locked`]. The kernel keeps the lock with the
/// handle and drops it when the handle's last descriptor closes: on drop,
/// on exit, or when the holder is killed. So the lease writes no file,
/// and a crashed season resumes with nothing to clean up.
///
/// The lock is on the directory, not on a file inside it: every atomic
/// write already opens the directory to fsync it, so the lease asks
/// nothing more of the platform. A lock file would either reopen an inode
/// race when unlinked on release, or, kept on disk, be hard-linked into
/// copies of the store, which would then share one lock.
#[derive(Debug)]
pub struct DirLease {
    _handle: fs::File,
}

impl DirLease {
    /// Take the write lease on directory `dir`, or refuse with
    /// [`StoreError::Locked`] (naming `dir`) if another open handle holds
    /// it.
    pub fn acquire(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        match cfs::lock_dir(dir) {
            Ok(handle) => Ok(Self { _handle: handle }),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Err(StoreError::Locked {
                path: dir.to_path_buf(),
            }),
            Err(source) => Err(StoreError::Io {
                path: dir.to_path_buf(),
                source,
            }),
        }
    }
}

/// The season manifest: identifies the directory as a store, pins the
/// budget the ledger must carry, and — once the first [`SeasonStore::run`]
/// or [`SeasonStore::admit`] has seen the confidential database — pins the
/// dataset fingerprint so a season can never silently resume against
/// different data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SeasonManifest {
    format: u32,
    budget: PrivacyParams,
    /// [`dataset_digest`] of the season's database; `None` until the
    /// first `run` binds it, unless the season was created pinned.
    dataset_digest: Option<u64>,
    /// Whether the season has been closed (sealed by
    /// [`AgencyStore::close_season`](crate::agency::AgencyStore::close_season)):
    /// its unspent budget was refunded to the agency cap, so no further
    /// charge may ever be recorded.
    closed: bool,
}

/// What one [`SeasonStore::run`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeasonReport {
    /// Artifacts already persisted before this run (requests skipped).
    pub resumed_from: usize,
    /// Requests newly executed (and persisted) by this run.
    pub executed: usize,
    /// Truth marginals tabulated (fully computed) by this run.
    pub tabulations_computed: u64,
    /// Requests served from a shared in-memory tabulation instead.
    pub tabulation_hits: u64,
    /// Requests served from a persistent truth store (digest-verified
    /// load, zero recomputation). Always 0 with a memory-only cache; a
    /// store-backed cache — e.g. through an
    /// [`AgencyStore`](crate::agency::AgencyStore) — reports them here.
    pub tabulation_disk_hits: u64,
}

/// One persisted release's **commit record**: what was asked, what it
/// cost, and the content digest of its body. `ledger.json` holds one per
/// release — the season's charges are these records — so
/// [`SeasonStore::open`] rebuilds the ledger without reading a body, and
/// every body read checks the bytes against it. The payload
/// (published cells) stays on disk, so resident state is O(releases), not
/// O(total published cells).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletedRelease {
    /// The persisted artifact's request provenance.
    pub request: crate::engine::RequestProvenance,
    /// The cost its release charged the ledger.
    pub cost: crate::accountant::ReleaseCost,
    /// FNV-1a over the body's bytes: its [`ArtifactBody::digest`].
    pub digest: u64,
}

impl CompletedRelease {
    fn of(artifact: &ReleaseArtifact, digest: u64) -> Self {
        Self {
            request: artifact.request.clone(),
            cost: artifact.cost,
            digest,
        }
    }
}

/// A release's one canonical encoding: the compact JSON of its artifact
/// and its commit record — that JSON's FNV-1a digest (the artifact's
/// content digest, the value
/// [`ReleaseCache::artifact_digest`](crate::public_cache::ReleaseCache::artifact_digest)
/// computes) with the provenance and cost the stores check it against.
///
/// A release is serialized and hashed once, into one of these; the season
/// body ([`SeasonStore::admit`]) and the public-cache entry
/// ([`ReleaseCache::save_body`](crate::public_cache::ReleaseCache::save_body))
/// both write these same bytes, and the season's ledger records this
/// commit record. The fields are private so the bytes and the record
/// always describe one artifact.
#[derive(Debug)]
pub struct ArtifactBody {
    json: String,
    release: CompletedRelease,
}

impl ArtifactBody {
    /// Serialize `artifact` to its canonical compact JSON and digest it.
    /// Fails only on a value JSON cannot hold (a non-finite float, which
    /// the engine's post-processing never releases).
    pub fn encode(artifact: &ReleaseArtifact) -> Result<Self, serde_json::Error> {
        let json = serde_json::to_string(artifact)?;
        Ok(Self {
            release: CompletedRelease::of(artifact, fnv1a_bytes(json.as_bytes())),
            json,
        })
    }

    /// The canonical compact JSON of the artifact.
    pub fn json(&self) -> &str {
        &self.json
    }

    /// FNV-1a over [`json`](Self::json): the artifact's content digest.
    pub fn digest(&self) -> u64 {
        self.release.digest
    }

    /// The encoded artifact's commit record: provenance, cost and digest.
    pub fn release(&self) -> &CompletedRelease {
        &self.release
    }
}

/// A durable publication season: ledger snapshot + artifact files under
/// one directory. See the [module docs](self) for the layout and crash
/// protocol.
#[derive(Debug)]
pub struct SeasonStore {
    root: PathBuf,
    manifest: SeasonManifest,
    ledger: Ledger,
    completed: Vec<CompletedRelease>,
    /// Exclusive write lease on the season directory, held for the
    /// store's lifetime and released on drop.
    _lease: DirLease,
    /// Registry the season's engines record into (set by the owning
    /// agency; `None` for standalone seasons). Runtime-only, never
    /// persisted.
    metrics: Option<Arc<MetricsRegistry>>,
}

impl SeasonStore {
    /// Whether `dir` holds a season store: its manifest — the commit
    /// point of [`create`](Self::create) — exists. A directory without
    /// one (e.g. left by a crash between `create_dir_all` and the
    /// manifest write) is *not* a season; re-issuing `create` finishes
    /// it.
    pub fn exists_at(dir: impl AsRef<Path>) -> bool {
        dir.as_ref().join(MANIFEST_FILE).exists()
    }

    /// Start a fresh season under `root` (created if absent) with the
    /// given season budget. Refuses a directory that already holds one.
    pub fn create(root: impl AsRef<Path>, budget: PrivacyParams) -> Result<Self, StoreError> {
        Self::create_pinned(root, budget, None)
    }

    /// [`create`](Self::create) with the manifest's dataset pin set to
    /// `dataset_digest` in the same write that commits the season, so a
    /// pinned season is bound to its data from its first byte on.
    pub(crate) fn create_pinned(
        root: impl AsRef<Path>,
        budget: PrivacyParams,
        dataset_digest: Option<u64>,
    ) -> Result<Self, StoreError> {
        let root = root.as_ref().to_path_buf();
        let manifest_path = root.join(MANIFEST_FILE);
        if manifest_path.exists() {
            return Err(StoreError::AlreadyExists { path: root });
        }
        cfs::create_dir_all(&root.join(ARTIFACTS_DIR)).map_err(|source| StoreError::Io {
            path: root.join(ARTIFACTS_DIR),
            source,
        })?;
        // Lease before the manifest: once the directory is a season (the
        // manifest exists), it is never touched without the lease held.
        let lease = DirLease::acquire(&root)?;
        let manifest = SeasonManifest {
            format: FORMAT_VERSION,
            budget,
            dataset_digest,
            closed: false,
        };
        let ledger = Ledger::new(budget);
        // Ledger before manifest: the manifest's presence is the commit
        // point (`open` demands it, `create` refuses it), so every file
        // it vouches for must already exist. A crash between the two
        // leaves a manifest-less directory that a re-issued `create`
        // simply finishes.
        write_ledger(&root, &ledger, &[])?;
        write_json_atomic(&manifest_path, &manifest)?;
        Ok(Self {
            root,
            manifest,
            ledger,
            completed: Vec::new(),
            _lease: lease,
            metrics: None,
        })
    }

    /// Reload a persisted season, verifying it end to end without reading
    /// a body:
    ///
    /// 1. the manifest parses and its format is supported;
    /// 2. `ledger.json` parses, its commit records **replay** within its
    ///    budget (each record's description and cost charged through the
    ///    compensated arithmetic of [`Ledger::charge`]), and the replayed
    ///    totals equal the recorded ones;
    /// 3. the ledger's budget matches the manifest's;
    /// 4. artifact files are contiguous (`000000.json … N.json`, no gaps),
    ///    one per commit record.
    ///
    /// The one tolerated asymmetry is the crash window of the
    /// artifact-first write protocol: exactly one more artifact than
    /// commit records, repaired by parsing that artifact, digesting its
    /// bytes and rolling the ledger forward from its recorded cost. A
    /// refused open changes nothing. Bodies are checked when they are
    /// read ([`load_artifact`](Self::load_artifact)), or all at once by
    /// [`verify_bodies`](Self::verify_bodies).
    pub fn open(root: impl AsRef<Path>) -> Result<Self, StoreError> {
        let root = root.as_ref().to_path_buf();
        let manifest_path = root.join(MANIFEST_FILE);
        if !manifest_path.exists() {
            return Err(StoreError::NotAStore { path: root });
        }
        // Exclusive writer from here on: verification reads (and the
        // crash-window repair write below) happen under the lease too, so
        // a concurrent writer can never shear the files being verified.
        let lease = DirLease::acquire(&root)?;
        // With the lease held, sweep temp files orphaned by a crashed
        // atomic write (their renames never happened, so they were never
        // part of the store). The artifacts directory is swept by
        // `scan_artifact_files` below.
        sweep_tmp_files(&root);
        let manifest: SeasonManifest = read_json(&manifest_path)?;
        if manifest.format != FORMAT_VERSION {
            return Err(StoreError::Corrupt {
                path: manifest_path,
                detail: format!(
                    "unsupported store format {} (this build reads {FORMAT_VERSION})",
                    manifest.format
                ),
            });
        }
        let ledger_path = root.join(LEDGER_FILE);
        let (mut ledger, mut completed) = read_ledger(&ledger_path)?;
        if ledger.budget() != &manifest.budget {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "ledger budget {:?} disagrees with season manifest {:?}",
                    ledger.budget(),
                    manifest.budget
                ),
            });
        }
        let artifacts_dir = root.join(ARTIFACTS_DIR);
        let artifact_count = scan_artifact_files(&artifacts_dir)?;

        // Crash window: the last artifact landed but its ledger snapshot
        // did not. Roll forward from the artifact's recorded cost — the
        // exact value the engine charged — through the same replay
        // arithmetic, with the commit record `record` would have written.
        // Everything else has verified by now, and the repaired snapshot
        // is written last: a refused open never modifies the store.
        if artifact_count == completed.len() + 1 {
            let path = artifact_file(&artifacts_dir, completed.len());
            let bytes = read_bytes(&path)?;
            let last: ReleaseArtifact = parse_json(&path, &bytes)?;
            completed.push(CompletedRelease::of(&last, fnv1a_bytes(&bytes)));
            ledger = replay(manifest.budget, &completed).map_err(|e| StoreError::Inconsistent {
                detail: format!("rolling the ledger forward over the last artifact: {e}"),
            })?;
            write_ledger(&root, &ledger, &completed)?;
        } else if artifact_count != completed.len() {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "{} commit records vs {artifact_count} artifacts \
                     (only artifacts = records + 1 is repairable)",
                    completed.len(),
                ),
            });
        }
        Ok(Self {
            root,
            manifest,
            ledger,
            completed,
            _lease: lease,
            metrics: None,
        })
    }

    /// The season directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The season's name: its directory name.
    fn season_name(&self) -> String {
        self.root
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| self.root.display().to_string())
    }

    /// The dataset fingerprint this season is pinned to: set at creation
    /// by [`AgencyStore::create_season_pinned`](crate::agency::AgencyStore::create_season_pinned),
    /// otherwise `None` until the first [`run`](Self::run) or
    /// [`admit`](Self::admit) binds one.
    pub fn dataset_digest(&self) -> Option<u64> {
        self.manifest.dataset_digest
    }

    /// Whether this season has been closed (sealed): its unspent budget
    /// was refunded to the agency cap and no further charge is admitted.
    pub fn is_closed(&self) -> bool {
        self.manifest.closed
    }

    /// Seal the season: durably mark it closed, after which
    /// [`record`](Self::record), [`run`](Self::run) and
    /// [`admit`](Self::admit) refuse with [`StoreError::SeasonClosed`].
    /// Idempotent. This is phase two of the
    /// agency's close-season protocol — callers must have durably frozen
    /// the refund (the meta-ledger's close-begin) *first*, so a crash
    /// between that record and this seal rolls forward instead of losing
    /// the refund.
    pub fn seal(&mut self) -> Result<(), StoreError> {
        if self.manifest.closed {
            return Ok(());
        }
        let mut sealed = self.manifest.clone();
        sealed.closed = true;
        write_json_atomic(&self.root.join(MANIFEST_FILE), &sealed)?;
        self.manifest = sealed;
        Ok(())
    }

    /// The restored (or live) ledger snapshot.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The commit record of every persisted release, in publication order
    /// (the audit view; payloads stay on disk — see
    /// [`load_artifact`](Self::load_artifact)).
    pub fn releases(&self) -> &[CompletedRelease] {
        &self.completed
    }

    /// Load the full artifact of release `index` from disk, checked
    /// against its commit record: the bytes' FNV-1a before the parse,
    /// then the parsed provenance and cost. A body that fails either is
    /// [`StoreError::Corrupt`].
    pub fn load_artifact(&self, index: usize) -> Result<ReleaseArtifact, StoreError> {
        let Some(release) = self.completed.get(index) else {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "artifact index {index} out of range ({} completed)",
                    self.completed.len()
                ),
            });
        };
        let path = artifact_file(&self.root.join(ARTIFACTS_DIR), index);
        let artifact: ReleaseArtifact = parse_json(&path, &read_body(&path, release.digest)?)?;
        if CompletedRelease::of(&artifact, release.digest) != *release {
            return Err(StoreError::Corrupt {
                path,
                detail: format!(
                    "the body's provenance or cost differs from commit record {index} ({})",
                    release.request.description
                ),
            });
        }
        Ok(artifact)
    }

    /// The full-scan audit: [`load_artifact`](Self::load_artifact) every
    /// body, returning the index and refusal of each one that fails, in
    /// index order — empty when every body matches its commit record:
    /// the body check [`open`](Self::open) leaves to reads, run over all.
    pub fn verify_bodies(&self) -> Vec<(usize, StoreError)> {
        (0..self.completed.len())
            .filter_map(|index| self.load_artifact(index).err().map(|e| (index, e)))
            .collect()
    }

    /// How many releases this season has completed.
    pub fn completed(&self) -> usize {
        self.completed.len()
    }

    /// A [`ReleaseEngine`] opened on this season's ledger — the resume
    /// path of [`ReleaseEngine::with_ledger`] — recording into the
    /// season's attached [`MetricsRegistry`], if any.
    pub fn engine(&self) -> ReleaseEngine {
        let engine = ReleaseEngine::with_ledger(self.ledger.clone());
        match &self.metrics {
            Some(registry) => engine.with_metrics(Arc::clone(registry)),
            None => engine,
        }
    }

    /// Attach the registry this season's engines record into (admissions,
    /// denials, spend, latency). The owning agency calls this on every
    /// season handle it returns; standalone seasons record nothing.
    pub fn set_metrics(&mut self, registry: Arc<MetricsRegistry>) {
        self.metrics = Some(registry);
    }

    /// Persist one completed release: the artifact file first (atomic),
    /// then the ledger snapshot with the release's commit record.
    ///
    /// `ledger` must be the charging engine's ledger *after* this release:
    /// exactly one entry beyond the store's, matching the artifact's cost.
    /// Anything else is refused as [`StoreError::Inconsistent`] before a
    /// byte is written.
    pub fn record(
        &mut self,
        ledger: &Ledger,
        artifact: &ReleaseArtifact,
    ) -> Result<(), StoreError> {
        let body = self.encode(artifact)?;
        self.record_body(ledger, &body)
    }

    /// Encode `artifact` as the season's next body.
    fn encode(&self, artifact: &ReleaseArtifact) -> Result<ArtifactBody, StoreError> {
        ArtifactBody::encode(artifact).map_err(|e| StoreError::Corrupt {
            path: artifact_file(&self.root.join(ARTIFACTS_DIR), self.completed.len()),
            detail: format!("serialization failed: {e}"),
        })
    }

    /// [`record`](Self::record) of an already-encoded release: its bytes
    /// become the artifact file verbatim, and its commit record the
    /// ledger's newest.
    fn record_body(&mut self, ledger: &Ledger, body: &ArtifactBody) -> Result<(), StoreError> {
        if self.manifest.closed {
            return Err(StoreError::SeasonClosed {
                name: self.season_name(),
            });
        }
        if ledger.budget() != self.ledger.budget() {
            return Err(StoreError::Inconsistent {
                detail: "recording ledger carries a different budget than the season".to_string(),
            });
        }
        if ledger.entries().len() != self.completed.len() + 1 {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "recording ledger has {} entries; store expects {}",
                    ledger.entries().len(),
                    self.completed.len() + 1
                ),
            });
        }
        // Open replays the commit records, so the charge behind the
        // ledger's new totals must be exactly this body's record, bit for
        // bit: anything record() admits must be reopenable.
        let release = body.release();
        let entry = ledger.entries().last().expect("len >= 1");
        if entry.epsilon.to_bits() != release.cost.epsilon.to_bits()
            || entry.delta.to_bits() != release.cost.delta.to_bits()
            || entry.description != release.request.description
        {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "the recording ledger's newest charge ({}, eps {}, delta {}) is not \
                     commit record {} ({}, eps {}, delta {})",
                    entry.description,
                    entry.epsilon,
                    entry.delta,
                    self.completed.len(),
                    release.request.description,
                    release.cost.epsilon,
                    release.cost.delta
                ),
            });
        }
        let path = artifact_file(&self.root.join(ARTIFACTS_DIR), self.completed.len());
        write_bytes_atomic(&path, body.json().as_bytes())?;
        self.completed.push(release.clone());
        if let Err(e) = write_ledger(&self.root, ledger, &self.completed) {
            self.completed.pop();
            return Err(e);
        }
        self.ledger = ledger.clone();
        Ok(())
    }

    /// Execute (the rest of) a season plan, persisting as it goes.
    ///
    /// `requests` is the season's *full* ordered plan. The
    /// already-persisted prefix is verified request-by-request — each
    /// stored artifact's provenance must equal what the corresponding
    /// request would produce — so a store can never be silently resumed
    /// under a different plan; and the season's first run or admission
    /// binds the snapshot's [`dataset_digest`] into the manifest, so it
    /// can never be silently resumed against a *different database*
    /// either. Remaining requests are then admitted as by
    /// [`admit`](Self::admit), on one [`ReleaseEngine`] over the restored
    /// ledger, sharing truth tabulations (and one columnar tabulation
    /// index of the dataset) through `cache`. A cache backed by a
    /// persistent truth store (`TabulationCache::with_store`) lets a
    /// resumed season, or a sibling season sharing a `(spec, filter)`,
    /// reuse digest-verified truths from disk instead of re-tabulating.
    ///
    /// A refused request (over budget, invalid parameters, a flow request
    /// on a snapshot without a before quarter) aborts the run with
    /// [`StoreError::Refused`] and records nothing for it: the season
    /// plan needs revising, and the store stays consistent and resumable.
    pub fn run(
        &mut self,
        data: Snapshot<'_>,
        requests: &[ReleaseRequest],
        cache: &mut TabulationCache,
    ) -> Result<SeasonReport, StoreError> {
        self.bind(data)?;
        if requests.len() < self.completed.len() {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "season plan has {} requests but {} artifacts are already persisted",
                    requests.len(),
                    self.completed.len()
                ),
            });
        }
        for (i, (release, request)) in self.completed.iter().zip(requests).enumerate() {
            let plan = request.plan().map_err(|e| StoreError::Refused {
                index: i,
                description: request.description(),
                source: e,
            })?;
            if let Err(why) = provenance_matches(&release.request, &request.provenance(&plan)) {
                return Err(StoreError::Inconsistent {
                    detail: format!(
                        "persisted artifact {i} ({}) does not match the season plan's \
                         request {i} ({}): {why} — refusing to resume under a different plan",
                        release.request.description,
                        request.description()
                    ),
                });
            }
        }
        let resumed_from = self.completed.len();
        let mut engine = self.engine();
        for request in &requests[resumed_from..] {
            self.admit_on(&mut engine, data, request, cache)?;
        }
        let stats = engine.tabulation_stats();
        Ok(SeasonReport {
            resumed_from,
            executed: requests.len() - resumed_from,
            tabulations_computed: stats.computed,
            tabulation_hits: stats.hits,
            tabulation_disk_hits: stats.disk_hits,
        })
    }

    /// Admit one new release: refuse a closed season, bind (or check) the
    /// manifest's dataset pin, execute `request` against `data` through
    /// `cache` on this season's ledger, and [`record`](Self::record) the
    /// artifact — returning exactly the artifact that was recorded, with
    /// the encoded body written as its artifact file (for a caller that
    /// publishes the same bytes elsewhere without serializing again).
    ///
    /// A refused request is [`StoreError::Refused`]: nothing is charged or
    /// recorded.
    pub fn admit(
        &mut self,
        data: Snapshot<'_>,
        request: &ReleaseRequest,
        cache: &mut TabulationCache,
    ) -> Result<(ReleaseArtifact, ArtifactBody), StoreError> {
        self.bind(data)?;
        let mut engine = self.engine();
        self.admit_on(&mut engine, data, request, cache)
    }

    /// Refuse a closed season, then bind the manifest's dataset pin to
    /// `data` on first use, or refuse a snapshot other than the pinned
    /// one.
    fn bind(&mut self, data: Snapshot<'_>) -> Result<(), StoreError> {
        if self.manifest.closed {
            return Err(StoreError::SeasonClosed {
                name: self.season_name(),
            });
        }
        let digest = data.digest();
        match self.manifest.dataset_digest {
            Some(bound) if bound != digest => Err(StoreError::Inconsistent {
                detail: format!(
                    "season is bound to dataset {bound:016x} but was asked to run \
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

    /// Execute one request on `engine` (this season's ledger), encode it
    /// once and record that body — the one admission body `run` and
    /// `admit` share.
    fn admit_on(
        &mut self,
        engine: &mut ReleaseEngine,
        data: Snapshot<'_>,
        request: &ReleaseRequest,
        cache: &mut TabulationCache,
    ) -> Result<(ReleaseArtifact, ArtifactBody), StoreError> {
        let artifact = engine
            .execute(request, TruthSource::Tabulate { data, cache })
            .map_err(|source| StoreError::Refused {
                index: self.completed.len(),
                description: request.description(),
                source,
            })?;
        let body = self.encode(&artifact)?;
        self.record_body(engine.ledger(), &body)?;
        Ok((artifact, body))
    }
}

/// The canonical path of artifact `index`.
fn artifact_file(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("{index:06}.json"))
}

/// `ledger.json`: the season budget, the spent totals, and the commit
/// records in release order — the one stored copy of each charge.
#[derive(Debug, Serialize, Deserialize)]
struct LedgerFile {
    budget: PrivacyParams,
    spent_epsilon: f64,
    spent_delta: f64,
    commits: Vec<CompletedRelease>,
}

/// Write `ledger.json`: `ledger`'s budget and spent totals, then
/// `commits`, one commit record per release.
fn write_ledger(
    root: &Path,
    ledger: &Ledger,
    commits: &[CompletedRelease],
) -> Result<(), StoreError> {
    let file = LedgerFile {
        budget: *ledger.budget(),
        spent_epsilon: ledger.spent_epsilon(),
        spent_delta: ledger.spent_delta(),
        commits: commits.to_vec(),
    };
    write_json_atomic(&root.join(LEDGER_FILE), &file)
}

/// Read `ledger.json`: rebuild the ledger by replaying its commit records
/// under its budget, and refuse the file as [`StoreError::Corrupt`] when
/// they overdraw the budget or the replayed totals are not the recorded
/// ones.
fn read_ledger(path: &Path) -> Result<(Ledger, Vec<CompletedRelease>), StoreError> {
    let file: LedgerFile = read_json(path)?;
    let corrupt = |detail: String| StoreError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    let ledger = replay(file.budget, &file.commits)
        .map_err(|e| corrupt(format!("budget-inconsistent ledger: {e}")))?;
    // The replay is deterministic, and the JSON writer prints f64 with
    // shortest-round-trip precision, so an untouched file reproduces its
    // totals bit for bit; any slack here would be a tampering allowance.
    if file.spent_epsilon != ledger.spent_epsilon() || file.spent_delta != ledger.spent_delta() {
        return Err(corrupt(format!(
            "recorded totals (eps {}, delta {}) disagree with the commit records' replay \
             (eps {}, delta {})",
            file.spent_epsilon,
            file.spent_delta,
            ledger.spent_epsilon(),
            ledger.spent_delta()
        )));
    }
    Ok((ledger, file.commits))
}

/// Rebuild a season's ledger from its commit records: each charges its
/// description and cost under `budget`, in order, through
/// [`Ledger::replay`].
fn replay(budget: PrivacyParams, commits: &[CompletedRelease]) -> Result<Ledger, LedgerError> {
    let entries: Vec<LedgerEntry> = commits
        .iter()
        .map(|commit| LedgerEntry {
            description: commit.request.description.clone(),
            epsilon: commit.cost.epsilon,
            delta: commit.cost.delta,
        })
        .collect();
    Ledger::replay(budget, &entries)
}

/// Read the body of artifact `index` under `season_dir`, checked against
/// its commit record's `digest` (see [`read_body`]) — the read path a
/// server that keeps only commit records serves from.
pub(crate) fn season_body(
    season_dir: &Path,
    index: usize,
    digest: u64,
) -> Result<Vec<u8>, StoreError> {
    read_body(
        &artifact_file(&season_dir.join(ARTIFACTS_DIR), index),
        digest,
    )
}

/// Read the body at `path` and check its FNV-1a against `digest`: a body
/// that does not hash to its record is [`StoreError::Corrupt`] before
/// anything parses it.
fn read_body(path: &Path, digest: u64) -> Result<Vec<u8>, StoreError> {
    let bytes = read_bytes(path)?;
    let found = fnv1a_bytes(&bytes);
    if found != digest {
        return Err(StoreError::Corrupt {
            path: path.to_path_buf(),
            detail: format!("content digest {found:016x} is not the recorded {digest:016x}"),
        });
    }
    Ok(bytes)
}

/// Does a persisted release's provenance match what the resume plan's
/// request would produce?
///
/// Filters are compared **structurally, in normalized form**: a stored
/// expression must equal the plan's (membership sets canonicalized), so
/// a season can never silently resume under a filter whose *population*
/// definition changed. The [`FilterId`](tabulate::FilterId) digests
/// appear only in the error message; equality never rests on a 64-bit
/// fingerprint.
fn provenance_matches(
    stored: &crate::engine::RequestProvenance,
    fresh: &crate::engine::RequestProvenance,
) -> Result<(), String> {
    let normalized = |p: &crate::engine::RequestProvenance| {
        p.filter.as_ref().map(tabulate::FilterExpr::normalized)
    };
    if normalized(stored) != normalized(fresh) {
        let label = |p: &crate::engine::RequestProvenance| {
            p.filter_id()
                .map_or("no filter".to_string(), |id| format!("filter digest {id}"))
        };
        return Err(format!(
            "stored filter ({}) differs from the plan's filter ({})",
            label(stored),
            label(fresh)
        ));
    }
    // Compare every remaining field by neutralizing the (already
    // structurally checked) expression.
    let mut fresh_rest = fresh.clone();
    fresh_rest.filter = stored.filter.clone();
    if stored != &fresh_rest {
        return Err("request parameters differ".to_string());
    }
    Ok(())
}

/// FNV-1a ([`Fnv1a`], the workspace's one content-address hash) over a
/// byte string: truth seals, truth-store keys, released-body digests and
/// cache keys.
pub(crate) fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.bytes(bytes);
    hash.finish()
}

/// Records per chunk of [`dataset_digest`]: part of the digest's
/// definition, not a setting.
const DIGEST_CHUNK: usize = 1 << 16;
/// Interleaved FNV-1a lanes per chunk of [`dataset_digest`].
const DIGEST_LANES: usize = 4;

/// The content address of the confidential database (digest v2): a
/// stable FNV-1a fingerprint of every workplace, worker and job. It is
/// defined as follows, and its value never depends on the thread count.
///
/// 1. **Words.** Each record is read as 64-bit words, and every word is
///    hashed as its eight little-endian bytes by FNV-1a ([`Fnv1a`]):
///    - a workplace is two words, `state | county << 16 | naics << 32 |
///      ownership << 40` and `place | block << 32`;
///    - a worker is one word, `sex | age << 8 | race << 16 |
///      ethnicity << 24 | education << 32`;
///    - a job is one word, `worker | workplace << 32`.
///
///    Ids are their dense numbers, categories their `index()`.
/// 2. **Chunks.** Each table (workplaces, workers, jobs) is cut in
///    record order into chunks of 2¹⁶ records; a table's last chunk may
///    be shorter, and an empty table has none.
/// 3. **Lanes.** A chunk is hashed on four FNV-1a lanes, each starting
///    from the offset basis: word *i* of the chunk (counting from 0, two
///    per workplace) goes to lane *i* mod 4. The chunk digest is FNV-1a
///    over the four lane hashes as words, lane 0 first.
/// 4. **Fold.** The digest is FNV-1a over the three table sizes
///    (workplaces, workers, jobs) as words, then every chunk digest in
///    (table, chunk) order.
///
/// Chunks are hashed on up to [`par::threads`] threads of [`par::map`]
/// (never more than there are chunks) and folded in order afterwards.
/// Four independent lanes keep four multiplies in flight where one
/// serial FNV-1a waits on each in turn.
///
/// [`SeasonStore::run`] and [`SeasonStore::admit`] bind this into the
/// manifest on a season's first release and refuse any later one against
/// a database that hashes differently — a resumed season's remaining
/// releases must come from the same data as its persisted ones. The
/// agency pin, the season pins, truth addresses and release-cache keys
/// are all named by it, so the agency and season formats change with it.
pub fn dataset_digest(dataset: &Dataset) -> u64 {
    dataset_digest_on(dataset, par::threads())
}

/// [`dataset_digest`] with its chunks hashed on up to `threads` threads;
/// every thread count gives the same value.
pub(crate) fn dataset_digest_on(dataset: &Dataset, threads: usize) -> u64 {
    let chunks: Vec<DigestChunk<'_>> = dataset
        .workplaces()
        .chunks(DIGEST_CHUNK)
        .map(DigestChunk::Workplaces)
        .chain(
            dataset
                .workers()
                .chunks(DIGEST_CHUNK)
                .map(DigestChunk::Workers),
        )
        .chain(dataset.jobs().chunks(DIGEST_CHUNK).map(DigestChunk::Jobs))
        .collect();
    let mut hash = Fnv1a::new();
    hash.word(dataset.num_workplaces() as u64);
    hash.word(dataset.num_workers() as u64);
    hash.word(dataset.num_jobs() as u64);
    for digest in par::map(&chunks, threads, DigestChunk::digest) {
        hash.word(digest);
    }
    hash.finish()
}

/// One chunk of one table, as [`dataset_digest`] cuts them.
#[derive(Clone, Copy)]
enum DigestChunk<'a> {
    Workplaces(&'a [Workplace]),
    Workers(&'a [Worker]),
    Jobs(&'a [Job]),
}

impl DigestChunk<'_> {
    fn digest(&self) -> u64 {
        match *self {
            DigestChunk::Workplaces(records) => lanes_digest(records.iter().flat_map(|wp| {
                [
                    (wp.state.0 as u64)
                        | ((wp.county.0 as u64) << 16)
                        | ((wp.naics.index() as u64) << 32)
                        | ((wp.ownership.index() as u64) << 40),
                    (wp.place.0 as u64) | ((wp.block.0 as u64) << 32),
                ]
            })),
            DigestChunk::Workers(records) => lanes_digest(records.iter().map(|w| {
                (w.sex.index() as u64)
                    | ((w.age.index() as u64) << 8)
                    | ((w.race.index() as u64) << 16)
                    | ((w.ethnicity.index() as u64) << 24)
                    | ((w.education.index() as u64) << 32)
            })),
            DigestChunk::Jobs(records) => lanes_digest(
                records
                    .iter()
                    .map(|job| (job.worker.0 as u64) | ((job.workplace.0 as u64) << 32)),
            ),
        }
    }
}

/// A chunk digest: word *i* on lane *i* mod [`DIGEST_LANES`], then the
/// lane hashes folded in lane order.
fn lanes_digest(mut words: impl Iterator<Item = u64>) -> u64 {
    let mut lanes = [Fnv1a::new(); DIGEST_LANES];
    'words: loop {
        for lane in &mut lanes {
            let Some(word) = words.next() else {
                break 'words;
            };
            lane.word(word);
        }
    }
    let mut hash = Fnv1a::new();
    for lane in lanes {
        hash.word(lane.finish());
    }
    hash.finish()
}

/// The content address of an ordered `(before, after)` dataset pair — the
/// digest that names flow truths and flow release-cache entries, folded
/// (FNV-1a) from the two snapshots' [`dataset_digest`]s **in order**.
/// Flows are directional (job creation from `t` to `t+1` is job
/// destruction in the reverse direction), so swapping the arguments
/// yields a different address.
pub fn dataset_pair_digest(before: u64, after: u64) -> u64 {
    let mut hash = Fnv1a::new();
    hash.word(before);
    hash.word(after);
    hash.finish()
}

/// The content address of a whole quarterly panel: FNV-1a over the
/// quarter count followed by each quarter's [`dataset_digest`] in order.
/// A panel-mode agency pins this digest instead of a single dataset's —
/// its per-quarter seasons each pin their own quarter — so reopening the
/// agency against a panel with any quarter changed, added, or reordered
/// is refused.
pub fn panel_digest(quarter_digests: &[u64]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.word(quarter_digests.len() as u64);
    for &digest in quarter_digests {
        hash.word(digest);
    }
    hash.finish()
}

/// Write `value` as compact JSON through the workspace's one durable
/// write (temp file + fsync + rename + directory fsync; never in place).
/// Every reader parses compact and pretty layouts alike, so a file
/// written by an older build still opens.
pub fn write_json_atomic<T: Serialize>(path: &Path, value: &T) -> Result<(), StoreError> {
    let json = serde_json::to_string(value).map_err(|e| StoreError::Corrupt {
        path: path.to_path_buf(),
        detail: format!("serialization failed: {e}"),
    })?;
    write_bytes_atomic(path, json.as_bytes())
}

/// Write `bytes` via a temp file + rename, fsyncing the temp file before
/// the rename and the parent directory after it, so a crash (or power
/// loss) leaves either the old file or the new one — never a torn write —
/// and the artifact-first ordering [`SeasonStore::record`] relies on
/// survives to disk in order. Nothing is ever written in place.
///
/// This is the workspace's one durable-write primitive: the season and
/// agency stores, the truth store, the public artifact cache, and the
/// release service's registries all persist through it, so the chaos
/// harness (the `chaos` feature) can fault every durable write in the
/// system by instrumenting exactly this path.
pub(crate) fn write_bytes_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    // The temp name must be unique per writer: concurrent writers of the
    // same target (two season workers persisting the same truth identity)
    // would otherwise share one temp file, and whoever renames second
    // finds it already gone. Keep the `.tmp` suffix — interrupted writes
    // are swept by that suffix.
    let tmp = {
        use std::sync::atomic::{AtomicU64, Ordering};
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy())
            .unwrap_or_default();
        path.with_file_name(format!("{name}.{}.{seq}.tmp", std::process::id()))
    };
    let io_err = |source: std::io::Error| StoreError::Io {
        path: tmp.clone(),
        source,
    };
    let mut file = cfs::file_create(&tmp).map_err(io_err)?;
    // A failed step removes its temp file (best-effort, outside the
    // chaos boundaries) before reporting. A kill never gets here: its
    // temp file stays for the next open's sweep.
    let written = cfs::write_all(&mut file, &tmp, bytes)
        .and_then(|()| cfs::sync_all(&file, &tmp))
        .map_err(io_err);
    drop(file);
    let renamed = written.and_then(|()| {
        cfs::rename(&tmp, path).map_err(|source| StoreError::Io {
            path: path.to_path_buf(),
            source,
        })
    });
    if renamed.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    renamed?;
    if let Some(parent) = path.parent() {
        let dir = fs::File::open(parent).map_err(|source| StoreError::Io {
            path: parent.to_path_buf(),
            source,
        })?;
        cfs::sync_all(&dir, parent).map_err(|source| StoreError::Io {
            path: parent.to_path_buf(),
            source,
        })?;
    }
    Ok(())
}

/// Sweep `dir` (non-recursively) for `*.tmp` files orphaned by a crash
/// mid-[`write_bytes_atomic`]: their renames never happened, so they were
/// never part of any store. Best-effort by design — a sweep failure must
/// never refuse an open — and callers hold the directory's write lease,
/// so no live writer's in-flight temp file can be swept (a writer's temp
/// exists only while the lease holder is inside `write_bytes_atomic`).
pub(crate) fn sweep_tmp_files(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().ends_with(".tmp") {
            let _ = cfs::remove_file(&entry.path());
        }
    }
}

pub(crate) fn read_json<T: Deserialize>(path: &Path) -> Result<T, StoreError> {
    parse_json(path, &read_bytes(path)?)
}

fn read_bytes(path: &Path) -> Result<Vec<u8>, StoreError> {
    fs::read(path).map_err(|source| StoreError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Parse `bytes`, read from `path`, as JSON.
fn parse_json<T: Deserialize>(path: &Path, bytes: &[u8]) -> Result<T, StoreError> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string());
    text.and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
        .map_err(|detail| StoreError::Corrupt {
            path: path.to_path_buf(),
            detail,
        })
}

/// A compact JSON header line: `header` serialized without whitespace and
/// terminated by `\n`. Compact JSON holds no raw newline (strings escape
/// it), so the first `\n` of a file always ends its header; the truth
/// store and the public cache put their payload after one.
pub(crate) fn header_line<H: Serialize>(header: &H) -> Vec<u8> {
    let mut line = serde_json::to_string(header)
        .expect("header serialization is infallible")
        .into_bytes();
    line.push(b'\n');
    line
}

/// Split a file written as [`header_line`] + payload back into its parsed
/// header and the payload bytes; `None` when there is no header line, it
/// does not parse as `H`, or it is not exactly `H`'s canonical encoding —
/// so no byte of a header can change unnoticed, not even to an
/// equivalent spelling (`2e0` for `2.0`).
pub(crate) fn split_header_line<H: Serialize + Deserialize>(bytes: &[u8]) -> Option<(H, &[u8])> {
    let end = bytes.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&bytes[..end]).ok()?;
    let header = serde_json::from_str(line).ok()?;
    // A parsed header can hold a float JSON cannot write back (`1e999`
    // parses to infinity), so a failed re-encoding is a refusal too.
    (serde_json::to_string(&header).ok()? == line).then_some((header, &bytes[end + 1..]))
}

/// Scan the artifacts directory, returning how many artifacts it holds.
/// File names must be exactly the canonical zero-padded `NNNNNN.json` and
/// the indexes contiguous from 0 — gaps and stray files are refused.
/// Leftover `*.tmp` files from an interrupted atomic write are swept away
/// (their renames never happened, so they were never part of the store).
fn scan_artifact_files(dir: &Path) -> Result<usize, StoreError> {
    let mut indexes: Vec<usize> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|source| StoreError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    for entry in entries {
        let entry = entry.map_err(|source| StoreError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".tmp") {
            let _ = cfs::remove_file(&entry.path());
            continue;
        }
        let index = name
            .strip_suffix(".json")
            .and_then(|stem| stem.parse::<usize>().ok())
            // Exactly the canonical zero-padded name, so every index maps
            // to one possible file and reads re-derive paths exactly.
            .filter(|&index| name == format!("{index:06}.json"))
            .ok_or_else(|| StoreError::Corrupt {
                path: entry.path(),
                detail: "artifact files must be named NNNNNN.json (zero-padded)".to_string(),
            })?;
        indexes.push(index);
    }
    indexes.sort_unstable();
    for (expect, &got) in indexes.iter().enumerate() {
        if got != expect {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "artifact files are not contiguous: expected index {expect}, found {got}"
                ),
            });
        }
    }
    Ok(indexes.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::MechanismKind;
    use lodes::{Generator, GeneratorConfig};
    use tabulate::workload1;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eree-store-unit-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn request(seed: u64, epsilon: f64) -> ReleaseRequest {
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, epsilon))
            .seed(seed)
    }

    #[test]
    fn create_then_open_round_trips_empty_season() {
        let dir = tmp_dir("empty");
        let budget = PrivacyParams::pure(0.1, 4.0);
        let store = SeasonStore::create(&dir, budget).unwrap();
        assert_eq!(store.completed(), 0);
        drop(store);
        let store = SeasonStore::open(&dir).unwrap();
        assert_eq!(store.completed(), 0);
        assert_eq!(store.ledger().budget(), &budget);
        assert!(matches!(
            SeasonStore::create(&dir, budget),
            Err(StoreError::AlreadyExists { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_concurrent_writer_is_refused_and_stale_leases_reclaim() {
        let dir = tmp_dir("lease");
        let budget = PrivacyParams::pure(0.1, 4.0);
        let store = SeasonStore::create(&dir, budget).unwrap();
        let files = || {
            let mut names: Vec<_> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        let held = files();
        // A second writer on the same directory — same process counts —
        // is refused with Locked, naming the directory, while the first
        // store lives; the lease is a lock, so it writes no file.
        match SeasonStore::open(&dir) {
            Err(StoreError::Locked { path }) => assert_eq!(path, dir),
            other => panic!("expected Locked, got {other:?}"),
        }
        // Releasing the store (dropping it) releases the lease.
        drop(store);
        assert_eq!(files(), held);
        let store = SeasonStore::open(&dir).unwrap();
        drop(store);
        // A lease file an older build left behind — recording a dead PID,
        // this process's own PID, or torn — is an ignored file.
        for leftover in [
            "{\"pid\": 0}",
            &format!("{{\"pid\": {}}}", std::process::id()),
            "{not",
        ] {
            fs::write(dir.join("season.lock"), leftover).unwrap();
            let store = SeasonStore::open(&dir).unwrap();
            drop(store);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_refuses_non_store_directories() {
        let dir = tmp_dir("not-a-store");
        fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            SeasonStore::open(&dir),
            Err(StoreError::NotAStore { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The deepest filter a request may carry writes an artifact that
    /// reads back through both the season and the public cache; one level
    /// deeper is refused before anything is charged.
    #[test]
    fn filters_at_the_depth_bound_read_back_and_deeper_ones_are_refused() {
        use crate::engine::MAX_FILTER_DEPTH;
        use crate::public_cache::{ReleaseCache, ReleaseKey};
        use lodes::Sex;
        use tabulate::FilterExpr;
        let dir = tmp_dir("deep-filter");
        let dataset = Generator::new(GeneratorConfig::test_small(5)).generate();
        let data = Snapshot::of(&dataset);
        // Nested `And`s: two JSON levels per level of depth, the deepest
        // a filter of that depth serializes to.
        let nested = |depth: usize| {
            (1..depth).fold(FilterExpr::sex(Sex::Female), |inner, _| {
                FilterExpr::sex(Sex::Female).and(inner)
            })
        };
        assert_eq!(nested(MAX_FILTER_DEPTH).depth(), MAX_FILTER_DEPTH);
        let mut store =
            SeasonStore::create(dir.join("season"), PrivacyParams::pure(0.1, 4.0)).unwrap();
        let mut cache = TabulationCache::new();
        let deepest = request(1, 1.0).filter_expr(nested(MAX_FILTER_DEPTH));
        let (artifact, _) = store.admit(data, &deepest, &mut cache).unwrap();
        assert_eq!(store.load_artifact(0).unwrap(), artifact);
        let key = ReleaseKey::of(&artifact.request, data.digest()).unwrap();
        let public = ReleaseCache::open(dir.join("public")).unwrap();
        public.save(&key, &artifact).unwrap();
        assert_eq!(public.load(&key), Some(artifact));

        let deeper = request(2, 1.0).filter_expr(nested(MAX_FILTER_DEPTH + 1));
        match store.admit(data, &deeper, &mut cache) {
            Err(StoreError::Refused {
                source: EngineError::FilterTooDeep { depth },
                ..
            }) => assert_eq!(depth, MAX_FILTER_DEPTH + 1),
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert_eq!(store.completed(), 1);
        assert_eq!(store.ledger().entries().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_rejects_out_of_step_ledgers() {
        let dir = tmp_dir("out-of-step");
        let dataset = Generator::new(GeneratorConfig::test_small(5)).generate();
        let mut store = SeasonStore::create(&dir, PrivacyParams::pure(0.1, 4.0)).unwrap();
        let data = Snapshot::of(&dataset);
        let execute = |engine: &mut ReleaseEngine, cache: &mut TabulationCache, seed| {
            engine
                .execute(&request(seed, 1.0), TruthSource::Tabulate { data, cache })
                .unwrap()
        };
        let mut engine = store.engine();
        let mut cache = TabulationCache::new();
        let a1 = execute(&mut engine, &mut cache, 1);
        let a2 = execute(&mut engine, &mut cache, 2);
        // Two charges but the store saw neither: entry count is off by 2.
        assert!(matches!(
            store.record(engine.ledger(), &a2),
            Err(StoreError::Inconsistent { .. })
        ));
        // A ledger whose newest entry was charged under a different
        // description than the artifact's would persist a store that
        // open() must refuse — record() refuses it up front instead.
        let mut renamed = store.ledger().clone();
        renamed
            .charge(
                "not the artifact's description",
                &PrivacyParams::pure(0.1, 1.0),
                &a1.cost,
            )
            .unwrap();
        assert!(matches!(
            store.record(&renamed, &a1),
            Err(StoreError::Inconsistent { .. })
        ));
        // Recording in order works.
        let mut engine = store.engine();
        let b1 = execute(&mut engine, &mut TabulationCache::new(), 1);
        assert_eq!(b1, a1);
        store.record(engine.ledger(), &b1).unwrap();
        assert_eq!(store.completed(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// [`dataset_digest`] restated from its doc comment, single-threaded:
    /// each table's whole word stream, cut into chunks of 2¹⁶ records,
    /// each chunk hashed lane by lane.
    fn reference_digest(d: &Dataset) -> u64 {
        let fnv = |words: &[u64]| {
            let mut hash = Fnv1a::new();
            words.iter().for_each(|&word| hash.word(word));
            hash.finish()
        };
        let tables: [(usize, Vec<u64>); 3] = [
            (
                2,
                d.workplaces()
                    .iter()
                    .flat_map(|wp| {
                        [
                            wp.state.0 as u64
                                | (wp.county.0 as u64) << 16
                                | (wp.naics.index() as u64) << 32
                                | (wp.ownership.index() as u64) << 40,
                            wp.place.0 as u64 | (wp.block.0 as u64) << 32,
                        ]
                    })
                    .collect(),
            ),
            (
                1,
                d.workers()
                    .iter()
                    .map(|w| {
                        w.sex.index() as u64
                            | (w.age.index() as u64) << 8
                            | (w.race.index() as u64) << 16
                            | (w.ethnicity.index() as u64) << 24
                            | (w.education.index() as u64) << 32
                    })
                    .collect(),
            ),
            (
                1,
                d.jobs()
                    .iter()
                    .map(|job| job.worker.0 as u64 | (job.workplace.0 as u64) << 32)
                    .collect(),
            ),
        ];
        let mut top = vec![
            d.num_workplaces() as u64,
            d.num_workers() as u64,
            d.num_jobs() as u64,
        ];
        for (words_per_record, words) in &tables {
            for chunk in words.chunks(words_per_record << 16) {
                let lanes: Vec<u64> = (0..4)
                    .map(|lane| {
                        fnv(&chunk
                            .iter()
                            .skip(lane)
                            .step_by(4)
                            .copied()
                            .collect::<Vec<_>>())
                    })
                    .collect();
                top.push(fnv(&lanes));
            }
        }
        fnv(&top)
    }

    #[test]
    fn dataset_digest_is_its_definition_at_any_thread_count() {
        let d = Generator::new(GeneratorConfig {
            target_establishments: 10_000,
            ..GeneratorConfig::test_small(13)
        })
        .generate();
        assert!(
            d.num_jobs() > 2 * DIGEST_CHUNK,
            "three worker and job chunks"
        );
        let digest = dataset_digest(&d);
        assert_eq!(digest, reference_digest(&d));
        for threads in [1, 2, 3, 8] {
            assert_eq!(dataset_digest_on(&d, threads), digest, "{threads} threads");
        }

        // One changed field anywhere — a worker attribute, a job edge, a
        // workplace field — changes the digest.
        type Edit = fn(&mut Workplace, &mut Worker, &mut Job, usize);
        fn next<T: Copy>(all: &[T], index: usize) -> T {
            all[(index + 1) % all.len()]
        }
        let edits: [(&str, Edit); 13] = [
            ("worker sex", |_, w, _, _| {
                w.sex = next(&lodes::Sex::ALL, w.sex.index())
            }),
            ("worker age", |_, w, _, _| {
                w.age = next(&lodes::AgeGroup::ALL, w.age.index())
            }),
            ("worker race", |_, w, _, _| {
                w.race = next(&lodes::Race::ALL, w.race.index())
            }),
            ("worker ethnicity", |_, w, _, _| {
                w.ethnicity = next(&lodes::Ethnicity::ALL, w.ethnicity.index())
            }),
            ("worker education", |_, w, _, _| {
                w.education = next(&lodes::Education::ALL, w.education.index())
            }),
            ("job workplace", |_, _, job, workplaces| {
                job.workplace.0 = (job.workplace.0 + 1) % workplaces as u32
            }),
            ("workplace state", |wp, _, _, _| wp.state.0 ^= 1),
            ("workplace county", |wp, _, _, _| wp.county.0 ^= 1),
            ("workplace naics", |wp, _, _, _| {
                wp.naics = next(&lodes::NaicsSector::ALL, wp.naics.index())
            }),
            ("workplace ownership", |wp, _, _, _| {
                wp.ownership = next(&lodes::Ownership::ALL, wp.ownership.index())
            }),
            ("workplace place", |wp, _, _, _| wp.place.0 ^= 1),
            ("workplace block", |wp, _, _, _| wp.block.0 ^= 1),
            ("nothing", |_, _, _, _| {}),
        ];
        for (name, edit) in edits {
            let (mut workplaces, mut workers, mut jobs) = (
                d.workplaces().to_vec(),
                d.workers().to_vec(),
                d.jobs().to_vec(),
            );
            // One record in each table, each in a chunk past the first.
            let (wp, w, job) = (workplaces.len() / 2, 2 * DIGEST_CHUNK + 5, DIGEST_CHUNK + 7);
            edit(
                &mut workplaces[wp],
                &mut workers[w],
                &mut jobs[job],
                d.num_workplaces(),
            );
            let edited = Dataset::new(d.geography().clone(), workplaces, workers, jobs);
            assert_eq!(
                dataset_digest(&edited) == digest,
                name == "nothing",
                "editing the {name}"
            );
        }
    }

    /// Known answers for every FNV-1a and SplitMix64 the stores and the
    /// engine derive: these values name stored files, cache entries and
    /// noise streams, so a change to any of them would orphan every
    /// persisted truth, body and cache entry (or change released noise).
    #[test]
    fn content_addresses_and_seeds_match_known_answers() {
        use crate::agency::panel_quarter_seed;
        use lodes::{DatasetPanel, PanelConfig};
        use tabulate::{compute_flows, compute_marginal, ranking2_expr, workload3};
        let panel = DatasetPanel::generate(
            &GeneratorConfig::test_small(5),
            &PanelConfig {
                quarters: 2,
                growth_sigma: 0.1,
                death_rate: 0.05,
                seed: 9,
            },
        );
        let (before, after) = (
            dataset_digest(panel.quarter(0)),
            dataset_digest(panel.quarter(1)),
        );
        let level = compute_marginal(panel.quarter(1), &workload3());
        let flows = compute_flows(panel.quarter(0), panel.quarter(1), &workload1());
        // The dataset values are digest v2's, and its definition agrees.
        assert_eq!(
            (before, after),
            (
                reference_digest(panel.quarter(0)),
                reference_digest(panel.quarter(1))
            )
        );
        assert_eq!(after, 0xc8ce_0692_e723_4cce);
        assert_eq!(dataset_pair_digest(before, after), 0x5b75_cc7d_a03c_ddf6);
        assert_eq!(panel_digest(&[before, after]), 0xf6a1_6933_b353_1578);
        assert_eq!(ranking2_expr().id().0, 0x54cc_e40f_eff4_ae61);
        assert_eq!(level.content_digest(), 0xfb54_4b81_66ef_0719);
        assert_eq!(flows.content_digest(), 0x0ceb_64f5_38e8_03a1);
        assert_eq!(fnv1a_bytes(b"eree"), 0xb200_5260_6faa_ffc4);
        assert_eq!(panel_quarter_seed(7, 3), 0x90df_7bd8_aeb7_7931);
        // The truth files' bytes: length and FNV-1a of what `save` and
        // `save_flows` write for the two tables above.
        let dir = tmp_dir("known-truths");
        let truths = crate::truths::TruthStore::open(&dir, after).unwrap();
        let pair = dataset_pair_digest(before, after);
        truths.save(&workload3(), None, &level).unwrap();
        truths.save_flows(pair, &workload1(), None, &flows).unwrap();
        let file = |key_digest: u64| {
            let bytes = fs::read(dir.join(format!("{key_digest:016x}.truth"))).unwrap();
            (bytes.len(), fnv1a_bytes(&bytes))
        };
        assert_eq!(
            file(truths.key_digest(&workload3(), None)),
            (42_751, 0xc685_890e_ee73_42ed)
        );
        assert_eq!(
            file(truths.flow_key_digest(pair, &workload1(), None)),
            (17_182, 0x97f5_6c6d_0464_8436)
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
