//! On-disk persistence for publication seasons.
//!
//! A *publication season* is an agency's ordered plan of releases spending
//! one season-long [`Ledger`] budget — the operational reading of the
//! paper's composition theorems (Thms 7.3–7.5). A season runs for hours at
//! national scale, so the process executing it will eventually be killed
//! partway; what must never happen on restart is a request being noised
//! (and its ε spent) twice. The [`SeasonStore`] makes a season durable:
//!
//! * every completed [`ReleaseArtifact`] is written to its own JSON file
//!   under `<season>/artifacts/`, atomically (temp file + rename);
//! * after each artifact, the ledger snapshot in `<season>/ledger.json` is
//!   refreshed the same way;
//! * [`SeasonStore::open`] reloads both, **replaying** the ledger entries
//!   through the same compensated budget arithmetic the live
//!   [`Ledger::charge`] uses, and refuses a store whose entries overdraw
//!   the budget, whose artifacts disagree with its entries, or whose files
//!   are corrupt — a tampered snapshot can never resume with more budget
//!   than was actually left;
//! * every open store holds an exclusive **write lease** (`season.lock`,
//!   a [`DirLease`]): the whole protocol assumes one writer per season
//!   directory, so a second concurrent writer is refused with
//!   [`StoreError::Locked`] instead of silently risking corruption, and a
//!   stale lease left by a dead process is reclaimed automatically.
//!
//! The write protocol is artifact-first. A crash in the window between an
//! artifact landing and its ledger snapshot leaves the store one entry
//! behind its artifacts; [`SeasonStore::open`] detects exactly that state
//! and rolls the ledger forward from the artifact's recorded
//! [`cost`](ReleaseArtifact::cost) (which is bit-for-bit what the engine
//! charged). Any other disagreement is refused as
//! [`StoreError::Inconsistent`].
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
//! builds the dataset's columnar `DatasetIndex` exactly once,
//! so a resumed season re-tabulates over the shared CSR index instead of
//! from scratch. [`SeasonStore::admit`] records one new release on top of
//! whatever the season holds and returns the artifact it recorded — the
//! path of a driver that receives releases one at a time, like the
//! release service's season workers. Because per-cell noise streams
//! derive from `(request seed, cell key)` and tabulation's sharded merge is
//! order-insensitive, the artifacts a resumed run produces are
//! bit-identical to an uninterrupted run's at any thread count.
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

use crate::accountant::{Ledger, LedgerEntry};
use crate::definitions::PrivacyParams;
use crate::engine::{
    ReleaseArtifact, ReleaseEngine, ReleaseRequest, Snapshot, TabulationCache, TruthSource,
};
use crate::error::EngineError;
use crate::metrics::MetricsRegistry;
use lodes::Dataset;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Store format version, recorded in the season manifest so a layout
/// change refuses (or migrates) old directories explicitly. Version 2:
/// artifact provenance no longer carries the closure-era `filtered`
/// flag, so a version-1 season (whose artifacts may record
/// `filtered: true` with no expression) is refused, not misread as
/// unfiltered.
const FORMAT_VERSION: u32 = 2;

/// Manifest file name under the season directory.
const MANIFEST_FILE: &str = "season.json";
/// Ledger snapshot file name under the season directory.
const LEDGER_FILE: &str = "ledger.json";
/// Artifact subdirectory name under the season directory.
const ARTIFACTS_DIR: &str = "artifacts";
/// Write-lease file name under the season directory.
const LEASE_FILE: &str = "season.lock";

/// Chaos-aware filesystem wrappers.
///
/// Every durable mutation the store layers perform — temp-file create,
/// write, fsync, rename, directory create, repair/sweep removal — goes
/// through these, so the default-off `chaos` feature can count every
/// syscall boundary and inject an error or a kill at any one of them
/// (see [`crate::chaos`]). Without the feature each wrapper is exactly
/// its `std::fs` counterpart: the `hit` probe compiles to nothing.
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

    /// `O_EXCL` create — the lease-acquisition primitive.
    pub fn create_new(path: &Path) -> io::Result<fs::File> {
        hit("create_new", path)?;
        fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
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
    /// Another live process (or another handle in this process) holds the
    /// store's write lease. Two concurrent writers against one season
    /// directory would race the artifact-first protocol into corruption,
    /// so the second acquirer is refused loudly instead. Stale leases —
    /// whose holder PID no longer exists — are reclaimed automatically.
    Locked {
        /// The lease file.
        path: PathBuf,
        /// PID recorded in the live lease.
        holder_pid: u32,
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
            StoreError::Locked { path, holder_pid } => {
                write!(
                    f,
                    "store is write-locked by live process {holder_pid} (lease {})",
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

/// The on-disk form of a write lease: who holds the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct LeaseFile {
    pid: u32,
}

/// An exclusive write lease on a store directory, embodied as a lease
/// file created with `O_EXCL` semantics and removed on [`Drop`].
///
/// The season store's crash protocol (artifact-first atomic writes,
/// replay-verified open) assumes **one writer at a time** per directory;
/// a second concurrent writer could interleave `ledger.json` renames and
/// leave a store that verifies but under-reports spending. The lease
/// makes that assumption explicit and enforced: acquiring a directory
/// that a *live* process already holds fails with [`StoreError::Locked`],
/// while a stale lease — its recorded PID no longer running — is
/// reclaimed automatically, so a crashed season never needs manual
/// cleanup before resuming.
///
/// Liveness is judged by `/proc/<pid>` on Linux; on platforms without
/// `/proc` the holder is conservatively presumed alive (a stale lease
/// then needs manual removal — fail-closed, never fail-open).
#[derive(Debug)]
pub struct DirLease {
    path: PathBuf,
}

impl DirLease {
    /// Acquire the lease file at `path`, reclaiming it first if its
    /// recorded holder is provably dead.
    pub fn acquire(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let lease = LeaseFile { pid: lease_pid() };
        let json = serde_json::to_string_pretty(&lease).expect("lease serialization is infallible");
        // Bounded retry: between observing a dead holder and reclaiming,
        // another acquirer may win the exclusive create; re-examine rather
        // than spin forever.
        for _ in 0..4 {
            match cfs::create_new(&path) {
                Ok(mut file) => {
                    cfs::write_all(&mut file, &path, json.as_bytes())
                        .and_then(|()| cfs::sync_all(&file, &path))
                        .map_err(|source| StoreError::Io {
                            path: path.clone(),
                            source,
                        })?;
                    return Ok(Self { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    match read_json::<LeaseFile>(&path) {
                        Ok(holder) if pid_is_alive(holder.pid) => {
                            return Err(StoreError::Locked {
                                path,
                                holder_pid: holder.pid,
                            });
                        }
                        // Dead holder, or a torn/vanished lease file (the
                        // holder died mid-write, or released between our
                        // create and read): stale either way. Reclaim —
                        // serialized through the reclaim marker — and
                        // retry the exclusive create.
                        Ok(_) | Err(_) => Self::reclaim_stale(&path),
                    }
                }
                Err(source) => return Err(StoreError::Io { path, source }),
            }
        }
        Err(StoreError::Inconsistent {
            detail: format!(
                "lease {} could not be acquired after repeated reclaim attempts",
                path.display()
            ),
        })
    }

    /// Remove a lease file judged stale, without ever racing another
    /// acquirer into removing a *live* lease.
    ///
    /// A remove-in-place reclaim has a classic TOCTOU hole: racer B reads
    /// the stale lease, racer A reclaims it and writes its own live
    /// lease, then B's remove deletes A's lease — and the next exclusive
    /// create admits a second writer. Reclaim therefore serializes
    /// through an `O_EXCL` *reclaim marker* (`<lease>.reclaim`): only the
    /// marker holder may remove the lease, and it re-verifies under the
    /// marker that the lease is still stale — `create_new` never replaces
    /// an existing file, so a lease that still parses to a dead PID under
    /// the marker cannot be a racer's fresh live lease. A marker left by
    /// a holder that died mid-reclaim is itself judged by PID liveness
    /// and cleared. Failures here are deliberately swallowed: reclaim is
    /// best-effort, and the caller's bounded acquire loop re-judges the
    /// world on every iteration.
    fn reclaim_stale(path: &Path) {
        let marker = path.with_file_name(format!(
            "{}.reclaim",
            path.file_name()
                .map(|n| n.to_string_lossy())
                .unwrap_or_default()
        ));
        match cfs::create_new(&marker) {
            Ok(mut file) => {
                let claim = serde_json::to_string_pretty(&LeaseFile { pid: lease_pid() })
                    .expect("lease serialization is infallible");
                let _ = cfs::write_all(&mut file, &marker, claim.as_bytes());
                // Re-judge under the marker: remove only what is still
                // provably stale. A torn read could be a live acquirer
                // between its exclusive create and its first write, so
                // give it one grace period to finish before treating the
                // tear as a crashed writer's leavings.
                let still_stale = match read_json::<LeaseFile>(path) {
                    Ok(holder) => !pid_is_alive(holder.pid),
                    Err(_) => {
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        match read_json::<LeaseFile>(path) {
                            Ok(holder) => !pid_is_alive(holder.pid),
                            Err(_) => true,
                        }
                    }
                };
                if still_stale {
                    let _ = cfs::remove_file(path);
                }
                let _ = cfs::remove_file(&marker);
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                // Another reclaimer holds the marker: clear it if its
                // holder died mid-reclaim, otherwise give way and let the
                // acquire loop re-judge.
                match read_json::<LeaseFile>(&marker) {
                    Ok(holder) if pid_is_alive(holder.pid) => {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    Ok(_) | Err(_) => {
                        let _ = cfs::remove_file(&marker);
                    }
                }
            }
            Err(_) => {}
        }
    }

    /// The lease file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DirLease {
    fn drop(&mut self) {
        // A simulated kill means this "process" is dead: it never runs
        // its own cleanup, exactly like a real SIGKILL. The lease file
        // stays behind for the next opener's stale-reclaim path.
        #[cfg(feature = "chaos")]
        if crate::chaos::crashed() {
            return;
        }
        let _ = fs::remove_file(&self.path);
    }
}

/// The PID recorded into acquired leases: the real process id, unless the
/// chaos layer is simulating another process identity.
fn lease_pid() -> u32 {
    #[cfg(feature = "chaos")]
    if let Some(pid) = crate::chaos::lease_pid_override() {
        return pid;
    }
    std::process::id()
}

/// Is the process with this PID still running?
///
/// The current process always reads as alive (so a second handle inside
/// one process is correctly refused). Elsewhere, `/proc/<pid>` decides on
/// Linux; platforms without `/proc` presume alive — conservative, since a
/// false "alive" can only refuse a writer, never admit two. The chaos
/// layer may override the verdict for its simulated process identities.
fn pid_is_alive(pid: u32) -> bool {
    #[cfg(feature = "chaos")]
    if let Some(alive) = crate::chaos::pid_alive_override(pid) {
        return alive;
    }
    if pid == std::process::id() {
        return true;
    }
    if cfg!(target_os = "linux") {
        Path::new("/proc").join(pid.to_string()).exists()
    } else {
        true
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
    /// first `run` binds it.
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

/// The in-memory summary of one persisted release: what was asked and
/// what it cost. The payload (published cells) stays on disk — a season
/// holds the full artifact in memory only while writing or verifying it,
/// so resident state is O(releases), not O(total published cells).
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedRelease {
    /// The persisted artifact's request provenance.
    pub request: crate::engine::RequestProvenance,
    /// The cost its release charged the ledger.
    pub cost: crate::accountant::ReleaseCost,
}

impl CompletedRelease {
    fn of(artifact: &ReleaseArtifact) -> Self {
        Self {
            request: artifact.request.clone(),
            cost: artifact.cost,
        }
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
    /// store's lifetime and released (the file removed) on drop.
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
        let lease = DirLease::acquire(root.join(LEASE_FILE))?;
        let manifest = SeasonManifest {
            format: FORMAT_VERSION,
            budget,
            dataset_digest: None,
            closed: false,
        };
        let ledger = Ledger::new(budget);
        // Ledger before manifest: the manifest's presence is the commit
        // point (`open` demands it, `create` refuses it), so every file
        // it vouches for must already exist. A crash between the two
        // leaves a manifest-less directory that a re-issued `create`
        // simply finishes.
        write_json_atomic(&root.join(LEDGER_FILE), &ledger)?;
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

    /// Reload a persisted season, verifying it end to end:
    ///
    /// 1. the manifest parses and its format is supported;
    /// 2. the ledger snapshot parses, and its entries **replay** within the
    ///    budget (the deserializer re-runs the compensated arithmetic and
    ///    cross-checks the recorded totals);
    /// 3. the ledger's budget matches the manifest's;
    /// 4. artifact files are contiguous (`000000.json … N.json`, no gaps)
    ///    and each parses;
    /// 5. artifact `i`'s recorded cost and description agree bit-for-bit
    ///    with ledger entry `i`.
    ///
    /// The one tolerated asymmetry is the crash window of the
    /// artifact-first write protocol: exactly one more artifact than
    /// ledger entries, repaired by rolling the ledger forward from that
    /// artifact's recorded cost.
    pub fn open(root: impl AsRef<Path>) -> Result<Self, StoreError> {
        let root = root.as_ref().to_path_buf();
        let manifest_path = root.join(MANIFEST_FILE);
        if !manifest_path.exists() {
            return Err(StoreError::NotAStore { path: root });
        }
        // Exclusive writer from here on: verification reads (and the
        // crash-window repair write below) happen under the lease too, so
        // a concurrent writer can never shear the files being verified.
        let lease = DirLease::acquire(root.join(LEASE_FILE))?;
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
        let mut ledger: Ledger = read_json(&ledger_path)?;
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
        // arithmetic. The repaired snapshot is persisted only after the
        // whole store verifies: a refused open never modifies the store.
        let mut rolled_forward: Option<ReleaseArtifact> = None;
        if ledger.entries().len() + 1 == artifact_count {
            let last: ReleaseArtifact =
                read_json(&artifact_file(&artifacts_dir, artifact_count - 1))?;
            let mut entries = ledger.entries().to_vec();
            entries.push(LedgerEntry {
                description: last.request.description.clone(),
                epsilon: last.cost.epsilon,
                delta: last.cost.delta,
            });
            ledger = Ledger::replay(manifest.budget, &entries).map_err(|e| {
                StoreError::Inconsistent {
                    detail: format!("rolling the ledger forward over the last artifact: {e}"),
                }
            })?;
            rolled_forward = Some(last);
        } else if ledger.entries().len() != artifact_count {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "{} ledger entries vs {artifact_count} artifacts \
                     (only artifacts = entries + 1 is repairable)",
                    ledger.entries().len(),
                ),
            });
        }

        // Verify artifact-by-artifact (one in memory at a time), keeping
        // only the provenance + cost summary of each. The rolled-forward
        // artifact was already parsed above; don't read it twice.
        let mut completed = Vec::with_capacity(artifact_count);
        for (i, entry) in ledger.entries().iter().enumerate() {
            let artifact: ReleaseArtifact = match &rolled_forward {
                Some(last) if i + 1 == artifact_count => last.clone(),
                _ => read_json(&artifact_file(&artifacts_dir, i))?,
            };
            if entry.epsilon.to_bits() != artifact.cost.epsilon.to_bits()
                || entry.delta.to_bits() != artifact.cost.delta.to_bits()
                || entry.description != artifact.request.description
            {
                return Err(StoreError::Inconsistent {
                    detail: format!(
                        "ledger entry {i} ({}, eps {}, delta {}) disagrees with artifact {i} \
                         ({}, eps {}, delta {})",
                        entry.description,
                        entry.epsilon,
                        entry.delta,
                        artifact.request.description,
                        artifact.cost.epsilon,
                        artifact.cost.delta
                    ),
                });
            }
            completed.push(CompletedRelease::of(&artifact));
        }
        if rolled_forward.is_some() {
            write_json_atomic(&ledger_path, &ledger)?;
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

    /// [`open`](Self::open) if `root` holds a season (whose budget must
    /// equal `budget`), else [`create`](Self::create).
    pub fn open_or_create(
        root: impl AsRef<Path>,
        budget: PrivacyParams,
    ) -> Result<Self, StoreError> {
        let root = root.as_ref();
        if root.join(MANIFEST_FILE).exists() {
            let store = Self::open(root)?;
            if store.ledger.budget() != &budget {
                return Err(StoreError::Inconsistent {
                    detail: format!(
                        "existing season budget {:?} differs from requested {:?}",
                        store.ledger.budget(),
                        budget
                    ),
                });
            }
            Ok(store)
        } else {
            Self::create(root, budget)
        }
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

    /// The dataset fingerprint this season is pinned to (`None` until the
    /// first [`run`](Self::run) or [`admit`](Self::admit) binds one).
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

    /// Provenance + cost of every persisted release, in publication order
    /// (the audit view; payloads stay on disk — see
    /// [`load_artifact`](Self::load_artifact)).
    pub fn releases(&self) -> &[CompletedRelease] {
        &self.completed
    }

    /// Load the full artifact of release `index` from disk.
    pub fn load_artifact(&self, index: usize) -> Result<ReleaseArtifact, StoreError> {
        if index >= self.completed.len() {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "artifact index {index} out of range ({} completed)",
                    self.completed.len()
                ),
            });
        }
        read_json(&artifact_file(&self.root.join(ARTIFACTS_DIR), index))
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
    /// then the ledger snapshot.
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
        // Mirror open()'s entry-vs-artifact checks exactly: anything
        // record() admits must be reopenable.
        let entry = ledger.entries().last().expect("len >= 1");
        if entry.epsilon.to_bits() != artifact.cost.epsilon.to_bits()
            || entry.delta.to_bits() != artifact.cost.delta.to_bits()
            || entry.description != artifact.request.description
        {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "ledger's newest entry ({}, eps {}, delta {}) is not the artifact's \
                     charge ({}, eps {}, delta {})",
                    entry.description,
                    entry.epsilon,
                    entry.delta,
                    artifact.request.description,
                    artifact.cost.epsilon,
                    artifact.cost.delta
                ),
            });
        }
        let path = artifact_file(&self.root.join(ARTIFACTS_DIR), self.completed.len());
        write_json_atomic(&path, artifact)?;
        write_json_atomic(&self.root.join(LEDGER_FILE), ledger)?;
        self.completed.push(CompletedRelease::of(artifact));
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
    /// artifact — returning exactly the artifact that was recorded.
    ///
    /// A refused request is [`StoreError::Refused`]: nothing is charged or
    /// recorded.
    pub fn admit(
        &mut self,
        data: Snapshot<'_>,
        request: &ReleaseRequest,
        cache: &mut TabulationCache,
    ) -> Result<ReleaseArtifact, StoreError> {
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

    /// Execute one request on `engine` (this season's ledger) and record
    /// it — the one admission body `run` and `admit` share.
    fn admit_on(
        &mut self,
        engine: &mut ReleaseEngine,
        data: Snapshot<'_>,
        request: &ReleaseRequest,
        cache: &mut TabulationCache,
    ) -> Result<ReleaseArtifact, StoreError> {
        let artifact = engine
            .execute(request, TruthSource::Tabulate { data, cache })
            .map_err(|source| StoreError::Refused {
                index: self.completed.len(),
                description: request.description(),
                source,
            })?;
        self.record(engine.ledger(), &artifact)?;
        Ok(artifact)
    }
}

/// The canonical path of artifact `index`.
fn artifact_file(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("{index:06}.json"))
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

/// FNV-1a over a byte string — the workspace's one content-address hash
/// (dataset digests, truth-store keys, released-artifact cache keys all
/// fold through it). A digest only ever *names* things; every store that
/// uses one re-verifies the full key structurally on load.
pub(crate) fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A stable FNV-1a fingerprint of the confidential database: table sizes,
/// every workplace's attributes, every worker's attributes, and the job
/// edge list, folded in table order.
///
/// [`SeasonStore::run`] and [`SeasonStore::admit`] bind this into the
/// manifest on a season's first release and refuse any later one against
/// a database that hashes differently — a resumed season's remaining
/// releases must come from the same data as its persisted ones. One
/// linear pass over the dataset per [`Snapshot::of`] (cheap next to a
/// single tabulation).
pub fn dataset_digest(dataset: &Dataset) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    fold(dataset.num_workplaces() as u64);
    fold(dataset.num_workers() as u64);
    fold(dataset.num_jobs() as u64);
    for wp in dataset.workplaces() {
        fold(
            (wp.state.0 as u64)
                | ((wp.county.0 as u64) << 16)
                | ((wp.naics.index() as u64) << 32)
                | ((wp.ownership.index() as u64) << 40),
        );
        fold((wp.place.0 as u64) | ((wp.block.0 as u64) << 32));
    }
    for w in dataset.workers() {
        fold(
            (w.sex.index() as u64)
                | ((w.age.index() as u64) << 8)
                | ((w.race.index() as u64) << 16)
                | ((w.ethnicity.index() as u64) << 24)
                | ((w.education.index() as u64) << 32),
        );
    }
    for job in dataset.jobs() {
        fold((job.worker.0 as u64) | ((job.workplace.0 as u64) << 32));
    }
    hash
}

/// The content address of an ordered `(before, after)` dataset pair — the
/// digest that names flow truths and flow release-cache entries, folded
/// (FNV-1a) from the two snapshots' [`dataset_digest`]s **in order**.
/// Flows are directional (job creation from `t` to `t+1` is job
/// destruction in the reverse direction), so swapping the arguments
/// yields a different address.
pub fn dataset_pair_digest(before: u64, after: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [before, after] {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// The content address of a whole quarterly panel: FNV-1a over the
/// quarter count followed by each quarter's [`dataset_digest`] in order.
/// A panel-mode agency pins this digest instead of a single dataset's —
/// its per-quarter seasons each pin their own quarter — so reopening the
/// agency against a panel with any quarter changed, added, or reordered
/// is refused.
pub fn panel_digest(quarter_digests: &[u64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    fold(quarter_digests.len() as u64);
    for &digest in quarter_digests {
        fold(digest);
    }
    hash
}

/// Write `value` as pretty JSON via a temp file + rename, fsyncing the
/// temp file before the rename and the parent directory after it, so a
/// crash (or power loss) leaves either the old file or the new one — never
/// a torn write — and the artifact-first ordering [`SeasonStore::record`]
/// relies on survives to disk in order.
///
/// This is the workspace's one durable-write primitive: the season and
/// agency stores, the truth store, the public artifact cache, and the
/// release service's registries all persist through it, so the chaos
/// harness (the `chaos` feature) can fault every durable write in the
/// system by instrumenting exactly this path.
pub fn write_json_atomic<T: Serialize>(path: &Path, value: &T) -> Result<(), StoreError> {
    let json = serde_json::to_string_pretty(value).map_err(|e| StoreError::Corrupt {
        path: path.to_path_buf(),
        detail: format!("serialization failed: {e}"),
    })?;
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
    cfs::write_all(&mut file, &tmp, json.as_bytes()).map_err(io_err)?;
    cfs::sync_all(&file, &tmp).map_err(io_err)?;
    drop(file);
    cfs::rename(&tmp, path).map_err(|source| StoreError::Io {
        path: path.to_path_buf(),
        source,
    })?;
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
/// mid-[`write_json_atomic`] (or a failed lease reclaim): their renames
/// never happened, so they were never part of any store. Best-effort by
/// design — a sweep failure must never refuse an open — and callers hold
/// the directory's write lease, so no live writer's in-flight temp file
/// can be swept (a writer's temp exists only while the lease holder is
/// inside `write_json_atomic`).
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
    let text = fs::read_to_string(path).map_err(|source| StoreError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    serde_json::from_str(&text).map_err(|e| StoreError::Corrupt {
        path: path.to_path_buf(),
        detail: e.to_string(),
    })
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
        let dir = std::env::temp_dir().join(format!("eree-store-unit-{name}"));
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
        // A second writer on the same directory — same process counts —
        // is refused with Locked while the first store lives.
        match SeasonStore::open(&dir) {
            Err(StoreError::Locked { holder_pid, .. }) => {
                assert_eq!(holder_pid, std::process::id());
            }
            other => panic!("expected Locked, got {other:?}"),
        }
        // Releasing the store (dropping it) releases the lease.
        drop(store);
        assert!(!dir.join(LEASE_FILE).exists());
        let store = SeasonStore::open(&dir).unwrap();
        drop(store);
        // A stale lease from a dead process is reclaimed on open. PID 0 is
        // the kernel's; no user process ever holds it.
        fs::write(
            dir.join(LEASE_FILE),
            serde_json::to_string(&LeaseFile { pid: 0 }).unwrap(),
        )
        .unwrap();
        let store = SeasonStore::open(&dir).unwrap();
        drop(store);
        // A torn (unparseable) lease file reads as stale too.
        fs::write(dir.join(LEASE_FILE), "{not json").unwrap();
        let store = SeasonStore::open(&dir).unwrap();
        drop(store);
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
}
