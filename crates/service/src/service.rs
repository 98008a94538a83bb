//! The release service: one [`AgencyStore`] served to many tenants.
//!
//! # Request lifecycle
//!
//! ```text
//!                 ┌────────────────────────── HTTP pool ──────────────┐
//! tenant ── POST ─►  parse → validate → ReleaseKey → public cache? ───┼─► 200 (cached)
//!                 │                                   │ miss          │
//!                 │                 resolve season ── ▼ enqueue ──────┼─► 202 (queued)
//!                 └──────────────────────────┬────────────────────────┘
//!                                            │ per-season mpsc queue
//!                 ┌────────────────── season worker (owns the lease) ─┐
//!                 │ SeasonStore::admit(snapshot, request)             │
//!                 │   → truth: memory → disk → tabulate (index slot)  │
//!                 │   → ledger charge → artifact persisted            │
//!                 │   → public cache save → registry: complete        │
//!                 └───────────────────────────────────────────────────┘
//! tenant ── GET /releases/{id} ── registry (body site, digest)
//!                                 ── read body, check FNV-1a ──► queued | complete | failed
//! ```
//!
//! # Concurrency model
//!
//! Every season gets exactly one **worker thread** owning its
//! [`SeasonStore`] — and with it the season directory's write lease —
//! until service shutdown or until the season has gone idle for
//! [`ServiceConfig::idle_timeout`], at which point the worker retires,
//! releasing the lease and the truths its tabulation cache holds; the
//! next submission respawns it. Submissions to
//! one season serialize through its worker's queue (season ledgers are
//! strictly ordered objects; there is no correct concurrent charge),
//! while different seasons run fully in parallel. Workers for the same
//! quarter share one [`DatasetIndex`] slot (one shard per state
//! automatically at national scale) and the agency's persistent truth
//! store, so concurrent tenants never duplicate tabulation work. The
//! index is built by a quarter's first tabulation, on that season's
//! worker thread with no lock held; a release served from memory or from
//! the truth store never builds it, and the HTTP side never builds an
//! index. A start pays for one [`dataset_digest`] per quarter, hashed on
//! every core, and reads no body. Every admission decision is durable before
//! it is acknowledged: a completed release is an artifact + ledger
//! snapshot on disk, and the release-id registry itself is persisted to
//! `releases.json`, so `GET /releases/{id}` survives a restart. The
//! registry keeps no artifact: a completed record holds its body's
//! content digest and where the body lives — its season and index for an
//! admitted release, its public-cache key for a cache hit — so a start
//! reads one small file and no body. A GET reads the body outside
//! the registry lock, checks its FNV-1a against the recorded digest and
//! splices the bytes into the view as its last field (`artifact`),
//! without parsing or serializing them; a missing or mismatched body
//! answers `failed`. Releases that were still queued at a restart report
//! as failed. `GET /audit?deep=1` runs that read over every completed
//! release.
//!
//! The service keeps one [`SeasonSummary`] per reserved season, seeded at
//! start from [`AgencyStore::seasons`] and replaced whole by whoever last
//! changed the season: `POST /seasons`, the season's worker (when it
//! spawns, from the store it opens, and after each release) and a close.
//! `GET /audit` lists them in reservation order as they stand.
//!
//! Locks, where several are held, are taken in the order `agency` →
//! `workers` → `registry`. `seasons` is the one leaf lock: nothing else
//! is taken while it is held. A worker takes `workers` only to retire
//! itself, and otherwise only `registry` and `seasons`, so it can never
//! deadlock against the HTTP side.
//!
//! # Quarterly-panel mode
//!
//! [`ReleaseService::start_panel`] serves a whole [`DatasetPanel`]: each
//! season binds one quarter at creation (`SeasonCreate::quarter`). The
//! binding is the season's dataset pin, written into its manifest by the
//! write that creates it ([`AgencyStore::create_season_pinned`]); a
//! submission finds its quarter by the pin in the season's summary, and
//! the service stores nothing of its own about a season. Submissions
//! have their seed rewritten by the consistent-over-time rule
//! ([`panel_quarter_seed`]) before anything — including the cache key —
//! is computed, and `Flows` submissions tabulate the season's
//! `(q-1, q)` dataset pair (refused on quarter 0 and on single-snapshot
//! services). Level releases are keyed by their quarter's dataset
//! digest, flow releases by the pair digest, so the one public cache
//! serves every quarter without aliasing.
//!
//! # The public/confidential boundary
//!
//! The public artifact cache is checked **before** a submission is
//! resolved to a worker: a repeat identical request is answered from
//! released bits alone — zero ε, zero tabulation, no lease, no
//! confidential data. Everything else crosses into the confidential
//! side only through a season worker, whose every charge lands in the
//! season ledger and, transitively, under the agency cap.

use crate::api::{
    AuditView, BodyAudit, ReleaseStatusView, ReleaseSubmission, SeasonCreate, SeasonCreated,
    SubmitReceipt,
};
use crate::http::{Handler, HttpServer, Request, Response};
use eree_core::agency::{panel_quarter_seed, AgencyStore, BodySite, ReleaseBodies, SeasonSummary};
use eree_core::definitions::PrivacyParams;
use eree_core::engine::{ReleaseRequest, RequestKind, Snapshot, TabulationCache};
use eree_core::metrics::{MetricsRegistry, MetricsSnapshot, SeasonQueue};
use eree_core::public_cache::{ReleaseCache, ReleaseKey};
use eree_core::store::{
    dataset_digest, dataset_pair_digest, panel_digest, write_json_atomic, SeasonStore, StoreError,
};
use eree_core::truths::TruthStore;
use lodes::{Dataset, DatasetPanel};
use serde::{get_field, DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;
use tabulate::DatasetIndex;

/// Format version of the persisted release-id registry (`releases.json`).
/// Version 2: a completed record carries its body's content digest and,
/// for an admitted release, the body's index in its season, so a start
/// reads no artifact. Version 3: a record holds only what locates its
/// body — an admitted release no key, a cache hit no season and no
/// `cached` flag. A file of any other format refuses the start.
const REGISTRY_FORMAT_VERSION: u32 = 3;
/// Persistent release-id registry file under the service root.
const REGISTRY_FILE: &str = "releases.json";
/// The season → quarter bindings older builds kept beside the registry.
/// No build writes it now: a season's quarter is its dataset pin.
const LEFTOVER_QUARTERS_FILE: &str = "panel_quarters.json";

/// HTTP pool size (season workers are separate, one per season).
pub const HTTP_THREADS: usize = 4;
/// How long a season's worker waits for a submission before it retires,
/// unless [`ServiceConfig::idle_timeout`] says otherwise.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(10 * 60);

/// Service startup configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; `"127.0.0.1:0"` picks an ephemeral port.
    pub addr: String,
    /// The agency's global `(α, ε[, δ])` cap — must match an existing
    /// agency directory's cap when reopening one.
    pub cap: PrivacyParams,
    /// Retire a season's worker thread — releasing the season's on-disk
    /// write lease and the truths its tabulation cache holds — after this
    /// long without a submission. A retired season respawns
    /// transparently on its next submission.
    pub idle_timeout: Duration,
}

impl ServiceConfig {
    /// Loopback on an ephemeral port, cap `cap`, idle seasons retired
    /// after [`IDLE_TIMEOUT`]. The HTTP pool always has [`HTTP_THREADS`]
    /// threads.
    pub fn new(cap: PrivacyParams) -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            cap,
            idle_timeout: IDLE_TIMEOUT,
        }
    }
}

/// A failure starting or stopping the service.
#[derive(Debug)]
pub enum ServiceError {
    /// The agency (or one of its stores) refused.
    Store(StoreError),
    /// Binding or driving the listener failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Store(e) => write!(f, "agency store error: {e}"),
            ServiceError::Io(e) => write!(f, "service I/O error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        ServiceError::Store(e)
    }
}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

/// Where one accepted release currently stands.
#[derive(Clone)]
enum ReleaseState {
    Queued,
    /// Done: its body is stored at `site` and hashes to `digest`. A cache
    /// hit's site is its public entry.
    Complete {
        site: BodySite,
        digest: u64,
    },
    Failed {
        error: String,
    },
}

/// One release id: the season it was submitted to (empty for a cache
/// hit) and where it stands.
struct ReleaseRecord {
    season: String,
    state: ReleaseState,
}

/// A record as `releases.json` stores it: `season` and `status`, then
/// what the status needs — an admitted release's content `digest` and
/// body `index` in its season; a cache hit's `digest` and public-cache
/// `key`, and no season; a failure's `error`. A record is a cache hit
/// exactly when it carries a key.
impl Serialize for ReleaseRecord {
    fn to_value(&self) -> Value {
        let field = |name: &str, value: Value| (name.to_string(), value);
        let season = field("season", self.season.to_value());
        let status = |status: &str| field("status", status.to_value());
        Value::Map(match &self.state {
            ReleaseState::Queued => vec![season, status("queued")],
            ReleaseState::Complete {
                site: BodySite::Season { index, .. },
                digest,
            } => vec![
                season,
                status("complete"),
                field("digest", digest.to_value()),
                field("index", index.to_value()),
            ],
            ReleaseState::Complete {
                site: BodySite::Public(key),
                digest,
            } => vec![
                status("complete"),
                field("digest", digest.to_value()),
                field("key", key.to_value()),
            ],
            ReleaseState::Failed { error } => {
                vec![season, status("failed"), field("error", error.to_value())]
            }
        })
    }
}

impl Deserialize for ReleaseRecord {
    /// The writer's inverse, except that a release still queued when the
    /// file was written reads as failed: its queue was memory.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let season = v.get("season").map(String::from_value).transpose()?;
        let season = season.unwrap_or_default();
        let state = match String::from_value(get_field(v, "status")?)?.as_str() {
            "complete" => ReleaseState::Complete {
                digest: u64::from_value(get_field(v, "digest")?)?,
                site: match (v.get("index"), v.get("key")) {
                    (Some(index), None) => BodySite::Season {
                        season: season.clone(),
                        index: usize::from_value(index)?,
                    },
                    (None, Some(key)) => BodySite::Public(ReleaseKey::from_value(key)?),
                    _ => return Err(DeError::new("a complete record needs `index` or `key`")),
                },
            },
            "failed" => ReleaseState::Failed {
                error: String::from_value(get_field(v, "error")?)?,
            },
            _ => ReleaseState::Failed {
                error: "the service restarted before this queued release ran".to_string(),
            },
        };
        Ok(Self { season, state })
    }
}

/// The release-id registry: record `i` is release id `i`. Persisted whole
/// as `releases.json` after every change.
#[derive(Serialize, Deserialize)]
struct Registry {
    format: u32,
    records: Vec<ReleaseRecord>,
}

enum Job {
    /// Admit `request` and publish its body under `key`, the key its
    /// submission computed and looked up.
    Release {
        id: u64,
        request: ReleaseRequest,
        key: Box<ReleaseKey>,
    },
    Shutdown,
}

struct SeasonWorker {
    tx: mpsc::Sender<Job>,
    join: JoinHandle<()>,
    /// Jobs enqueued but not yet executed — the season's live queue
    /// depth, reported per season by `GET /metrics`.
    pending: Arc<AtomicU64>,
}

/// One quarter of the served data: the snapshot, its digest, the slot of
/// its shared tabulation index, and a truth-store handle pinned to the
/// quarter. A single-snapshot service is the one-quarter special case.
struct Quarter {
    dataset: Arc<Dataset>,
    digest: u64,
    /// Filled by the first release of any of the quarter's seasons that
    /// tabulates, on that season's worker thread.
    index: Arc<OnceLock<DatasetIndex>>,
    truths: TruthStore,
}

impl Quarter {
    fn snapshot(&self) -> Snapshot<'_> {
        Snapshot::with_digest(&self.dataset, self.digest)
    }
}

/// State shared by the HTTP pool and every season worker. Lock order:
/// `agency` → `workers` → `registry`; `seasons` is the leaf lock (see the
/// [module docs](self)).
struct Shared {
    quarters: Vec<Quarter>,
    panel: bool,
    registry_path: PathBuf,
    cache: ReleaseCache,
    bodies: ReleaseBodies,
    agency: Mutex<AgencyStore>,
    workers: Mutex<BTreeMap<String, SeasonWorker>>,
    /// One audit summary per reserved season, as it stands now.
    seasons: Mutex<BTreeMap<String, SeasonSummary>>,
    registry: Mutex<Registry>,
    /// The agency's live metrics registry (the same `Arc` every season
    /// store and engine records into), plus the service-side counters.
    /// Readable without the agency lock.
    metrics: Arc<MetricsRegistry>,
    idle_timeout: Duration,
}

/// The running multi-tenant release service. See the [module docs](self).
pub struct ReleaseService {
    shared: Arc<Shared>,
    http: HttpServer,
}

impl ReleaseService {
    /// Open (or create) the agency under `root` with `config.cap`, pin it
    /// to `dataset`, and start serving. The bound address (with the real
    /// port) is [`addr`](Self::addr).
    pub fn start(
        root: impl AsRef<Path>,
        dataset: Dataset,
        config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        let root = root.as_ref();
        let mut agency = AgencyStore::open_or_create(root, config.cap)?;
        let digest = dataset_digest(&dataset);
        agency.bind_dataset(digest)?;
        let quarters = vec![Quarter {
            dataset: Arc::new(dataset),
            digest,
            index: Arc::default(),
            truths: agency.truth_store_pinned(digest)?,
        }];
        Self::serve(root, agency, quarters, false, config)
    }

    /// Open (or create) a **quarterly-panel** agency under `root` and
    /// serve every quarter of `panel`: seasons bind a quarter at
    /// creation, level releases draw on their quarter's snapshot, and
    /// flow releases tabulate the season's `(q-1, q)` pair — all from
    /// one `MetaLedger` cap. See the [module docs](self).
    ///
    /// A `panel_quarters.json` left by an older build refuses the start,
    /// before anything is opened or written: that build's seasons that
    /// never released are bound only there, and starting would unbind
    /// them.
    pub fn start_panel(
        root: impl AsRef<Path>,
        panel: DatasetPanel,
        config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        let root = root.as_ref();
        let leftover = root.join(LEFTOVER_QUARTERS_FILE);
        if leftover.exists() {
            return Err(ServiceError::Store(StoreError::Corrupt {
                path: leftover,
                detail: "season → quarter bindings of an older build; this build binds a \
                         season by its dataset pin and reads no bindings file"
                    .to_string(),
            }));
        }
        let mut agency = AgencyStore::open_or_create_panel(root, config.cap)?;
        let digests: Vec<u64> = panel.snapshots().iter().map(dataset_digest).collect();
        agency.bind_dataset(panel_digest(&digests))?;
        let mut quarters = Vec::with_capacity(digests.len());
        for (snapshot, digest) in panel.into_snapshots().into_iter().zip(digests) {
            quarters.push(Quarter {
                dataset: Arc::new(snapshot),
                digest,
                index: Arc::default(),
                truths: agency.truth_store_pinned(digest)?,
            });
        }
        Self::serve(root, agency, quarters, true, config)
    }

    fn serve(
        root: &Path,
        agency: AgencyStore,
        quarters: Vec<Quarter>,
        panel: bool,
        config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        let cache = agency.release_cache()?;
        let registry_path = root.join(REGISTRY_FILE);
        let registry = load_registry(&registry_path)?;
        let bodies = agency.release_bodies()?;
        let metrics = agency.metrics();
        let seasons = agency
            .seasons()
            .iter()
            .map(|summary| (summary.name.clone(), summary.clone()))
            .collect();
        let shared = Arc::new(Shared {
            quarters,
            panel,
            registry_path,
            cache,
            bodies,
            agency: Mutex::new(agency),
            workers: Mutex::new(BTreeMap::new()),
            seasons: Mutex::new(seasons),
            registry: Mutex::new(registry),
            metrics,
            idle_timeout: config.idle_timeout,
        });
        let handler: Handler = {
            let shared = Arc::clone(&shared);
            Arc::new(move |request: &Request| route(&shared, request))
        };
        let http = HttpServer::serve(&config.addr, HTTP_THREADS, handler)?;
        Ok(Self { shared, http })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// ε still unreserved under the agency cap.
    pub fn remaining_epsilon(&self) -> f64 {
        self.shared
            .agency
            .lock()
            .expect("agency lock poisoned")
            .remaining_epsilon()
    }

    /// How many season workers are currently live (not retired). Exposed
    /// for tests of the idle-retirement path.
    pub fn live_workers(&self) -> usize {
        self.shared
            .workers
            .lock()
            .expect("workers lock poisoned")
            .len()
    }

    /// Stop accepting requests, drain every season's queue, persist
    /// everything, release all leases, and join every thread. Consumes
    /// the service; the agency directory is reopenable afterwards.
    pub fn shutdown(mut self) {
        self.http.shutdown();
        let workers =
            std::mem::take(&mut *self.shared.workers.lock().expect("workers lock poisoned"));
        for (_, worker) in workers {
            // Queued jobs drain first — Shutdown lands behind them.
            let _ = worker.tx.send(Job::Shutdown);
            let _ = worker.join.join();
        }
        // `self.shared` is the last Arc now (HTTP and workers joined), so
        // dropping it drops the AgencyStore and releases its lease.
    }
}

/// Route one request. Pure with respect to the HTTP layer: all state
/// lives in `shared`. Every response — every route, including unknown
/// paths — lands in exactly one HTTP status-class counter.
fn route(shared: &Arc<Shared>, request: &Request) -> Response {
    let response = route_inner(shared, request);
    let service = &shared.metrics.service;
    match response.status / 100 {
        2 => service.http_2xx.inc(),
        4 => service.http_4xx.inc(),
        _ => service.http_5xx.inc(),
    }
    response
}

fn route_inner(shared: &Arc<Shared>, request: &Request) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["seasons"]) => create_season(shared, &request.body),
        ("POST", ["seasons", name, "releases"]) => submit_release(shared, name, &request.body),
        ("POST", ["seasons", name, "close"]) => close_season(shared, name),
        ("GET", ["releases", id]) => release_status(shared, id),
        ("GET", ["audit"]) => audit(shared, request),
        ("GET", ["metrics"]) => metrics_view(shared, request),
        _ => Response::error(404, "no such route"),
    }
}

fn parse_body<T: Deserialize>(body: &str) -> Result<T, Response> {
    serde_json::from_str(body).map_err(|e| Response::error(400, &format!("invalid body: {e}")))
}

fn json_ok<T: serde::Serialize>(status: u16, value: &T) -> Response {
    Response::json(
        status,
        serde_json::to_string(value).expect("response serialization is infallible"),
    )
}

/// Map a [`StoreError`] onto the API's status vocabulary.
fn store_error(e: &StoreError) -> Response {
    let status = match e {
        StoreError::Locked { .. } => 423,
        StoreError::AlreadyExists { .. }
        | StoreError::AgencyBudget { .. }
        | StoreError::Refused { .. }
        | StoreError::SeasonClosed { .. }
        | StoreError::Inconsistent { .. } => 409,
        StoreError::NotAStore { .. } => 404,
        _ => 500,
    };
    Response::error(status, &e.to_string())
}

fn create_season(shared: &Arc<Shared>, body: &str) -> Response {
    let create: SeasonCreate = match parse_body(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    // Panel services bind every season to a quarter at creation: the
    // season is created pinned to that quarter's dataset, and the pin is
    // the binding. A single-snapshot season pins the one snapshot.
    let quarter = match (shared.panel, create.quarter) {
        (true, None) => {
            return Response::error(
                400,
                "panel services require `quarter`: which quarter this season releases",
            )
        }
        (true, Some(q)) if (q as usize) >= shared.quarters.len() => {
            return Response::error(
                400,
                &format!(
                    "quarter {q} out of range: the panel has {} quarters",
                    shared.quarters.len()
                ),
            )
        }
        (true, Some(q)) => q as usize,
        (false, Some(_)) => {
            return Response::error(
                400,
                "this service serves a single snapshot: seasons take no `quarter`",
            )
        }
        (false, None) => 0,
    };
    let digest = shared.quarters[quarter].digest;
    let mut agency = shared.agency.lock().expect("agency lock poisoned");
    match agency.create_season_pinned(&create.name, create.budget, digest) {
        // Drop the returned store immediately: its write lease must be
        // free for the season's worker to claim on first submission.
        Ok(store) => {
            set_summary(shared, SeasonSummary::of(&create.name, &store));
            drop(store);
            json_ok(
                200,
                &SeasonCreated {
                    name: create.name,
                    budget: create.budget,
                    remaining_epsilon: agency.remaining_epsilon(),
                },
            )
        }
        Err(e) => {
            // A reservation that landed before the failure is a season
            // too: the agency's summary covers it (not materialized).
            if let Some(summary) = agency.seasons().iter().find(|s| s.name == create.name) {
                let mut seasons = shared.seasons.lock().expect("seasons lock poisoned");
                seasons
                    .entry(create.name)
                    .or_insert_with(|| summary.clone());
            }
            store_error(&e)
        }
    }
}

fn submit_release(shared: &Arc<Shared>, name: &str, body: &str) -> Response {
    let submission: ReleaseSubmission = match parse_body(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    // Non-finite budgets must be refused at the boundary: the mechanism
    // constructors (correctly) treat them as programmer error and panic,
    // but over the wire they are client error.
    let budget = submission.budget;
    let budget_valid = budget.alpha.is_finite()
        && budget.alpha > 0.0
        && budget.epsilon.is_finite()
        && budget.epsilon > 0.0
        && budget.delta.is_finite()
        && budget.delta >= 0.0;
    if !budget_valid {
        return Response::error(400, "budget parameters must be finite and positive");
    }
    let is_flows = submission.kind == RequestKind::Flows;
    // Resolve the quarter (panel mode), the effective seed, and the
    // digest that keys the release: the quarter's for levels, the
    // `(q-1, q)` pair's for flows. The consistent-over-time seed rewrite
    // happens HERE, before the cache key — so level-vs-change coherence
    // and cacheability agree for every path into the pipeline.
    let (quarter, seed, key_digest) = if shared.panel {
        let pin = {
            let seasons = shared.seasons.lock().expect("seasons lock poisoned");
            seasons.get(name).and_then(|season| season.dataset_digest)
        };
        let Some(q) = pin.and_then(|pin| shared.quarters.iter().position(|q| q.digest == pin))
        else {
            return Response::error(
                404,
                &format!("no season named `{name}` bound to a quarter of this panel"),
            );
        };
        if is_flows && q == 0 {
            return Response::error(
                400,
                "flow releases need a before-quarter: the panel's base quarter has none",
            );
        }
        let digest = if is_flows {
            dataset_pair_digest(shared.quarters[q - 1].digest, shared.quarters[q].digest)
        } else {
            shared.quarters[q].digest
        };
        (q, panel_quarter_seed(submission.seed, q), digest)
    } else {
        if is_flows {
            return Response::error(
                400,
                "flow releases need a quarterly panel: this service serves a single snapshot",
            );
        }
        (0, submission.seed, shared.quarters[0].digest)
    };
    let request = submission.to_request().seed(seed);
    // Validate the rest up front: an unpriceable request 400s here and
    // never reaches a queue (or the ledger).
    let plan = match request.plan() {
        Ok(plan) => plan,
        Err(e) => return Response::error(400, &format!("invalid release request: {e}")),
    };
    // The release's full public identity — checked against the cache
    // BEFORE any worker is resolved. A hit is answered from released
    // bits alone: zero ε, zero tabulation, nothing confidential touched.
    // The worker publishes under this same key.
    let key = ReleaseKey::of(&request.provenance(&plan), key_digest)
        .expect("every release has a declarative cache identity");
    // The entry is fully verified (one parse) and its digest recorded; a
    // GET then serves its bytes checked against that digest.
    if let Some(digest) = shared.cache.verified_digest(&key) {
        let record = ReleaseRecord {
            season: String::new(),
            state: ReleaseState::Complete {
                site: BodySite::Public(key),
                digest,
            },
        };
        let id = match push_record(shared, record) {
            Ok(id) => id,
            Err(refusal) => return refusal,
        };
        shared.metrics.caches.public_hits.inc();
        return json_ok(
            200,
            &SubmitReceipt {
                id,
                status: "complete".to_string(),
                cached: true,
            },
        );
    }
    // Cache miss: the request crosses to the confidential side through
    // the season's worker queue.
    shared.metrics.caches.public_misses.inc();
    let agency = shared.agency.lock().expect("agency lock poisoned");
    if agency.meta_ledger().reservation(name).is_none() {
        return Response::error(404, &format!("no season named `{name}`"));
    }
    // A closed (or closing — the refund is already frozen) season can
    // never charge again; refuse before resolving a worker.
    if agency.meta_ledger().closure(name).is_some() {
        return store_error(&StoreError::SeasonClosed {
            name: name.to_string(),
        });
    }
    let mut workers = shared.workers.lock().expect("workers lock poisoned");
    if !workers.contains_key(name) {
        match spawn_worker(shared, &agency, name, quarter) {
            Ok(worker) => {
                workers.insert(name.to_string(), worker);
            }
            Err(e) => return store_error(&e),
        }
    }
    let worker = workers.get(name).expect("inserted just above");
    let record = ReleaseRecord {
        season: name.to_string(),
        state: ReleaseState::Queued,
    };
    let id = match push_record(shared, record) {
        Ok(id) => id,
        Err(refusal) => return refusal,
    };
    // Enqueue accounting before the send: the worker may dequeue (and
    // decrement) the instant the job lands.
    worker.pending.fetch_add(1, Ordering::Relaxed);
    shared.metrics.service.releases_enqueued.inc();
    let job = Job::Release {
        id,
        request,
        key: Box::new(key),
    };
    if worker.tx.send(job).is_err() {
        // The job never reached the queue: resolve it terminally so the
        // enqueued/executed pair stays balanced.
        worker.pending.fetch_sub(1, Ordering::Relaxed);
        shared.metrics.service.releases_executed.inc();
        set_state(
            shared,
            id,
            ReleaseState::Failed {
                error: "season worker is gone".to_string(),
            },
        );
        return Response::error(500, "season worker is gone");
    }
    json_ok(
        202,
        &SubmitReceipt {
            id,
            status: "queued".to_string(),
            cached: false,
        },
    )
}

/// `POST /seasons/{name}/close`: stop the season's worker (it owns the
/// season's write lease), then run the audited two-phase close — freeze
/// the refund in the meta-ledger, seal the season manifest, credit the
/// refund to the agency cap — and return the
/// [`ClosureReceipt`](eree_core::ClosureReceipt).
/// Idempotent: closing an already-closed season replays its recorded
/// receipt with `already_closed: true`.
fn close_season(shared: &Arc<Shared>, name: &str) -> Response {
    // Lock order: `agency` before `workers`. Holding `agency` for the
    // whole close serializes it against submissions, which spawn workers
    // under the same lock — no new worker can claim the season's lease
    // between the join below and the close itself.
    let mut agency = shared.agency.lock().expect("agency lock poisoned");
    let worker = shared
        .workers
        .lock()
        .expect("workers lock poisoned")
        .remove(name);
    if let Some(worker) = worker {
        // Queued releases drain first — Shutdown lands behind them — and
        // the join drops the worker's SeasonStore, releasing the lease
        // the close is about to claim.
        let _ = worker.tx.send(Job::Shutdown);
        let _ = worker.join.join();
    }
    match agency.close_season(name) {
        Ok(receipt) => {
            // The agency's summary is the sealed season, its spend final.
            if let Some(summary) = agency.seasons().iter().find(|s| s.name == name) {
                set_summary(shared, summary.clone());
            }
            json_ok(200, &receipt)
        }
        Err(e) => store_error(&e),
    }
}

fn release_status(shared: &Arc<Shared>, id: &str) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return Response::error(400, "release id must be an integer");
    };
    // Copy the record under the registry lock; read its body outside it.
    let (season, state) = {
        let registry = shared.registry.lock().expect("registry lock poisoned");
        let Some(record) = registry.records.get(id as usize) else {
            return Response::error(404, &format!("no release with id {id}"));
        };
        (record.season.clone(), record.state.clone())
    };
    let mut view = ReleaseStatusView {
        id,
        season,
        status: "queued".to_string(),
        cached: false,
        error: None,
        artifact: None,
    };
    let mut body = None;
    match state {
        ReleaseState::Queued => {}
        ReleaseState::Complete { site, digest } => match read_body(shared, &site, digest) {
            Ok(bytes) => {
                view.status = "complete".to_string();
                view.cached = matches!(site, BodySite::Public(_));
                body = Some(bytes);
            }
            Err(error) => {
                view.status = "failed".to_string();
                view.error = Some(error);
            }
        },
        ReleaseState::Failed { error } => {
            view.status = "failed".to_string();
            view.error = Some(error);
        }
    }
    let json = serde_json::to_string(&view).expect("response serialization is infallible");
    match body {
        Some(body) => Response::json(200, with_artifact(&json, &body)),
        None => Response::json(200, json),
    }
}

/// A completed release's body, read at `site` and checked against its
/// content digest — the one read path of GET and the deep audit. The
/// error names the failed check; a failed read changes nothing.
fn read_body(shared: &Shared, site: &BodySite, digest: u64) -> Result<String, String> {
    let bytes = shared.bodies.read(site, digest).map_err(|e| {
        format!("the released body is missing or fails its content-digest check: {e}")
    })?;
    String::from_utf8(bytes).map_err(|e| format!("the released body is not UTF-8 JSON: {e}"))
}

/// `view_json`, a serialized [`ReleaseStatusView`] whose `artifact` is
/// `null`, with `body` — an artifact's canonical JSON — as its `artifact`.
/// `artifact` is the view's last field and the JSON writer emits a nested
/// value exactly as it emits it alone, so the result is byte for byte the
/// view serialized with that artifact, without parsing or serializing it.
fn with_artifact(view_json: &str, body: &str) -> String {
    let head = view_json
        .strip_suffix("null}")
        .expect("`artifact` is the view's last field");
    [head, body, "}"].concat()
}

/// `GET /audit` (`?deep=1` adds [`BodyAudit`]).
fn audit(shared: &Arc<Shared>, request: &Request) -> Response {
    let deep = match request.query_param("deep") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Response::error(400, &format!("deep must be 0 or 1, not {other:?}")),
    };
    // A directory scan of the public cache and, when asked, a read of
    // every completed body: both done before any lock, so neither ever
    // holds up the submissions waiting on `agency`.
    let cache_entries = shared.cache.len() as u64;
    let bodies = deep.then(|| audit_bodies(shared));
    let agency = shared.agency.lock().expect("agency lock poisoned");
    let workers = shared.workers.lock().expect("workers lock poisoned");
    let releases = shared
        .registry
        .lock()
        .expect("registry lock poisoned")
        .records
        .len() as u64;
    let seasons: Vec<SeasonSummary> = {
        let seasons = shared.seasons.lock().expect("seasons lock poisoned");
        agency
            .meta_ledger()
            .reservations()
            .iter()
            .filter_map(|reservation| seasons.get(&reservation.name).cloned())
            .collect()
    };
    let metrics = snapshot_with_queues(&agency, &workers);
    let view = AuditView {
        cap: *agency.cap(),
        reserved_epsilon: agency.meta_ledger().reserved_epsilon(),
        remaining_epsilon: agency.remaining_epsilon(),
        refunded_epsilon: agency.refunded_epsilon(),
        spent_epsilon: seasons.iter().map(|s| s.spent_epsilon).sum(),
        seasons,
        releases,
        cache_entries,
        metrics,
        bodies,
    };
    json_ok(200, &view)
}

/// Read and check every completed release's body through the GET read
/// path; the registry lock is held only to copy the sites.
fn audit_bodies(shared: &Shared) -> BodyAudit {
    let completed: Vec<(u64, BodySite, u64)> = {
        let registry = shared.registry.lock().expect("registry lock poisoned");
        registry
            .records
            .iter()
            .enumerate()
            .filter_map(|(id, record)| match &record.state {
                ReleaseState::Complete { site, digest } => Some((id as u64, site.clone(), *digest)),
                _ => None,
            })
            .collect()
    };
    BodyAudit {
        checked: completed.len() as u64,
        failed: completed
            .into_iter()
            .filter(|(_, site, digest)| read_body(shared, site, *digest).is_err())
            .map(|(id, ..)| id)
            .collect(),
    }
}

/// `GET /metrics`: the agency's canonical [`MetricsSnapshot`] with the
/// budget gauges refreshed from the meta-ledger and the live per-season
/// queue depths filled in. `?format=openmetrics` selects the Prometheus
/// text exposition of the same snapshot; the default (or `format=json`)
/// is the JSON payload.
fn metrics_view(shared: &Arc<Shared>, request: &Request) -> Response {
    let snapshot = {
        let agency = shared.agency.lock().expect("agency lock poisoned");
        let workers = shared.workers.lock().expect("workers lock poisoned");
        snapshot_with_queues(&agency, &workers)
    };
    match request.query_param("format") {
        Some("openmetrics") => Response::text(
            200,
            eree_core::metrics::OPENMETRICS_CONTENT_TYPE,
            snapshot.to_openmetrics(),
        ),
        Some("json") | None => json_ok(200, &snapshot),
        Some(other) => Response::error(400, &format!("unknown metrics format {other:?}")),
    }
}

/// Take the agency snapshot and graft on the per-season queue depths
/// only the service knows. Called with both locks held, in the
/// documented `agency` → `workers` order.
fn snapshot_with_queues(
    agency: &AgencyStore,
    workers: &BTreeMap<String, SeasonWorker>,
) -> MetricsSnapshot {
    let mut snapshot = agency.metrics_snapshot();
    snapshot.service.season_queues = workers
        .iter()
        .map(|(name, worker)| SeasonQueue {
            season: name.clone(),
            depth: worker.pending.load(Ordering::Relaxed),
        })
        .collect();
    snapshot
}

/// Append a record to the registry and persist it (the core store's
/// fsynced temp + rename, whose temp files the agency's open-time sweep
/// clears), returning the new id. An id is handed out only once its
/// record is durable: when the write fails, the record is dropped and the
/// answer is a 500 naming the registry file, because a restart would
/// issue the same id again to another release.
fn push_record(shared: &Shared, record: ReleaseRecord) -> Result<u64, Response> {
    let mut registry = shared.registry.lock().expect("registry lock poisoned");
    registry.records.push(record);
    if let Err(e) = write_json_atomic(&shared.registry_path, &*registry) {
        registry.records.pop();
        let path = shared.registry_path.display();
        return Err(Response::error(
            500,
            &format!("the release was not recorded in {path}: {e}"),
        ));
    }
    Ok((registry.records.len() - 1) as u64)
}

/// Move release `id` to `state` and rewrite the registry. Best-effort: the
/// release itself is already durable in its season (or the public cache),
/// and a completion the file lost reads as failed after a restart, as a
/// release still queued at a restart does.
fn set_state(shared: &Shared, id: u64, state: ReleaseState) {
    let mut registry = shared.registry.lock().expect("registry lock poisoned");
    if let Some(record) = registry.records.get_mut(id as usize) {
        record.state = state;
        let _ = write_json_atomic(&shared.registry_path, &*registry);
    }
}

/// Replace season `summary.name`'s audit summary.
fn set_summary(shared: &Shared, summary: SeasonSummary) {
    let mut seasons = shared.seasons.lock().expect("seasons lock poisoned");
    seasons.insert(summary.name.clone(), summary);
}

/// Rehydrate the release-id registry from `releases.json`, reading no
/// artifact (see [`ReleaseRecord`]'s layout). A missing file is an empty
/// registry. A file that does not parse as this format refuses the start:
/// an empty registry would reissue id 0 and overwrite the old records, so
/// an old id would answer a different release.
fn load_registry(path: &Path) -> Result<Registry, ServiceError> {
    let json = match std::fs::read_to_string(path) {
        Ok(json) => json,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(Registry {
                format: REGISTRY_FORMAT_VERSION,
                records: Vec::new(),
            })
        }
        Err(source) => {
            return Err(ServiceError::Store(StoreError::Io {
                path: path.to_path_buf(),
                source,
            }))
        }
    };
    let refuse = |detail: String| {
        ServiceError::Store(StoreError::Corrupt {
            path: path.to_path_buf(),
            detail,
        })
    };
    // The format first, so an older layout is named as such rather than
    // as whichever field it lacks.
    let value: Value = serde_json::from_str(&json).map_err(|e| refuse(e.to_string()))?;
    let format = get_field(&value, "format")
        .and_then(u32::from_value)
        .map_err(|e| refuse(e.to_string()))?;
    if format != REGISTRY_FORMAT_VERSION {
        return Err(refuse(format!(
            "unsupported registry format {format} (this build reads {REGISTRY_FORMAT_VERSION})"
        )));
    }
    Registry::from_value(&value).map_err(|e| refuse(e.to_string()))
}

/// Open season `name` (claiming its write lease) and start its worker
/// thread. Called under the `agency` and `workers` locks.
fn spawn_worker(
    shared: &Arc<Shared>,
    agency: &AgencyStore,
    name: &str,
    quarter: usize,
) -> Result<SeasonWorker, StoreError> {
    let store = agency.open_season(name)?;
    set_summary(shared, SeasonSummary::of(name, &store));
    let q = &shared.quarters[quarter];
    let cache =
        TabulationCache::with_store(q.truths.clone()).with_shared_index(Arc::clone(&q.index));
    let (tx, rx) = mpsc::channel::<Job>();
    let pending = Arc::new(AtomicU64::new(0));
    shared.metrics.service.worker_spawns.inc();
    let ctx = WorkerCtx {
        shared: Arc::clone(shared),
        name: name.to_string(),
        quarter,
        store,
        cache,
        pending: Arc::clone(&pending),
    };
    let join = std::thread::spawn(move || season_worker(ctx, rx));
    Ok(SeasonWorker { tx, join, pending })
}

/// Everything one season worker owns: the [`SeasonStore`] (and with it
/// the season's write lease) and the tabulation cache shared with the
/// quarter.
struct WorkerCtx {
    shared: Arc<Shared>,
    name: String,
    quarter: usize,
    store: SeasonStore,
    cache: TabulationCache,
    /// Shared with the [`SeasonWorker`] handle: enqueued-but-unexecuted
    /// jobs, decremented after each release resolves.
    pending: Arc<AtomicU64>,
}

impl WorkerCtx {
    /// Admit one queued release and publish what the season recorded
    /// under `key`.
    fn run_release(&mut self, id: u64, request: ReleaseRequest, key: &ReleaseKey) {
        let quarters = &self.shared.quarters;
        let data = match self.quarter.checked_sub(1) {
            Some(before) => quarters[self.quarter]
                .snapshot()
                .after(quarters[before].snapshot()),
            None => quarters[self.quarter].snapshot(),
        };
        let state = match self.store.admit(data, &request, &mut self.cache) {
            Ok((_, body)) => {
                // Publish the body the season just stored to the
                // released-artifact cache, under the key the submission
                // looked up (`save_body` refuses a body whose provenance
                // does not reproduce it). A cache-write failure is only a
                // lost optimization, never a lost release: the registry
                // serves the season's own copy.
                let _ = self.shared.cache.save_body(key, &body);
                ReleaseState::Complete {
                    site: BodySite::Season {
                        season: self.name.clone(),
                        index: self.store.completed() - 1,
                    },
                    digest: body.digest(),
                }
            }
            Err(e) => ReleaseState::Failed {
                error: e.to_string(),
            },
        };
        set_state(&self.shared, id, state);
        set_summary(&self.shared, SeasonSummary::of(&self.name, &self.store));
    }
}

/// The per-season worker loop: owns the [`SeasonStore`] (and its lease),
/// executing queued releases strictly in order, until shutdown or until
/// the season has been quiet for the idle timeout, at which point the
/// worker retires itself, releasing the lease and its cached truths.
fn season_worker(mut ctx: WorkerCtx, rx: mpsc::Receiver<Job>) {
    loop {
        let job = match rx.recv_timeout(ctx.shared.idle_timeout) {
            Ok(job) => job,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let shared = Arc::clone(&ctx.shared);
                let mut workers = shared.workers.lock().expect("workers lock poisoned");
                // A submission can race the timeout: if one landed while
                // we were acquiring the lock, keep serving.
                match rx.try_recv() {
                    Ok(job) => {
                        drop(workers);
                        job
                    }
                    Err(_) => {
                        // Retire: still under the workers lock, so no
                        // submission can race a respawn against a held
                        // lease, drop the season store, releasing the
                        // season's write lease. Its summary stays as the
                        // last release left it.
                        workers.remove(&ctx.name);
                        drop(ctx);
                        shared.metrics.service.worker_retirements.inc();
                        return;
                    }
                }
            }
        };
        match job {
            Job::Shutdown => break,
            Job::Release { id, request, key } => {
                ctx.run_release(id, request, &key);
                ctx.pending.fetch_sub(1, Ordering::Relaxed);
                ctx.shared.metrics.service.releases_executed.inc();
            }
        }
    }
    // Shutdown and close both retire the worker; count them with the
    // idle path so spawns − retirements is always the live worker count.
    ctx.shared.metrics.service.worker_retirements.inc();
    // `ctx.store` drops here: the season's write lease is released.
}
