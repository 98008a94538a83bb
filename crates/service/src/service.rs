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
//!                 │   → ledger charge → artifact persisted            │
//!                 │   → public cache save → registry: complete        │
//!                 └───────────────────────────────────────────────────┘
//! tenant ── GET /releases/{id} ── registry ──► queued | complete | failed
//! ```
//!
//! # Concurrency model
//!
//! Every season gets exactly one **worker thread** owning its
//! [`SeasonStore`] — and with it the season's on-disk write lease — until
//! service shutdown or (with [`ServiceConfig::idle_timeout`] set) until
//! the season has gone idle, at which point the worker retires and
//! releases the lease; the next submission respawns it. Submissions to
//! one season serialize through its worker's queue (season ledgers are
//! strictly ordered objects; there is no correct concurrent charge),
//! while different seasons run fully in parallel. Workers for the same
//! quarter share one [`DatasetIndex`] (built lazily per quarter;
//! one shard per state automatically at national scale) and
//! the agency's persistent truth store, so concurrent tenants never
//! duplicate tabulation work. Every admission decision is durable before
//! it is acknowledged: a completed release is an artifact + ledger
//! snapshot on disk, and the release-id registry itself is persisted to
//! `releases.json`, so `GET /releases/{id}` survives a restart (completed
//! artifacts rehydrate from the public cache; releases that were still
//! queued report as failed).
//!
//! # Quarterly-panel mode
//!
//! [`ReleaseService::start_panel`] serves a whole [`DatasetPanel`]: each
//! season binds one quarter at creation (`SeasonCreate::quarter`,
//! persisted to `panel_quarters.json`), submissions have their seed
//! rewritten by the consistent-over-time rule
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
    AuditView, ReleaseStatusView, ReleaseSubmission, SeasonCreate, SeasonCreated, SubmitReceipt,
};
use crate::http::{Handler, HttpServer, Request, Response};
use eree_core::agency::{panel_quarter_seed, AgencyStore, SeasonSummary};
use eree_core::definitions::PrivacyParams;
use eree_core::engine::{
    ReleaseArtifact, ReleaseRequest, RequestKind, Snapshot, TabulationCache, TabulationStats,
};
use eree_core::metrics::{MetricsRegistry, MetricsSnapshot, SeasonQueue};
use eree_core::public_cache::{ReleaseCache, ReleaseKey};
use eree_core::store::{
    dataset_digest, dataset_pair_digest, panel_digest, SeasonStore, StoreError,
};
use eree_core::truths::TruthStore;
use lodes::{Dataset, DatasetPanel};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;
use tabulate::{DatasetIndex, FilterExpr};

/// Format version of the service's own persisted files (`releases.json`,
/// `panel_quarters.json`).
const SERVICE_FORMAT_VERSION: u32 = 1;
/// Persistent release-id registry file under the service root.
const REGISTRY_FILE: &str = "releases.json";
/// Persistent season → panel-quarter bindings under the service root.
const QUARTERS_FILE: &str = "panel_quarters.json";

/// Service startup configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; `"127.0.0.1:0"` picks an ephemeral port.
    pub addr: String,
    /// HTTP pool size (season workers are separate, one per season).
    pub http_threads: usize,
    /// The agency's global `(α, ε[, δ])` cap — must match an existing
    /// agency directory's cap when reopening one.
    pub cap: PrivacyParams,
    /// Retire a season's worker thread — releasing the season's on-disk
    /// write lease — after this long without a submission. `None` keeps
    /// every worker alive until shutdown. A retired season respawns
    /// transparently on its next submission.
    pub idle_timeout: Option<Duration>,
}

impl ServiceConfig {
    /// Loopback on an ephemeral port, four HTTP threads, cap `cap`, no
    /// idle-season timeout.
    pub fn new(cap: PrivacyParams) -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            http_threads: 4,
            cap,
            idle_timeout: None,
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
enum ReleaseState {
    Queued,
    Complete {
        artifact: Arc<ReleaseArtifact>,
        cached: bool,
    },
    Failed {
        error: String,
    },
}

struct ReleaseRecord {
    season: String,
    /// The release's full public identity, known at admission (every
    /// service release is declarative). Used to rehydrate completed
    /// artifacts from the public cache after a restart.
    key: Option<ReleaseKey>,
    state: ReleaseState,
}

/// One record of the persisted registry (`releases.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PersistedRecord {
    season: String,
    status: String,
    cached: bool,
    error: Option<String>,
    key: Option<ReleaseKey>,
}

/// The persisted registry file.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RegistryFile {
    format: u32,
    records: Vec<PersistedRecord>,
}

/// One season → quarter binding of a panel service.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct QuarterBinding {
    season: String,
    quarter: u64,
}

/// The persisted season → quarter bindings (`panel_quarters.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct QuartersFile {
    format: u32,
    bindings: Vec<QuarterBinding>,
}

enum Job {
    Release { id: u64, request: ReleaseRequest },
    Shutdown,
}

struct SeasonWorker {
    tx: mpsc::Sender<Job>,
    join: JoinHandle<()>,
    /// The season's live audit summary, maintained by its worker.
    view: Arc<Mutex<SeasonSummary>>,
    /// Jobs enqueued but not yet executed — the season's live queue
    /// depth, reported per season by `GET /metrics`.
    pending: Arc<AtomicU64>,
}

/// One quarter of the served data: the snapshot, its digest, a lazily
/// built shared tabulation index, and a truth-store handle pinned to the
/// quarter. A single-snapshot service is the one-quarter special case.
struct Quarter {
    dataset: Arc<Dataset>,
    digest: u64,
    index: OnceLock<DatasetIndex>,
    truths: TruthStore,
}

impl Quarter {
    fn index(&self) -> DatasetIndex {
        self.index
            .get_or_init(|| DatasetIndex::build_auto(&self.dataset))
            .clone()
    }

    fn snapshot(&self) -> Snapshot<'_> {
        Snapshot::with_digest(&self.dataset, self.digest)
    }
}

/// State shared by the HTTP pool and every season worker.
///
/// Lock order (where multiple are held): `agency` → `workers` →
/// `retired` → `registry` → a season `view`; `quarter_map` is only ever
/// held alone or directly under `agency`. Workers take `workers` only to
/// retire themselves (then `retired`), and otherwise only `registry` and
/// their own `view`, so they can never deadlock against the HTTP side.
struct Shared {
    quarters: Vec<Quarter>,
    panel: bool,
    quarter_map: Mutex<BTreeMap<String, usize>>,
    quarters_path: PathBuf,
    registry_path: PathBuf,
    cache: ReleaseCache,
    agency: Mutex<AgencyStore>,
    workers: Mutex<BTreeMap<String, SeasonWorker>>,
    /// Final audit summaries of seasons whose idle workers retired, so
    /// the audit view stays exact between retirement and respawn.
    retired: Mutex<BTreeMap<String, SeasonSummary>>,
    registry: Mutex<Vec<ReleaseRecord>>,
    /// The agency's live metrics registry (the same `Arc` every season
    /// store and engine records into), plus the service-side counters.
    /// Readable without the agency lock.
    metrics: Arc<MetricsRegistry>,
    idle_timeout: Option<Duration>,
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
            index: OnceLock::new(),
            truths: agency.truth_store_pinned(digest)?,
        }];
        Self::serve(root, agency, quarters, false, config)
    }

    /// Open (or create) a **quarterly-panel** agency under `root` and
    /// serve every quarter of `panel`: seasons bind a quarter at
    /// creation, level releases draw on their quarter's snapshot, and
    /// flow releases tabulate the season's `(q-1, q)` pair — all from
    /// one `MetaLedger` cap. See the [module docs](self).
    pub fn start_panel(
        root: impl AsRef<Path>,
        panel: DatasetPanel,
        config: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        let root = root.as_ref();
        let mut agency = AgencyStore::open_or_create_panel(root, config.cap)?;
        let digests: Vec<u64> = panel.snapshots().iter().map(dataset_digest).collect();
        agency.bind_dataset(panel_digest(&digests))?;
        let mut quarters = Vec::with_capacity(panel.quarters());
        for (snapshot, &digest) in panel.snapshots().iter().zip(&digests) {
            quarters.push(Quarter {
                dataset: Arc::new(snapshot.clone()),
                digest,
                index: OnceLock::new(),
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
        let quarters_path = root.join(QUARTERS_FILE);
        let quarter_map = if panel {
            load_quarter_map(&quarters_path, quarters.len())?
        } else {
            BTreeMap::new()
        };
        let registry_path = root.join(REGISTRY_FILE);
        let registry = load_registry(&registry_path, &cache);
        let metrics = agency.metrics();
        let shared = Arc::new(Shared {
            quarters,
            panel,
            quarter_map: Mutex::new(quarter_map),
            quarters_path,
            registry_path,
            cache,
            agency: Mutex::new(agency),
            workers: Mutex::new(BTreeMap::new()),
            retired: Mutex::new(BTreeMap::new()),
            registry: Mutex::new(registry),
            metrics,
            idle_timeout: config.idle_timeout,
        });
        let handler: Handler = {
            let shared = Arc::clone(&shared);
            Arc::new(move |request: &Request| route(&shared, request))
        };
        let http = HttpServer::serve(&config.addr, config.http_threads, handler)?;
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
        ("GET", ["audit"]) => audit(shared),
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
    // Panel services bind every season to a quarter at creation; the
    // binding is part of the season's identity and persists.
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
        (true, Some(q)) => Some(q as usize),
        (false, Some(_)) => {
            return Response::error(
                400,
                "this service serves a single snapshot: seasons take no `quarter`",
            )
        }
        (false, None) => None,
    };
    let mut agency = shared.agency.lock().expect("agency lock poisoned");
    match agency.create_season(&create.name, create.budget) {
        // Drop the returned store immediately: its write lease must be
        // free for the season's worker to claim on first submission.
        Ok(store) => {
            drop(store);
            if let Some(q) = quarter {
                let mut map = shared.quarter_map.lock().expect("quarter map poisoned");
                map.insert(create.name.clone(), q);
                persist_quarter_map(shared, &map);
            }
            json_ok(
                200,
                &SeasonCreated {
                    name: create.name,
                    budget: create.budget,
                    remaining_epsilon: agency.remaining_epsilon(),
                },
            )
        }
        Err(e) => store_error(&e),
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
        let bound = {
            let map = shared.quarter_map.lock().expect("quarter map poisoned");
            map.get(name).copied()
        };
        let Some(q) = bound else {
            return Response::error(
                404,
                &format!("no season named `{name}` bound to a panel quarter"),
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
    if let Err(e) = request.plan() {
        return Response::error(400, &format!("invalid release request: {e}"));
    }
    // The release's full public identity — checked against the cache
    // BEFORE any worker is resolved. A hit is answered from released
    // bits alone: zero ε, zero tabulation, nothing confidential touched.
    let key = ReleaseKey {
        dataset_digest: key_digest,
        kind: submission.kind,
        spec: submission.spec.clone(),
        mechanism: submission.mechanism,
        budget: submission.budget,
        budget_is_per_cell: submission.budget_is_per_cell,
        filter: submission.filter.as_ref().map(FilterExpr::normalized),
        integerized: submission.integerize,
        seed,
    };
    if let Some(artifact) = shared.cache.load(&key) {
        shared.metrics.caches.public_hits.inc();
        let id = push_record(
            shared,
            ReleaseRecord {
                season: String::new(),
                key: Some(key),
                state: ReleaseState::Complete {
                    artifact: Arc::new(artifact),
                    cached: true,
                },
            },
        );
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
    let id = push_record(
        shared,
        ReleaseRecord {
            season: name.to_string(),
            key: Some(key),
            state: ReleaseState::Queued,
        },
    );
    // Enqueue accounting before the send: the worker may dequeue (and
    // decrement) the instant the job lands.
    worker.pending.fetch_add(1, Ordering::Relaxed);
    shared.metrics.service.releases_enqueued.inc();
    if worker.tx.send(Job::Release { id, request }).is_err() {
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
            // Leave the sealed summary as the season's retired view so
            // the audit reports it closed with its spend final.
            if let Some(summary) = agency.seasons().iter().find(|s| s.name == name).cloned() {
                shared
                    .retired
                    .lock()
                    .expect("retired views poisoned")
                    .insert(name.to_string(), summary);
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
    let registry = shared.registry.lock().expect("registry lock poisoned");
    let Some(record) = registry.get(id as usize) else {
        return Response::error(404, &format!("no release with id {id}"));
    };
    let view = match &record.state {
        ReleaseState::Queued => ReleaseStatusView {
            id,
            season: record.season.clone(),
            status: "queued".to_string(),
            cached: false,
            error: None,
            artifact: None,
        },
        ReleaseState::Complete { artifact, cached } => ReleaseStatusView {
            id,
            season: record.season.clone(),
            status: "complete".to_string(),
            cached: *cached,
            error: None,
            artifact: Some(artifact.as_ref().clone()),
        },
        ReleaseState::Failed { error } => ReleaseStatusView {
            id,
            season: record.season.clone(),
            status: "failed".to_string(),
            cached: false,
            error: Some(error.clone()),
            artifact: None,
        },
    };
    json_ok(200, &view)
}

fn audit(shared: &Arc<Shared>) -> Response {
    let agency = shared.agency.lock().expect("agency lock poisoned");
    let workers = shared.workers.lock().expect("workers lock poisoned");
    let retired = shared.retired.lock().expect("retired views poisoned");
    let mut seasons = Vec::new();
    for reservation in agency.meta_ledger().reservations() {
        match workers.get(&reservation.name) {
            // A live worker's view is fresher than the agency's (the
            // worker owns the season store; the agency read it at open).
            Some(worker) => {
                seasons.push(worker.view.lock().expect("season view poisoned").clone());
            }
            // A retired worker left its final summary behind. The
            // meta-ledger stays authoritative for closure: a worker that
            // retired while a close raced in may have recorded a
            // pre-close view.
            None => match retired.get(&reservation.name) {
                Some(summary) => {
                    let mut summary = summary.clone();
                    summary.closed = summary.closed
                        || agency
                            .meta_ledger()
                            .closure(&reservation.name)
                            .is_some_and(|c| c.sealed);
                    seasons.push(summary);
                }
                None => seasons.push(
                    agency
                        .seasons()
                        .iter()
                        .find(|s| s.name == reservation.name)
                        .cloned()
                        .unwrap_or(SeasonSummary {
                            name: reservation.name.clone(),
                            budget: reservation.budget,
                            spent_epsilon: 0.0,
                            spent_delta: 0.0,
                            completed: 0,
                            materialized: false,
                            closed: false,
                        }),
                ),
            },
        }
    }
    let releases = shared
        .registry
        .lock()
        .expect("registry lock poisoned")
        .len() as u64;
    let metrics = snapshot_with_queues(&agency, &workers);
    // The counters come from the registry every worker records into, so
    // they stay cumulative when a worker retires.
    let caches = &metrics.caches;
    let tabulations = TabulationStats {
        computed: caches.truth_computed,
        hits: caches.truth_memory_hits,
        disk_hits: caches.truth_disk_hits,
    };
    let cache_hits = caches.public_hits;
    let view = AuditView {
        cap: *agency.cap(),
        reserved_epsilon: agency.meta_ledger().reserved_epsilon(),
        remaining_epsilon: agency.remaining_epsilon(),
        refunded_epsilon: agency.refunded_epsilon(),
        spent_epsilon: seasons.iter().map(|s| s.spent_epsilon).sum(),
        seasons,
        releases,
        cache_hits,
        cache_entries: shared.cache.len() as u64,
        tabulations,
        metrics,
    };
    json_ok(200, &view)
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

/// Append a record to the registry and persist it. Returns the new id.
fn push_record(shared: &Shared, record: ReleaseRecord) -> u64 {
    let mut registry = shared.registry.lock().expect("registry lock poisoned");
    registry.push(record);
    persist_registry(shared, &registry);
    (registry.len() - 1) as u64
}

fn set_state(shared: &Shared, id: u64, state: ReleaseState) {
    let mut registry = shared.registry.lock().expect("registry lock poisoned");
    if let Some(record) = registry.get_mut(id as usize) {
        record.state = state;
        persist_registry(shared, &registry);
    }
}

/// Rewrite the persistent registry under the registry lock. Best-effort:
/// a failed write loses only restart visibility, never a release (every
/// admission is already durable in the season store and public cache).
fn persist_registry(shared: &Shared, registry: &[ReleaseRecord]) {
    let file = RegistryFile {
        format: SERVICE_FORMAT_VERSION,
        records: registry
            .iter()
            .map(|r| PersistedRecord {
                season: r.season.clone(),
                status: match &r.state {
                    ReleaseState::Queued => "queued",
                    ReleaseState::Complete { .. } => "complete",
                    ReleaseState::Failed { .. } => "failed",
                }
                .to_string(),
                cached: matches!(&r.state, ReleaseState::Complete { cached: true, .. }),
                error: match &r.state {
                    ReleaseState::Failed { error } => Some(error.clone()),
                    _ => None,
                },
                key: r.key.clone(),
            })
            .collect(),
    };
    let _ = write_json_file(&shared.registry_path, &file);
}

/// Rehydrate the release-id registry from `releases.json`: completed
/// releases reload their artifacts from the public cache (every service
/// release is declarative, so the key always exists); releases that were
/// still queued at the crash report as failed — their queue was memory.
fn load_registry(path: &Path, cache: &ReleaseCache) -> Vec<ReleaseRecord> {
    let Ok(json) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(file) = serde_json::from_str::<RegistryFile>(&json) else {
        return Vec::new();
    };
    if file.format != SERVICE_FORMAT_VERSION {
        return Vec::new();
    }
    file.records
        .into_iter()
        .map(|r| {
            let state = match r.status.as_str() {
                "complete" => match r.key.as_ref().and_then(|k| cache.load(k)) {
                    Some(artifact) => ReleaseState::Complete {
                        artifact: Arc::new(artifact),
                        cached: r.cached,
                    },
                    None => ReleaseState::Failed {
                        error: "released artifact is no longer in the public cache".to_string(),
                    },
                },
                "failed" => ReleaseState::Failed {
                    error: r.error.unwrap_or_else(|| "unrecorded failure".to_string()),
                },
                _ => ReleaseState::Failed {
                    error: "the service restarted before this queued release ran".to_string(),
                },
            };
            ReleaseRecord {
                season: r.season,
                key: r.key,
                state,
            }
        })
        .collect()
}

/// Persist the season → quarter bindings under the quarter-map lock.
fn persist_quarter_map(shared: &Shared, map: &BTreeMap<String, usize>) {
    let file = QuartersFile {
        format: SERVICE_FORMAT_VERSION,
        bindings: map
            .iter()
            .map(|(season, &quarter)| QuarterBinding {
                season: season.clone(),
                quarter: quarter as u64,
            })
            .collect(),
    };
    let _ = write_json_file(&shared.quarters_path, &file);
}

/// Load the season → quarter bindings, refusing out-of-range quarters
/// (the panel shrank, or the file belongs to a different panel).
fn load_quarter_map(path: &Path, quarters: usize) -> Result<BTreeMap<String, usize>, ServiceError> {
    let json = match std::fs::read_to_string(path) {
        Ok(json) => json,
        Err(_) => return Ok(BTreeMap::new()),
    };
    let file: QuartersFile = serde_json::from_str(&json).map_err(|e| {
        ServiceError::Store(StoreError::Inconsistent {
            detail: format!(
                "unreadable panel season bindings at {}: {e}",
                path.display()
            ),
        })
    })?;
    if file.format != SERVICE_FORMAT_VERSION {
        return Err(ServiceError::Store(StoreError::Inconsistent {
            detail: format!("panel season bindings have format {}", file.format),
        }));
    }
    let mut map = BTreeMap::new();
    for binding in file.bindings {
        if binding.quarter as usize >= quarters {
            return Err(ServiceError::Store(StoreError::Inconsistent {
                detail: format!(
                    "season `{}` is bound to quarter {} but the panel has {} quarters",
                    binding.season, binding.quarter, quarters
                ),
            }));
        }
        map.insert(binding.season, binding.quarter as usize);
    }
    Ok(map)
}

/// Durable JSON persistence for the service's own registries: the core
/// store's fsynced write-temp-then-rename, whose temp naming the agency's
/// open-time sweep recognizes — a crashed service leaves no stray temp
/// files the next open cannot clean up.
fn write_json_file<T: serde::Serialize>(path: &Path, value: &T) -> Result<(), StoreError> {
    eree_core::store::write_json_atomic(path, value)
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
    // A panel season that has already run is pinned to its quarter's
    // snapshot; a binding that disagrees (edited bindings file, wrong
    // panel) must be refused before the worker charges anything.
    if let Some(pinned) = store.dataset_digest() {
        if shared.panel && pinned != shared.quarters[quarter].digest {
            return Err(StoreError::Inconsistent {
                detail: format!(
                    "season `{name}` is pinned to a snapshot other than its bound quarter \
                     {quarter}"
                ),
            });
        }
    }
    let view = Arc::new(Mutex::new(SeasonSummary {
        name: name.to_string(),
        budget: *store.ledger().budget(),
        spent_epsilon: store.ledger().spent_epsilon(),
        spent_delta: store.ledger().spent_delta(),
        completed: store.completed(),
        materialized: true,
        closed: store.is_closed(),
    }));
    // The worker replaces any retired-state summary for this season.
    shared
        .retired
        .lock()
        .expect("retired views poisoned")
        .remove(name);
    let q = &shared.quarters[quarter];
    let cache = TabulationCache::with_store(q.truths.clone()).with_shared_index(q.index());
    let (tx, rx) = mpsc::channel::<Job>();
    let pending = Arc::new(AtomicU64::new(0));
    shared.metrics.service.worker_spawns.inc();
    let ctx = WorkerCtx {
        shared: Arc::clone(shared),
        name: name.to_string(),
        quarter,
        store,
        cache,
        view: Arc::clone(&view),
        pending: Arc::clone(&pending),
    };
    let join = std::thread::spawn(move || season_worker(ctx, rx));
    Ok(SeasonWorker {
        tx,
        join,
        view,
        pending,
    })
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
    view: Arc<Mutex<SeasonSummary>>,
    /// Shared with the [`SeasonWorker`] handle: enqueued-but-unexecuted
    /// jobs, decremented after each release resolves.
    pending: Arc<AtomicU64>,
}

impl WorkerCtx {
    /// Admit one queued release and publish what the season recorded.
    fn run_release(&mut self, id: u64, request: ReleaseRequest) {
        let quarters = &self.shared.quarters;
        let data = match self.quarter.checked_sub(1) {
            Some(before) => quarters[self.quarter]
                .snapshot()
                .after(quarters[before].snapshot()),
            None => quarters[self.quarter].snapshot(),
        };
        let state = match self.store.admit(data, &request, &mut self.cache) {
            Ok(artifact) => {
                // Publish to the released-artifact cache under the digest
                // that keys this release: the pair digest for flows, the
                // quarter's otherwise. A cache-write failure is only a
                // lost optimization, never a lost release.
                let digest = if artifact.request.kind == RequestKind::Flows {
                    data.pair_digest()
                } else {
                    Some(data.digest())
                };
                if let Some(key) = digest.and_then(|d| ReleaseKey::of(&artifact.request, d)) {
                    let _ = self.shared.cache.save(&key, &artifact);
                }
                ReleaseState::Complete {
                    artifact: Arc::new(artifact),
                    cached: false,
                }
            }
            Err(e) => ReleaseState::Failed {
                error: e.to_string(),
            },
        };
        set_state(&self.shared, id, state);
        let mut v = self.view.lock().expect("season view poisoned");
        v.spent_epsilon = self.store.ledger().spent_epsilon();
        v.spent_delta = self.store.ledger().spent_delta();
        v.completed = self.store.completed();
    }
}

/// The per-season worker loop: owns the [`SeasonStore`] (and its lease),
/// executing queued releases strictly in order, until shutdown — or,
/// with an idle timeout configured, until the season goes quiet, at
/// which point the worker retires itself and releases the lease.
fn season_worker(mut ctx: WorkerCtx, rx: mpsc::Receiver<Job>) {
    let idle = ctx.shared.idle_timeout;
    loop {
        let job = match idle {
            None => match rx.recv() {
                Ok(job) => job,
                Err(_) => break,
            },
            Some(timeout) => match rx.recv_timeout(timeout) {
                Ok(job) => job,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    let shared = Arc::clone(&ctx.shared);
                    let mut workers = shared.workers.lock().expect("workers lock poisoned");
                    // A submission can race the timeout: if one landed
                    // while we were acquiring the lock, keep serving.
                    match rx.try_recv() {
                        Ok(job) => {
                            drop(workers);
                            job
                        }
                        Err(_) => {
                            // Retire. Leave the final audit summary
                            // behind, then — still under the workers
                            // lock, so no submission can race a respawn
                            // against a held lease — drop the season
                            // store, releasing the season's write lease.
                            let summary = ctx.view.lock().expect("season view poisoned").clone();
                            shared
                                .retired
                                .lock()
                                .expect("retired views poisoned")
                                .insert(ctx.name.clone(), summary);
                            workers.remove(&ctx.name);
                            drop(ctx);
                            shared.metrics.service.worker_retirements.inc();
                            return;
                        }
                    }
                }
            },
        };
        match job {
            Job::Shutdown => break,
            Job::Release { id, request } => {
                ctx.run_release(id, request);
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
