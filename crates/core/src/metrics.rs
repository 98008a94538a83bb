//! Structured metrics: a dependency-light registry of counters, gauges,
//! and fixed-bucket latency histograms, with serde-serializable snapshot
//! types.
//!
//! The registry answers the operator question of how much of the scarce
//! resource — the agency's ε cap — has been spent, refused, refunded,
//! and cached away, *live*, without replaying ledgers by hand. Three
//! layers feed one [`MetricsRegistry`]:
//!
//! * the [`ReleaseEngine`](crate::engine::ReleaseEngine) records
//!   admissions, denials (by [`LedgerError`] reason), per-family ε/δ
//!   spend, execution latency, and tabulation-cache sources;
//! * the [`AgencyStore`](crate::agency::AgencyStore) owns the registry
//!   and keeps the budget gauges reconciled against its
//!   [`MetaLedger`](crate::accountant::MetaLedger);
//! * the service layer (`eree_service`) adds HTTP status classes, worker
//!   lifecycle, queue depth, and public-cache hit counters, and exposes
//!   the whole snapshot over `GET /metrics`.
//!
//! # Hot-path cost
//!
//! Every mutation is a relaxed atomic increment (or one CAS for the f64
//! gauges) — no locks, no allocation. Snapshots allocate; take them off
//! the hot path.
//!
//! # Crash-exactness contract
//!
//! `accepted_total`, per-family ε/δ spend, and the budget gauges are
//! recomputed from durable, replay-verified state (persisted releases and
//! ledgers) every time an agency opens, so they are *exact* across any
//! crash; the chaos sweep asserts this at every syscall boundary. Every
//! other value counts from the registry's creation and lives only as
//! long as the process: [`MetricsSnapshot::created`] marks that start,
//! and the OpenMetrics exposition repeats it as each counter's
//! `_created` sample, so a scraper sees the reset.
//!
//! The family latency histogram times the whole
//! [`execute`](crate::engine::ReleaseEngine::execute) call of an
//! admitted release (validate, get the truth, charge, sample). Every
//! release is admitted through that call, a batch's
//! [`execute_all`](crate::engine::ReleaseEngine::execute_all) included,
//! so each admitted release adds exactly one observation.

use crate::accountant::LedgerError;
use crate::engine::RequestKind;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Format tag of the serialized [`MetricsSnapshot`].
pub const SNAPSHOT_FORMAT: u32 = 2;

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// A monotonic event counter: relaxed atomic increments, lock-free reads.
///
/// [`Counter::set`] exists for replay reconciliation only —
/// instrumentation sites must only ever [`inc`](Counter::inc) or
/// [`add`](Counter::add).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Count one event.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrite the count (replay reconciliation on open).
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }
}

/// An `f64` gauge stored as bits in an `AtomicU64`: lock-free set/read,
/// one CAS loop for accumulating adds (cold paths only — once per
/// admitted release, not per cell).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at `0.0`.
    pub const fn new() -> Self {
        // 0u64 is the bit pattern of +0.0, so Default and new agree.
        Self(AtomicU64::new(0))
    }

    /// Overwrite the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Accumulate `delta` into the gauge.
    pub fn add(&self, delta: f64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }
}

/// Upper bounds (µs, inclusive) of the finite latency buckets; a ninth
/// overflow bucket catches everything slower. Chosen to straddle the
/// real spread: a cache-served release is tens of µs, a small tabulation
/// hundreds, a national-scale marginal tens of ms, a cold panel flow
/// release can reach seconds.
pub const LATENCY_BUCKETS_US: [u64; 8] = [
    100, 500, 2_500, 10_000, 50_000, 250_000, 1_000_000, 5_000_000,
];

/// A fixed-bucket latency histogram (non-cumulative per-bucket counts
/// plus total count and sum), mutation-cost one relaxed increment each
/// on two counters.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    /// One counter per [`LATENCY_BUCKETS_US`] bound, plus overflow.
    buckets: [Counter; LATENCY_BUCKETS_US.len() + 1],
    count: Counter,
    sum_micros: Counter,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation of `micros` µs.
    pub fn observe_micros(&self, micros: u64) {
        let slot = LATENCY_BUCKETS_US
            .iter()
            .position(|&le| micros <= le)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.buckets[slot].inc();
        self.count.inc();
        self.sum_micros.add(micros);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// A serializable copy of the current state.
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            count: self.count.get(),
            sum_micros: self.sum_micros.get(),
            le_micros: LATENCY_BUCKETS_US.to_vec(),
            counts: self.buckets.iter().map(Counter::get).collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Denial reasons
// ---------------------------------------------------------------------------

/// The denial-reason vocabulary: one slug per [`LedgerError`] variant,
/// plus [`REASON_REQUEST_INVALID`] for refusals that never reached the
/// ledger (spec validation, flow-kind mismatch, …).
pub const DENY_REASONS: [&str; 11] = [
    "epsilon_exhausted",
    "delta_exhausted",
    "alpha_mismatch",
    "invalid_charge",
    "duplicate_reservation",
    "unknown_season",
    "duplicate_closure",
    "refund_exceeds_reservation",
    "no_pending_closure",
    "credit_exceeds_spent",
    REASON_REQUEST_INVALID,
];

/// The denial reason recorded for refusals that never reached the ledger.
pub const REASON_REQUEST_INVALID: &str = "request_invalid";

fn reason_slot(reason: &str) -> usize {
    DENY_REASONS
        .iter()
        .position(|&r| r == reason)
        .unwrap_or(DENY_REASONS.len() - 1)
}

impl LedgerError {
    /// The stable metrics slug for this denial reason (an entry of
    /// [`DENY_REASONS`]).
    pub fn metric_reason(&self) -> &'static str {
        match self {
            LedgerError::EpsilonExhausted { .. } => "epsilon_exhausted",
            LedgerError::DeltaExhausted { .. } => "delta_exhausted",
            LedgerError::AlphaMismatch { .. } => "alpha_mismatch",
            LedgerError::InvalidCharge { .. } => "invalid_charge",
            LedgerError::DuplicateReservation { .. } => "duplicate_reservation",
            LedgerError::UnknownSeason { .. } => "unknown_season",
            LedgerError::DuplicateClosure { .. } => "duplicate_closure",
            LedgerError::RefundExceedsReservation { .. } => "refund_exceeds_reservation",
            LedgerError::NoPendingClosure { .. } => "no_pending_closure",
            LedgerError::CreditExceedsSpent { .. } => "credit_exceeds_spent",
        }
    }
}

// ---------------------------------------------------------------------------
// Families and the registry
// ---------------------------------------------------------------------------

/// Family labels, indexed consistently with
/// [`MetricsRegistry::family`]'s internal layout.
pub const FAMILY_LABELS: [&str; 3] = ["marginal", "shapes", "flows"];

fn family_index(kind: RequestKind) -> usize {
    match kind {
        RequestKind::Marginal => 0,
        RequestKind::Shapes => 1,
        RequestKind::Flows => 2,
    }
}

/// Live counters for one release family (a [`RequestKind`]).
#[derive(Debug, Default)]
pub struct FamilyMetrics {
    /// Releases admitted (the ledger accepted the charge).
    pub accepted_total: Counter,
    /// Releases refused (by the ledger or by request validation).
    pub denied_total: Counter,
    /// ε actually charged by this family's admitted releases.
    pub epsilon_spent: Gauge,
    /// δ actually charged by this family's admitted releases.
    pub delta_spent: Gauge,
    /// Wall time of each admitted release's whole
    /// [`execute`](crate::engine::ReleaseEngine::execute) call.
    pub latency: LatencyHistogram,
    denied_by_reason: [Counter; DENY_REASONS.len()],
}

impl FamilyMetrics {
    /// Record an admitted release charging `(epsilon, delta)`.
    pub fn record_accepted(&self, epsilon: f64, delta: f64) {
        self.accepted_total.inc();
        self.epsilon_spent.add(epsilon);
        self.delta_spent.add(delta);
    }

    /// Record a denial under `reason` (see [`DENY_REASONS`]; unknown
    /// reasons fold into [`REASON_REQUEST_INVALID`]).
    pub fn record_denied(&self, reason: &str) {
        self.denied_total.inc();
        self.denied_by_reason[reason_slot(reason)].inc();
    }

    fn snapshot(&self, family: &str, epsilon_remaining: f64) -> FamilySnapshot {
        FamilySnapshot {
            family: family.to_string(),
            accepted_total: self.accepted_total.get(),
            denied_total: self.denied_total.get(),
            denied_by_reason: DENY_REASONS
                .iter()
                .zip(&self.denied_by_reason)
                .filter(|(_, counter)| counter.get() > 0)
                .map(|(&reason, counter)| ReasonCount {
                    reason: reason.to_string(),
                    denied: counter.get(),
                })
                .collect(),
            epsilon_spent: self.epsilon_spent.get(),
            delta_spent: self.delta_spent.get(),
            epsilon_remaining,
            latency: self.latency.snapshot(),
        }
    }
}

/// Cache-effectiveness counters across the truth store, the in-memory
/// tabulation cache, and the public released-artifact cache.
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Tabulations served from the in-memory cache.
    pub truth_memory_hits: Counter,
    /// Tabulations served from the persistent truth store.
    pub truth_disk_hits: Counter,
    /// Tabulations actually computed (full dataset scans).
    pub truth_computed: Counter,
    /// Truth files found corrupt on load and queued for recomputation.
    pub truth_self_heals: Counter,
    /// Submissions answered from the public artifact cache (zero ε).
    pub public_hits: Counter,
    /// Submissions that missed the public artifact cache.
    pub public_misses: Counter,
    /// Public cache entries found corrupt on load and discarded.
    pub public_self_heals: Counter,
}

/// Service-layer counters (HTTP frontend, season workers, queues).
#[derive(Debug, Default)]
pub struct ServiceCounters {
    /// Responses with a 2xx status.
    pub http_2xx: Counter,
    /// Responses with a 4xx status.
    pub http_4xx: Counter,
    /// Responses with a 5xx status.
    pub http_5xx: Counter,
    /// Season worker threads spawned.
    pub worker_spawns: Counter,
    /// Season worker threads retired idle (lease released).
    pub worker_retirements: Counter,
    /// Releases enqueued to a season worker.
    pub releases_enqueued: Counter,
    /// Releases a season worker finished executing (either outcome).
    pub releases_executed: Counter,
}

/// The process-wide metrics registry for one agency: family counters,
/// budget gauges, cache and service counters. Shared by `Arc` between
/// the agency store, its engines, and the service frontend.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Agency ε cap (the meta-ledger's global budget).
    pub epsilon_cap: Gauge,
    /// ε reserved by season budgets (net of refunds).
    pub epsilon_reserved: Gauge,
    /// ε remaining unreserved under the cap.
    pub epsilon_remaining: Gauge,
    /// ε refunded by audited season closures.
    pub epsilon_refunded: Gauge,
    /// Cache-effectiveness counters.
    pub caches: CacheCounters,
    /// Service-layer counters.
    pub service: ServiceCounters,
    families: [FamilyMetrics; FAMILY_LABELS.len()],
    /// When this registry was created, in seconds since the Unix epoch:
    /// the start of every count that is not rebuilt from the ledgers.
    created: f64,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry, stamped with the current time.
    pub fn new() -> Self {
        Self {
            epsilon_cap: Gauge::new(),
            epsilon_reserved: Gauge::new(),
            epsilon_remaining: Gauge::new(),
            epsilon_refunded: Gauge::new(),
            caches: CacheCounters::default(),
            service: ServiceCounters::default(),
            families: Default::default(),
            created: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0.0, |since| since.as_secs_f64()),
        }
    }

    /// The live counters for `kind`'s family.
    pub fn family(&self, kind: RequestKind) -> &FamilyMetrics {
        &self.families[family_index(kind)]
    }

    /// Total ε actually charged, summed over families in label order.
    pub fn epsilon_spent(&self) -> f64 {
        self.families.iter().map(|f| f.epsilon_spent.get()).sum()
    }

    /// A serializable copy of the whole registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let epsilon_remaining = self.epsilon_remaining.get();
        let enqueued = self.service.releases_enqueued.get();
        let executed = self.service.releases_executed.get();
        MetricsSnapshot {
            format: SNAPSHOT_FORMAT,
            epsilon_cap: self.epsilon_cap.get(),
            epsilon_reserved: self.epsilon_reserved.get(),
            epsilon_spent: self.epsilon_spent(),
            epsilon_remaining,
            epsilon_refunded: self.epsilon_refunded.get(),
            families: FAMILY_LABELS
                .iter()
                .zip(&self.families)
                .map(|(&label, family)| family.snapshot(label, epsilon_remaining))
                .collect(),
            caches: CacheSnapshot {
                truth_memory_hits: self.caches.truth_memory_hits.get(),
                truth_disk_hits: self.caches.truth_disk_hits.get(),
                truth_computed: self.caches.truth_computed.get(),
                truth_self_heals: self.caches.truth_self_heals.get(),
                public_hits: self.caches.public_hits.get(),
                public_misses: self.caches.public_misses.get(),
                public_self_heals: self.caches.public_self_heals.get(),
            },
            service: ServiceSnapshot {
                http_2xx: self.service.http_2xx.get(),
                http_4xx: self.service.http_4xx.get(),
                http_5xx: self.service.http_5xx.get(),
                worker_spawns: self.service.worker_spawns.get(),
                worker_retirements: self.service.worker_retirements.get(),
                releases_enqueued: enqueued,
                releases_executed: executed,
                queue_depth: enqueued.saturating_sub(executed),
                season_queues: Vec::new(),
            },
            created: self.created,
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot types
// ---------------------------------------------------------------------------

/// The canonical serializable metrics snapshot: the one shape behind
/// `GET /metrics` and `AuditView.metrics`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Snapshot format tag ([`SNAPSHOT_FORMAT`]).
    pub format: u32,
    /// Agency ε cap.
    pub epsilon_cap: f64,
    /// ε reserved by season budgets (net of refunds).
    pub epsilon_reserved: f64,
    /// ε actually charged, summed over families.
    pub epsilon_spent: f64,
    /// ε remaining unreserved under the cap.
    pub epsilon_remaining: f64,
    /// ε refunded by audited season closures.
    pub epsilon_refunded: f64,
    /// Per-family admission/denial/spend/latency counters.
    pub families: Vec<FamilySnapshot>,
    /// Cache-effectiveness counters.
    pub caches: CacheSnapshot,
    /// Service-layer counters.
    pub service: ServiceSnapshot,
    /// When the registry was created, in seconds since the Unix epoch.
    /// Every value not rebuilt from the ledgers counts from here.
    pub created: f64,
}

/// The `Content-Type` of an OpenMetrics text exposition, as scrapers
/// negotiate it.
pub const OPENMETRICS_CONTENT_TYPE: &str =
    "application/openmetrics-text; version=1.0.0; charset=utf-8";

/// Escape a label value per the OpenMetrics text format: backslash,
/// double quote, and newline get backslash escapes.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

impl MetricsSnapshot {
    /// Render this snapshot in the OpenMetrics text exposition format
    /// (the Prometheus scrape format), ending with the mandatory
    /// `# EOF` terminator.
    ///
    /// Metric families map one-to-one onto the JSON snapshot: ε gauges,
    /// per-family admission counters and latency histograms (labelled
    /// `family="..."`, denials additionally `reason="..."`), cache and
    /// service counters, and per-season queue-depth gauges. Latency
    /// buckets keep their native microsecond bounds (`le` in µs); the
    /// trailing overflow slot becomes the `+Inf` bucket. Every counter
    /// and histogram series ends with one `_created` sample, the
    /// snapshot's [`created`](Self::created) time.
    pub fn to_openmetrics(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        let created = self.created;

        let gauge = |out: &mut String, name: &str, help: &str, value: f64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        // One counter series: its `_total` sample, then its `_created`.
        let series = |out: &mut String, name: &str, labels: &str, value: u64| {
            let _ = writeln!(out, "{name}_total{labels} {value}");
            let _ = writeln!(out, "{name}_created{labels} {created}");
        };
        let family = |f: &FamilySnapshot| format!("{{family=\"{}\"}}", escape_label(&f.family));
        gauge(
            &mut out,
            "eree_epsilon_cap",
            "Agency epsilon cap.",
            self.epsilon_cap,
        );
        gauge(
            &mut out,
            "eree_epsilon_reserved",
            "Epsilon reserved by season budgets, net of refunds.",
            self.epsilon_reserved,
        );
        gauge(
            &mut out,
            "eree_epsilon_spent",
            "Epsilon actually charged, summed over families.",
            self.epsilon_spent,
        );
        gauge(
            &mut out,
            "eree_epsilon_remaining",
            "Epsilon remaining unreserved under the cap.",
            self.epsilon_remaining,
        );
        gauge(
            &mut out,
            "eree_epsilon_refunded",
            "Epsilon refunded by audited season closures.",
            self.epsilon_refunded,
        );

        out.push_str("# HELP eree_releases_accepted Releases admitted, by family.\n");
        out.push_str("# TYPE eree_releases_accepted counter\n");
        for f in &self.families {
            series(
                &mut out,
                "eree_releases_accepted",
                &family(f),
                f.accepted_total,
            );
        }
        out.push_str("# HELP eree_releases_denied Releases refused, by family.\n");
        out.push_str("# TYPE eree_releases_denied counter\n");
        for f in &self.families {
            series(&mut out, "eree_releases_denied", &family(f), f.denied_total);
        }
        out.push_str(
            "# HELP eree_releases_denied_by_reason Releases refused, by family and reason.\n",
        );
        out.push_str("# TYPE eree_releases_denied_by_reason counter\n");
        for f in &self.families {
            for r in &f.denied_by_reason {
                let labels = format!(
                    "{{family=\"{}\",reason=\"{}\"}}",
                    escape_label(&f.family),
                    escape_label(&r.reason)
                );
                series(
                    &mut out,
                    "eree_releases_denied_by_reason",
                    &labels,
                    r.denied,
                );
            }
        }
        out.push_str("# HELP eree_family_epsilon_spent Epsilon charged, by family.\n");
        out.push_str("# TYPE eree_family_epsilon_spent gauge\n");
        for f in &self.families {
            let _ = writeln!(
                out,
                "eree_family_epsilon_spent{{family=\"{}\"}} {}",
                escape_label(&f.family),
                f.epsilon_spent
            );
        }
        out.push_str("# HELP eree_family_delta_spent Delta charged, by family.\n");
        out.push_str("# TYPE eree_family_delta_spent gauge\n");
        for f in &self.families {
            let _ = writeln!(
                out,
                "eree_family_delta_spent{{family=\"{}\"}} {}",
                escape_label(&f.family),
                f.delta_spent
            );
        }

        out.push_str(
            "# HELP eree_release_latency_micros Wall time of each admitted release's whole \
             execute call (validate, get the truth, charge, sample), microseconds.\n",
        );
        out.push_str("# TYPE eree_release_latency_micros histogram\n");
        for f in &self.families {
            let family = escape_label(&f.family);
            let mut cumulative = 0u64;
            for (slot, bound) in f.latency.le_micros.iter().enumerate() {
                cumulative += f.latency.counts.get(slot).copied().unwrap_or(0);
                let _ = writeln!(
                    out,
                    "eree_release_latency_micros_bucket{{family=\"{family}\",le=\"{bound}\"}} {cumulative}"
                );
            }
            let _ = writeln!(
                out,
                "eree_release_latency_micros_bucket{{family=\"{family}\",le=\"+Inf\"}} {}",
                f.latency.count
            );
            let _ = writeln!(
                out,
                "eree_release_latency_micros_sum{{family=\"{family}\"}} {}",
                f.latency.sum_micros
            );
            let _ = writeln!(
                out,
                "eree_release_latency_micros_count{{family=\"{family}\"}} {}",
                f.latency.count
            );
            let _ = writeln!(
                out,
                "eree_release_latency_micros_created{{family=\"{family}\"}} {created}"
            );
        }

        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            series(out, name, "", value);
        };
        let c = &self.caches;
        counter(
            &mut out,
            "eree_cache_truth_memory_hits",
            "Tabulations served from the in-memory cache.",
            c.truth_memory_hits,
        );
        counter(
            &mut out,
            "eree_cache_truth_disk_hits",
            "Tabulations served from the persistent truth store.",
            c.truth_disk_hits,
        );
        counter(
            &mut out,
            "eree_cache_truth_computed",
            "Tabulations actually computed.",
            c.truth_computed,
        );
        counter(
            &mut out,
            "eree_cache_truth_self_heals",
            "Corrupt truth files healed by recomputation.",
            c.truth_self_heals,
        );
        counter(
            &mut out,
            "eree_cache_public_hits",
            "Public-cache hits (zero-epsilon repeat answers).",
            c.public_hits,
        );
        counter(
            &mut out,
            "eree_cache_public_misses",
            "Public-cache misses.",
            c.public_misses,
        );
        counter(
            &mut out,
            "eree_cache_public_self_heals",
            "Corrupt public-cache entries discarded.",
            c.public_self_heals,
        );

        let s = &self.service;
        out.push_str("# HELP eree_http_responses HTTP responses served, by status class.\n");
        out.push_str("# TYPE eree_http_responses counter\n");
        for (class, value) in [
            ("2xx", s.http_2xx),
            ("4xx", s.http_4xx),
            ("5xx", s.http_5xx),
        ] {
            series(
                &mut out,
                "eree_http_responses",
                &format!("{{class=\"{class}\"}}"),
                value,
            );
        }
        counter(
            &mut out,
            "eree_worker_spawns",
            "Season workers spawned.",
            s.worker_spawns,
        );
        counter(
            &mut out,
            "eree_worker_retirements",
            "Season workers retired idle.",
            s.worker_retirements,
        );
        counter(
            &mut out,
            "eree_releases_enqueued",
            "Releases enqueued to season workers.",
            s.releases_enqueued,
        );
        counter(
            &mut out,
            "eree_releases_executed",
            "Releases workers finished executing.",
            s.releases_executed,
        );
        gauge(
            &mut out,
            "eree_queue_depth",
            "Releases currently queued across all season workers.",
            s.queue_depth as f64,
        );
        out.push_str("# HELP eree_season_queue_depth Releases queued, by live season worker.\n");
        out.push_str("# TYPE eree_season_queue_depth gauge\n");
        for q in &s.season_queues {
            let _ = writeln!(
                out,
                "eree_season_queue_depth{{season=\"{}\"}} {}",
                escape_label(&q.season),
                q.depth
            );
        }

        out.push_str("# EOF\n");
        out
    }
}

/// One release family's counters inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilySnapshot {
    /// Family label (an entry of [`FAMILY_LABELS`]).
    pub family: String,
    /// Releases admitted.
    pub accepted_total: u64,
    /// Releases refused.
    pub denied_total: u64,
    /// Nonzero denial counts, by reason slug.
    pub denied_by_reason: Vec<ReasonCount>,
    /// ε charged by this family.
    pub epsilon_spent: f64,
    /// δ charged by this family.
    pub delta_spent: f64,
    /// Agency ε headroom visible to this family (shared, not per-family).
    pub epsilon_remaining: f64,
    /// Wall time of each admitted release's whole `execute` call.
    pub latency: LatencySnapshot,
}

/// A denial count under one reason slug.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReasonCount {
    /// The reason slug (an entry of [`DENY_REASONS`]).
    pub reason: String,
    /// Denials recorded under it.
    pub denied: u64,
}

/// Serializable cache-effectiveness counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// Tabulations served from the in-memory cache.
    pub truth_memory_hits: u64,
    /// Tabulations served from the persistent truth store.
    pub truth_disk_hits: u64,
    /// Tabulations actually computed.
    pub truth_computed: u64,
    /// Corrupt truth files healed by recomputation.
    pub truth_self_heals: u64,
    /// Public-cache hits (zero-ε repeat answers).
    pub public_hits: u64,
    /// Public-cache misses.
    pub public_misses: u64,
    /// Corrupt public-cache entries discarded.
    pub public_self_heals: u64,
}

/// Serializable service-layer counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSnapshot {
    /// Responses with a 2xx status.
    pub http_2xx: u64,
    /// Responses with a 4xx status.
    pub http_4xx: u64,
    /// Responses with a 5xx status.
    pub http_5xx: u64,
    /// Season workers spawned.
    pub worker_spawns: u64,
    /// Season workers retired idle.
    pub worker_retirements: u64,
    /// Releases enqueued to season workers.
    pub releases_enqueued: u64,
    /// Releases workers finished executing.
    pub releases_executed: u64,
    /// Releases currently queued (enqueued − executed).
    pub queue_depth: u64,
    /// Live per-season queue depths (empty outside a running service).
    pub season_queues: Vec<SeasonQueue>,
}

/// One live season worker's queue depth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeasonQueue {
    /// The season name.
    pub season: String,
    /// Releases queued on its worker.
    pub depth: u64,
}

/// A serializable latency histogram: per-bucket counts aligned with
/// `le_micros` bounds, plus one trailing overflow bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, µs.
    pub sum_micros: u64,
    /// Inclusive upper bounds of the finite buckets, µs.
    pub le_micros: Vec<u64>,
    /// Per-bucket counts: one per bound, plus a trailing overflow slot.
    pub counts: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_counter_gauge_histogram_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.set(2);
        assert_eq!(c.get(), 2);

        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.add(0.1);
        g.add(0.2);
        assert_eq!(g.get(), 0.1 + 0.2, "adds accumulate in call order");
        g.set(7.5);
        assert_eq!(g.get(), 7.5);

        let h = LatencyHistogram::new();
        h.observe_micros(50); // first bucket (≤ 100)
        h.observe_micros(100); // bound is inclusive
        h.observe_micros(9_999_999_999); // overflow
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum_micros, 50 + 100 + 9_999_999_999);
        assert_eq!(snap.counts[0], 2);
        assert_eq!(*snap.counts.last().unwrap(), 1);
        assert_eq!(snap.counts.iter().sum::<u64>(), snap.count);
    }

    #[test]
    fn metrics_every_ledger_error_maps_into_the_reason_vocabulary() {
        let variants: Vec<LedgerError> = vec![
            LedgerError::EpsilonExhausted {
                requested: 1.0,
                remaining: 0.0,
            },
            LedgerError::DeltaExhausted {
                requested: 1.0,
                remaining: 0.0,
            },
            LedgerError::AlphaMismatch {
                ledger: 0.1,
                charge: 0.2,
            },
            LedgerError::InvalidCharge {
                epsilon: -1.0,
                delta: 0.0,
            },
            LedgerError::DuplicateReservation { name: "s".into() },
            LedgerError::UnknownSeason { name: "s".into() },
            LedgerError::DuplicateClosure { name: "s".into() },
            LedgerError::RefundExceedsReservation {
                name: "s".into(),
                requested: 2.0,
                reserved: 1.0,
            },
            LedgerError::NoPendingClosure { name: "s".into() },
            LedgerError::CreditExceedsSpent {
                requested: 2.0,
                spent: 1.0,
            },
        ];
        for e in &variants {
            let reason = e.metric_reason();
            assert!(DENY_REASONS.contains(&reason), "unlisted reason {reason:?}");
            // The slug resolves to its own slot, not the fallback.
            assert_eq!(DENY_REASONS[reason_slot(reason)], reason);
        }
        // Unknown reasons fold into the request_invalid slot.
        assert_eq!(
            DENY_REASONS[reason_slot("no_such_reason")],
            REASON_REQUEST_INVALID
        );
    }

    fn populated() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.epsilon_cap.set(8.0);
        reg.epsilon_reserved.set(5.0);
        reg.epsilon_remaining.set(3.0);
        reg.epsilon_refunded.set(0.25);
        let fam = reg.family(RequestKind::Marginal);
        fam.record_accepted(0.1, 0.0);
        fam.record_accepted(0.2, 0.0);
        fam.latency.observe_micros(1234);
        fam.record_denied("epsilon_exhausted");
        reg.family(RequestKind::Flows)
            .record_denied(REASON_REQUEST_INVALID);
        reg.caches.truth_computed.inc();
        reg.caches.public_hits.add(3);
        reg.service.http_2xx.add(9);
        reg.service.releases_enqueued.add(4);
        reg.service.releases_executed.add(3);
        reg
    }

    #[test]
    fn metrics_snapshot_roundtrips_bit_exactly_through_json() {
        let snap = populated().snapshot();
        assert_eq!(snap.epsilon_spent, 0.1 + 0.2);
        assert_eq!(snap.service.queue_depth, 1);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap, "snapshot must round-trip bit-exactly");
    }

    #[test]
    fn metrics_family_labels_cover_every_request_kind() {
        for kind in [
            RequestKind::Marginal,
            RequestKind::Shapes,
            RequestKind::Flows,
        ] {
            let label = FAMILY_LABELS[family_index(kind)];
            assert!(!label.is_empty());
            // The registry's family lookup and the snapshot labels agree.
            let reg = MetricsRegistry::new();
            reg.family(kind).accepted_total.set(41);
            let snap = reg.snapshot();
            let fam = snap.families.iter().find(|f| f.family == label).unwrap();
            assert_eq!(fam.accepted_total, 41);
        }
    }

    /// Every counter and histogram series in an exposition (`name` plus
    /// labels, from the `# TYPE` lines and the `_total` / `_count`
    /// samples), each with the values of its `_created` samples.
    fn created_by_series(text: &str) -> Vec<(String, Vec<f64>)> {
        let samples: Vec<(&str, &str)> = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.rsplit_once(' ').expect("value present"))
            .collect();
        let mut series = Vec::new();
        for family in text.lines().filter_map(|l| l.strip_prefix("# TYPE ")) {
            let (name, suffix) = match family.split_once(' ') {
                Some((name, "counter")) => (name, "_total"),
                Some((name, "histogram")) => (name, "_count"),
                _ => continue,
            };
            for (key, _) in &samples {
                let Some(labels) = key.strip_prefix(&format!("{name}{suffix}")) else {
                    continue;
                };
                let created_key = format!("{name}_created{labels}");
                let created = samples
                    .iter()
                    .filter(|(k, _)| *k == created_key)
                    .map(|(_, v)| v.parse().expect("created is a float"))
                    .collect();
                series.push((format!("{name}{labels}"), created));
            }
        }
        series
    }

    #[test]
    fn openmetrics_exposition_is_cumulative_escaped_and_terminated() {
        let reg = MetricsRegistry::new();
        reg.epsilon_cap.set(4.0);
        let fam = reg.family(RequestKind::Marginal);
        fam.accepted_total.inc();
        fam.latency.observe_micros(10);
        fam.latency.observe_micros(u64::MAX); // overflow bucket
        fam.record_denied("epsilon_exhausted");
        reg.family(RequestKind::Flows)
            .record_denied(REASON_REQUEST_INVALID);
        let mut snap = reg.snapshot();
        snap.service.season_queues.push(SeasonQueue {
            season: "q\"1\\\n".to_string(),
            depth: 3,
        });

        let text = snap.to_openmetrics();
        assert!(text.ends_with("# EOF\n"));
        assert!(text.contains("eree_epsilon_cap 4\n"));
        assert!(text.contains("eree_releases_accepted_total{family=\"marginal\"} 1\n"));
        // Label values carry the escaped quote, backslash, and newline.
        assert!(text.contains("eree_season_queue_depth{season=\"q\\\"1\\\\\\n\"} 3\n"));

        // Histogram buckets are cumulative and the +Inf bucket equals the
        // total count (the overflow observation is only visible there).
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("eree_release_latency_micros_bucket{family=\"marginal\""))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
        assert_eq!(*buckets.last().unwrap(), 2, "+Inf bucket is the count");
        assert_eq!(
            buckets[buckets.len() - 2],
            1,
            "overflow excluded before +Inf"
        );
        assert!(text.contains("eree_release_latency_micros_count{family=\"marginal\"} 2\n"));

        // Every sample line parses as `name ws value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit_once(' ').expect("value present").1;
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        }

        // Every counter and histogram series has exactly one `_created`
        // sample, the registry's creation time, and nothing else has one.
        assert!(snap.created > 0.0, "the registry stamps its creation");
        let series = created_by_series(&text);
        // 3 families × (accepted, denied, latency) + 2 reasons + 7 cache
        // + 3 HTTP classes + 4 worker and queue counters.
        assert_eq!(series.len(), 9 + 2 + 7 + 3 + 4, "{series:?}");
        for (name, created) in &series {
            assert_eq!(created, &[snap.created], "{name}");
        }
        let created_samples = text
            .lines()
            .filter(|l| !l.starts_with('#') && l.contains("_created"))
            .count();
        assert_eq!(created_samples, series.len());
    }
}
