//! The service's JSON wire types.
//!
//! Everything a tenant sends or receives is defined here, built from the
//! core layer's serializable vocabulary: [`MarginalSpec`] and
//! [`FilterExpr`] give release submissions a fully declarative identity
//! (so every service release is cacheable and resume-verifiable), and audit
//! responses reuse [`SeasonSummary`] and [`MetricsSnapshot`] verbatim so
//! the HTTP audit view is exactly the library's. Each counter appears on
//! the wire once, in the snapshot.

use eree_core::definitions::PrivacyParams;
use eree_core::engine::{ReleaseArtifact, ReleaseRequest, RequestKind};
use eree_core::mechanisms::MechanismKind;
use eree_core::metrics::MetricsSnapshot;
use eree_core::SeasonSummary;
use serde::{DeError, Deserialize, Serialize};
use tabulate::{FilterExpr, MarginalSpec};

/// `POST /seasons` request body: create a season, reserving its whole
/// budget from the agency cap before it exists.
#[derive(Debug, Clone, Serialize)]
pub struct SeasonCreate {
    /// Season name (1–64 ASCII alphanumerics, `-`, `_`, `.`).
    pub name: String,
    /// The season's whole `(α, ε[, δ])` budget.
    pub budget: PrivacyParams,
    /// Quarterly-panel services only: which quarter of the panel this
    /// season releases (required there, refused on single-snapshot
    /// services).
    pub quarter: Option<u64>,
}

impl Deserialize for SeasonCreate {
    /// Hand-written so `quarter` stays optional on the wire: the
    /// single-snapshot body `{name, budget}` keeps deserializing.
    fn from_value(v: &serde::Value) -> Result<Self, DeError> {
        Ok(Self {
            name: Deserialize::from_value(serde::get_field(v, "name")?)?,
            budget: Deserialize::from_value(serde::get_field(v, "budget")?)?,
            quarter: match v.get("quarter") {
                None | Some(serde::Value::Null) => None,
                Some(value) => Some(u64::from_value(value)?),
            },
        })
    }
}

/// `POST /seasons` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeasonCreated {
    /// The created season's name.
    pub name: String,
    /// The budget durably reserved for it.
    pub budget: PrivacyParams,
    /// ε still unreserved under the agency cap after the reservation.
    pub remaining_epsilon: f64,
}

/// `POST /seasons/{name}/releases` request body: one release, described
/// entirely in serializable terms.
///
/// Deserialization applies defaults for everything but `spec`,
/// `mechanism`, and `budget`: `kind` defaults to `"Marginal"`,
/// `budget_is_per_cell` and `integerize` to `false`, `filter` and
/// `description` to absent, `seed` to `0`.
#[derive(Debug, Clone, Serialize)]
pub struct ReleaseSubmission {
    /// Marginal, shapes, or flows release. Flow submissions are only
    /// accepted by quarterly-panel services, on seasons bound to a
    /// quarter with a predecessor: they tabulate the `(q-1, q)` dataset
    /// pair.
    pub kind: RequestKind,
    /// The marginal spec to tabulate.
    pub spec: MarginalSpec,
    /// The sampling mechanism.
    pub mechanism: MechanismKind,
    /// The requested budget (total, or per-cell when
    /// [`budget_is_per_cell`](Self::budget_is_per_cell)).
    pub budget: PrivacyParams,
    /// Interpret [`budget`](Self::budget) as per-cell parameters.
    pub budget_is_per_cell: bool,
    /// Declarative sub-population filter, if any.
    pub filter: Option<FilterExpr>,
    /// Round published values to non-negative integers.
    pub integerize: bool,
    /// Noise-stream seed; part of the release's identity.
    pub seed: u64,
    /// Free-form label recorded in ledger and provenance (display-only:
    /// not part of the release's cache identity).
    pub description: Option<String>,
}

impl Deserialize for ReleaseSubmission {
    fn from_value(v: &serde::Value) -> Result<Self, DeError> {
        // Optional fields default rather than 400 — the minimal valid
        // submission is {spec, mechanism, budget}.
        fn opt<T: Deserialize>(v: &serde::Value, field: &str) -> Result<Option<T>, DeError> {
            match v.get(field) {
                None | Some(serde::Value::Null) => Ok(None),
                Some(value) => T::from_value(value).map(Some),
            }
        }
        Ok(Self {
            kind: opt(v, "kind")?.unwrap_or(RequestKind::Marginal),
            spec: Deserialize::from_value(serde::get_field(v, "spec")?)?,
            mechanism: Deserialize::from_value(serde::get_field(v, "mechanism")?)?,
            budget: Deserialize::from_value(serde::get_field(v, "budget")?)?,
            budget_is_per_cell: opt(v, "budget_is_per_cell")?.unwrap_or(false),
            filter: opt(v, "filter")?,
            integerize: opt(v, "integerize")?.unwrap_or(false),
            seed: opt(v, "seed")?.unwrap_or(0),
            description: opt(v, "description")?,
        })
    }
}

impl ReleaseSubmission {
    /// The [`ReleaseRequest`] this submission describes.
    pub fn to_request(&self) -> ReleaseRequest {
        let mut request = match self.kind {
            RequestKind::Marginal => ReleaseRequest::marginal(self.spec.clone()),
            RequestKind::Shapes => ReleaseRequest::shapes(self.spec.clone()),
            RequestKind::Flows => ReleaseRequest::flows(self.spec.clone()),
        }
        .mechanism(self.mechanism)
        .integerize(self.integerize)
        .seed(self.seed);
        request = if self.budget_is_per_cell {
            request.budget_per_cell(self.budget)
        } else {
            request.budget(self.budget)
        };
        if let Some(filter) = &self.filter {
            request = request.filter_expr(filter.clone());
        }
        if let Some(description) = &self.description {
            request = request.describe(description.clone());
        }
        request
    }
}

/// `POST /seasons/{name}/releases` response body: a handle to poll.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitReceipt {
    /// The release's id (the `GET /releases/{id}` path segment).
    pub id: u64,
    /// `"queued"` (202) or, for a cache hit, `"complete"` (200).
    pub status: String,
    /// Whether the release was served from the public artifact cache —
    /// in which case it spent zero additional ε and touched nothing
    /// confidential.
    pub cached: bool,
}

/// `GET /releases/{id}` response body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReleaseStatusView {
    /// The release's id.
    pub id: u64,
    /// The season it was submitted to (empty for cache hits, which are
    /// answered on the public side without resolving a season).
    pub season: String,
    /// `"queued"`, `"complete"`, or `"failed"`.
    pub status: String,
    /// Whether it was served from the public artifact cache.
    pub cached: bool,
    /// The refusal, when `status == "failed"` (e.g. over budget).
    pub error: Option<String>,
    /// The released artifact, when `status == "complete"`.
    pub artifact: Option<ReleaseArtifact>,
}

/// `GET /audit` response body: the agency's budget ledger, season by
/// season, plus the service's release registry size and metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditView {
    /// The agency's global `(α, ε[, δ])` cap.
    pub cap: PrivacyParams,
    /// ε reserved across all seasons (spent or not) — never exceeds the
    /// cap's ε.
    pub reserved_epsilon: f64,
    /// ε still unreserved under the cap.
    pub remaining_epsilon: f64,
    /// ε refunded to the cap by sealed season closures
    /// (`POST /seasons/{name}/close`) — already included in
    /// `remaining_epsilon`.
    pub refunded_epsilon: f64,
    /// ε actually charged across all seasons so far.
    pub spent_epsilon: f64,
    /// Live per-season budget summaries, in reservation order.
    pub seasons: Vec<SeasonSummary>,
    /// Releases in the service's persisted registry (queued, completed,
    /// or failed — including cache hits).
    pub releases: u64,
    /// Artifacts currently in the public cache directory.
    pub cache_entries: u64,
    /// The canonical structured snapshot (per-family admissions/denials,
    /// budget gauges, cache and service counters since the service
    /// started, latency histograms) — the same payload `GET /metrics`
    /// returns.
    pub metrics: MetricsSnapshot,
    /// `GET /audit?deep=1` only: every completed release's body read and
    /// checked. The plain audit reads no body and leaves this `null`.
    pub bodies: Option<BodyAudit>,
}

/// The body check of `GET /audit?deep=1`: every completed release's body
/// read and checked against its content digest, exactly as
/// `GET /releases/{id}` reads it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BodyAudit {
    /// Completed releases whose body was read.
    pub checked: u64,
    /// Ids whose body is missing or fails its content digest, ascending.
    pub failed: Vec<u64>,
}
