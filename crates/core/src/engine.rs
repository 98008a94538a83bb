//! The release engine: the single front door for formally private
//! releases.
//!
//! A production release service — the operating model of a statistical
//! agency publishing many tabulations from one confidential database —
//! needs every release to flow through one place where it is *requested*,
//! *budget-checked*, *executed*, and *recorded*. This module provides that
//! seam:
//!
//! * [`ReleaseRequest`] — a builder describing one release: a marginal
//!   (`ReleaseRequest::marginal`) or an establishment-shape release
//!   (`ReleaseRequest::shapes`), with a mechanism, an `(α, ε[, δ])`
//!   budget (total or per-cell), an optional population filter (a
//!   declarative, serializable [`FilterExpr`] via
//!   [`ReleaseRequest::filter_expr`] — the only filter form, so every
//!   artifact records the population it counted), optional integer
//!   post-processing, and a seed.
//! * [`ReleaseEngine`] — owns a [`Ledger`] and admits requests. Every
//!   request is validated against the mechanism's constraints and the
//!   remaining budget *before* any tabulation or sampling happens; a
//!   rejected request consumes nothing. [`ReleaseEngine::execute`] admits
//!   one release against a [`TruthSource`] — a [`Snapshot`] tabulated
//!   through a [`TabulationCache`], or an already tabulated truth — and
//!   parallelizes its tabulation across shards and its noising across
//!   cells, both through [`tabulate::par::map`], the workspace's one
//!   fork-join; [`ReleaseEngine::execute_all`] is `execute` over a whole
//!   workload batch and one cache, in request order, under the same
//!   ledger (sequential composition, Thm 7.3).
//! * [`ReleaseArtifact`] — the durable, serde-serializable output:
//!   published cells (or shapes), the neighbor regime, the
//!   [`ReleaseCost`] charged, the mechanism name, the seed and request
//!   provenance.
//!
//! Determinism: per-cell noise streams are derived from
//! `(request seed, cell key)` with a SplitMix64 mix, and tabulation's
//! sharded establishment loop merges sorted runs with commutative
//! aggregates, so a fixed seed yields bit-identical artifacts however
//! many `par::map` threads run either phase.
//!
//! Tabulation runs on a columnar employer-grouped
//! [`DatasetIndex`] — built **once per
//! dataset**: a [`TabulationCache`] (one per `execute_all` batch, one per
//! season in `SeasonStore::{run, admit}`) builds it on its first
//! tabulation and holds it, in a slot several caches of one dataset can
//! share. Within a cache, each distinct `(MarginalSpec, normalized
//! filter)` is tabulated once (the [`FilterId`] digest is the filter's
//! compact fingerprint), so structurally equal expressions share even
//! when constructed independently.
//!
//! ```
//! use eree_core::engine::{ReleaseEngine, ReleaseRequest};
//! use eree_core::{FilterExpr, MechanismKind, PrivacyParams};
//! use lodes::{Generator, GeneratorConfig, Sex};
//! use tabulate::{workload1, workload3};
//!
//! let dataset = Generator::new(GeneratorConfig::test_small(7)).generate();
//! // One ledger governs the whole publication season.
//! let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 11.0));
//! let batch = vec![
//!     ReleaseRequest::marginal(workload1())
//!         .mechanism(MechanismKind::SmoothGamma)
//!         .budget(PrivacyParams::pure(0.1, 2.0))
//!         .seed(1),
//!     ReleaseRequest::marginal(workload3())
//!         .mechanism(MechanismKind::LogLaplace)
//!         .budget(PrivacyParams::pure(0.1, 8.0))
//!         .seed(2),
//!     // A sub-population release: the filter is declarative data, so it
//!     // is recorded in the artifact's provenance and shares tabulations
//!     // with any structurally equal filter.
//!     ReleaseRequest::marginal(workload1())
//!         .mechanism(MechanismKind::SmoothGamma)
//!         .budget(PrivacyParams::pure(0.1, 1.0))
//!         .filter_expr(FilterExpr::sex(Sex::Female))
//!         .seed(3),
//! ];
//! let artifacts = engine.execute_all(&dataset, &batch);
//! assert!(artifacts.iter().all(|a| a.is_ok()));
//! assert!(engine.ledger().remaining_epsilon() < 1e-9);
//! let filtered = artifacts[2].as_ref().unwrap();
//! assert_eq!(
//!     filtered.request.filter_id(),
//!     Some(FilterExpr::sex(Sex::Female).id()),
//! );
//! ```

use crate::accountant::{Ledger, ReleaseCost};
use crate::definitions::PrivacyParams;
use crate::error::EngineError;
use crate::mechanisms::{CellQuery, CountMechanism, MechanismKind};
use crate::metrics::{MetricsRegistry, REASON_REQUEST_INVALID};
use crate::neighbors::NeighborKind;
use crate::shape::ShapeRelease;
use crate::store::StoreError;
use lodes::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use tabulate::{
    par, CellKey, DatasetIndex, FilterExpr, FilterId, FlowMarginal, Kernel, Marginal, MarginalSpec,
};

/// What kind of release a request describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestKind {
    /// Release every nonzero cell of a marginal.
    Marginal,
    /// Release the workforce shape of every workplace cell.
    Shapes,
    /// Release job-flow statistics (`B`, `JC`, `JD`, derived `E`) over a
    /// `(before, after)` dataset pair sharing one establishment frame.
    /// Flow requests execute against a [`TruthSource::Flows`] truth or a
    /// [`Snapshot`] that carries its before quarter.
    Flows,
}

impl RequestKind {
    /// The stable lowercase label of this family — the `family` string
    /// in [`crate::metrics::FamilySnapshot`] and in request descriptions.
    pub fn label(&self) -> &'static str {
        match self {
            RequestKind::Marginal => "marginal",
            RequestKind::Shapes => "shapes",
            RequestKind::Flows => "flows",
        }
    }
}

/// How the request's budget is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum BudgetSpec {
    /// Budget for the *whole* release; per-cell parameters are derived by
    /// inverting the composition accounting.
    Total(PrivacyParams),
    /// Per-cell mechanism parameters; the ledger is charged the induced
    /// total (`multiplier × per-cell`).
    PerCell(PrivacyParams),
}

/// A builder-style description of one release.
///
/// Construct with [`ReleaseRequest::marginal`] or
/// [`ReleaseRequest::shapes`], then chain [`mechanism`](Self::mechanism),
/// [`budget`](Self::budget) (or [`budget_per_cell`](Self::budget_per_cell)),
/// and optionally [`filter_expr`](Self::filter_expr),
/// [`integerize`](Self::integerize), [`seed`](Self::seed),
/// [`describe`](Self::describe).
#[derive(Debug, Clone)]
pub struct ReleaseRequest {
    kind: RequestKind,
    spec: MarginalSpec,
    mechanism: Option<MechanismKind>,
    budget: Option<BudgetSpec>,
    filter: Option<FilterExpr>,
    integerize: bool,
    seed: u64,
    description: Option<String>,
}

impl ReleaseRequest {
    fn new(kind: RequestKind, spec: MarginalSpec) -> Self {
        Self {
            kind,
            spec,
            mechanism: None,
            budget: None,
            filter: None,
            integerize: false,
            seed: 0,
            description: None,
        }
    }

    /// Request the marginal `spec` (every nonzero cell, noised).
    pub fn marginal(spec: MarginalSpec) -> Self {
        Self::new(RequestKind::Marginal, spec)
    }

    /// Request establishment-class shapes over the worker partition of
    /// `spec` (which must group by at least one worker attribute).
    pub fn shapes(spec: MarginalSpec) -> Self {
        Self::new(RequestKind::Shapes, spec)
    }

    /// Request job-flow statistics (`B`, `JC`, `JD`, derived `E`) grouped
    /// by the workplace attributes of `spec`, over a `(before, after)`
    /// dataset pair. The spec must not group by worker attributes — flows
    /// are establishment-level quantities. Execute it with
    /// [`ReleaseEngine::execute`] against a [`Snapshot`] that carries its
    /// before quarter (see [`Snapshot::after`]) or a precomputed
    /// [`TruthSource::Flows`] truth.
    pub fn flows(spec: MarginalSpec) -> Self {
        Self::new(RequestKind::Flows, spec)
    }

    /// Which mechanism to sample from (required).
    pub fn mechanism(mut self, mechanism: MechanismKind) -> Self {
        self.mechanism = Some(mechanism);
        self
    }

    /// Total `(α, ε[, δ])` budget for the whole release (required, unless
    /// [`budget_per_cell`](Self::budget_per_cell) is used instead).
    pub fn budget(mut self, budget: PrivacyParams) -> Self {
        self.budget = Some(BudgetSpec::Total(budget));
        self
    }

    /// Per-cell mechanism parameters; the ledger is charged the induced
    /// total under the request's composition regime. This is the natural
    /// mode for single-query workloads evaluated at a per-query ε.
    pub fn budget_per_cell(mut self, per_cell: PrivacyParams) -> Self {
        self.budget = Some(BudgetSpec::PerCell(per_cell));
        self
    }

    /// Restrict the tabulated population by a declarative [`FilterExpr`]
    /// (see [`crate::filter`]). Filtered counts answer worker-level
    /// questions even on workplace-only specs, so a filtered request
    /// always runs under the **weak** regime (including a vacuous
    /// `FilterExpr::All` — the engine prices the request by its form,
    /// not by what the expression happens to match).
    ///
    /// The expression is recorded in the artifact's provenance, keys the
    /// tabulation cache by its normalized structure (structurally equal
    /// expressions share a tabulation — the [`FilterId`] digest is only a
    /// compact fingerprint), and is verified across season resumes.
    pub fn filter_expr(mut self, expr: FilterExpr) -> Self {
        self.filter = Some(expr);
        self
    }

    /// Round published values to non-negative integers (data-independent
    /// post-processing; preserves the guarantee, adds ≤ 0.5 expected L1).
    pub fn integerize(mut self, integerize: bool) -> Self {
        self.integerize = integerize;
        self
    }

    /// RNG seed (noise streams derive deterministically from it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Human-readable description recorded in the ledger and provenance.
    pub fn describe(mut self, description: impl Into<String>) -> Self {
        self.description = Some(description.into());
        self
    }

    /// The workload kind this request declares — flow requests need a
    /// flow truth, which drivers supply by handing [`ReleaseEngine::execute`]
    /// a [`Snapshot`] with its before quarter.
    pub fn kind(&self) -> RequestKind {
        self.kind
    }

    /// The request's RNG seed (as set by [`seed`](Self::seed); the panel
    /// runner derives per-quarter seeds from it).
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// The neighbor regime the release's guarantee holds under.
    pub fn regime(&self) -> NeighborKind {
        match self.kind {
            RequestKind::Shapes => NeighborKind::Weak,
            RequestKind::Marginal | RequestKind::Flows => {
                if self.spec.has_worker_attrs() || self.filter.is_some() {
                    NeighborKind::Weak
                } else {
                    NeighborKind::Strong
                }
            }
        }
    }

    /// The request's description (explicit or derived).
    pub fn description(&self) -> String {
        self.description
            .clone()
            .unwrap_or_else(|| format!("{} release of {}", self.kind.label(), self.spec.name()))
    }

    /// The marginal spec the request tabulates.
    pub fn spec(&self) -> &MarginalSpec {
        &self.spec
    }

    /// Resolve budget accounting and validate the mechanism, *without*
    /// sampling or spending: returns per-cell parameters and the total
    /// [`ReleaseCost`] the ledger would be charged.
    pub fn plan(&self) -> Result<ReleasePlan, EngineError> {
        let mechanism = self.mechanism.ok_or(EngineError::IncompleteRequest {
            missing: "mechanism",
        })?;
        let budget = self
            .budget
            .ok_or(EngineError::IncompleteRequest { missing: "budget" })?;
        if self.kind == RequestKind::Shapes && !self.spec.has_worker_attrs() {
            return Err(EngineError::Shape(
                crate::shape::ShapeError::NoWorkerAttributes,
            ));
        }
        if self.kind == RequestKind::Flows && self.spec.has_worker_attrs() {
            return Err(EngineError::Flow {
                detail: "flow specs are establishment-level and must not \
                         group by worker attributes",
            });
        }
        let regime = self.regime();
        // Flow releases noise three statistics per cell (B, JC, JD; E is
        // derived), so their composition accounting is their own.
        let (per_cell, requested) = match (self.kind, budget) {
            (RequestKind::Flows, BudgetSpec::Total(total)) => {
                (ReleaseCost::per_cell_for_flow_total(&total), total)
            }
            (_, BudgetSpec::Total(total)) => (
                ReleaseCost::per_cell_for_total(&self.spec, &total, regime),
                total,
            ),
            (_, BudgetSpec::PerCell(per_cell)) => (per_cell, per_cell),
        };
        let cost = if self.kind == RequestKind::Flows {
            ReleaseCost::for_flows(&per_cell)
        } else {
            ReleaseCost::for_marginal(&self.spec, &per_cell, regime)
        };
        // Validate mechanism parameters up front so invalid requests are
        // rejected before any budget is spent.
        if mechanism.build(&per_cell).is_none() {
            return Err(EngineError::InvalidParameters {
                mechanism,
                per_cell_epsilon: per_cell.epsilon,
                alpha: per_cell.alpha,
                delta: per_cell.delta,
            });
        }
        Ok(ReleasePlan {
            mechanism,
            per_cell,
            cost,
            regime,
            requested,
            per_cell_budgeting: matches!(budget, BudgetSpec::PerCell(_)),
        })
    }

    /// The provenance an artifact of this request records, under `plan`
    /// (this request's [`plan`](Self::plan)): what
    /// [`ReleaseKey::of`](crate::public_cache::ReleaseKey::of) keys it by.
    pub fn provenance(&self, plan: &ReleasePlan) -> RequestProvenance {
        RequestProvenance {
            kind: self.kind,
            spec: self.spec.clone(),
            mechanism: plan.mechanism,
            budget: plan.requested,
            budget_is_per_cell: plan.per_cell_budgeting,
            seed: self.seed,
            filter: self.filter.clone(),
            integerized: self.integerize,
            description: self.description(),
        }
    }
}

/// A validated request: resolved accounting, not yet executed.
#[derive(Debug, Clone, Copy)]
pub struct ReleasePlan {
    /// The mechanism kind.
    pub mechanism: MechanismKind,
    /// Per-cell mechanism parameters after composition accounting.
    pub per_cell: PrivacyParams,
    /// Total cost the ledger will be charged.
    pub cost: ReleaseCost,
    /// Neighbor regime of the guarantee.
    pub regime: NeighborKind,
    requested: PrivacyParams,
    per_cell_budgeting: bool,
}

/// Immutable record of what was asked for, embedded in every artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestProvenance {
    /// Marginal or shapes.
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
    /// The request seed.
    pub seed: u64,
    /// The filter restricting the counted population, exactly as the
    /// request gave it to [`ReleaseRequest::filter_expr`]; `None` when
    /// the whole population was counted.
    pub filter: Option<FilterExpr>,
    /// Whether outputs were rounded to non-negative integers.
    pub integerized: bool,
    /// Free-form description (also the ledger entry text).
    pub description: String,
}

impl RequestProvenance {
    /// Content digest of the recorded filter expression, when one was
    /// recorded. Season resume verification compares these digests.
    pub fn filter_id(&self) -> Option<FilterId> {
        self.filter.as_ref().map(FilterExpr::id)
    }
}

/// One published flow cell: three noised statistics and the derived
/// fourth.
///
/// `beginning`, `job_creation`, and `job_destruction` each carry an
/// independent noise draw; `ending` is computed from them as
/// `B + JC − JD` *after* any integer post-processing, so the accounting
/// identity `E − B = JC − JD` holds **exactly** on the published values —
/// consistency is free post-processing, not a fourth query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowRelease {
    /// Noised beginning-of-period employment `B`.
    pub beginning: f64,
    /// Noised job creation `JC`.
    pub job_creation: f64,
    /// Noised job destruction `JD`.
    pub job_destruction: f64,
    /// Derived ending employment `E = B + JC − JD` (post-processed, never
    /// separately noised; may be negative when destruction noise
    /// dominates — clamping it would break the identity).
    pub ending: f64,
}

/// The released data inside an artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArtifactPayload {
    /// Noisy value per nonzero-true-count cell.
    Cells(BTreeMap<CellKey, f64>),
    /// One released shape per workplace cell.
    Shapes(Vec<ShapeRelease>),
    /// One released flow per active cell of a quarter pair.
    Flows(BTreeMap<CellKey, FlowRelease>),
}

/// A completed, durable release: everything a downstream consumer (or
/// auditor) needs, serializable to JSON and back losslessly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReleaseArtifact {
    /// What was requested.
    pub request: RequestProvenance,
    /// Neighbor regime the guarantee holds under.
    pub regime: NeighborKind,
    /// What the ledger was charged.
    pub cost: ReleaseCost,
    /// Mechanism display name.
    pub mechanism_name: String,
    /// The released data.
    pub payload: ArtifactPayload,
}

impl ReleaseArtifact {
    /// The published cells, when this is a marginal release.
    pub fn cells(&self) -> Option<&BTreeMap<CellKey, f64>> {
        match &self.payload {
            ArtifactPayload::Cells(cells) => Some(cells),
            _ => None,
        }
    }

    /// The released shapes, when this is a shapes release.
    pub fn shapes(&self) -> Option<&[ShapeRelease]> {
        match &self.payload {
            ArtifactPayload::Shapes(shapes) => Some(shapes),
            _ => None,
        }
    }

    /// The published flow cells, when this is a flow release.
    pub fn flows(&self) -> Option<&BTreeMap<CellKey, FlowRelease>> {
        match &self.payload {
            ArtifactPayload::Flows(flows) => Some(flows),
            _ => None,
        }
    }

    /// Total L1 error of a cell release against an externally supplied
    /// truth marginal (evaluation use).
    pub fn l1_error_against(&self, truth: &Marginal) -> Result<f64, EngineError> {
        let cells = match &self.payload {
            ArtifactPayload::Cells(cells) => cells,
            _ => return Err(EngineError::WrongPayload { expected: "cells" }),
        };
        let mut total = 0.0;
        for (key, stats) in truth.iter() {
            let published = cells
                .get(&key)
                .ok_or(EngineError::MissingCell { key: key.0 })?;
            total += (stats.count as f64 - published).abs();
        }
        Ok(total)
    }
}

/// Fewest cells (or shape groups) a release noises on more than one
/// thread.
const MIN_PARALLEL_CELLS: usize = 512;

/// One confidential snapshot, as every admission layer hands it down: the
/// dataset, its [`dataset_digest`](crate::store::dataset_digest), and —
/// for a panel quarter past the base — the previous quarter that flow
/// requests tabulate against. Whoever builds the value pays for the
/// digests once; the season store pins [`digest`](Self::digest), every
/// [`TabulationCache`] checks it on every call, and flow truths are
/// addressed by [`pair_digest`](Self::pair_digest).
#[derive(Clone, Copy)]
pub struct Snapshot<'a> {
    dataset: &'a Dataset,
    digest: u64,
    before: Option<(&'a Dataset, u64)>,
}

impl<'a> Snapshot<'a> {
    /// `dataset`, digested here: one pass of
    /// [`dataset_digest`](crate::store::dataset_digest), its chunks
    /// hashed on up to every core.
    pub fn of(dataset: &'a Dataset) -> Self {
        Self::with_digest(dataset, crate::store::dataset_digest(dataset))
    }

    /// `dataset` with its digest already in hand — drivers that computed
    /// it for their own pins (the agency's panel runner, the release
    /// service's quarters) pass it through. The digest must be
    /// [`dataset_digest`](crate::store::dataset_digest)`(dataset)`;
    /// handing a digest of different data voids every pin built on it.
    pub fn with_digest(dataset: &'a Dataset, digest: u64) -> Self {
        Self {
            dataset,
            digest,
            before: None,
        }
    }

    /// This snapshot as the *after* quarter of a flow pair whose before
    /// quarter is `before`. Level and shape requests still see only this
    /// snapshot.
    pub fn after(self, before: Snapshot<'a>) -> Self {
        Self {
            before: Some((before.dataset, before.digest)),
            ..self
        }
    }

    /// The snapshot's dataset digest.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// [`dataset_pair_digest`](crate::store::dataset_pair_digest) of the
    /// `(before, this)` pair — the address of flow truths and flow
    /// release-cache entries — or `None` without a before quarter.
    pub fn pair_digest(&self) -> Option<u64> {
        self.before
            .map(|(_, before)| crate::store::dataset_pair_digest(before, self.digest))
    }
}

/// Where [`ReleaseEngine::execute`] gets the truth a release samples
/// from.
pub enum TruthSource<'a> {
    /// Tabulate through a caller-owned cache: levels and shapes over the
    /// snapshot's dataset, flows over its `(before, dataset)` pair.
    Tabulate {
        /// The snapshot to tabulate.
        data: Snapshot<'a>,
        /// The cache that serves, and keeps, the tabulation.
        cache: &'a mut TabulationCache,
    },
    /// An already tabulated level truth — evaluation sweeps tabulate once
    /// and release many times. Its spec must match the request's.
    Marginal(&'a Marginal),
    /// An already tabulated flow truth. Its spec must match the
    /// request's.
    Flows(&'a FlowMarginal),
}

/// A truth in hand, borrowed for sampling.
#[derive(Clone, Copy)]
enum Truth<'a> {
    Level(&'a Marginal),
    Flows(&'a FlowMarginal),
}

/// A cached tabulation: a level marginal (levels and shapes sample from
/// it) or the flow marginal of the cache's `(before, after)` pair.
#[derive(Clone)]
enum Tabulated {
    Level(Arc<Marginal>),
    Flows(Arc<FlowMarginal>),
}

impl Tabulated {
    fn truth(&self) -> Truth<'_> {
        match self {
            Tabulated::Level(truth) => Truth::Level(truth),
            Tabulated::Flows(truth) => Truth::Flows(truth),
        }
    }
}

/// Identity of one tabulation: whether it is a flow truth, the marginal
/// spec, and the **normalized** filter expression restricting its
/// population (`None` when unfiltered). Structurally equal expressions
/// share a tabulation no matter where or when they were constructed; the
/// expression itself is the key (not its [`FilterId`] digest) so a digest
/// collision can never alias two different populations onto one cached
/// truth.
type TabulationKey = (bool, MarginalSpec, Option<FilterExpr>);

fn tabulation_key(request: &ReleaseRequest) -> TabulationKey {
    (
        request.kind == RequestKind::Flows,
        request.spec.clone(),
        request.filter.as_ref().map(FilterExpr::normalized),
    )
}

/// Where one cached tabulation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TabulationSource {
    /// Served from this cache's in-memory entries.
    Memory,
    /// Loaded (and verified) from the persistent [`TruthStore`].
    Disk,
    /// Freshly computed over the shared index.
    Computed,
}

/// A cache of tabulated truths keyed by `(kind, MarginalSpec, normalized
/// filter)`, plus the shared columnar [`DatasetIndex`] they were computed
/// from.
///
/// Tabulation is the engine's dominant cost for large universes; a batch
/// (or a resumed publication season) whose requests share a marginal
/// should pay it once — and every request, shared marginal or not, should
/// share one CSR index of the dataset, built by the first request that
/// misses both the memory tier and the truth store, so a cache that only
/// ever serves stored truths never builds one.
/// The cache is owned by the *caller* ([`ReleaseEngine::execute_all`]
/// makes one per batch) rather than stored inside the engine, because
/// cached truths (and the index) are only valid for one dataset.
///
/// A cache serves exactly one [`Snapshot`]: it remembers the digest of
/// its truth store's pin (or of the first snapshot it tabulates), plus
/// the first before-quarter digest it sees, and refuses any snapshot
/// whose digests differ — one `u64` compare per call.
///
/// A cache built with [`with_store`](Self::with_store) additionally reads
/// and writes a persistent, content-addressed
/// [`TruthStore`](crate::truths::TruthStore): a memory miss first tries
/// the store (digest-verified load), and a computed truth is persisted
/// before it is used — so a resumed season, or a *sibling* season sharing
/// a `(spec, filter)` with an earlier one, never re-tabulates. Level
/// truths are addressed under the store's pin, flow truths under the
/// snapshot's pair digest.
#[derive(Default)]
pub struct TabulationCache {
    /// The index slot, filled by the first tabulation of whichever cache
    /// sharing it gets there first.
    index: Arc<OnceLock<DatasetIndex>>,
    /// The *before* quarter's index for flow tabulations; the main
    /// `index` is the after side.
    before_index: Option<DatasetIndex>,
    entries: BTreeMap<TabulationKey, Tabulated>,
    store: Option<crate::truths::TruthStore>,
    /// Digest of the one dataset this cache serves.
    digest: Option<u64>,
    /// Digest of the one before quarter this cache pairs flows with.
    before_digest: Option<u64>,
}

impl TabulationCache {
    /// An empty, memory-only cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache backed by a persistent truth store. Tabulations are
    /// served from and persisted to `store`; the cache serves only the
    /// dataset `store` is pinned to.
    pub fn with_store(store: crate::truths::TruthStore) -> Self {
        Self {
            digest: Some(store.dataset_digest()),
            store: Some(store),
            ..Self::default()
        }
    }

    /// Share an index slot with other caches of the same dataset instead
    /// of owning one. A multi-tenant frontend keeps one slot per dataset
    /// and hands it to every per-season cache: the first cache whose
    /// request misses both tiers builds the index into it, on its own
    /// thread, and every other cache (a concurrent one waits for that
    /// build) tabulates over the same image. A slot that is already
    /// full — `Arc::new(OnceLock::from(index))` — is never rebuilt. The
    /// index must be (or be built) from the dataset this cache will
    /// serve.
    pub fn with_shared_index(mut self, index: Arc<OnceLock<DatasetIndex>>) -> Self {
        self.index = index;
        self
    }

    /// Number of distinct tabulations held in memory.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no in-memory tabulations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Refuse a snapshot other than the one this cache serves, pinning
    /// its digests on first use.
    fn check(&mut self, data: Snapshot<'_>) -> Result<(), EngineError> {
        fn pin(pinned: &mut Option<u64>, handed: u64) -> Result<(), EngineError> {
            match *pinned.get_or_insert(handed) {
                pinned if pinned != handed => Err(EngineError::TruthStore {
                    detail: format!(
                        "tabulation cache serves dataset {pinned:016x} but was handed \
                         dataset {handed:016x} — refusing to mix databases"
                    ),
                }),
                _ => Ok(()),
            }
        }
        pin(&mut self.digest, data.digest)?;
        match data.before {
            Some((_, before)) => pin(&mut self.before_digest, before),
            None => Ok(()),
        }
    }

    /// The truth for `request` over `data`: in-memory entry, verified
    /// persistent truth, or fresh tabulation over the shared index (or
    /// pair of indexes, for flows), in that order.
    fn get_or_tabulate(
        &mut self,
        data: Snapshot<'_>,
        request: &ReleaseRequest,
        threads: usize,
    ) -> Result<(Tabulated, TabulationSource), EngineError> {
        self.check(data)?;
        let key = tabulation_key(request);
        if let Some(truth) = self.entries.get(&key) {
            return Ok((truth.clone(), TabulationSource::Memory));
        }
        let (spec, filter) = (&request.spec, request.filter.as_ref());
        // A flow truth pairs the before quarter with this snapshot and is
        // addressed by the pair digest; level truths by the store's pin.
        let flow_pair = key.0.then(|| {
            let (before, before_digest) = data
                .before
                .expect("execute refuses flow requests without a before quarter");
            let pair = crate::store::dataset_pair_digest(before_digest, data.digest);
            (before, pair)
        });
        let loaded = self.store.as_ref().and_then(|store| match flow_pair {
            Some((_, pair)) => store
                .load_flows(pair, spec, filter)
                .map(|truth| Tabulated::Flows(Arc::new(truth))),
            None => store
                .load(spec, filter)
                .map(|truth| Tabulated::Level(Arc::new(truth))),
        });
        if let Some(truth) = loaded {
            self.entries.insert(key, truth.clone());
            return Ok((truth, TabulationSource::Disk));
        }
        // Both tiers missed: only now is the index worth building.
        let index = self
            .index
            .get_or_init(|| DatasetIndex::build_auto(data.dataset));
        let persist_failed = |e: StoreError| EngineError::TruthStore {
            detail: format!("persisting freshly computed truth failed: {e}"),
        };
        // The advisory `effective_shards` cap keeps small datasets on the
        // one-thread path instead of paying per-task spawn/sort/merge
        // overhead that exceeds the scan.
        let truth = match flow_pair {
            Some((before, pair)) => {
                // The before side must share the after side's layout —
                // flow tabulation pairs the quarters shard by shard.
                let before_index = self
                    .before_index
                    .get_or_insert_with(|| index.build_like(before));
                let truth = Arc::new(before_index.flows(
                    index,
                    spec,
                    filter,
                    before_index.effective_shards(threads),
                    Kernel::Auto,
                ));
                if let Some(store) = &self.store {
                    store
                        .save_flows(pair, spec, filter, &truth)
                        .map_err(persist_failed)?;
                }
                Tabulated::Flows(truth)
            }
            None => {
                let truth = Arc::new(index.marginal(
                    spec,
                    filter,
                    index.effective_shards(threads),
                    Kernel::Auto,
                ));
                if let Some(store) = &self.store {
                    store.save(spec, filter, &truth).map_err(persist_failed)?;
                }
                Tabulated::Level(truth)
            }
        };
        self.entries.insert(key, truth.clone());
        Ok((truth, TabulationSource::Computed))
    }
}

/// Lifetime tabulation-cache counters of a [`ReleaseEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TabulationStats {
    /// Tabulations actually computed (a full scan of the indexed dataset).
    pub computed: u64,
    /// Requests served from an in-memory cached tabulation.
    pub hits: u64,
    /// Requests served from the persistent truth store (a digest-verified
    /// load — zero recomputation, e.g. on season resume or from a sibling
    /// season that already tabulated the same `(spec, filter)`).
    pub disk_hits: u64,
}

/// The ledger-enforced release engine.
///
/// Owns a [`Ledger`]; every execution path charges it before sampling, so
/// the cumulative privacy loss of everything the engine has ever released
/// is `ledger().budget() - remaining`. A request that would overdraw the
/// ledger (or fails validation) is rejected *without* spending. One
/// release is admitted in one place, [`execute`](Self::execute): a
/// dry-run charge, then the truth, then the real charge, then sampling.
#[derive(Debug)]
pub struct ReleaseEngine {
    ledger: Ledger,
    threads: usize,
    tab_stats: TabulationStats,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl ReleaseEngine {
    /// Open an engine with a fresh ledger holding `budget`.
    pub fn new(budget: PrivacyParams) -> Self {
        Self::with_ledger(Ledger::new(budget))
    }

    /// Open an engine over an existing ledger (e.g. resumed mid-season).
    pub fn with_ledger(ledger: Ledger) -> Self {
        Self {
            ledger,
            threads: par::threads(),
            tab_stats: TabulationStats::default(),
            metrics: None,
        }
    }

    /// Attach a [`MetricsRegistry`]: every execution path then records
    /// admissions (with charged cost and wall latency), denials by
    /// [`LedgerError`](crate::accountant::LedgerError) reason, and
    /// tabulation-cache sources into it. Without a registry the engine
    /// records nothing and pays nothing.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Cap worker threads (`1` forces fully sequential execution; results
    /// are bit-identical at any setting).
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The engine's ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Lifetime tabulation-cache counters: how many truths were actually
    /// computed vs served from a cache, across every
    /// [`execute`](Self::execute) over [`TruthSource::Tabulate`] on this
    /// engine ([`execute_all`](Self::execute_all) batches included).
    pub fn tabulation_stats(&self) -> TabulationStats {
        self.tab_stats
    }

    /// Admit one release: validate `request` against `truth`, dry-run the
    /// charge, get the truth, charge the ledger, and sample.
    ///
    /// Validation refuses a flow request without a flow truth (a
    /// [`TruthSource::Flows`] or a [`Snapshot`] with a before quarter), a
    /// level or shapes request with a flow truth, and a precomputed truth
    /// whose spec differs from the request's. A refused request — invalid,
    /// or over budget — charges nothing and never reaches the cache or the
    /// truth store; a truth-store failure leaves no charge behind, because
    /// the real charge happens only once the truth is in hand, on the
    /// ledger state the dry run admitted.
    pub fn execute(
        &mut self,
        request: &ReleaseRequest,
        truth: TruthSource<'_>,
    ) -> Result<ReleaseArtifact, EngineError> {
        let started = Instant::now();
        let result = self.admit(request, truth);
        if let Some(registry) = &self.metrics {
            let family = registry.family(request.kind());
            match &result {
                Ok(artifact) => {
                    family.record_accepted(artifact.cost.epsilon, artifact.cost.delta);
                    let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                    family.latency.observe_micros(micros);
                }
                Err(error) => family.record_denied(denial_reason(error)),
            }
        }
        result
    }

    /// [`execute`](Self::execute) over an already tabulated level truth.
    /// The release-path benchmark calls this by name, so it stays.
    pub fn execute_precomputed(
        &mut self,
        truth: &Marginal,
        request: &ReleaseRequest,
    ) -> Result<ReleaseArtifact, EngineError> {
        self.execute(request, TruthSource::Marginal(truth))
    }

    fn admit(
        &mut self,
        request: &ReleaseRequest,
        truth: TruthSource<'_>,
    ) -> Result<ReleaseArtifact, EngineError> {
        let flows = request.kind == RequestKind::Flows;
        let supplied = match &truth {
            TruthSource::Tabulate { data, .. } if flows && data.before.is_none() => {
                return Err(EngineError::Flow {
                    detail: "flow requests tabulate a (before, after) pair — the snapshot \
                             carries no before quarter",
                });
            }
            TruthSource::Tabulate { .. } => None,
            TruthSource::Marginal(_) if flows => {
                return Err(EngineError::Flow {
                    detail: "flow requests sample a flow truth, not a level marginal",
                });
            }
            TruthSource::Flows(_) if !flows => {
                return Err(EngineError::Flow {
                    detail: "only flow requests may sample a flow truth",
                });
            }
            TruthSource::Marginal(truth) => Some(truth.spec()),
            TruthSource::Flows(truth) => Some(truth.spec()),
        };
        if let Some(supplied) = supplied.filter(|spec| *spec != &request.spec) {
            return Err(EngineError::SpecMismatch {
                requested: request.spec.name(),
                supplied: supplied.name(),
            });
        }
        let plan = request.plan()?;
        self.ledger.can_charge(&plan.per_cell, &plan.cost)?;
        let tabulated;
        let truth = match truth {
            TruthSource::Tabulate { data, cache } => {
                let (held, source) = cache.get_or_tabulate(data, request, self.threads)?;
                self.note_source(source);
                tabulated = held;
                tabulated.truth()
            }
            TruthSource::Marginal(truth) => Truth::Level(truth),
            TruthSource::Flows(truth) => Truth::Flows(truth),
        };
        self.ledger
            .charge(request.description(), &plan.per_cell, &plan.cost)
            .expect("dry-run admitted this charge on identical ledger state");
        Ok(self.sample(truth, request, &plan))
    }

    /// Execute a whole workload batch under this engine's single ledger:
    /// [`execute`](Self::execute) on each request in order, tabulating
    /// `dataset` through one [`TabulationCache`], so requests sharing a
    /// `(spec, filter)` share one tabulation.
    ///
    /// Budget accounting is strictly sequential in request order
    /// (sequential composition, Thm 7.3): a refused request consumes
    /// nothing, and later requests still run if they fit the remaining
    /// budget. Flow requests need a before quarter a batch does not
    /// carry, so they are refused.
    pub fn execute_all(
        &mut self,
        dataset: &Dataset,
        requests: &[ReleaseRequest],
    ) -> Vec<Result<ReleaseArtifact, EngineError>> {
        let (data, mut cache) = (Snapshot::of(dataset), TabulationCache::new());
        requests
            .iter()
            .map(|request| {
                let cache = &mut cache;
                self.execute(request, TruthSource::Tabulate { data, cache })
            })
            .collect()
    }

    /// Count one cached-tabulation source, mirrored into both the
    /// engine's [`TabulationStats`] and the attached registry.
    fn note_source(&mut self, source: TabulationSource) {
        match source {
            TabulationSource::Memory => self.tab_stats.hits += 1,
            TabulationSource::Disk => self.tab_stats.disk_hits += 1,
            TabulationSource::Computed => self.tab_stats.computed += 1,
        }
        if let Some(registry) = &self.metrics {
            match source {
                TabulationSource::Memory => registry.caches.truth_memory_hits.inc(),
                TabulationSource::Disk => registry.caches.truth_disk_hits.inc(),
                TabulationSource::Computed => registry.caches.truth_computed.inc(),
            }
        }
    }

    /// Sample an admitted release from its truth and wrap it in the one
    /// artifact shape every path returns. The payload follows the
    /// request's kind; the caller has already matched it to the truth.
    fn sample(
        &self,
        truth: Truth<'_>,
        request: &ReleaseRequest,
        plan: &ReleasePlan,
    ) -> ReleaseArtifact {
        let mechanism = plan
            .mechanism
            .build(&plan.per_cell)
            .expect("plan() validated mechanism parameters");
        let (seed, integerize, threads) = (request.seed, request.integerize, self.threads);
        let payload = match truth {
            Truth::Level(truth) if request.kind == RequestKind::Shapes => ArtifactPayload::Shapes(
                sample_shapes(truth, &*mechanism, seed, integerize, threads),
            ),
            Truth::Level(truth) => {
                ArtifactPayload::Cells(sample_cells(truth, &*mechanism, seed, integerize, threads))
            }
            Truth::Flows(truth) => ArtifactPayload::Flows(sample_flow_cells(
                truth,
                &*mechanism,
                seed,
                integerize,
                threads,
            )),
        };
        ReleaseArtifact {
            request: request.provenance(plan),
            regime: plan.regime,
            cost: plan.cost,
            mechanism_name: mechanism.name().to_string(),
            payload,
        }
    }
}

/// The metrics denial-reason slug for an engine refusal: ledger denials
/// carry their [`LedgerError`](crate::accountant::LedgerError) reason,
/// everything that never reached the ledger (validation, spec mismatch,
/// flow-kind misuse) folds into
/// [`REASON_REQUEST_INVALID`](crate::metrics::REASON_REQUEST_INVALID).
fn denial_reason(error: &EngineError) -> &'static str {
    match error {
        EngineError::Budget(ledger_error) => ledger_error.metric_reason(),
        _ => REASON_REQUEST_INVALID,
    }
}

/// Derive the independent noise seed of one cell from the request seed:
/// two SplitMix64 rounds over the key so neighbouring keys decorrelate.
/// A panel request's per-quarter seed is the same derivation over the
/// quarter index ([`panel_quarter_seed`](crate::agency::panel_quarter_seed)).
pub(crate) fn cell_seed(base: u64, key: u64) -> u64 {
    let mut state = base ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut step = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    step();
    step()
}

/// Saturate a non-finite value at `±f64::MAX`; finite values pass
/// through unchanged. JSON cannot carry `±∞`, so without this an admitted
/// (and charged) release could not be persisted.
fn saturate(value: f64) -> f64 {
    value.clamp(-f64::MAX, f64::MAX)
}

/// The one post-processing step every noised value passes through before
/// it is published. It is data-independent, so it costs no privacy.
/// Log-Laplace perturbs in log space, so a small per-cell ε can overflow
/// `exp` to `+∞`; the value saturates first, then integerization (when
/// requested) rounds it and clamps it at zero.
fn post_process(value: f64, integerize: bool) -> f64 {
    let value = saturate(value);
    if integerize {
        value.round().max(0.0)
    } else {
        value
    }
}

/// Map a release's cells (or shape groups) in order: through
/// [`par::map`] on up to `threads` threads from [`MIN_PARALLEL_CELLS`]
/// items up, inline below.
fn gated_map<T: Sync, U: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let parallel = items.len() >= MIN_PARALLEL_CELLS;
    par::map(items, if parallel { threads } else { 1 }, f)
}

/// The per-cell noise loop of level and flow releases: `release` noises
/// each cell from its own stream, seeded with `cell_seed(seed, key)`, so
/// the result is the same at any thread count.
fn noise_cells<S: Sync, R: Send>(
    cells: impl Iterator<Item = (CellKey, S)>,
    seed: u64,
    threads: usize,
    release: impl Fn(&S, &mut StdRng) -> R + Sync,
) -> BTreeMap<CellKey, R> {
    let cells: Vec<(CellKey, S)> = cells.collect();
    gated_map(&cells, threads, |(key, cell)| {
        let mut rng = StdRng::seed_from_u64(cell_seed(seed, key.0));
        (*key, release(cell, &mut rng))
    })
    .into_iter()
    .collect()
}

fn sample_cells(
    truth: &Marginal,
    mechanism: &(dyn CountMechanism + Sync),
    seed: u64,
    integerize: bool,
    threads: usize,
) -> BTreeMap<CellKey, f64> {
    let cells = truth
        .iter()
        .map(|(key, stats)| (key, CellQuery::from_stats(stats)));
    noise_cells(cells, seed, threads, |query, rng| {
        post_process(mechanism.release(query, rng), integerize)
    })
}

/// Noise one flow cell's three *released* statistics — beginning `B`, job
/// creation `JC`, job destruction `JD` — sequentially from the cell's one
/// derived RNG stream (each with its own smooth-sensitivity query:
/// `x_v` is that statistic's largest single-establishment contribution),
/// then derive ending employment `E = B + JC − JD` by post-processing, so
/// the accounting identity holds exactly in every published cell.
/// Integerization rounds and clamps the three noised statistics before `E`
/// is derived — never `E` itself, which may legitimately go negative.
fn sample_flow_cells(
    truth: &FlowMarginal,
    mechanism: &(dyn CountMechanism + Sync),
    seed: u64,
    integerize: bool,
    threads: usize,
) -> BTreeMap<CellKey, FlowRelease> {
    noise_cells(truth.iter(), seed, threads, |stats, rng| {
        // A zero-count statistic of an active cell still has x_v = 0;
        // the mechanisms need max(x_v, 1) just like Lemma 8.5's
        // max(x_v·α, 1) floor.
        let mut release = |count: u64, max_establishment: u32| {
            let query = CellQuery {
                count,
                max_establishment: max_establishment.max(1),
            };
            post_process(mechanism.release(&query, rng), integerize)
        };
        let beginning = release(stats.beginning, stats.max_beginning);
        let job_creation = release(stats.job_creation, stats.max_creation);
        let job_destruction = release(stats.job_destruction, stats.max_destruction);
        FlowRelease {
            beginning,
            job_creation,
            job_destruction,
            ending: saturate(beginning + job_creation - job_destruction),
        }
    })
}

fn sample_shapes(
    truth: &Marginal,
    mechanism: &(dyn CountMechanism + Sync),
    seed: u64,
    integerize: bool,
    threads: usize,
) -> Vec<ShapeRelease> {
    // `CellSchema` packs worker attributes into a key's low mixed-radix
    // digits, so `key / d` is the cell's workplace key and `key % d` its
    // worker class. Group the marginal's cells by their workplace key.
    let d = truth.spec().worker_domain_size();
    let mut groups: BTreeMap<u64, Vec<(CellKey, CellQuery)>> = BTreeMap::new();
    for (key, stats) in truth.iter() {
        groups
            .entry(key.0 / d as u64)
            .or_default()
            .push((key, CellQuery::from_stats(stats)));
    }
    let groups: Vec<(u64, Vec<(CellKey, CellQuery)>)> = groups.into_iter().collect();
    gated_map(&groups, threads, |(wp_key, cells)| {
        let mut sub_counts = vec![0.0; d];
        for (key, query) in cells {
            // True-zero classes are not released (sparse-publication
            // convention); their noisy value stays 0. The full key pins
            // the cell's independent noise stream.
            let mut rng = StdRng::seed_from_u64(cell_seed(seed, key.0));
            let value = mechanism.release(query, &mut rng).max(0.0);
            sub_counts[(key.0 % d as u64) as usize] = post_process(value, integerize);
        }
        // Derived from the saturated counts, and saturated the same way:
        // every count is finite and non-negative, so each fraction is too.
        let total = saturate(sub_counts.iter().sum());
        let fractions = if total > 0.0 {
            sub_counts.iter().map(|&c| c / total).collect()
        } else {
            vec![0.0; d]
        };
        ShapeRelease {
            cell: CellKey(*wp_key),
            fractions,
            sub_counts,
            total,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodes::{Generator, GeneratorConfig};
    use tabulate::{compute_marginal, workload1, workload3};

    fn dataset() -> Dataset {
        Generator::new(GeneratorConfig::test_small(91)).generate()
    }

    /// One-shot call shapes: [`ReleaseEngine::execute`] tabulating
    /// through a fresh memory-only cache.
    trait ExecuteOn {
        fn execute_on(
            &mut self,
            d: &Dataset,
            request: &ReleaseRequest,
        ) -> Result<ReleaseArtifact, EngineError>;

        fn execute_pair(
            &mut self,
            before: &Dataset,
            after: &Dataset,
            request: &ReleaseRequest,
        ) -> Result<ReleaseArtifact, EngineError>;
    }

    impl ExecuteOn for ReleaseEngine {
        fn execute_on(
            &mut self,
            d: &Dataset,
            request: &ReleaseRequest,
        ) -> Result<ReleaseArtifact, EngineError> {
            let cache = &mut TabulationCache::new();
            self.execute(
                request,
                TruthSource::Tabulate {
                    data: Snapshot::of(d),
                    cache,
                },
            )
        }

        fn execute_pair(
            &mut self,
            before: &Dataset,
            after: &Dataset,
            request: &ReleaseRequest,
        ) -> Result<ReleaseArtifact, EngineError> {
            let data = Snapshot::of(after).after(Snapshot::of(before));
            let cache = &mut TabulationCache::new();
            self.execute(request, TruthSource::Tabulate { data, cache })
        }
    }

    #[test]
    fn builder_requires_mechanism_and_budget() {
        let err = ReleaseRequest::marginal(workload1()).plan().unwrap_err();
        assert_eq!(
            err,
            EngineError::IncompleteRequest {
                missing: "mechanism"
            }
        );
        let err = ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::SmoothGamma)
            .plan()
            .unwrap_err();
        assert_eq!(err, EngineError::IncompleteRequest { missing: "budget" });
    }

    #[test]
    fn regimes_follow_spec_and_filter() {
        let plain = ReleaseRequest::marginal(workload1());
        assert_eq!(plain.regime(), NeighborKind::Strong);
        let filtered =
            ReleaseRequest::marginal(workload1()).filter_expr(FilterExpr::sex(lodes::Sex::Female));
        assert_eq!(filtered.regime(), NeighborKind::Weak);
        assert_eq!(
            ReleaseRequest::marginal(workload3()).regime(),
            NeighborKind::Weak
        );
        assert_eq!(
            ReleaseRequest::shapes(workload3()).regime(),
            NeighborKind::Weak
        );
    }

    #[test]
    fn execute_charges_exactly_the_cost() {
        let d = dataset();
        let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 4.0));
        let artifact = engine
            .execute_on(
                &d,
                &ReleaseRequest::marginal(workload1())
                    .mechanism(MechanismKind::SmoothGamma)
                    .budget(PrivacyParams::pure(0.1, 2.0))
                    .seed(5),
            )
            .unwrap();
        assert_eq!(artifact.cost.multiplier, 1);
        assert!((artifact.cost.per_cell_epsilon - 2.0).abs() < 1e-12);
        assert!((engine.ledger().remaining_epsilon() - 2.0).abs() < 1e-12);
        assert_eq!(artifact.regime, NeighborKind::Strong);
        let cells = artifact.cells().expect("marginal payload");
        let truth = compute_marginal(&d, &workload1());
        assert_eq!(cells.len(), truth.num_cells());
    }

    #[test]
    fn rejected_requests_spend_nothing() {
        let d = dataset();
        let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 1.0));
        // Over budget.
        let err = engine
            .execute_on(
                &d,
                &ReleaseRequest::marginal(workload1())
                    .mechanism(MechanismKind::SmoothGamma)
                    .budget(PrivacyParams::pure(0.1, 2.0)),
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::Budget(_)));
        assert!((engine.ledger().remaining_epsilon() - 1.0).abs() < 1e-12);
        // Invalid mechanism parameters: rejected before charging.
        let err = engine
            .execute_on(
                &d,
                &ReleaseRequest::marginal(workload1())
                    .mechanism(MechanismKind::SmoothGamma)
                    .budget(PrivacyParams::pure(0.1, 0.2)),
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidParameters { .. }));
        assert!((engine.ledger().remaining_epsilon() - 1.0).abs() < 1e-12);
        assert!(engine.ledger().entries().is_empty());
    }

    #[test]
    fn parameter_validity_follows_the_per_cell_split() {
        let d = dataset();
        let release = |mechanism: MechanismKind, spec: MarginalSpec, budget: PrivacyParams| {
            ReleaseEngine::new(budget).execute_on(
                &d,
                &ReleaseRequest::marginal(spec)
                    .mechanism(mechanism)
                    .budget(budget)
                    .seed(3),
            )
        };
        // Smooth Gamma at alpha = 0.2 needs eps > 5 ln(1.2) ≈ 0.91 per
        // cell: workload 3's 8-way split of 8.0 leaves 1.0 (valid), of
        // 4.0 leaves 0.5 (refused, not fudged).
        let smooth_gamma = MechanismKind::SmoothGamma;
        assert!(release(smooth_gamma, workload3(), PrivacyParams::pure(0.2, 8.0)).is_ok());
        let err = release(smooth_gamma, workload3(), PrivacyParams::pure(0.2, 4.0)).unwrap_err();
        assert!(matches!(err, EngineError::InvalidParameters { .. }));
        assert!(!err.to_string().is_empty());
        // Smooth Laplace needs delta > 0.
        let smooth_laplace = MechanismKind::SmoothLaplace;
        assert!(release(smooth_laplace, workload1(), PrivacyParams::pure(0.1, 2.0)).is_err());
        let approximate = PrivacyParams::approximate(0.1, 2.0, 0.05);
        assert!(release(smooth_laplace, workload1(), approximate).is_ok());
    }

    #[test]
    fn releases_are_deterministic_in_seed_and_sharpen_with_epsilon() {
        let d = dataset();
        let truth = compute_marginal(&d, &workload1());
        let release = |epsilon: f64, seed: u64| {
            let budget = PrivacyParams::approximate(0.1, epsilon, 0.05);
            ReleaseEngine::new(budget)
                .execute_on(
                    &d,
                    &ReleaseRequest::marginal(workload1())
                        .mechanism(MechanismKind::SmoothLaplace)
                        .budget(budget)
                        .seed(seed),
                )
                .unwrap()
        };
        assert_eq!(release(2.0, 42), release(2.0, 42));
        assert_ne!(release(2.0, 42).payload, release(2.0, 43).payload);
        let l1 = |epsilon: f64| release(epsilon, 7).l1_error_against(&truth).unwrap();
        assert!(l1(8.0) < l1(1.0), "error must grow as epsilon shrinks");
    }

    #[test]
    fn l1_error_refuses_missing_cells() {
        let d = dataset();
        let truth = compute_marginal(&d, &workload1());
        let mut artifact = ReleaseEngine::new(PrivacyParams::pure(0.1, 2.0))
            .execute_on(
                &d,
                &ReleaseRequest::marginal(workload1())
                    .mechanism(MechanismKind::SmoothGamma)
                    .budget(PrivacyParams::pure(0.1, 2.0))
                    .seed(9),
            )
            .unwrap();
        assert!(artifact.l1_error_against(&truth).is_ok());
        let ArtifactPayload::Cells(cells) = &mut artifact.payload else {
            panic!("marginal payload");
        };
        let dropped = *cells.keys().next().expect("nonempty release");
        cells.remove(&dropped);
        assert_eq!(
            artifact.l1_error_against(&truth).unwrap_err(),
            EngineError::MissingCell { key: dropped.0 }
        );
    }

    #[test]
    fn execute_all_is_deterministic_across_parallelism() {
        let d = dataset();
        let requests = vec![
            ReleaseRequest::marginal(workload1())
                .mechanism(MechanismKind::SmoothGamma)
                .budget(PrivacyParams::pure(0.1, 2.0))
                .seed(11),
            ReleaseRequest::marginal(workload3())
                .mechanism(MechanismKind::LogLaplace)
                .budget(PrivacyParams::pure(0.1, 8.0))
                .seed(12),
            ReleaseRequest::shapes(workload3())
                .mechanism(MechanismKind::SmoothLaplace)
                .budget(PrivacyParams::approximate(0.1, 16.0, 0.05))
                .seed(13),
        ];
        let run = |threads: usize| {
            let mut engine = ReleaseEngine::new(PrivacyParams::approximate(0.1, 26.0, 0.05))
                .with_parallelism(threads);
            engine.execute_all(&d, &requests)
        };
        let sequential = run(1);
        let parallel = run(8);
        assert_eq!(sequential.len(), 3);
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.as_ref().unwrap(), p.as_ref().unwrap());
        }
        // Single-request execution with cell parallelism agrees too.
        let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 2.0)).with_parallelism(8);
        let single = engine.execute_on(&d, &requests[0]).unwrap();
        assert_eq!(&single, sequential[0].as_ref().unwrap());
    }

    /// A batch is [`ReleaseEngine::execute`] over one cache, request by
    /// request: the same artifacts, ledger, tabulation counts, refusals
    /// and metrics — one latency observation per admitted release
    /// included.
    #[test]
    fn execute_all_is_execute_over_one_cache() {
        let d = dataset();
        let batch = [
            ReleaseRequest::marginal(workload1())
                .mechanism(MechanismKind::SmoothGamma)
                .budget(PrivacyParams::pure(0.1, 2.0))
                .seed(1),
            // Shares the first request's marginal.
            ReleaseRequest::marginal(workload1())
                .mechanism(MechanismKind::LogLaplace)
                .budget(PrivacyParams::pure(0.1, 1.0))
                .seed(2),
            ReleaseRequest::marginal(workload3())
                .mechanism(MechanismKind::LogLaplace)
                .budget(PrivacyParams::pure(0.1, 8.0))
                .seed(3),
            ReleaseRequest::shapes(workload3())
                .mechanism(MechanismKind::SmoothLaplace)
                .budget(PrivacyParams::approximate(0.1, 16.0, 0.05))
                .seed(4),
            // More than the 3.0 left: refused, nothing spent.
            ReleaseRequest::marginal(workload1())
                .mechanism(MechanismKind::SmoothGamma)
                .budget(PrivacyParams::pure(0.1, 50.0))
                .seed(5),
            // A batch carries no before quarter.
            flow_request(),
        ];
        let engine = |registry: &Arc<MetricsRegistry>| {
            ReleaseEngine::new(PrivacyParams::approximate(0.1, 30.0, 0.1))
                .with_metrics(Arc::clone(registry))
        };
        let (batch_metrics, loop_metrics) = (
            Arc::new(MetricsRegistry::new()),
            Arc::new(MetricsRegistry::new()),
        );
        let mut batched = engine(&batch_metrics);
        let batch_outcomes = batched.execute_all(&d, &batch);
        let mut looped = engine(&loop_metrics);
        let mut cache = TabulationCache::new();
        let data = Snapshot::of(&d);
        let loop_outcomes: Vec<_> = batch
            .iter()
            .map(|request| {
                looped.execute(
                    request,
                    TruthSource::Tabulate {
                        data,
                        cache: &mut cache,
                    },
                )
            })
            .collect();

        // The same artifacts and the same refusals (by kind: a refusal's
        // text may word the path it came through).
        type Outcome<'a> = Result<&'a ReleaseArtifact, std::mem::Discriminant<EngineError>>;
        fn outcomes(outcomes: &[Result<ReleaseArtifact, EngineError>]) -> Vec<Outcome<'_>> {
            outcomes
                .iter()
                .map(|o| o.as_ref().map_err(std::mem::discriminant))
                .collect()
        }
        assert_eq!(outcomes(&batch_outcomes), outcomes(&loop_outcomes));
        assert_eq!(
            batch_outcomes.iter().map(Result::is_ok).collect::<Vec<_>>(),
            [true, true, true, true, false, false]
        );
        assert!(matches!(
            batch_outcomes[4],
            Err(EngineError::Budget(
                crate::accountant::LedgerError::EpsilonExhausted { .. }
            ))
        ));
        assert!(matches!(batch_outcomes[5], Err(EngineError::Flow { .. })));
        let entries = |engine: &ReleaseEngine| -> Vec<(String, f64, f64)> {
            engine
                .ledger()
                .entries()
                .iter()
                .map(|e| (e.description.clone(), e.epsilon, e.delta))
                .collect()
        };
        assert_eq!(entries(&batched), entries(&looped));
        assert_eq!(entries(&batched).len(), 4);
        assert_eq!(batched.tabulation_stats(), looped.tabulation_stats());
        assert_eq!(
            batched.tabulation_stats(),
            TabulationStats {
                computed: 2,
                hits: 2,
                disk_hits: 0,
            }
        );

        let (batch_snapshot, loop_snapshot) = (batch_metrics.snapshot(), loop_metrics.snapshot());
        assert_eq!(batch_snapshot.caches, loop_snapshot.caches);
        for (b, l) in batch_snapshot.families.iter().zip(&loop_snapshot.families) {
            assert_eq!(b.family, l.family);
            assert_eq!(
                (b.accepted_total, b.denied_total, &b.denied_by_reason),
                (l.accepted_total, l.denied_total, &l.denied_by_reason),
                "{} counts",
                b.family
            );
            assert_eq!(
                (b.epsilon_spent, b.delta_spent),
                (l.epsilon_spent, l.delta_spent)
            );
            for family in [b, l] {
                assert_eq!(
                    family.latency.count, family.accepted_total,
                    "{}: one latency observation per admitted release",
                    family.family
                );
            }
        }
        let accepted: Vec<u64> = batch_snapshot
            .families
            .iter()
            .map(|f| f.accepted_total)
            .collect();
        assert_eq!(accepted, [3, 1, 0], "marginal, shapes, flows");
    }

    #[test]
    fn batch_skips_overdraws_but_keeps_later_requests() {
        let d = dataset();
        let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 3.0));
        let outcomes = engine.execute_all(
            &d,
            &[
                ReleaseRequest::marginal(workload1())
                    .mechanism(MechanismKind::SmoothGamma)
                    .budget(PrivacyParams::pure(0.1, 2.0))
                    .seed(1),
                // 2.0 > remaining 1.0: rejected, nothing spent.
                ReleaseRequest::marginal(workload1())
                    .mechanism(MechanismKind::SmoothGamma)
                    .budget(PrivacyParams::pure(0.1, 2.0))
                    .seed(2),
                // Exactly the remaining 1.0: admitted.
                ReleaseRequest::marginal(workload1())
                    .mechanism(MechanismKind::LogLaplace)
                    .budget(PrivacyParams::pure(0.1, 1.0))
                    .seed(3),
            ],
        );
        assert!(outcomes[0].is_ok());
        assert!(matches!(
            outcomes[1],
            Err(EngineError::Budget(
                crate::accountant::LedgerError::EpsilonExhausted { .. }
            ))
        ));
        assert!(outcomes[2].is_ok());
        assert!(engine.ledger().remaining_epsilon() < 1e-9);
        assert_eq!(engine.ledger().entries().len(), 2);
    }

    #[test]
    fn batch_sharing_one_marginal_tabulates_it_once() {
        let d = dataset();
        let requests: Vec<ReleaseRequest> = (0..4)
            .map(|i| {
                ReleaseRequest::marginal(workload1())
                    .mechanism(MechanismKind::LogLaplace)
                    .budget(PrivacyParams::pure(0.1, 1.0))
                    .seed(i)
            })
            .collect();
        let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 4.0));
        let outcomes = engine.execute_all(&d, &requests);
        assert!(outcomes.iter().all(Result::is_ok));
        let stats = engine.tabulation_stats();
        assert_eq!(stats.computed, 1, "one distinct marginal, one tabulation");
        assert_eq!(stats.hits, 3, "the other three requests share it");
        // A mixed batch still tabulates each distinct spec exactly once.
        let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 10.0));
        let mixed = vec![
            requests[0].clone(),
            ReleaseRequest::marginal(workload3())
                .mechanism(MechanismKind::LogLaplace)
                .budget(PrivacyParams::pure(0.1, 8.0))
                .seed(9),
            requests[1].clone(),
        ];
        let outcomes = engine.execute_all(&d, &mixed);
        assert!(outcomes.iter().all(Result::is_ok));
        assert_eq!(engine.tabulation_stats().computed, 2);
        assert_eq!(engine.tabulation_stats().hits, 1);
    }

    #[test]
    fn cached_execution_matches_uncached_and_counts_hits() {
        let d = dataset();
        let r1 = ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .seed(31);
        let r2 = ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .seed(32);
        let data = Snapshot::of(&d);
        let mut cached = ReleaseEngine::new(PrivacyParams::pure(0.1, 3.0));
        let mut cache = TabulationCache::new();
        let a1 = cached
            .execute(
                &r1,
                TruthSource::Tabulate {
                    data,
                    cache: &mut cache,
                },
            )
            .unwrap();
        let a2 = cached
            .execute(
                &r2,
                TruthSource::Tabulate {
                    data,
                    cache: &mut cache,
                },
            )
            .unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cached.tabulation_stats().computed, 1);
        assert_eq!(cached.tabulation_stats().hits, 1);
        // Bit-identical to the uncached path.
        let mut plain = ReleaseEngine::new(PrivacyParams::pure(0.1, 3.0));
        assert_eq!(plain.execute_on(&d, &r1).unwrap(), a1);
        assert_eq!(plain.execute_on(&d, &r2).unwrap(), a2);
        // A rejected request never touches the cache or the stats.
        let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 0.5));
        let mut cache = TabulationCache::new();
        assert!(engine
            .execute(
                &r1,
                TruthSource::Tabulate {
                    data,
                    cache: &mut cache
                }
            )
            .is_err());
        assert!(cache.is_empty());
        assert_eq!(engine.tabulation_stats(), TabulationStats::default());
    }

    /// A cache serves one snapshot: a different dataset, or a different
    /// before quarter than the first one it paired, is refused before
    /// anything is charged.
    #[test]
    fn tabulation_cache_refuses_a_second_snapshot() {
        let (before, after) = quarter_pair();
        let level = ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .seed(5);
        let flows = ReleaseRequest::flows(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .seed(6);
        let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 4.0));
        let mut cache = TabulationCache::new();
        let mut run = |request: &ReleaseRequest, data: Snapshot<'_>| {
            let outcome = engine.execute(
                request,
                TruthSource::Tabulate {
                    data,
                    cache: &mut cache,
                },
            );
            (outcome, engine.ledger().entries().len())
        };
        let pair = Snapshot::of(&after).after(Snapshot::of(&before));
        assert!(matches!(run(&level, pair), (Ok(_), 1)));
        assert!(matches!(
            run(&level, Snapshot::of(&before)),
            (Err(EngineError::TruthStore { .. }), 1)
        ));
        assert!(matches!(run(&flows, pair), (Ok(_), 2)));
        let swapped = Snapshot::of(&after).after(Snapshot::of(&after));
        assert!(matches!(
            run(&flows, swapped),
            (Err(EngineError::TruthStore { .. }), 2)
        ));
    }

    /// A season run over the per-state layout releases bit-identical
    /// artifacts (same truths, same draws, same digests) as the one-shard
    /// layout — the layout is a pure representation choice.
    #[test]
    fn sharded_index_seasons_release_bit_identical_artifacts() {
        let d = dataset();
        let requests = [
            ReleaseRequest::marginal(workload1())
                .mechanism(MechanismKind::SmoothGamma)
                .budget(PrivacyParams::pure(0.1, 2.0))
                .seed(41),
            ReleaseRequest::marginal(workload3())
                .filter_expr(FilterExpr::sex(lodes::Sex::Female))
                .mechanism(MechanismKind::LogLaplace)
                .budget(PrivacyParams::pure(0.1, 1.0))
                .seed(42),
        ];
        let flat_index = DatasetIndex::build_with_threshold(&d, usize::MAX);
        let sharded_index = DatasetIndex::build_with_threshold(&d, 1);
        assert!(!flat_index.is_per_state());
        assert!(sharded_index.is_per_state());
        let mut flat_engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 4.0));
        let mut flat_cache =
            TabulationCache::new().with_shared_index(Arc::new(OnceLock::from(flat_index)));
        let mut sharded_engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 4.0));
        let mut sharded_cache =
            TabulationCache::new().with_shared_index(Arc::new(OnceLock::from(sharded_index)));
        let data = Snapshot::of(&d);
        for request in &requests {
            let flat = flat_engine
                .execute(
                    request,
                    TruthSource::Tabulate {
                        data,
                        cache: &mut flat_cache,
                    },
                )
                .unwrap();
            let sharded = sharded_engine
                .execute(
                    request,
                    TruthSource::Tabulate {
                        data,
                        cache: &mut sharded_cache,
                    },
                )
                .unwrap();
            assert_eq!(flat, sharded);
        }
    }

    /// A shared index slot is filled only by a request that misses both
    /// the memory tier and the truth store, and then serves every cache
    /// sharing it without another build.
    #[test]
    fn shared_index_slot_is_filled_only_by_a_tabulation() {
        let d = dataset();
        let data = Snapshot::of(&d);
        let dir = std::env::temp_dir().join(format!(
            "eree-engine-unit-index-slot-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let truths = || crate::truths::TruthStore::open(&dir, data.digest()).unwrap();
        let request = |spec, seed| {
            ReleaseRequest::marginal(spec)
                .mechanism(MechanismKind::LogLaplace)
                .budget(PrivacyParams::pure(0.1, 1.0))
                .seed(seed)
        };
        let (stored, fresh) = (request(workload1(), 1), request(workload3(), 2));
        let release = |cache: &mut TabulationCache, request: &ReleaseRequest| {
            let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 4.0));
            let artifact = engine
                .execute(request, TruthSource::Tabulate { data, cache })
                .unwrap();
            (
                serde_json::to_string(&artifact).unwrap(),
                engine.tabulation_stats(),
            )
        };
        // `stored`'s truth is on disk before the shared slot exists.
        release(&mut TabulationCache::with_store(truths()), &stored);

        let slot = Arc::new(OnceLock::new());
        let mut cache = TabulationCache::with_store(truths()).with_shared_index(Arc::clone(&slot));
        let (_, stats) = release(&mut cache, &stored);
        assert_eq!((stats.disk_hits, stats.computed), (1, 0));
        assert!(slot.get().is_none(), "a truth-disk hit builds no index");
        let (_, stats) = release(&mut cache, &stored);
        assert_eq!((stats.hits, stats.computed), (1, 0));
        assert!(slot.get().is_none(), "a memory hit builds no index");
        let (first, stats) = release(&mut cache, &fresh);
        assert_eq!(stats.computed, 1);
        let built: *const DatasetIndex = slot.get().expect("the first miss fills the slot");

        // A second cache on the slot tabulates over the same build.
        let mut sibling = TabulationCache::new().with_shared_index(Arc::clone(&slot));
        let (second, stats) = release(&mut sibling, &fresh);
        assert_eq!(stats.computed, 1);
        assert!(std::ptr::eq(slot.get().unwrap(), built));

        // Both release the bytes a cache handed a prebuilt index does.
        let prebuilt = Arc::new(OnceLock::from(DatasetIndex::build_auto(&d)));
        let mut handed = TabulationCache::new().with_shared_index(prebuilt);
        let (expected, _) = release(&mut handed, &fresh);
        assert_eq!(first, expected);
        assert_eq!(second, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn structurally_equal_filter_exprs_share_one_tabulation() {
        use lodes::{Education, Sex};
        let d = dataset();
        // Two *separately constructed* — but structurally equal —
        // expressions: no Arc reuse, no pointer identity.
        let ranking2 = || {
            FilterExpr::sex(Sex::Female)
                .and(FilterExpr::education_at_least(Education::BachelorOrHigher))
        };
        let requests = vec![
            ReleaseRequest::marginal(workload1())
                .mechanism(MechanismKind::SmoothGamma)
                .budget(PrivacyParams::pure(0.1, 2.0))
                .filter_expr(ranking2())
                .seed(1),
            ReleaseRequest::marginal(workload1())
                .mechanism(MechanismKind::LogLaplace)
                .budget(PrivacyParams::pure(0.1, 1.0))
                .filter_expr(ranking2())
                .seed(2),
        ];
        let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 3.0));
        let outcomes = engine.execute_all(&d, &requests);
        assert!(outcomes.iter().all(Result::is_ok));
        assert_eq!(engine.tabulation_stats().computed, 1);
        assert_eq!(engine.tabulation_stats().hits, 1);
        // The caller-owned cache shares by digest the same way.
        let data = Snapshot::of(&d);
        let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 3.0));
        let mut cache = TabulationCache::new();
        let a0 = engine
            .execute(
                &requests[0],
                TruthSource::Tabulate {
                    data,
                    cache: &mut cache,
                },
            )
            .unwrap();
        let a1 = engine
            .execute(
                &requests[1],
                TruthSource::Tabulate {
                    data,
                    cache: &mut cache,
                },
            )
            .unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(engine.tabulation_stats().hits, 1);
        assert_eq!(outcomes[0].as_ref().unwrap(), &a0);
        assert_eq!(outcomes[1].as_ref().unwrap(), &a1);
        // A structurally different filter does not share.
        let mut other = ReleaseEngine::new(PrivacyParams::pure(0.1, 1.0));
        other
            .execute(
                &ReleaseRequest::marginal(workload1())
                    .mechanism(MechanismKind::LogLaplace)
                    .budget(PrivacyParams::pure(0.1, 1.0))
                    .filter_expr(FilterExpr::sex(Sex::Female))
                    .seed(3),
                TruthSource::Tabulate {
                    data,
                    cache: &mut cache,
                },
            )
            .unwrap();
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn provenance_json_round_trips_with_its_filter() {
        for filter in [None, Some(FilterExpr::sex(lodes::Sex::Female))] {
            let mut request = ReleaseRequest::marginal(workload1())
                .mechanism(MechanismKind::SmoothGamma)
                .budget(PrivacyParams::pure(0.1, 2.0))
                .seed(7);
            if let Some(expr) = filter.clone() {
                request = request.filter_expr(expr);
            }
            let fresh = request.provenance(&request.plan().unwrap());
            assert_eq!(fresh.filter, filter);
            let json = serde_json::to_string(&fresh).unwrap();
            let back: RequestProvenance = serde_json::from_str(&json).unwrap();
            assert_eq!(back, fresh);
            assert_eq!(back.filter_id(), filter.as_ref().map(FilterExpr::id));
        }
    }

    #[test]
    fn precomputed_path_matches_dataset_path() {
        let d = dataset();
        let truth = compute_marginal(&d, &workload1());
        let request = ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .seed(21);
        let mut e1 = ReleaseEngine::new(PrivacyParams::pure(0.1, 2.0));
        let mut e2 = ReleaseEngine::new(PrivacyParams::pure(0.1, 2.0));
        let a = e1.execute_on(&d, &request).unwrap();
        let b = e2.execute_precomputed(&truth, &request).unwrap();
        assert_eq!(a, b);
        // Spec mismatch is caught.
        let err = e2
            .execute_precomputed(
                &truth,
                &ReleaseRequest::marginal(workload3())
                    .mechanism(MechanismKind::SmoothGamma)
                    .budget(PrivacyParams::pure(0.1, 2.0)),
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::SpecMismatch { .. }));
    }

    #[test]
    fn integerize_rounds_and_clamps() {
        let d = dataset();
        let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.5, 1.0));
        let artifact = engine
            .execute_on(
                &d,
                &ReleaseRequest::marginal(workload1())
                    .mechanism(MechanismKind::LogLaplace)
                    .budget(PrivacyParams::pure(0.5, 1.0))
                    .integerize(true)
                    .seed(3),
            )
            .unwrap();
        for &v in artifact.cells().unwrap().values() {
            assert!(v >= 0.0 && v.fract() == 0.0, "non-integer value {v}");
        }
        assert!(artifact.request.integerized);
    }

    #[test]
    fn per_cell_budgeting_charges_the_induced_total() {
        let d = dataset();
        // Workload 3 under weak composition: per-cell 1.0 -> total 8.0.
        let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 8.0));
        let artifact = engine
            .execute_on(
                &d,
                &ReleaseRequest::marginal(workload3())
                    .mechanism(MechanismKind::LogLaplace)
                    .budget_per_cell(PrivacyParams::pure(0.1, 1.0))
                    .seed(1),
            )
            .unwrap();
        assert_eq!(artifact.cost.multiplier, 8);
        assert!((artifact.cost.epsilon - 8.0).abs() < 1e-12);
        assert!((artifact.cost.per_cell_epsilon - 1.0).abs() < 1e-12);
        assert!(engine.ledger().remaining_epsilon() < 1e-9);
        assert!(artifact.request.budget_is_per_cell);
    }

    #[test]
    fn shapes_request_needs_worker_attributes() {
        let err = ReleaseRequest::shapes(workload1())
            .mechanism(MechanismKind::SmoothLaplace)
            .budget(PrivacyParams::approximate(0.1, 16.0, 0.05))
            .plan()
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::Shape(crate::shape::ShapeError::NoWorkerAttributes)
        );
    }

    fn quarter_pair() -> (Dataset, Dataset) {
        let panel = lodes::DatasetPanel::generate(
            &GeneratorConfig::test_small(91),
            &lodes::PanelConfig {
                quarters: 2,
                growth_sigma: 0.1,
                death_rate: 0.05,
                seed: 23,
            },
        );
        (panel.quarter(0).clone(), panel.quarter(1).clone())
    }

    fn flow_request() -> ReleaseRequest {
        ReleaseRequest::flows(workload1())
            .mechanism(MechanismKind::SmoothLaplace)
            .budget(PrivacyParams::approximate(0.1, 6.0, 0.06))
            .seed(77)
    }

    #[test]
    fn flow_release_charges_triple_and_keeps_the_identity() {
        let (before, after) = quarter_pair();
        let mut engine = ReleaseEngine::new(PrivacyParams::approximate(0.1, 6.0, 0.06));
        let artifact = engine
            .execute_pair(&before, &after, &flow_request())
            .unwrap();
        // B, JC, JD are separate sequential charges; E is post-processing.
        assert_eq!(artifact.cost.multiplier, ReleaseCost::FLOW_STATISTICS);
        assert!((artifact.cost.per_cell_epsilon - 2.0).abs() < 1e-12);
        assert!((engine.ledger().remaining_epsilon() - 0.0).abs() < 1e-12);
        assert_eq!(artifact.regime, NeighborKind::Strong);
        let truth = tabulate::compute_flows(&before, &after, &workload1());
        let flows = artifact.flows().expect("flow payload");
        assert_eq!(flows.len(), truth.num_cells());
        for release in flows.values() {
            let derived = release.beginning + release.job_creation - release.job_destruction;
            assert!((release.ending - derived).abs() < 1e-9);
        }
    }

    #[test]
    fn flow_requests_are_refused_on_single_snapshot_paths() {
        let (before, after) = quarter_pair();
        let mut engine = ReleaseEngine::new(PrivacyParams::approximate(0.1, 20.0, 0.2));
        let request = flow_request();
        let mut cache = TabulationCache::new();
        assert!(matches!(
            engine
                .execute(
                    &request,
                    TruthSource::Tabulate {
                        data: Snapshot::of(&after),
                        cache: &mut cache,
                    },
                )
                .unwrap_err(),
            EngineError::Flow { .. }
        ));
        assert!(cache.is_empty(), "a refusal never reaches the cache");
        let level_truth = compute_marginal(&after, &workload1());
        assert!(matches!(
            engine
                .execute(&request, TruthSource::Marginal(&level_truth))
                .unwrap_err(),
            EngineError::Flow { .. }
        ));
        let outcomes = engine.execute_all(&after, std::slice::from_ref(&request));
        assert!(matches!(outcomes[0], Err(EngineError::Flow { .. })));
        // And the mirror: a level request may not sample a flow truth.
        let level = ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 2.0));
        let flow_truth = tabulate::compute_flows(&before, &after, &workload1());
        assert!(matches!(
            engine
                .execute(&level, TruthSource::Flows(&flow_truth))
                .unwrap_err(),
            EngineError::Flow { .. }
        ));
        // Nothing above spent budget.
        assert!(engine.ledger().entries().is_empty());
    }

    #[test]
    fn worker_attr_flow_specs_are_rejected_at_planning() {
        let err = ReleaseRequest::flows(workload3())
            .mechanism(MechanismKind::SmoothLaplace)
            .budget(PrivacyParams::approximate(0.1, 6.0, 0.06))
            .plan()
            .unwrap_err();
        assert!(matches!(err, EngineError::Flow { .. }));
    }

    #[test]
    fn cached_flow_execution_is_bit_identical_and_counts_hits() {
        let (before, after) = quarter_pair();
        let budget = PrivacyParams::approximate(0.1, 12.0, 0.12);
        let request = flow_request();

        let mut direct_engine = ReleaseEngine::new(budget);
        let direct = direct_engine
            .execute_pair(&before, &after, &request)
            .unwrap();

        let data = Snapshot::of(&after).after(Snapshot::of(&before));
        let mut engine = ReleaseEngine::new(budget);
        let mut cache = TabulationCache::new();
        let first = engine
            .execute(
                &request,
                TruthSource::Tabulate {
                    data,
                    cache: &mut cache,
                },
            )
            .unwrap();
        let second = engine
            .execute(
                &request.clone().seed(78),
                TruthSource::Tabulate {
                    data,
                    cache: &mut cache,
                },
            )
            .unwrap();
        assert_eq!(first, direct);
        assert_ne!(first.payload, second.payload, "different seeds re-noise");
        let stats = engine.tabulation_stats();
        assert_eq!(stats.computed, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn precomputed_flow_execution_matches_and_checks_spec() {
        let (before, after) = quarter_pair();
        let truth = tabulate::compute_flows(&before, &after, &workload1());
        let budget = PrivacyParams::approximate(0.1, 6.0, 0.06);

        let mut direct_engine = ReleaseEngine::new(budget);
        let direct = direct_engine
            .execute_pair(&before, &after, &flow_request())
            .unwrap();
        let mut engine = ReleaseEngine::new(budget);
        let from_truth = engine
            .execute(&flow_request(), TruthSource::Flows(&truth))
            .unwrap();
        assert_eq!(from_truth, direct);

        let other_spec = MarginalSpec::new(vec![tabulate::WorkplaceAttr::County], vec![]);
        let err = ReleaseEngine::new(budget)
            .execute(
                &ReleaseRequest::flows(other_spec)
                    .mechanism(MechanismKind::SmoothLaplace)
                    .budget(budget),
                TruthSource::Flows(&truth),
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::SpecMismatch { .. }));
    }

    #[test]
    fn filtered_flow_requests_price_weak_and_restrict_both_sides() {
        let (before, after) = quarter_pair();
        let expr = FilterExpr::sex(lodes::Sex::Female);
        let request = ReleaseRequest::flows(workload1())
            .filter_expr(expr.clone())
            .mechanism(MechanismKind::SmoothLaplace)
            .budget(PrivacyParams::approximate(0.1, 6.0, 0.06))
            .seed(101);
        assert_eq!(request.regime(), NeighborKind::Weak);
        let mut engine = ReleaseEngine::new(PrivacyParams::approximate(0.1, 6.0, 0.06));
        let artifact = engine.execute_pair(&before, &after, &request).unwrap();
        assert_eq!(artifact.regime, NeighborKind::Weak);
        // The filtered truth the noise was centred on is the both-sides
        // restriction computed by the tabulation layer.
        let b_idx = DatasetIndex::build_auto(&before);
        let a_idx = b_idx.build_like(&after);
        let truth = b_idx.flows(&a_idx, &workload1(), Some(&expr), 1, Kernel::Auto);
        assert_eq!(
            artifact.flows().expect("flow payload").len(),
            truth.num_cells()
        );
    }

    #[test]
    fn store_backed_flow_cache_serves_disk_hits_across_caches() {
        let (before, after) = quarter_pair();
        let dir = std::env::temp_dir().join(format!(
            "eree-engine-unit-flow-disk-hits-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let digest = crate::store::dataset_digest(&after);
        let budget = PrivacyParams::approximate(0.1, 12.0, 0.12);
        let request = flow_request();

        let open_cache =
            || TabulationCache::with_store(crate::truths::TruthStore::open(&dir, digest).unwrap());
        let data = Snapshot::of(&after).after(Snapshot::of(&before));
        let mut engine = ReleaseEngine::new(budget);
        let first = engine
            .execute(
                &request,
                TruthSource::Tabulate {
                    data,
                    cache: &mut open_cache(),
                },
            )
            .unwrap();
        assert_eq!(engine.tabulation_stats().computed, 1);

        // A sibling cache over the same store reuses the persisted flow
        // truth: a digest-verified load, zero recomputation.
        let mut engine2 = ReleaseEngine::new(budget);
        let resumed = engine2
            .execute(
                &request,
                TruthSource::Tabulate {
                    data,
                    cache: &mut open_cache(),
                },
            )
            .unwrap();
        assert_eq!(resumed, first);
        assert_eq!(engine2.tabulation_stats().computed, 0);
        assert_eq!(engine2.tabulation_stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
