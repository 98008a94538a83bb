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
//! * [`ReleaseEngine`] — owns a [`Ledger`] and executes requests. Every
//!   request is validated against the mechanism's constraints and the
//!   remaining budget *before* any sampling happens; a rejected request
//!   consumes nothing. [`ReleaseEngine::execute_all`] runs a whole
//!   workload batch under the same ledger (sequential composition,
//!   Thm 7.3), parallelizing tabulation across requests and noising
//!   across cells.
//! * [`ReleaseArtifact`] — the durable, serde-serializable output:
//!   published cells (or shapes), the neighbor regime, the
//!   [`ReleaseCost`] charged, the mechanism name, the seed and request
//!   provenance. Truth digests are only attached when the `eval-only`
//!   feature is enabled (the evaluation harness needs them; a production
//!   service must not emit them).
//!
//! Determinism: per-cell noise streams are derived from
//! `(request seed, cell key)` with a SplitMix64 mix, and tabulation's
//! sharded establishment loop merges sorted runs with commutative
//! aggregates, so a fixed seed yields bit-identical artifacts regardless
//! of how many worker threads participate in either phase.
//!
//! Tabulation runs on a columnar employer-grouped
//! [`TabulationIndex`] — built **once per
//! dataset**: `execute_all` builds it per batch, [`TabulationCache`]
//! (used by `SeasonStore::run`) holds it for a whole season. Within a
//! batch or cache, each distinct `(MarginalSpec, normalized filter)` is
//! tabulated once (the [`FilterId`] digest is the filter's compact
//! fingerprint), so structurally equal expressions share even when
//! constructed independently.
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
use crate::mechanisms::{CellQuery, MechanismKind};
use crate::metrics::{MetricsRegistry, REASON_REQUEST_INVALID};
use crate::neighbors::NeighborKind;
use crate::shape::ShapeRelease;
use lodes::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use tabulate::{
    CellKey, DatasetIndex, FilterExpr, FilterId, FlowMarginal, FlowStats, Marginal, MarginalSpec,
    RegionShardedIndex, TabulationIndex,
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
    /// Flow requests execute through the `execute_flows*` entry points,
    /// which take both snapshots.
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
    /// are establishment-level quantities. Execute through
    /// [`ReleaseEngine::execute_flows`] (or its cached/precomputed
    /// variants), which take both snapshots.
    pub fn flows(spec: MarginalSpec) -> Self {
        Self::new(RequestKind::Flows, spec)
    }

    /// Reconstruct the request a recorded [`RequestProvenance`] describes
    /// — the resume path of drivers that hold only persisted artifacts
    /// (e.g. a release service rebuilding a season's plan from its store).
    /// The rebuilt request reproduces the stored provenance exactly, so it
    /// passes the season store's resume verification.
    pub fn from_provenance(provenance: &RequestProvenance) -> Self {
        let mut request = Self::new(provenance.kind, provenance.spec.clone())
            .mechanism(provenance.mechanism)
            .integerize(provenance.integerized)
            .seed(provenance.seed)
            .describe(provenance.description.clone());
        request = if provenance.budget_is_per_cell {
            request.budget_per_cell(provenance.budget)
        } else {
            request.budget(provenance.budget)
        };
        request.filter = provenance.filter.clone();
        request
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

    /// The workload kind this request declares — drivers that route
    /// requests to the right execution path (single-snapshot vs dataset
    /// pair) dispatch on it.
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

    pub(crate) fn provenance(&self, plan: &ReleasePlan) -> RequestProvenance {
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

/// A compact fingerprint of the underlying truth, for evaluation only.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TruthDigest {
    /// Number of nonzero cells.
    pub num_cells: usize,
    /// Sum of all true counts.
    pub total_count: u64,
    /// FNV-1a over `(key, count)` pairs in key order.
    pub checksum: u64,
}

impl TruthDigest {
    /// Digest a marginal.
    pub fn of(truth: &Marginal) -> Self {
        let mut checksum: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |word: u64| {
            for byte in word.to_le_bytes() {
                checksum ^= byte as u64;
                checksum = checksum.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for (key, stats) in truth.iter() {
            fold(key.0);
            fold(stats.count);
        }
        Self {
            num_cells: truth.num_cells(),
            total_count: truth.total(),
            checksum,
        }
    }

    /// Digest a flow marginal (the checksum is its content digest; the
    /// total is beginning-of-period employment).
    pub fn of_flows(truth: &FlowMarginal) -> Self {
        Self {
            num_cells: truth.num_cells(),
            total_count: truth.totals().beginning,
            checksum: truth.content_digest(),
        }
    }
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
    /// Truth fingerprint — only populated when the crate is built with the
    /// `eval-only` feature; a production release service never emits it.
    pub truth_digest: Option<TruthDigest>,
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

/// Execution order for batches and per-cell noising.
const MIN_PARALLEL_CELLS: usize = 512;

/// Identity of one tabulation: the marginal spec plus the **normalized**
/// filter expression restricting its population (`None` when
/// unfiltered). Structurally equal expressions share a tabulation no
/// matter where or when they were constructed; the expression itself is
/// the key (not its [`FilterId`] digest) so a digest collision can never
/// alias two different populations onto one cached truth.
type TabulationKey = (MarginalSpec, Option<FilterExpr>);

fn tabulation_key(request: &ReleaseRequest) -> TabulationKey {
    (
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

/// A cache of tabulated truth marginals keyed by
/// `(MarginalSpec, normalized filter)`, plus the shared columnar
/// [`TabulationIndex`] they were computed from.
///
/// Tabulation is the engine's dominant cost for large universes; a batch
/// (or a resumed publication season) whose requests share a marginal
/// should pay it once — and every request, shared marginal or not, should
/// share one CSR index of the dataset, built lazily on the first miss.
/// The cache is owned by the *caller* (or created per
/// [`ReleaseEngine::execute_all`] batch) rather than stored inside the
/// engine, because cached truths (and the index) are only valid for one
/// dataset — tying the cache's lifetime to the caller's dataset makes
/// stale reuse a type discipline instead of a runtime bug.
///
/// A cache built with [`with_store`](Self::with_store) additionally reads
/// and writes a persistent, content-addressed
/// [`TruthStore`](crate::truths::TruthStore): a memory miss first tries
/// the store (digest-verified
/// load), and a computed truth is persisted before it is used — so a
/// resumed season, or a *sibling* season sharing a `(spec, filter)` with
/// an earlier one, never re-tabulates. The store is pinned to one dataset
/// digest, checked against the dataset on the **first tabulation through
/// this cache** (one linear scan; a mismatch is refused loudly) and on
/// every [`SeasonStore::run_cached`](crate::store::SeasonStore::run_cached)
/// — the one-dataset-per-cache contract above still rests on the caller
/// for later direct `execute_cached` calls.
#[derive(Default)]
pub struct TabulationCache {
    index: Option<DatasetIndex>,
    entries: BTreeMap<TabulationKey, Arc<Marginal>>,
    store: Option<crate::truths::TruthStore>,
    /// Whether the dataset's digest has been checked against the store's.
    /// One linear pass per cache, on the first tabulation.
    dataset_verified: bool,
    /// Cached flow tabulations of the cache's one `(before, after)` pair.
    /// The cache's main `index` doubles as the *after* side (it is the
    /// index of the cache's one dataset — the current quarter); only the
    /// *before* snapshot needs a second index.
    flow_entries: BTreeMap<TabulationKey, Arc<FlowMarginal>>,
    before_index: Option<DatasetIndex>,
    /// [`dataset_pair_digest`](crate::store::dataset_pair_digest) of the
    /// cache's one pair, computed (two full-dataset scans) or supplied by
    /// a driver once, then reused for every persistent flow-truth lookup.
    flow_pair_digest: Option<u64>,
}

impl TabulationCache {
    /// An empty, memory-only cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache backed by a persistent truth store. Tabulations are
    /// served from and persisted to `store`; the cache may only ever be
    /// used with the dataset `store` is pinned to.
    pub fn with_store(store: crate::truths::TruthStore) -> Self {
        Self {
            store: Some(store),
            ..Self::default()
        }
    }

    /// The persistent truth store backing this cache, if any.
    pub fn store(&self) -> Option<&crate::truths::TruthStore> {
        self.store.as_ref()
    }

    /// Seed the cache with an already built index instead of building one
    /// lazily on the first miss. A multi-tenant frontend builds the index
    /// **once** at startup and hands a clone (the [`DatasetIndex`]
    /// variants are `Arc`-backed) to every per-season cache, so N
    /// concurrent seasons share one image of the dataset instead of
    /// paying N builds — the caller owes the same one-dataset contract as
    /// for cached truths: the index must have been built from the dataset
    /// this cache will be used with.
    pub fn with_shared_index(mut self, index: DatasetIndex) -> Self {
        self.index = Some(index);
        self
    }

    /// Seed the cache with an already built index of the *before*
    /// snapshot for flow tabulations — the pair-wise analogue of
    /// [`with_shared_index`](Self::with_shared_index) (which supplies the
    /// *after*/current-quarter side). The same one-dataset contract
    /// applies — and both quarters of a pair must use the same
    /// representation (flat or region-sharded), which holds automatically
    /// when both are built through [`DatasetIndex::build_auto`] on
    /// same-scale panel quarters.
    pub fn with_flow_before_index(mut self, index: DatasetIndex) -> Self {
        self.before_index = Some(index);
        self
    }

    /// Supply the pair digest of the cache's `(before, after)` pair so the
    /// first persistent flow-truth lookup doesn't pay two full-dataset
    /// scans — drivers (the agency's panel runner, the release service)
    /// already hold both quarter digests for their own pins. The digest
    /// must be [`dataset_pair_digest`](crate::store::dataset_pair_digest)
    /// of the datasets actually passed; handing a digest of different data
    /// voids the truth store's content addressing.
    pub(crate) fn set_flow_pair_digest(&mut self, digest: u64) {
        self.flow_pair_digest = Some(digest);
    }

    /// Number of distinct tabulations held in memory.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no in-memory tabulations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Check an externally computed dataset digest against the backing
    /// store's pin, marking the cache verified on success — so callers
    /// that already paid for the digest (season/agency drivers, which
    /// need it for their own manifest pins) don't trigger a second
    /// full-dataset scan inside [`get_or_tabulate`](Self::get_or_tabulate).
    /// A no-op for memory-only caches.
    pub(crate) fn verify_dataset_digest(&mut self, digest: u64) -> Result<(), EngineError> {
        if let Some(store) = &self.store {
            if digest != store.dataset_digest() {
                return Err(EngineError::TruthStore {
                    detail: format!(
                        "cache's truth store is pinned to dataset {:016x} but was handed \
                         dataset {digest:016x} — refusing to mix databases",
                        store.dataset_digest()
                    ),
                });
            }
            self.dataset_verified = true;
        }
        Ok(())
    }

    /// The shared index of `dataset`, building it on first use — flat for
    /// ordinary datasets, region-sharded above the national-scale
    /// threshold (see [`DatasetIndex::build_auto`]); results are
    /// bit-identical either way.
    fn index_for(&mut self, dataset: &Dataset) -> DatasetIndex {
        self.index
            .get_or_insert_with(|| DatasetIndex::build_auto(dataset))
            .clone()
    }

    /// The truth marginal for `request`: in-memory entry, verified
    /// persistent truth, or fresh tabulation of `dataset`, in that order.
    fn get_or_tabulate(
        &mut self,
        dataset: &Dataset,
        request: &ReleaseRequest,
        threads: usize,
    ) -> Result<(Arc<Marginal>, TabulationSource), EngineError> {
        let key = tabulation_key(request);
        if let Some(truth) = self.entries.get(&key) {
            return Ok((Arc::clone(truth), TabulationSource::Memory));
        }
        if self.store.is_some() && !self.dataset_verified {
            let digest = crate::store::dataset_digest(dataset);
            self.verify_dataset_digest(digest)?;
        }
        if let Some(store) = &self.store {
            if let Some(truth) = store.load(&request.spec, request.filter.as_ref()) {
                let truth = Arc::new(truth);
                self.entries.insert(key, Arc::clone(&truth));
                return Ok((truth, TabulationSource::Disk));
            }
        }
        let index = self.index_for(dataset);
        let truth = Arc::new(tabulate_request(&index, request, threads));
        if let Some(store) = &self.store {
            store
                .save(&request.spec, request.filter.as_ref(), &truth)
                .map_err(|e| EngineError::TruthStore {
                    detail: format!("persisting freshly computed truth failed: {e}"),
                })?;
        }
        self.entries.insert(key, Arc::clone(&truth));
        Ok((truth, TabulationSource::Computed))
    }

    /// The flow truth for `request` over the `(before, after)` pair:
    /// in-memory entry, verified persistent flow truth (addressed by the
    /// pair digest, not the store's single-dataset pin), or fresh
    /// tabulation over the shared pair of indexes, in that order.
    fn get_or_tabulate_flows(
        &mut self,
        before: &Dataset,
        after: &Dataset,
        request: &ReleaseRequest,
        threads: usize,
    ) -> Result<(Arc<FlowMarginal>, TabulationSource), EngineError> {
        let key = tabulation_key(request);
        if let Some(truth) = self.flow_entries.get(&key) {
            return Ok((Arc::clone(truth), TabulationSource::Memory));
        }
        // Flow truths are content-addressed by the pair digest — computed
        // once per cache — so only store-backed caches pay for it.
        let pair_digest = self.store.is_some().then(|| {
            *self.flow_pair_digest.get_or_insert_with(|| {
                crate::store::dataset_pair_digest(
                    crate::store::dataset_digest(before),
                    crate::store::dataset_digest(after),
                )
            })
        });
        if let (Some(store), Some(pair)) = (self.store.as_ref(), pair_digest) {
            if let Some(truth) = store.load_flows(pair, &request.spec, request.filter.as_ref()) {
                let truth = Arc::new(truth);
                self.flow_entries.insert(key, Arc::clone(&truth));
                return Ok((truth, TabulationSource::Disk));
            }
        }
        let after_index = self.index_for(after);
        // The before side must match the after side's representation —
        // sharded flow tabulation pairs shards state by state.
        let before_index = self
            .before_index
            .get_or_insert_with(|| match &after_index {
                DatasetIndex::Single(_) => {
                    DatasetIndex::Single(Arc::new(TabulationIndex::build(before)))
                }
                DatasetIndex::Sharded(_) => {
                    DatasetIndex::Sharded(Arc::new(RegionShardedIndex::build(before)))
                }
            })
            .clone();
        let truth = Arc::new(tabulate_flow_request(
            &before_index,
            &after_index,
            request,
            threads,
        ));
        if let (Some(store), Some(pair)) = (self.store.as_ref(), pair_digest) {
            store
                .save_flows(pair, &request.spec, request.filter.as_ref(), &truth)
                .map_err(|e| EngineError::TruthStore {
                    detail: format!("persisting freshly computed flow truth failed: {e}"),
                })?;
        }
        self.flow_entries.insert(key, Arc::clone(&truth));
        Ok((truth, TabulationSource::Computed))
    }
}

/// Tabulate one request's truth marginal over the shared index,
/// sharding the establishment loop across up to `threads` workers
/// (bit-identical at any count). The advisory
/// [`effective_shards`](DatasetIndex::effective_shards) heuristic caps
/// fan-out first, so small datasets take the single-shard path instead of
/// paying per-shard spawn/sort/merge overhead that exceeds the scan.
fn tabulate_request(index: &DatasetIndex, request: &ReleaseRequest, threads: usize) -> Marginal {
    let threads = index.effective_shards(threads);
    match &request.filter {
        Some(expr) => index.marginal_expr_sharded(&request.spec, expr, threads),
        None => index.marginal_sharded(&request.spec, threads),
    }
}

/// Tabulate one flow request's truth over the shared pair of indexes,
/// sharding the establishment loop (bit-identical at any thread count);
/// a filter restricts the population on *both* sides of the pair.
fn tabulate_flow_request(
    before: &DatasetIndex,
    after: &DatasetIndex,
    request: &ReleaseRequest,
    threads: usize,
) -> FlowMarginal {
    let threads = before.effective_shards(threads);
    match &request.filter {
        Some(expr) => before.flows_expr_sharded(after, &request.spec, expr, threads),
        None => before.flows_sharded(after, &request.spec, threads),
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
/// ledger (or fails validation) is rejected *without* spending. Every
/// single-release path that tabulates admits the same way: a dry-run
/// charge, then the tabulation, then the real charge.
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
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            ledger,
            threads,
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

    /// Consume the engine, returning the ledger (for archival).
    pub fn into_ledger(self) -> Ledger {
        self.ledger
    }

    /// Lifetime tabulation-cache counters: how many truth marginals were
    /// actually computed vs served from a cache, across every tabulating
    /// call on this engine — [`execute_all`](Self::execute_all) batches,
    /// the `*_cached` paths, and [`execute`](Self::execute) /
    /// [`execute_flows`](Self::execute_flows), whose one tabulation each
    /// counts as computed.
    pub fn tabulation_stats(&self) -> TabulationStats {
        self.tab_stats
    }

    /// Validate `request`, tabulate, charge the ledger, and sample.
    ///
    /// [`execute_cached`](Self::execute_cached) over a fresh memory-only
    /// [`TabulationCache`], so the one tabulation builds a throwaway
    /// index; batches and seasons ([`execute_all`](Self::execute_all),
    /// `execute_cached` with a long-lived cache) share one index across
    /// requests instead.
    pub fn execute(
        &mut self,
        dataset: &Dataset,
        request: &ReleaseRequest,
    ) -> Result<ReleaseArtifact, EngineError> {
        self.execute_cached(dataset, request, &mut TabulationCache::new())
    }

    /// Like [`execute`](Self::execute), but over an already-tabulated
    /// truth marginal (the hot path for evaluation sweeps, which tabulate
    /// once and release many times). The marginal's spec must match the
    /// request's.
    pub fn execute_precomputed(
        &mut self,
        truth: &Marginal,
        request: &ReleaseRequest,
    ) -> Result<ReleaseArtifact, EngineError> {
        let started = Instant::now();
        let result = (|| {
            reject_flow_kind(request)?;
            if truth.spec() != &request.spec {
                return Err(EngineError::SpecMismatch {
                    requested: request.spec.name(),
                    supplied: truth.spec().name(),
                });
            }
            let plan = request.plan()?;
            self.charge(request, &plan)?;
            Ok(self.sample(truth, request, &plan, self.threads))
        })();
        self.observe(request.kind(), started, &result);
        result
    }

    /// Like [`execute`](Self::execute), but tabulating through a
    /// caller-owned [`TabulationCache`]: requests sharing a
    /// `(spec, filter)` tabulation — e.g. the sequential, persist-as-you-go
    /// releases of a publication season — pay for it once, and *all*
    /// requests share the cache's one [`TabulationIndex`] of the dataset.
    /// The cache must only ever be used with one dataset.
    pub fn execute_cached(
        &mut self,
        dataset: &Dataset,
        request: &ReleaseRequest,
        cache: &mut TabulationCache,
    ) -> Result<ReleaseArtifact, EngineError> {
        let started = Instant::now();
        let result = (|| {
            reject_flow_kind(request)?;
            let plan = request.plan()?;
            // Dry-run the admission first: a budget-rejected request must
            // not touch the cache or the truth store, and — the other way
            // round — a truth-store failure must not strand a ledger
            // charge that never produced an artifact. The real charge
            // happens once the truth is in hand, on identical ledger
            // state, so it cannot fail.
            self.ledger.can_charge(&plan.per_cell, &plan.cost)?;
            let (truth, source) = cache.get_or_tabulate(dataset, request, self.threads)?;
            self.charge(request, &plan)
                .expect("dry-run admitted this charge on identical ledger state");
            self.note_source(source);
            Ok(self.sample(&truth, request, &plan, self.threads))
        })();
        self.observe(request.kind(), started, &result);
        result
    }

    /// Validate a flow `request`, tabulate job-flow statistics over the
    /// `(before, after)` dataset pair, charge the ledger, and sample.
    ///
    /// [`execute_flows_cached`](Self::execute_flows_cached) over a fresh
    /// memory-only [`TabulationCache`]; drivers executing several flow
    /// requests over one pair share a long-lived cache instead.
    pub fn execute_flows(
        &mut self,
        before: &Dataset,
        after: &Dataset,
        request: &ReleaseRequest,
    ) -> Result<ReleaseArtifact, EngineError> {
        self.execute_flows_cached(before, after, request, &mut TabulationCache::new())
    }

    /// Like [`execute_flows`](Self::execute_flows), but over an
    /// already-tabulated flow truth (evaluation sweeps tabulate the pair
    /// once and release many times). The truth's spec must match the
    /// request's.
    pub fn execute_flows_precomputed(
        &mut self,
        truth: &FlowMarginal,
        request: &ReleaseRequest,
    ) -> Result<ReleaseArtifact, EngineError> {
        let started = Instant::now();
        let result = (|| {
            let plan = flow_plan(request)?;
            if truth.spec() != &request.spec {
                return Err(EngineError::SpecMismatch {
                    requested: request.spec.name(),
                    supplied: truth.spec().name(),
                });
            }
            self.charge(request, &plan)?;
            Ok(self.sample_flows(truth, request, &plan, self.threads))
        })();
        self.observe(request.kind(), started, &result);
        result
    }

    /// Like [`execute_flows`](Self::execute_flows), but tabulating through
    /// a caller-owned [`TabulationCache`] — the same dry-run-then-charge
    /// protocol as [`execute_cached`](Self::execute_cached). The cache's
    /// one-dataset contract extends pair-wise: `after` must be the cache's
    /// dataset (its shared index and truth store are the current
    /// quarter's) and every flow call must pass the same `before`.
    pub fn execute_flows_cached(
        &mut self,
        before: &Dataset,
        after: &Dataset,
        request: &ReleaseRequest,
        cache: &mut TabulationCache,
    ) -> Result<ReleaseArtifact, EngineError> {
        let started = Instant::now();
        let result = (|| {
            let plan = flow_plan(request)?;
            self.ledger.can_charge(&plan.per_cell, &plan.cost)?;
            let (truth, source) =
                cache.get_or_tabulate_flows(before, after, request, self.threads)?;
            self.charge(request, &plan)
                .expect("dry-run admitted this charge on identical ledger state");
            self.note_source(source);
            Ok(self.sample_flows(&truth, request, &plan, self.threads))
        })();
        self.observe(request.kind(), started, &result);
        result
    }

    /// Execute a whole workload batch under this engine's single ledger.
    ///
    /// Budget accounting is strictly sequential in request order
    /// (sequential composition, Thm 7.3): each request is validated and
    /// charged before the next, and a rejected request consumes nothing —
    /// later requests still run if they fit the remaining budget.
    /// Execution of the admitted requests (tabulation + noising) is
    /// parallelized across requests; artifacts are returned in request
    /// order and are bit-identical to sequential execution.
    pub fn execute_all(
        &mut self,
        dataset: &Dataset,
        requests: &[ReleaseRequest],
    ) -> Vec<Result<ReleaseArtifact, EngineError>> {
        // Phase 1 (sequential): validate + charge in order. Admissions and
        // denials are recorded per request; batch latency is not broken
        // out per release (the histograms cover single-release paths).
        let admitted: Vec<Result<ReleasePlan, EngineError>> = requests
            .iter()
            .map(|request| {
                let outcome = (|| {
                    reject_flow_kind(request)?;
                    let plan = request.plan()?;
                    self.charge(request, &plan)?;
                    Ok(plan)
                })();
                if let Some(registry) = &self.metrics {
                    let family = registry.family(request.kind());
                    match &outcome {
                        Ok(plan) => family.record_accepted(plan.cost.epsilon, plan.cost.delta),
                        Err(error) => family.record_denied(denial_reason(error)),
                    }
                }
                outcome
            })
            .collect();
        // Phase 2 (parallel): run admitted requests. Leftover threads are
        // shared out to each request's per-cell noising, so a batch of one
        // big marginal parallelizes as well as a direct `execute` call.
        let jobs: Vec<(usize, &ReleaseRequest, ReleasePlan)> = admitted
            .iter()
            .enumerate()
            .filter_map(|(i, outcome)| outcome.as_ref().ok().map(|plan| (i, &requests[i], *plan)))
            .collect();
        // Tabulate each distinct (spec, filter identity) exactly once over
        // a single shared columnar index of the dataset, in parallel
        // across the distinct keys (leftover threads shard each
        // tabulation's establishment loop); requests sharing a marginal
        // then sample from the shared truth. Keys (which clone and
        // normalize the filter expression) are computed once per job.
        let job_keys: Vec<TabulationKey> = jobs
            .iter()
            .map(|(_, request, _)| tabulation_key(request))
            .collect();
        let mut key_index: BTreeMap<&TabulationKey, usize> = BTreeMap::new();
        let mut distinct: Vec<&ReleaseRequest> = Vec::new();
        for ((_, request, _), key) in jobs.iter().zip(&job_keys) {
            key_index.entry(key).or_insert_with(|| {
                distinct.push(request);
                distinct.len() - 1
            });
        }
        let index = if distinct.is_empty() {
            None
        } else {
            Some(DatasetIndex::build_auto(dataset))
        };
        let tab_inner = (self.threads / distinct.len().max(1)).max(1);
        let truths: Vec<Arc<Marginal>> = par_map(
            &distinct,
            self.threads.min(distinct.len().max(1)),
            |request| {
                let index = index.as_ref().expect("index built for nonempty batch");
                Arc::new(tabulate_request(index, request, tab_inner))
            },
        );
        self.tab_stats.computed += distinct.len() as u64;
        self.tab_stats.hits += (jobs.len() - distinct.len()) as u64;
        if let Some(registry) = &self.metrics {
            registry.caches.truth_computed.add(distinct.len() as u64);
            registry
                .caches
                .truth_memory_hits
                .add((jobs.len() - distinct.len()) as u64);
        }
        let tasks: Vec<(usize, &ReleaseRequest, ReleasePlan, Arc<Marginal>)> = jobs
            .iter()
            .zip(&job_keys)
            .map(|(&(i, request, plan), key)| {
                let truth = Arc::clone(&truths[key_index[key]]);
                (i, request, plan, truth)
            })
            .collect();
        let inner_threads = (self.threads / tasks.len().max(1)).max(1);
        let artifacts = par_map(
            &tasks,
            self.threads.min(tasks.len().max(1)),
            |(_, request, plan, truth)| self.sample(truth, request, plan, inner_threads),
        );
        let mut by_index: BTreeMap<usize, ReleaseArtifact> =
            jobs.iter().map(|(i, _, _)| *i).zip(artifacts).collect();
        admitted
            .into_iter()
            .enumerate()
            .map(|(i, outcome)| {
                outcome.map(|_| by_index.remove(&i).expect("artifact for admitted request"))
            })
            .collect()
    }

    fn charge(&mut self, request: &ReleaseRequest, plan: &ReleasePlan) -> Result<(), EngineError> {
        // The ledger re-checks budget arithmetic and α-consistency; it
        // mutates nothing when it refuses.
        self.ledger
            .charge(request.description(), &plan.per_cell, &plan.cost)?;
        Ok(())
    }

    /// Record a single-release outcome into the attached registry: an
    /// admission with its charged cost and wall latency, or a denial
    /// keyed by reason.
    fn observe(
        &self,
        kind: RequestKind,
        started: Instant,
        result: &Result<ReleaseArtifact, EngineError>,
    ) {
        let Some(registry) = &self.metrics else {
            return;
        };
        let family = registry.family(kind);
        match result {
            Ok(artifact) => {
                family.record_accepted(artifact.cost.epsilon, artifact.cost.delta);
                let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                family.latency.observe_micros(micros);
            }
            Err(error) => family.record_denied(denial_reason(error)),
        }
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

    fn sample(
        &self,
        truth: &Marginal,
        request: &ReleaseRequest,
        plan: &ReleasePlan,
        threads: usize,
    ) -> ReleaseArtifact {
        let payload = match request.kind {
            RequestKind::Marginal => ArtifactPayload::Cells(sample_cells(
                truth,
                plan,
                request.seed,
                request.integerize,
                threads,
            )),
            RequestKind::Shapes => ArtifactPayload::Shapes(sample_shapes(
                truth,
                plan,
                request.seed,
                request.integerize,
                threads,
            )),
            // Every level-marginal entry point rejects flow requests up
            // front; flow artifacts come from `sample_flows`.
            RequestKind::Flows => unreachable!("flow requests are routed through sample_flows"),
        };
        let mechanism_name = plan
            .mechanism
            .build(&plan.per_cell)
            .expect("plan() validated mechanism parameters")
            .name()
            .to_string();
        ReleaseArtifact {
            request: request.provenance(plan),
            regime: plan.regime,
            cost: plan.cost,
            mechanism_name,
            payload,
            truth_digest: truth_digest(truth),
        }
    }

    fn sample_flows(
        &self,
        truth: &FlowMarginal,
        request: &ReleaseRequest,
        plan: &ReleasePlan,
        threads: usize,
    ) -> ReleaseArtifact {
        let payload = ArtifactPayload::Flows(sample_flow_cells(
            truth,
            plan,
            request.seed,
            request.integerize,
            threads,
        ));
        let mechanism_name = plan
            .mechanism
            .build(&plan.per_cell)
            .expect("plan() validated mechanism parameters")
            .name()
            .to_string();
        ReleaseArtifact {
            request: request.provenance(plan),
            regime: plan.regime,
            cost: plan.cost,
            mechanism_name,
            payload,
            truth_digest: flow_truth_digest(truth),
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

/// Refuse [`RequestKind::Flows`] on a single-snapshot execution path:
/// flow statistics tabulate a `(before, after)` dataset pair and must go
/// through the `execute_flows*` entry points — there is no dataset a
/// single-snapshot path could silently substitute for the missing one.
fn reject_flow_kind(request: &ReleaseRequest) -> Result<(), EngineError> {
    if request.kind == RequestKind::Flows {
        return Err(EngineError::Flow {
            detail: "flow requests tabulate a (before, after) dataset pair — \
                     use execute_flows / execute_flows_cached",
        });
    }
    Ok(())
}

/// The flow-path mirror of [`reject_flow_kind`]: only
/// [`RequestKind::Flows`] requests may enter `execute_flows*`, and their
/// plan is computed here.
fn flow_plan(request: &ReleaseRequest) -> Result<ReleasePlan, EngineError> {
    if request.kind != RequestKind::Flows {
        return Err(EngineError::Flow {
            detail: "only RequestKind::Flows requests may use the flow execution paths",
        });
    }
    request.plan()
}

#[cfg(feature = "eval-only")]
fn truth_digest(truth: &Marginal) -> Option<TruthDigest> {
    Some(TruthDigest::of(truth))
}

#[cfg(not(feature = "eval-only"))]
fn truth_digest(_truth: &Marginal) -> Option<TruthDigest> {
    None
}

#[cfg(feature = "eval-only")]
fn flow_truth_digest(truth: &FlowMarginal) -> Option<TruthDigest> {
    Some(TruthDigest::of_flows(truth))
}

#[cfg(not(feature = "eval-only"))]
fn flow_truth_digest(_truth: &FlowMarginal) -> Option<TruthDigest> {
    None
}

/// Derive the independent noise seed of one cell from the request seed:
/// two SplitMix64 rounds over the key so neighbouring keys decorrelate.
fn cell_seed(base: u64, key: u64) -> u64 {
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

/// Deterministic parallel map preserving input order: contiguous chunks
/// are mapped on scoped worker threads and re-concatenated in order.
fn par_map<T: Sync, U: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut out: Vec<U> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|chunk_items| {
                let f = &f;
                scope.spawn(move || chunk_items.iter().map(f).collect::<Vec<U>>())
            })
            .collect();
        for handle in handles {
            out.extend(handle.join().expect("release worker panicked"));
        }
    });
    out
}

fn sample_cells(
    truth: &Marginal,
    plan: &ReleasePlan,
    seed: u64,
    integerize: bool,
    threads: usize,
) -> BTreeMap<CellKey, f64> {
    let cells: Vec<(CellKey, CellQuery)> = truth
        .iter()
        .map(|(key, stats)| (key, CellQuery::from_stats(stats)))
        .collect();
    let threads = if cells.len() < MIN_PARALLEL_CELLS {
        1
    } else {
        threads
    };
    let mechanism = plan
        .mechanism
        .build(&plan.per_cell)
        .expect("plan() validated mechanism parameters");
    let released = par_map(&cells, threads, |(key, query)| {
        let mut rng = StdRng::seed_from_u64(cell_seed(seed, key.0));
        let value = mechanism.release(query, &mut rng);
        let value = if integerize {
            value.round().max(0.0)
        } else {
            value
        };
        (*key, value)
    });
    released.into_iter().collect()
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
    plan: &ReleasePlan,
    seed: u64,
    integerize: bool,
    threads: usize,
) -> BTreeMap<CellKey, FlowRelease> {
    let cells: Vec<(CellKey, FlowStats)> = truth.iter().map(|(key, stats)| (key, *stats)).collect();
    let threads = if cells.len() < MIN_PARALLEL_CELLS {
        1
    } else {
        threads
    };
    let mechanism = plan
        .mechanism
        .build(&plan.per_cell)
        .expect("plan() validated mechanism parameters");
    let released = par_map(&cells, threads, |(key, stats)| {
        let mut rng = StdRng::seed_from_u64(cell_seed(seed, key.0));
        let finish = |value: f64| {
            if integerize {
                value.round().max(0.0)
            } else {
                value
            }
        };
        // A zero-count statistic of an active cell still has x_v = 0;
        // the mechanisms need max(x_v, 1) just like Lemma 8.5's
        // max(x_v·α, 1) floor.
        let beginning = finish(mechanism.release(
            &CellQuery {
                count: stats.beginning,
                max_establishment: stats.max_beginning.max(1),
            },
            &mut rng,
        ));
        let job_creation = finish(mechanism.release(
            &CellQuery {
                count: stats.job_creation,
                max_establishment: stats.max_creation.max(1),
            },
            &mut rng,
        ));
        let job_destruction = finish(mechanism.release(
            &CellQuery {
                count: stats.job_destruction,
                max_establishment: stats.max_destruction.max(1),
            },
            &mut rng,
        ));
        (
            *key,
            FlowRelease {
                beginning,
                job_creation,
                job_destruction,
                ending: beginning + job_creation - job_destruction,
            },
        )
    });
    released.into_iter().collect()
}

fn sample_shapes(
    truth: &Marginal,
    plan: &ReleasePlan,
    seed: u64,
    integerize: bool,
    threads: usize,
) -> Vec<ShapeRelease> {
    // One cell of the full marginal: (worker-class index, full packed key,
    // query) — the full key pins the cell's independent noise stream.
    type GroupedCell = (usize, u64, CellQuery);
    let d = truth.spec().worker_domain_size();
    let schema = truth.schema();
    let n_wp = truth.spec().workplace_attrs.len();
    // Group the marginal's cells by their workplace part.
    let mut groups: BTreeMap<u64, Vec<GroupedCell>> = BTreeMap::new();
    for (key, stats) in truth.iter() {
        let mut wp_key: u64 = 0;
        for pos in 0..n_wp {
            wp_key = wp_key * schema.cardinality_of(pos) + schema.value_of(key, pos) as u64;
        }
        let mut class_idx: u64 = 0;
        for pos in n_wp..schema.attrs().len() {
            class_idx = class_idx * schema.cardinality_of(pos) + schema.value_of(key, pos) as u64;
        }
        groups.entry(wp_key).or_default().push((
            class_idx as usize,
            key.0,
            CellQuery::from_stats(stats),
        ));
    }
    let mechanism = plan
        .mechanism
        .build(&plan.per_cell)
        .expect("plan() validated mechanism parameters");
    let group_list: Vec<(u64, Vec<GroupedCell>)> = groups.into_iter().collect();
    let threads = if group_list.len() < MIN_PARALLEL_CELLS {
        1
    } else {
        threads
    };
    par_map(&group_list, threads, |(wp_key, cells)| {
        let mut sub_counts = vec![0.0; d];
        for (class_idx, full_key, query) in cells {
            // True-zero classes are not released (sparse-publication
            // convention); their noisy value stays 0.
            let mut rng = StdRng::seed_from_u64(cell_seed(seed, *full_key));
            let mut value = mechanism.release(query, &mut rng).max(0.0);
            if integerize {
                value = value.round();
            }
            sub_counts[*class_idx] = value;
        }
        let total: f64 = sub_counts.iter().sum();
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
            .execute(
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
            .execute(
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
            .execute(
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
            ReleaseEngine::new(budget).execute(
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
                .execute(
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
            .execute(
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
        let single = engine.execute(&d, &requests[0]).unwrap();
        assert_eq!(&single, sequential[0].as_ref().unwrap());
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
        let mut cached = ReleaseEngine::new(PrivacyParams::pure(0.1, 3.0));
        let mut cache = TabulationCache::new();
        let a1 = cached.execute_cached(&d, &r1, &mut cache).unwrap();
        let a2 = cached.execute_cached(&d, &r2, &mut cache).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cached.tabulation_stats().computed, 1);
        assert_eq!(cached.tabulation_stats().hits, 1);
        // Bit-identical to the uncached path.
        let mut plain = ReleaseEngine::new(PrivacyParams::pure(0.1, 3.0));
        assert_eq!(plain.execute(&d, &r1).unwrap(), a1);
        assert_eq!(plain.execute(&d, &r2).unwrap(), a2);
        // A rejected request never touches the cache or the stats.
        let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 0.5));
        let mut cache = TabulationCache::new();
        assert!(engine.execute_cached(&d, &r1, &mut cache).is_err());
        assert!(cache.is_empty());
        assert_eq!(engine.tabulation_stats(), TabulationStats::default());
    }

    /// A season run over the region-sharded representation releases
    /// bit-identical artifacts (same truths, same draws, same digests) as
    /// the flat index — sharding is a pure representation choice.
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
        assert!(!flat_index.is_sharded());
        assert!(sharded_index.is_sharded());
        let mut flat_engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 4.0));
        let mut flat_cache = TabulationCache::new().with_shared_index(flat_index);
        let mut sharded_engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 4.0));
        let mut sharded_cache = TabulationCache::new().with_shared_index(sharded_index);
        for request in &requests {
            let flat = flat_engine
                .execute_cached(&d, request, &mut flat_cache)
                .unwrap();
            let sharded = sharded_engine
                .execute_cached(&d, request, &mut sharded_cache)
                .unwrap();
            assert_eq!(flat, sharded);
            assert_eq!(flat.truth_digest, sharded.truth_digest);
        }
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
        let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 3.0));
        let mut cache = TabulationCache::new();
        let a0 = engine.execute_cached(&d, &requests[0], &mut cache).unwrap();
        let a1 = engine.execute_cached(&d, &requests[1], &mut cache).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(engine.tabulation_stats().hits, 1);
        assert_eq!(outcomes[0].as_ref().unwrap(), &a0);
        assert_eq!(outcomes[1].as_ref().unwrap(), &a1);
        // A structurally different filter does not share.
        let mut other = ReleaseEngine::new(PrivacyParams::pure(0.1, 1.0));
        other
            .execute_cached(
                &d,
                &ReleaseRequest::marginal(workload1())
                    .mechanism(MechanismKind::LogLaplace)
                    .budget(PrivacyParams::pure(0.1, 1.0))
                    .filter_expr(FilterExpr::sex(Sex::Female))
                    .seed(3),
                &mut cache,
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A season worker respawn rebuilds its whole plan with
        /// `from_provenance`: for any valid request, the rebuilt request
        /// must record the same provenance, bit for bit, and plan to the
        /// same cost. Filters are drawn from a pool that includes an
        /// unnormalized membership set, so the round trip must carry the
        /// expression exactly as given. Totals of at least 4.0 keep every
        /// mechanism valid after the widest split (workload 3's 8 cells
        /// leave Smooth Gamma ε ≥ 0.5 > 5·ln 1.1).
        #[test]
        fn from_provenance_round_trips_any_valid_request(
            kind in 0u8..4,
            mechanism in 0u8..3,
            per_cell in proptest::prelude::any::<bool>(),
            epsilon in 4.0f64..40.0,
            filter in 0u8..5,
            integerize in proptest::prelude::any::<bool>(),
            seed in 0u64..u64::MAX,
            described in proptest::prelude::any::<bool>(),
        ) {
            use lodes::{Education, Sex};
            use tabulate::WorkplaceAttr;
            let mut request = match kind {
                0 => ReleaseRequest::marginal(workload1()),
                1 => ReleaseRequest::marginal(workload3()),
                2 => ReleaseRequest::shapes(workload3()),
                _ => ReleaseRequest::flows(workload1()),
            };
            request = request.mechanism(match mechanism {
                0 => MechanismKind::LogLaplace,
                1 => MechanismKind::SmoothGamma,
                _ => MechanismKind::SmoothLaplace,
            });
            let budget = PrivacyParams::approximate(0.1, epsilon, 0.05);
            request = if per_cell {
                request.budget_per_cell(budget)
            } else {
                request.budget(budget)
            };
            let expr = match filter {
                0 => None,
                1 => Some(FilterExpr::All),
                2 => Some(FilterExpr::sex(Sex::Female)),
                3 => Some(
                    FilterExpr::sex(Sex::Female)
                        .and(FilterExpr::education_at_least(Education::BachelorOrHigher)),
                ),
                _ => Some(FilterExpr::WorkplaceIn(WorkplaceAttr::Naics, vec![4, 1, 4]).not()),
            };
            if let Some(expr) = expr {
                request = request.filter_expr(expr);
            }
            if described {
                request = request.describe(format!("release {seed}"));
            }
            let request = request.integerize(integerize).seed(seed);
            let plan = request.plan().expect("generated requests are valid");
            let original = request.provenance(&plan);
            let rebuilt = ReleaseRequest::from_provenance(&original);
            let rebuilt_plan = rebuilt.plan().expect("rebuilt request stays valid");
            let again = rebuilt.provenance(&rebuilt_plan);
            proptest::prop_assert_eq!(&again, &original);
            proptest::prop_assert_eq!(
                serde_json::to_string(&again).unwrap(),
                serde_json::to_string(&original).unwrap()
            );
            proptest::prop_assert_eq!(rebuilt_plan.cost, plan.cost);
            proptest::prop_assert_eq!(rebuilt.regime(), request.regime());
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
        let a = e1.execute(&d, &request).unwrap();
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
            .execute(
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
            .execute(
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

    #[cfg(feature = "eval-only")]
    #[test]
    fn truth_digest_present_under_eval_only() {
        let d = dataset();
        let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 2.0));
        let artifact = engine
            .execute(
                &d,
                &ReleaseRequest::marginal(workload1())
                    .mechanism(MechanismKind::SmoothGamma)
                    .budget(PrivacyParams::pure(0.1, 2.0)),
            )
            .unwrap();
        let digest = artifact.truth_digest.expect("digest under eval-only");
        let truth = compute_marginal(&d, &workload1());
        assert_eq!(digest, TruthDigest::of(&truth));
        assert_eq!(digest.num_cells, truth.num_cells());
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
            .execute_flows(&before, &after, &flow_request())
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
        assert!(matches!(
            engine.execute(&after, &request).unwrap_err(),
            EngineError::Flow { .. }
        ));
        let mut cache = TabulationCache::new();
        assert!(matches!(
            engine
                .execute_cached(&after, &request, &mut cache)
                .unwrap_err(),
            EngineError::Flow { .. }
        ));
        let outcomes = engine.execute_all(&after, std::slice::from_ref(&request));
        assert!(matches!(outcomes[0], Err(EngineError::Flow { .. })));
        // And the mirror: a level request may not enter the flow paths.
        let level = ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 2.0));
        assert!(matches!(
            engine.execute_flows(&before, &after, &level).unwrap_err(),
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
            .execute_flows(&before, &after, &request)
            .unwrap();

        let mut engine = ReleaseEngine::new(budget);
        let mut cache = TabulationCache::new();
        let first = engine
            .execute_flows_cached(&before, &after, &request, &mut cache)
            .unwrap();
        let second = engine
            .execute_flows_cached(&before, &after, &request.clone().seed(78), &mut cache)
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
            .execute_flows(&before, &after, &flow_request())
            .unwrap();
        let mut engine = ReleaseEngine::new(budget);
        let from_truth = engine
            .execute_flows_precomputed(&truth, &flow_request())
            .unwrap();
        assert_eq!(from_truth, direct);

        let other_spec = MarginalSpec::new(vec![tabulate::WorkplaceAttr::County], vec![]);
        let err = ReleaseEngine::new(budget)
            .execute_flows_precomputed(
                &truth,
                &ReleaseRequest::flows(other_spec)
                    .mechanism(MechanismKind::SmoothLaplace)
                    .budget(budget),
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
        let artifact = engine.execute_flows(&before, &after, &request).unwrap();
        assert_eq!(artifact.regime, NeighborKind::Weak);
        // The filtered truth the noise was centred on is the both-sides
        // restriction computed by the tabulation layer.
        let b_idx = TabulationIndex::build(&before);
        let a_idx = TabulationIndex::build(&after);
        let truth = b_idx.flows_expr_sharded(&a_idx, &workload1(), &expr, 1);
        assert_eq!(
            artifact.flows().expect("flow payload").len(),
            truth.num_cells()
        );
    }

    #[test]
    fn store_backed_flow_cache_serves_disk_hits_across_caches() {
        let (before, after) = quarter_pair();
        let dir = std::env::temp_dir().join("eree-engine-unit-flow-disk-hits");
        let _ = std::fs::remove_dir_all(&dir);
        let digest = crate::store::dataset_digest(&after);
        let budget = PrivacyParams::approximate(0.1, 12.0, 0.12);
        let request = flow_request();

        let open_cache =
            || TabulationCache::with_store(crate::truths::TruthStore::open(&dir, digest).unwrap());
        let mut engine = ReleaseEngine::new(budget);
        let mut cache = open_cache();
        let first = engine
            .execute_flows_cached(&before, &after, &request, &mut cache)
            .unwrap();
        assert_eq!(engine.tabulation_stats().computed, 1);

        // A sibling cache over the same store reuses the persisted flow
        // truth: a digest-verified load, zero recomputation.
        let mut engine2 = ReleaseEngine::new(budget);
        let mut cache2 = open_cache();
        let resumed = engine2
            .execute_flows_cached(&before, &after, &request, &mut cache2)
            .unwrap();
        assert_eq!(resumed, first);
        assert_eq!(engine2.tabulation_stats().computed, 0);
        assert_eq!(engine2.tabulation_stats().disk_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
