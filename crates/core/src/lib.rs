//! (α, ε)-ER-EE privacy: the primary contribution of Haney et al.
//! (SIGMOD 2017), "Utility Cost of Formal Privacy for Releasing National
//! Employer-Employee Statistics".
//!
//! ## The release engine
//!
//! The crate's front door is [`engine::ReleaseEngine`]: a ledger-enforced
//! executor through which every formally private release flows. Requests
//! are described with the [`engine::ReleaseRequest`] builder, validated
//! against the mechanism's constraints and the remaining `(α, ε, δ)`
//! budget *before* any sampling, and emitted as serde-serializable
//! [`engine::ReleaseArtifact`]s carrying provenance, cost, and payload.
//! [`engine::ReleaseEngine::execute`] admits one release against a
//! [`TruthSource`]: here a [`Snapshot`] of the dataset, tabulated through
//! a [`TabulationCache`]:
//!
//! ```
//! use eree_core::engine::{ReleaseEngine, ReleaseRequest};
//! use eree_core::{MechanismKind, PrivacyParams, Snapshot, TabulationCache, TruthSource};
//! use lodes::{Generator, GeneratorConfig};
//! use tabulate::workload1;
//!
//! let dataset = Generator::new(GeneratorConfig::test_small(7)).generate();
//! let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 4.0));
//! let request = ReleaseRequest::marginal(workload1())
//!     .mechanism(MechanismKind::SmoothGamma)
//!     .budget(PrivacyParams::pure(0.1, 2.0))
//!     .seed(42);
//! let mut cache = TabulationCache::new();
//! let data = Snapshot::of(&dataset);
//! let artifact = engine
//!     .execute(&request, TruthSource::Tabulate { data, cache: &mut cache })
//!     .unwrap();
//! assert!((engine.ledger().remaining_epsilon() - 2.0).abs() < 1e-12);
//! assert!(!artifact.cells().unwrap().is_empty());
//! // Truth digests only exist under the opt-in `eval-only` feature.
//! assert!(cfg!(feature = "eval-only") || artifact.truth_digest.is_none());
//! ```
//!
//! Failures anywhere in the pipeline surface as the unified
//! [`EngineError`] hierarchy; a rejected request never spends budget.
//!
//! ## Resuming a publication season
//!
//! A season — an agency's ordered plan of releases spending one
//! season-long budget — outlives any single process. The
//! [`store::SeasonStore`] makes it durable: every artifact is persisted
//! as JSON (atomically, artifact first) together with a [`Ledger`]
//! snapshot, and [`store::SeasonStore::open`] restores the ledger by
//! *replaying* its entries through the same compensated budget
//! arithmetic [`Ledger::charge`] uses, refusing corrupted or
//! budget-inconsistent stores outright. Killing a season run and
//! resuming it re-spends nothing and reproduces the remaining artifacts
//! bit-for-bit (noise streams derive from `(request seed, cell key)`):
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
//!         .describe("Q1: establishment counts")
//!         .seed(1),
//!     ReleaseRequest::marginal(workload3())
//!         .mechanism(MechanismKind::LogLaplace)
//!         .budget(PrivacyParams::pure(0.1, 8.0))
//!         .describe("Q2: … x sex x education")
//!         .seed(2),
//! ];
//! let dir = std::env::temp_dir().join("eree-lib-doc-season");
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! // The process running the season is killed after the first release…
//! let data = Snapshot::of(&dataset);
//! let mut store = SeasonStore::create(&dir, PrivacyParams::pure(0.1, 10.0)).unwrap();
//! store.run(data, &season[..1], &mut TabulationCache::new()).unwrap();
//! drop(store); // (the kill)
//!
//! // …and a new process resumes exactly where it stopped.
//! let mut store = SeasonStore::open(&dir).unwrap();
//! let report = store.run(data, &season, &mut TabulationCache::new()).unwrap();
//! assert_eq!((report.resumed_from, report.executed), (1, 1));
//! assert_eq!(store.completed(), 2);
//! assert!(store.ledger().remaining_epsilon() < 1e-9);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! ## Layer map
//!
//! Roughly in the order the paper develops them:
//!
//! * [`pufferfish`] — machine-checkable encodings of the three statutory
//!   privacy requirements (Defs 4.1–4.3): no re-identification of
//!   individuals, no precise inference of establishment *size*, no precise
//!   inference of establishment *shape*.
//! * [`neighbors`] — strong and weak α-neighbors (Defs 7.1/7.3) and the
//!   induced database distance metric of Sec 7.2.
//! * [`definitions`] — the privacy parameter types ((α,ε), weak, and
//!   (α,ε,δ) variants), their validity constraints, the Table 1
//!   requirement-satisfaction matrix, and the Table 2 minimum-ε
//!   computation.
//! * [`smooth`] — the extended smooth-sensitivity framework
//!   (Defs 8.1–8.3, Thm 8.4, Lemmas 8.5/8.6/9.1).
//! * [`mechanisms`] — Algorithms 1–3: Log-Laplace, Smooth Gamma, and
//!   Smooth Laplace, each with exact samplers *and* analytic output
//!   densities so the ε-indistinguishability guarantees are verified
//!   numerically in the test-suite rather than assumed.
//! * [`accountant`] — sequential and parallel composition (Thms 7.3–7.5)
//!   and the budget [`Ledger`] the engine enforces.
//! * [`engine`] — the release engine: builder requests, ledger-enforced
//!   single and batch execution (noising parallelized across
//!   cells/requests, deterministic under any thread count), durable
//!   artifacts, and the shared [`engine::TabulationCache`].
//! * [`filter`] — declarative sub-population filters ([`FilterExpr`]):
//!   serializable ASTs over worker/workplace attributes with a stable
//!   content digest ([`FilterId`]), so filtered requests share
//!   tabulations by structure and filter provenance is verified across
//!   season resumes.
//! * [`store`] — the on-disk season store: atomic artifact + ledger
//!   persistence with verified, replay-based resume.
//! * [`truths`] — the persistent, content-addressed store of tabulated
//!   truth marginals (keyed by dataset digest + spec + normalized filter,
//!   digest-verified on load) that seasons share.
//! * [`public_cache`] — the *public* side of the same discipline: a
//!   content-addressed cache of released artifacts, keyed by the full
//!   release identity, from which repeat identical requests are served
//!   with zero additional ε and zero tabulation work.
//! * [`agency`] — the multi-season governance layer: a durable
//!   [`MetaLedger`] holding a global ε cap from which every season's
//!   budget is reserved up front, child [`SeasonStore`]s, and the shared
//!   truth store — an agency's whole release program under one bound.
//! * [`error`] — the [`EngineError`] hierarchy consolidating release,
//!   ledger, shape, and neighbor errors.
//! * [`shape`] — the released establishment-shape type and its error.

// Every public item of the release pipeline is part of an agency-facing
// API surface; undocumented additions fail `cargo doc -D warnings` in CI.
#![warn(missing_docs)]

pub mod accountant;
pub mod agency;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod definitions;
pub mod engine;
pub mod error;
pub mod filter;
pub mod integerize;
pub mod mechanisms;
pub mod metrics;
pub mod neighbors;
pub mod public_cache;
pub mod pufferfish;
pub mod shape;
pub mod smooth;
pub mod store;
pub mod truths;

pub use accountant::{
    BudgetAccount, Ledger, LedgerEntry, LedgerError, MetaEvent, MetaLedger, ReleaseCost,
    SeasonClosure, SeasonReservation, LEDGER_REL_TOL,
};
pub use agency::{panel_quarter_seed, AgencyStore, ClosureReceipt, SeasonSummary};
pub use definitions::{
    min_epsilon_smooth_gamma, min_epsilon_smooth_laplace, requirement_matrix, PrivacyMethod,
    PrivacyParams, Requirement, Satisfaction,
};
pub use engine::{
    ArtifactPayload, FlowRelease, ReleaseArtifact, ReleaseEngine, ReleaseRequest, RequestKind,
    RequestProvenance, Snapshot, TabulationCache, TabulationStats, TruthDigest, TruthSource,
};
pub use error::EngineError;
pub use filter::{Cmp, CompiledFilter, FilterExpr, FilterId};
pub use integerize::Integerized;
pub use mechanisms::{
    CellQuery, CountMechanism, LogLaplaceMechanism, MechanismKind, SmoothGammaMechanism,
    SmoothLaplaceMechanism,
};
pub use metrics::{
    CacheSnapshot, FamilyMetrics, FamilySnapshot, LatencySnapshot, MetricsRegistry,
    MetricsSnapshot, ReasonCount, SeasonQueue, ServiceSnapshot,
};
pub use neighbors::{size_distance, NeighborError, NeighborKind};
pub use public_cache::{ReleaseCache, ReleaseKey};
pub use shape::{ShapeError, ShapeRelease};
pub use smooth::{smooth_sensitivity_count, AdmissibilityBudget};
pub use store::{
    dataset_digest, dataset_pair_digest, panel_digest, CompletedRelease, DirLease, SeasonReport,
    SeasonStore, StoreError,
};
pub use truths::TruthStore;
