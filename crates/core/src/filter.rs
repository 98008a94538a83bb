//! Declarative population filters for release requests.
//!
//! This module is the release engine's view of the filter AST implemented
//! in [`tabulate::filter`] (compilation lives next to the columnar index
//! it specializes against; the types are re-exported here so engine users
//! need only `eree_core`). See that module for the expression grammar and
//! the compilation pipeline; this page documents what filter *identity*
//! buys the release pipeline.
//!
//! A sub-population release — OnTheMap-style county × industry extracts,
//! Ranking 2's "female workers with a bachelor's degree or higher" —
//! restricts the tabulated population. When the restriction is an opaque
//! closure the engine can neither compare two filters nor record what was
//! filtered, which breaks exactly the properties a statistical agency's
//! pipeline needs:
//!
//! * **Shared tabulation.** Tabulating the confidential database is the
//!   dominant cost at national scale. With a [`FilterExpr`], the
//!   [`TabulationCache`](crate::engine::TabulationCache) and
//!   [`ReleaseEngine::execute_all`](crate::engine::ReleaseEngine::execute_all)
//!   key on `(MarginalSpec, normalized FilterExpr)`: structurally equal
//!   filters share one tabulation even when constructed independently —
//!   in another function, another batch, or (once truths persist)
//!   another process.
//! * **Auditable provenance.** The serialized expression is embedded in
//!   every [`ReleaseArtifact`](crate::engine::ReleaseArtifact), so an
//!   auditor can read *which* population a published table covers — the
//!   disclosure-avoidance review posture the paper's setting demands.
//! * **Verified resume.** A [`SeasonStore`](crate::store::SeasonStore)
//!   compares stored filters against the resume plan's: a season cannot
//!   be silently resumed under a plan whose filter changed.
//!
//! ```
//! use eree_core::filter::FilterExpr;
//! use eree_core::{
//!     MechanismKind, PrivacyParams, ReleaseEngine, ReleaseRequest, Snapshot, TabulationCache,
//!     TruthSource,
//! };
//! use lodes::{CountyId, Education, Generator, GeneratorConfig, Sex};
//! use tabulate::workload1;
//!
//! // "Female workers with a bachelor's degree or higher, at
//! //  establishments in county 0" — geography prefix × worker predicate.
//! let expr = FilterExpr::in_county(CountyId(0))
//!     .and(FilterExpr::sex(Sex::Female))
//!     .and(FilterExpr::education_at_least(Education::BachelorOrHigher));
//!
//! // The expression is data: serializable, with a stable digest.
//! let json = serde_json::to_string(&expr).unwrap();
//! let back: FilterExpr = serde_json::from_str(&json).unwrap();
//! assert_eq!(back.id(), expr.id());
//!
//! // It rides a request like any other builder option, and the artifact
//! // records it.
//! let dataset = Generator::new(GeneratorConfig::test_small(7)).generate();
//! let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 2.0));
//! let request = ReleaseRequest::marginal(workload1())
//!     .mechanism(MechanismKind::SmoothGamma)
//!     .budget(PrivacyParams::pure(0.1, 2.0))
//!     .filter_expr(expr.clone())
//!     .seed(3);
//! let data = Snapshot::of(&dataset);
//! let mut cache = TabulationCache::new();
//! let artifact = engine
//!     .execute(&request, TruthSource::Tabulate { data, cache: &mut cache })
//!     .unwrap();
//! assert_eq!(artifact.request.filter_id(), Some(expr.id()));
//! ```

pub use tabulate::filter::{Cmp, CompiledFilter, FilterExpr, FilterId};
