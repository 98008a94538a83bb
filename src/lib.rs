//! # eree — formal privacy for national employer-employee statistics
//!
//! A Rust reproduction of Haney, Machanavajjhala, Abowd, Graham, Kutzbach
//! and Vilhuber, *"Utility Cost of Formal Privacy for Releasing National
//! Employer-Employee Statistics"* (SIGMOD 2017): privacy definitions and
//! release mechanisms for tabular summaries of linked employer-employee
//! (ER-EE) data, evaluated against the statistical-disclosure-limitation
//! system used in production by the U.S. Census Bureau's LODES product.
//!
//! This crate is a facade that re-exports the workspace members:
//!
//! * [`lodes`] — synthetic LODES-style data substrate (schema, geography,
//!   calibrated generator).
//! * [`tabulate`] — marginal (GROUP BY) query engine with per-cell
//!   establishment metadata, plus the declarative
//!   [`FilterExpr`](tabulate::FilterExpr) sub-population filters.
//! * [`noise`] — noise distributions (Laplace, log-Laplace, polynomial-
//!   tail) with analytic densities.
//! * [`sdl`] — the input-noise-infusion baseline and its inference
//!   attacks.
//! * [`graphdp`] — edge- and node-DP baselines on the bipartite job graph.
//! * [`eree_core`] — the paper's contribution: (α,ε)-ER-EE privacy,
//!   smooth sensitivity, the Log-Laplace / Smooth Gamma / Smooth Laplace
//!   mechanisms, and the ledger-enforced release engine.
//! * [`eree_service`] — a multi-tenant HTTP release service over the
//!   agency: per-season write leases and worker queues, plus a public
//!   released-artifact cache that answers repeat requests at zero ε.
//! * [`eval`] — the experiment harness regenerating every table and
//!   figure.
//!
//! ## Quickstart
//!
//! Every formally private release flows through the
//! [`ReleaseEngine`](eree_core::engine::ReleaseEngine): open it with a
//! session budget, describe releases with the
//! [`ReleaseRequest`](eree_core::engine::ReleaseRequest) builder, and get
//! back serializable [`ReleaseArtifact`](eree_core::engine::ReleaseArtifact)s.
//! [`ReleaseEngine::execute`](eree_core::engine::ReleaseEngine::execute)
//! admits one release against a
//! [`TruthSource`](eree_core::engine::TruthSource) — typically a
//! [`Snapshot`](eree_core::engine::Snapshot) of the data, tabulated
//! through a [`TabulationCache`](eree_core::engine::TabulationCache).
//! The engine validates every request against the remaining budget
//! *before* tabulating or sampling; a refused request spends nothing.
//!
//! ```
//! use eree::prelude::*;
//!
//! // Generate a small synthetic ER-EE universe.
//! let dataset = Generator::new(GeneratorConfig::test_small(7)).generate();
//!
//! // One ledger for the whole session: (alpha = 0.1, eps = 4).
//! let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 4.0));
//!
//! // Release the place x industry x ownership marginal with provable
//! // (alpha = 0.1, epsilon = 2) ER-EE privacy via Smooth Gamma.
//! let request = ReleaseRequest::marginal(workload1())
//!     .mechanism(MechanismKind::SmoothGamma)
//!     .budget(PrivacyParams::pure(0.1, 2.0))
//!     .seed(42);
//! // The cache keeps the tabulation for later releases of the same data.
//! let mut cache = TabulationCache::new();
//! let data = Snapshot::of(&dataset);
//! let artifact = engine
//!     .execute(&request, TruthSource::Tabulate { data, cache: &mut cache })
//!     .unwrap();
//! assert!(artifact.cells().unwrap().len() > 0);
//! // Half the session budget remains for later releases.
//! assert!((engine.ledger().remaining_epsilon() - 2.0).abs() < 1e-12);
//! ```

pub use eree_core;
pub use eree_service;
pub use eval;
pub use graphdp;
pub use lodes;
pub use noise;
pub use sdl;
pub use tabulate;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use eree_core::{
        panel_quarter_seed, AgencyStore, ArtifactPayload, CountMechanism, EngineError,
        FamilySnapshot, FilterExpr, FilterId, FlowRelease, Ledger, MechanismKind, MetaLedger,
        MetricsRegistry, MetricsSnapshot, PrivacyParams, ReleaseArtifact, ReleaseCost,
        ReleaseEngine, ReleaseRequest, RequestKind, SeasonReport, SeasonStore, SeasonSummary,
        Snapshot, StoreError, TabulationCache, TabulationStats, TruthSource, TruthStore,
    };
    pub use eree_service::{Client, ReleaseService, ReleaseSubmission, ServiceConfig};
    pub use lodes::{
        CountyId, Dataset, DatasetStats, Generator, GeneratorConfig, PlaceSizeClass, StateId,
    };
    pub use sdl::{SdlConfig, SdlPublisher};
    pub use tabulate::{
        compute_flows, compute_marginal, compute_marginal_expr, ranking2_expr, ranking2_filter,
        workload1, workload3, CellKey, DatasetIndex, FlowMarginal, FlowStats, Kernel, Marginal,
        MarginalSpec, WorkerAttr, WorkplaceAttr,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_working_pipeline() {
        let dataset = Generator::new(GeneratorConfig::test_small(1)).generate();
        let truth = compute_marginal(&dataset, &workload1());
        let mut engine = ReleaseEngine::new(PrivacyParams::pure(0.1, 2.0));
        let request = ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .seed(5);
        let data = Snapshot::of(&dataset);
        let cache = &mut TabulationCache::new();
        let artifact = engine
            .execute(&request, TruthSource::Tabulate { data, cache })
            .unwrap();
        assert!(artifact.l1_error_against(&truth).unwrap() > 0.0);
    }
}
