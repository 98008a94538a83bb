//! Marginal (GROUP BY) query engine over linked ER-EE data.
//!
//! Definition 2.1 of the paper: the marginal query `q_V(D)` returns one
//! count per cell of the cross-product domain of the grouping attributes
//! `V = V_I ∪ V_W` (worker attributes and workplace attributes), evaluated
//! over the joined `WorkerFull` relation —
//! `SELECT COUNT(*) FROM D GROUP BY V`.
//!
//! Beyond raw counts, every released cell carries the metadata the privacy
//! mechanisms need:
//!
//! * `max_establishment` — `x_v`, the largest contribution of any single
//!   establishment to the cell. Lemma 8.5 shows the smooth sensitivity of a
//!   count under (α,ε)-ER-EE privacy is `max(x_v·α, 1)`, so the Smooth
//!   Gamma and Smooth Laplace mechanisms consume this value directly.
//! * `establishments` — the number of contributing establishments (used by
//!   the SDL attack demonstrations, which need singleton-establishment
//!   cells).
//!
//! Evaluation runs on one index type, [`DatasetIndex`], built once per
//! dataset and shared across every tabulation of it: a list of columnar,
//! employer-grouped CSR shards ([`TabulationIndex`] — CSR worker ranges +
//! pre-extracted attribute code columns), one shard for ordinary
//! datasets and one per state at national scale. Its two evaluators,
//! [`DatasetIndex::marginal`] and [`DatasetIndex::flows`], split the
//! establishment loop into tasks run on at most `threads` threads of the
//! workspace's one fork-join ([`par::map`]) and merge the sorted
//! per-task runs deterministically. The engine is
//! deterministic: cells live in a `Vec` sorted by packed key, so
//! iteration order (and therefore experiment output) is stable across
//! runs *and* bit-identical at any thread count, in either layout.
//!
//! Sub-population workloads (Ranking 2, OnTheMap-style extracts) restrict
//! the tabulated population with a declarative [`FilterExpr`] — a
//! serializable AST over worker and workplace attributes with a stable
//! content digest ([`FilterId`]) — compiled against the index into a
//! [`CompiledFilter`]; it is the only population filter the evaluators
//! accept. See [`filter`].

// Marginals, specs, filters, and the index are agency-facing API surface;
// undocumented additions fail `cargo doc -D warnings` in CI.
#![warn(missing_docs)]

pub mod area;
pub mod attr;
pub mod cell;
pub mod engine;
pub mod filter;
pub mod flows;
pub mod fnv;
pub mod index;
pub mod kernel;
pub mod marginal;
pub mod par;
pub mod region;
pub mod strata;
pub mod workload;

pub use area::{area_comparison, validate_disjoint, AreaSelection, OverlapError};
pub use attr::{Attr, MarginalSpec, WorkerAttr, WorkplaceAttr};
pub use cell::{CellKey, CellSchema};
pub use engine::{compute_marginal, compute_marginal_expr};
#[cfg(feature = "reference")]
pub use engine::{compute_marginal_filtered_legacy, compute_marginal_legacy};
pub use filter::{Cmp, CompiledFilter, FilterExpr, FilterId};
#[cfg(feature = "reference")]
pub use flows::compute_flows_legacy;
pub use flows::{compute_flows, FlowMarginal, FlowStats};
pub use fnv::Fnv1a;
pub use index::TabulationIndex;
pub use kernel::{simd_available, Kernel};
pub use marginal::{CellStats, Marginal};
pub use region::{DatasetIndex, RegionIndexBuilder};
pub use strata::stratify_by_place_size;
pub use workload::{ranking2_expr, ranking2_filter, workload1, workload2, workload3};
