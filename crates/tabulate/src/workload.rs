//! The paper's evaluation workloads (Sec 10).
//!
//! * **Workload 1** — the marginal over all establishment characteristics:
//!   place × NAICS sector × ownership (no worker attributes).
//! * **Workload 2** — single queries over all establishment attributes plus
//!   the worker attributes sex and education (individual cells of the
//!   Workload 3 marginal).
//! * **Workload 3** — the full marginal over establishment attributes ×
//!   sex × education.
//! * **Ranking 1** — rank the Workload 1 cells by total count, descending.
//! * **Ranking 2** — rank the Workload 1 cells by their count of female
//!   workers with a bachelor's degree or higher.

use crate::attr::{MarginalSpec, WorkerAttr, WorkplaceAttr};
use crate::filter::FilterExpr;
use lodes::{Education, Sex, Worker};

/// Workload 1: `place × industry × ownership`, no worker attributes.
pub fn workload1() -> MarginalSpec {
    MarginalSpec::new(
        vec![
            WorkplaceAttr::Place,
            WorkplaceAttr::Naics,
            WorkplaceAttr::Ownership,
        ],
        vec![],
    )
}

/// Workload 2/3: `place × industry × ownership × sex × education`.
///
/// Workload 2 treats the cells of this marginal as individual single-count
/// queries; Workload 3 releases the whole marginal.
pub fn workload3() -> MarginalSpec {
    MarginalSpec::new(
        vec![
            WorkplaceAttr::Place,
            WorkplaceAttr::Naics,
            WorkplaceAttr::Ownership,
        ],
        vec![WorkerAttr::Sex, WorkerAttr::Education],
    )
}

/// Alias for [`workload3`]: Workload 2 uses the same marginal, queried one
/// cell at a time.
pub fn workload2() -> MarginalSpec {
    workload3()
}

/// Worker filter for Ranking 2: female workers with a bachelor's degree or
/// higher.
///
/// The hand-written predicate [`ranking2_expr`] is checked against; the
/// tabulation engine itself only accepts the declarative form.
pub fn ranking2_filter(worker: &Worker) -> bool {
    worker.sex == Sex::Female && worker.education == Education::BachelorOrHigher
}

/// Declarative form of [`ranking2_filter`]: the same population as a
/// serializable [`FilterExpr`] with a stable
/// [`FilterId`](crate::filter::FilterId), so Ranking 2 releases can share
/// tabulations across construction sites and verify filter provenance
/// across season resumes.
pub fn ranking2_expr() -> FilterExpr {
    FilterExpr::sex(Sex::Female).and(FilterExpr::education_at_least(Education::BachelorOrHigher))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{compute_marginal, compute_marginal_expr};
    use crate::index::TabulationIndex;
    use lodes::{Generator, GeneratorConfig};

    #[test]
    fn workload_specs() {
        assert_eq!(workload1().name(), "place x naics x ownership");
        assert!(!workload1().has_worker_attrs());
        assert_eq!(
            workload3().name(),
            "place x naics x ownership x sex x education"
        );
        assert_eq!(workload3().worker_domain_size(), 8);
        assert_eq!(workload2(), workload3());
    }

    #[test]
    fn ranking2_is_a_slice_of_workload3() {
        let d = Generator::new(GeneratorConfig::test_small(8)).generate();
        let w3 = compute_marginal(&d, &workload3());
        // Slice: sex = Female(1), education = BachelorOrHigher(3).
        let sliced = w3.slice_worker_attrs(&[(WorkerAttr::Sex, 1), (WorkerAttr::Education, 3)]);
        let filtered = compute_marginal_expr(&d, &workload1(), &ranking2_expr());
        // Both routes must agree cell-by-cell.
        assert_eq!(sliced.len(), filtered.num_cells());
        for (key, stats) in filtered.iter() {
            assert_eq!(sliced.get(&key).copied(), Some(stats.count), "cell {key:?}");
        }
    }

    #[test]
    fn ranking2_expr_matches_ranking2_filter() {
        let d = Generator::new(GeneratorConfig::test_small(8)).generate();
        let compiled = ranking2_expr().compile(&TabulationIndex::build(&d));
        for w in d.workers() {
            assert_eq!(compiled.matches(w), ranking2_filter(w), "worker {:?}", w.id);
        }
        #[cfg(feature = "reference")]
        {
            let reference =
                crate::engine::compute_marginal_filtered_legacy(&d, &workload1(), ranking2_filter);
            let via_expr = compute_marginal_expr(&d, &workload1(), &ranking2_expr());
            assert_eq!(via_expr.num_cells(), reference.num_cells());
            for ((ka, sa), (kb, sb)) in via_expr.iter().zip(reference.iter()) {
                assert_eq!((ka, sa), (kb, sb));
            }
        }
        // Two separately constructed expressions share one identity.
        assert_eq!(ranking2_expr().id(), ranking2_expr().id());
    }
}
