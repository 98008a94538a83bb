//! Table 2 (Appendix C): minimum values of ε given α and δ for the Smooth
//! Laplace mechanism.
//!
//! The minimum solves Algorithm 3's validity constraint
//! `α + 1 ≤ e^{ε/(2·ln(1/δ))}`, giving `ε_min = 2·ln(1/δ)·ln(1+α)`.
//! DESIGN.md §6 records how these constraint-derived values compare with
//! the numbers printed in the paper (they match the δ = 5×10⁻⁴ column for
//! α ∈ {.01, .10}; the δ = .05 column appears to use a different
//! convention). Both are emitted so EXPERIMENTS.md can show them side by
//! side.

use crate::report::write_results;
use eree_core::definitions::min_epsilon_smooth_laplace;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One row of the regenerated Table 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2Row {
    /// δ.
    pub delta: f64,
    /// α.
    pub alpha: f64,
    /// Our constraint-derived ε minimum.
    pub epsilon_min: f64,
    /// The value printed in the paper, for comparison.
    pub paper_epsilon: f64,
}

/// The paper's printed grid.
const PAPER_VALUES: [(f64, f64, f64); 6] = [
    (0.05, 0.01, 0.105),
    (0.05, 0.10, 1.01),
    (0.05, 0.20, 1.932),
    (5e-4, 0.01, 0.15),
    (5e-4, 0.10, 1.45),
    (5e-4, 0.20, 2.13),
];

/// Regenerate Table 2.
pub fn run() -> Vec<Table2Row> {
    PAPER_VALUES
        .iter()
        .map(|&(delta, alpha, paper_epsilon)| Table2Row {
            delta,
            alpha,
            epsilon_min: min_epsilon_smooth_laplace(alpha, delta),
            paper_epsilon,
        })
        .collect()
}

/// Regenerate Table 2 and write it as `table2.{md,csv,json}` under `dir`;
/// returns the markdown.
pub fn write(dir: &Path) -> io::Result<String> {
    let rows = run();
    let mut md = String::from(
        "# Table 2: Minimum epsilon given alpha and delta (Smooth Laplace validity)\n\n\
         | delta | alpha | eps_min (constraint: 2 ln(1/delta) ln(1+alpha)) | eps (paper) |\n\
         |---|---|---|---|\n",
    );
    let mut csv = String::from("delta,alpha,epsilon_min,paper_epsilon\n");
    for r in &rows {
        let _ = writeln!(
            md,
            "| {} | {} | {:.3} | {} |",
            r.delta, r.alpha, r.epsilon_min, r.paper_epsilon
        );
        let _ = writeln!(
            csv,
            "{},{},{},{}",
            r.delta, r.alpha, r.epsilon_min, r.paper_epsilon
        );
    }
    md.push_str(
        "\nSee DESIGN.md section 6: the constraint-derived values match the paper's \
         delta = 5e-4 column for alpha in {.01, .10}; the delta = .05 column of the \
         paper appears to use a different convention.\n",
    );
    write_results(dir, "table2", &md, &csv, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eree_core::mechanisms::SmoothLaplaceMechanism;

    #[test]
    fn minimums_are_tight_against_the_mechanism() {
        for row in run() {
            // Just above the minimum: mechanism constructs.
            assert!(
                SmoothLaplaceMechanism::new(row.alpha, row.epsilon_min * 1.001, row.delta)
                    .is_some(),
                "{row:?}"
            );
            // Just below: rejected.
            assert!(
                SmoothLaplaceMechanism::new(row.alpha, row.epsilon_min * 0.98, row.delta).is_none(),
                "{row:?}"
            );
        }
    }

    #[test]
    fn delta_5e4_column_matches_paper_for_small_alpha() {
        let rows = run();
        for row in rows.iter().filter(|r| r.delta == 5e-4 && r.alpha < 0.15) {
            assert!(
                (row.epsilon_min - row.paper_epsilon).abs() < 0.01,
                "constraint-derived {} vs paper {} at alpha={}",
                row.epsilon_min,
                row.paper_epsilon,
                row.alpha
            );
        }
    }

    #[test]
    fn epsilon_grows_with_alpha_within_each_delta() {
        let rows = run();
        for delta in [0.05, 5e-4] {
            let col: Vec<f64> = rows
                .iter()
                .filter(|r| r.delta == delta)
                .map(|r| r.epsilon_min)
                .collect();
            for pair in col.windows(2) {
                assert!(pair[0] < pair[1], "column must increase: {col:?}");
            }
        }
    }
}
