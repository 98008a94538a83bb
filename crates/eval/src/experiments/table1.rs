//! Table 1: privacy definitions and the statutory requirements they
//! satisfy.
//!
//! The matrix itself is analytical (encoded in
//! [`eree_core::definitions::requirement_matrix`]); this module renders it
//! and — unlike the paper, which proves the entries — *spot-verifies* the
//! load-bearing ones numerically:
//!
//! * edge-DP (DP over individuals) fails the employer-size requirement —
//!   via the additive disclosure band of Claim B.1;
//! * the ER-EE mechanisms satisfy all three requirements — via the
//!   Bayes-factor checks of `eree_core::pufferfish`.

use crate::report::write_results;
use eree_core::definitions::{requirement_matrix, Requirement};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// One row of the rendered Table 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Privacy definition name.
    pub method: String,
    /// "Yes"/"No"/"Yes*" for the individuals requirement.
    pub individuals: String,
    /// Same for employer size.
    pub employer_size: String,
    /// Same for employer shape.
    pub employer_shape: String,
}

/// Render Table 1.
pub fn run() -> Vec<Table1Row> {
    requirement_matrix()
        .into_iter()
        .map(|(method, cells)| {
            let get = |req: Requirement| -> String {
                cells
                    .iter()
                    .find(|(r, _)| *r == req)
                    .map(|(_, s)| s.cell().to_string())
                    .expect("matrix covers all requirements")
            };
            Table1Row {
                method: method.label().to_string(),
                individuals: get(Requirement::Individuals),
                employer_size: get(Requirement::EmployerSize),
                employer_shape: get(Requirement::EmployerShape),
            }
        })
        .collect()
}

/// Numeric spot-checks of the matrix entries that drive the paper's
/// argument. Returns a list of (claim, verified) pairs.
pub fn verify() -> Vec<(String, bool)> {
    use eree_core::mechanisms::{LogLaplaceMechanism, SmoothGammaMechanism};
    use eree_core::pufferfish::{
        check_employee_requirement, check_employer_shape_requirement,
        check_employer_size_requirement,
    };
    use graphdp::EdgeLaplace;

    let mut results = Vec::new();

    // ER-EE privacy satisfies all three requirements (rows 4-5).
    let (alpha, eps) = (0.1, 1.0);
    let ll = LogLaplaceMechanism::new(alpha, eps);
    results.push((
        "ER-EE (Log-Laplace) satisfies individual requirement".to_string(),
        check_employee_requirement(&ll, eps, &[0, 10, 1000]),
    ));
    results.push((
        "ER-EE (Log-Laplace) satisfies size requirement".to_string(),
        check_employer_size_requirement(&ll, eps, alpha, &[20, 500]),
    ));
    results.push((
        "ER-EE (Log-Laplace) satisfies shape requirement".to_string(),
        check_employer_shape_requirement(&ll, eps, alpha, 500, &[0.1, 0.4]),
    ));
    let sg = SmoothGammaMechanism::new(alpha, 2.0).expect("valid params");
    results.push((
        "ER-EE (Smooth Gamma) satisfies size requirement".to_string(),
        check_employer_size_requirement(&sg, 2.0, alpha, &[20, 500]),
    ));

    // Edge-DP fails the size requirement (row 2): the additive band
    // ln(1/p)/eps is far narrower than alpha*size for large establishments,
    // i.e. the adversary CAN distinguish |e|=x from |e|=(1+alpha)x.
    let edge = EdgeLaplace::new(1.0);
    let band = edge.size_disclosure_band(0.01);
    let big_estab = 10_000.0;
    results.push((
        "Edge-DP fails size requirement for large establishments".to_string(),
        band < 0.1 * big_estab,
    ));

    results
}

/// Assert that the rendered matrix matches the paper's Table 1 exactly.
pub fn matches_paper() -> bool {
    let rows = run();
    let expect = [
        ("Input Noise Infusion", ["No", "No", "No"]),
        ("Differential Privacy (individuals", ["Yes", "No", "No"]),
        (
            "Differential Privacy (establishments",
            ["Yes", "Yes", "Yes"],
        ),
        ("ER-EE-privacy", ["Yes", "Yes", "Yes"]),
        ("Weak ER-EE privacy", ["Yes", "Yes*", "Yes"]),
    ];
    rows.len() == expect.len()
        && rows
            .iter()
            .zip(expect.iter())
            .all(|(row, (prefix, cells))| {
                row.method.starts_with(prefix)
                    && row.individuals == cells[0]
                    && row.employer_size == cells[1]
                    && row.employer_shape == cells[2]
            })
}

/// Render Table 1 with its spot-verification and write it as
/// `table1.{md,csv,json}` under `dir`; returns the markdown.
///
/// # Panics
/// Panics if the matrix deviates from the paper or a verification claim
/// fails.
pub fn write(dir: &Path) -> io::Result<String> {
    let rows = run();
    let mut md = String::from(
        "# Table 1: Privacy definitions and requirements they satisfy\n\n\
         | Name | Individuals | Emp. Size | Emp. Shape |\n|---|---|---|---|\n",
    );
    let mut csv = String::from("method,individuals,employer_size,employer_shape\n");
    for r in &rows {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} |",
            r.method, r.individuals, r.employer_size, r.employer_shape
        );
        let _ = writeln!(
            csv,
            "{},{},{},{}",
            r.method.replace(',', ";"),
            r.individuals,
            r.employer_size,
            r.employer_shape
        );
    }
    md.push_str("\n`Yes*` = requirement satisfied under weak adversaries.\n");

    md.push_str("\n## Numeric spot-verification\n\n");
    let mut all_ok = true;
    for (claim, ok) in verify() {
        let _ = writeln!(md, "- [{}] {claim}", if ok { "x" } else { " " });
        all_ok &= ok;
    }
    assert!(matches_paper(), "matrix deviates from the paper");
    assert!(all_ok, "a verification claim failed");
    write_results(dir, "table1", &md, &csv, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper() {
        assert!(matches_paper());
    }

    #[test]
    fn verification_claims_all_pass() {
        for (claim, ok) in verify() {
            assert!(ok, "failed claim: {claim}");
        }
    }
}
