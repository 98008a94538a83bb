//! The evaluation pipeline's canonical two-season agency.
//!
//! The figures measure single releases; this module exercises the *other*
//! half of the paper's story — Sec 7.3–7.5 composition across ordered
//! sequences of publications — at the level a statistical agency actually
//! operates: **many seasons over one confidential snapshot, governed by
//! one global privacy-loss cap** (the social choice of Abowd & Schmutte,
//! 2018). `run_all` (and the agency CI smoke step) call [`run_or_resume`]:
//!
//! * the **annual** season is the canonical five-release plan (two
//!   releases sharing the Workload 1 tabulation, an approximate-DP county
//!   release, and a declaratively filtered sub-population release);
//! * the **followup** season re-publishes the Workload 1 marginal *and*
//!   the filtered county marginal under fresh mechanisms/seeds — both
//!   truths are served from the agency's persistent truth store with
//!   **zero recomputation**, the cross-season cache hit the
//!   [`AgencyStore`] exists to provide;
//! * a kill at any point resumes bit-identically without re-spending ε,
//!   and the two season budgets exhaust the agency cap exactly, so any
//!   further season is refused up front.

use eree_core::agency::AgencyStore;
use eree_core::store::{SeasonReport, StoreError};
use eree_core::{MechanismKind, PrivacyParams, ReleaseRequest};
use lodes::Dataset;
use std::path::Path;
use tabulate::{ranking2_expr, workload1, workload3, MarginalSpec, WorkplaceAttr};

/// Name of the canonical five-release season.
pub const ANNUAL_SEASON: &str = "annual";
/// Name of the truth-sharing re-release season.
pub const FOLLOWUP_SEASON: &str = "followup";

/// The agency-wide cap: the two canonical seasons exhaust it exactly.
pub fn agency_cap() -> PrivacyParams {
    PrivacyParams::approximate(0.1, 16.0, 0.05)
}

/// The annual season's budget: covers its five releases exactly.
pub fn season_budget() -> PrivacyParams {
    PrivacyParams::approximate(0.1, 13.0, 0.05)
}

/// The followup season's budget: covers its two releases exactly.
pub fn followup_budget() -> PrivacyParams {
    PrivacyParams::pure(0.1, 3.0)
}

/// The canonical annual plan, in publication order. The first two
/// requests share the Workload 1 tabulation (exercising the in-memory
/// tabulation cache); the fourth is an approximate-DP county release;
/// the last is a declaratively filtered sub-population release whose
/// `FilterExpr` is persisted in provenance and digest-verified on resume.
pub fn season_requests() -> Vec<ReleaseRequest> {
    let county = MarginalSpec::new(vec![WorkplaceAttr::County], vec![]);
    vec![
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .describe("S1: place x naics x ownership (Smooth Gamma)")
            .seed(0xA1),
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .describe("S2: place x naics x ownership (Log-Laplace re-release)")
            .seed(0xA2),
        ReleaseRequest::marginal(workload3())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 8.0))
            .describe("S3: ... x sex x education")
            .seed(0xA3),
        ReleaseRequest::marginal(county.clone())
            .mechanism(MechanismKind::SmoothLaplace)
            .budget(PrivacyParams::approximate(0.1, 1.0, 0.05))
            .describe("S4: county marginal (Smooth Laplace)")
            .seed(0xA4),
        ReleaseRequest::marginal(county)
            .mechanism(MechanismKind::SmoothGamma)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .filter_expr(ranking2_expr())
            .describe("S5: county marginal, female x bachelor's+ (Ranking 2 population)")
            .seed(0xA5),
    ]
}

/// The followup plan: re-releases of two marginals the annual season
/// already tabulated — same `(spec, normalized filter)` identities, fresh
/// mechanisms and seeds — so both truths come from the persistent truth
/// store, never a re-tabulation.
pub fn followup_requests() -> Vec<ReleaseRequest> {
    let county = MarginalSpec::new(vec![WorkplaceAttr::County], vec![]);
    vec![
        ReleaseRequest::marginal(workload1())
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 2.0))
            .describe("F1: place x naics x ownership (followup re-release, shared truth)")
            .seed(0xB1),
        ReleaseRequest::marginal(county)
            .mechanism(MechanismKind::LogLaplace)
            .budget(PrivacyParams::pure(0.1, 1.0))
            .filter_expr(ranking2_expr())
            .describe("F2: filtered county marginal (followup re-release, shared truth)")
            .seed(0xB2),
    ]
}

/// What one [`run_or_resume`] call did, season by season.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgencyRunReport {
    /// The annual season's run report.
    pub annual: SeasonReport,
    /// The followup season's run report.
    pub followup: SeasonReport,
}

/// Open (or start) the agency under `dir` and execute whatever remains of
/// both canonical seasons, returning the per-season reports and the
/// agency for inspection. An agency left behind by a killed run resumes;
/// one from a different plan, cap, or dataset — or a corrupted one — is
/// refused.
pub fn run_or_resume(
    dir: impl AsRef<Path>,
    dataset: &Dataset,
) -> Result<(AgencyRunReport, AgencyStore), StoreError> {
    let mut agency = AgencyStore::open_or_create(dir, agency_cap())?;
    agency.open_or_create_season(ANNUAL_SEASON, season_budget())?;
    let annual = agency.run_season(ANNUAL_SEASON, dataset, &season_requests())?;
    agency.open_or_create_season(FOLLOWUP_SEASON, followup_budget())?;
    let followup = agency.run_season(FOLLOWUP_SEASON, dataset, &followup_requests())?;
    Ok((AgencyRunReport { annual, followup }, agency))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lodes::{Generator, GeneratorConfig};

    #[test]
    fn canonical_plans_fit_their_budgets_and_cap_exactly() {
        let annual: f64 = season_requests()
            .iter()
            .map(|r| r.plan().expect("canonical requests are valid").cost.epsilon)
            .sum();
        assert!((annual - season_budget().epsilon).abs() < 1e-12);
        let followup: f64 = followup_requests()
            .iter()
            .map(|r| r.plan().expect("canonical requests are valid").cost.epsilon)
            .sum();
        assert!((followup - followup_budget().epsilon).abs() < 1e-12);
        assert!(
            (season_budget().epsilon + followup_budget().epsilon - agency_cap().epsilon).abs()
                < 1e-12
        );
    }

    #[test]
    fn run_or_resume_shares_truths_and_is_idempotent() {
        let dir = std::env::temp_dir().join(format!(
            "eree-eval-agency-idempotent-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let dataset = Generator::new(GeneratorConfig::test_small(3)).generate();
        let (first, agency) = run_or_resume(&dir, &dataset).unwrap();
        assert_eq!(first.annual.executed, 5);
        // Four distinct (spec, filter) identities in the annual plan; the
        // fifth request shares in memory.
        assert_eq!(first.annual.tabulations_computed, 4);
        assert_eq!(first.annual.tabulation_hits, 1);
        // The followup season re-publishes two of them: both truths come
        // from the persistent store, nothing is recomputed.
        assert_eq!(first.followup.executed, 2);
        assert_eq!(first.followup.tabulations_computed, 0);
        assert_eq!(first.followup.tabulation_disk_hits, 2);
        // The cap is exhausted and both ledgers are fully spent.
        assert!(agency.remaining_epsilon() < 1e-9);
        // Scoped peek: the handle holds the season's write lease, which
        // must be free before run_or_resume reopens the season below.
        {
            let annual = agency.open_season(ANNUAL_SEASON).unwrap();
            assert_eq!(annual.completed(), 5);
            assert_eq!(
                annual.releases()[4].request.filter_id(),
                Some(ranking2_expr().id())
            );
        }
        drop(agency);
        let (second, agency) = run_or_resume(&dir, &dataset).unwrap();
        assert_eq!(second.annual.resumed_from, 5);
        assert_eq!(second.annual.executed, 0);
        assert_eq!(second.followup.resumed_from, 2);
        assert_eq!(second.followup.executed, 0);
        assert!(agency.remaining_epsilon() < 1e-9);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
