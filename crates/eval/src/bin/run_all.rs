//! Regenerate every table and figure in one run.
//!
//! Usage: `cargo run -p eval --release --bin run_all`
//! (set `EREE_SCALE=small` for a fast smoke regeneration).

use eval::experiments::write_all;
use eval::report::results_dir;
use eval::runner::{ExperimentContext, TrialSpec};
use std::time::Instant;

fn main() {
    let start = Instant::now();
    let ctx = ExperimentContext::from_env("run_all");
    let dir = results_dir();
    write_all(&ctx, &TrialSpec::default(), &dir).expect("write results");

    // Publication agency: execute (or resume) the canonical two-season
    // release program under a persistent AgencyStore — one global ε cap
    // governing both seasons, truths shared across them through the
    // persistent truth store. A run_all killed during this step picks up
    // exactly where it stopped on the next invocation, without re-spending
    // any ε or re-tabulating any truth.
    let t = Instant::now();
    let agency_dir = dir.join("agency");
    match eval::season::run_or_resume(&agency_dir, &ctx.dataset) {
        Ok((report, agency)) => eprintln!(
            "run_all: agency done — annual resumed at {} / executed {} ({} tabulated, {} memory-\
             shared, {} from truth store); followup resumed at {} / executed {} ({} tabulated, \
             {} from truth store); cap remaining {:.3} ({:.1?}; agency at {})",
            report.annual.resumed_from,
            report.annual.executed,
            report.annual.tabulations_computed,
            report.annual.tabulation_hits,
            report.annual.tabulation_disk_hits,
            report.followup.resumed_from,
            report.followup.executed,
            report.followup.tabulations_computed,
            report.followup.tabulation_disk_hits,
            agency.remaining_epsilon(),
            t.elapsed(),
            agency_dir.display()
        ),
        Err(e) => eprintln!(
            "run_all: agency store at {} refused: {e} (delete the directory to restart the \
             release program)",
            agency_dir.display()
        ),
    }

    eprintln!(
        "run_all: complete in {:.1?}; results under {}",
        start.elapsed(),
        dir.display()
    );
    println!(
        "Regenerated figures 1-5 and tables 1-2 under {} at {:?} scale.",
        dir.display(),
        ctx.scale
    );
}
