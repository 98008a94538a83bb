//! Regenerate Figure 4: L1 error ratio for the full worker × workplace
//! marginal (Workload 3) vs the SDL system, with the total budget split
//! across the sex × education domain under weak composition.
//!
//! Usage: `cargo run -p eval --release --bin figure4`

use eval::experiments::figure4;
use eval::report::results_dir;
use eval::runner::{ExperimentContext, TrialSpec};

fn main() {
    let ctx = ExperimentContext::from_env("figure4");
    let md = figure4::write(&ctx, &TrialSpec::default(), &results_dir()).expect("write results");
    println!("{md}");
}
