//! Regenerate Figure 3: single (sex × education) query L1 error ratio on
//! the workplace marginal (Workload 2) vs the SDL system.
//!
//! Usage: `cargo run -p eval --release --bin figure3`

use eval::experiments::figure3;
use eval::report::results_dir;
use eval::runner::{ExperimentContext, TrialSpec};

fn main() {
    let ctx = ExperimentContext::from_env("figure3");
    let md = figure3::write(&ctx, &TrialSpec::default(), &results_dir()).expect("write results");
    println!("{md}");
}
