//! Regenerate Figure 1: L1 error ratio of Workload 1 vs the SDL system.
//!
//! Usage: `cargo run -p eval --release --bin figure1`
//! (set `EREE_SCALE=small|default|paper` to change the universe size).

use eval::experiments::figure1;
use eval::report::results_dir;
use eval::runner::{ExperimentContext, TrialSpec};

fn main() {
    let ctx = ExperimentContext::from_env("figure1");
    let md = figure1::write(&ctx, &TrialSpec::default(), &results_dir()).expect("write results");
    println!("{md}");
}
