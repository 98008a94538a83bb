//! Regenerate Figure 2: Spearman rank correlation of Ranking 1
//! (Workload 1 cells ordered by employment count) vs the SDL ordering.
//!
//! Usage: `cargo run -p eval --release --bin figure2`

use eval::experiments::figure2;
use eval::report::results_dir;
use eval::runner::{ExperimentContext, TrialSpec};

fn main() {
    let ctx = ExperimentContext::from_env("figure2");
    let md = figure2::write(&ctx, &TrialSpec::default(), &results_dir()).expect("write results");
    println!("{md}");
}
