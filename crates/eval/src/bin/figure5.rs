//! Regenerate Figure 5: Spearman rank correlation of Ranking 2 (Workload 1
//! cells ordered by the count of female workers with a bachelor's degree
//! or higher) vs the SDL ordering.
//!
//! Usage: `cargo run -p eval --release --bin figure5`

use eval::experiments::figure5;
use eval::report::results_dir;
use eval::runner::{ExperimentContext, TrialSpec};

fn main() {
    let ctx = ExperimentContext::from_env("figure5");
    let md = figure5::write(&ctx, &TrialSpec::default(), &results_dir()).expect("write results");
    println!("{md}");
}
