//! Regenerate Table 2: minimum ε given α and δ for the Smooth Laplace
//! mechanism, side-by-side with the paper's printed values.
//!
//! Usage: `cargo run -p eval --release --bin table2`

use eval::experiments::table2;
use eval::report::results_dir;

fn main() {
    println!("{}", table2::write(&results_dir()).expect("write results"));
}
