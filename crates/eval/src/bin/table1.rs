//! Regenerate Table 1: privacy definitions and the requirements they
//! satisfy, with numeric spot-verification of the load-bearing entries.
//!
//! Usage: `cargo run -p eval --release --bin table1`

use eval::experiments::table1;
use eval::report::results_dir;

fn main() {
    println!("{}", table1::write(&results_dir()).expect("write results"));
}
