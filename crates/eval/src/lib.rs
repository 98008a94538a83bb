//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Sec 10 + Appendix C).
//!
//! Layout:
//!
//! * [`metrics`] — L1 error, error ratios, Spearman rank correlation.
//! * [`runner`] — shared experiment context (dataset + SDL baseline) and
//!   multi-trial orchestration with pinned seeds.
//! * [`experiments`] — one module per paper exhibit: `figure1` … `figure5`,
//!   `flows`, `table1`, `table2`. Each module's `write` runs, renders and
//!   writes its exhibit; [`experiments::write_all`] writes them all.
//! * [`report`] — markdown/CSV rendering of experiment results.
//! * [`season`] — the canonical two-season publication agency (a
//!   five-release annual season plus a truth-sharing followup season),
//!   persisted and resumable through the core
//!   [`AgencyStore`](eree_core::AgencyStore) under one global ε cap.
//!
//! Every exhibit but `flows` also has a binary (`cargo run -p eval
//! --release --bin figure1`) that calls the module's `write` into
//! `results/` and prints the markdown. The `run_all` binary calls
//! [`experiments::write_all`], then runs the publication agency, so it
//! writes the same exhibit files as the binaries.
//!
//! Scale control: the `EREE_SCALE` environment variable selects the
//! synthetic universe (`small` ≈ 2 k establishments for smoke runs,
//! `default` ≈ 60 k, `paper` ≈ 527 k matching the paper's sample). Unset
//! means `default`; any other value stops the binary with a message
//! naming it ([`EvalScale::from_env`]).

pub mod experiments;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod season;

pub use metrics::{l1_error, mean_l1_error, spearman};
pub use runner::{EvalScale, ExperimentContext, TrialSpec};
