#![forbid(unsafe_code)]
//! # figlut-bench — reproduction harness for every table and figure
//!
//! The `repro` binary regenerates each experiment of the paper's evaluation
//! (see DESIGN.md §4 for the experiment index):
//!
//! ```text
//! cargo run -p figlut-bench --bin repro            # everything
//! cargo run -p figlut-bench --bin repro -- fig16   # one experiment
//! ```
//!
//! Each experiment prints an aligned text table and writes a CSV to
//! `results/`. The criterion bench `benches/exec_kernels.rs` is the
//! inner-loop microscope for the packed kernels (end-to-end numbers are the
//! `bench/` crate's, not this one's). `repro analyze <trace>`
//! replays an exported `figlut-trace` file offline into distribution
//! tables ([`analyze`]).

pub mod analyze;
pub mod experiments;
pub mod fmt;

pub use analyze::analyze_trace;
pub use experiments::{run, UnknownExperiment, EXPERIMENTS};
