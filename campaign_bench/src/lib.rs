//! Campaign benchmark for the DeadlockFuzzer pipeline.
//!
//! Drives whole campaigns through the public API only — `phase1` plus
//! `confirm_all` for virtual-thread programs, a df-lock `Tracker`
//! spilling a binary trace plus `read_trace_bytes` and iGoodlock for
//! native threads — and times every layer from outside, around those
//! calls. See `README.md` for the workloads and metrics.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod campaign;
mod native;
mod reference;
pub mod report;
mod spans;
mod stats;

pub use campaign::{run, Metric, RunOptions, RunReport, Scale, Workload};
pub use report::{compare, result_line, BenchSpec};
pub use spans::Span;
