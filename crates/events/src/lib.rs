//! Shared event vocabulary for the `deadlock-fuzzer` toolchain.
//!
//! This crate defines the data that flows between the execution substrates
//! (`df-runtime`'s virtual threads and `df-lock`'s tracked locks on real
//! threads) and the analyses (`df-igoodlock`, `df-abstraction`, `df-fuzzer`):
//!
//! * [`Label`] — an interned program location (the paper's statement label
//!   `c`), cheap to copy, compare and hash;
//! * [`ThreadId`] / [`ObjId`] — dynamic identities of threads and objects
//!   within *one* execution (the paper's "unique id");
//! * [`ObjectMeta`] / [`ObjectTable`] — per-object creation metadata captured
//!   at allocation time, from which every abstraction of Section 2.4 of the
//!   paper can be derived after the fact;
//! * [`Event`] / [`Trace`] — the dynamic instances of labeled statements from
//!   Section 2.1 (`Acquire`, `Release`, `Call`, `Return`, `new`, …) observed
//!   during an execution.
//!
//! # Example
//!
//! ```
//! use df_events::{Label, Trace, EventKind};
//!
//! let site = Label::new("MyThread.run:15");
//! assert_eq!(&*site.as_str(), "MyThread.run:15");
//! let trace = Trace::default();
//! assert_eq!(trace.events().len(), 0);
//! let _ = EventKind::Yield;
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod binary;
mod event;
mod ids;
mod intern;
mod label;
mod object;
mod sink;
mod spill;
mod trace;

pub use binary::{
    TRACE_BINARY_FORMAT_VERSION, TRACE_BINARY_MAGIC, TRACE_BINARY_MIN_FORMAT_VERSION,
};
pub use event::{AcquireMode, Event, EventKind};
pub use ids::{ObjId, ObjKind, ThreadId};
pub use intern::DenseInterner;
pub use label::{caller_site, Label};
pub use object::{IndexFrame, ObjectMeta, ObjectTable};
pub use sink::{EventSink, SinkHandle};
pub use spill::{
    decode_trace, read_trace, read_trace_bytes, write_trace, write_trace_as, SpillConfig,
    SpillError, SpillSink, TraceFooter, TraceFormat, TraceHeader, TRACE_FORMAT,
    TRACE_FORMAT_VERSION, TRACE_MIN_FORMAT_VERSION,
};
pub use trace::Trace;

/// Constructs a [`Label`] from the current source location.
///
/// This is the Rust stand-in for the paper's statement labels: a stable
/// identifier for "the program location of this operation" that does not
/// change across executions.
///
/// Each expansion interns its location string once and keeps the label in
/// a static, so evaluating it again (in a loop, say) is a load.
///
/// # Example
///
/// ```
/// let l = df_events::site!();
/// assert!(l.as_str().contains("lib.rs") || l.as_str().contains("site"));
/// ```
#[macro_export]
macro_rules! site {
    () => {
        $crate::site!(@interned concat!(file!(), ":", line!(), ":", column!()))
    };
    (@interned $location:expr) => {{
        static SITE: ::std::sync::OnceLock<$crate::Label> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::Label::new($location))
    }};
    ($name:expr) => {
        $crate::site!(@interned concat!($name, " (", file!(), ":", line!(), ")"))
    };
}
