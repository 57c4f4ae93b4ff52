//! `deadlock-fuzzer` — a Rust reproduction of **DeadlockFuzzer** (Joshi,
//! Park, Sen, Naik: *A Randomized Dynamic Program Analysis Technique for
//! Detecting Real Deadlocks*, PLDI 2009).
//!
//! DeadlockFuzzer finds **real** deadlocks in multi-threaded programs in
//! two phases:
//!
//! 1. **Phase I — iGoodlock** ([`DeadlockFuzzer::phase1`]): observe one
//!    execution under a random scheduler and predict *potential* deadlock
//!    cycles from the lock dependency relation. Imprecise (may report
//!    false positives) but highly predictive.
//! 2. **Phase II — active random scheduling**
//!    ([`DeadlockFuzzer::phase2`]): re-execute the program under a
//!    scheduler biased to *create* a reported cycle: threads about to
//!    acquire a lock matching a cycle component `(abs(t), abs(l), C)` are
//!    paused until the whole cycle can close. A created deadlock is a
//!    *witness* — never a false positive.
//!
//! Threads and locks are correlated across the two executions by **object
//! abstractions** ([`df_abstraction::AbstractionMode`]):
//! k-object-sensitivity or light-weight execution indexing.
//!
//! Programs under test are written against the virtual-thread runtime's
//! [`df_runtime::TCtx`] handle (the Rust stand-in for the paper's bytecode
//! instrumentation — `std::sync` locks cannot be intercepted).
//!
//! # Quickstart
//!
//! ```
//! use deadlock_fuzzer::{Config, DeadlockFuzzer};
//! use df_events::site;
//! use df_runtime::TCtx;
//!
//! // Two threads acquiring two locks in opposite orders — but the child
//! // first runs long computations (Figure 1 of the paper), so ordinary
//! // random testing almost never trips the deadlock.
//! let fuzzer = DeadlockFuzzer::with_config(
//!     |ctx: &TCtx| {
//!         let a = ctx.new_lock(site!());
//!         let b = ctx.new_lock(site!());
//!         let t = ctx.spawn(site!(), "t", move |ctx| {
//!             ctx.work(8); // long-running methods f1()..f4()
//!             let _g1 = ctx.lock(&a, site!());
//!             let _g2 = ctx.lock(&b, site!());
//!         });
//!         let _g2 = ctx.lock(&b, site!());
//!         let _g1 = ctx.lock(&a, site!());
//!         drop(_g1);
//!         drop(_g2);
//!         ctx.join(&t, site!());
//!     },
//!     Config::default().with_confirm_trials(3),
//! );
//! let report = fuzzer.run();
//! assert_eq!(report.potential_count(), 1);
//! assert_eq!(report.confirmed_count(), 1); // a real deadlock, witnessed
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod allocate;
mod config;
mod error;
mod pipeline;
mod pool;
mod program;
mod report;

pub use allocate::{allocate_trials, trials_saved, AllocationOutcome, BatchResult, CycleBudget};
pub use config::{Config, Variant};
pub use error::DfError;
pub use pipeline::DeadlockFuzzer;
pub use pool::TrialPool;
pub use program::{Named, Program, ProgramRef};
pub use report::{
    BaselineReport, CycleConfirmation, Phase1Report, Phase2Report, ProbabilityReport, Report,
    TrialOutcome, TrialOutcomes,
};

// Re-export the sub-crates so downstream users need only one dependency.
pub use df_abstraction as abstraction;
pub use df_events as events;
pub use df_fuzzer as fuzzer;
pub use df_igoodlock as igoodlock;
pub use df_lock as lock;
pub use df_runtime as runtime;

/// Everything a program-under-test and its harness need, in one import:
/// the pipeline types, the virtual-runtime vocabulary (including the
/// mode-aware [`df_events::AcquireMode`] and condvar refs), and the
/// drop-in tracked locks of `df-lock`.
///
/// ```
/// use deadlock_fuzzer::prelude::*;
///
/// let fuzzer = DeadlockFuzzer::with_config(
///     |ctx: &TCtx| {
///         let a = ctx.new_lock(site!());
///         let _g = ctx.lock(&a, site!());
///     },
///     Config::default().with_jobs(2),
/// );
/// assert_eq!(fuzzer.run().potential_count(), 0);
///
/// // The tracked (native-thread) surface comes along too.
/// let cache = TrackedRwLock::new(0u32);
/// assert_eq!(*cache.read().unwrap(), 0);
/// assert_eq!(AcquireMode::default(), AcquireMode::Exclusive);
/// ```
pub mod prelude {
    pub use crate::{
        Config, CycleConfirmation, DeadlockFuzzer, DfError, Named, Phase1Report, Phase2Report,
        ProbabilityReport, Program, ProgramRef, Report, TrialOutcome, TrialOutcomes, TrialPool,
        Variant,
    };
    pub use df_events::{site, AcquireMode, Label};
    pub use df_lock::{
        DeadlockHandler, DeadlockWitness, TrackedCondvar, TrackedMutex, TrackedRwLock, Tracker,
        TrackerConfig,
    };
    pub use df_runtime::{CondvarRef, LockRef, RunConfig, TCtx};
}
