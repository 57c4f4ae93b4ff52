//! Virtual-thread cooperative runtime — the execution substrate for
//! `deadlock-fuzzer`.
//!
//! The PLDI 2009 DeadlockFuzzer paper instruments Java bytecode and takes
//! control of the JVM scheduler at every synchronization operation. This
//! crate provides the equivalent control surface for Rust test programs:
//!
//! * Programs are written as ordinary closures that receive a [`TCtx`]
//!   handle and perform *instrumented operations* through it: lock
//!   [`TCtx::acquire`]/[`TCtx::release`] (or RAII [`TCtx::lock`]), method
//!   [`TCtx::call`]/[`TCtx::ret`] (or [`TCtx::scope`]), object allocation
//!   [`TCtx::new_lock`]/[`TCtx::new_object`], [`TCtx::spawn`],
//!   [`TCtx::join`], [`TCtx::yield_now`] and simulated computation
//!   [`TCtx::work`].
//! * Every instrumented operation is a **schedule point**. Exactly one
//!   virtual thread runs at a time; at each schedule point the runtime asks
//!   a pluggable [`Strategy`] which enabled thread runs next. This is the
//!   paper's model of §2.1: a concurrent system evolving one labeled
//!   statement at a time, with `Enabled(s)` excluding threads waiting on a
//!   held lock or an unfinished join.
//! * Locks are **re-entrant** with usage counters; only 0→1 acquisitions and
//!   1→0 releases are recorded, per §2.1 footnote 2.
//! * The runtime records a [`df_events::Trace`] (events + object metadata)
//!   that Phase I (`df-igoodlock`) consumes, and detects **stalls**: if no
//!   thread is enabled while some are alive, it extracts the wait-for cycle
//!   as a [`DeadlockWitness`].
//!
//! # Example
//!
//! ```
//! use df_runtime::{RunConfig, VirtualRuntime, strategy::FifoStrategy};
//! use df_events::site;
//!
//! let result = VirtualRuntime::new(RunConfig::default())
//!     .run(Box::new(FifoStrategy::new()), |ctx| {
//!         let l = ctx.new_lock(site!("main: new lock"));
//!         let g = ctx.lock(&l, site!("main: lock"));
//!         drop(g);
//!     });
//! assert!(result.outcome.is_completed());
//! assert_eq!(result.trace.acquire_count(), 1);
//! ```

#![deny(missing_docs)]

mod config;
mod controller;
mod ctx;
mod fault;
mod pending;
mod result;
mod runtime;
mod state;
pub mod strategy;
mod view;
mod waitfor;

pub use config::RunConfig;
pub use ctx::{CondvarRef, LockGuard, LockRef, ObjRef, Shared, TCtx, ThreadRef, VarRef};
pub use fault::{FaultLog, FaultPlan};
pub use pending::PendingOp;
pub use result::{DeadlockWitness, Detector, Outcome, RunResult, WitnessComponent};
pub use strategy::{Directive, Strategy, StrategyStats};
pub use view::{StateView, ThreadView};
pub use waitfor::WaitForGraph;

pub use runtime::VirtualRuntime;
