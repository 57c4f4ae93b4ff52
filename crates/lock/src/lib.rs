//! `df-lock` — drop-in tracked locks for natively-scheduled programs,
//! with an online wait-for-graph deadlock detector and graceful
//! recovery.
//!
//! The rest of the workspace analyzes programs running inside the
//! serialized virtual runtime. This crate is the front door for *real*
//! programs on the *native* OS scheduler: swap `std::sync::Mutex` →
//! [`TrackedMutex`], `std::sync::RwLock` → [`TrackedRwLock`],
//! `std::sync::Condvar` → [`TrackedCondvar`], `std::thread::spawn` →
//! [`TrackedThread::spawn`], and
//!
//! * every acquisition/release/spawn flows into the existing
//!   [`df_events::EventSink`] machinery — attach a
//!   [`df_events::SpillSink`] and Phase I (`dfz analyze`) runs
//!   unchanged on the live execution's sealed trace, or attach a
//!   `RelationBuilder` and build the lock dependency relation online;
//! * an **online wait-for graph** (thread→waiting-on-lock edges added
//!   on contended acquires, lock→held-by-thread edges on completions)
//!   is checked for cycles incrementally — the instant a real deadlock
//!   forms, the configured [`DeadlockHandler`] fires with a
//!   [`DeadlockWitness`] naming the cycle's threads, locks and
//!   acquisition sites;
//! * robustness hardening converts hangs into diagnosable failures:
//!   [`TrackedMutex::try_lock_for`] turns a suspected deadlock into a
//!   recoverable `Err`, poisoned locks are recovered with release
//!   events still emitted, and [`Tracker::seal`] (also run by the
//!   [`DeadlockHandler::SealAndExit`] handler) makes the spill of a
//!   deadlocked run analyzable post-mortem;
//! * DeadlockFuzzer's Phase II runs on the same locks: a tracker under
//!   [`Policy::Fuzz`] pauses threads about to take part in a target
//!   cycle from a recorded run's iGoodlock report, checks for the real
//!   deadlock at every pause, and unwinds the program's threads instead
//!   of leaving them deadlocked; [`Tracker::finish`] classifies the run
//!   as a [`FuzzOutcome`].
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use df_lock::{DeadlockHandler, Tracker, TrackerConfig, TrackedMutex};
//!
//! // A private tracker; drop-in code uses Tracker::install + ::new.
//! let witnesses = Arc::new(std::sync::Mutex::new(Vec::new()));
//! let seen = Arc::clone(&witnesses);
//! let tracker = Tracker::new(TrackerConfig::default().with_handler(
//!     DeadlockHandler::Callback(Arc::new(move |w| {
//!         seen.lock().unwrap().push(w.clone());
//!     })),
//! ));
//!
//! let account = Arc::new(TrackedMutex::with_tracker(&tracker, 100i64));
//! let a = Arc::clone(&account);
//! let t = tracker.spawn("audit", move || *a.lock().unwrap());
//! assert_eq!(t.join().unwrap(), 100);
//! assert!(witnesses.lock().unwrap().is_empty());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod condvar;
mod handler;
mod mutex;
mod rwlock;
mod session;
mod thread;
mod tls;
mod tracker;

pub use condvar::TrackedCondvar;
pub use handler::{DeadlockHandler, LIVE_DEADLOCK_EXIT_CODE};
pub use mutex::{TrackedMutex, TrackedMutexGuard};
pub use rwlock::{TrackedRwLock, TrackedRwLockReadGuard, TrackedRwLockWriteGuard};
pub use session::{FuzzConfig, FuzzOutcome, FuzzStats, NoiseConfig, Policy};
pub use thread::{TrackedJoinHandle, TrackedThread};
pub use tracker::{Tracker, TrackerConfig};

// Witness types callers receive from handlers (and the mode vocabulary
// they speak), re-exported so a df-lock user does not need a direct
// df-runtime or df-events dependency.
pub use df_events::AcquireMode;
pub use df_runtime::{DeadlockWitness, Detector, WitnessComponent};
