//! The active-testing framework (CalFuzzer): biased random schedulers
//! that *confirm* predicted deadlocks by creating them.
//!
//! The paper situates DeadlockFuzzer inside an extensible active-testing
//! framework (§5.1, §6); this crate mirrors that structure. The deadlock
//! checker (paper §2.3 and §4) is the centerpiece, and [`explore`] is the
//! systematic (model-checking-style) baseline the introduction argues
//! against.
//!
//! Deadlock-checking [`df_runtime::Strategy`] implementations:
//!
//! * [`SimpleRandomChecker`] — Algorithm 2: at every state, pick a
//!   uniformly random enabled thread. Deadlocks are only found if the
//!   random schedule happens to stall the system.
//! * [`ActiveStrategy`] — Algorithm 3, DEADLOCKFUZZER proper: given a
//!   potential deadlock cycle from Phase I (an
//!   [`df_igoodlock::AbstractCycle`]), bias the random scheduler by
//!   *pausing* any thread about to perform an acquire matching a cycle
//!   component `(abs(t), abs(l), C)`, so that all cycle threads arrive at
//!   the deadlock configuration together. `checkRealDeadlock`
//!   (Algorithm 4, [`check_real_deadlock`]) fires the moment the cycle
//!   closes; *thrashing* (every enabled thread paused) un-pauses a random
//!   thread.
//!
//! The strategy exposes every experimental knob of the paper's Figure 2:
//! the abstraction mode, whether acquisition contexts are honored, and the
//! §4 yield optimization.
//!
//! # Example
//!
//! ```
//! use df_fuzzer::SimpleRandomChecker;
//! use df_runtime::{RunConfig, VirtualRuntime};
//! use df_events::site;
//!
//! let r = VirtualRuntime::new(RunConfig::default())
//!     .run(Box::new(SimpleRandomChecker::with_seed(7)), |ctx| {
//!         ctx.work(5);
//!     });
//! assert!(r.outcome.is_completed());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod active;
mod check;
mod explore;
mod simple;

pub use active::{ActiveConfig, ActiveStrategy};
pub use check::check_real_deadlock;
pub use explore::{explore, DirectedStrategy, ExploreOptions, ExploreResult, ScheduleRecord};
pub use simple::SimpleRandomChecker;
