//! Models of the DeadlockFuzzer evaluation benchmarks (paper §5.1,
//! Table 1).
//!
//! The paper evaluates on ten Java programs and libraries. We cannot run
//! Java; instead each benchmark here is a **model**: a virtual-thread
//! program (written against [`df_runtime::TCtx`]) that reproduces the
//! original's *locking structure* — the same lock-order cycles at the same
//! kind of program contexts, the same scheduling hazards (long-running
//! prefixes that hide deadlocks from stress testing, heavy lock churn,
//! happens-before-guarded false positives) and the published potential
//! deadlock-cycle counts.
//!
//! | model | original | expected iGoodlock cycles |
//! |---|---|---|
//! | [`cache4j`] | cache4j object cache | 0 |
//! | [`sor`] | ETH successive over-relaxation | 0 |
//! | [`hedc`] | ETH web crawler | 0 |
//! | [`jspider`] | jSpider web spider | 0 |
//! | [`jigsaw`] | W3C Jigsaw web server | > real (contains false positives) |
//! | [`logging`] | `java.util.logging` | 3 |
//! | [`swing`] | `javax.swing` caret deadlock | 1 |
//! | [`dbcp`] | Apache Commons DBCP | 2 |
//! | [`lists`] | synchronized Lists (3 classes) | 9 + 9 + 9 |
//! | [`maps`] | synchronized Maps (5 classes) | 4 × 5 |
//!
//! Two pedagogical programs from the paper's exposition are also here:
//! [`figure1`] (the running example, §3) and [`section4`] (the yield
//! optimization example). Three models exercise the mode-aware
//! synchronization vocabulary beyond the paper's plain monitors:
//! [`producer_consumer`] (a condvar handshake with a lock inversion
//! threaded through it), [`read_mostly_cache`] (an rwlock inversion
//! whose cache side is shared on both paths — zero cycles, but only
//! for a mode-aware join) and [`writer_starvation`] (a deadlock ring
//! closed entirely through shared holds).
//!
//! # Example
//!
//! ```
//! use deadlock_fuzzer::{Config, DeadlockFuzzer};
//!
//! let bench = df_benchmarks::logging::benchmark();
//! let fuzzer = DeadlockFuzzer::from_ref(bench.program, Config::default());
//! let phase1 = fuzzer.phase1();
//! assert_eq!(phase1.cycle_count(), 3);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod buffer;
pub mod cache4j;
pub mod dbcp;
pub mod dining_philosophers;
pub mod figure1;
pub mod hedc;
pub mod jigsaw;
pub mod jspider;
pub mod lists;
pub mod logging;
pub mod maps;
pub mod producer_consumer;
pub mod read_mostly_cache;
pub mod section4;
pub mod sor;
pub mod suite;
pub mod swing;
pub mod synthetic;
pub mod writer_starvation;

pub use suite::{table1_suite, Benchmark};
