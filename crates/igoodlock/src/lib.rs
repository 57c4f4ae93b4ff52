//! iGoodlock — informative Goodlock (paper §2.2): predicting potential
//! deadlock cycles from a single execution trace.
//!
//! The analysis runs in two steps:
//!
//! 1. [`LockDependencyRelation::from_trace`] extracts the *lock dependency
//!    relation* `D ⊆ T × 2^L × L × C*` of Definition 1: every tuple
//!    `(t, L, l, C)` records that thread `t` acquired lock `l` while
//!    holding the locks `L`, with `C` the acquisition-site labels of
//!    `L ∪ {l}`.
//! 2. [`igoodlock`] computes potential deadlock cycles by the iterative
//!    relational join of Algorithm 1 — the cycles are enumerated by the
//!    join, not by a DFS over a lock graph: `D_{k+1}` is
//!    built by extending every chain in `D_k` with every compatible tuple
//!    of `D` (Definition 2), reporting chains that close (Definition 3)
//!    and never extending a closed cycle (so no "complex" cycles are
//!    reported). The duplicate-suppression rule of §2.2.3 (the first
//!    thread has the minimum id) makes each cycle appear exactly once.
//!    The join is *indexed*: locks and threads are interned to dense
//!    per-run ids, locksets are bitsets, and extension candidates come
//!    from a per-lock bucket rather than a scan of the whole relation.
//!    The brute-force join is kept as `oracle::naive_igoodlock` — a
//!    hidden test oracle with byte-identical output.
//!
//! Between the two steps the pipeline narrows `D` to its
//! [`LockDependencyRelation::cyclic_core`]: one strongly-connected-
//! component pass over the held → acquired lock graph drops the tuples
//! that no cycle can contain. That pass only removes tuples; Algorithm 1
//! still enumerates every cycle, and reports the same ones over the core
//! as over the whole relation.
//!
//! The reported [`Cycle`]s carry full context information; pair them with
//! an [`df_abstraction::Abstractor`] via [`Cycle::abstract_with`] to
//! produce the [`AbstractCycle`]s that Phase II consumes.
//!
//! # Example
//!
//! ```
//! use df_igoodlock::{igoodlock, IGoodlockOptions, LockDependencyRelation};
//! use df_events::Trace;
//!
//! let trace = Trace::default(); // an empty execution
//! let relation = LockDependencyRelation::from_trace(&trace);
//! let cycles = igoodlock(&relation, &IGoodlockOptions::default());
//! assert!(cycles.is_empty());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod artifact;
mod builder;
mod chains;
mod cycle;
mod dfs;
mod feasibility;
mod hb;
mod index;
#[doc(hidden)]
pub mod oracle;
mod relation;

pub use artifact::{
    read_relation, write_relation, RelationArtifactError, RELATION_FORMAT, RELATION_FORMAT_VERSION,
};
pub use builder::RelationBuilder;
pub use chains::{
    igoodlock, igoodlock_filtered, igoodlock_with_stats, IGoodlockOptions, IGoodlockStats,
};
pub use cycle::{AbstractComponent, AbstractCycle, Cycle, CycleComponent};
pub use dfs::{goodlock_dfs, GoodlockDfsStats};
pub use feasibility::{CycleFeasibility, FeasibilityAnalysis, FeasibilityVerdict};
pub use hb::{HbFilter, VectorClock};
pub use relation::{modes_conflict, DepTiming, LockDep, LockDependencyRelation};

/// [`igoodlock_filtered`] under its former parallel name; `_jobs` is
/// ignored. Kept only because the repository benchmark still calls it,
/// and goes away once the benchmark calls [`igoodlock_filtered`].
#[doc(hidden)]
pub fn igoodlock_parallel(
    relation: &LockDependencyRelation,
    hb: Option<&HbFilter>,
    options: &IGoodlockOptions,
    _jobs: usize,
) -> (Vec<Cycle>, IGoodlockStats, ()) {
    let (cycles, stats) = igoodlock_filtered(relation, hb, options);
    (cycles, stats, ())
}
