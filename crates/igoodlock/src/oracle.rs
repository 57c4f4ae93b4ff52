//! The reference implementations the fast paths are tested against.
//!
//! * The brute-force Algorithm 1, the oracle of the indexed join in
//!   [`crate::igoodlock_filtered`]. Each open chain scans the whole
//!   relation for extensions and checks Definition 2 by linear scans
//!   over plain vectors — no interning, no bitsets, no buckets. It
//!   produces byte-identical cycles and identical `chains_built` /
//!   `chains_per_iteration` / `truncated`, so property tests, the
//!   equivalence suite and the join bench compare the two directly. The
//!   indexed join also runs it as its fast path for relations too small
//!   to amortize a join index.
//! * [`HbFilter`], fork/join vector clocks of every event of a recorded
//!   trace — the oracle of the window clocks and epochs the
//!   [`RelationBuilder`] stores online.
//!
//! The module is public only so that tests and benches in other crates
//! can reach it, and is hidden from the documented API.

use std::collections::HashSet;

use df_events::{AcquireMode, ObjId, Trace};

use crate::builder::RelationBuilder;
use crate::chains::{IGoodlockOptions, IGoodlockStats};
use crate::cycle::{Cycle, CycleComponent};
use crate::hb::{Epoch, VectorClock};
use crate::relation::{DepTiming, LockDep, LockDependencyRelation};

/// Fork/join happens-before clocks for every event of a recorded trace:
/// the [`RelationBuilder`]'s clock of each event's thread right after
/// the event. Judging windows by these full per-event clocks is the
/// reference for the window-start clocks and epochs the builder stores.
///
/// # Example
///
/// ```
/// use df_events::Trace;
/// use df_igoodlock::oracle::HbFilter;
///
/// let trace = Trace::default();
/// let filter = HbFilter::from_trace(&trace);
/// assert_eq!(filter.len(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct HbFilter {
    /// Clock of each event, indexed by event sequence number.
    clocks: Vec<VectorClock>,
}

impl HbFilter {
    /// Computes fork/join vector clocks for `trace`.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut builder = RelationBuilder::new();
        for (thread, obj) in trace.thread_objs() {
            builder.bind_thread(thread, obj);
        }
        let clocks = trace
            .events()
            .iter()
            .map(|event| {
                builder.observe(event);
                builder.clock(event.thread).clone()
            })
            .collect();
        HbFilter { clocks }
    }

    /// Number of events covered.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// Whether the filter covers no events.
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }

    /// Clock of event `seq`.
    fn clock(&self, seq: u64) -> Option<&VectorClock> {
        self.clocks.get(usize::try_from(seq).ok()?)
    }

    /// Whether event `a` happens-before event `b` under fork/join order
    /// (strictly: `a`'s clock ≤ `b`'s and they are distinct events).
    pub fn happens_before(&self, a: u64, b: u64) -> bool {
        match (self.clock(a), self.clock(b)) {
            (Some(ca), Some(cb)) => a != b && ca.leq(cb),
            _ => false,
        }
    }

    /// Whether two hold windows may overlap in *some* execution
    /// consistent with fork/join order, judged by their sequence numbers
    /// alone.
    pub fn windows_may_overlap(&self, a: &DepTiming, b: &DepTiming) -> bool {
        !(self.happens_before(a.acquire_seq, b.window_start_seq)
            || self.happens_before(b.acquire_seq, a.window_start_seq))
    }

    /// `relation` with every tuple's clocks replaced by this filter's
    /// per-event ones. A sequence number past the trace gets a timing
    /// that is ordered with nothing, as [`Self::happens_before`] treats it.
    pub fn retime(&self, relation: &LockDependencyRelation) -> LockDependencyRelation {
        let retime = |t: &DepTiming| DepTiming {
            window_start_clock: self.clock(t.window_start_seq).cloned().unwrap_or_default(),
            acquire_epoch: Epoch {
                time: self
                    .clock(t.acquire_seq)
                    .map_or(u64::MAX, |c| c.get(t.acquire_epoch.slot)),
                ..t.acquire_epoch
            },
            ..t.clone()
        };
        LockDependencyRelation {
            timings: relation.timings.iter().map(retime).collect(),
            ..relation.clone()
        }
    }
}

/// An open (not yet cyclic) dependency chain of the naive join: indices
/// into the relation plus memoized thread/lock vectors, compared by
/// linear scans.
struct NaiveChain {
    deps: Vec<usize>,
    threads: Vec<df_events::ThreadId>,
    locks: Vec<ObjId>,
    /// Union of all component locksets, any hold mode.
    lockset_union: Vec<ObjId>,
    /// Union of the components' exclusively held locks (the mode-aware
    /// Definition 2(4) compares against this on one side).
    lockset_excl_union: Vec<ObjId>,
    /// Mode of the last component's acquisition (selects which holds of
    /// that lock conflict).
    last_mode: AcquireMode,
}

impl NaiveChain {
    fn single(idx: usize, dep: &LockDep) -> Self {
        NaiveChain {
            deps: vec![idx],
            threads: vec![dep.thread],
            locks: vec![dep.lock],
            lockset_union: dep.lockset.clone(),
            lockset_excl_union: excl_holds(dep),
            last_mode: dep.mode,
        }
    }

    /// Checks Definition 2 for appending `dep`, plus the §2.2.3
    /// duplicate-suppression rule (first thread has minimum id).
    fn can_extend(&self, first: &LockDep, dep: &LockDep) -> bool {
        // §2.2.3: report each cycle once, rooted at its minimum thread id.
        if dep.thread <= first.thread {
            return false;
        }
        // 2(1): threads pairwise distinct.
        if self.threads.contains(&dep.thread) {
            return false;
        }
        // 2(2): acquired locks pairwise distinct.
        if self.locks.contains(&dep.lock) {
            return false;
        }
        // 2(3) + mode edge rule: the previous lock is held by the new
        // component in a mode its acquisition conflicts with (read-read
        // never blocks).
        let last_lock = *self.locks.last().expect("chains are non-empty");
        if !dep.hold_blocks(last_lock, self.last_mode) {
            return false;
        }
        // Mode-aware 2(4): locksets may overlap only in read-read holds —
        // a common lock disqualifies iff held exclusively on either side.
        if dep.lockset.iter().enumerate().any(|(i, l)| {
            self.lockset_excl_union.contains(l)
                || (dep
                    .hold_modes
                    .get(i)
                    .copied()
                    .unwrap_or(AcquireMode::Exclusive)
                    .is_exclusive()
                    && self.lockset_union.contains(l))
        }) {
            return false;
        }
        true
    }

    fn extended(&self, idx: usize, dep: &LockDep) -> NaiveChain {
        let mut threads = self.threads.clone();
        threads.push(dep.thread);
        let mut locks = self.locks.clone();
        locks.push(dep.lock);
        let mut lockset_union = self.lockset_union.clone();
        lockset_union.extend_from_slice(&dep.lockset);
        let mut lockset_excl_union = self.lockset_excl_union.clone();
        lockset_excl_union.extend_from_slice(&excl_holds(dep));
        let mut deps = self.deps.clone();
        deps.push(idx);
        NaiveChain {
            deps,
            threads,
            locks,
            lockset_union,
            lockset_excl_union,
            last_mode: dep.mode,
        }
    }

    /// Definition 3: the chain is a potential deadlock cycle if the last
    /// acquired lock is held by the first component in a conflicting
    /// mode.
    fn closes(&self, relation: &[LockDep]) -> bool {
        let first = &relation[self.deps[0]];
        let last_lock = *self.locks.last().expect("non-empty");
        first.hold_blocks(last_lock, self.last_mode)
    }
}

/// The exclusively held subset of a tuple's lockset (holds past a
/// truncated `hold_modes` default to exclusive, matching the serde
/// default).
fn excl_holds(dep: &LockDep) -> Vec<ObjId> {
    dep.lockset
        .iter()
        .enumerate()
        .filter(|&(i, _)| {
            dep.hold_modes
                .get(i)
                .copied()
                .unwrap_or(AcquireMode::Exclusive)
                .is_exclusive()
        })
        .map(|(_, &l)| l)
        .collect()
}

/// The original brute-force Algorithm 1: scans the whole relation per
/// open chain with linear lockset checks. Kept as the oracle the indexed
/// implementation is tested against; produces byte-identical cycles and
/// identical `chains_built` / `chains_per_iteration` / `truncated`.
pub fn naive_igoodlock(
    relation: &LockDependencyRelation,
    options: &IGoodlockOptions,
) -> Vec<Cycle> {
    naive_igoodlock_with_stats(relation, options).0
}

/// Like [`naive_igoodlock`] but also returns run statistics.
pub fn naive_igoodlock_with_stats(
    relation: &LockDependencyRelation,
    options: &IGoodlockOptions,
) -> (Vec<Cycle>, IGoodlockStats) {
    naive_igoodlock_filtered(relation, false, options)
}

/// [`naive_igoodlock`] with the optional happens-before filter — the
/// brute-force counterpart of [`crate::igoodlock_filtered`].
pub fn naive_igoodlock_filtered(
    relation: &LockDependencyRelation,
    hb: bool,
    options: &IGoodlockOptions,
) -> (Vec<Cycle>, IGoodlockStats) {
    let deps = relation.deps();
    let mut stats = IGoodlockStats::default();
    let mut cycles: Vec<Cycle> = Vec::new();
    // Dedup key: the (thread, lock, mode, context) projection of the
    // chain — the same view the indexed join's projection ids intern.
    type CycleKey = Vec<(
        df_events::ThreadId,
        ObjId,
        AcquireMode,
        Vec<df_events::Label>,
    )>;
    let mut reported: HashSet<CycleKey> = HashSet::new();

    // D_1 = D.
    let mut current: Vec<NaiveChain> = deps
        .iter()
        .enumerate()
        .map(|(i, d)| NaiveChain::single(i, d))
        .collect();
    stats.chains_built += current.len() as u64;
    let mut length = 1usize;

    while !current.is_empty() {
        if let Some(max) = options.max_cycle_length {
            if length + 1 > max {
                stats.truncated = true;
                break;
            }
        }
        stats.iterations += 1;
        stats.chains_per_iteration.push(current.len() as u64);
        stats.peak_open_chains = stats.peak_open_chains.max(current.len() as u64);
        let mut next: Vec<NaiveChain> = Vec::new();
        for chain in &current {
            let first = &deps[chain.deps[0]];
            stats.join_candidates_examined += deps.len() as u64;
            for (idx, dep) in deps.iter().enumerate() {
                if !chain.can_extend(first, dep) {
                    continue;
                }
                let ext = chain.extended(idx, dep);
                stats.chains_built += 1;
                if ext.closes(deps) {
                    let key: CycleKey = ext
                        .deps
                        .iter()
                        .map(|&i| {
                            (
                                deps[i].thread,
                                deps[i].lock,
                                deps[i].mode,
                                deps[i].contexts.clone(),
                            )
                        })
                        .collect();
                    if reported.insert(key) {
                        let cycle = Cycle::new(
                            ext.deps
                                .iter()
                                .map(|&i| CycleComponent::from(&deps[i]))
                                .collect(),
                        );
                        if hb && relation.hb_ordered(ext.deps.iter().copied()) {
                            stats.pruned_by_hb += 1;
                            continue;
                        }
                        cycles.push(cycle);
                        if cycles.len() >= options.max_cycles {
                            stats.truncated = true;
                            return (cycles, stats);
                        }
                    }
                } else {
                    next.push(ext);
                    if next.len() > options.max_open_chains {
                        stats.truncated = true;
                        return (cycles, stats);
                    }
                }
            }
        }
        current = next;
        length += 1;
    }
    (cycles, stats)
}
