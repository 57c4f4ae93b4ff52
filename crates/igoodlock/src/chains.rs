//! Algorithm 1: iterative computation of potential deadlock cycles.
//!
//! Two implementations of the same join live here:
//!
//! * [`igoodlock`] / [`igoodlock_filtered`] — the **indexed** join. Locks
//!   and threads are interned to dense per-run ids, locksets become
//!   bitsets, and candidates for extending a chain come from a per-lock
//!   bucket (see [`crate::index`]) instead of a scan of the whole
//!   relation. Chains carry dep indices and bitsets only; threads, locks
//!   and contexts are materialized from the relation when a cycle is
//!   actually reported.
//! * `oracle::naive_igoodlock` / `oracle::naive_igoodlock_filtered` —
//!   the original brute-force join, kept verbatim as a test oracle.
//!   Every property test and the equivalence suite assert the two
//!   produce byte-identical cycle reports and identical
//!   [`IGoodlockStats::chains_built`].
//!
//! Both walk candidate extensions in relation order and accept exactly
//! the tuples that pass Definition 2 plus the §2.2.3 dedup rule, so the
//! indexed join is a pure strength reduction: same cycles, same order,
//! same truncation points, fewer tuples touched.

use std::collections::HashSet;

use df_events::AcquireMode;
use serde::{Deserialize, Serialize};

use crate::cycle::{Cycle, CycleComponent};
use crate::index::{BitSet, JoinIndex};
use crate::oracle::naive_igoodlock_filtered;
use crate::relation::LockDependencyRelation;

/// Options bounding the iGoodlock computation.
///
/// The paper notes iGoodlock is iterative — all cycles of length `k` are
/// found before any of length `k + 1` — so with a limited budget it can be
/// stopped after the first iteration (cycles of length 2). All real
/// deadlocks in the paper's benchmarks have length 2.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IGoodlockOptions {
    /// Maximum cycle length to search for (`None` = unbounded, i.e. run
    /// until no chains remain).
    pub max_cycle_length: Option<usize>,
    /// Stop after reporting this many cycles.
    pub max_cycles: usize,
    /// Abandon the search if an iteration would hold more than this many
    /// open chains (guards against pathological relations).
    pub max_open_chains: usize,
}

impl Default for IGoodlockOptions {
    fn default() -> Self {
        IGoodlockOptions {
            max_cycle_length: None,
            max_cycles: 10_000,
            max_open_chains: 1_000_000,
        }
    }
}

impl IGoodlockOptions {
    /// Convenience: the "limited time budget" configuration of the paper
    /// (one iteration, cycles of length 2 only).
    pub fn length_two_only() -> Self {
        IGoodlockOptions {
            max_cycle_length: Some(2),
            ..IGoodlockOptions::default()
        }
    }
}

/// Statistics of an iGoodlock run (exposed for the bench harness).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IGoodlockStats {
    /// Number of iterations executed (max chain length examined).
    pub iterations: usize,
    /// Total chains ever constructed.
    pub chains_built: u64,
    /// Whether the search was truncated by a limit.
    pub truncated: bool,
    /// Cycles suppressed by the happens-before filter (0 when the filter
    /// is off).
    pub pruned_by_hb: u64,
    /// Open chains alive at the start of each join iteration — the size
    /// of `D_k` as Algorithm 1 iterates, exposed so the observability
    /// layer can report how the join fans out per level.
    pub chains_per_iteration: Vec<u64>,
    /// Largest number of open chains alive at the start of any join
    /// iteration (the peak of `chains_per_iteration`) — how wide the
    /// join got before it drained.
    pub peak_open_chains: u64,
    /// Relation tuples examined as extension candidates, summed over
    /// every (chain, candidate) pair of every iteration. The naive join
    /// examines `|D|` tuples per open chain; the indexed join examines
    /// only the bucket of the chain's last lock, so the ratio between
    /// the two is the join index's hit rate.
    pub join_candidates_examined: u64,
}

/// An open chain in the indexed join: dep indices plus fixed-width
/// bitsets over the per-run interned ids. Nothing here borrows the
/// relation, and extension clones only word-blocks — never thread, lock
/// or context vectors.
struct IndexedChain {
    deps: Vec<u32>,
    /// Interned threads present (Definition 2(1)).
    thread_bits: BitSet,
    /// Interned acquired locks present (Definition 2(2)).
    lock_bits: BitSet,
    /// Union of component locksets, any hold mode (mode-aware
    /// Definition 2(4), one side of the conflict check).
    lockset_union: BitSet,
    /// Union of the components' *exclusively held* locksets (the other
    /// side: a candidate's hold only conflicts with these, unless the
    /// candidate itself holds exclusively).
    lockset_excl_union: BitSet,
    /// Interned lock acquired by the last component (Definition 2(3):
    /// the next component must hold it — i.e. come from its bucket).
    last_lock: u32,
    /// Mode of that acquisition: selects which bucket (shared
    /// acquisitions only conflict with exclusive holders).
    last_mode: AcquireMode,
}

impl IndexedChain {
    fn single(idx: u32, index: &JoinIndex) -> Self {
        let i = idx as usize;
        let mut thread_bits = BitSet::zeroed(index.thread_bits());
        thread_bits.insert(index.thread_bit[i]);
        let mut lock_bits = BitSet::zeroed(index.lock_bits());
        lock_bits.insert(index.lock[i]);
        IndexedChain {
            deps: vec![idx],
            thread_bits,
            lock_bits,
            lockset_union: index.lockset[i].clone(),
            lockset_excl_union: index.lockset_excl[i].clone(),
            last_lock: index.lock[i],
            last_mode: index.mode[i],
        }
    }

    /// The Definition 2 + §2.2.3 filter for appending candidate `c`:
    /// dedup root is the minimum thread id, threads and acquired locks
    /// pairwise distinct, and the mode-aware disjoint-locksets check.
    fn admits(&self, c: usize, index: &JoinIndex) -> bool {
        let root = index.thread[self.deps[0] as usize];
        !(index.thread[c] <= root
            || self.thread_bits.contains(index.thread_bit[c])
            || self.lock_bits.contains(index.lock[c])
            || index.lockset[c].intersects(&self.lockset_excl_union)
            || index.lockset_excl[c].intersects(&self.lockset_union))
    }

    fn extended(&self, idx: u32, index: &JoinIndex) -> IndexedChain {
        let i = idx as usize;
        let mut deps = self.deps.clone();
        deps.push(idx);
        let mut thread_bits = self.thread_bits.clone();
        thread_bits.insert(index.thread_bit[i]);
        let mut lock_bits = self.lock_bits.clone();
        lock_bits.insert(index.lock[i]);
        let mut lockset_union = self.lockset_union.clone();
        lockset_union.union_with(&index.lockset[i]);
        let mut lockset_excl_union = self.lockset_excl_union.clone();
        lockset_excl_union.union_with(&index.lockset_excl[i]);
        IndexedChain {
            deps,
            thread_bits,
            lock_bits,
            lockset_union,
            lockset_excl_union,
            last_lock: index.lock[i],
            last_mode: index.mode[i],
        }
    }
}

/// Runs Algorithm 1 on `relation` and returns the potential deadlock
/// cycles, each reported exactly once (§2.2.3), shortest first.
///
/// This is the indexed implementation; `oracle::naive_igoodlock` is the
/// brute-force oracle with identical output.
///
/// # Example
///
/// ```
/// use df_igoodlock::{igoodlock, IGoodlockOptions, LockDep, LockDependencyRelation};
/// use df_events::{Label, ObjId, ThreadId};
///
/// let dep = |t: u32, held: u32, lock: u32| {
///     LockDep::exclusive(
///         ThreadId::new(t),
///         ObjId::new(t),
///         vec![ObjId::new(held)],
///         ObjId::new(lock),
///         vec![Label::new("a:1"), Label::new("a:2")],
///     )
/// };
/// let rel = LockDependencyRelation::from_deps(vec![dep(1, 10, 11), dep(2, 11, 10)]);
/// let cycles = igoodlock(&rel, &IGoodlockOptions::default());
/// assert_eq!(cycles.len(), 1);
/// assert_eq!(cycles[0].len(), 2);
/// ```
pub fn igoodlock(relation: &LockDependencyRelation, options: &IGoodlockOptions) -> Vec<Cycle> {
    igoodlock_with_stats(relation, options).0
}

/// Like [`igoodlock`] but also returns run statistics.
pub fn igoodlock_with_stats(
    relation: &LockDependencyRelation,
    options: &IGoodlockOptions,
) -> (Vec<Cycle>, IGoodlockStats) {
    igoodlock_filtered(relation, false, options)
}

/// [`igoodlock`] with an optional happens-before filter: with `hb` on,
/// cycles whose hold windows are ordered by fork/join happens-before
/// (and therefore can never overlap in any execution) are suppressed
/// and counted in [`IGoodlockStats::pruned_by_hb`]. The clocks come
/// from the relation's own [`crate::DepTiming`]s; tuples without timing
/// information (relations built with
/// [`LockDependencyRelation::from_deps`]) are conservatively kept.
///
/// # Example
///
/// ```
/// use df_igoodlock::{igoodlock_filtered, IGoodlockOptions, LockDependencyRelation};
/// use df_events::Trace;
///
/// let relation = LockDependencyRelation::from_trace(&Trace::default());
/// let (cycles, stats) = igoodlock_filtered(&relation, true, &IGoodlockOptions::default());
/// assert!(cycles.is_empty());
/// assert_eq!(stats.pruned_by_hb, 0);
/// ```
pub fn igoodlock_filtered(
    relation: &LockDependencyRelation,
    hb: bool,
    options: &IGoodlockOptions,
) -> (Vec<Cycle>, IGoodlockStats) {
    // Building a JoinIndex (interners, bitsets, buckets) costs more than
    // the brute-force join saves on tiny relations — the ring-4 bench row
    // ran at 0.64x naive before this dispatch. Below the threshold the
    // oracle *is* the implementation.
    if relation.len() < SMALL_RELATION_FAST_PATH {
        return naive_igoodlock_filtered(relation, hb, options);
    }
    igoodlock_indexed_filtered(relation, hb, options)
}

/// Relations smaller than this skip [`JoinIndex`] construction and run
/// the brute-force join directly: with fewer than this many tuples the
/// index costs more to build than the scan it avoids.
const SMALL_RELATION_FAST_PATH: usize = 8;

/// The indexed join proper, with no size dispatch — what
/// [`igoodlock_filtered`] runs above [`SMALL_RELATION_FAST_PATH`], kept
/// directly callable so equivalence tests exercise the index even on
/// tiny fixtures.
fn igoodlock_indexed_filtered(
    relation: &LockDependencyRelation,
    hb: bool,
    options: &IGoodlockOptions,
) -> (Vec<Cycle>, IGoodlockStats) {
    let deps = relation.deps();
    let mut stats = IGoodlockStats::default();
    let mut cycles: Vec<Cycle> = Vec::new();
    // All interners live inside this per-call index: a second run — or a
    // parallel campaign worker — rebuilds them from scratch, so dense ids
    // depend only on this relation's tuple order.
    let index = JoinIndex::build(deps);
    // Dedup key: the per-run projection id of each component — the dense
    // id of its (thread, lock, contexts) view. Distinct chains can differ
    // only in their locksets; their projections — all that the report and
    // Phase II consume — are then identical, so reporting both would only
    // duplicate work downstream.
    let mut reported: HashSet<Vec<u32>> = HashSet::new();

    // D_1 = D.
    let mut current: Vec<IndexedChain> = (0..deps.len())
        .map(|i| IndexedChain::single(i as u32, &index))
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
        let mut next: Vec<IndexedChain> = Vec::new();
        for chain in &current {
            // Definition 2(3) plus the mode edge rule is the bucket
            // membership (a shared last acquisition draws only from the
            // exclusive-holders bucket); `admits` is §2.2.3 plus 2(1),
            // 2(2) and the mode-aware 2(4). Buckets list tuples in
            // relation order, so accepted extensions appear in exactly
            // the order the naive scan would produce them.
            for &cand in index.candidates(chain.last_lock, chain.last_mode) {
                stats.join_candidates_examined += 1;
                if !chain.admits(cand as usize, &index) {
                    continue;
                }
                let ext = chain.extended(cand, &index);
                stats.chains_built += 1;
                // Definition 3: the first component holds the last
                // acquired lock in a conflicting mode.
                if index.closes_against(ext.deps[0] as usize, ext.last_lock, ext.last_mode) {
                    let key: Vec<u32> = ext.deps.iter().map(|&i| index.proj[i as usize]).collect();
                    if reported.insert(key) {
                        let cycle = Cycle::new(
                            ext.deps
                                .iter()
                                .map(|&i| CycleComponent::from(&deps[i as usize]))
                                .collect(),
                        );
                        if hb && relation.hb_ordered(ext.deps.iter().map(|&i| i as usize)) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{naive_igoodlock, naive_igoodlock_with_stats};
    use crate::relation::LockDep;
    use df_events::{Label, ObjId, ThreadId};

    fn l(s: &str) -> Label {
        Label::new(s)
    }

    /// `(t, L, l)` with canned contexts; lock ids are offset by 100 to
    /// keep them distinct from thread ids.
    fn dep(t: u32, held: &[u32], lock: u32) -> LockDep {
        LockDep::exclusive(
            ThreadId::new(t),
            ObjId::new(t),
            held.iter().map(|&h| ObjId::new(100 + h)).collect(),
            ObjId::new(100 + lock),
            (0..=held.len()).map(|i| l(&format!("c:{i}"))).collect(),
        )
    }

    /// Like `dep` but with explicit hold modes and acquire mode.
    fn dep_m(t: u32, held: &[(u32, AcquireMode)], lock: u32, mode: AcquireMode) -> LockDep {
        let mut d = dep(t, &held.iter().map(|&(h, _)| h).collect::<Vec<_>>(), lock);
        d.mode = mode;
        d.hold_modes = held.iter().map(|&(_, m)| m).collect();
        d
    }

    #[test]
    fn simple_two_cycle() {
        let rel = LockDependencyRelation::from_deps(vec![dep(1, &[1], 2), dep(2, &[2], 1)]);
        let cycles = igoodlock(&rel, &IGoodlockOptions::default());
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 2);
        assert_eq!(
            cycles[0].threads(),
            vec![ThreadId::new(1), ThreadId::new(2)]
        );
    }

    #[test]
    fn cycle_reported_once_not_k_times() {
        // Without §2.2.3 this 3-cycle would be reported 3 times (one per
        // rotation).
        let rel = LockDependencyRelation::from_deps(vec![
            dep(1, &[1], 2),
            dep(2, &[2], 3),
            dep(3, &[3], 1),
        ]);
        let cycles = igoodlock(&rel, &IGoodlockOptions::default());
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 3);
        // Rooted at the minimum thread id.
        assert_eq!(cycles[0].threads()[0], ThreadId::new(1));
    }

    #[test]
    fn no_cycle_same_order() {
        let rel = LockDependencyRelation::from_deps(vec![dep(1, &[1], 2), dep(2, &[1], 2)]);
        assert!(igoodlock(&rel, &IGoodlockOptions::default()).is_empty());
    }

    #[test]
    fn gate_lock_prevents_cycle() {
        // Both threads hold a common gate lock G(=9) while acquiring:
        // Definition 2(4) (disjoint locksets) rules the cycle out — this is
        // exactly why Goodlock-style analyses do not flag gate-protected
        // nesting.
        let rel = LockDependencyRelation::from_deps(vec![dep(1, &[9, 1], 2), dep(2, &[9, 2], 1)]);
        assert!(igoodlock(&rel, &IGoodlockOptions::default()).is_empty());
    }

    #[test]
    fn distinct_threads_required() {
        // One thread acquiring in both orders cannot deadlock with itself.
        let rel = LockDependencyRelation::from_deps(vec![dep(1, &[1], 2), dep(1, &[2], 1)]);
        assert!(igoodlock(&rel, &IGoodlockOptions::default()).is_empty());
    }

    #[test]
    fn complex_cycles_not_reported() {
        // Two independent 2-cycles exist between (t1,t2) via locks 1,2 and
        // (t1,t2) via locks 3,4. The "complex" 4-component combination
        // must not be reported because cycles are not extended
        // (Algorithm 1 line 9) and threads must be distinct.
        let rel = LockDependencyRelation::from_deps(vec![
            dep(1, &[1], 2),
            dep(2, &[2], 1),
            dep(1, &[3], 4),
            dep(2, &[4], 3),
        ]);
        let cycles = igoodlock(&rel, &IGoodlockOptions::default());
        assert_eq!(cycles.len(), 2);
        assert!(cycles.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn three_cycle_with_two_cycle_subsumed_separately() {
        // A 2-cycle and a 3-cycle share a dependency; both are reported.
        let rel = LockDependencyRelation::from_deps(vec![
            dep(1, &[1], 2),
            dep(2, &[2], 1),
            dep(2, &[2], 3),
            dep(3, &[3], 1),
        ]);
        let cycles = igoodlock(&rel, &IGoodlockOptions::default());
        let lengths: Vec<usize> = cycles.iter().map(|c| c.len()).collect();
        assert!(lengths.contains(&2));
        assert!(lengths.contains(&3));
        assert_eq!(cycles.len(), 2);
    }

    #[test]
    fn max_cycle_length_limits_iterations() {
        let rel = LockDependencyRelation::from_deps(vec![
            dep(1, &[1], 2),
            dep(2, &[2], 3),
            dep(3, &[3], 1),
        ]);
        let (cycles, stats) = igoodlock_with_stats(&rel, &IGoodlockOptions::length_two_only());
        assert!(cycles.is_empty());
        assert!(stats.truncated);
        let (cycles, stats) = igoodlock_with_stats(
            &rel,
            &IGoodlockOptions {
                max_cycle_length: Some(3),
                ..IGoodlockOptions::default()
            },
        );
        assert_eq!(cycles.len(), 1);
        assert!(!stats.truncated || stats.iterations >= 2);
    }

    #[test]
    fn max_cycles_cap_respected() {
        // 9 combinations à la Collections: 3 methods × 3 methods.
        let mut deps = Vec::new();
        for m in 0..3u32 {
            deps.push(dep_ctx(1, 1, 2, m));
            deps.push(dep_ctx(2, 2, 1, m));
        }
        let rel = LockDependencyRelation::from_deps(deps);
        let all = igoodlock(&rel, &IGoodlockOptions::default());
        assert_eq!(all.len(), 9);
        let capped = igoodlock(
            &rel,
            &IGoodlockOptions {
                max_cycles: 4,
                ..IGoodlockOptions::default()
            },
        );
        assert_eq!(capped.len(), 4);
    }

    /// Like `dep` but with a context distinguished by `m` (different call
    /// sites for the same lock pair → distinct relation tuples).
    fn dep_ctx(t: u32, held: u32, lock: u32, m: u32) -> LockDep {
        LockDep::exclusive(
            ThreadId::new(t),
            ObjId::new(t),
            vec![ObjId::new(100 + held)],
            ObjId::new(100 + lock),
            vec![l(&format!("m{m}:outer")), l(&format!("m{m}:inner"))],
        )
    }

    #[test]
    fn contexts_distinguish_cycles() {
        // Same lock pair, two different program contexts → two distinct
        // potential deadlock reports (the paper's Jigsaw example: "same
        // locks, acquired at different program locations").
        let rel = LockDependencyRelation::from_deps(vec![
            dep_ctx(1, 1, 2, 0),
            dep_ctx(1, 1, 2, 1),
            dep_ctx(2, 2, 1, 0),
        ]);
        let cycles = igoodlock(&rel, &IGoodlockOptions::default());
        assert_eq!(cycles.len(), 2);
    }

    #[test]
    fn empty_relation_no_cycles() {
        let rel = LockDependencyRelation::default();
        let (cycles, stats) = igoodlock_with_stats(&rel, &IGoodlockOptions::default());
        assert!(cycles.is_empty());
        assert_eq!(stats.iterations, 0);
        assert!(stats.chains_per_iteration.is_empty());
        assert_eq!(stats.peak_open_chains, 0);
        assert_eq!(stats.join_candidates_examined, 0);
    }

    #[test]
    fn chain_sizes_recorded_per_join_iteration() {
        // A 3-cycle: the join runs for two levels, starting from the three
        // length-1 chains of the relation.
        let rel = LockDependencyRelation::from_deps(vec![
            dep(1, &[1], 2),
            dep(2, &[2], 3),
            dep(3, &[3], 1),
        ]);
        let (cycles, stats) = igoodlock_with_stats(&rel, &IGoodlockOptions::default());
        assert_eq!(cycles.len(), 1);
        assert_eq!(stats.chains_per_iteration.len(), stats.iterations);
        assert_eq!(stats.chains_per_iteration[0], rel.len() as u64);
        assert_eq!(
            stats.peak_open_chains,
            stats.chains_per_iteration.iter().copied().max().unwrap()
        );
        assert!(
            stats.chains_per_iteration.iter().sum::<u64>() <= stats.chains_built,
            "open chains per level never exceed the chains ever built"
        );
    }

    #[test]
    fn figure1_example_produces_expected_cycle() {
        // Figure 1 of the paper: t1 acquires o1 then o2 at sites 15/16;
        // t2 acquires o2 then o1 at the same sites.
        let rel = LockDependencyRelation::from_deps(vec![
            LockDep::exclusive(
                ThreadId::new(1),
                ObjId::new(25),
                vec![ObjId::new(122)],
                ObjId::new(123),
                vec![l("run:15"), l("run:16")],
            ),
            LockDep::exclusive(
                ThreadId::new(2),
                ObjId::new(26),
                vec![ObjId::new(123)],
                ObjId::new(122),
                vec![l("run:15"), l("run:16")],
            ),
        ]);
        let cycles = igoodlock(&rel, &IGoodlockOptions::default());
        assert_eq!(cycles.len(), 1);
        let c = &cycles[0];
        assert_eq!(c.components()[0].contexts, vec![l("run:15"), l("run:16")]);
        assert_eq!(c.locks(), vec![ObjId::new(123), ObjId::new(122)]);
    }

    #[test]
    fn indexed_examines_fewer_candidates_than_naive() {
        // A relation with many tuples whose locksets never contain the
        // chain's last lock: the bucket index skips them; the naive scan
        // touches all of them.
        let mut deps = vec![dep(1, &[1], 2), dep(2, &[2], 1)];
        for i in 0..20u32 {
            deps.push(dep(3 + i, &[50 + i], 80 + i));
        }
        let rel = LockDependencyRelation::from_deps(deps);
        let (ic, is) = igoodlock_with_stats(&rel, &IGoodlockOptions::default());
        let (nc, ns) = naive_igoodlock_with_stats(&rel, &IGoodlockOptions::default());
        assert_eq!(ic, nc);
        assert_eq!(is.chains_built, ns.chains_built);
        assert!(
            is.join_candidates_examined < ns.join_candidates_examined / 10,
            "indexed {} vs naive {}",
            is.join_candidates_examined,
            ns.join_candidates_examined
        );
    }

    #[test]
    fn read_read_holds_never_close_a_cycle() {
        use AcquireMode::{Exclusive, Shared};
        // t1 read-holds rw(=1) while taking m(=2); t2 holds m while
        // read-taking rw. With plain mutexes this is the classic 2-cycle;
        // with modes the closing edge is read-vs-read and vanishes.
        let rel = LockDependencyRelation::from_deps(vec![
            dep_m(1, &[(1, Shared)], 2, Exclusive),
            dep_m(2, &[(2, Exclusive)], 1, Shared),
        ]);
        assert!(igoodlock(&rel, &IGoodlockOptions::default()).is_empty());
        assert!(naive_igoodlock(&rel, &IGoodlockOptions::default()).is_empty());
        // Sanity contrast: the all-exclusive version of the same shape
        // does cycle.
        let excl = LockDependencyRelation::from_deps(vec![dep(1, &[1], 2), dep(2, &[2], 1)]);
        assert_eq!(igoodlock(&excl, &IGoodlockOptions::default()).len(), 1);
    }

    #[test]
    fn reader_writer_conflict_still_cycles() {
        use AcquireMode::{Exclusive, Shared};
        // Same shape, but t2 takes rw exclusively: a write acquisition
        // conflicts with t1's read hold, so the cycle is real and kept.
        let rel = LockDependencyRelation::from_deps(vec![
            dep_m(1, &[(1, Shared)], 2, Exclusive),
            dep_m(2, &[(2, Exclusive)], 1, Exclusive),
        ]);
        let cycles = igoodlock(&rel, &IGoodlockOptions::default());
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles, naive_igoodlock(&rel, &IGoodlockOptions::default()));
    }

    #[test]
    fn shared_gate_lock_does_not_prevent_cycle() {
        use AcquireMode::{Exclusive, Shared};
        // Both threads hold a common gate lock G(=9) — but only in read
        // mode, so both can be inside the "gate" at once and the
        // mode-aware 2(4) rightly keeps the cycle (contrast with
        // `gate_lock_prevents_cycle`, where the exclusive gate kills it).
        let rel = LockDependencyRelation::from_deps(vec![
            dep_m(1, &[(9, Shared), (1, Exclusive)], 2, Exclusive),
            dep_m(2, &[(9, Shared), (2, Exclusive)], 1, Exclusive),
        ]);
        let cycles = igoodlock(&rel, &IGoodlockOptions::default());
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles, naive_igoodlock(&rel, &IGoodlockOptions::default()));
    }

    #[test]
    fn read_read_candidates_pruned_at_the_bucket() {
        use AcquireMode::{Exclusive, Shared};
        // Ten readers hold rw(=50) shared; one writer-side chain ends in
        // a *shared* acquisition of rw. The exclusive-holders bucket for
        // rw is empty, so the indexed join examines zero candidates for
        // that chain, while the naive oracle scans (and rejects) all of
        // them — identical output, fewer tuples touched.
        let mut deps = vec![dep_m(1, &[(1, Exclusive)], 50, Shared)];
        for i in 0..10u32 {
            deps.push(dep_m(2 + i, &[(50, Shared)], 60 + i, Exclusive));
        }
        let rel = LockDependencyRelation::from_deps(deps);
        let (ic, is) = igoodlock_with_stats(&rel, &IGoodlockOptions::default());
        let (nc, ns) = naive_igoodlock_with_stats(&rel, &IGoodlockOptions::default());
        assert_eq!(ic, nc);
        assert!(ic.is_empty());
        assert_eq!(is.chains_built, ns.chains_built);
        assert!(
            is.join_candidates_examined < ns.join_candidates_examined,
            "indexed {} vs naive {}",
            is.join_candidates_examined,
            ns.join_candidates_examined
        );
    }

    #[test]
    fn mode_distinguishes_otherwise_identical_cycles() {
        use AcquireMode::{Exclusive, Shared};
        // Two t1 tuples identical except for the acquisition mode of
        // lock 2: the dedup projection includes the mode, so both the
        // write-write and the read-write cycle are reported.
        let rel = LockDependencyRelation::from_deps(vec![
            dep_m(1, &[(1, Exclusive)], 2, Exclusive),
            dep_m(1, &[(1, Exclusive)], 2, Shared),
            dep(2, &[2], 1),
        ]);
        let cycles = igoodlock(&rel, &IGoodlockOptions::default());
        assert_eq!(cycles.len(), 2);
        assert_eq!(cycles, naive_igoodlock(&rel, &IGoodlockOptions::default()));
    }

    /// The fixture relations above, checked naive-vs-indexed under every
    /// truncation option (the proptest suite covers random relations).
    #[test]
    fn naive_and_indexed_agree_on_fixtures() {
        use AcquireMode::{Exclusive, Shared};
        let fixtures: Vec<LockDependencyRelation> = vec![
            LockDependencyRelation::from_deps(vec![
                dep_m(1, &[(1, Shared)], 2, Exclusive),
                dep_m(2, &[(2, Exclusive)], 1, Shared),
            ]),
            LockDependencyRelation::from_deps(vec![
                dep_m(1, &[(9, Shared), (1, Exclusive)], 2, Shared),
                dep_m(2, &[(9, Shared), (2, Shared)], 1, Exclusive),
                dep_m(3, &[(9, Exclusive)], 1, Shared),
            ]),
            LockDependencyRelation::from_deps(vec![dep(1, &[1], 2), dep(2, &[2], 1)]),
            LockDependencyRelation::from_deps(vec![
                dep(1, &[1], 2),
                dep(2, &[2], 3),
                dep(3, &[3], 1),
            ]),
            LockDependencyRelation::from_deps(vec![dep(1, &[9, 1], 2), dep(2, &[9, 2], 1)]),
            LockDependencyRelation::from_deps(vec![
                dep(1, &[1], 2),
                dep(2, &[2], 1),
                dep(2, &[2], 3),
                dep(3, &[3], 1),
            ]),
            LockDependencyRelation::from_deps(vec![
                dep_ctx(1, 1, 2, 0),
                dep_ctx(1, 1, 2, 1),
                dep_ctx(2, 2, 1, 0),
            ]),
            LockDependencyRelation::default(),
        ];
        let options = [
            IGoodlockOptions::default(),
            IGoodlockOptions::length_two_only(),
            IGoodlockOptions {
                max_cycles: 1,
                ..IGoodlockOptions::default()
            },
            IGoodlockOptions {
                max_open_chains: 2,
                ..IGoodlockOptions::default()
            },
        ];
        for rel in &fixtures {
            for opts in &options {
                // Call the index directly: these fixtures sit below the
                // small-relation dispatch, which would otherwise route
                // the public entry point straight to the oracle.
                let (ic, is) = igoodlock_indexed_filtered(rel, false, opts);
                let (nc, ns) = naive_igoodlock_with_stats(rel, opts);
                assert_eq!(ic, nc);
                assert_eq!(is.chains_built, ns.chains_built);
                assert_eq!(is.iterations, ns.iterations);
                assert_eq!(is.chains_per_iteration, ns.chains_per_iteration);
                assert_eq!(is.truncated, ns.truncated);
                assert_eq!(is.peak_open_chains, ns.peak_open_chains);
                // The public entry point dispatches between the two, so
                // it can only ever return this same answer.
                let (pc, ps) = igoodlock_filtered(rel, false, opts);
                assert_eq!(pc, nc);
                assert_eq!(ps.chains_built, ns.chains_built);
            }
        }
    }

    #[test]
    fn small_relations_skip_index_construction() {
        // Below the threshold the public join returns the oracle's exact
        // stats (per-chain candidate counts are |D|, the naive shape).
        let rel = LockDependencyRelation::from_deps(vec![dep(1, &[1], 2), dep(2, &[2], 1)]);
        assert!(rel.len() < SMALL_RELATION_FAST_PATH);
        let (c, s) = igoodlock_with_stats(&rel, &IGoodlockOptions::default());
        let (nc, ns) = naive_igoodlock_with_stats(&rel, &IGoodlockOptions::default());
        assert_eq!(c, nc);
        assert_eq!(s, ns);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::oracle::naive_igoodlock_with_stats;
    use crate::relation::LockDep;
    use df_events::{Label, ThreadId};
    use proptest::prelude::*;

    fn arb_relation() -> impl Strategy<Value = LockDependencyRelation> {
        prop::collection::vec(
            (
                1..5u32,                              // thread
                prop::collection::vec(0..6u32, 1..3), // held
                0..6u32,                              // lock
            ),
            0..14,
        )
        .prop_map(|tuples| {
            let deps = tuples
                .into_iter()
                .filter(|(_, held, lock)| !held.contains(lock))
                .map(|(t, held, lock)| {
                    let mut held: Vec<_> = held;
                    held.sort();
                    held.dedup();
                    LockDep::exclusive(
                        ThreadId::new(t),
                        df_events::ObjId::new(t),
                        held.iter()
                            .map(|&h| df_events::ObjId::new(100 + h))
                            .collect(),
                        df_events::ObjId::new(100 + lock),
                        (0..=held.len())
                            .map(|i| Label::new(&format!("p:{i}")))
                            .collect(),
                    )
                })
                .collect();
            LockDependencyRelation::from_deps(deps)
        })
    }

    /// Relations mixing shared and exclusive acquisitions and holds —
    /// the vocabulary rwlock-using programs produce.
    fn arb_mixed_relation() -> impl Strategy<Value = LockDependencyRelation> {
        use df_events::AcquireMode;
        prop::collection::vec(
            (
                1..5u32,                                         // thread
                prop::collection::vec((0..6u32, 0..2u32), 1..3), // held + shared?
                0..6u32,                                         // lock
                0..2u32,                                         // shared acquire?
            ),
            0..14,
        )
        .prop_map(|tuples| {
            let mode_of = |shared: u32| {
                if shared == 1 {
                    AcquireMode::Shared
                } else {
                    AcquireMode::Exclusive
                }
            };
            let deps = tuples
                .into_iter()
                .filter(|(_, held, lock, _)| held.iter().all(|&(h, _)| h != *lock))
                .map(|(t, held, lock, shared)| {
                    let mut held: Vec<_> = held;
                    held.sort_by_key(|&(h, _)| h);
                    held.dedup_by_key(|&mut (h, _)| h);
                    let mut dep = LockDep::exclusive(
                        ThreadId::new(t),
                        df_events::ObjId::new(t),
                        held.iter()
                            .map(|&(h, _)| df_events::ObjId::new(100 + h))
                            .collect(),
                        df_events::ObjId::new(100 + lock),
                        (0..=held.len())
                            .map(|i| Label::new(&format!("p:{i}")))
                            .collect(),
                    );
                    dep.mode = mode_of(shared);
                    dep.hold_modes = held.iter().map(|&(_, s)| mode_of(s)).collect();
                    dep
                })
                .collect();
            LockDependencyRelation::from_deps(deps)
        })
    }

    proptest! {
        /// Every reported cycle satisfies Definitions 2 and 3.
        #[test]
        fn cycles_satisfy_definitions(rel in arb_relation()) {
            let cycles = igoodlock(&rel, &IGoodlockOptions::default());
            for cycle in &cycles {
                let comps = cycle.components();
                let n = comps.len();
                prop_assert!(n >= 2);
                // distinct threads and locks
                let mut ts: Vec<_> = comps.iter().map(|c| c.thread).collect();
                ts.sort(); ts.dedup();
                prop_assert_eq!(ts.len(), n);
                let mut ls: Vec<_> = comps.iter().map(|c| c.lock).collect();
                ls.sort(); ls.dedup();
                prop_assert_eq!(ls.len(), n);
                // chain + closing conditions
                for i in 0..n {
                    let next = &comps[(i + 1) % n];
                    prop_assert!(next.lockset.contains(&comps[i].lock));
                }
                // pairwise disjoint locksets
                for i in 0..n {
                    for j in (i + 1)..n {
                        prop_assert!(comps[i]
                            .lockset
                            .iter()
                            .all(|l| !comps[j].lockset.contains(l)));
                    }
                }
                // duplicate suppression: rooted at minimal thread
                prop_assert!(comps.iter().all(|c| c.thread >= comps[0].thread));
            }
        }

        /// No cycle is reported twice (up to rotation).
        #[test]
        fn no_duplicate_cycles(rel in arb_relation()) {
            let cycles = igoodlock(&rel, &IGoodlockOptions::default());
            for i in 0..cycles.len() {
                for j in (i + 1)..cycles.len() {
                    let a: std::collections::BTreeSet<_> = cycles[i]
                        .components()
                        .iter()
                        .map(|c| (c.thread, c.lock, c.contexts.clone()))
                        .collect();
                    let b: std::collections::BTreeSet<_> = cycles[j]
                        .components()
                        .iter()
                        .map(|c| (c.thread, c.lock, c.contexts.clone()))
                        .collect();
                    prop_assert_ne!(a, b);
                }
            }
        }

        /// Length-2 truncation reports exactly the length-2 subset.
        #[test]
        fn truncation_is_a_prefix(rel in arb_relation()) {
            let all = igoodlock(&rel, &IGoodlockOptions::default());
            let short = igoodlock(&rel, &IGoodlockOptions::length_two_only());
            let all2 = all.iter().filter(|c| c.len() == 2).count();
            prop_assert_eq!(short.len(), all2);
            prop_assert!(short.iter().all(|c| c.len() == 2));
        }

        /// The indexed join is a pure strength reduction over the naive
        /// oracle: identical cycles in identical order, identical join
        /// shape, never more candidates examined.
        #[test]
        fn indexed_matches_naive_oracle(rel in arb_relation()) {
            let (ic, is) = igoodlock_indexed_filtered(&rel, false, &IGoodlockOptions::default());
            let (nc, ns) = naive_igoodlock_with_stats(&rel, &IGoodlockOptions::default());
            prop_assert_eq!(ic, nc);
            prop_assert_eq!(is.chains_built, ns.chains_built);
            prop_assert_eq!(is.chains_per_iteration, ns.chains_per_iteration);
            prop_assert_eq!(is.truncated, ns.truncated);
            prop_assert!(is.join_candidates_examined <= ns.join_candidates_examined);
        }

        /// The same strength-reduction law on mode-mixing relations: the
        /// bucket split and the two-sided exclusive disjointness probes
        /// must accept/reject exactly what the scalar mode checks do.
        #[test]
        fn indexed_matches_naive_on_mixed_modes(rel in arb_mixed_relation()) {
            let (ic, is) = igoodlock_indexed_filtered(&rel, false, &IGoodlockOptions::default());
            let (nc, ns) = naive_igoodlock_with_stats(&rel, &IGoodlockOptions::default());
            prop_assert_eq!(ic, nc);
            prop_assert_eq!(is.chains_built, ns.chains_built);
            prop_assert_eq!(is.chains_per_iteration, ns.chains_per_iteration);
            prop_assert_eq!(is.truncated, ns.truncated);
            prop_assert_eq!(is.peak_open_chains, ns.peak_open_chains);
            prop_assert!(is.join_candidates_examined <= ns.join_candidates_examined);
        }

        /// No reported cycle on a mixed-mode relation contains a
        /// read-read edge: every chain and closing edge conflicts.
        #[test]
        fn mixed_mode_cycles_have_no_read_read_edges(rel in arb_mixed_relation()) {
            let cycles = igoodlock(&rel, &IGoodlockOptions::default());
            for cycle in &cycles {
                let comps = cycle.components();
                let n = comps.len();
                for i in 0..n {
                    let next = &comps[(i + 1) % n];
                    let hold = next
                        .lockset
                        .iter()
                        .position(|&l| l == comps[i].lock)
                        .map(|j| next.hold_modes[j])
                        .expect("chain edge lock is held by the next component");
                    prop_assert!(crate::relation::modes_conflict(comps[i].mode, hold));
                }
            }
        }
    }
}
