//! Wait-for graphs and deadlock-cycle extraction.
//!
//! Used in three places:
//!
//! * the runtime's stall detector — when no thread is enabled, the cycle in
//!   the wait-for graph *is* the deadlock witness;
//! * `checkRealDeadlock` (Algorithm 4) — the fuzzer adds *intended*
//!   acquisitions of paused threads as wait-for edges and asks for a cycle;
//! * df-lock's tracker over native threads, which asks
//!   [`WaitForGraph::find_cycle_from`] the thread whose wait edge (blocked
//!   or paused) was just registered.

use std::collections::{HashMap, HashSet};

use df_events::{AcquireMode, ObjId, ThreadId};

/// A thread→lock wait-for graph with lock→thread ownership edges.
///
/// Nodes are threads; thread `t` has an edge to thread `u` if `t` waits for
/// (or intends to acquire) a lock held by `u` in a *conflicting mode*: an
/// exclusive wait conflicts with every holder, a shared wait only with an
/// exclusive holder (read–read coexistence never blocks). Locks may have
/// several simultaneous shared holders, so a wait edge can fan out.
///
/// # Example
///
/// ```
/// use df_runtime::WaitForGraph;
/// use df_events::{ObjId, ThreadId};
///
/// let mut g = WaitForGraph::new();
/// let (t1, t2) = (ThreadId::new(1), ThreadId::new(2));
/// let (l1, l2) = (ObjId::new(1), ObjId::new(2));
/// g.add_holds(t1, l1);
/// g.add_holds(t2, l2);
/// g.add_waits(t1, l2);
/// g.add_waits(t2, l1);
/// let cycle = g.find_cycle().expect("deadlock");
/// assert_eq!(cycle.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct WaitForGraph {
    exclusive: HashMap<ObjId, Vec<ThreadId>>,
    shared: HashMap<ObjId, Vec<ThreadId>>,
    waits: HashMap<ThreadId, (ObjId, AcquireMode)>,
}

impl WaitForGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `t` holds `lock` exclusively.
    pub fn add_holds(&mut self, t: ThreadId, lock: ObjId) {
        self.exclusive.entry(lock).or_default().push(t);
    }

    /// Records that `t` holds `lock` in shared (read) mode.
    pub fn add_holds_shared(&mut self, t: ThreadId, lock: ObjId) {
        self.shared.entry(lock).or_default().push(t);
    }

    /// Records that `t` waits for (or intends to acquire) `lock`
    /// exclusively.
    pub fn add_waits(&mut self, t: ThreadId, lock: ObjId) {
        self.waits.insert(t, (lock, AcquireMode::Exclusive));
    }

    /// Records that `t` waits for (or intends to acquire) `lock` in
    /// shared mode: only exclusive holders block it.
    pub fn add_waits_shared(&mut self, t: ThreadId, lock: ObjId) {
        self.waits.insert(t, (lock, AcquireMode::Shared));
    }

    /// The lock `t` waits for, if any.
    pub fn waiting_for(&self, t: ThreadId) -> Option<ObjId> {
        self.waits.get(&t).map(|&(l, _)| l)
    }

    /// The exclusive holder of `lock`, if recorded.
    pub fn holder_of(&self, lock: ObjId) -> Option<ThreadId> {
        self.exclusive.get(&lock).and_then(|v| v.first()).copied()
    }

    /// Every recorded holder of `lock` (exclusive first, then shared),
    /// deduplicated, in id order within each group.
    pub fn holders_of(&self, lock: ObjId) -> Vec<ThreadId> {
        let mut out: Vec<ThreadId> = Vec::new();
        for group in [self.exclusive.get(&lock), self.shared.get(&lock)] {
            let mut g: Vec<ThreadId> = group.cloned().unwrap_or_default();
            g.sort_unstable();
            g.dedup();
            for t in g {
                if !out.contains(&t) {
                    out.push(t);
                }
            }
        }
        out
    }

    /// Threads that block `t`'s pending acquisition: holders of the
    /// waited-for lock whose hold mode conflicts with the wait mode.
    fn successors(&self, t: ThreadId) -> Vec<ThreadId> {
        let Some(&(lock, mode)) = self.waits.get(&t) else {
            return Vec::new();
        };
        let mut out: Vec<ThreadId> = self.exclusive.get(&lock).cloned().unwrap_or_default();
        if mode.is_exclusive() {
            out.extend(
                self.shared
                    .get(&lock)
                    .iter()
                    .flat_map(|v| v.iter().copied()),
            );
        }
        // Self-edges (re-entrant or upgrade attempts) cannot form a
        // multi-thread deadlock cycle.
        out.retain(|&u| u != t);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Finds a cycle of threads `t_1 → t_2 → … → t_m → t_1` where each
    /// `t_i` waits for a lock held (in a conflicting mode) by `t_{i+1}`.
    /// Returns the threads in cycle order, or `None` if the graph is
    /// acyclic. Deterministic: starts and successors are visited in id
    /// order.
    pub fn find_cycle(&self) -> Option<Vec<ThreadId>> {
        // Shared holds give nodes out-degree > 1, so this is a DFS with
        // an explicit path (not the single-successor pointer chase the
        // exclusive-only graph allowed).
        let mut done: HashSet<ThreadId> = HashSet::new();
        let mut starts: Vec<ThreadId> = self.waits.keys().copied().collect();
        starts.sort();
        for &start in &starts {
            if done.contains(&start) {
                continue;
            }
            let mut path: Vec<ThreadId> = Vec::new();
            let mut pos: HashMap<ThreadId, usize> = HashMap::new();
            if let Some(cycle) = self.dfs(start, &mut path, &mut pos, &mut done) {
                return Some(cycle);
            }
        }
        None
    }

    fn dfs(
        &self,
        cur: ThreadId,
        path: &mut Vec<ThreadId>,
        pos: &mut HashMap<ThreadId, usize>,
        done: &mut HashSet<ThreadId>,
    ) -> Option<Vec<ThreadId>> {
        pos.insert(cur, path.len());
        path.push(cur);
        for next in self.successors(cur) {
            if let Some(&i) = pos.get(&next) {
                return Some(path[i..].to_vec());
            }
            if done.contains(&next) {
                continue; // joins a previously explored acyclic region
            }
            if let Some(cycle) = self.dfs(next, path, pos, done) {
                return Some(cycle);
            }
        }
        path.pop();
        pos.remove(&cur);
        done.insert(cur);
        None
    }

    /// Finds a cycle through `start`: threads `start → t_2 → … → t_m`
    /// where each waits for a lock held (in a conflicting mode) by the
    /// next and `t_m` waits for a lock `start` holds. Returns the threads
    /// in cycle order beginning with `start`, or `None` when no cycle
    /// passes through `start` — a tail leading into a cycle is not part
    /// of it. Self-edges are ignored, as in [`WaitForGraph::find_cycle`].
    ///
    /// This is the incremental check: the thread whose new wait edge may
    /// have closed a cycle asks only about cycles it belongs to.
    pub fn find_cycle_from(&self, start: ThreadId) -> Option<Vec<ThreadId>> {
        let mut path = vec![start];
        let mut visited = HashSet::from([start]);
        self.reaches(start, start, &mut path, &mut visited)
            .then_some(path)
    }

    /// Depth-first walk back to `start`. A thread that cannot reach
    /// `start` cannot reach it along another branch either, so `visited`
    /// is a sound memo and the walk is linear in threads.
    fn reaches(
        &self,
        cur: ThreadId,
        start: ThreadId,
        path: &mut Vec<ThreadId>,
        visited: &mut HashSet<ThreadId>,
    ) -> bool {
        for next in self.successors(cur) {
            if next == start {
                return true;
            }
            if visited.insert(next) {
                path.push(next);
                if self.reaches(next, start, path, visited) {
                    return true;
                }
                path.pop();
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn o(i: u32) -> ObjId {
        ObjId::new(i)
    }

    #[test]
    fn two_cycle_detected() {
        let mut g = WaitForGraph::new();
        g.add_holds(t(1), o(1));
        g.add_holds(t(2), o(2));
        g.add_waits(t(1), o(2));
        g.add_waits(t(2), o(1));
        let c = g.find_cycle().unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.contains(&t(1)) && c.contains(&t(2)));
    }

    #[test]
    fn three_cycle_detected_in_order() {
        let mut g = WaitForGraph::new();
        for i in 1..=3 {
            g.add_holds(t(i), o(i));
            g.add_waits(t(i), o(i % 3 + 1));
        }
        let c = g.find_cycle().unwrap();
        assert_eq!(c.len(), 3);
        // cycle order: each waits for the next's lock
        for w in 0..3 {
            let cur = c[w];
            let nxt = c[(w + 1) % 3];
            let lock = g.waiting_for(cur).unwrap();
            assert_eq!(g.holder_of(lock), Some(nxt));
        }
    }

    #[test]
    fn chain_without_cycle_is_none() {
        let mut g = WaitForGraph::new();
        g.add_holds(t(1), o(1));
        g.add_holds(t(2), o(2));
        g.add_waits(t(3), o(1));
        g.add_waits(t(1), o(2));
        assert!(g.find_cycle().is_none());
    }

    #[test]
    fn self_wait_is_not_a_deadlock() {
        // Re-entrant acquisition: t holds l and "waits" for l.
        let mut g = WaitForGraph::new();
        g.add_holds(t(1), o(1));
        g.add_waits(t(1), o(1));
        assert!(g.find_cycle().is_none());
    }

    #[test]
    fn disjoint_cycles_returns_one() {
        let mut g = WaitForGraph::new();
        for (a, b, la, lb) in [(1, 2, 1, 2), (3, 4, 3, 4)] {
            g.add_holds(t(a), o(la));
            g.add_holds(t(b), o(lb));
            g.add_waits(t(a), o(lb));
            g.add_waits(t(b), o(la));
        }
        let c = g.find_cycle().unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn tail_leading_into_cycle_excluded() {
        // t3 waits into the {t1,t2} cycle but is not part of it.
        let mut g = WaitForGraph::new();
        g.add_holds(t(1), o(1));
        g.add_holds(t(2), o(2));
        g.add_waits(t(1), o(2));
        g.add_waits(t(2), o(1));
        g.add_waits(t(3), o(1));
        let c = g.find_cycle().unwrap();
        assert_eq!(c.len(), 2);
        assert!(!c.contains(&t(3)));
    }

    #[test]
    fn empty_graph_has_no_cycle() {
        assert!(WaitForGraph::new().find_cycle().is_none());
        assert!(WaitForGraph::new().find_cycle_from(t(1)).is_none());
    }

    #[test]
    fn shared_wait_ignores_shared_holders() {
        // t1 reads l1; t2 wants to read l1 too — no conflict, no cycle.
        let mut g = WaitForGraph::new();
        g.add_holds_shared(t(1), o(1));
        g.add_waits_shared(t(2), o(1));
        assert!(g.find_cycle().is_none());
        // But a write intent against the same reader does conflict.
        g.add_waits(t(2), o(1));
        g.add_holds(t(2), o(2));
        g.add_waits_shared(t(1), o(2));
        let c = g.find_cycle().unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn writer_blocked_by_many_readers_fans_out() {
        // t1 and t2 both read l1; t3 holds l3 and wants to write l1.
        // Only the t2 branch closes a cycle (t2 waits for l3).
        let mut g = WaitForGraph::new();
        g.add_holds_shared(t(1), o(1));
        g.add_holds_shared(t(2), o(1));
        g.add_holds(t(3), o(3));
        g.add_waits(t(3), o(1));
        g.add_waits(t(2), o(3));
        let c = g.find_cycle().unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.contains(&t(2)) && c.contains(&t(3)));
        assert!(!c.contains(&t(1)));
    }

    #[test]
    fn upgrade_self_edge_is_not_a_deadlock() {
        // A reader attempting to upgrade waits on its own shared hold.
        let mut g = WaitForGraph::new();
        g.add_holds_shared(t(1), o(1));
        g.add_waits(t(1), o(1));
        assert!(g.find_cycle().is_none());
    }

    #[test]
    fn holders_of_lists_exclusive_then_shared() {
        let mut g = WaitForGraph::new();
        g.add_holds_shared(t(3), o(1));
        g.add_holds_shared(t(2), o(1));
        g.add_holds(t(1), o(1));
        assert_eq!(g.holders_of(o(1)), vec![t(1), t(2), t(3)]);
        assert_eq!(g.holder_of(o(1)), Some(t(1)));
    }

    #[test]
    fn two_cycle_found_in_order() {
        let mut g = WaitForGraph::new();
        g.add_holds(t(1), o(1));
        g.add_holds(t(2), o(2));
        g.add_waits(t(1), o(2));
        g.add_waits(t(2), o(1));
        assert_eq!(g.find_cycle_from(t(1)), Some(vec![t(1), t(2)]));
        assert_eq!(g.find_cycle_from(t(2)), Some(vec![t(2), t(1)]));
    }

    #[test]
    fn three_cycle_found_from_any_member() {
        let mut g = WaitForGraph::new();
        for i in 1..=3 {
            g.add_holds(t(i), o(i));
            g.add_waits(t(i), o(i % 3 + 1));
        }
        for start in 1..=3 {
            let c = g.find_cycle_from(t(start)).unwrap();
            assert_eq!(c.len(), 3);
            assert_eq!(c[0], t(start));
        }
    }

    #[test]
    fn hierarchy_has_no_cycle() {
        let mut g = WaitForGraph::new();
        g.add_holds(t(1), o(1));
        g.add_waits(t(1), o(2));
        g.add_holds(t(2), o(2));
        g.add_waits(t(2), o(3));
        assert!(g.find_cycle_from(t(1)).is_none());
        assert!(g.find_cycle_from(t(2)).is_none());
    }

    #[test]
    fn cycle_through_one_of_many_readers() {
        // t1 writes-waits on a lock read-held by t2 and t3; only t3
        // closes the cycle back to t1.
        let mut g = WaitForGraph::new();
        g.add_holds_shared(t(2), o(1));
        g.add_holds_shared(t(3), o(1));
        g.add_holds(t(1), o(2));
        g.add_waits(t(1), o(1));
        g.add_waits(t(3), o(2));
        assert_eq!(g.find_cycle_from(t(1)), Some(vec![t(1), t(3)]));
    }

    #[test]
    fn shared_wait_ignores_shared_holders_from_start() {
        // t1 read-waits on a lock read-held by t2 — readers coexist, so
        // even a t2 that circles back to t1 is not a deadlock edge.
        let mut g = WaitForGraph::new();
        g.add_holds_shared(t(2), o(1));
        g.add_holds(t(1), o(2));
        g.add_waits_shared(t(1), o(1));
        g.add_waits(t(2), o(2));
        assert!(g.find_cycle_from(t(1)).is_none());
        // From t2 the walk reaches t1, whose shared wait still cannot
        // point back at reader t2 — no cycle from either side.
        assert!(g.find_cycle_from(t(2)).is_none());
    }

    #[test]
    fn shared_wait_on_a_writer_closes_cycles() {
        // t1 read-waits on o1 write-held by t2; t2 write-waits on o2
        // read-held by t1 — a reader/writer 2-cycle.
        let mut g = WaitForGraph::new();
        g.add_holds(t(2), o(1));
        g.add_holds_shared(t(1), o(2));
        g.add_waits_shared(t(1), o(1));
        g.add_waits(t(2), o(2));
        assert_eq!(g.find_cycle_from(t(1)), Some(vec![t(1), t(2)]));
        assert_eq!(g.find_cycle_from(t(2)), Some(vec![t(2), t(1)]));
    }

    #[test]
    fn tail_into_a_cycle_is_not_part_of_it() {
        let mut g = WaitForGraph::new();
        g.add_holds(t(1), o(1));
        g.add_holds(t(2), o(2));
        g.add_waits(t(1), o(2));
        g.add_waits(t(2), o(1));
        g.add_waits(t(3), o(1));
        // The cycle exists, but it does not pass through t3.
        assert!(g.find_cycle_from(t(3)).is_none());
        assert!(g.find_cycle_from(t(1)).is_some());
    }

    #[test]
    fn self_edges_are_not_cycles_from_start() {
        // Like `find_cycle`, the graph leaves self-waits to the caller:
        // the virtual runtime's locks are re-entrant, and a caller whose
        // locks are not checks the self-wait itself.
        let mut g = WaitForGraph::new();
        g.add_holds(t(1), o(1));
        g.add_waits(t(1), o(1));
        g.add_holds_shared(t(2), o(2));
        g.add_waits(t(2), o(2));
        assert!(g.find_cycle_from(t(1)).is_none());
        assert!(g.find_cycle_from(t(2)).is_none());
    }
}
