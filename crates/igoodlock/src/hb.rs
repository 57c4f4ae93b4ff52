//! Happens-before filtering of potential deadlock cycles.
//!
//! iGoodlock deliberately ignores the happens-before relation — that is
//! what gives it predictive power (§1 of the paper) — but it is also the
//! sole source of its false positives (§5.4: the Jigsaw `CachedThread`
//! cycles "can occur only if a CachedThread invokes its waitForRunner()
//! method before that CachedThread has been started", which thread-start
//! ordering forbids).
//!
//! This module implements the improvement explored by the generalized
//! Goodlock line of work (Agarwal–Wang–Stoller; Bensalem–Havelund): a
//! *conservative* happens-before filter over the **fork/join order only**.
//! Lock-release→acquire edges are intentionally *not* included — ordering
//! every critical section by the observed schedule would collapse the
//! analysis onto the single observed interleaving and destroy its
//! predictive power; fork/join edges, in contrast, hold in *every*
//! execution.
//!
//! A cycle is pruned when two of its components' *hold windows* — the
//! span from the innermost held-lock acquisition to the blocked
//! acquisition — are ordered by fork/join happens-before: such windows
//! can never overlap in any execution, so the deadlock state is
//! unreachable.
//! The [`crate::RelationBuilder`] stores in each tuple's [`DepTiming`] the
//! clock at its window start and the [`Epoch`] of its acquisition, so the
//! filter reads only the relation.

use serde::{Deserialize, Serialize};

use crate::relation::{DepTiming, LockDependencyRelation};

/// A vector clock: one logical-time component per thread. Components are
/// indexed by *slot*: the [`crate::RelationBuilder`] numbers threads
/// densely in the order their first events arrive, so a clock's size is
/// bounded by the threads seen, whatever their ids. Absent components
/// are zero.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct VectorClock {
    entries: Vec<u64>,
}

impl VectorClock {
    /// The component of the thread in `slot`.
    pub fn get(&self, slot: usize) -> u64 {
        self.entries.get(slot).copied().unwrap_or(0)
    }

    /// Sets the component of the thread in `slot`.
    pub(crate) fn set(&mut self, slot: usize, time: u64) {
        if self.entries.len() <= slot {
            self.entries.resize(slot + 1, 0);
        }
        self.entries[slot] = time;
    }

    /// Advances the component of the thread in `slot` by one event.
    pub(crate) fn tick(&mut self, slot: usize) {
        self.set(slot, self.get(slot) + 1);
    }

    /// Componentwise maximum with `other`.
    pub(crate) fn join(&mut self, other: &VectorClock) {
        if self.entries.len() < other.entries.len() {
            self.entries.resize(other.entries.len(), 0);
        }
        for (mine, &theirs) in self.entries.iter_mut().zip(&other.entries) {
            *mine = (*mine).max(theirs);
        }
    }

    /// Whether `self ≤ other` componentwise (self happens-before-or-equal
    /// other).
    pub fn leq(&self, other: &VectorClock) -> bool {
        self.entries
            .iter()
            .enumerate()
            .all(|(i, &v)| v <= other.entries.get(i).copied().unwrap_or(0))
    }
}

// A clock is stored as its plain component array.
impl Serialize for VectorClock {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.entries.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for VectorClock {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Vec::deserialize(deserializer).map(|entries| VectorClock { entries })
    }
}

/// One event's position in its own thread: the thread's clock slot and
/// its component at that event. An event `e` with epoch `c@t`
/// happens-before (or is) an event with clock `V` exactly when
/// `c ≤ V[t]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Epoch {
    /// The clock slot of the thread the event ran on.
    pub slot: usize,
    /// That thread's clock component at the event.
    pub time: u64,
}

impl DepTiming {
    /// Whether this window's end — its acquisition — happens-before
    /// `other`'s window start under fork/join order (strictly: the two
    /// are distinct events).
    pub fn ends_before(&self, other: &DepTiming) -> bool {
        self.acquire_seq != other.window_start_seq
            && self.acquire_epoch.time <= other.window_start_clock.get(self.acquire_epoch.slot)
    }

    /// Whether two hold windows may overlap in *some* execution
    /// consistent with fork/join order: neither window ends
    /// happens-before the other begins.
    pub fn may_overlap(&self, other: &DepTiming) -> bool {
        !(self.ends_before(other) || other.ends_before(self))
    }
}

impl LockDependencyRelation {
    /// Whether two of the hold windows of `tuples` (a cycle's components)
    /// are ordered by fork/join happens-before — the filter's pruning
    /// test. Tuples without timings are never ordered.
    pub(crate) fn hb_ordered(&self, tuples: impl Iterator<Item = usize>) -> bool {
        let timings: Option<Vec<&DepTiming>> = tuples.map(|i| self.timing(i)).collect();
        timings
            .is_some_and(|t| (0..t.len()).any(|i| t[i + 1..].iter().any(|b| !t[i].may_overlap(b))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::HbFilter;
    use df_events::{EventKind, Label, ObjKind, ThreadId, Trace};

    fn l(s: &str) -> Label {
        Label::new(s)
    }

    /// main spawns A; A exits; main joins A; main spawns B.
    /// Events of A happen-before events of B.
    fn forked_trace() -> Trace {
        let mut trace = Trace::new();
        let main = ThreadId::new(0);
        let a = ThreadId::new(1);
        let b = ThreadId::new(2);
        for (t, site) in [(main, "<main>"), (a, "spawn:a"), (b, "spawn:b")] {
            let obj = trace
                .objects_mut()
                .create(ObjKind::Thread, l(site), None, vec![]);
            trace.bind_thread(t, obj);
        }
        trace.push(main, EventKind::ThreadStart); // 0
        trace.push(
            main,
            EventKind::Spawn {
                child: a,
                child_obj: trace.thread_obj(a).unwrap(),
            },
        ); // 1
        trace.push(a, EventKind::ThreadStart); // 2
        trace.push(a, EventKind::Yield); // 3
        trace.push(a, EventKind::ThreadExit); // 4
        trace.push(main, EventKind::Join { target: a }); // 5
        trace.push(
            main,
            EventKind::Spawn {
                child: b,
                child_obj: trace.thread_obj(b).unwrap(),
            },
        ); // 6
        trace.push(b, EventKind::ThreadStart); // 7
        trace.push(b, EventKind::Yield); // 8
        trace.push(b, EventKind::ThreadExit); // 9
        trace
    }

    #[test]
    fn fork_edge_orders_parent_before_child() {
        let trace = forked_trace();
        let hb = HbFilter::from_trace(&trace);
        assert!(hb.happens_before(1, 2), "spawn before child's start");
        assert!(hb.happens_before(0, 3), "parent prefix before child event");
        assert!(!hb.happens_before(3, 0), "no reverse edge");
    }

    #[test]
    fn join_edge_orders_child_before_joiner_suffix() {
        let trace = forked_trace();
        let hb = HbFilter::from_trace(&trace);
        assert!(hb.happens_before(3, 5), "A's events before the join");
        assert!(
            hb.happens_before(3, 8),
            "A's events before B's (join+spawn)"
        );
        assert!(!hb.happens_before(5, 3));
    }

    #[test]
    fn concurrent_threads_are_unordered() {
        // main spawns A and B without joining in between.
        let mut trace = Trace::new();
        let main = ThreadId::new(0);
        let a = ThreadId::new(1);
        let b = ThreadId::new(2);
        for (t, site) in [(main, "<main>"), (a, "s:a"), (b, "s:b")] {
            let obj = trace
                .objects_mut()
                .create(ObjKind::Thread, l(site), None, vec![]);
            trace.bind_thread(t, obj);
        }
        trace.push(main, EventKind::ThreadStart); // 0
        trace.push(
            main,
            EventKind::Spawn {
                child: a,
                child_obj: trace.thread_obj(a).unwrap(),
            },
        ); // 1
        trace.push(
            main,
            EventKind::Spawn {
                child: b,
                child_obj: trace.thread_obj(b).unwrap(),
            },
        ); // 2
        trace.push(a, EventKind::ThreadStart); // 3
        trace.push(b, EventKind::ThreadStart); // 4
        trace.push(a, EventKind::Yield); // 5
        trace.push(b, EventKind::Yield); // 6
        let hb = HbFilter::from_trace(&trace);
        assert!(!hb.happens_before(5, 6));
        assert!(!hb.happens_before(6, 5));
        assert!(hb.happens_before(1, 5));
        assert!(hb.happens_before(2, 6));
    }

    /// A window the oracle judges by its sequence numbers alone.
    fn window(start: u64, end: u64) -> DepTiming {
        DepTiming {
            window_start_seq: start,
            acquire_seq: end,
            window_start_clock: VectorClock::default(),
            acquire_epoch: Epoch { slot: 0, time: 0 },
        }
    }

    #[test]
    fn window_overlap_respects_ordering() {
        let trace = forked_trace();
        let hb = HbFilter::from_trace(&trace);
        // A's window (events 2..4) vs B's window (events 7..9): ordered.
        let wa = window(2, 4);
        let wb = window(7, 9);
        assert!(!hb.windows_may_overlap(&wa, &wb));
        // A window vs main's own early window: main 0..1 precedes A.
        let wmain = window(0, 1);
        assert!(!hb.windows_may_overlap(&wmain, &wa));
        // Identical windows trivially may overlap.
        assert!(hb.windows_may_overlap(&wa, &wa));
    }

    #[test]
    fn empty_trace_is_fine() {
        let hb = HbFilter::from_trace(&Trace::default());
        assert!(hb.is_empty());
        assert!(!hb.happens_before(0, 1));
    }

    fn clock(entries: &[u64]) -> VectorClock {
        VectorClock {
            entries: entries.to_vec(),
        }
    }

    #[test]
    fn clock_operations() {
        let mut a = VectorClock::default();
        a.tick(2);
        assert_eq!(a, clock(&[0, 0, 1]));
        a.join(&clock(&[3, 0, 0, 4]));
        assert_eq!(a, clock(&[3, 0, 1, 4]));
        assert_eq!(a.get(9), 0);
        assert!(clock(&[1, 0]).leq(&clock(&[1])));
        assert!(!clock(&[1, 2]).leq(&clock(&[1])));
    }

    #[test]
    fn clocks_serialize_as_arrays() {
        let json = serde_json::to_string(&clock(&[0, 2, 1])).unwrap();
        assert_eq!(json, "[0,2,1]");
        let back: VectorClock = serde_json::from_str(&json).unwrap();
        assert_eq!(back, clock(&[0, 2, 1]));
    }

    /// T1's window (seq 2..4) ends at epoch 3@T1; T2 starts after main
    /// joined T1, so its window-start clock has seen T1 up to 4.
    #[test]
    fn ordered_windows_do_not_overlap() {
        let a = DepTiming {
            window_start_seq: 2,
            acquire_seq: 4,
            window_start_clock: clock(&[2, 2]),
            acquire_epoch: Epoch { slot: 1, time: 3 },
        };
        let b = DepTiming {
            window_start_seq: 9,
            acquire_seq: 10,
            window_start_clock: clock(&[5, 4, 2]),
            acquire_epoch: Epoch { slot: 2, time: 3 },
        };
        assert!(a.ends_before(&b));
        assert!(!b.ends_before(&a));
        assert!(!a.may_overlap(&b));
        assert!(a.may_overlap(&a), "a window overlaps itself");
    }
}
