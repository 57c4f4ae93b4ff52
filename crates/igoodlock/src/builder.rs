//! Incremental (streaming) construction of the lock dependency relation.
//!
//! Algorithm 2 of the paper computes the relation *during* execution; a
//! [`RelationBuilder`] is that computation factored out of
//! [`LockDependencyRelation::from_trace`] so it can also run online,
//! fed one event at a time through the [`df_events::EventSink`]
//! interface. The offline path delegates to this builder, which is what
//! makes the streamed and trace-based relations byte-identical by
//! construction — there is exactly one implementation of Definition 1.
//! It is also the one place fork/join vector clocks are computed: each
//! new tuple's [`DepTiming`] carries what the happens-before filter and
//! the feasibility scorer need.

use std::collections::{BTreeMap, HashMap};

use df_events::{AcquireMode, Event, EventKind, EventSink, ObjId, ThreadId};

use crate::hb::{Epoch, VectorClock};
use crate::relation::{DedupIndex, DepTiming, LockDep, LockDependencyRelation};

/// Builds a [`LockDependencyRelation`] one event at a time.
///
/// Feed it thread bindings ([`RelationBuilder::bind_thread`]) and events
/// ([`RelationBuilder::observe`]) in execution order — or attach it to a
/// substrate as an [`EventSink`] — then call
/// [`RelationBuilder::finish`]. Memory is proportional to the
/// *deduplicated relation* plus the live lock stacks and one clock per
/// thread, never to the length of the execution. Once its thread is
/// known, an event that adds no tuple allocates nothing unless it is a
/// spawn, start, join or exit.
///
/// # Example
///
/// ```
/// use df_igoodlock::{LockDependencyRelation, RelationBuilder};
/// use df_events::Trace;
///
/// let trace = Trace::default();
/// let mut builder = RelationBuilder::new();
/// for event in trace.events() {
///     builder.observe(event);
/// }
/// assert_eq!(builder.finish(), LockDependencyRelation::from_trace(&trace));
/// ```
#[derive(Default)]
pub struct RelationBuilder {
    seen: DedupIndex,
    deps: Vec<LockDep>,
    timings: Vec<DepTiming>,
    raw_count: usize,
    events: u64,
    threads: HashMap<ThreadId, ThreadState>,
    thread_objs: BTreeMap<ThreadId, ObjId>,
    /// Clock of each spawn, handed to the child's start.
    pending_start: HashMap<ThreadId, VectorClock>,
    /// Clock at each thread's exit, consumed by its joiners.
    at_exit: HashMap<ThreadId, VectorClock>,
    /// Scratch for the hold modes of the tuple being probed.
    hold_modes: Vec<AcquireMode>,
}

/// What the builder tracks per thread.
struct ThreadState {
    /// The thread's component in every clock (see [`VectorClock`]).
    slot: usize,
    /// Fork/join clock after the thread's latest event.
    clock: VectorClock,
    /// Held locks, innermost last, mirroring the events' `held` (same
    /// pushes, same rposition removals).
    stack: Vec<Held>,
}

/// One entry of a thread's held-lock stack: a potential window start.
struct Held {
    lock: ObjId,
    seq: u64,
    mode: AcquireMode,
    /// The thread's own clock component at the acquisition.
    time: u64,
    /// The whole clock at the acquisition, saved once a join moved the
    /// thread's clock on; `None` while only the own component differs.
    clock: Option<VectorClock>,
}

impl ThreadState {
    /// The clock at `held`'s acquisition.
    fn clock_at(&self, held: &Held) -> VectorClock {
        held.clock.clone().unwrap_or_else(|| {
            let mut clock = self.clock.clone();
            clock.set(self.slot, held.time);
            clock
        })
    }

    /// Joins `other` into the thread's clock, first saving the current
    /// clock into every held entry that still relies on it.
    fn join(&mut self, other: &VectorClock) {
        for i in 0..self.stack.len() {
            if self.stack[i].clock.is_none() {
                self.stack[i].clock = Some(self.clock_at(&self.stack[i]));
            }
        }
        self.clock.join(other);
    }

    fn push(&mut self, lock: ObjId, seq: u64, mode: AcquireMode) {
        let time = self.clock.get(self.slot);
        self.stack.push(Held {
            lock,
            seq,
            mode,
            time,
            clock: None,
        });
    }
}

impl RelationBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the object representing `thread`. Substrates announce
    /// the binding before the thread's first event; the offline path
    /// replays a trace's binding table up front.
    pub fn bind_thread(&mut self, thread: ThreadId, obj: ObjId) {
        self.thread_objs.insert(thread, obj);
    }

    /// Feeds one event, in execution order.
    pub fn observe(&mut self, event: &Event) {
        self.events += 1;
        let t = event.thread;
        let slot = self.threads.len();
        let state = self.threads.entry(t).or_insert_with(|| ThreadState {
            slot,
            clock: VectorClock::default(),
            stack: Vec::new(),
        });
        state.clock.tick(state.slot);
        match &event.kind {
            EventKind::Spawn { child, .. } => {
                self.pending_start.insert(*child, state.clock.clone());
            }
            EventKind::ThreadStart => {
                if let Some(parent) = self.pending_start.remove(&t) {
                    state.join(&parent);
                }
            }
            EventKind::ThreadExit => {
                self.at_exit.insert(t, state.clock.clone());
            }
            EventKind::Join { target } => {
                if let Some(exit) = self.at_exit.get(target) {
                    state.join(exit);
                }
            }
            EventKind::Acquire {
                lock,
                held,
                context,
                mode,
                ..
            } => {
                self.raw_count += 1;
                if !held.is_empty() {
                    // Events replayed without matching stack state (bare
                    // tuples) default to exclusive holds.
                    self.hold_modes.clear();
                    self.hold_modes.extend((0..held.len()).map(|i| {
                        state
                            .stack
                            .get(i)
                            .map_or(AcquireMode::Exclusive, |h| h.mode)
                    }));
                    let thread_obj = *self
                        .thread_objs
                        .get(&t)
                        .expect("trace binds every thread to its object");
                    let key = (
                        t,
                        thread_obj,
                        &held[..],
                        *lock,
                        &context[..],
                        *mode,
                        &self.hold_modes[..],
                    );
                    if self.seen.is_new(&self.deps, key) {
                        let (window_start_seq, window_start_clock) = match state.stack.last() {
                            Some(h) => (h.seq, state.clock_at(h)),
                            None => (event.seq, state.clock.clone()),
                        };
                        self.timings.push(DepTiming {
                            window_start_seq,
                            acquire_seq: event.seq,
                            window_start_clock,
                            acquire_epoch: Epoch {
                                slot: state.slot,
                                time: state.clock.get(state.slot),
                            },
                        });
                        self.deps.push(LockDep {
                            thread: t,
                            thread_obj,
                            lockset: held.clone(),
                            lock: *lock,
                            contexts: context.clone(),
                            mode: *mode,
                            hold_modes: self.hold_modes.clone(),
                        });
                    }
                }
                state.push(*lock, event.seq, *mode);
            }
            // A successful try joins the held stack — later nested
            // acquires include it in their lockset — but records no
            // dependency tuple itself: a try never blocks, so it can
            // never be the blocked edge of a cycle. A failed try is a
            // no-op.
            EventKind::TryAcquire {
                lock,
                acquired: true,
                mode,
                ..
            } => state.push(*lock, event.seq, *mode),
            EventKind::Release { lock, .. } => {
                if let Some(pos) = state.stack.iter().rposition(|h| h.lock == *lock) {
                    state.stack.remove(pos);
                }
            }
            // Condvar waits release and reacquire their lock through
            // ordinary Release/Acquire events emitted by the substrate;
            // the CondWait/CondNotify events themselves only mark the
            // communication edge and add nothing to Definition 1.
            _ => {}
        }
    }

    /// The fork/join clock of `thread` after its latest event.
    pub(crate) fn clock(&self, thread: ThreadId) -> &VectorClock {
        &self.threads[&thread].clock
    }

    /// Number of deduplicated tuples so far.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// Whether no tuple has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Number of raw (non-deduplicated) dependency tuples observed so far.
    pub fn raw_count(&self) -> usize {
        self.raw_count
    }

    /// Seals the builder into the finished relation.
    pub fn finish(self) -> LockDependencyRelation {
        LockDependencyRelation {
            deps: self.deps,
            timings: self.timings,
            raw_count: self.raw_count,
            events: self.events,
        }
    }

    /// Takes the finished relation out of the builder, resetting it —
    /// the form needed when the builder is shared behind a sink handle
    /// and cannot be consumed by value.
    pub fn take(&mut self) -> LockDependencyRelation {
        std::mem::take(self).finish()
    }
}

impl EventSink for RelationBuilder {
    fn on_event(&mut self, event: &Event) {
        self.observe(event);
    }

    fn on_thread_bound(&mut self, thread: ThreadId, obj: ObjId) {
        self.bind_thread(thread, obj);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_events::{Label, Trace};

    fn l(s: &str) -> Label {
        Label::new(s)
    }

    /// Builds the canonical opposite-order two-thread trace.
    fn opposite_order_trace() -> Trace {
        let mut trace = Trace::new();
        let t1 = ThreadId::new(1);
        let t2 = ThreadId::new(2);
        let o1 = trace
            .objects_mut()
            .create(df_events::ObjKind::Thread, l("spawn:1"), None, vec![]);
        let o2 = trace
            .objects_mut()
            .create(df_events::ObjKind::Thread, l("spawn:2"), None, vec![]);
        trace.bind_thread(t1, o1);
        trace.bind_thread(t2, o2);
        let a = trace
            .objects_mut()
            .create(df_events::ObjKind::Lock, l("main:22"), None, vec![]);
        let b = trace
            .objects_mut()
            .create(df_events::ObjKind::Lock, l("main:23"), None, vec![]);
        for (t, first, second) in [(t1, a, b), (t2, b, a)] {
            trace.push(
                t,
                EventKind::acquire(first, l("run:15"), vec![], vec![l("run:15")]),
            );
            trace.push(
                t,
                EventKind::acquire(
                    second,
                    l("run:16"),
                    vec![first],
                    vec![l("run:15"), l("run:16")],
                ),
            );
            trace.push(t, EventKind::release(second, l("run:17")));
            trace.push(t, EventKind::release(first, l("run:18")));
        }
        trace
    }

    /// Readers under a shared lock while a writer acquires it exclusively
    /// — exercises hold-mode bookkeeping and the try_lock stack effect.
    #[test]
    fn shared_holds_and_trys_shape_the_tuples() {
        let mut trace = Trace::new();
        let t1 = ThreadId::new(1);
        let o1 = trace
            .objects_mut()
            .create(df_events::ObjKind::Thread, l("spawn:1"), None, vec![]);
        trace.bind_thread(t1, o1);
        let rw = trace
            .objects_mut()
            .create(df_events::ObjKind::Lock, l("main:1"), None, vec![]);
        let m = trace
            .objects_mut()
            .create(df_events::ObjKind::Lock, l("main:2"), None, vec![]);
        // read(rw); try_lock(m) ok; acquire(inner) while holding both.
        let inner = trace
            .objects_mut()
            .create(df_events::ObjKind::Lock, l("main:3"), None, vec![]);
        trace.push(
            t1,
            EventKind::acquire(rw, l("r:1"), vec![], vec![l("r:1")]).shared(),
        );
        trace.push(t1, EventKind::try_acquire(m, l("r:2"), true));
        trace.push(t1, EventKind::try_acquire(inner, l("r:2b"), false));
        trace.push(
            t1,
            EventKind::acquire(
                inner,
                l("r:3"),
                vec![rw, m],
                vec![l("r:1"), l("r:2"), l("r:3")],
            ),
        );
        let rel = stream(&trace);
        // Only the nested Acquire records a tuple; the failed try added
        // nothing to the held stack.
        assert_eq!(rel.len(), 1);
        let dep = &rel.deps()[0];
        assert_eq!(dep.lockset, vec![rw, m]);
        assert_eq!(
            dep.hold_modes,
            vec![
                df_events::AcquireMode::Shared,
                df_events::AcquireMode::Exclusive
            ]
        );
        assert_eq!(dep.mode, df_events::AcquireMode::Exclusive);
    }

    fn stream(trace: &Trace) -> LockDependencyRelation {
        let mut b = RelationBuilder::new();
        for (t, o) in trace.thread_objs() {
            b.bind_thread(t, o);
        }
        for event in trace.events() {
            b.observe(event);
        }
        b.finish()
    }

    #[test]
    fn streaming_matches_offline_byte_for_byte() {
        let trace = opposite_order_trace();
        let offline = LockDependencyRelation::from_trace(&trace);
        let streamed = stream(&trace);
        assert_eq!(offline, streamed);
        assert_eq!(
            serde_json::to_string(&offline).unwrap(),
            serde_json::to_string(&streamed).unwrap()
        );
    }

    /// main takes `a`, joins a finished child, then nests `b` inside `a`:
    /// the tuple's window started before the join, so its clock must not
    /// have seen the child — the clock the stack entry saved at the join.
    #[test]
    fn window_start_clock_predates_a_join_inside_the_window() {
        let mut trace = Trace::new();
        let main = ThreadId::new(0);
        let child = ThreadId::new(1);
        for (t, site) in [(main, "<main>"), (child, "spawn:1")] {
            let obj = trace
                .objects_mut()
                .create(df_events::ObjKind::Thread, l(site), None, vec![]);
            trace.bind_thread(t, obj);
        }
        let a = trace
            .objects_mut()
            .create(df_events::ObjKind::Lock, l("main:1"), None, vec![]);
        let b = trace
            .objects_mut()
            .create(df_events::ObjKind::Lock, l("main:2"), None, vec![]);
        trace.push(main, EventKind::ThreadStart);
        let child_obj = trace.thread_obj(child).unwrap();
        trace.push(main, EventKind::Spawn { child, child_obj });
        trace.push(child, EventKind::ThreadStart);
        trace.push(child, EventKind::ThreadExit);
        trace.push(
            main,
            EventKind::acquire(a, l("m:a"), vec![], vec![l("m:a")]),
        );
        trace.push(main, EventKind::Join { target: child });
        trace.push(
            main,
            EventKind::acquire(b, l("m:b"), vec![a], vec![l("m:a"), l("m:b")]),
        );
        let rel = stream(&trace);
        let timing = rel.timing(0).expect("a timed tuple");
        assert_eq!(timing.window_start_seq, 4);
        // Slots follow first events: main is 0, the child 1.
        assert_eq!(timing.window_start_clock.get(0), 3);
        assert_eq!(timing.window_start_clock.get(1), 0);
        assert_eq!(timing.acquire_epoch.slot, 0);
        assert_eq!(timing.acquire_epoch.time, 5);
        assert_eq!(rel.events(), 7);
        assert_eq!(
            crate::oracle::HbFilter::from_trace(&trace).retime(&rel),
            rel
        );
    }

    /// Clock slots follow first events, not thread ids: an artifact's
    /// thread ids cannot size the clocks.
    #[test]
    fn clocks_are_sized_by_threads_seen_not_by_their_ids() {
        let mut trace = Trace::new();
        let far = ThreadId::new(u32::MAX);
        let obj = trace
            .objects_mut()
            .create(df_events::ObjKind::Thread, l("far"), None, vec![]);
        trace.bind_thread(far, obj);
        let a = trace
            .objects_mut()
            .create(df_events::ObjKind::Lock, l("m:1"), None, vec![]);
        let b = trace
            .objects_mut()
            .create(df_events::ObjKind::Lock, l("m:2"), None, vec![]);
        trace.push(far, EventKind::acquire(a, l("f:a"), vec![], vec![l("f:a")]));
        trace.push(
            far,
            EventKind::acquire(b, l("f:b"), vec![a], vec![l("f:a"), l("f:b")]),
        );
        let rel = stream(&trace);
        let timing = rel.timing(0).expect("a timed tuple");
        assert_eq!(timing.acquire_epoch.slot, 0);
        assert_eq!(
            serde_json::to_string(&timing.window_start_clock).unwrap(),
            "[1]"
        );
    }

    #[test]
    fn incremental_counters_track_progress() {
        let trace = opposite_order_trace();
        let mut b = RelationBuilder::new();
        for (t, o) in trace.thread_objs() {
            b.bind_thread(t, o);
        }
        assert!(b.is_empty());
        for event in trace.events() {
            b.observe(event);
        }
        assert_eq!(b.len(), 2);
        assert_eq!(b.raw_count(), 4);
        let rel = b.finish();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.raw_count, 4);
    }

    #[test]
    fn take_resets_the_builder() {
        let trace = opposite_order_trace();
        let mut b = RelationBuilder::new();
        for (t, o) in trace.thread_objs() {
            b.bind_thread(t, o);
        }
        for event in trace.events() {
            b.observe(event);
        }
        let rel = b.take();
        assert_eq!(rel.len(), 2);
        assert!(b.is_empty());
        assert_eq!(b.raw_count(), 0);
    }

    #[test]
    fn sink_interface_delivers_bindings_and_events() {
        let trace = opposite_order_trace();
        let mut b = RelationBuilder::new();
        {
            let sink: &mut dyn EventSink = &mut b;
            for (t, o) in trace.thread_objs() {
                sink.on_thread_bound(t, o);
            }
            for event in trace.events() {
                sink.on_event(event);
            }
            sink.on_finish(&Trace::new());
        }
        assert_eq!(b.take(), LockDependencyRelation::from_trace(&trace));
    }
}
