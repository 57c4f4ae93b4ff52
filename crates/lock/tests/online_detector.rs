//! Deterministic-interleaving suite for the online wait-for-graph
//! detector, plus a property test tying the live detector back to
//! Phase I: every witness the WFG reports on a real execution must
//! correspond to an iGoodlock cycle in the relation built from that
//! same execution's event stream.
//!
//! Determinism: barriers force every thread in a would-be cycle to take
//! its first lock before any thread attempts its second, so cycle
//! formation does not depend on the OS scheduler; `try_lock_for`
//! timeouts then dissolve the deadlock so the tests terminate.

use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use df_events::{Event, EventKind, EventSink, ObjId, SinkHandle};
use df_igoodlock::{igoodlock, IGoodlockOptions, RelationBuilder};
use df_lock::{
    AcquireMode, DeadlockHandler, DeadlockWitness, TrackedCondvar, TrackedMutex, TrackedRwLock,
    Tracker, TrackerConfig,
};
use proptest::prelude::*;

/// A handler that collects every witness for later assertions.
fn collector() -> (Arc<Mutex<Vec<DeadlockWitness>>>, DeadlockHandler) {
    let witnesses = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&witnesses);
    let handler = DeadlockHandler::Callback(Arc::new(move |w: &DeadlockWitness| {
        sink.lock().unwrap().push(w.clone());
    }));
    (witnesses, handler)
}

fn sorted_locks(witness: &DeadlockWitness) -> Vec<ObjId> {
    let mut locks = witness.locks();
    locks.sort();
    locks
}

/// Witness components come out in cycle order: each thread waits for a
/// lock the *next* component's thread holds.
fn assert_cyclic(witness: &DeadlockWitness) {
    let n = witness.len();
    for (i, c) in witness.components.iter().enumerate() {
        let next = &witness.components[(i + 1) % n];
        assert!(
            next.holding.contains(&c.waiting_for),
            "component {i} waits for {:?} but successor holds only {:?}",
            c.waiting_for,
            next.holding
        );
    }
}

/// Threads that respect a global lock order can contend heavily without
/// ever deadlocking; the detector must stay silent.
#[test]
fn hierarchical_order_produces_no_false_positives() {
    let (witnesses, handler) = collector();
    let tracker = Tracker::new(TrackerConfig::default().with_handler(handler));
    let a = Arc::new(TrackedMutex::with_tracker(&tracker, 0u64));
    let b = Arc::new(TrackedMutex::with_tracker(&tracker, 0u64));
    let c = Arc::new(TrackedMutex::with_tracker(&tracker, 0u64));

    let handles: Vec<_> = (0..4)
        .map(|i| {
            let (a, b, c) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&c));
            tracker.spawn(&format!("ordered-{i}"), move || {
                for _ in 0..50 {
                    let ga = a.lock().unwrap();
                    let gb = b.lock().unwrap();
                    let mut gc = c.lock().unwrap();
                    *gc += 1;
                    drop((gc, gb, ga));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert!(
        witnesses.lock().unwrap().is_empty(),
        "hierarchical locking must never produce a witness"
    );
    let snap = tracker.obs().counters().snapshot();
    assert_eq!(snap.wfg_cycles_detected, 0);
    assert_eq!(snap.lock_timeouts, 0);
}

/// The classic two-lock inversion, forced by a barrier: detection is
/// guaranteed, fires exactly once (dedup by lock set), and the witness
/// names both threads and both locks in cycle order.
#[test]
fn two_lock_cycle_is_detected_exactly_once() {
    let (witnesses, handler) = collector();
    let tracker = Tracker::new(TrackerConfig::default().with_handler(handler));
    let a = Arc::new(TrackedMutex::with_tracker(&tracker, ()));
    let b = Arc::new(TrackedMutex::with_tracker(&tracker, ()));
    let expected = {
        let mut ids = vec![a.id(), b.id()];
        ids.sort();
        ids
    };

    let barrier = Arc::new(Barrier::new(2));
    let (a1, b1, bar) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&barrier));
    let t1 = tracker.spawn("inverted a->b", move || {
        let first = a1.lock().unwrap();
        bar.wait();
        let _ = b1.try_lock_for(Duration::from_secs(2));
        drop(first);
    });
    let (a2, b2, bar) = (Arc::clone(&a), Arc::clone(&b), barrier);
    let t2 = tracker.spawn("inverted b->a", move || {
        let first = b2.lock().unwrap();
        bar.wait();
        let _ = a2.try_lock_for(Duration::from_secs(2));
        drop(first);
    });
    t1.join().unwrap();
    t2.join().unwrap();

    let seen = witnesses.lock().unwrap();
    assert_eq!(seen.len(), 1, "one cycle, reported once: {seen:?}");
    let w = &seen[0];
    assert_eq!(w.len(), 2);
    assert_eq!(sorted_locks(w), expected);
    assert_cyclic(w);
    for c in &w.components {
        assert!(
            c.thread_name
                .as_deref()
                .is_some_and(|n| n.starts_with("inverted")),
            "witness should carry thread names: {c:?}"
        );
        assert!(!c.context.is_empty(), "witness should carry acquire sites");
    }

    let snap = tracker.obs().counters().snapshot();
    assert_eq!(snap.wfg_cycles_detected, 1);
    assert!(snap.wfg_edges >= 2, "both waits registered: {snap:?}");
    assert!(
        snap.lock_timeouts >= 1,
        "at least the first thread to give up times out: {snap:?}"
    );
}

/// Three dining philosophers: the cycle only closes when the *last*
/// thread registers its wait, and the witness must walk all three.
#[test]
fn three_lock_philosopher_cycle_is_detected() {
    let (witnesses, handler) = collector();
    let tracker = Tracker::new(TrackerConfig::default().with_handler(handler));
    let forks: Vec<_> = (0..3)
        .map(|_| Arc::new(TrackedMutex::with_tracker(&tracker, ())))
        .collect();
    let expected = {
        let mut ids: Vec<_> = forks.iter().map(|f| f.id()).collect();
        ids.sort();
        ids
    };

    let barrier = Arc::new(Barrier::new(3));
    let handles: Vec<_> = (0..3)
        .map(|i| {
            let left = Arc::clone(&forks[i]);
            let right = Arc::clone(&forks[(i + 1) % 3]);
            let bar = Arc::clone(&barrier);
            tracker.spawn(&format!("philosopher-{i}"), move || {
                let held = left.lock().unwrap();
                bar.wait();
                let _ = right.try_lock_for(Duration::from_secs(2));
                drop(held);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let seen = witnesses.lock().unwrap();
    assert_eq!(seen.len(), 1, "one 3-cycle, reported once: {seen:?}");
    let w = &seen[0];
    assert_eq!(w.len(), 3);
    assert_eq!(sorted_locks(w), expected);
    assert_cyclic(w);
    assert_eq!(tracker.obs().counters().snapshot().wfg_cycles_detected, 1);
}

/// A writer blocked on a lock held *shared* still closes a cycle: the
/// graph walks every reader of a contended rwlock.
#[test]
fn rwlock_reader_participates_in_cycle() {
    let (witnesses, handler) = collector();
    let tracker = Tracker::new(TrackerConfig::default().with_handler(handler));
    let a = Arc::new(TrackedRwLock::with_tracker(&tracker, ()));
    let b = Arc::new(TrackedRwLock::with_tracker(&tracker, ()));
    let expected = {
        let mut ids = vec![a.id(), b.id()];
        ids.sort();
        ids
    };

    let barrier = Arc::new(Barrier::new(2));
    let (a1, b1, bar) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&barrier));
    let t1 = tracker.spawn("reader of a", move || {
        let held = a1.read().unwrap();
        bar.wait();
        let _ = b1.try_write_for(Duration::from_secs(2));
        drop(held);
    });
    let (a2, b2, bar) = (Arc::clone(&a), Arc::clone(&b), barrier);
    let t2 = tracker.spawn("writer of b", move || {
        let held = b2.write().unwrap();
        bar.wait();
        let _ = a2.try_write_for(Duration::from_secs(2));
        drop(held);
    });
    t1.join().unwrap();
    t2.join().unwrap();

    let seen = witnesses.lock().unwrap();
    assert_eq!(seen.len(), 1, "reader/writer inversion: {seen:?}");
    assert_eq!(sorted_locks(&seen[0]), expected);
    assert_cyclic(&seen[0]);
}

/// Regression: a reader-heavy jam — one stuck writer, several readers
/// each closing a cycle through it via a *different* held lock — is one
/// deadlock, not one report per reader. The dedup key is the union of
/// held and awaited locks across the cycle, which is identical for
/// every reader's view of the jam; a key of awaited locks alone would
/// report it once per reader.
#[test]
fn reader_heavy_cycle_is_reported_once_per_lock_set() {
    let (witnesses, handler) = collector();
    let tracker = Tracker::new(TrackerConfig::default().with_handler(handler));
    let shared = Arc::new(TrackedRwLock::with_tracker(&tracker, ()));
    let b1 = Arc::new(TrackedMutex::with_tracker(&tracker, ()));
    let b2 = Arc::new(TrackedMutex::with_tracker(&tracker, ()));
    let all_locks = [shared.id(), b1.id(), b2.id()];

    let barrier = Arc::new(Barrier::new(3));
    let (s0, b1w, b2w, bar) = (
        Arc::clone(&shared),
        Arc::clone(&b1),
        Arc::clone(&b2),
        Arc::clone(&barrier),
    );
    let writer = tracker.spawn("stuck writer", move || {
        let g1 = b1w.lock().unwrap();
        let g2 = b2w.lock().unwrap();
        bar.wait();
        // Registers the write-wait on `shared` first; the readers sleep
        // so both of their cycle-closing edges land afterwards and the
        // second one exercises the dedup path.
        let _ = s0.try_write_for(Duration::from_secs(2));
        drop((g2, g1));
    });
    let readers: Vec<_> = [Arc::clone(&b1), Arc::clone(&b2)]
        .into_iter()
        .enumerate()
        .map(|(i, blocker)| {
            let s = Arc::clone(&shared);
            let bar = Arc::clone(&barrier);
            tracker.spawn(&format!("reader-{i}"), move || {
                let held = s.read().unwrap();
                bar.wait();
                std::thread::sleep(Duration::from_millis(200));
                let _ = blocker.try_lock_for(Duration::from_secs(2));
                drop(held);
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }

    let seen = witnesses.lock().unwrap();
    assert_eq!(
        seen.len(),
        1,
        "one jammed lock set, one witness — not one per reader: {seen:?}"
    );
    let w = &seen[0];
    assert_eq!(w.len(), 2, "each view of the jam is a two-thread cycle");
    assert_cyclic(w);
    for lock in sorted_locks(w) {
        assert!(all_locks.contains(&lock));
    }
    let reader = w
        .components
        .iter()
        .find(|c| {
            c.thread_name
                .as_deref()
                .is_some_and(|n| n.starts_with("reader"))
        })
        .expect("a reader is in the cycle");
    assert_eq!(reader.holding_modes, vec![AcquireMode::Shared]);
    assert_eq!(reader.waiting_mode, AcquireMode::Exclusive);
    let writer_side = w
        .components
        .iter()
        .find(|c| c.thread_name.as_deref() == Some("stuck writer"))
        .expect("the writer is in the cycle");
    assert_eq!(writer_side.waiting_for, shared.id());
    assert_eq!(writer_side.waiting_mode, AcquireMode::Exclusive);
    assert_eq!(tracker.obs().counters().snapshot().wfg_cycles_detected, 1);
}

/// Re-acquiring a held (non-reentrant) std mutex is a self-deadlock;
/// the graph includes self-loops, so the witness is a 1-cycle and the
/// timeout converts the hang into a recoverable `Err`.
#[test]
fn self_deadlock_is_a_one_cycle() {
    let (witnesses, handler) = collector();
    let tracker = Tracker::new(TrackerConfig::default().with_handler(handler));
    let m = TrackedMutex::with_tracker(&tracker, ());

    let held = m.lock().unwrap();
    let again = m.try_lock_for(Duration::from_millis(100));
    assert!(again.is_err(), "self-acquire must time out, not succeed");
    drop(held);

    let seen = witnesses.lock().unwrap();
    assert_eq!(seen.len(), 1, "self-loop is a reportable cycle: {seen:?}");
    let w = &seen[0];
    assert_eq!(w.len(), 1);
    assert_eq!(w.components[0].waiting_for, m.id());
    assert!(w.components[0].holding.contains(&m.id()));
    let snap = tracker.obs().counters().snapshot();
    assert_eq!(snap.wfg_cycles_detected, 1);
    assert_eq!(snap.lock_timeouts, 1);
}

/// In-memory sink capturing the raw event stream, so tests can assert
/// on exactly what a live execution emits.
#[derive(Default)]
struct CaptureSink {
    events: Vec<Event>,
}

impl EventSink for CaptureSink {
    fn on_event(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

/// A panicking holder poisons the mutex; the next locker recovers via
/// `PoisonError::into_inner`, the recovery is counted, and the event
/// stream stays balanced — every acquire has its release, even the one
/// emitted mid-unwind.
#[test]
fn poisoned_mutex_recovers_with_balanced_events() {
    let capture = Arc::new(Mutex::new(CaptureSink::default()));
    let dyn_sink: Arc<Mutex<dyn EventSink>> = Arc::clone(&capture) as _;
    let (witnesses, handler) = collector();
    let tracker = Tracker::new(
        TrackerConfig::default()
            .with_handler(handler)
            .with_sink(SinkHandle::single(dyn_sink)),
    );
    let m = Arc::new(TrackedMutex::with_tracker(&tracker, 7i64));

    let poisoner = Arc::clone(&m);
    let t = tracker.spawn("poisoner", move || {
        let _held = poisoner.lock().unwrap();
        panic!("poison while holding");
    });
    assert!(t.join().is_err(), "the child really panicked");
    assert!(m.is_poisoned());

    let Err(recovered) = m.lock() else {
        panic!("poisoned lock must report Err");
    };
    let guard = recovered.into_inner();
    assert_eq!(*guard, 7, "data survives the poisoned holder");
    drop(guard);

    assert!(witnesses.lock().unwrap().is_empty());
    let snap = tracker.obs().counters().snapshot();
    assert_eq!(snap.poisoned_recovered, 1);

    // The recovering release waits for a full run; the seal hands it out.
    tracker.seal();
    let events = &capture.lock().unwrap().events;
    let acquires = events
        .iter()
        .filter(|e| matches!(&e.kind, EventKind::Acquire { lock, .. } if *lock == m.id()))
        .count();
    let releases = events
        .iter()
        .filter(|e| matches!(&e.kind, EventKind::Release { lock, .. } if *lock == m.id()))
        .count();
    assert_eq!(acquires, 2, "panicking + recovering acquisitions");
    assert_eq!(
        acquires, releases,
        "unwind and recovery both emit their releases"
    );
}

/// A producer/consumer handshake over a tracked condvar is deadlock
/// free, and the event stream records the communication: a `CondWait`
/// naming both the condvar and its released lock, the `CondNotify`,
/// and balanced acquire/release pairs (the wait's release and
/// reacquisition are implied by `CondWait`, exactly as in the virtual
/// runtime, so no extra `Acquire`/`Release` events appear).
#[test]
fn condvar_handshake_is_quiet_with_balanced_events() {
    let capture = Arc::new(Mutex::new(CaptureSink::default()));
    let dyn_sink: Arc<Mutex<dyn EventSink>> = Arc::clone(&capture) as _;
    let (witnesses, handler) = collector();
    let tracker = Tracker::new(
        TrackerConfig::default()
            .with_handler(handler)
            .with_sink(SinkHandle::single(dyn_sink)),
    );
    let state = Arc::new((
        TrackedMutex::with_tracker(&tracker, 0usize),
        TrackedCondvar::with_tracker(&tracker),
    ));

    // The consumer holds the lock across the barrier, so the producer's
    // first acquisition can only succeed once the consumer has parked —
    // at least one real wait/notify round is guaranteed.
    let barrier = Arc::new(Barrier::new(2));
    let (producer_state, bar) = (Arc::clone(&state), Arc::clone(&barrier));
    let producer = tracker.spawn("producer", move || {
        bar.wait();
        for _ in 0..3 {
            *producer_state.0.lock().unwrap() += 1;
            producer_state.1.notify_one();
        }
    });
    let (queue, cv) = &*state;
    let held = queue.lock().unwrap();
    barrier.wait();
    let produced = cv.wait_while(held, |produced| *produced < 3).unwrap();
    assert_eq!(*produced, 3);
    drop(produced);
    producer.join().unwrap();

    assert!(
        witnesses.lock().unwrap().is_empty(),
        "a plain handshake must not be flagged"
    );
    // The last release waits for a full run; the seal hands it out.
    tracker.seal();
    let events = &capture.lock().unwrap().events;
    assert!(
        events.iter().any(|e| matches!(
            &e.kind,
            EventKind::CondWait { condvar, lock, .. }
                if *condvar == cv.id() && *lock == queue.id()
        )),
        "the wait names both the condvar and the released lock"
    );
    assert!(
        events.iter().any(|e| matches!(
            &e.kind,
            EventKind::CondNotify { condvar, all: false, .. } if *condvar == cv.id()
        )),
        "notify_one lands in the stream"
    );
    let acquires = events
        .iter()
        .filter(|e| matches!(&e.kind, EventKind::Acquire { lock, .. } if *lock == queue.id()))
        .count();
    let releases = events
        .iter()
        .filter(|e| matches!(&e.kind, EventKind::Release { lock, .. } if *lock == queue.id()))
        .count();
    assert_eq!(acquires, releases, "condvar waits keep the stream balanced");
}

/// A thread parked in a condvar wait still holds its *outer* locks, and
/// its pending reacquisition is a real wait-for edge: when the only
/// thread that could deliver the notification blocks on one of the
/// waiter's outer locks, that is a deadlock, and the detector walks it
/// straight through the parked thread.
#[test]
fn parked_cond_waiter_participates_in_cycle() {
    let (witnesses, handler) = collector();
    let tracker = Tracker::new(TrackerConfig::default().with_handler(handler));
    let outer = Arc::new(TrackedMutex::with_tracker(&tracker, ()));
    let state = Arc::new((
        TrackedMutex::with_tracker(&tracker, false),
        TrackedCondvar::with_tracker(&tracker),
    ));
    let expected = {
        let mut ids = vec![outer.id(), state.0.id()];
        ids.sort();
        ids
    };

    let barrier = Arc::new(Barrier::new(2));
    let (o1, s1, bar) = (Arc::clone(&outer), Arc::clone(&state), Arc::clone(&barrier));
    let waiter = tracker.spawn("parked waiter", move || {
        let held = o1.lock().unwrap();
        let inner = s1.0.lock().unwrap();
        bar.wait();
        // Parks holding `outer`; the reacquire edge on the inner lock
        // stays registered for the whole wait.
        let inner = s1.1.wait_while(inner, |done| !*done).unwrap();
        drop(inner);
        drop(held);
    });
    let (o2, s2) = (Arc::clone(&outer), Arc::clone(&state));
    let notifier = tracker.spawn("blocked notifier", move || {
        barrier.wait();
        // Succeeds only once the waiter has parked and given the inner
        // lock up.
        let mut inner = s2.0.lock().unwrap();
        // Deadlock: the waiter cannot run again until this thread frees
        // the inner lock, and this thread wants the waiter's `outer`.
        let jammed = o2.try_lock_for(Duration::from_secs(2));
        assert!(jammed.is_err(), "the cycle must hold until the timeout");
        drop(jammed);
        *inner = true;
        s2.1.notify_one();
        drop(inner);
    });
    waiter.join().unwrap();
    notifier.join().unwrap();

    let seen = witnesses.lock().unwrap();
    assert_eq!(seen.len(), 1, "parked-waiter cycle: {seen:?}");
    let w = &seen[0];
    assert_eq!(w.len(), 2);
    assert_eq!(sorted_locks(w), expected);
    assert_cyclic(w);
    let parked = w
        .components
        .iter()
        .find(|c| c.thread_name.as_deref() == Some("parked waiter"))
        .expect("the parked thread is a witness component");
    assert_eq!(parked.waiting_for, state.0.id());
    assert!(parked.holding.contains(&outer.id()));
    assert_eq!(tracker.obs().counters().snapshot().wfg_cycles_detected, 1);
}

/// The crate's documented exit code and the CLI's taxonomy must agree —
/// CI asserts on the numeric value.
#[test]
fn live_deadlock_exit_code_matches_cli_taxonomy() {
    assert_eq!(
        df_lock::LIVE_DEADLOCK_EXIT_CODE,
        df_cli::exit_code::LIVE_DEADLOCK
    );
}

/// Per-thread lock order: acquire `first`, then (under a barrier, so
/// all first-acquisitions happen before any second) try `second`.
fn run_contended(specs: &[(usize, usize)]) -> (Vec<DeadlockWitness>, RelationBuilder) {
    let builder = Arc::new(Mutex::new(RelationBuilder::new()));
    let dyn_sink: Arc<Mutex<dyn EventSink>> = Arc::clone(&builder) as _;
    let (witnesses, handler) = collector();
    let tracker = Tracker::new(
        TrackerConfig::default()
            .with_handler(handler)
            .with_sink(SinkHandle::single(dyn_sink)),
    );
    let locks: Vec<_> = (0..3)
        .map(|_| Arc::new(TrackedMutex::with_tracker(&tracker, ())))
        .collect();

    // Round 1 — sequential: record every thread's nesting order without
    // contention, so the relation holds the dependencies Phase I needs
    // (a blocked acquire emits no Acquire event).
    for (i, &(first, second)) in specs.iter().enumerate() {
        let (f, s) = (Arc::clone(&locks[first]), Arc::clone(&locks[second]));
        tracker
            .spawn(&format!("warmup-{i}"), move || {
                let outer = f.lock().unwrap();
                let inner = s.lock().unwrap();
                drop((inner, outer));
            })
            .join()
            .unwrap();
    }

    // Round 2 — contended: hold `first` across the barrier, then try
    // `second`. Timeouts keep the run terminating whether or not the
    // generated orders can deadlock.
    let barrier = Arc::new(Barrier::new(specs.len()));
    let handles: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(i, &(first, second))| {
            let (f, s) = (Arc::clone(&locks[first]), Arc::clone(&locks[second]));
            let bar = Arc::clone(&barrier);
            tracker.spawn(&format!("contender-{i}"), move || {
                let held = f.try_lock_for(Duration::from_millis(500)).ok();
                bar.wait();
                if held.is_some() {
                    let _ = s.try_lock_for(Duration::from_millis(100));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Sealing delivers the thread bindings to the builder.
    tracker.seal();
    let collected = witnesses.lock().unwrap().clone();
    let relation_builder = std::mem::take(&mut *builder.lock().unwrap());
    (collected, relation_builder)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Soundness against Phase I: any cycle the live detector reports
    /// on a native execution must also be found by iGoodlock in the
    /// relation built from that same execution's event stream.
    #[test]
    fn live_witnesses_agree_with_igoodlock(
        specs in prop::collection::vec(
            (0usize..3, 0usize..3)
                .prop_filter_map("lock order needs two distinct locks", |(a, b)| {
                    (a != b).then_some((a, b))
                }),
            2..4,
        )
    ) {
        let (witnesses, builder) = run_contended(&specs);
        let relation = builder.finish().expect("the tracker binds every thread");
        let cycles = igoodlock(&relation, &IGoodlockOptions::default());
        let cycle_lock_sets: Vec<Vec<ObjId>> = cycles
            .iter()
            .map(|c| {
                let mut locks = c.locks();
                locks.sort();
                locks
            })
            .collect();
        for w in &witnesses {
            let live = sorted_locks(w);
            prop_assert!(
                cycle_lock_sets.contains(&live),
                "live witness {live:?} has no matching iGoodlock cycle in {cycle_lock_sets:?}"
            );
        }
    }
}
