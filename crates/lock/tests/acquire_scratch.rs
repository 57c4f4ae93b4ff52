//! The tracker builds every `Acquire` event's `held` and `context` in
//! buffers it reuses from one acquisition to the next. This program
//! mixes three-deep nesting, an rwlock read re-entry (a `Reacquire`,
//! which leaves the buffers unused) and failed and successful `try_lock`s
//! between acquisitions, then checks that
//!
//! * the spilled events equal the recorded trace's, and
//! * every `Acquire` carries exactly the locks and sites the thread held
//!   at that point, replayed from the events before it — a stale buffer
//!   leaking into a later event fails this.
//!
//! The same replay checks a contended stream: four threads taking
//! ordered pairs of shared mutexes and rwlocks, whose events must stay
//! gapless and in the real per-lock order.

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use df_events::{
    read_trace_bytes, AcquireMode, Event, EventKind, EventSink, Label, ObjId, SinkHandle,
    SpillConfig, ThreadId, TraceFormat,
};
use df_lock::{DeadlockHandler, TrackedMutex, TrackedRwLock, Tracker, TrackerConfig};

#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn run_program(tracker: &Tracker) {
    let a = TrackedMutex::with_tracker(tracker, ());
    let b = TrackedMutex::with_tracker(tracker, ());
    let c = TrackedMutex::with_tracker(tracker, ());
    let r = TrackedRwLock::with_tracker(tracker, ());

    // Three deep, then the innermost lock alone: its held set is empty
    // although the buffers last carried two locks.
    {
        let _ga = a.lock().unwrap();
        let _gb = b.lock().unwrap();
        let _gc = c.lock().unwrap();
    }
    drop(c.lock().unwrap());

    // A read re-entry between acquisitions.
    {
        let _ga = a.lock().unwrap();
        let _r1 = r.read().unwrap();
        let _r2 = r.read().unwrap();
        let _gb = b.lock().unwrap();
    }
    drop(b.lock().unwrap());

    // A failed try (the lock is this thread's own) and a successful one.
    {
        let _ga = a.lock().unwrap();
        assert!(a.try_lock().is_err());
        let _gb = b.try_lock().unwrap();
        let _gc = c.lock().unwrap();
    }
    drop(c.lock().unwrap());

    // The same shapes on a second thread, whose stacks start empty.
    let (a, b, r) = (Arc::new(a), Arc::new(b), Arc::new(r));
    tracker
        .spawn("second", move || {
            let _gb = b.lock().unwrap();
            let _r1 = r.read().unwrap();
            let _r2 = r.read().unwrap();
            assert!(b.try_lock().is_err());
            let _ga = a.lock().unwrap();
        })
        .join()
        .unwrap();
}

/// Replays the trace's lock stack per thread and checks every
/// `Acquire` against it; returns how many events of each checked shape
/// the program produced.
fn check_acquires_against_replay(events: &[df_events::Event]) -> HashMap<&'static str, usize> {
    let mut stacks: HashMap<ThreadId, Vec<(ObjId, Label)>> = HashMap::new();
    let mut seen: HashMap<&'static str, usize> = HashMap::new();
    for event in events {
        let stack = stacks.entry(event.thread).or_default();
        match &event.kind {
            EventKind::Acquire {
                lock,
                site,
                held,
                context,
                ..
            } => {
                let want_held: Vec<ObjId> = stack.iter().map(|&(l, _)| l).collect();
                let mut want_context: Vec<Label> = stack.iter().map(|&(_, s)| s).collect();
                want_context.push(*site);
                assert_eq!(held, &want_held, "held of event {}", event.seq);
                assert_eq!(context, &want_context, "context of event {}", event.seq);
                let shape = if held.len() == 2 {
                    "acquire@2"
                } else {
                    "acquire"
                };
                *seen.entry(shape).or_default() += 1;
                stack.push((*lock, *site));
            }
            EventKind::Reacquire { lock, site } => {
                *seen.entry("reacquire").or_default() += 1;
                stack.push((*lock, *site));
            }
            EventKind::TryAcquire {
                lock,
                site,
                acquired,
                ..
            } => {
                if *acquired {
                    *seen.entry("try ok").or_default() += 1;
                    stack.push((*lock, *site));
                } else {
                    *seen.entry("try failed").or_default() += 1;
                }
            }
            EventKind::Release { lock, .. } | EventKind::Rerelease { lock, .. } => {
                let pos = stack.iter().rposition(|&(l, _)| l == *lock).expect("held");
                stack.remove(pos);
            }
            _ => {}
        }
    }
    seen
}

#[test]
fn reused_acquire_buffers_never_leak_into_later_events() {
    let buf = SharedBuf::default();
    let spill = SpillConfig::with_format(TraceFormat::Binary);
    let (config, sink) = TrackerConfig::default()
        .with_record_events(true)
        .with_spill(buf.clone(), &spill)
        .unwrap();
    let tracker = Tracker::new(config);
    run_program(&tracker);
    tracker.seal();
    sink.lock().unwrap().close().unwrap();

    let recorded = tracker.trace();
    let spilled = read_trace_bytes(&buf.0.lock().unwrap()).unwrap();
    assert_eq!(spilled.events(), recorded.events());

    let seen = check_acquires_against_replay(recorded.events());
    for shape in ["acquire", "acquire@2", "reacquire", "try ok", "try failed"] {
        assert!(
            seen.get(shape).copied().unwrap_or(0) > 0,
            "no {shape} event"
        );
    }
}

/// Keeps every delivered event, in delivery order.
#[derive(Default)]
struct Collect(Vec<Event>);

impl EventSink for Collect {
    fn on_event(&mut self, event: &Event) {
        self.0.push(event.clone());
    }
}

/// One of the stress test's shared locks: even slots are mutexes, odd
/// slots rwlocks.
enum Shared {
    Mutex(TrackedMutex<u64>),
    RwLock(TrackedRwLock<u64>),
}

const STRESS_THREADS: u64 = 4;
const STRESS_LOCKS: usize = 8;
const STRESS_ROUNDS: u64 = 3;
const STRESS_PAIRS: usize = 1_000;

/// Takes `locks[lo]` then `locks[hi]` nested, reading an rwlock when
/// `read`, and releases them in reverse.
fn take_pair(locks: &[Shared], lo: usize, hi: usize, read: bool) {
    let hold = |i: usize, then: &dyn Fn()| match &locks[i] {
        Shared::Mutex(m) => {
            let mut g = m.lock().unwrap();
            *g += 1;
            then();
        }
        Shared::RwLock(l) if read => {
            let _g = l.read().unwrap();
            then();
        }
        Shared::RwLock(l) => {
            let mut g = l.write().unwrap();
            *g += 1;
            then();
        }
    };
    hold(lo, &|| hold(hi, &|| {}));
}

/// Checks per-lock exclusion in the stream: replayed in sequence order,
/// no lock is taken exclusively while another thread holds it, nor
/// shared while another thread holds it exclusively.
fn check_exclusion(events: &[Event]) {
    let mut holders: HashMap<ObjId, Vec<(ThreadId, AcquireMode)>> = HashMap::new();
    for event in events {
        let taken = match &event.kind {
            EventKind::Acquire { lock, mode, .. } => Some((*lock, *mode)),
            EventKind::TryAcquire {
                lock,
                acquired: true,
                mode,
                ..
            } => Some((*lock, *mode)),
            EventKind::Release { lock, .. } | EventKind::Rerelease { lock, .. } => {
                let held = holders.get_mut(lock).expect("released lock is held");
                let pos = held
                    .iter()
                    .rposition(|&(t, _)| t == event.thread)
                    .expect("releasing thread holds the lock");
                held.remove(pos);
                None
            }
            _ => None,
        };
        if let Some((lock, mode)) = taken {
            let held = holders.entry(lock).or_default();
            let conflict = held
                .iter()
                .find(|&&(t, m)| t != event.thread && (mode.is_exclusive() || m.is_exclusive()));
            assert!(
                conflict.is_none(),
                "event {} takes {lock} {mode:?} while {:?} holds it",
                event.seq,
                conflict
            );
            held.push((event.thread, mode));
        }
    }
}

#[test]
fn contended_stream_stays_gapless_and_in_lock_order() {
    let collected = Arc::new(Mutex::new(Collect::default()));
    let witnesses = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&witnesses);
    let tracker = Tracker::new(
        TrackerConfig::default()
            .with_sink(SinkHandle::single(collected.clone()))
            .with_handler(DeadlockHandler::Callback(Arc::new(move |w| {
                seen.lock().unwrap().push(w.clone());
            }))),
    );
    let locks: Arc<Vec<Shared>> = Arc::new(
        (0..STRESS_LOCKS)
            .map(|i| {
                if i % 2 == 0 {
                    Shared::Mutex(TrackedMutex::with_tracker(&tracker, 0))
                } else {
                    Shared::RwLock(TrackedRwLock::with_tracker(&tracker, 0))
                }
            })
            .collect(),
    );
    for round in 0..STRESS_ROUNDS {
        let workers: Vec<_> = (0..STRESS_THREADS)
            .map(|t| {
                let locks = Arc::clone(&locks);
                tracker.spawn(&format!("stress-{round}-{t}"), move || {
                    let mut state =
                        (round * STRESS_THREADS + t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut next = move || {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        (state >> 33) as usize
                    };
                    for _ in 0..STRESS_PAIRS {
                        let (x, y) = (next() % STRESS_LOCKS, next() % STRESS_LOCKS);
                        if x != y {
                            take_pair(&locks, x.min(y), x.max(y), next() % 2 == 0);
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
    }
    tracker.seal();

    assert!(
        witnesses.lock().unwrap().is_empty(),
        "ordered pairs never deadlock"
    );
    let events = std::mem::take(&mut collected.lock().unwrap().0);
    for (i, event) in events.iter().enumerate() {
        assert_eq!(event.seq, i as u64, "sequence numbers are gapless");
    }
    check_exclusion(&events);
    let seen = check_acquires_against_replay(&events);
    assert!(seen["acquire"] > 0);
}
