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

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use df_events::{read_trace_bytes, EventKind, Label, ObjId, SpillConfig, ThreadId, TraceFormat};
use df_lock::{TrackedMutex, TrackedRwLock, Tracker, TrackerConfig};

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
    for ring in [0, 4] {
        let buf = SharedBuf::default();
        let spill = SpillConfig::with_format(TraceFormat::Binary).with_ring(ring);
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
        assert_eq!(spilled.events(), recorded.events(), "ring {ring}");

        let seen = check_acquires_against_replay(recorded.events());
        for shape in ["acquire", "acquire@2", "reacquire", "try ok", "try failed"] {
            assert!(
                seen.get(shape).copied().unwrap_or(0) > 0,
                "no {shape} event"
            );
        }
    }
}
