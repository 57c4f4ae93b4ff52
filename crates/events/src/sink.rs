//! Streaming event observation.
//!
//! Algorithm 2 of the paper computes the lock dependency relation *during*
//! execution; an [`EventSink`] is the hook that makes that possible here.
//! Execution substrates (the virtual runtime and the real-thread sessions)
//! hand an attached sink every recorded event, in trace order, so
//! observers — an incremental relation builder, an on-disk spill writer —
//! can consume the event stream online instead of requiring the full
//! in-memory `Vec<Event>` after the fact.

use std::sync::{Arc, Mutex, PoisonError};

use crate::{Event, Trace};

/// An online observer of one execution's event stream.
///
/// Substrates deliver events in trace order with the exact sequence
/// numbers the recorded [`Trace`] would carry, so a sink sees the same
/// stream whether or not the substrate also materializes the trace.
pub trait EventSink: Send {
    /// Called once per recorded event, in execution (sequence) order.
    fn on_event(&mut self, event: &Event);

    /// Called with a run of consecutive events, in sequence order — the
    /// form substrates deliver in. The default hands each to
    /// [`EventSink::on_event`]; a sink with a per-call cost (a lock, a
    /// write) overrides it to pay that cost once per run.
    fn on_events(&mut self, events: &[Event]) {
        for event in events {
            self.on_event(event);
        }
    }

    /// Called once when the execution ends. `trace` carries the final
    /// object table and thread bindings; its event vector is empty when
    /// the substrate ran without trace recording, and always when a
    /// decoder replays an artifact's footer.
    fn on_finish(&mut self, trace: &Trace) {
        let _ = trace;
    }
}

/// A clonable fan-out handle over zero or more shared [`EventSink`]s.
///
/// This is the form substrates carry in their run configuration: cheap to
/// clone, `None`-like when empty (the common non-streaming case costs one
/// `is_empty` check per delivery), and shareable so the caller can keep a
/// typed handle to the same sink and harvest its state after the run.
#[derive(Clone, Default)]
pub struct SinkHandle {
    sinks: Vec<Arc<Mutex<dyn EventSink>>>,
}

impl SinkHandle {
    /// A handle with no sinks attached.
    pub fn none() -> Self {
        Self::default()
    }

    /// A handle over one shared sink.
    pub fn single(sink: Arc<Mutex<dyn EventSink>>) -> Self {
        SinkHandle { sinks: vec![sink] }
    }

    /// Returns this handle with `sink` attached in addition.
    pub fn with(mut self, sink: Arc<Mutex<dyn EventSink>>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Whether any sink is attached.
    pub fn is_attached(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// Delivers a run of consecutive events to every attached sink, in
    /// attachment order, locking each sink once for the whole run
    /// ([`EventSink::on_events`]). A substrate with one event passes
    /// `std::slice::from_ref(&event)`.
    ///
    /// A sink whose callback panics unwinds the caller: the sinks after
    /// it miss the rest of that run. Its mutex is left poisoned, and the
    /// handle recovers the guard instead of propagating the panic, so
    /// later runs — and the end-of-run seal — still reach every sink and
    /// a panicking trial still produces an analyzable trace.
    pub fn emit(&self, events: &[Event]) {
        for sink in &self.sinks {
            sink.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .on_events(events);
        }
    }

    /// Announces the end of the execution to every attached sink.
    pub fn finish(&self, trace: &Trace) {
        for sink in &self.sinks {
            sink.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .on_finish(trace);
        }
    }
}

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkHandle")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, ThreadId};

    #[derive(Default)]
    struct CountingSink {
        events: u64,
        finished: bool,
    }

    impl EventSink for CountingSink {
        fn on_event(&mut self, _event: &Event) {
            self.events += 1;
        }

        fn on_finish(&mut self, _trace: &Trace) {
            self.finished = true;
        }
    }

    #[test]
    fn empty_handle_is_detached_and_inert() {
        let h = SinkHandle::none();
        assert!(!h.is_attached());
        h.emit(&[Event::new(0, ThreadId::new(0), EventKind::Yield)]);
        h.finish(&Trace::new());
    }

    #[test]
    fn poisoned_sink_still_receives_events_and_finish() {
        let sink = Arc::new(Mutex::new(CountingSink::default()));
        {
            // Poison the sink's mutex by panicking while holding it, the
            // way a buggy sink callback would.
            let poisoner = Arc::clone(&sink);
            let _ = std::thread::spawn(move || {
                let _guard = poisoner.lock().unwrap();
                panic!("sink bug");
            })
            .join();
        }
        assert!(sink.is_poisoned());
        let h = SinkHandle::single(sink.clone() as Arc<Mutex<dyn EventSink>>);
        h.emit(&[Event::new(0, ThreadId::new(0), EventKind::Yield)]);
        h.finish(&Trace::new());
        let s = sink.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(s.events, 1);
        assert!(s.finished);
    }

    #[test]
    fn fan_out_reaches_every_sink() {
        let a = Arc::new(Mutex::new(CountingSink::default()));
        let b = Arc::new(Mutex::new(CountingSink::default()));
        let h = SinkHandle::single(a.clone() as Arc<Mutex<dyn EventSink>>)
            .with(b.clone() as Arc<Mutex<dyn EventSink>>);
        assert!(h.is_attached());
        h.emit(&[Event::new(0, ThreadId::new(0), EventKind::Yield)]);
        h.emit(&[
            Event::new(1, ThreadId::new(0), EventKind::Yield),
            Event::new(2, ThreadId::new(0), EventKind::Yield),
        ]);
        h.finish(&Trace::new());
        for sink in [a, b] {
            let s = sink.lock().unwrap();
            assert_eq!(s.events, 3);
            assert!(s.finished);
        }
    }
}
