//! Observability layer for the DeadlockFuzzer pipeline.
//!
//! The paper's evaluation (§5) is all measurement — reproduction
//! probability, thrash counts (§2.3), yield savings (§4) — so every layer
//! of this workspace reports into the shared handle defined here:
//!
//! * [`Counters`] — a lock-free registry of campaign counters (acquires
//!   observed, dependency edges, cycles found, pauses, thrashes, yields,
//!   trial retries, injected faults);
//! * [`PhaseTimings`] — per-phase wall-clock spans;
//! * [`JsonlSink`] — a JSONL stream of scheduler decisions
//!   ([`TraceEvent`]): pause/unpause/thrash/yield and `checkRealDeadlock`
//!   verdicts, with thread names and object abstractions attached.
//!
//! The split is deliberate: trace lines carry logical data only and are
//! byte-identical across seeded virtual-runtime runs (the golden-trace
//! determinism test relies on this), while wall-clock data lives in the
//! [`Metrics`] document.
//!
//! # Example
//!
//! ```
//! use df_obs::{Obs, TraceEvent};
//!
//! let obs = Obs::with_memory_sink();
//! obs.counters().add_acquires_observed(1);
//! obs.emit(&TraceEvent::PhaseStart { phase: "phase1".into() });
//! assert_eq!(obs.trace_contents().unwrap().lines().count(), 1);
//! assert_eq!(obs.metrics("demo").counters.acquires_observed, 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod counters;
mod metrics;
mod sink;
mod timing;

use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex};

pub use counters::{CounterSnapshot, Counters};
pub use metrics::{Metrics, METRICS_SCHEMA};
pub use sink::{JsonlSink, TraceEvent};
pub use timing::{PhaseSpan, PhaseTimings};

/// The shared observability handle threaded through every layer.
///
/// Cloning is cheap and shares the underlying counters, timings and sink
/// (the clone in a `RunConfig` and the clone in an `ActiveConfig` report
/// into the same registry). The default handle has no sink: counting is
/// always on (relaxed atomic adds), tracing is opt-in.
#[derive(Clone, Default)]
pub struct Obs {
    counters: Arc<Counters>,
    timings: Arc<PhaseTimings>,
    sink: Option<Arc<Mutex<JsonlSink>>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("counters", &self.counters.snapshot())
            .field("sink", &self.sink.as_ref().map(|s| s.lock().unwrap()))
            .finish()
    }
}

impl Obs {
    /// A handle with fresh counters and no trace sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle whose sink accumulates JSONL in memory; read back with
    /// [`Obs::trace_contents`].
    pub fn with_memory_sink() -> Self {
        Obs {
            sink: Some(Arc::new(Mutex::new(JsonlSink::memory()))),
            ..Obs::default()
        }
    }

    /// A handle whose sink streams JSONL to the file at `path`.
    pub fn with_file_sink(path: &Path) -> std::io::Result<Self> {
        Ok(Obs {
            sink: Some(Arc::new(Mutex::new(JsonlSink::file(path)?))),
            ..Obs::default()
        })
    }

    /// The shared counter registry.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The shared phase timings.
    pub fn timings(&self) -> &PhaseTimings {
        &self.timings
    }

    /// Whether a trace sink is attached (lets hot paths skip building
    /// event payloads when nobody listens).
    pub fn traces(&self) -> bool {
        self.sink.is_some()
    }

    /// Streams one scheduler decision to the sink, if any.
    pub fn emit(&self, event: &TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.lock().expect("sink lock").emit(event);
        }
    }

    /// Flushes the sink's buffered lines, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.lock().expect("sink lock").flush();
        }
    }

    /// The accumulated JSONL of a memory sink (`None` for file sinks or
    /// when no sink is attached).
    pub fn trace_contents(&self) -> Option<String> {
        self.sink
            .as_ref()
            .and_then(|s| s.lock().expect("sink lock").contents())
    }

    /// A detached shard for one parallel worker: fresh counters and
    /// timings, and a memory sink iff this handle traces, so a trial
    /// running on another thread records into private state that can be
    /// folded back with [`Obs::absorb`] in deterministic trial order.
    pub fn fork_shard(&self) -> Obs {
        if self.traces() {
            Obs::with_memory_sink()
        } else {
            Obs::new()
        }
    }

    /// Folds a detached shard (see [`Obs::fork_shard`]) into this
    /// handle: counter deltas and timing spans are added, and the
    /// shard's buffered trace lines are appended verbatim to this
    /// handle's sink. Callers absorb shards in trial order, which keeps
    /// the merged trace byte-identical to a sequential run.
    pub fn absorb(&self, shard: &Obs) {
        self.counters.merge(&shard.counters.snapshot());
        self.timings.merge(&shard.timings.snapshot());
        if let Some(sink) = &self.sink {
            if let Some(text) = shard.trace_contents() {
                sink.lock().expect("sink lock").append_raw(&text);
            }
        }
    }

    /// Assembles the current [`Metrics`] document for `program`.
    pub fn metrics(&self, program: &str) -> Metrics {
        Metrics {
            counters: self.counters.snapshot(),
            phases: self.timings.snapshot(),
            ..Metrics::new(program)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_counters_and_sink() {
        let obs = Obs::with_memory_sink();
        let clone = obs.clone();
        clone.counters().add_thrash_events(2);
        clone.emit(&TraceEvent::PhaseEnd {
            phase: "phase2".into(),
        });
        assert_eq!(obs.counters().snapshot().thrash_events, 2);
        assert_eq!(obs.trace_contents().unwrap().lines().count(), 1);
    }

    #[test]
    fn default_handle_counts_but_does_not_trace() {
        let obs = Obs::new();
        assert!(!obs.traces());
        obs.emit(&TraceEvent::PhaseStart {
            phase: "phase1".into(),
        });
        assert!(obs.trace_contents().is_none());
        obs.counters().add_yields_taken(1);
        assert_eq!(obs.metrics("x").counters.yields_taken, 1);
    }

    #[test]
    fn shards_match_the_parent_tracing_mode() {
        let tracing = Obs::with_memory_sink();
        assert!(tracing.fork_shard().traces());
        let quiet = Obs::new();
        assert!(!quiet.fork_shard().traces());
    }

    #[test]
    fn absorb_merges_counters_timings_and_trace_lines_in_order() {
        let parent = Obs::with_memory_sink();
        parent.emit(&TraceEvent::PhaseStart {
            phase: "phase2".into(),
        });
        let a = parent.fork_shard();
        a.counters().add_threads_paused(2);
        a.timings()
            .record("phase2", std::time::Duration::from_micros(5));
        a.emit(&TraceEvent::PhaseEnd { phase: "a".into() });
        let b = parent.fork_shard();
        b.counters().add_threads_paused(1);
        b.emit(&TraceEvent::PhaseEnd { phase: "b".into() });
        parent.absorb(&a);
        parent.absorb(&b);
        assert_eq!(parent.counters().snapshot().threads_paused, 3);
        let spans = parent.timings().snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].count, 1);
        let text = parent.trace_contents().unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("PhaseStart"));
        assert!(lines[1].contains("\"a\""), "{text}");
        assert!(lines[2].contains("\"b\""), "{text}");
    }

    #[test]
    fn absorb_into_a_sinkless_handle_keeps_counters() {
        let parent = Obs::new();
        let shard = parent.fork_shard();
        shard.counters().add_yields_taken(4);
        parent.absorb(&shard);
        assert_eq!(parent.counters().snapshot().yields_taken, 4);
        assert!(parent.trace_contents().is_none());
    }

    #[test]
    fn metrics_carry_schema_and_program() {
        let obs = Obs::new();
        obs.timings()
            .record("phase1", std::time::Duration::from_micros(10));
        let m = obs.metrics("figure1");
        assert_eq!(m.schema, METRICS_SCHEMA);
        assert_eq!(m.program, "figure1");
        assert_eq!(m.phases.len(), 1);
    }
}
