//! Trace I/O throughput bench: events/sec and bytes/event for the two
//! `df-trace` encodings (JSONL, binary) on the two write paths
//! (offline — a materialized [`Trace`] serialized in one pass — and
//! streamed — events fed one at a time through a [`SpillSink`], the
//! way a live run spills) and on the read path (an artifact decoded
//! back into a [`Trace`]). Before any numbers are taken the write
//! paths are cross-checked on a small workload: streamed output must be
//! byte-identical to offline output per format, and the binary artifact
//! must decode back to the exact source trace.
//!
//! Two more rows time `dfz analyze`'s way from a binary artifact to the
//! lock dependency relation, on a native-spill-sized artifact
//! ([`ANALYZE_EVENTS`] events), with the peak heap each path holds:
//! `analyze-binary` decodes the artifact through a 64 KiB read buffer
//! straight into a [`RelationBuilder`]; `analyze-binary-replay` is the
//! path it replaced, which read the whole file into memory, decoded it
//! into a [`Trace`] and replayed that through
//! [`LockDependencyRelation::from_trace`]. The two relations must be
//! identical.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use df_events::{
    decode_trace, read_trace_bytes, write_trace_as, EventKind, EventSink, Label, ObjId, ObjKind,
    SpillSink, ThreadId, Trace, TraceFormat,
};
use df_igoodlock::{LockDependencyRelation, RelationBuilder};
use serde::Serialize;

/// Events in the analyze rows' artifact: about what the native-spill
/// workload of the repository benchmark records.
pub const ANALYZE_EVENTS: u64 = 1_240_000;

/// Runs its argument once and returns the most heap bytes held at once
/// beyond those live when it started. The bench binary implements it
/// with a counting global allocator; without one, pass a probe that
/// returns 0.
pub type PeakHeap = fn(&mut dyn FnMut()) -> u64;

/// One `trace_io` row of `BENCH_igoodlock.json`.
#[derive(Clone, Debug, Serialize)]
pub struct TraceIoBenchRow {
    /// Synthetic workload name (encodes the event count).
    pub workload: String,
    /// Write path × encoding: `offline-jsonl`, `offline-binary`,
    /// `streamed-jsonl`, or `streamed-binary`; or an analyze path:
    /// `analyze-binary` or `analyze-binary-replay`.
    pub mode: String,
    /// Events written (analyzed, for the analyze rows).
    pub events: u64,
    /// Best-of-reps wall time, milliseconds: of the write, or of the
    /// whole way from the file to the relation for the analyze rows.
    pub wall_ms: f64,
    /// Events per second at the best-of-reps time.
    pub events_per_sec: f64,
    /// Artifact size in bytes (identical across reps by construction).
    pub bytes: u64,
    /// Bytes per event (artifact size over event count).
    pub bytes_per_event: f64,
    /// Best-of-reps wall time to decode the artifact back into a
    /// [`Trace`], milliseconds (the same artifact for both write paths
    /// of an encoding). For the analyze rows, where decoding is the
    /// whole run, the same as `wall_ms`.
    pub decode_ms: f64,
    /// Events decoded per second at the best-of-reps decode time.
    pub decode_events_per_sec: f64,
    /// Analyze rows only: the most heap bytes the path held at once.
    pub peak_heap_bytes: Option<u64>,
}

/// A `Write` target that counts and discards, so the bench measures
/// serialization — not the disk.
#[derive(Clone, Default)]
struct CountingSink(Arc<AtomicU64>);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Builds a deterministic synthetic trace of roughly `target_events`
/// events: `threads` workers cycling through nested acquire/release
/// pairs over `locks` locks, with a small set of interned sites — the
/// shape that favors the binary string table exactly as a real
/// workload would.
pub fn synthetic_trace(target_events: u64, threads: u32, locks: u32) -> Trace {
    let threads = threads.max(1);
    let locks = locks.max(2);
    let mut trace = Trace::new();
    let spawn_site = Label::new("bench.spawn:1");
    let mut thread_objs = Vec::new();
    for t in 0..threads {
        let obj = trace.objects_mut().create_named(
            ObjKind::Thread,
            spawn_site,
            None,
            Vec::new(),
            Some(format!("bench-worker-{t}")),
        );
        thread_objs.push(obj);
        trace.bind_thread(ThreadId::new(t), obj);
    }
    let lock_site = Label::new("bench.new_lock:2");
    let lock_ids: Vec<ObjId> = (0..locks)
        .map(|_| {
            trace
                .objects_mut()
                .create(ObjKind::Lock, lock_site, None, Vec::new())
        })
        .collect();
    let sites: Vec<Label> = (0..4)
        .map(|i| Label::new(&format!("bench.hot_loop:{}", 10 + i)))
        .collect();

    // Each iteration emits 4 events: outer acquire, inner acquire,
    // inner release, outer release.
    let iterations = target_events / 4;
    for i in 0..iterations {
        let thread = ThreadId::new((i % u64::from(threads)) as u32);
        let outer = lock_ids[(i % lock_ids.len() as u64) as usize];
        let inner = lock_ids[((i + 1) % lock_ids.len() as u64) as usize];
        let outer_site = sites[(i % sites.len() as u64) as usize];
        let inner_site = sites[((i + 1) % sites.len() as u64) as usize];
        trace.push(thread, EventKind::acquire(outer, outer_site));
        trace.push(thread, EventKind::acquire(inner, inner_site));
        trace.push(thread, EventKind::release(inner, inner_site));
        trace.push(thread, EventKind::release(outer, outer_site));
    }
    trace
}

/// Streams `trace` event-by-event through `sink`, the way a live run
/// feeds a spill sink, and seals it.
fn feed<S: EventSink>(sink: &mut S, trace: &Trace) {
    for event in trace.events() {
        sink.on_event(event);
    }
    sink.on_finish(trace);
}

/// Offline path: serialize the materialized trace in one pass.
/// Returns (wall seconds, artifact bytes).
fn run_offline(trace: &Trace, format: TraceFormat) -> Result<(f64, u64), String> {
    let counter = CountingSink::default();
    let start = Instant::now();
    write_trace_as(counter.clone(), trace, format).map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    Ok((wall, counter.0.load(Ordering::Relaxed)))
}

/// Streamed path: feed events one at a time through a [`SpillSink`],
/// timing until the seal lands.
fn run_streamed(trace: &Trace, format: TraceFormat) -> Result<(f64, u64), String> {
    let counter = CountingSink::default();
    let start = Instant::now();
    let mut sink = SpillSink::with_format(counter.clone(), format).map_err(|e| e.to_string())?;
    feed(&mut sink, trace);
    let (_events, bytes) = sink.close().map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();
    if bytes != counter.0.load(Ordering::Relaxed) {
        return Err(format!(
            "streamed {format} byte accounting diverged: sink says {bytes}, \
             writer saw {}",
            counter.0.load(Ordering::Relaxed)
        ));
    }
    Ok((wall, bytes))
}

/// Read path: decodes `trace`'s artifact back into a [`Trace`], timing
/// the decode only (the encoding and the drop stay outside). Returns
/// the best-of-`reps` wall seconds.
fn run_decode(trace: &Trace, format: TraceFormat, reps: u32) -> Result<f64, String> {
    let bytes = write_trace_as(Vec::new(), trace, format).map_err(|e| e.to_string())?;
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let decoded = read_trace_bytes(&bytes).map_err(|e| e.to_string())?;
        best = best.min(start.elapsed().as_secs_f64());
        if decoded.events().len() != trace.events().len() {
            return Err(format!("{format}: decoded event count diverges"));
        }
    }
    Ok(best)
}

/// `dfz analyze`'s path: the artifact through a 64 KiB read buffer,
/// decoded straight into a relation builder.
fn analyze_streamed(artifact: &[u8]) -> Result<LockDependencyRelation, String> {
    let input = io::BufReader::with_capacity(64 * 1024, artifact);
    let mut builder = RelationBuilder::new();
    decode_trace(input, TraceFormat::Binary, &mut builder).map_err(|e| e.to_string())?;
    builder.finish().map_err(|e| e.to_string())
}

/// The path `analyze_streamed` replaced: the whole artifact read into
/// memory, decoded into a [`Trace`], then replayed through the builder.
fn analyze_replayed(artifact: &[u8]) -> Result<LockDependencyRelation, String> {
    let bytes = artifact.to_vec();
    let trace = read_trace_bytes(&bytes).map_err(|e| e.to_string())?;
    Ok(LockDependencyRelation::from_trace(&trace))
}

/// The two analyze rows over one binary artifact of `events` events:
/// best-of-`reps` wall time, and the peak heap of one more run each.
fn analyze_rows(
    events: u64,
    reps: u32,
    peak_heap: PeakHeap,
) -> Result<Vec<TraceIoBenchRow>, String> {
    let artifact = write_trace_as(
        Vec::new(),
        &synthetic_trace(events, 4, 8),
        TraceFormat::Binary,
    )
    .map_err(|e| e.to_string())?;
    let bytes = artifact.len() as u64;
    type Analyze = fn(&[u8]) -> Result<LockDependencyRelation, String>;
    let paths: [(&str, Analyze); 2] = [
        ("analyze-binary", analyze_streamed),
        ("analyze-binary-replay", analyze_replayed),
    ];
    let mut relations = Vec::new();
    let mut rows = Vec::new();
    for (mode, analyze) in paths {
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let start = Instant::now();
            analyze(&artifact)?;
            best = best.min(start.elapsed().as_secs_f64());
        }
        let mut result = None;
        let peak = peak_heap(&mut || result = Some(analyze(&artifact)));
        relations.push(result.expect("the probe runs its argument")?);
        let per_sec = events as f64 / best;
        rows.push(TraceIoBenchRow {
            workload: format!("native-spill-{events}"),
            mode: mode.to_string(),
            events,
            wall_ms: best * 1e3,
            events_per_sec: per_sec,
            bytes,
            bytes_per_event: bytes as f64 / events as f64,
            decode_ms: best * 1e3,
            decode_events_per_sec: per_sec,
            peak_heap_bytes: Some(peak),
        });
    }
    if relations[0] != relations[1] {
        return Err("analyze paths built different relations".to_string());
    }
    Ok(rows)
}

/// Cross-checks the four paths on `trace`: per format, streamed output
/// must be byte-identical to offline output, and the binary artifact
/// must decode back to the source trace.
fn parity_check(trace: &Trace) -> Result<(), String> {
    for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
        let offline = write_trace_as(Vec::new(), trace, format).map_err(|e| e.to_string())?;
        let streamed = {
            #[derive(Clone, Default)]
            struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);
            impl Write for SharedBuf {
                fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                    self.0.lock().unwrap().extend_from_slice(buf);
                    Ok(buf.len())
                }
                fn flush(&mut self) -> io::Result<()> {
                    Ok(())
                }
            }
            let buf = SharedBuf::default();
            let mut sink =
                SpillSink::with_format(buf.clone(), format).map_err(|e| e.to_string())?;
            feed(&mut sink, trace);
            sink.close().map_err(|e| e.to_string())?;
            let bytes = buf.0.lock().unwrap().clone();
            bytes
        };
        if offline != streamed {
            return Err(format!(
                "{format}: streamed artifact diverges from offline artifact \
                 ({} vs {} bytes)",
                streamed.len(),
                offline.len()
            ));
        }
        let decoded = read_trace_bytes(&offline).map_err(|e| e.to_string())?;
        if decoded.events() != trace.events() {
            return Err(format!("{format}: decoded events diverge from source"));
        }
    }
    Ok(())
}

/// Measures one synthetic workload across the four path×encoding modes,
/// and the decode of each encoding's artifact; then the two analyze
/// rows over an artifact of `analyze_events` events, their peak heap
/// measured by `peak_heap`.
///
/// # Errors
///
/// Returns a message describing the first parity failure — a
/// correctness bug, which callers should turn into a non-zero exit.
pub fn trace_io_bench_rows(
    target_events: u64,
    analyze_events: u64,
    reps: u32,
    peak_heap: PeakHeap,
) -> Result<Vec<TraceIoBenchRow>, String> {
    // Parity on a bounded prefix-shaped workload, so even huge
    // requested sizes cross-check quickly.
    parity_check(&synthetic_trace(target_events.min(20_000), 4, 8))?;

    let trace = synthetic_trace(target_events, 4, 8);
    let events = trace.events().len() as u64;
    let workload = format!("synthetic-{target_events}");
    type ModeRunner = fn(&Trace, TraceFormat) -> Result<(f64, u64), String>;
    let modes: [(&str, ModeRunner, TraceFormat); 4] = [
        ("offline-jsonl", run_offline, TraceFormat::Jsonl),
        ("offline-binary", run_offline, TraceFormat::Binary),
        ("streamed-jsonl", run_streamed, TraceFormat::Jsonl),
        ("streamed-binary", run_streamed, TraceFormat::Binary),
    ];
    let jsonl_decode = run_decode(&trace, TraceFormat::Jsonl, reps)?;
    let binary_decode = run_decode(&trace, TraceFormat::Binary, reps)?;
    let per_sec = |wall: f64| {
        if wall > 0.0 {
            events as f64 / wall
        } else {
            0.0
        }
    };
    let mut rows = Vec::new();
    for (mode, run, format) in modes {
        let mut best = f64::INFINITY;
        let mut bytes = 0u64;
        for _ in 0..reps.max(1) {
            let (wall, b) = run(&trace, format)?;
            best = best.min(wall);
            bytes = b;
        }
        let decode = match format {
            TraceFormat::Jsonl => jsonl_decode,
            TraceFormat::Binary => binary_decode,
        };
        rows.push(TraceIoBenchRow {
            workload: workload.clone(),
            mode: mode.to_string(),
            events,
            wall_ms: best * 1e3,
            events_per_sec: per_sec(best),
            bytes,
            bytes_per_event: if events > 0 {
                bytes as f64 / events as f64
            } else {
                0.0
            },
            decode_ms: decode * 1e3,
            decode_events_per_sec: per_sec(decode),
            peak_heap_bytes: None,
        });
    }
    drop(trace);
    rows.extend(analyze_rows(analyze_events, reps, peak_heap)?);
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_trace_hits_the_target_shape() {
        let trace = synthetic_trace(1_000, 4, 8);
        assert_eq!(trace.events().len(), 1_000);
        assert_eq!(trace.thread_objs().count(), 4);
        assert_eq!(trace.objects().len(), 4 + 8);
        assert!(trace.events().iter().any(|e| e.kind.is_acquire()));
    }

    #[test]
    fn rows_cover_all_four_modes_and_binary_is_denser() {
        let rows = trace_io_bench_rows(4_000, 2_000, 1, |f| {
            f();
            7
        })
        .expect("parity");
        assert_eq!(rows.len(), 6, "four write modes and two analyze paths");
        for row in &rows[4..] {
            assert_eq!(row.events, 2_000, "{}", row.mode);
            assert_eq!(row.peak_heap_bytes, Some(7), "{}", row.mode);
        }
        for row in &rows[..4] {
            assert_eq!(row.events, 4_000, "{}", row.mode);
            assert!(row.bytes > 0, "{}", row.mode);
            assert!(row.events_per_sec > 0.0, "{}", row.mode);
            assert!(row.decode_events_per_sec > 0.0, "{}", row.mode);
        }
        let bytes_of = |mode: &str| rows.iter().find(|r| r.mode == mode).unwrap().bytes;
        assert_eq!(bytes_of("offline-jsonl"), bytes_of("streamed-jsonl"));
        assert_eq!(bytes_of("offline-binary"), bytes_of("streamed-binary"));
        assert!(
            bytes_of("offline-binary") * 3 <= bytes_of("offline-jsonl"),
            "binary ({}) should be at least 3x denser than JSONL ({})",
            bytes_of("offline-binary"),
            bytes_of("offline-jsonl")
        );
    }
}
