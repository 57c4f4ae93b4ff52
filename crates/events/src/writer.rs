//! Ring-buffered spilling: emission decoupled from I/O.
//!
//! A synchronous [`SpillSink`] serializes *and* writes on the
//! instrumented program's thread — every event pays the syscall. A
//! [`RingSpillSink`] serializes on the emitting thread but hands the
//! encoded frames through a bounded lock-free SPSC ring
//! ([`crate::ring`]) to a dedicated spill-writer thread that drains in
//! batches (configurable batch size and flush interval). When the ring
//! fills, the emitter blocks — backpressure, not data loss — and each
//! stall is counted for the `spill_backpressure_waits` observability
//! counter. Drained frame buffers travel back to the emitter through a
//! second ring of the same capacity, so a steady stream allocates none.
//!
//! Crash-safe sealing is preserved: `on_finish` pushes the footer and
//! joins the writer thread, and *dropping* an unfinished sink still
//! seals the artifact with whatever objects it has seen (an empty
//! footer if none), so a panicking trial leaves a structurally valid,
//! analyzable file rather than a truncated one.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::thread;
use std::time::{Duration, Instant};

use crate::ring::{spsc_ring, RingConsumer, RingProducer};
use crate::spill::TraceEncoder;
use crate::{
    Event, EventSink, ObjId, ObjectTable, SpillError, SpillSink, ThreadId, Trace, TraceFormat,
};

/// How a spill sink encodes and schedules its writes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpillConfig {
    /// On-disk encoding ([`TraceFormat::Jsonl`] or
    /// [`TraceFormat::Binary`]).
    pub format: TraceFormat,
    /// Ring capacity in frames. `0` keeps the classic synchronous path
    /// (encode + write on the emitting thread, no extra thread).
    pub ring_capacity: usize,
    /// The writer thread accumulates at least this many bytes before
    /// issuing a write (ring mode only).
    pub batch_bytes: usize,
    /// How long a partial batch may sit before being flushed anyway
    /// (ring mode only).
    pub flush_interval: Duration,
}

impl Default for SpillConfig {
    fn default() -> Self {
        SpillConfig {
            format: TraceFormat::Jsonl,
            ring_capacity: 0,
            batch_bytes: 64 * 1024,
            flush_interval: Duration::from_millis(2),
        }
    }
}

impl SpillConfig {
    /// A config with everything default except the format.
    pub fn with_format(format: TraceFormat) -> Self {
        SpillConfig {
            format,
            ..SpillConfig::default()
        }
    }

    /// Enables the ring with `capacity` frames (rounded up to a power
    /// of two by the ring itself).
    pub fn with_ring(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }

    /// Sets the writer thread's batch threshold in bytes.
    pub fn with_batch_bytes(mut self, bytes: usize) -> Self {
        self.batch_bytes = bytes;
        self
    }

    /// Sets the writer thread's flush interval for partial batches.
    pub fn with_flush_interval(mut self, interval: Duration) -> Self {
        self.flush_interval = interval;
        self
    }
}

/// The spill-writer thread: drains encoded frames from the ring,
/// batches them, returns the emptied buffers through `spare`, and keeps
/// draining even after an I/O error so the producer can never block
/// forever on a dead disk.
fn drain_ring<W: Write>(
    mut out: W,
    mut frames: RingConsumer<Vec<u8>>,
    mut spare: RingProducer<Vec<u8>>,
    batch_bytes: usize,
    flush_interval: Duration,
) -> io::Result<()> {
    let batch_bytes = batch_bytes.max(1);
    let mut batch: Vec<u8> = Vec::with_capacity(batch_bytes * 2);
    let mut result: io::Result<()> = Ok(());
    let mut last_flush = Instant::now();
    loop {
        let mut progressed = false;
        while let Some(mut frame) = frames.pop() {
            progressed = true;
            if result.is_ok() {
                batch.extend_from_slice(&frame);
                if batch.len() >= batch_bytes {
                    result = out.write_all(&batch);
                    batch.clear();
                    last_flush = Instant::now();
                }
            }
            frame.clear();
            // Never wait for the emitter: when it already has a ring's
            // worth of spare buffers, this one is freed instead.
            let _ = spare.try_push(frame);
        }
        if frames.is_disconnected() {
            break;
        }
        if !progressed {
            if result.is_ok() && !batch.is_empty() && last_flush.elapsed() >= flush_interval {
                result = out.write_all(&batch).and_then(|()| out.flush());
                batch.clear();
                last_flush = Instant::now();
            }
            thread::sleep(Duration::from_micros(50));
        }
    }
    if result.is_ok() && !batch.is_empty() {
        result = out.write_all(&batch);
    }
    result.and_then(|()| out.flush())
}

/// An [`EventSink`] that encodes on the emitting thread and writes on a
/// dedicated spill-writer thread, connected by a bounded SPSC ring.
///
/// Same latched-error discipline as [`SpillSink`]: I/O failures never
/// panic the instrumented program, they surface from
/// [`RingSpillSink::close`] after the run.
pub struct RingSpillSink {
    encoder: Option<TraceEncoder>,
    frames: Option<RingProducer<Vec<u8>>>,
    /// Emptied frame buffers coming back from the writer thread.
    spare: RingConsumer<Vec<u8>>,
    writer: Option<thread::JoinHandle<io::Result<()>>>,
    events: u64,
    bytes: u64,
    waits: u64,
    sealed: bool,
    error: Option<SpillError>,
}

impl RingSpillSink {
    /// Starts the writer thread and pushes the artifact header.
    ///
    /// `out` moves into the writer thread; the producer side only ever
    /// handles encoded bytes.
    pub fn spawn<W: Write + Send + 'static>(
        out: W,
        config: &SpillConfig,
    ) -> Result<Self, SpillError> {
        let (encoder, preamble) = TraceEncoder::new(config.format)?;
        let (producer, consumer) = spsc_ring::<Vec<u8>>(config.ring_capacity.max(1));
        let (spare_producer, spare) = spsc_ring::<Vec<u8>>(config.ring_capacity.max(1));
        let batch_bytes = config.batch_bytes;
        let flush_interval = config.flush_interval;
        let writer = thread::Builder::new()
            .name("df-spill-writer".to_string())
            .spawn(move || drain_ring(out, consumer, spare_producer, batch_bytes, flush_interval))
            .map_err(SpillError::Io)?;
        let bytes = preamble.len() as u64;
        let mut sink = RingSpillSink {
            encoder: Some(encoder),
            frames: Some(producer),
            spare,
            writer: Some(writer),
            events: 0,
            bytes,
            waits: 0,
            sealed: false,
            error: None,
        };
        // A fresh producer can only fail if the writer thread died at
        // birth; latch that like any other I/O error.
        sink.push_frame(preamble);
        Ok(sink)
    }

    /// Whether the footer and seal have been written and flushed.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Blocking-push episodes the emitting side has suffered so far —
    /// feed this into the `spill_backpressure_waits` counter.
    pub fn backpressure_waits(&self) -> u64 {
        match &self.frames {
            Some(p) => p.waits(),
            None => self.waits,
        }
    }

    /// Ends the spill: returns `(events_written, bytes_written)` or the
    /// first error encountered while streaming.
    pub fn close(&mut self) -> Result<(u64, u64), SpillError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if !self.sealed {
            return Err(SpillError::MissingFooter);
        }
        Ok((self.events, self.bytes))
    }

    fn push_frame(&mut self, frame: Vec<u8>) {
        if let Some(p) = self.frames.as_mut() {
            if p.push(frame).is_err() && self.error.is_none() {
                self.error = Some(writer_died());
            }
        }
    }

    /// Drops the producer (disconnecting the ring) and joins the
    /// writer thread, latching its I/O result.
    fn join_writer(&mut self) {
        if let Some(p) = self.frames.take() {
            self.waits = p.waits();
        }
        if let Some(handle) = self.writer.take() {
            match handle.join() {
                Ok(Ok(())) => {
                    if self.error.is_none() {
                        self.sealed = true;
                    }
                }
                Ok(Err(e)) => {
                    if self.error.is_none() {
                        self.error = Some(SpillError::Io(e));
                    }
                }
                Err(_) => {
                    if self.error.is_none() {
                        self.error = Some(writer_died());
                    }
                }
            }
        }
    }

    fn seal_with(&mut self, objects: &ObjectTable, thread_objs: BTreeMap<ThreadId, ObjId>) {
        let Some(mut encoder) = self.encoder.take() else {
            return;
        };
        let mut frame = Vec::with_capacity(256);
        match encoder.encode_finish(objects, thread_objs, &mut frame) {
            Ok(()) => {
                self.bytes += frame.len() as u64;
                self.push_frame(frame);
            }
            Err(e) => {
                if self.error.is_none() {
                    self.error = Some(e);
                }
            }
        }
        self.join_writer();
    }
}

fn writer_died() -> SpillError {
    SpillError::Io(io::Error::other("spill writer thread died"))
}

impl EventSink for RingSpillSink {
    fn on_event(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        let Some(encoder) = self.encoder.as_mut() else {
            return;
        };
        let mut frame = self.spare.pop().unwrap_or_else(|| Vec::with_capacity(96));
        match encoder.encode_event(event, &mut frame) {
            Ok(()) => {
                self.events += 1;
                self.bytes += frame.len() as u64;
                self.push_frame(frame);
            }
            Err(e) => self.error = Some(e),
        }
    }

    fn on_finish(&mut self, trace: &Trace) {
        if self.encoder.is_none() {
            return;
        }
        let thread_objs: BTreeMap<ThreadId, ObjId> = trace.thread_objs().collect();
        // Clone out of the borrow so seal_with can take &mut self.
        let objects = trace.objects().clone();
        self.seal_with(&objects, thread_objs);
    }
}

impl Drop for RingSpillSink {
    fn drop(&mut self) {
        // Dropped mid-stream (panic, early exit): still seal, so the
        // artifact on disk is structurally valid and analyzable. The
        // object table is empty — the events are what we managed to
        // save — but the writer thread joins and the footer + seal hit
        // the disk.
        if self.encoder.is_some() {
            self.seal_with(&ObjectTable::new(), BTreeMap::new());
        } else {
            self.join_writer();
        }
    }
}

/// A spill sink in either scheduling mode, chosen by
/// [`SpillConfig::ring_capacity`]: synchronous ([`SpillSink`]) or
/// ring-buffered with a writer thread ([`RingSpillSink`]).
pub enum AnySpillSink<W: Write + Send + 'static> {
    /// Encode + write on the emitting thread.
    Sync(SpillSink<W>),
    /// Encode on the emitting thread, write on the spill-writer thread.
    Ring(RingSpillSink),
}

impl<W: Write + Send + 'static> AnySpillSink<W> {
    /// Builds the sink `config` describes, writing into `out`.
    pub fn new(out: W, config: &SpillConfig) -> Result<Self, SpillError> {
        if config.ring_capacity == 0 {
            Ok(AnySpillSink::Sync(SpillSink::with_format(
                out,
                config.format,
            )?))
        } else {
            Ok(AnySpillSink::Ring(RingSpillSink::spawn(out, config)?))
        }
    }

    /// Whether the footer has been written.
    pub fn is_sealed(&self) -> bool {
        match self {
            AnySpillSink::Sync(s) => s.is_sealed(),
            AnySpillSink::Ring(s) => s.is_sealed(),
        }
    }

    /// Blocking-push episodes (always 0 in synchronous mode).
    pub fn backpressure_waits(&self) -> u64 {
        match self {
            AnySpillSink::Sync(_) => 0,
            AnySpillSink::Ring(s) => s.backpressure_waits(),
        }
    }

    /// Ends the spill: `(events_written, bytes_written)` or the first
    /// streaming error.
    pub fn close(&mut self) -> Result<(u64, u64), SpillError> {
        match self {
            AnySpillSink::Sync(s) => s.close(),
            AnySpillSink::Ring(s) => s.close(),
        }
    }
}

impl<W: Write + Send + 'static> EventSink for AnySpillSink<W> {
    fn on_event(&mut self, event: &Event) {
        match self {
            AnySpillSink::Sync(s) => s.on_event(event),
            AnySpillSink::Ring(s) => s.on_event(event),
        }
    }

    fn on_thread_bound(&mut self, thread: ThreadId, obj: ObjId) {
        match self {
            AnySpillSink::Sync(s) => s.on_thread_bound(thread, obj),
            AnySpillSink::Ring(s) => s.on_thread_bound(thread, obj),
        }
    }

    fn on_finish(&mut self, trace: &Trace) {
        match self {
            AnySpillSink::Sync(s) => s.on_finish(trace),
            AnySpillSink::Ring(s) => s.on_finish(trace),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::write_trace_as;
    use crate::{read_trace_bytes, EventKind, Label, ObjKind};
    use std::sync::{Arc, Mutex};

    /// A `Write` target the test can inspect after the writer thread
    /// has consumed it.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn bytes(&self) -> Vec<u8> {
            self.0.lock().unwrap().clone()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A writer that dawdles, so a tiny ring actually fills.
    struct SlowBuf {
        inner: SharedBuf,
        delay: Duration,
    }

    impl Write for SlowBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            thread::sleep(self.delay);
            self.inner.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    fn sample_trace() -> Trace {
        let mut trace = Trace::new();
        let t0 = ThreadId::new(0);
        let obj = trace
            .objects_mut()
            .create(ObjKind::Thread, Label::new("<main>"), None, vec![]);
        trace.bind_thread(t0, obj);
        let lock = trace
            .objects_mut()
            .create(ObjKind::Lock, Label::new("w:3"), None, vec![]);
        trace.push(t0, EventKind::ThreadStart);
        for _ in 0..100 {
            trace.push(
                t0,
                EventKind::acquire(lock, Label::new("w:4"), vec![], vec![Label::new("w:4")]),
            );
            trace.push(t0, EventKind::release(lock, Label::new("w:5")));
        }
        trace.push(t0, EventKind::ThreadExit);
        trace
    }

    fn feed(sink: &mut dyn EventSink, trace: &Trace) {
        for (t, o) in trace.thread_objs() {
            sink.on_thread_bound(t, o);
        }
        for event in trace.events() {
            sink.on_event(event);
        }
        let mut skeleton = Trace::new();
        *skeleton.objects_mut() = trace.objects().clone();
        for (t, o) in trace.thread_objs() {
            skeleton.bind_thread(t, o);
        }
        sink.on_finish(&skeleton);
    }

    #[test]
    fn ring_spill_matches_synchronous_spill_byte_for_byte() {
        let trace = sample_trace();
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let direct = write_trace_as(Vec::new(), &trace, format).unwrap();
            let buf = SharedBuf::default();
            let config = SpillConfig::with_format(format).with_ring(8);
            let mut sink = RingSpillSink::spawn(buf.clone(), &config).unwrap();
            feed(&mut sink, &trace);
            let (events, bytes) = sink.close().unwrap();
            assert!(sink.is_sealed());
            assert_eq!(events, trace.events().len() as u64);
            assert_eq!(buf.bytes(), direct, "format {format}");
            assert_eq!(bytes, direct.len() as u64);
        }
    }

    #[test]
    fn any_spill_sink_picks_mode_from_config() {
        let trace = sample_trace();
        let direct = write_trace_as(Vec::new(), &trace, TraceFormat::Binary).unwrap();
        // ring_capacity = 0: synchronous.
        let config = SpillConfig::with_format(TraceFormat::Binary);
        let mut sink = AnySpillSink::new(Vec::new(), &config).unwrap();
        assert!(matches!(sink, AnySpillSink::Sync(_)));
        feed(&mut sink, &trace);
        assert!(sink.is_sealed());
        assert_eq!(sink.backpressure_waits(), 0);
        sink.close().unwrap();
        // ring_capacity > 0: threaded.
        let buf = SharedBuf::default();
        let mut sink = AnySpillSink::new(buf.clone(), &config.with_ring(16)).unwrap();
        assert!(matches!(sink, AnySpillSink::Ring(_)));
        feed(&mut sink, &trace);
        sink.close().unwrap();
        assert_eq!(buf.bytes(), direct);
    }

    #[test]
    fn tiny_ring_with_slow_writer_counts_backpressure_waits() {
        let trace = sample_trace();
        let buf = SharedBuf::default();
        let slow = SlowBuf {
            inner: buf.clone(),
            delay: Duration::from_millis(1),
        };
        // batch_bytes 1: every frame is its own (slow) write.
        let config = SpillConfig::with_format(TraceFormat::Binary)
            .with_ring(2)
            .with_batch_bytes(1)
            .with_flush_interval(Duration::from_millis(1));
        let mut sink = RingSpillSink::spawn(slow, &config).unwrap();
        feed(&mut sink, &trace);
        let waits = sink.backpressure_waits();
        assert!(
            waits >= 1,
            "a 2-slot ring against a 1ms/write sink must stall, waits = {waits}"
        );
        sink.close().unwrap();
        let direct = write_trace_as(Vec::new(), &trace, TraceFormat::Binary).unwrap();
        assert_eq!(buf.bytes(), direct, "backpressure never loses frames");
    }

    #[test]
    fn dropping_mid_stream_still_seals_the_artifact() {
        let trace = sample_trace();
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let buf = SharedBuf::default();
            let config = SpillConfig::with_format(format).with_ring(8);
            let mut sink = RingSpillSink::spawn(buf.clone(), &config).unwrap();
            for event in trace.events().iter().take(7) {
                sink.on_event(event);
            }
            drop(sink); // no on_finish: simulates a dying trial
            let back = read_trace_bytes(&buf.bytes()).expect("dropped spill still parses");
            assert_eq!(back.events().len(), 7);
            assert!(back.objects().is_empty(), "empty emergency footer");
        }
    }

    /// 64× a 4-frame ring's capacity in events; every 16th names a new,
    /// ever longer label, so its frame (string definition included)
    /// outgrows any recycled buffer.
    fn long_label_trace() -> Trace {
        let mut trace = Trace::new();
        let t0 = ThreadId::new(0);
        let obj = trace
            .objects_mut()
            .create(ObjKind::Thread, Label::new("<main>"), None, vec![]);
        trace.bind_thread(t0, obj);
        let lock = trace
            .objects_mut()
            .create(ObjKind::Lock, Label::new("r:1"), None, vec![]);
        for i in 0..128 {
            let site = if i % 8 == 0 {
                Label::new(&format!("recycle:{i}:{}", "x".repeat(200 + 16 * i)))
            } else {
                Label::new("r:2")
            };
            trace.push(t0, EventKind::acquire(lock, site, vec![], vec![site]));
            trace.push(t0, EventKind::release(lock, Label::new("r:3")));
        }
        trace
    }

    #[test]
    fn recycled_frames_keep_the_spill_byte_identical() {
        let trace = long_label_trace();
        assert!(trace.events().len() >= 64 * 4);
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let direct = write_trace_as(Vec::new(), &trace, format).unwrap();
            let buf = SharedBuf::default();
            let config = SpillConfig::with_format(format).with_ring(4);
            let mut sink = RingSpillSink::spawn(buf.clone(), &config).unwrap();
            feed(&mut sink, &trace);
            sink.close().unwrap();
            assert_eq!(buf.bytes(), direct, "format {format}");

            // Dropped halfway, the spill still seals and analyzes.
            let buf = SharedBuf::default();
            let mut sink = RingSpillSink::spawn(buf.clone(), &config).unwrap();
            let half = trace.events().len() / 2;
            for event in &trace.events()[..half] {
                sink.on_event(event);
            }
            drop(sink);
            let back = read_trace_bytes(&buf.bytes()).expect("dropped spill still parses");
            assert_eq!(back.events(), &trace.events()[..half], "format {format}");
        }
    }

    #[test]
    fn unsealed_ring_spill_reports_missing_footer() {
        // close() before on_finish: the sink latched nothing, but the
        // artifact is not sealed.
        let buf = SharedBuf::default();
        let config = SpillConfig::with_format(TraceFormat::Jsonl).with_ring(4);
        let mut sink = RingSpillSink::spawn(buf, &config).unwrap();
        assert!(matches!(sink.close(), Err(SpillError::MissingFooter)));
    }

    #[test]
    fn spill_config_builder_round_trip() {
        let c = SpillConfig::with_format(TraceFormat::Binary)
            .with_ring(1024)
            .with_batch_bytes(4096)
            .with_flush_interval(Duration::from_millis(7));
        assert_eq!(c.format, TraceFormat::Binary);
        assert_eq!(c.ring_capacity, 1024);
        assert_eq!(c.batch_bytes, 4096);
        assert_eq!(c.flush_interval, Duration::from_millis(7));
        assert_eq!(SpillConfig::default().ring_capacity, 0);
    }
}
