//! The versioned on-disk trace format (`df-trace`, JSONL version 2).
//!
//! A recorded execution is a JSON-lines file:
//!
//! 1. a header line `{"Header":{"format":"df-trace","version":2}}`,
//! 2. one line per [`Event`], in sequence order,
//! 3. a footer line carrying the final [`ObjectTable`] and the
//!    thread→object bindings.
//!
//! The format exists so observation and analysis can live in different
//! processes (`dfz record` → `dfz analyze`): a [`SpillSink`] appends
//! events as a substrate emits them and never needs the full event
//! vector, and [`decode_trace`] replays an artifact into any
//! [`EventSink`] — a relation builder, say — while [`read_trace`]
//! reconstructs the in-memory [`Trace`], byte-equivalent to what a
//! one-shot run would have recorded. One writer serves both encodings
//! (this one and the binary one of [`crate::TRACE_BINARY_MAGIC`]), and
//! one decoder each reads them. Readers reject unknown format names and
//! versions instead of guessing — the version gate is what lets the
//! layout evolve without silently misreading old files.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufRead, Write};
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::binary::{decode_binary, BinaryEncoder, TRACE_BINARY_MAGIC};
use crate::{Event, EventSink, ObjId, ObjectTable, ThreadId, Trace};

/// Format name stamped into every trace artifact header.
pub const TRACE_FORMAT: &str = "df-trace";

/// Version stamped into the JSONL header by the writer.
///
/// Version 2 dropped `held` and `context` from `Acquire` lines: the
/// analysis derives them from the stream. Every other line is written as
/// in version 1.
pub const TRACE_FORMAT_VERSION: u32 = 2;

/// Oldest JSONL header version [`read_trace`] still accepts; it reads
/// past the `held` and `context` of version-1 `Acquire` lines.
pub const TRACE_MIN_FORMAT_VERSION: u32 = 1;

/// Which on-disk encoding of the `df-trace` envelope to write.
///
/// Readers sniff it from the first bytes ([`TraceFormat::sniff`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum TraceFormat {
    /// One JSON object per line. Self-describing and diff-friendly; the
    /// choice for goldens and debugging.
    #[default]
    Jsonl,
    /// Length-prefixed binary frames with interned strings and varint
    /// ids ([`crate::binary`]). The choice for hardware-speed
    /// recording.
    Binary,
}

impl TraceFormat {
    /// The flag spelling of this format (`jsonl` / `binary`).
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceFormat::Jsonl => "jsonl",
            TraceFormat::Binary => "binary",
        }
    }

    /// The encoding of an artifact whose leading bytes are `head` (at
    /// least the magic's four, when there are that many): binary if they
    /// carry [`TRACE_BINARY_MAGIC`], JSONL otherwise.
    pub fn sniff(head: &[u8]) -> Self {
        if head.starts_with(&TRACE_BINARY_MAGIC) {
            TraceFormat::Binary
        } else {
            TraceFormat::Jsonl
        }
    }
}

impl fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for TraceFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "jsonl" | "json-lines" | "v1" => Ok(TraceFormat::Jsonl),
            "binary" | "bin" | "v2" => Ok(TraceFormat::Binary),
            other => Err(format!("unknown trace format '{other}' (jsonl | binary)")),
        }
    }
}

/// The header line of a trace artifact.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Always [`TRACE_FORMAT`] for files this module writes.
    pub format: String,
    /// The writer's [`TRACE_FORMAT_VERSION`].
    pub version: u32,
}

/// The footer line of a trace artifact: everything a [`Trace`] holds
/// besides the event sequence.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct TraceFooter {
    /// The execution's object table.
    pub objects: ObjectTable,
    /// Thread→object bindings.
    pub thread_objs: BTreeMap<ThreadId, ObjId>,
}

/// One line of a trace artifact (externally tagged by variant name).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
enum TraceLine {
    /// The leading header line.
    Header(TraceHeader),
    /// An event line.
    Event(Event),
    /// The trailing footer line.
    Footer(TraceFooter),
}

/// Why a trace artifact could not be written or read.
#[derive(Debug)]
pub enum SpillError {
    /// The underlying reader or writer failed.
    Io(io::Error),
    /// An event or footer could not be serialized while writing.
    Json(String),
    /// A line of the artifact was corrupt while reading. `line` is
    /// 1-based (the header is line 1), so reports can point straight at
    /// the offending line of a truncated or hand-damaged file.
    MalformedLine {
        /// 1-based line number of the corrupt line.
        line: u64,
        /// What was wrong with it.
        detail: String,
    },
    /// A frame of a binary (v2) artifact was corrupt while reading:
    /// truncated, misprefixed, or carrying an unknown tag. `frame` is
    /// 1-based (the header is frame 1), the binary twin of
    /// [`SpillError::MalformedLine`].
    MalformedFrame {
        /// 1-based frame number of the corrupt frame.
        frame: u64,
        /// What was wrong with it.
        detail: String,
    },
    /// The file does not start with a `df-trace` header.
    NotAnArtifact,
    /// The header names a different format.
    WrongFormat(String),
    /// The header's version is outside the versions this reader
    /// accepts.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this reader understands.
        expected: u32,
    },
    /// The artifact ended without a footer line (truncated recording).
    MissingFooter,
    /// A binary artifact has its footer but not the trailing seal frame
    /// — the writer died between the two.
    MissingSeal,
    /// A line appeared after the footer, or events after EOF markers.
    TrailingData,
    /// A thread took nested locks, but nothing binds it to the object
    /// that represents it: an artifact whose footer omits the thread.
    UnboundThread(ThreadId),
    /// A lock dependency names an object that the footer's object table
    /// lacks.
    UnknownObject(ObjId),
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillError::Io(e) => write!(f, "trace artifact i/o error: {e}"),
            SpillError::Json(e) => write!(f, "trace artifact malformed line: {e}"),
            SpillError::MalformedLine { line, detail } => {
                write!(f, "malformed line {line}: {detail}")
            }
            SpillError::MalformedFrame { frame, detail } => {
                write!(f, "malformed frame {frame}: {detail}")
            }
            SpillError::NotAnArtifact => {
                write!(f, "not a {TRACE_FORMAT} artifact (missing header line)")
            }
            SpillError::WrongFormat(found) => {
                write!(f, "artifact format is '{found}', expected '{TRACE_FORMAT}'")
            }
            SpillError::VersionMismatch { found, expected } => write!(
                f,
                "artifact version {found} is not supported (expected {expected})"
            ),
            SpillError::MissingFooter => {
                write!(f, "artifact is truncated: no footer line")
            }
            SpillError::MissingSeal => {
                write!(f, "artifact is truncated: footer present but no seal frame")
            }
            SpillError::TrailingData => {
                write!(f, "artifact has data after the footer line")
            }
            SpillError::UnboundThread(thread) => {
                write!(
                    f,
                    "thread {thread} takes nested locks but is bound to no object"
                )
            }
            SpillError::UnknownObject(obj) => {
                write!(
                    f,
                    "a lock dependency names object {obj}, which the footer's object table lacks"
                )
            }
        }
    }
}

impl SpillError {
    /// The 1-based artifact line this error points at, when known.
    pub fn line(&self) -> Option<u64> {
        match self {
            SpillError::MalformedLine { line, .. } => Some(*line),
            _ => None,
        }
    }

    /// The 1-based binary frame this error points at, when known.
    pub fn frame(&self) -> Option<u64> {
        match self {
            SpillError::MalformedFrame { frame, .. } => Some(*frame),
            _ => None,
        }
    }
}

impl std::error::Error for SpillError {}

impl From<io::Error> for SpillError {
    fn from(e: io::Error) -> Self {
        SpillError::Io(e)
    }
}

/// Serializes one artifact line, trailing newline included.
fn jsonl_line(line: &TraceLine) -> Result<String, SpillError> {
    let mut text = serde_json::to_string(line).map_err(|e| SpillError::Json(e.to_string()))?;
    text.push('\n');
    Ok(text)
}

/// Streams one execution into an artifact of either encoding: the
/// header when created, one line or frame (with any new string
/// definitions) per event, the footer when sealed. It holds no event
/// backlog; an unsealed artifact is truncated, and readers reject it.
pub(crate) struct TraceWriter<W: Write> {
    out: W,
    /// The binary encoding's string table and payload buffer; `None`
    /// writes JSONL.
    binary: Option<BinaryEncoder>,
    /// The bytes of the record being written, reused across records.
    scratch: Vec<u8>,
    events: u64,
    bytes: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts an artifact by writing its header.
    pub(crate) fn new(mut out: W, format: TraceFormat) -> Result<Self, SpillError> {
        let (binary, header) = match format {
            TraceFormat::Jsonl => {
                let header = TraceLine::Header(TraceHeader {
                    format: TRACE_FORMAT.to_string(),
                    version: TRACE_FORMAT_VERSION,
                });
                (None, jsonl_line(&header)?.into_bytes())
            }
            TraceFormat::Binary => {
                let (encoder, preamble) = BinaryEncoder::new();
                (Some(encoder), preamble)
            }
        };
        out.write_all(&header)?;
        Ok(TraceWriter {
            out,
            binary,
            scratch: Vec::with_capacity(64),
            events: 0,
            bytes: header.len() as u64,
        })
    }

    /// Appends a run of events: encodes them all into the scratch
    /// buffer, then writes it in one call.
    pub(crate) fn write_events(&mut self, events: &[Event]) -> Result<(), SpillError> {
        self.scratch.clear();
        for event in events {
            match &mut self.binary {
                Some(encoder) => encoder.encode_event(event, &mut self.scratch),
                None => {
                    let line = jsonl_line(&TraceLine::Event(event.clone()))?;
                    self.scratch.extend_from_slice(line.as_bytes());
                }
            }
        }
        self.out.write_all(&self.scratch)?;
        self.events += events.len() as u64;
        self.bytes += self.scratch.len() as u64;
        Ok(())
    }

    /// Writes and flushes the footer (and a binary artifact's seal).
    pub(crate) fn seal(
        &mut self,
        objects: &ObjectTable,
        thread_objs: BTreeMap<ThreadId, ObjId>,
    ) -> Result<(), SpillError> {
        self.scratch.clear();
        match &mut self.binary {
            Some(encoder) => encoder.encode_finish(objects, thread_objs, &mut self.scratch),
            None => {
                let footer = TraceLine::Footer(TraceFooter {
                    objects: objects.clone(),
                    thread_objs,
                });
                self.scratch
                    .extend_from_slice(jsonl_line(&footer)?.as_bytes());
            }
        }
        self.out.write_all(&self.scratch)?;
        self.bytes += self.scratch.len() as u64;
        self.out.flush()?;
        Ok(())
    }
}

/// Events [`write_trace_as`] encodes per write, which bounds its scratch
/// buffer.
const WRITE_CHUNK: usize = 1024;

/// Writes a complete in-memory trace as one JSONL artifact.
pub fn write_trace<W: Write>(out: W, trace: &Trace) -> Result<W, SpillError> {
    write_trace_as(out, trace, TraceFormat::Jsonl)
}

/// Writes a complete in-memory trace in the chosen encoding.
pub fn write_trace_as<W: Write>(
    out: W,
    trace: &Trace,
    format: TraceFormat,
) -> Result<W, SpillError> {
    let mut w = TraceWriter::new(out, format)?;
    for run in trace.events().chunks(WRITE_CHUNK) {
        w.write_events(run)?;
    }
    w.seal(trace.objects(), trace.thread_objs().collect())?;
    Ok(w.out)
}

/// Decodes a trace artifact of the given encoding into `sink`: the one
/// decoder of each encoding, behind [`read_trace`] and `dfz analyze`.
/// Every event reaches [`EventSink::on_event`] as it is read, in
/// sequence order; once the whole artifact is verified,
/// [`EventSink::on_finish`] gets its footer — the object table and
/// thread bindings — as an event-less trace, which is also returned.
///
/// # Errors
///
/// Rejects files without a valid header ([`SpillError::NotAnArtifact`],
/// [`SpillError::WrongFormat`]), with an unsupported version
/// ([`SpillError::VersionMismatch`]), truncated before the footer
/// ([`SpillError::MissingFooter`], or [`SpillError::MissingSeal`] for a
/// binary artifact), with data after the footer
/// ([`SpillError::TrailingData`]), or with a corrupt record
/// ([`SpillError::MalformedLine`] or [`SpillError::MalformedFrame`],
/// carrying its 1-based index). Events already delivered stay delivered.
pub fn decode_trace<R: BufRead, S: EventSink + ?Sized>(
    input: R,
    format: TraceFormat,
    sink: &mut S,
) -> Result<Trace, SpillError> {
    let skeleton = Trace::from_parts(Vec::new(), decode_events(input, format, sink)?);
    sink.on_finish(&skeleton);
    Ok(skeleton)
}

/// Hands every event to `sink` and returns the footer.
fn decode_events<R: BufRead, S: EventSink + ?Sized>(
    input: R,
    format: TraceFormat,
    sink: &mut S,
) -> Result<TraceFooter, SpillError> {
    match format {
        TraceFormat::Jsonl => decode_jsonl(input, sink),
        TraceFormat::Binary => decode_binary(input, sink),
    }
}

/// Collects a decoded stream's events.
struct Events(Vec<Event>);

impl EventSink for Events {
    fn on_event(&mut self, event: &Event) {
        self.0.push(event.clone());
    }
}

/// Reads a trace artifact in either encoding back into an in-memory
/// [`Trace`], sniffing the encoding from the first buffered bytes.
///
/// # Errors
///
/// As [`decode_trace`].
pub fn read_trace<R: BufRead>(mut input: R) -> Result<Trace, SpillError> {
    let format = TraceFormat::sniff(input.fill_buf()?);
    read_events(input, format, Vec::new())
}

/// [`read_trace`] over an artifact already in memory. The event vector
/// is reserved once, for as many events as the artifact's length could
/// hold: growing it by doubling left freed buffers behind at every step
/// (tens of megabytes for a million events), which raised the peak
/// resident set. Pages of the reserve that no event reaches are never
/// touched.
pub fn read_trace_bytes(bytes: &[u8]) -> Result<Trace, SpillError> {
    let format = TraceFormat::sniff(bytes);
    let smallest_event = match format {
        TraceFormat::Jsonl => SMALLEST_JSONL_EVENT.len(),
        TraceFormat::Binary => SMALLEST_BINARY_EVENT,
    };
    read_events(
        bytes,
        format,
        Vec::with_capacity(bytes.len() / smallest_event),
    )
}

/// The shortest event line a JSONL artifact can hold, line ending
/// included.
const SMALLEST_JSONL_EVENT: &str = "{\"Event\":{\"seq\":0,\"thread\":0,\"kind\":\"Yield\"}}\n";

/// The shortest event frame a binary artifact can hold: one byte each
/// for the length, the frame tag, the sequence number, the thread and
/// the kind tag of a payload-free kind.
const SMALLEST_BINARY_EVENT: usize = 5;

/// Decodes an artifact of `format` into `events` and the footer.
fn read_events<R: BufRead>(
    input: R,
    format: TraceFormat,
    events: Vec<Event>,
) -> Result<Trace, SpillError> {
    let mut events = Events(events);
    let footer = decode_events(input, format, &mut events)?;
    Ok(Trace::from_parts(events.0, footer))
}

/// A line as `BufRead::read_line` leaves it, without its line ending
/// (as `BufRead::lines` yields it), so parse errors report its columns.
fn content(buf: &str) -> &str {
    let line = buf.strip_suffix('\n').unwrap_or(buf);
    line.strip_suffix('\r').unwrap_or(line)
}

/// The JSONL decoder behind [`decode_trace`], returning the footer.
/// Reuses one line buffer.
fn decode_jsonl<R: BufRead, S: EventSink + ?Sized>(
    mut input: R,
    sink: &mut S,
) -> Result<TraceFooter, SpillError> {
    let mut buf = String::new();
    if input.read_line(&mut buf)? == 0 {
        return Err(SpillError::NotAnArtifact);
    }
    let header = match serde_json::from_str::<TraceLine>(content(&buf)) {
        Ok(TraceLine::Header(h)) => h,
        _ => return Err(SpillError::NotAnArtifact),
    };
    if header.format != TRACE_FORMAT {
        return Err(SpillError::WrongFormat(header.format));
    }
    if !(TRACE_MIN_FORMAT_VERSION..=TRACE_FORMAT_VERSION).contains(&header.version) {
        return Err(SpillError::VersionMismatch {
            found: header.version,
            expected: TRACE_FORMAT_VERSION,
        });
    }
    let mut footer: Option<TraceFooter> = None;
    let mut next_seq = 0u64;
    // The header was line 1; the loop below continues from line 2.
    for line_no in 2u64.. {
        buf.clear();
        if input.read_line(&mut buf)? == 0 {
            break;
        }
        let line = content(&buf);
        if line.trim().is_empty() {
            continue;
        }
        if footer.is_some() {
            return Err(SpillError::TrailingData);
        }
        let malformed = |detail: String| SpillError::MalformedLine {
            line: line_no,
            detail,
        };
        match serde_json::from_str::<TraceLine>(line).map_err(|e| malformed(e.to_string()))? {
            TraceLine::Event(event) => {
                if event.seq != next_seq {
                    return Err(malformed(format!(
                        "event seq {} out of order (expected {next_seq})",
                        event.seq
                    )));
                }
                sink.on_event(&event);
                next_seq += 1;
            }
            TraceLine::Footer(f) => footer = Some(f),
            TraceLine::Header(_) => return Err(malformed("duplicate header".to_string())),
        }
    }
    footer.ok_or(SpillError::MissingFooter)
}

/// How a spill sink encodes its artifact.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SpillConfig {
    /// On-disk encoding ([`TraceFormat::Jsonl`] or
    /// [`TraceFormat::Binary`]).
    pub format: TraceFormat,
}

impl SpillConfig {
    /// A config writing `format`.
    pub fn with_format(format: TraceFormat) -> Self {
        SpillConfig { format }
    }

    /// Does nothing: spills are always written on the emitting thread.
    /// Kept so callers written against the retired ring writer still
    /// compile.
    #[doc(hidden)]
    pub fn with_ring(self, _frames: usize) -> Self {
        self
    }
}

/// Encoding-buffer bytes [`SpillSink::reserve_events`] sets aside per
/// event: a binary event frame (length, tag, sequence number, thread,
/// kind and up to three ids and a mode, each id a varint) fits.
const RESERVED_BYTES_PER_EVENT: usize = 32;

/// An [`EventSink`] that spills the event stream straight into an
/// artifact of either encoding on the emitting thread, sealing it when
/// the execution finishes.
///
/// I/O errors are latched rather than panicking the instrumented program;
/// harvest them (plus the event/byte counts) with [`SpillSink::close`]
/// after the run. Dropping an unsealed sink seals the artifact with an
/// empty footer, so a panicking trial still leaves a file that decodes
/// behind. Its footer names no object and binds no thread, so the
/// relation builder rejects it if its events nest locks.
pub struct SpillSink<W: Write + Send> {
    /// `None` once a write failed: nothing more is written, not even on
    /// drop.
    writer: Option<TraceWriter<W>>,
    error: Option<SpillError>,
    sealed: bool,
}

impl<W: Write + Send> SpillSink<W> {
    /// Starts spilling into `out` (writes the header immediately) in
    /// JSONL.
    pub fn new(out: W) -> Result<Self, SpillError> {
        Self::with_format(out, TraceFormat::Jsonl)
    }

    /// Starts spilling into `out` in the chosen encoding.
    pub fn with_format(out: W, format: TraceFormat) -> Result<Self, SpillError> {
        Ok(SpillSink {
            writer: Some(TraceWriter::new(out, format)?),
            error: None,
            sealed: false,
        })
    }

    /// Sets the encoding buffer aside for runs of up to `events` events
    /// up front, so a producer that hands over runs no longer than that
    /// writes binary events without growing it.
    pub fn reserve_events(&mut self, events: usize) {
        if let Some(w) = &mut self.writer {
            w.scratch.reserve(events * RESERVED_BYTES_PER_EVENT);
        }
    }

    /// Whether the footer has been written.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Always 0: the writer never waits on anything but its own I/O.
    /// Kept so callers written against the retired ring writer still
    /// compile.
    #[doc(hidden)]
    pub fn backpressure_waits(&self) -> u64 {
        0
    }

    /// Ends the spill: returns `(events_written, bytes_written)` or the
    /// first error encountered while streaming.
    pub fn close(&mut self) -> Result<(u64, u64), SpillError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        match &self.writer {
            Some(w) if self.sealed => Ok((w.events, w.bytes)),
            _ => Err(SpillError::MissingFooter),
        }
    }

    /// Latches `e` and gives up the writer, so nothing more is written
    /// to a stream that already failed, not even on drop.
    fn fail(&mut self, e: SpillError) {
        self.error = Some(e);
        self.writer = None;
    }
}

impl<W: Write + Send> EventSink for SpillSink<W> {
    fn on_event(&mut self, event: &Event) {
        self.on_events(std::slice::from_ref(event));
    }

    /// Writes the whole run with one `write_all`.
    fn on_events(&mut self, events: &[Event]) {
        if let Some(w) = self.writer.as_mut().filter(|_| !self.sealed) {
            if let Err(e) = w.write_events(events) {
                self.fail(e);
            }
        }
    }

    fn on_finish(&mut self, trace: &Trace) {
        if let Some(w) = self.writer.as_mut().filter(|_| !self.sealed) {
            match w.seal(trace.objects(), trace.thread_objs().collect()) {
                Ok(()) => self.sealed = true,
                Err(e) => self.fail(e),
            }
        }
    }
}

impl<W: Write + Send> Drop for SpillSink<W> {
    fn drop(&mut self) {
        // Dropped mid-stream (a panicking trial, an early exit): seal
        // anyway, so the artifact on disk is structurally valid. The
        // events are what was saved; the footer's object table and
        // bindings are empty.
        if let Some(w) = self.writer.as_mut().filter(|_| !self.sealed) {
            let _ = w.seal(&ObjectTable::new(), BTreeMap::new());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, Label, ObjKind};

    fn sample_trace() -> Trace {
        let mut trace = Trace::new();
        let t0 = ThreadId::new(0);
        let obj = trace
            .objects_mut()
            .create(ObjKind::Thread, Label::new("<main>"), None, vec![]);
        trace.bind_thread(t0, obj);
        let lock = trace
            .objects_mut()
            .create(ObjKind::Lock, Label::new("main:3"), None, vec![]);
        trace.push(t0, EventKind::ThreadStart);
        trace.push(t0, EventKind::acquire(lock, Label::new("main:4")));
        trace.push(t0, EventKind::release(lock, Label::new("main:5")));
        trace.push(t0, EventKind::ThreadExit);
        trace
    }

    #[test]
    fn round_trips_a_trace() {
        let trace = sample_trace();
        let bytes = write_trace(Vec::new(), &trace).unwrap();
        let back = read_trace(&bytes[..]).unwrap();
        assert_eq!(trace, back);
    }

    /// The reserve of `read_trace_bytes` is an upper bound on the event
    /// count: a payload-free event costs each encoding exactly its
    /// smallest record, and the events still read back.
    #[test]
    fn smallest_event_records_bound_the_reserve() {
        for (format, smallest) in [
            (TraceFormat::Jsonl, SMALLEST_JSONL_EVENT.len()),
            (TraceFormat::Binary, SMALLEST_BINARY_EVENT),
        ] {
            let mut trace = Trace::new();
            let empty = write_trace_as(Vec::new(), &trace, format).unwrap();
            trace.push(ThreadId::new(0), EventKind::Yield);
            let one = write_trace_as(Vec::new(), &trace, format).unwrap();
            assert_eq!(one.len() - empty.len(), smallest, "{format}");
            assert_eq!(read_trace_bytes(&one).unwrap(), trace, "{format}");
        }
    }

    #[test]
    fn rejects_wrong_version() {
        let trace = sample_trace();
        let bytes = write_trace(Vec::new(), &trace).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let bumped = text.replacen("\"version\":2", "\"version\":3", 1);
        match read_trace(bumped.as_bytes()) {
            Err(SpillError::VersionMismatch { found: 3, expected }) => {
                assert_eq!(expected, TRACE_FORMAT_VERSION);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_wrong_format_and_non_artifacts() {
        assert!(matches!(
            read_trace(&b"{\"not\": \"an artifact\"}\n"[..]),
            Err(SpillError::NotAnArtifact)
        ));
        assert!(matches!(
            read_trace(&b""[..]),
            Err(SpillError::NotAnArtifact)
        ));
        let trace = sample_trace();
        let bytes = write_trace(Vec::new(), &trace).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let renamed = text.replacen("df-trace", "df-other", 1);
        assert!(matches!(
            read_trace(renamed.as_bytes()),
            Err(SpillError::WrongFormat(f)) if f == "df-other"
        ));
    }

    #[test]
    fn rejects_truncation() {
        let trace = sample_trace();
        let bytes = write_trace(Vec::new(), &trace).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let without_footer: String = text
            .lines()
            .filter(|l| !l.starts_with("{\"Footer\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(matches!(
            read_trace(without_footer.as_bytes()),
            Err(SpillError::MissingFooter)
        ));
    }

    #[test]
    fn corrupt_line_is_reported_with_its_1_based_number() {
        let trace = sample_trace();
        let bytes = write_trace(Vec::new(), &trace).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        // Chop the third line (an event) mid-JSON, as a crashed writer would.
        let half = lines[2].len() / 2;
        lines[2].truncate(half);
        let corrupt: String = lines.iter().map(|l| format!("{l}\n")).collect();
        match read_trace(corrupt.as_bytes()) {
            Err(e @ SpillError::MalformedLine { line: 3, .. }) => {
                assert_eq!(e.line(), Some(3));
                assert!(e.to_string().contains("line 3"), "message: {e}");
            }
            other => panic!("expected MalformedLine at line 3, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_header_is_reported_with_its_line() {
        let trace = sample_trace();
        let bytes = write_trace(Vec::new(), &trace).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let header = text.lines().next().unwrap();
        let doubled = format!("{header}\n{text}");
        match read_trace(doubled.as_bytes()) {
            Err(SpillError::MalformedLine { line: 2, detail }) => {
                assert!(detail.contains("duplicate header"));
            }
            other => panic!("expected MalformedLine at line 2, got {other:?}"),
        }
    }

    #[test]
    fn spill_sink_streams_and_seals() {
        let trace = sample_trace();
        let sink = std::sync::Arc::new(std::sync::Mutex::new(
            SpillSink::new(Vec::<u8>::new()).unwrap(),
        ));
        {
            let mut s = sink.lock().unwrap();
            for event in trace.events() {
                s.on_event(event);
            }
            // The substrate hands over a trace with no events in
            // streaming mode; only objects and bindings matter here.
            let mut skeleton = Trace::new();
            *skeleton.objects_mut() = trace.objects().clone();
            for (t, o) in trace.thread_objs() {
                skeleton.bind_thread(t, o);
            }
            s.on_finish(&skeleton);
            let (events, bytes) = s.close().unwrap();
            assert_eq!(events, trace.events().len() as u64);
            assert!(bytes > 0);
            assert!(s.is_sealed());
        }
    }

    #[test]
    fn unsealed_spill_reports_missing_footer() {
        let mut sink = SpillSink::new(Vec::<u8>::new()).unwrap();
        sink.on_event(&Event::new(0, ThreadId::new(0), EventKind::Yield));
        assert!(matches!(sink.close(), Err(SpillError::MissingFooter)));
    }

    /// A `Write` target whose bytes outlive the sink that owns it.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

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

    /// 256 events on one lock; every 8th acquisition names a new, ever
    /// longer site, so the binary string table grows mid-stream.
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
                Label::new(&format!("grow:{i}:{}", "x".repeat(200 + 16 * i)))
            } else {
                Label::new("r:2")
            };
            trace.push(t0, EventKind::acquire(lock, site));
            trace.push(t0, EventKind::release(lock, Label::new("r:3")));
        }
        trace
    }

    /// Feeds `trace` the way a streaming substrate does: events one at a
    /// time, then a finish carrying only objects and bindings.
    fn feed(sink: &mut dyn EventSink, trace: &Trace) {
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
    fn decodes_through_a_small_read_buffer() {
        // Frames and lines straddle the buffer's end, and the long labels
        // outgrow it.
        let trace = long_label_trace();
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let bytes = write_trace_as(Vec::new(), &trace, format).unwrap();
            for capacity in [5, 7, 64] {
                let input = io::BufReader::with_capacity(capacity, &bytes[..]);
                assert_eq!(read_trace(input).unwrap(), trace, "{format} at {capacity}");
            }
        }
    }

    #[test]
    fn spill_sink_matches_write_trace_byte_for_byte() {
        let trace = long_label_trace();
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let direct = write_trace_as(Vec::new(), &trace, format).unwrap();
            let buf = SharedBuf::default();
            let mut sink = SpillSink::with_format(buf.clone(), format).unwrap();
            feed(&mut sink, &trace);
            let (events, bytes) = sink.close().unwrap();
            assert!(sink.is_sealed());
            assert_eq!(events, trace.events().len() as u64);
            assert_eq!(buf.bytes(), direct, "format {format}");
            assert_eq!(bytes, direct.len() as u64);
        }
    }

    #[test]
    fn dropping_mid_stream_still_seals_the_artifact() {
        let trace = long_label_trace();
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let buf = SharedBuf::default();
            let mut sink = SpillSink::with_format(buf.clone(), format).unwrap();
            for event in trace.events().iter().take(7) {
                sink.on_event(event);
            }
            drop(sink); // no on_finish: simulates a dying trial
            let back = read_trace_bytes(&buf.bytes()).expect("dropped spill still parses");
            assert_eq!(back.events().len(), 7, "format {format}");
            assert!(back.objects().is_empty(), "empty emergency footer");
        }
    }

    #[test]
    fn dropped_halfway_spill_keeps_every_event_it_saw() {
        let trace = long_label_trace();
        let half = trace.events().len() / 2;
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let buf = SharedBuf::default();
            let mut sink = SpillSink::with_format(buf.clone(), format).unwrap();
            for event in &trace.events()[..half] {
                sink.on_event(event);
            }
            drop(sink);
            let back = read_trace_bytes(&buf.bytes()).expect("dropped spill still parses");
            assert_eq!(back.events(), &trace.events()[..half], "format {format}");
        }
    }

    #[test]
    fn failed_spill_writes_nothing_more_on_drop() {
        /// Accepts the header, then fails every write, counting calls.
        struct FailAfterHeader(std::sync::Arc<std::sync::atomic::AtomicU64>);
        impl Write for FailAfterHeader {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                match self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed) {
                    0 => Ok(buf.len()),
                    _ => Err(io::Error::other("disk full")),
                }
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let trace = sample_trace();
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let calls = std::sync::Arc::default();
            let mut sink =
                SpillSink::with_format(FailAfterHeader(std::sync::Arc::clone(&calls)), format)
                    .unwrap();
            feed(&mut sink, &trace);
            assert!(matches!(sink.close(), Err(SpillError::Io(_))));
            let attempts = calls.load(std::sync::atomic::Ordering::Relaxed);
            drop(sink);
            assert_eq!(
                calls.load(std::sync::atomic::Ordering::Relaxed),
                attempts,
                "format {format}: a failed spill must not be sealed on drop"
            );
        }
    }
}
