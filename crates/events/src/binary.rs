//! The compact binary trace format (binary `df-trace`).
//!
//! The writer stamps [`TRACE_BINARY_FORMAT_VERSION`]; the reader also
//! accepts every version down to [`TRACE_BINARY_MIN_FORMAT_VERSION`].
//!
//! Carries exactly the same envelope as the JSONL v1 format in
//! [`crate::spill`] — a versioned header, one record per [`Event`] in
//! sequence order, and a footer with the [`ObjectTable`] and
//! thread→object bindings — but encoded as length-prefixed binary
//! frames instead of JSON lines:
//!
//! 1. a 4-byte magic ([`TRACE_BINARY_MAGIC`], first byte non-UTF-8 so no
//!    text artifact can collide with it),
//! 2. frames, each `varint(payload_len) ++ payload`, where the first
//!    payload byte is a frame tag (header / string definition / event /
//!    footer / seal),
//! 3. a trailing empty **seal** frame, so truncation anywhere — even
//!    after the footer — is detectable.
//!
//! Strings (caller-site [`Label`]s and thread names) are interned into a
//! per-file string table: a `StrDef` frame defines id `n` (ids are dense
//! and strictly increasing) before the first frame that references it,
//! so events shrink to a handful of varints. All ids, sequence numbers
//! and lengths are LEB128 varints.
//!
//! The encoding is canonical: re-encoding a decoded trace reproduces the
//! input bytes, and decoding then writing JSONL v1 is byte-identical to
//! writing JSONL v1 directly (enforced by property tests). Frame numbers
//! in errors are 1-based (the header is frame 1), mirroring the line
//! numbers of the JSONL reader.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::io::Write;

use crate::spill::{SpillError, TRACE_FORMAT};
use crate::{
    AcquireMode, Event, EventKind, IndexFrame, Label, ObjId, ObjKind, ObjectTable, ThreadId, Trace,
};

/// Leading magic of a binary trace artifact. The first byte is not valid
/// UTF-8, so format sniffing can never confuse a binary file with JSONL.
/// The magic is shared by versions 2 and 3 — the header frame carries the
/// authoritative version.
pub const TRACE_BINARY_MAGIC: [u8; 4] = [0xDF, b'T', b'2', b'\n'];

/// Version stamped into the binary header frame by the writer.
///
/// Version 3 added the mode-aware vocabulary (shared acquire/release/
/// blocked, `TryAcquire`, condvar wait/notify) as new event-kind tags;
/// every tag of version 2 encodes byte-identically, so a trace that uses
/// none of the new kinds differs from its v2 encoding only in this header
/// byte.
pub const TRACE_BINARY_FORMAT_VERSION: u32 = 3;

/// Oldest header version [`read_binary_trace`] still accepts.
pub const TRACE_BINARY_MIN_FORMAT_VERSION: u32 = 2;

/// Frame tags (first payload byte of every frame).
mod tag {
    pub const HEADER: u8 = 1;
    pub const STR_DEF: u8 = 2;
    pub const EVENT: u8 = 3;
    pub const FOOTER: u8 = 4;
    pub const SEAL: u8 = 5;
}

/// Event-kind tags inside an event frame.
mod kind {
    pub const ACQUIRE: u8 = 1;
    pub const RELEASE: u8 = 2;
    pub const REACQUIRE: u8 = 3;
    pub const RERELEASE: u8 = 4;
    pub const CALL: u8 = 5;
    pub const RETURN: u8 = 6;
    pub const NEW: u8 = 7;
    pub const SPAWN: u8 = 8;
    pub const THREAD_START: u8 = 9;
    pub const THREAD_EXIT: u8 = 10;
    pub const JOIN: u8 = 11;
    pub const BLOCKED: u8 = 12;
    pub const UNBLOCKED: u8 = 13;
    pub const YIELD: u8 = 14;
    pub const WORK: u8 = 15;
    // Tags 16-18 are retired (they encoded shared-variable accesses and
    // atomic-block markers) and must never be reused: an old artifact
    // carrying them must keep failing with "unknown event kind tag".
    pub const WAIT: u8 = 19;
    pub const NOTIFY: u8 = 20;
    // Tags 21+ require a version-3 header; a v2 artifact containing them
    // is rejected as malformed.
    pub const ACQUIRE_SHARED: u8 = 21;
    pub const RELEASE_SHARED: u8 = 22;
    pub const BLOCKED_SHARED: u8 = 23;
    pub const TRY_ACQUIRE: u8 = 24;
    pub const COND_WAIT: u8 = 25;
    pub const COND_NOTIFY: u8 = 26;

    /// Smallest tag that needs a version-3 header.
    pub const FIRST_V3: u8 = ACQUIRE_SHARED;
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Appends one `varint(len) ++ payload` frame.
fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

/// Marks a label with no string id yet in [`BinaryEncoder`]'s table.
const NO_STR: u32 = u32::MAX;

/// Streaming encoder for the binary format: turns events and the footer
/// into frame bytes, maintaining the per-file string table. Pure — it
/// never touches I/O; [`crate::BinaryTraceWriter`] does the writing.
pub(crate) struct BinaryEncoder {
    /// String id of each label defined so far, indexed by
    /// [`Label::index`]; [`NO_STR`] where none is defined yet.
    labels: Vec<u32>,
    names: HashMap<String, u32>,
    next_str: u32,
    /// The event payload under construction, kept across events so
    /// encoding allocates only while frames still grow.
    payload: Vec<u8>,
}

impl BinaryEncoder {
    /// Creates an encoder and returns the artifact preamble (magic +
    /// header frame).
    pub(crate) fn new() -> (Self, Vec<u8>) {
        let mut out = Vec::with_capacity(32);
        out.extend_from_slice(&TRACE_BINARY_MAGIC);
        let mut payload = Vec::with_capacity(16);
        payload.push(tag::HEADER);
        put_varint(&mut payload, TRACE_FORMAT.len() as u64);
        payload.extend_from_slice(TRACE_FORMAT.as_bytes());
        put_varint(&mut payload, u64::from(TRACE_BINARY_FORMAT_VERSION));
        put_frame(&mut out, &payload);
        (
            BinaryEncoder {
                labels: Vec::new(),
                names: HashMap::new(),
                next_str: 0,
                payload: Vec::with_capacity(24),
            },
            out,
        )
    }

    fn def_str(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> u32 {
        let id = self.next_str;
        self.next_str += 1;
        let mut payload = Vec::with_capacity(bytes.len() + 8);
        payload.push(tag::STR_DEF);
        put_varint(&mut payload, u64::from(id));
        put_varint(&mut payload, bytes.len() as u64);
        payload.extend_from_slice(bytes);
        put_frame(out, &payload);
        id
    }

    /// Interns a label, emitting its `StrDef` frame into `out` on first
    /// use, and returns its string id.
    fn label_id(&mut self, label: Label, out: &mut Vec<u8>) -> u32 {
        let slot = label.index() as usize;
        match self.labels.get(slot) {
            Some(&id) if id != NO_STR => return id,
            Some(_) => {}
            None => self.labels.resize(slot + 1, NO_STR),
        }
        let id = self.def_str(label.as_str().as_bytes(), out);
        self.labels[slot] = id;
        id
    }

    /// Interns an arbitrary string (thread names), like [`Self::label_id`].
    fn name_id(&mut self, name: &str, out: &mut Vec<u8>) -> u32 {
        if let Some(&id) = self.names.get(name) {
            return id;
        }
        let id = self.def_str(name.as_bytes(), out);
        self.names.insert(name.to_string(), id);
        id
    }

    /// Encodes one event (string definitions first, then the event
    /// frame) into `out`.
    pub(crate) fn encode_event(&mut self, event: &Event, out: &mut Vec<u8>) {
        // Taken out of `self` so string definitions can go to `out` while
        // the payload is half built.
        let mut p = std::mem::take(&mut self.payload);
        p.clear();
        p.push(tag::EVENT);
        put_varint(&mut p, event.seq);
        put_varint(&mut p, u64::from(event.thread.as_u32()));
        match &event.kind {
            EventKind::Acquire {
                lock,
                site,
                held,
                context,
                mode,
            } => {
                // Shared acquisitions get their own tag so exclusive
                // events stay byte-identical to the v2 encoding.
                p.push(match mode {
                    AcquireMode::Exclusive => kind::ACQUIRE,
                    AcquireMode::Shared => kind::ACQUIRE_SHARED,
                });
                put_varint(&mut p, u64::from(lock.as_u32()));
                put_varint(&mut p, u64::from(self.label_id(*site, out)));
                put_varint(&mut p, held.len() as u64);
                for h in held {
                    put_varint(&mut p, u64::from(h.as_u32()));
                }
                put_varint(&mut p, context.len() as u64);
                for c in context {
                    put_varint(&mut p, u64::from(self.label_id(*c, out)));
                }
            }
            EventKind::Release { lock, site, mode } => {
                p.push(match mode {
                    AcquireMode::Exclusive => kind::RELEASE,
                    AcquireMode::Shared => kind::RELEASE_SHARED,
                });
                put_varint(&mut p, u64::from(lock.as_u32()));
                put_varint(&mut p, u64::from(self.label_id(*site, out)));
            }
            EventKind::Reacquire { lock, site } => {
                p.push(kind::REACQUIRE);
                put_varint(&mut p, u64::from(lock.as_u32()));
                put_varint(&mut p, u64::from(self.label_id(*site, out)));
            }
            EventKind::Rerelease { lock, site } => {
                p.push(kind::RERELEASE);
                put_varint(&mut p, u64::from(lock.as_u32()));
                put_varint(&mut p, u64::from(self.label_id(*site, out)));
            }
            EventKind::Call { site } => {
                p.push(kind::CALL);
                put_varint(&mut p, u64::from(self.label_id(*site, out)));
            }
            EventKind::Return => p.push(kind::RETURN),
            EventKind::New { obj } => {
                p.push(kind::NEW);
                put_varint(&mut p, u64::from(obj.as_u32()));
            }
            EventKind::Spawn { child, child_obj } => {
                p.push(kind::SPAWN);
                put_varint(&mut p, u64::from(child.as_u32()));
                put_varint(&mut p, u64::from(child_obj.as_u32()));
            }
            EventKind::ThreadStart => p.push(kind::THREAD_START),
            EventKind::ThreadExit => p.push(kind::THREAD_EXIT),
            EventKind::Join { target } => {
                p.push(kind::JOIN);
                put_varint(&mut p, u64::from(target.as_u32()));
            }
            EventKind::Blocked { lock, mode } => {
                p.push(match mode {
                    AcquireMode::Exclusive => kind::BLOCKED,
                    AcquireMode::Shared => kind::BLOCKED_SHARED,
                });
                put_varint(&mut p, u64::from(lock.as_u32()));
            }
            EventKind::Unblocked { lock } => {
                p.push(kind::UNBLOCKED);
                put_varint(&mut p, u64::from(lock.as_u32()));
            }
            EventKind::Yield => p.push(kind::YIELD),
            EventKind::Work { units } => {
                p.push(kind::WORK);
                put_varint(&mut p, u64::from(*units));
            }
            EventKind::Wait { lock, site } => {
                p.push(kind::WAIT);
                put_varint(&mut p, u64::from(lock.as_u32()));
                put_varint(&mut p, u64::from(self.label_id(*site, out)));
            }
            EventKind::Notify { lock, site, all } => {
                p.push(kind::NOTIFY);
                put_varint(&mut p, u64::from(lock.as_u32()));
                put_varint(&mut p, u64::from(self.label_id(*site, out)));
                p.push(u8::from(*all));
            }
            EventKind::TryAcquire {
                lock,
                site,
                acquired,
                mode,
            } => {
                p.push(kind::TRY_ACQUIRE);
                put_varint(&mut p, u64::from(lock.as_u32()));
                put_varint(&mut p, u64::from(self.label_id(*site, out)));
                p.push(u8::from(*acquired));
                p.push(match mode {
                    AcquireMode::Exclusive => 0,
                    AcquireMode::Shared => 1,
                });
            }
            EventKind::CondWait {
                condvar,
                lock,
                site,
            } => {
                p.push(kind::COND_WAIT);
                put_varint(&mut p, u64::from(condvar.as_u32()));
                put_varint(&mut p, u64::from(lock.as_u32()));
                put_varint(&mut p, u64::from(self.label_id(*site, out)));
            }
            EventKind::CondNotify { condvar, site, all } => {
                p.push(kind::COND_NOTIFY);
                put_varint(&mut p, u64::from(condvar.as_u32()));
                put_varint(&mut p, u64::from(self.label_id(*site, out)));
                p.push(u8::from(*all));
            }
        }
        put_frame(out, &p);
        self.payload = p;
    }

    /// Encodes the footer frame plus the trailing seal frame into `out`.
    pub(crate) fn encode_finish(
        &mut self,
        objects: &ObjectTable,
        thread_objs: BTreeMap<ThreadId, ObjId>,
        out: &mut Vec<u8>,
    ) {
        let mut p = Vec::with_capacity(64);
        p.push(tag::FOOTER);
        put_varint(&mut p, objects.len() as u64);
        for meta in objects.iter() {
            put_varint(&mut p, u64::from(meta.id.as_u32()));
            p.push(match meta.kind {
                ObjKind::Lock => 0,
                ObjKind::Thread => 1,
                ObjKind::Plain => 2,
                // Byte 3 is retired (shared variables); never reuse it.
            });
            put_varint(&mut p, u64::from(self.label_id(meta.site, out)));
            match meta.owner {
                None => put_varint(&mut p, 0),
                Some(o) => put_varint(&mut p, u64::from(o.as_u32()) + 1),
            }
            put_varint(&mut p, meta.index.len() as u64);
            for frame in &meta.index {
                put_varint(&mut p, u64::from(self.label_id(frame.site, out)));
                put_varint(&mut p, u64::from(frame.count));
            }
            put_varint(&mut p, meta.seq);
            match &meta.name {
                None => put_varint(&mut p, 0),
                Some(n) => {
                    let id = self.name_id(n, out);
                    put_varint(&mut p, u64::from(id) + 1);
                }
            }
        }
        put_varint(&mut p, thread_objs.len() as u64);
        for (thread, obj) in thread_objs {
            put_varint(&mut p, u64::from(thread.as_u32()));
            put_varint(&mut p, u64::from(obj.as_u32()));
        }
        put_frame(out, &p);
        put_frame(out, &[tag::SEAL]);
    }
}

/// Streams one execution into the binary trace format — the binary
/// counterpart of [`crate::TraceWriter`], with the same surface.
/// Dropping without [`BinaryTraceWriter::finish`] leaves a truncated
/// artifact that [`read_binary_trace`] rejects.
pub struct BinaryTraceWriter<W: Write> {
    out: W,
    encoder: BinaryEncoder,
    scratch: Vec<u8>,
    events: u64,
    bytes: u64,
}

impl<W: Write> BinaryTraceWriter<W> {
    /// Starts an artifact by writing the magic and header frame.
    pub fn new(mut out: W) -> Result<Self, SpillError> {
        let (encoder, preamble) = BinaryEncoder::new();
        out.write_all(&preamble)?;
        Ok(BinaryTraceWriter {
            out,
            encoder,
            scratch: Vec::with_capacity(64),
            events: 0,
            bytes: preamble.len() as u64,
        })
    }

    /// Appends one event frame (plus any new string definitions).
    pub fn write_event(&mut self, event: &Event) -> Result<(), SpillError> {
        self.scratch.clear();
        self.encoder.encode_event(event, &mut self.scratch);
        self.out.write_all(&self.scratch)?;
        self.events += 1;
        self.bytes += self.scratch.len() as u64;
        Ok(())
    }

    /// Number of event frames written so far.
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Bytes written so far (magic + header + events + string table).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Seals the artifact with the footer and seal frames and returns
    /// the writer.
    pub fn finish(
        mut self,
        objects: &ObjectTable,
        thread_objs: BTreeMap<ThreadId, ObjId>,
    ) -> Result<W, SpillError> {
        self.seal(objects, thread_objs)?;
        Ok(self.out)
    }

    /// Writes and flushes the footer and seal frames, counting their
    /// bytes.
    pub(crate) fn seal(
        &mut self,
        objects: &ObjectTable,
        thread_objs: BTreeMap<ThreadId, ObjId>,
    ) -> Result<(), SpillError> {
        self.scratch.clear();
        self.encoder
            .encode_finish(objects, thread_objs, &mut self.scratch);
        self.out.write_all(&self.scratch)?;
        self.bytes += self.scratch.len() as u64;
        self.out.flush()?;
        Ok(())
    }
}

/// Writes a complete in-memory trace as one binary artifact.
pub fn write_binary_trace<W: Write>(out: W, trace: &Trace) -> Result<W, SpillError> {
    let mut w = BinaryTraceWriter::new(out)?;
    for event in trace.events() {
        w.write_event(event)?;
    }
    w.finish(trace.objects(), trace.thread_objs().collect())
}

/// Cursor over one frame's payload; every decoding failure carries the
/// frame's 1-based number, mirroring the JSONL reader's line numbers.
struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
    frame: u64,
}

impl<'a> FrameReader<'a> {
    fn bad(&self, detail: impl Into<String>) -> SpillError {
        SpillError::MalformedFrame {
            frame: self.frame,
            detail: detail.into(),
        }
    }

    fn byte(&mut self) -> Result<u8, SpillError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| self.bad("truncated frame payload"))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, SpillError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 63 && b > 1 {
                return Err(self.bad("varint overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn varint_u32(&mut self) -> Result<u32, SpillError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| self.bad(format!("id {v} overflows u32")))
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SpillError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.bad("truncated frame payload"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn done(&self) -> Result<(), SpillError> {
        if self.pos != self.buf.len() {
            return Err(self.bad(format!(
                "{} trailing byte(s) in frame",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }

    fn str_ref(&mut self, strings: &[Label]) -> Result<Label, SpillError> {
        let id = self.varint_u32()? as usize;
        strings
            .get(id)
            .copied()
            .ok_or_else(|| self.bad(format!("reference to undefined string {id}")))
    }

    fn obj_id(&mut self) -> Result<ObjId, SpillError> {
        Ok(ObjId::new(self.varint_u32()?))
    }

    fn thread_id(&mut self) -> Result<ThreadId, SpillError> {
        Ok(ThreadId::new(self.varint_u32()?))
    }
}

/// Reads a binary artifact back into an in-memory [`Trace`].
///
/// # Errors
///
/// Rejects inputs without the magic ([`SpillError::NotAnArtifact`]), with
/// a foreign format name ([`SpillError::WrongFormat`]) or version
/// ([`SpillError::VersionMismatch`]), truncated before the footer
/// ([`SpillError::MissingFooter`]) or between footer and seal
/// ([`SpillError::MissingSeal`]), with frames after the seal
/// ([`SpillError::TrailingData`]), or with any corrupt frame
/// ([`SpillError::MalformedFrame`], carrying the 1-based frame number) —
/// and never panics, whatever the bytes.
pub fn read_binary_trace(bytes: &[u8]) -> Result<Trace, SpillError> {
    if bytes.len() < TRACE_BINARY_MAGIC.len() || bytes[..4] != TRACE_BINARY_MAGIC {
        return Err(SpillError::NotAnArtifact);
    }
    let mut pos = TRACE_BINARY_MAGIC.len();
    let mut frame_no = 0u64;
    let mut strings: Vec<Label> = Vec::new();
    let mut trace = Trace::new();
    let mut footer_seen = false;
    let mut sealed = false;
    let mut header_version = TRACE_BINARY_FORMAT_VERSION;

    while pos < bytes.len() {
        frame_no += 1;
        if sealed {
            return Err(SpillError::TrailingData);
        }
        // Length prefix (decoded by hand: the frame body is not yet
        // delimited, so FrameReader cannot be used here).
        let mut len = 0u64;
        let mut shift = 0u32;
        loop {
            let b = *bytes.get(pos).ok_or(SpillError::MalformedFrame {
                frame: frame_no,
                detail: "truncated length prefix".to_string(),
            })?;
            pos += 1;
            if shift >= 63 && b > 1 {
                return Err(SpillError::MalformedFrame {
                    frame: frame_no,
                    detail: "length prefix overflows u64".to_string(),
                });
            }
            len |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        let end = pos.checked_add(len).filter(|&e| e <= bytes.len()).ok_or(
            SpillError::MalformedFrame {
                frame: frame_no,
                detail: format!("length prefix {len} runs past end of file"),
            },
        )?;
        let mut f = FrameReader {
            buf: &bytes[pos..end],
            pos: 0,
            frame: frame_no,
        };
        pos = end;

        let tag = f.byte().map_err(|_| SpillError::MalformedFrame {
            frame: frame_no,
            detail: "empty frame (no tag byte)".to_string(),
        })?;
        if frame_no == 1 && tag != tag::HEADER {
            return Err(SpillError::MalformedFrame {
                frame: 1,
                detail: "first frame is not a header".to_string(),
            });
        }
        match tag {
            tag::HEADER => {
                if frame_no != 1 {
                    return Err(f.bad("duplicate header"));
                }
                let name_len = f.varint()? as usize;
                let name = std::str::from_utf8(f.take(name_len)?)
                    .map_err(|_| f.bad("header format name is not UTF-8"))?
                    .to_string();
                let version = f.varint_u32()?;
                f.done()?;
                if name != TRACE_FORMAT {
                    return Err(SpillError::WrongFormat(name));
                }
                if !(TRACE_BINARY_MIN_FORMAT_VERSION..=TRACE_BINARY_FORMAT_VERSION)
                    .contains(&version)
                {
                    return Err(SpillError::VersionMismatch {
                        found: version,
                        expected: TRACE_BINARY_FORMAT_VERSION,
                    });
                }
                header_version = version;
            }
            tag::STR_DEF => {
                if footer_seen {
                    return Err(SpillError::TrailingData);
                }
                let id = f.varint_u32()? as usize;
                if id != strings.len() {
                    return Err(f.bad(format!(
                        "string id {id} out of order (expected {})",
                        strings.len()
                    )));
                }
                let len = f.varint()? as usize;
                let text = std::str::from_utf8(f.take(len)?)
                    .map_err(|_| f.bad(format!("string {id} is not UTF-8")))?;
                strings.push(Label::new(text));
                f.done()?;
            }
            tag::EVENT => {
                if footer_seen {
                    return Err(SpillError::TrailingData);
                }
                let seq = f.varint()?;
                let thread = f.thread_id()?;
                let kind = read_kind(&mut f, &strings, header_version)?;
                f.done()?;
                let assigned = trace.push(thread, kind);
                if assigned != seq {
                    return Err(SpillError::MalformedFrame {
                        frame: frame_no,
                        detail: format!("event seq {seq} out of order (expected {assigned})"),
                    });
                }
            }
            tag::FOOTER => {
                if footer_seen {
                    return Err(SpillError::TrailingData);
                }
                read_footer(&mut f, &strings, &mut trace)?;
                f.done()?;
                footer_seen = true;
            }
            tag::SEAL => {
                if !footer_seen {
                    return Err(f.bad("seal frame before footer"));
                }
                f.done()?;
                sealed = true;
            }
            other => {
                return Err(f.bad(format!("unknown frame tag {other}")));
            }
        }
    }
    if frame_no == 0 {
        // Magic only, no frames at all: not even a header.
        return Err(SpillError::NotAnArtifact);
    }
    if !footer_seen {
        return Err(SpillError::MissingFooter);
    }
    if !sealed {
        return Err(SpillError::MissingSeal);
    }
    Ok(trace)
}

fn read_kind(
    f: &mut FrameReader<'_>,
    strings: &[Label],
    version: u32,
) -> Result<EventKind, SpillError> {
    let tag = f.byte()?;
    if tag >= kind::FIRST_V3 && version < 3 {
        return Err(f.bad(format!(
            "event kind tag {tag} requires format version 3 (header says {version})"
        )));
    }
    Ok(match tag {
        kind::ACQUIRE | kind::ACQUIRE_SHARED => {
            let lock = f.obj_id()?;
            let site = f.str_ref(strings)?;
            let held_len = f.varint()? as usize;
            let mut held = Vec::with_capacity(held_len.min(1024));
            for _ in 0..held_len {
                held.push(f.obj_id()?);
            }
            let ctx_len = f.varint()? as usize;
            let mut context = Vec::with_capacity(ctx_len.min(1024));
            for _ in 0..ctx_len {
                context.push(f.str_ref(strings)?);
            }
            let acq = EventKind::acquire(lock, site, held, context);
            if tag == kind::ACQUIRE_SHARED {
                acq.shared()
            } else {
                acq
            }
        }
        kind::RELEASE => EventKind::release(f.obj_id()?, f.str_ref(strings)?),
        kind::RELEASE_SHARED => EventKind::release(f.obj_id()?, f.str_ref(strings)?).shared(),
        kind::REACQUIRE => EventKind::Reacquire {
            lock: f.obj_id()?,
            site: f.str_ref(strings)?,
        },
        kind::RERELEASE => EventKind::Rerelease {
            lock: f.obj_id()?,
            site: f.str_ref(strings)?,
        },
        kind::CALL => EventKind::Call {
            site: f.str_ref(strings)?,
        },
        kind::RETURN => EventKind::Return,
        kind::NEW => EventKind::New { obj: f.obj_id()? },
        kind::SPAWN => EventKind::Spawn {
            child: f.thread_id()?,
            child_obj: f.obj_id()?,
        },
        kind::THREAD_START => EventKind::ThreadStart,
        kind::THREAD_EXIT => EventKind::ThreadExit,
        kind::JOIN => EventKind::Join {
            target: f.thread_id()?,
        },
        kind::BLOCKED => EventKind::blocked(f.obj_id()?),
        kind::BLOCKED_SHARED => EventKind::blocked(f.obj_id()?).shared(),
        kind::UNBLOCKED => EventKind::Unblocked { lock: f.obj_id()? },
        kind::YIELD => EventKind::Yield,
        kind::WORK => EventKind::Work {
            units: f.varint_u32()?,
        },
        kind::WAIT => EventKind::Wait {
            lock: f.obj_id()?,
            site: f.str_ref(strings)?,
        },
        kind::NOTIFY => {
            let lock = f.obj_id()?;
            let site = f.str_ref(strings)?;
            let all = match f.byte()? {
                0 => false,
                1 => true,
                b => return Err(f.bad(format!("bad bool byte {b}"))),
            };
            EventKind::Notify { lock, site, all }
        }
        kind::TRY_ACQUIRE => {
            let lock = f.obj_id()?;
            let site = f.str_ref(strings)?;
            let acquired = match f.byte()? {
                0 => false,
                1 => true,
                b => return Err(f.bad(format!("bad bool byte {b}"))),
            };
            let mode = match f.byte()? {
                0 => AcquireMode::Exclusive,
                1 => AcquireMode::Shared,
                b => return Err(f.bad(format!("bad mode byte {b}"))),
            };
            EventKind::try_acquire(lock, site, acquired).with_mode(mode)
        }
        kind::COND_WAIT => {
            let condvar = f.obj_id()?;
            let lock = f.obj_id()?;
            let site = f.str_ref(strings)?;
            EventKind::cond_wait(condvar, lock, site)
        }
        kind::COND_NOTIFY => {
            let condvar = f.obj_id()?;
            let site = f.str_ref(strings)?;
            let all = match f.byte()? {
                0 => false,
                1 => true,
                b => return Err(f.bad(format!("bad bool byte {b}"))),
            };
            EventKind::cond_notify(condvar, site, all)
        }
        other => return Err(f.bad(format!("unknown event kind tag {other}"))),
    })
}

fn read_footer(
    f: &mut FrameReader<'_>,
    strings: &[Label],
    trace: &mut Trace,
) -> Result<(), SpillError> {
    let objects = f.varint()? as usize;
    for _ in 0..objects {
        let id = f.obj_id()?;
        let kind = match f.byte()? {
            0 => ObjKind::Lock,
            1 => ObjKind::Thread,
            2 => ObjKind::Plain,
            b => return Err(f.bad(format!("unknown object kind byte {b}"))),
        };
        let site = f.str_ref(strings)?;
        let owner = match f.varint_u32()? {
            0 => None,
            n => Some(ObjId::new(n - 1)),
        };
        let index_len = f.varint()? as usize;
        let mut index = Vec::with_capacity(index_len.min(1024));
        for _ in 0..index_len {
            let site = f.str_ref(strings)?;
            let count = f.varint_u32()?;
            index.push(IndexFrame::new(site, count));
        }
        let seq = f.varint()?;
        let name = match f.varint_u32()? {
            0 => None,
            n => {
                let label = strings
                    .get((n - 1) as usize)
                    .ok_or_else(|| f.bad(format!("reference to undefined string {}", n - 1)))?;
                Some(label.as_str().to_string())
            }
        };
        let assigned = trace
            .objects_mut()
            .create_named(kind, site, owner, index, name);
        if assigned != id || trace.objects().get(assigned).seq != seq {
            return Err(f.bad(format!(
                "object {} out of order (expected {})",
                id.as_u32(),
                assigned.as_u32()
            )));
        }
    }
    let bindings = f.varint()? as usize;
    for _ in 0..bindings {
        let thread = f.thread_id()?;
        let obj = f.obj_id()?;
        trace.bind_thread(thread, obj);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::{read_trace, write_trace};
    use proptest::prelude::*;

    fn sample_trace() -> Trace {
        let mut trace = Trace::new();
        let t0 = ThreadId::new(0);
        let t1 = ThreadId::new(1);
        let main_obj = trace.objects_mut().create_named(
            ObjKind::Thread,
            Label::new("<main>"),
            None,
            vec![],
            Some("main".to_string()),
        );
        trace.bind_thread(t0, main_obj);
        let worker_obj = trace.objects_mut().create_named(
            ObjKind::Thread,
            Label::new("main:9"),
            Some(main_obj),
            vec![IndexFrame::new(Label::new("main:9"), 1)],
            Some("worker".to_string()),
        );
        trace.bind_thread(t1, worker_obj);
        let a = trace
            .objects_mut()
            .create(ObjKind::Lock, Label::new("main:3"), None, vec![]);
        let b =
            trace
                .objects_mut()
                .create(ObjKind::Lock, Label::new("main:4"), Some(main_obj), vec![]);
        trace.push(t0, EventKind::ThreadStart);
        trace.push(
            t0,
            EventKind::Spawn {
                child: t1,
                child_obj: worker_obj,
            },
        );
        trace.push(t1, EventKind::ThreadStart);
        trace.push(
            t0,
            EventKind::acquire(
                a,
                Label::new("main:10"),
                vec![],
                vec![Label::new("main:10")],
            ),
        );
        trace.push(
            t0,
            EventKind::acquire(
                b,
                Label::new("main:11"),
                vec![a],
                vec![Label::new("main:10"), Label::new("main:11")],
            ),
        );
        trace.push(t1, EventKind::blocked(b));
        trace.push(t0, EventKind::release(b, Label::new("main:12")));
        trace.push(t1, EventKind::unblocked(b));
        trace.push(t0, EventKind::release(a, Label::new("main:13")));
        trace.push(t0, EventKind::Join { target: t1 });
        trace.push(t1, EventKind::ThreadExit);
        trace.push(t0, EventKind::ThreadExit);
        trace
    }

    /// A kitchen-sink trace exercising every EventKind variant once.
    fn all_kinds_trace() -> Trace {
        let mut trace = Trace::new();
        let t0 = ThreadId::new(0);
        let obj = trace
            .objects_mut()
            .create(ObjKind::Thread, Label::new("<main>"), None, vec![]);
        trace.bind_thread(t0, obj);
        let lk = trace
            .objects_mut()
            .create(ObjKind::Lock, Label::new("k:1"), None, vec![]);
        let var = trace
            .objects_mut()
            .create(ObjKind::Plain, Label::new("k:2"), None, vec![]);
        let outer = trace
            .objects_mut()
            .create(ObjKind::Lock, Label::new("k:17"), None, vec![]);
        let l = |s: &str| Label::new(s);
        for kind in [
            EventKind::ThreadStart,
            EventKind::Call { site: l("k:3") },
            EventKind::New { obj: var },
            EventKind::acquire(lk, l("k:4"), vec![outer], vec![l("k:17"), l("k:4")]),
            EventKind::reacquire(lk, l("k:5")),
            EventKind::rerelease(lk, l("k:6")),
            EventKind::wait(lk, l("k:8")),
            EventKind::notify(lk, l("k:9"), false),
            EventKind::notify(lk, l("k:9"), true),
            EventKind::release(lk, l("k:11")),
            EventKind::Spawn {
                child: ThreadId::new(1),
                child_obj: obj,
            },
            EventKind::Join {
                target: ThreadId::new(1),
            },
            EventKind::blocked(lk),
            EventKind::unblocked(lk),
            EventKind::Yield,
            EventKind::Work { units: 70000 },
            EventKind::Return,
            EventKind::ThreadExit,
            // Version-3 vocabulary.
            EventKind::acquire(lk, l("k:12"), vec![], vec![l("k:12")]).shared(),
            EventKind::blocked(lk).shared(),
            EventKind::release(lk, l("k:13")).shared(),
            EventKind::try_acquire(lk, l("k:14"), true),
            EventKind::try_acquire(lk, l("k:14"), false).shared(),
            EventKind::cond_wait(var, lk, l("k:15")),
            EventKind::cond_notify(var, l("k:16"), false),
            EventKind::cond_notify(var, l("k:16"), true),
        ] {
            trace.push(t0, kind);
        }
        trace
    }

    #[test]
    fn round_trips_a_trace() {
        for trace in [sample_trace(), all_kinds_trace(), Trace::new()] {
            let bytes = write_binary_trace(Vec::new(), &trace).unwrap();
            let back = read_binary_trace(&bytes).unwrap();
            assert_eq!(trace, back);
        }
    }

    #[test]
    fn binary_is_canonical_reencoding_reproduces_bytes() {
        let trace = sample_trace();
        let bytes = write_binary_trace(Vec::new(), &trace).unwrap();
        let back = read_binary_trace(&bytes).unwrap();
        let again = write_binary_trace(Vec::new(), &back).unwrap();
        assert_eq!(bytes, again);
    }

    #[test]
    fn binary_read_then_jsonl_write_matches_direct_jsonl_write() {
        for trace in [sample_trace(), all_kinds_trace()] {
            let direct = write_trace(Vec::new(), &trace).unwrap();
            let bin = write_binary_trace(Vec::new(), &trace).unwrap();
            let via_binary = write_trace(Vec::new(), &read_binary_trace(&bin).unwrap()).unwrap();
            assert_eq!(direct, via_binary);
            assert_eq!(
                read_trace(&direct[..]).unwrap(),
                read_binary_trace(&bin).unwrap()
            );
        }
    }

    #[test]
    fn binary_is_smaller_than_jsonl() {
        let trace = sample_trace();
        let jsonl = write_trace(Vec::new(), &trace).unwrap();
        let bin = write_binary_trace(Vec::new(), &trace).unwrap();
        assert!(
            bin.len() * 3 < jsonl.len(),
            "binary ({}) should be well under a third of JSONL ({})",
            bin.len(),
            jsonl.len()
        );
    }

    #[test]
    fn rejects_non_artifacts() {
        assert!(matches!(
            read_binary_trace(b"{\"Header\":{}}"),
            Err(SpillError::NotAnArtifact)
        ));
        assert!(matches!(
            read_binary_trace(b""),
            Err(SpillError::NotAnArtifact)
        ));
        assert!(matches!(
            read_binary_trace(&TRACE_BINARY_MAGIC),
            Err(SpillError::NotAnArtifact)
        ));
    }

    /// Header frame layout: magic(4) ++ len(1) ++ tag(1) ++ name_len(1)
    /// ++ "df-trace"(8) ++ version(1): the version varint sits at
    /// offset 15.
    const VERSION_OFFSET: usize = 15;

    #[test]
    fn rejects_version_bump() {
        let bytes = write_binary_trace(Vec::new(), &sample_trace()).unwrap();
        let mut bumped = bytes.clone();
        assert_eq!(bumped[VERSION_OFFSET], TRACE_BINARY_FORMAT_VERSION as u8);
        bumped[VERSION_OFFSET] = TRACE_BINARY_FORMAT_VERSION as u8 + 1;
        match read_binary_trace(&bumped) {
            Err(SpillError::VersionMismatch { found, expected }) => {
                assert_eq!(found, TRACE_BINARY_FORMAT_VERSION + 1);
                assert_eq!(expected, TRACE_BINARY_FORMAT_VERSION);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
        // Below the accepted window is rejected too.
        let mut ancient = bytes;
        ancient[VERSION_OFFSET] = TRACE_BINARY_MIN_FORMAT_VERSION as u8 - 1;
        assert!(matches!(
            read_binary_trace(&ancient),
            Err(SpillError::VersionMismatch { found: 1, .. })
        ));
    }

    #[test]
    fn accepts_a_version_2_header_for_exclusive_traces() {
        // A v2 artifact is exactly today's encoding of a mode-free trace
        // with the header byte dialed back — assert that equivalence and
        // that the reader still takes it.
        let trace = sample_trace();
        let mut bytes = write_binary_trace(Vec::new(), &trace).unwrap();
        bytes[VERSION_OFFSET] = 2;
        let back = read_binary_trace(&bytes).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn rejects_v3_event_tags_under_a_v2_header() {
        // all_kinds_trace contains shared/try/condvar events, whose tags
        // did not exist in version 2.
        let mut bytes = write_binary_trace(Vec::new(), &all_kinds_trace()).unwrap();
        assert_eq!(bytes[VERSION_OFFSET], TRACE_BINARY_FORMAT_VERSION as u8);
        bytes[VERSION_OFFSET] = 2;
        match read_binary_trace(&bytes) {
            Err(SpillError::MalformedFrame { detail, .. }) => {
                assert!(
                    detail.contains("requires format version 3"),
                    "detail: {detail}"
                );
            }
            other => panic!("expected MalformedFrame, got {other:?}"),
        }
    }

    #[test]
    fn mode_free_traces_differ_from_v2_only_in_the_header_byte() {
        // The compat contract behind `accepts_a_version_2_header`: no
        // event of the old vocabulary changed its encoding.
        let bytes = write_binary_trace(Vec::new(), &sample_trace()).unwrap();
        let decoded = read_binary_trace(&bytes).unwrap();
        for e in decoded.events() {
            assert_ne!(e.kind.mode(), Some(AcquireMode::Shared));
        }
    }

    #[test]
    fn rejects_wrong_format_name() {
        let bytes = write_binary_trace(Vec::new(), &sample_trace()).unwrap();
        let mut renamed = bytes.clone();
        // "df-trace" starts at offset 7; flip it to "df-other".
        renamed[7..15].copy_from_slice(b"df-other");
        assert!(matches!(
            read_binary_trace(&renamed),
            Err(SpillError::WrongFormat(f)) if f == "df-other"
        ));
    }

    #[test]
    fn rejects_truncated_frame_with_its_index() {
        let bytes = write_binary_trace(Vec::new(), &sample_trace()).unwrap();
        // Chop one byte: the final (seal) frame's payload goes missing.
        let cut = &bytes[..bytes.len() - 1];
        match read_binary_trace(cut) {
            Err(e @ SpillError::MalformedFrame { .. }) => {
                assert!(e.frame().is_some());
                assert!(e.to_string().contains("malformed frame"), "message: {e}");
            }
            other => panic!("expected MalformedFrame, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_length_prefix() {
        let trace = sample_trace();
        let bytes = write_binary_trace(Vec::new(), &trace).unwrap();
        // Replace the seal with a length prefix that never terminates.
        let mut cut = bytes[..bytes.len() - 2].to_vec();
        cut.extend_from_slice(&[0x80; 12]);
        match read_binary_trace(&cut) {
            Err(SpillError::MalformedFrame { detail, .. }) => {
                assert!(detail.contains("length prefix"), "detail: {detail}");
            }
            other => panic!("expected MalformedFrame, got {other:?}"),
        }
        // And one that points past end of file.
        let mut overlong = bytes[..bytes.len() - 2].to_vec();
        overlong.push(100);
        match read_binary_trace(&overlong) {
            Err(SpillError::MalformedFrame { detail, .. }) => {
                assert!(detail.contains("runs past end"), "detail: {detail}");
            }
            other => panic!("expected MalformedFrame, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_frame_tag() {
        let bytes = write_binary_trace(Vec::new(), &sample_trace()).unwrap();
        // Insert a [len=1, tag=99] frame where the seal was, keeping the
        // seal after it so only the tag is wrong.
        let mut crafted = bytes[..bytes.len() - 2].to_vec();
        crafted.extend_from_slice(&[1, 99]);
        crafted.extend_from_slice(&bytes[bytes.len() - 2..]);
        match read_binary_trace(&crafted) {
            Err(SpillError::MalformedFrame { detail, .. }) => {
                assert!(detail.contains("unknown frame tag 99"), "detail: {detail}");
            }
            other => panic!("expected MalformedFrame, got {other:?}"),
        }
    }

    #[test]
    fn rejects_missing_seal_and_missing_footer() {
        let bytes = write_binary_trace(Vec::new(), &sample_trace()).unwrap();
        // Drop exactly the 2-byte seal frame: footer intact, seal gone.
        assert!(matches!(
            read_binary_trace(&bytes[..bytes.len() - 2]),
            Err(SpillError::MissingSeal)
        ));
        // Scan back to the start of the footer frame and cut there.
        let mut pos = TRACE_BINARY_MAGIC.len();
        let mut footer_start = None;
        while pos < bytes.len() {
            let start = pos;
            let mut len = 0u64;
            let mut shift = 0;
            loop {
                let b = bytes[pos];
                pos += 1;
                len |= u64::from(b & 0x7f) << shift;
                if b & 0x80 == 0 {
                    break;
                }
                shift += 7;
            }
            if bytes[pos] == 4 {
                footer_start = Some(start);
            }
            pos += len as usize;
        }
        let footer_start = footer_start.expect("artifact has a footer frame");
        assert!(matches!(
            read_binary_trace(&bytes[..footer_start]),
            Err(SpillError::MissingFooter)
        ));
    }

    #[test]
    fn rejects_trailing_data_after_seal() {
        let mut bytes = write_binary_trace(Vec::new(), &sample_trace()).unwrap();
        bytes.extend_from_slice(&[1, 14]);
        assert!(matches!(
            read_binary_trace(&bytes),
            Err(SpillError::TrailingData)
        ));
    }

    #[test]
    fn rejects_duplicate_header() {
        let bytes = write_binary_trace(Vec::new(), &sample_trace()).unwrap();
        // Re-insert the header frame (offset 4..16) before the seal.
        let mut doubled = bytes[..bytes.len() - 2].to_vec();
        doubled.extend_from_slice(&bytes[4..16]);
        doubled.extend_from_slice(&bytes[bytes.len() - 2..]);
        match read_binary_trace(&doubled) {
            Err(SpillError::MalformedFrame { detail, .. }) => {
                assert!(detail.contains("duplicate header"), "detail: {detail}");
            }
            other => panic!("expected MalformedFrame, got {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Fuzz-ish truncation: every strict prefix of a valid artifact
        /// must be rejected with an error, never a panic, never Ok.
        #[test]
        fn any_truncation_is_rejected(cut in 0usize..1000) {
            let bytes = write_binary_trace(Vec::new(), &sample_trace()).unwrap();
            let cut = cut % bytes.len();
            prop_assert!(read_binary_trace(&bytes[..cut]).is_err());
        }

        /// Fuzz-ish corruption: flipping any single byte never panics
        /// the reader (it may still parse if the flip lands in string
        /// content — that is fine; crashing is not).
        #[test]
        fn any_single_byte_flip_never_panics(pos in 0usize..1000, bit in 0u32..8) {
            let mut bytes = write_binary_trace(Vec::new(), &sample_trace()).unwrap();
            let pos = pos % bytes.len();
            bytes[pos] ^= 1 << bit;
            let _ = read_binary_trace(&bytes);
        }
    }
}
