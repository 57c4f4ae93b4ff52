//! The compact binary trace format (binary `df-trace`).
//!
//! The writer stamps [`TRACE_BINARY_FORMAT_VERSION`]; the reader also
//! accepts every version down to [`TRACE_BINARY_MIN_FORMAT_VERSION`].
//!
//! Carries exactly the same envelope as the JSONL format in
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
//! input bytes, and decoding then writing JSONL is byte-identical to
//! writing JSONL directly (enforced by property tests). Frame numbers
//! in errors are 1-based (the header is frame 1), mirroring the line
//! numbers of the JSONL reader.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::io::{self, BufRead, Read};

use crate::spill::{SpillError, TraceFooter, TRACE_FORMAT};
use crate::{
    AcquireMode, Event, EventKind, EventSink, IndexFrame, Label, ObjId, ObjKind, ObjectTable,
    ThreadId,
};

/// Leading magic of a binary trace artifact. The first byte is not valid
/// UTF-8, so format sniffing can never confuse a binary file with JSONL.
/// The magic is shared by versions 2 to 4 — the header frame carries the
/// authoritative version.
pub const TRACE_BINARY_MAGIC: [u8; 4] = [0xDF, b'T', b'2', b'\n'];

/// Version stamped into the binary header frame by the writer.
///
/// Version 3 added the mode-aware vocabulary (shared acquire/release/
/// blocked, `TryAcquire`, condvar wait/notify) as new event-kind tags.
/// Version 4 dropped the held set and context from acquire frames: the
/// analysis derives them from the stream. Every other frame encodes as
/// in version 3, so a trace without acquisitions or v3 kinds differs
/// from its v2 encoding only in this header byte.
pub const TRACE_BINARY_FORMAT_VERSION: u32 = 4;

/// Oldest header version the binary decoder still accepts.
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
/// never touches I/O; the spill module's trace writer does the writing.
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
            EventKind::Acquire { lock, site, mode } => {
                p.push(match mode {
                    AcquireMode::Exclusive => kind::ACQUIRE,
                    AcquireMode::Shared => kind::ACQUIRE_SHARED,
                });
                put_varint(&mut p, u64::from(lock.as_u32()));
                put_varint(&mut p, u64::from(self.label_id(*site, out)));
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

/// Cursor over one frame's payload; every decoding failure carries the
/// frame's 1-based number, mirroring the JSONL reader's line numbers.
struct FrameReader<'a> {
    buf: &'a [u8],
    pos: usize,
    frame: u64,
}

impl<'a> FrameReader<'a> {
    #[cold]
    #[inline(never)]
    fn bad(&self, detail: impl Into<String>) -> SpillError {
        SpillError::MalformedFrame {
            frame: self.frame,
            detail: detail.into(),
        }
    }

    #[inline(always)]
    fn byte(&mut self) -> Result<u8, SpillError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| self.bad("truncated frame payload"))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, SpillError> {
        // The first nine bytes hold 63 bits, so they cannot overflow:
        // read them in one pass. A longer or cut-off varint takes the
        // checked loop from its first byte again.
        let mut v = 0u64;
        for (i, &b) in self.buf[self.pos..].iter().take(9).enumerate() {
            v |= u64::from(b & 0x7f) << (7 * i);
            if b & 0x80 == 0 {
                self.pos += i + 1;
                return Ok(v);
            }
        }
        self.varint_slow()
    }

    #[cold]
    #[inline(never)]
    fn varint_slow(&mut self) -> Result<u64, SpillError> {
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

    #[inline(always)]
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

    #[inline(always)]
    fn done(&self) -> Result<(), SpillError> {
        if self.pos != self.buf.len() {
            return Err(self.bad(format!(
                "{} trailing byte(s) in frame",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }

    #[inline(always)]
    fn str_ref(&mut self, strings: &[Label]) -> Result<Label, SpillError> {
        let id = self.varint_u32()? as usize;
        strings
            .get(id)
            .copied()
            .ok_or_else(|| self.bad(format!("reference to undefined string {id}")))
    }

    #[inline(always)]
    fn obj_id(&mut self) -> Result<ObjId, SpillError> {
        Ok(ObjId::new(self.varint_u32()?))
    }

    #[inline(always)]
    fn thread_id(&mut self) -> Result<ThreadId, SpillError> {
        Ok(ThreadId::new(self.varint_u32()?))
    }
}

/// Reads one frame's length prefix byte by byte (the frame body is not
/// yet delimited, so [`FrameReader`] cannot be used here).
fn read_len<R: BufRead>(input: &mut R, frame: u64) -> Result<u64, SpillError> {
    let bad = |detail: &str| SpillError::MalformedFrame {
        frame,
        detail: detail.to_string(),
    };
    let mut len = 0u64;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8];
        input.read_exact(&mut b).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => bad("truncated length prefix"),
            _ => e.into(),
        })?;
        if shift >= 63 && b[0] > 1 {
            return Err(bad("length prefix overflows u64"));
        }
        len |= u64::from(b[0] & 0x7f) << shift;
        if b[0] & 0x80 == 0 {
            return Ok(len);
        }
        shift += 7;
    }
}

/// The length prefix of the frame at the start of `buf` and the
/// prefix's size, if `buf` holds the whole frame; `None` sends the
/// frame, or the error it carries, down the byte-by-byte path.
fn buffered_frame(buf: &[u8]) -> Option<(usize, usize)> {
    let mut len = 0u64;
    let mut shift = 0u32;
    for (i, &b) in buf.iter().enumerate() {
        if shift >= 63 && b > 1 {
            return None;
        }
        len |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            let len = usize::try_from(len).ok()?;
            return (buf.len() - (i + 1) >= len).then_some((i + 1, len));
        }
        shift += 7;
    }
    None
}

/// What the binary decoder carries from one frame to the next.
struct BinaryDecoder {
    strings: Vec<Label>,
    next_seq: u64,
    version: u32,
    footer: Option<TraceFooter>,
    sealed: bool,
}

impl BinaryDecoder {
    /// Decodes frame number `frame` from its payload, handing an event
    /// frame's event to `sink`. Inlined into the decode loop: without
    /// it, decoding a million events took a third longer.
    #[inline(always)]
    fn frame<S: EventSink + ?Sized>(
        &mut self,
        payload: &[u8],
        frame: u64,
        sink: &mut S,
    ) -> Result<(), SpillError> {
        let mut f = FrameReader {
            buf: payload,
            pos: 0,
            frame,
        };
        let tag = f.byte().map_err(|_| f.bad("empty frame (no tag byte)"))?;
        if frame == 1 && tag != tag::HEADER {
            return Err(f.bad("first frame is not a header"));
        }
        if self.footer.is_some() && matches!(tag, tag::STR_DEF | tag::EVENT | tag::FOOTER) {
            return Err(SpillError::TrailingData);
        }
        match tag {
            tag::HEADER => {
                if frame != 1 {
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
                self.version = version;
            }
            tag::STR_DEF => {
                let id = f.varint_u32()? as usize;
                if id != self.strings.len() {
                    return Err(f.bad(format!(
                        "string id {id} out of order (expected {})",
                        self.strings.len()
                    )));
                }
                let len = f.varint()? as usize;
                let text = std::str::from_utf8(f.take(len)?)
                    .map_err(|_| f.bad(format!("string {id} is not UTF-8")))?;
                self.strings.push(Label::new(text));
                f.done()?;
            }
            tag::EVENT => {
                let seq = f.varint()?;
                let thread = f.thread_id()?;
                let kind = read_kind(&mut f, &self.strings, self.version)?;
                f.done()?;
                if seq != self.next_seq {
                    return Err(f.bad(format!(
                        "event seq {seq} out of order (expected {})",
                        self.next_seq
                    )));
                }
                sink.on_event(&Event { seq, thread, kind });
                self.next_seq += 1;
            }
            tag::FOOTER => {
                self.footer = Some(read_footer(&mut f, &self.strings)?);
                f.done()?;
            }
            tag::SEAL => {
                if self.footer.is_none() {
                    return Err(f.bad("seal frame before footer"));
                }
                f.done()?;
                self.sealed = true;
            }
            other => return Err(f.bad(format!("unknown frame tag {other}"))),
        }
        Ok(())
    }
}

/// Decodes a binary artifact into `sink`: each event through
/// [`EventSink::on_event`] as its frame is read (a frame the input's
/// buffer holds whole is read in place, any other through one reused
/// payload buffer; an [`Event`] owns no heap memory, so each is built on
/// the stack). Returns the footer once the seal is verified.
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
pub(crate) fn decode_binary<R: BufRead, S: EventSink + ?Sized>(
    mut input: R,
    sink: &mut S,
) -> Result<TraceFooter, SpillError> {
    let mut magic = [0u8; TRACE_BINARY_MAGIC.len()];
    match input.read_exact(&mut magic) {
        Ok(()) if magic == TRACE_BINARY_MAGIC => {}
        Ok(()) => return Err(SpillError::NotAnArtifact),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            return Err(SpillError::NotAnArtifact)
        }
        Err(e) => return Err(e.into()),
    }
    let mut decoder = BinaryDecoder {
        strings: Vec::new(),
        next_seq: 0,
        version: TRACE_BINARY_FORMAT_VERSION,
        footer: None,
        sealed: false,
    };
    let mut payload = Vec::new();
    let mut frame = 0u64;
    loop {
        // Every frame the buffer holds whole is decoded in place.
        let buf = input.fill_buf()?;
        if buf.is_empty() {
            break;
        }
        let mut used = 0;
        while let Some((start, len)) = buffered_frame(&buf[used..]) {
            frame += 1;
            if decoder.sealed {
                return Err(SpillError::TrailingData);
            }
            let body = used + start;
            decoder.frame(&buf[body..body + len], frame, sink)?;
            used = body + len;
        }
        if used > 0 {
            input.consume(used);
            continue;
        }
        // A frame that straddles the buffer's end, or a corrupt prefix.
        // The payload buffer grows only as bytes arrive, so a corrupt
        // length cannot allocate more than the input holds.
        frame += 1;
        if decoder.sealed {
            return Err(SpillError::TrailingData);
        }
        let len = read_len(&mut input, frame)?;
        payload.clear();
        if input.by_ref().take(len).read_to_end(&mut payload)? as u64 != len {
            return Err(SpillError::MalformedFrame {
                frame,
                detail: format!("length prefix {len} runs past end of file"),
            });
        }
        decoder.frame(&payload, frame, sink)?;
    }
    if frame == 0 {
        // Magic only, no frames at all: not even a header.
        return Err(SpillError::NotAnArtifact);
    }
    let footer = decoder.footer.ok_or(SpillError::MissingFooter)?;
    if !decoder.sealed {
        return Err(SpillError::MissingSeal);
    }
    Ok(footer)
}

#[inline(always)]
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
            if version < 4 {
                // The held set and context of versions 2 and 3: read
                // past, still checked as ids and string references.
                for _ in 0..f.varint()? {
                    f.obj_id()?;
                }
                for _ in 0..f.varint()? {
                    f.str_ref(strings)?;
                }
            }
            let acq = EventKind::acquire(lock, site);
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

fn read_footer(f: &mut FrameReader<'_>, strings: &[Label]) -> Result<TraceFooter, SpillError> {
    let mut objects = ObjectTable::new();
    for _ in 0..f.varint()? {
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
        let assigned = objects.create_named(kind, site, owner, index, name);
        if assigned != id || objects.get(assigned).seq != seq {
            return Err(f.bad(format!(
                "object {} out of order (expected {})",
                id.as_u32(),
                assigned.as_u32()
            )));
        }
    }
    let mut thread_objs = BTreeMap::new();
    for _ in 0..f.varint()? {
        let thread = f.thread_id()?;
        let obj = f.obj_id()?;
        thread_objs.insert(thread, obj);
    }
    Ok(TraceFooter {
        objects,
        thread_objs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::{read_trace, read_trace_bytes, write_trace, write_trace_as};
    use crate::{Trace, TraceFormat};
    use proptest::prelude::*;

    fn write_binary_trace(out: Vec<u8>, trace: &Trace) -> Result<Vec<u8>, SpillError> {
        write_trace_as(out, trace, TraceFormat::Binary)
    }

    /// Reads one varint from `bytes` as frame 7's payload.
    fn read_varint(bytes: &[u8]) -> (Result<u64, SpillError>, usize) {
        let mut f = FrameReader {
            buf: bytes,
            pos: 0,
            frame: 7,
        };
        (f.varint(), f.pos)
    }

    #[test]
    fn reads_varints_of_one_to_ten_bytes() {
        for len in 1..=10u32 {
            let low = if len == 1 { 0 } else { 1u64 << (7 * (len - 1)) };
            let high = 1u64.checked_shl(7 * len).map_or(u64::MAX, |v| v - 1);
            for v in [low, low + 1, high / 2 + 1, high] {
                let mut bytes = Vec::new();
                put_varint(&mut bytes, v);
                assert_eq!(bytes.len(), len as usize, "{v}");
                bytes.push(0xff);
                let (read, pos) = read_varint(&bytes);
                assert_eq!((read.unwrap(), pos), (v, len as usize));
            }
        }
    }

    #[test]
    fn rejects_an_overflowing_tenth_varint_byte() {
        for tenth in [0x02, 0x7f, 0x81] {
            let mut bytes = vec![0xff; 9];
            bytes.push(tenth);
            let err = read_varint(&bytes).0.unwrap_err();
            assert_eq!(err.to_string(), "malformed frame 7: varint overflows u64");
        }
    }

    #[test]
    fn rejects_a_varint_cut_off_at_each_byte() {
        let mut whole = Vec::new();
        put_varint(&mut whole, u64::MAX);
        for cut in 0..whole.len() {
            let err = read_varint(&whole[..cut]).0.unwrap_err();
            assert_eq!(
                err.to_string(),
                "malformed frame 7: truncated frame payload"
            );
        }
    }

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
        trace.push(t0, EventKind::acquire(a, Label::new("main:10")));
        trace.push(t0, EventKind::acquire(b, Label::new("main:11")));
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
            EventKind::acquire(outer, l("k:17")),
            EventKind::acquire(lk, l("k:4")),
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
            EventKind::acquire(lk, l("k:12")).shared(),
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
            let back = read_trace_bytes(&bytes).unwrap();
            assert_eq!(trace, back);
        }
    }

    #[test]
    fn binary_is_canonical_reencoding_reproduces_bytes() {
        let trace = sample_trace();
        let bytes = write_binary_trace(Vec::new(), &trace).unwrap();
        let back = read_trace_bytes(&bytes).unwrap();
        let again = write_binary_trace(Vec::new(), &back).unwrap();
        assert_eq!(bytes, again);
    }

    #[test]
    fn binary_read_then_jsonl_write_matches_direct_jsonl_write() {
        for trace in [sample_trace(), all_kinds_trace()] {
            let direct = write_trace(Vec::new(), &trace).unwrap();
            let bin = write_binary_trace(Vec::new(), &trace).unwrap();
            let via_binary = write_trace(Vec::new(), &read_trace_bytes(&bin).unwrap()).unwrap();
            assert_eq!(direct, via_binary);
            assert_eq!(
                read_trace(&direct[..]).unwrap(),
                read_trace_bytes(&bin).unwrap()
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
            read_trace_bytes(b"{\"Header\":{}}"),
            Err(SpillError::NotAnArtifact)
        ));
        assert!(matches!(
            read_trace_bytes(b""),
            Err(SpillError::NotAnArtifact)
        ));
        assert!(matches!(
            read_trace_bytes(&TRACE_BINARY_MAGIC),
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
        match read_trace_bytes(&bumped) {
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
            read_trace_bytes(&ancient),
            Err(SpillError::VersionMismatch { found: 1, .. })
        ));
    }

    /// `trace` without its acquisitions: the events every binary
    /// version from 2 on encodes alike.
    fn without_acquires(trace: &Trace) -> Trace {
        let mut out = Trace::new();
        *out.objects_mut() = trace.objects().clone();
        for (thread, obj) in trace.thread_objs() {
            out.bind_thread(thread, obj);
        }
        for e in trace.events().iter().filter(|e| !e.kind.is_acquire()) {
            out.push(e.thread, e.kind.clone());
        }
        out
    }

    #[test]
    fn accepts_a_version_2_header_for_exclusive_traces() {
        // Without acquisitions, a v2 artifact is exactly today's encoding
        // of a mode-free trace with the header byte dialed back — assert
        // that equivalence and that the reader still takes it.
        let trace = without_acquires(&sample_trace());
        let mut bytes = write_binary_trace(Vec::new(), &trace).unwrap();
        bytes[VERSION_OFFSET] = 2;
        let back = read_trace_bytes(&bytes).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn reads_past_the_held_set_and_context_of_version_3_acquires() {
        // A v3 acquire frame: tag, lock 1, site "s" (string 0), held [0],
        // context ["s", "s"]. The same frame without the last five bytes
        // is its v4 encoding.
        let frame = [tag::EVENT, 0, 0, kind::ACQUIRE, 1, 0, 1, 0, 2, 0, 0];
        let artifact = |version: u8, frame: &[u8]| {
            let mut bytes = TRACE_BINARY_MAGIC.to_vec();
            let mut header = vec![tag::HEADER, TRACE_FORMAT.len() as u8];
            header.extend_from_slice(TRACE_FORMAT.as_bytes());
            header.push(version);
            for payload in [
                &header[..],
                &[tag::STR_DEF, 0, 1, b's'],
                frame,
                &[tag::FOOTER, 0, 0],
                &[tag::SEAL],
            ] {
                put_frame(&mut bytes, payload);
            }
            bytes
        };
        let v3 = read_trace_bytes(&artifact(3, &frame)).unwrap();
        let v4 = read_trace_bytes(&artifact(4, &frame[..6])).unwrap();
        assert_eq!(v3.events(), v4.events());
        assert_eq!(
            v4.events()[0].kind,
            EventKind::acquire(ObjId::new(1), Label::new("s"))
        );
        // The skipped fields are still checked: an undefined string in
        // the context is an error, and a v4 reader does not skip them.
        let mut dangling = frame;
        dangling[10] = 7;
        assert!(read_trace_bytes(&artifact(3, &dangling)).is_err());
        assert!(read_trace_bytes(&artifact(4, &frame)).is_err());
    }

    #[test]
    fn rejects_v3_event_tags_under_a_v2_header() {
        // all_kinds_trace contains shared/try/condvar events, whose tags
        // did not exist in version 2.
        let trace = without_acquires(&all_kinds_trace());
        let mut bytes = write_binary_trace(Vec::new(), &trace).unwrap();
        assert_eq!(bytes[VERSION_OFFSET], TRACE_BINARY_FORMAT_VERSION as u8);
        bytes[VERSION_OFFSET] = 2;
        match read_trace_bytes(&bytes) {
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
        // event of the old vocabulary but the acquisition changed its
        // encoding.
        let bytes = write_binary_trace(Vec::new(), &sample_trace()).unwrap();
        let decoded = read_trace_bytes(&bytes).unwrap();
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
            read_trace_bytes(&renamed),
            Err(SpillError::WrongFormat(f)) if f == "df-other"
        ));
    }

    #[test]
    fn rejects_truncated_frame_with_its_index() {
        let bytes = write_binary_trace(Vec::new(), &sample_trace()).unwrap();
        // Chop one byte: the final (seal) frame's payload goes missing.
        let cut = &bytes[..bytes.len() - 1];
        match read_trace_bytes(cut) {
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
        match read_trace_bytes(&cut) {
            Err(SpillError::MalformedFrame { detail, .. }) => {
                assert!(detail.contains("length prefix"), "detail: {detail}");
            }
            other => panic!("expected MalformedFrame, got {other:?}"),
        }
        // And one that points past end of file.
        let mut overlong = bytes[..bytes.len() - 2].to_vec();
        overlong.push(100);
        match read_trace_bytes(&overlong) {
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
        match read_trace_bytes(&crafted) {
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
            read_trace_bytes(&bytes[..bytes.len() - 2]),
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
            read_trace_bytes(&bytes[..footer_start]),
            Err(SpillError::MissingFooter)
        ));
    }

    #[test]
    fn rejects_trailing_data_after_seal() {
        let mut bytes = write_binary_trace(Vec::new(), &sample_trace()).unwrap();
        bytes.extend_from_slice(&[1, 14]);
        assert!(matches!(
            read_trace_bytes(&bytes),
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
        match read_trace_bytes(&doubled) {
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
            prop_assert!(read_trace_bytes(&bytes[..cut]).is_err());
        }

        /// Fuzz-ish corruption: flipping any single byte never panics
        /// the reader (it may still parse if the flip lands in string
        /// content — that is fine; crashing is not).
        #[test]
        fn any_single_byte_flip_never_panics(pos in 0usize..1000, bit in 0u32..8) {
            let mut bytes = write_binary_trace(Vec::new(), &sample_trace()).unwrap();
            let pos = pos % bytes.len();
            bytes[pos] ^= 1 << bit;
            let _ = read_trace_bytes(&bytes);
        }
    }
}
