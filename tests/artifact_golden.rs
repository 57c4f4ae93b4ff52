//! Golden serialization tests: the on-disk artifact formats and the
//! plain `Trace` JSON are pinned byte-for-byte against checked-in
//! fixtures under `tests/golden/`. Any change to the serde shape of
//! events, objects, or the artifact envelopes shows up here as a
//! readable diff — bump the format version and regenerate the fixtures
//! deliberately instead of drifting silently (readers of the old
//! version must keep rejecting, which the version-mismatch tests below
//! pin too).
//!
//! Regenerated via `regenerate_goldens` (the current writers' output):
//!
//! * `trace.jsonl` — the two-lock trace in JSONL (version 2);
//! * `trace.v4.bin` / `trace.v4.jsonl` — a trace using the full
//!   mode-aware vocabulary (shared acquires, `TryAcquire`, condvar
//!   events) in binary version 4 and JSONL version 2;
//! * `relation.json` — the two-lock trace's relation artifact.
//!
//! **Frozen**, never regenerated: artifacts of retired writers, which
//! the readers must keep accepting forever, decoding to the same traces.
//! Their `held` and `context` acquire fields are read past.
//!
//! * `trace.v2.bin` — the two-lock trace in binary version 2, from
//!   before the mode-aware vocabulary;
//! * `trace.v3.bin` / `trace.v3.jsonl` — the mode-rich trace in binary
//!   version 3 and JSONL version 1;
//! * `trace.json` — the two-lock trace as plain `Trace` JSON;
//! * `relation.v1.json` — kept to pin its rejection.

use deadlock_fuzzer::events::{
    read_trace, read_trace_bytes, write_trace, write_trace_as, EventKind, Label, ObjKind,
    SpillError, ThreadId, Trace, TraceFormat, TRACE_BINARY_FORMAT_VERSION, TRACE_BINARY_MAGIC,
    TRACE_BINARY_MIN_FORMAT_VERSION, TRACE_FORMAT_VERSION,
};
use deadlock_fuzzer::igoodlock::{
    read_relation, write_relation, LockDependencyRelation, RelationArtifactError,
    RELATION_FORMAT_VERSION,
};
use proptest::prelude::*;

/// The canonical two-lock trace behind the v1/v2-era fixtures: one
/// thread takes `a` then `b` nested, so the relation has exactly one
/// dependency. Exclusive-only on purpose — its JSONL bytes must stay
/// identical to what the pre-mode vocabulary produced.
fn golden_trace() -> Trace {
    let mut trace = Trace::new();
    let t0 = ThreadId::new(0);
    let main = trace
        .objects_mut()
        .create(ObjKind::Thread, Label::new("<main>"), None, vec![]);
    trace.bind_thread(t0, main);
    let a = trace
        .objects_mut()
        .create(ObjKind::Lock, Label::new("main:3"), None, vec![]);
    let b = trace
        .objects_mut()
        .create(ObjKind::Lock, Label::new("main:4"), None, vec![]);
    trace.push(t0, EventKind::ThreadStart);
    trace.push(t0, EventKind::acquire(a, Label::new("main:5")));
    trace.push(t0, EventKind::acquire(b, Label::new("main:6")));
    trace.push(t0, EventKind::release(b, Label::new("main:7")));
    trace.push(t0, EventKind::release(a, Label::new("main:8")));
    trace.push(t0, EventKind::ThreadExit);
    trace
}

/// The mode-rich trace behind the v3 and v4 fixtures: a reader and a writer on
/// an rwlock (shared acquire/release, a failed exclusive try, a
/// successful shared try, a mode-tagged block) plus a condvar
/// wait/notify pair — every event kind the version-3 vocabulary added.
fn golden_trace_v3() -> Trace {
    let mut trace = Trace::new();
    let t0 = ThreadId::new(0);
    let t1 = ThreadId::new(1);
    let main = trace
        .objects_mut()
        .create(ObjKind::Thread, Label::new("<main>"), None, vec![]);
    trace.bind_thread(t0, main);
    let worker = trace.objects_mut().create_named(
        ObjKind::Thread,
        Label::new("main:2"),
        None,
        vec![],
        Some("worker".to_string()),
    );
    trace.bind_thread(t1, worker);
    let rw = trace
        .objects_mut()
        .create(ObjKind::Lock, Label::new("main:3"), None, vec![]);
    let m = trace
        .objects_mut()
        .create(ObjKind::Lock, Label::new("main:4"), None, vec![]);
    let cv = trace
        .objects_mut()
        .create(ObjKind::Plain, Label::new("main:5"), None, vec![]);
    trace.push(t0, EventKind::ThreadStart);
    trace.push(t1, EventKind::ThreadStart);
    trace.push(t0, EventKind::acquire(rw, Label::new("main:10")).shared());
    trace.push(t1, EventKind::try_acquire(rw, Label::new("main:20"), false));
    trace.push(
        t1,
        EventKind::try_acquire(rw, Label::new("main:21"), true).shared(),
    );
    trace.push(t1, EventKind::release(rw, Label::new("main:22")).shared());
    trace.push(t1, EventKind::blocked(rw));
    trace.push(t0, EventKind::release(rw, Label::new("main:11")).shared());
    trace.push(t1, EventKind::unblocked(rw));
    trace.push(t1, EventKind::acquire(rw, Label::new("main:23")));
    trace.push(t1, EventKind::release(rw, Label::new("main:24")));
    trace.push(t0, EventKind::acquire(m, Label::new("main:12")));
    trace.push(t0, EventKind::cond_wait(cv, m, Label::new("main:13")));
    trace.push(t1, EventKind::cond_notify(cv, Label::new("main:25"), true));
    trace.push(t0, EventKind::release(m, Label::new("main:14")));
    trace.push(t1, EventKind::ThreadExit);
    trace.push(t0, EventKind::ThreadExit);
    trace
}

const GOLDEN_TRACE_ARTIFACT: &str = include_str!("golden/trace.jsonl");
const GOLDEN_TRACE_JSON: &str = include_str!("golden/trace.json");
const GOLDEN_RELATION_ARTIFACT: &str = include_str!("golden/relation.json");
/// The same relation as written by the version-1 writer, whose timings
/// carried no clocks: frozen, never regenerated.
const GOLDEN_RELATION_V1: &str = include_str!("golden/relation.v1.json");
const GOLDEN_TRACE_V2: &[u8] = include_bytes!("golden/trace.v2.bin");
const GOLDEN_TRACE_V3: &[u8] = include_bytes!("golden/trace.v3.bin");
const GOLDEN_TRACE_V3_JSONL: &str = include_str!("golden/trace.v3.jsonl");
const GOLDEN_TRACE_V4: &[u8] = include_bytes!("golden/trace.v4.bin");
const GOLDEN_TRACE_V4_JSONL: &str = include_str!("golden/trace.v4.jsonl");

/// Byte 15 of the binary preamble is the header's version varint.
const VERSION_OFFSET: usize = 15;

#[test]
fn trace_artifact_bytes_are_pinned() {
    let bytes = write_trace(Vec::new(), &golden_trace()).expect("write");
    assert_eq!(
        String::from_utf8(bytes).expect("utf8"),
        GOLDEN_TRACE_ARTIFACT,
        "df-trace artifact bytes drifted; bump TRACE_FORMAT_VERSION and \
         regenerate tests/golden/trace.jsonl"
    );
}

#[test]
fn trace_artifact_golden_round_trips() {
    let back = read_trace(GOLDEN_TRACE_ARTIFACT.as_bytes()).expect("read golden");
    assert_eq!(back, golden_trace());
}

#[test]
fn binary_v4_artifact_bytes_are_pinned() {
    let bytes = write_trace_as(Vec::new(), &golden_trace_v3(), TraceFormat::Binary).expect("write");
    assert_eq!(
        bytes, GOLDEN_TRACE_V4,
        "df-trace binary v4 artifact bytes drifted; bump \
         TRACE_BINARY_FORMAT_VERSION and regenerate tests/golden/trace.v4.bin"
    );
}

#[test]
fn binary_v3_artifact_bytes_are_pinned() {
    // The frozen version-3 artifact, whose acquire frames carry the held
    // set and context, decodes to the mode-rich trace.
    assert_eq!(u32::from(GOLDEN_TRACE_V3[VERSION_OFFSET]), 3);
    let back = read_trace_bytes(GOLDEN_TRACE_V3).expect("read golden v3");
    assert_eq!(back, golden_trace_v3());
}

#[test]
fn mode_rich_jsonl_bytes_are_pinned_and_round_trip() {
    let bytes = write_trace(Vec::new(), &golden_trace_v3()).expect("write");
    assert_eq!(
        String::from_utf8(bytes).expect("utf8"),
        GOLDEN_TRACE_V4_JSONL,
        "mode-rich JSONL bytes drifted; regenerate tests/golden/trace.v4.jsonl"
    );
    for golden in [GOLDEN_TRACE_V4_JSONL, GOLDEN_TRACE_V3_JSONL] {
        let back = read_trace(golden.as_bytes()).expect("read golden");
        assert_eq!(back, golden_trace_v3());
    }
}

#[test]
fn binary_v2_golden_still_reads_and_matches_jsonl() {
    // Version-2 artifacts from before the mode-aware vocabulary stay
    // readable forever and analyze byte-identically.
    assert!(GOLDEN_TRACE_V2.starts_with(&TRACE_BINARY_MAGIC));
    assert_eq!(
        u32::from(GOLDEN_TRACE_V2[VERSION_OFFSET]),
        TRACE_BINARY_MIN_FORMAT_VERSION
    );
    let back = read_trace_bytes(GOLDEN_TRACE_V2).expect("read golden v2");
    assert_eq!(back, golden_trace());
    let jsonl = write_trace(Vec::new(), &back).expect("rewrite");
    assert_eq!(
        String::from_utf8(jsonl).expect("utf8"),
        GOLDEN_TRACE_ARTIFACT
    );
}

#[test]
fn version_bumped_binary_golden_is_rejected() {
    let mut bumped = GOLDEN_TRACE_V4.to_vec();
    assert_eq!(
        u32::from(bumped[VERSION_OFFSET]),
        TRACE_BINARY_FORMAT_VERSION
    );
    bumped[VERSION_OFFSET] += 1;
    assert!(matches!(
        read_trace_bytes(&bumped),
        Err(SpillError::VersionMismatch { .. })
    ));

    // Below the floor is just as dead as above the ceiling.
    let mut ancient = GOLDEN_TRACE_V2.to_vec();
    ancient[VERSION_OFFSET] = TRACE_BINARY_MIN_FORMAT_VERSION as u8 - 1;
    assert!(matches!(
        read_trace_bytes(&ancient),
        Err(SpillError::VersionMismatch { .. })
    ));
}

#[test]
fn v3_tags_under_a_v2_header_are_rejected() {
    // Downgrading the v3 golden's header must not smuggle mode-aware
    // tags past a v2 reader's expectations.
    let mut downgraded = GOLDEN_TRACE_V3.to_vec();
    downgraded[VERSION_OFFSET] = TRACE_BINARY_MIN_FORMAT_VERSION as u8;
    assert!(read_trace_bytes(&downgraded).is_err());
}

#[test]
fn plain_trace_json_is_pinned_and_round_trips() {
    // The frozen plain `Trace` JSON still decodes to the golden trace,
    // and today's serialization round-trips.
    let back: Trace = serde_json::from_str(GOLDEN_TRACE_JSON).expect("parse golden");
    assert_eq!(back, golden_trace());
    let json = serde_json::to_string_pretty(&golden_trace()).expect("serialize");
    let again: Trace = serde_json::from_str(&json).expect("parse");
    assert_eq!(again, golden_trace());
}

#[test]
fn relation_artifact_bytes_are_pinned_and_round_trip() {
    let relation = LockDependencyRelation::from_trace(&golden_trace());
    assert_eq!(relation.len(), 1, "the golden trace has one dependency");
    let mut bytes = Vec::new();
    write_relation(&mut bytes, &relation).expect("write");
    assert_eq!(
        String::from_utf8(bytes).expect("utf8"),
        GOLDEN_RELATION_ARTIFACT,
        "df-relation artifact bytes drifted; bump RELATION_FORMAT_VERSION \
         and regenerate tests/golden/relation.json"
    );
    let back = read_relation(GOLDEN_RELATION_ARTIFACT.as_bytes()).expect("read golden");
    assert_eq!(
        serde_json::to_string(&back).expect("serialize"),
        serde_json::to_string(&relation).expect("serialize")
    );
}

/// Regenerates the fixtures after a deliberate format change:
/// `cargo test -p deadlock-fuzzer --test artifact_golden -- --ignored`.
///
/// The frozen fixtures of retired writers (`trace.v2.bin`,
/// `trace.v3.bin`, `trace.v3.jsonl`, `trace.json`, `relation.v1.json`)
/// are intentionally NOT regenerated: they pin read compatibility (and,
/// for the relation, rejection).
#[test]
#[ignore = "writes tests/golden/; run explicitly after a format change"]
fn regenerate_goldens() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    std::fs::create_dir_all(&dir).expect("create golden dir");
    let bytes = write_trace(Vec::new(), &golden_trace()).expect("write");
    std::fs::write(dir.join("trace.jsonl"), bytes).expect("write trace.jsonl");
    let relation = LockDependencyRelation::from_trace(&golden_trace());
    let mut bytes = Vec::new();
    write_relation(&mut bytes, &relation).expect("write");
    std::fs::write(dir.join("relation.json"), bytes).expect("write relation.json");
    let bytes = write_trace_as(Vec::new(), &golden_trace_v3(), TraceFormat::Binary).expect("write");
    std::fs::write(dir.join("trace.v4.bin"), bytes).expect("write trace.v4.bin");
    let bytes = write_trace(Vec::new(), &golden_trace_v3()).expect("write");
    std::fs::write(dir.join("trace.v4.jsonl"), bytes).expect("write trace.v4.jsonl");
}

/// Builds a structurally plausible trace from a generated op list:
/// two named threads, four locks, one condvar, a handful of interned
/// sites — enough variety to exercise every interesting encoder path
/// (string-table reuse, shared modes, try outcomes, condvar edges,
/// empty traces).
fn trace_of_ops(ops: &[(u16, u16, u16)]) -> Trace {
    let mut trace = Trace::new();
    let spawn = Label::new("prop.spawn:1");
    for t in 0..2u32 {
        let obj = trace.objects_mut().create_named(
            ObjKind::Thread,
            spawn,
            None,
            vec![],
            Some(format!("prop-thread-{t}")),
        );
        trace.bind_thread(ThreadId::new(t), obj);
    }
    let locks: Vec<_> = (0..4)
        .map(|i| {
            trace.objects_mut().create(
                ObjKind::Lock,
                Label::new(&format!("prop.lock:{i}")),
                None,
                vec![],
            )
        })
        .collect();
    let cv = trace
        .objects_mut()
        .create(ObjKind::Plain, Label::new("prop.condvar:9"), None, vec![]);
    let sites = [
        Label::new("prop.site:10"),
        Label::new("prop.site:11"),
        Label::new("prop.site:12"),
    ];
    for &(op, lock, site_pick) in ops {
        let thread = ThreadId::new(u32::from(op) % 2);
        let lock_id = locks[usize::from(lock) % locks.len()];
        let other = locks[usize::from(lock.wrapping_add(1)) % locks.len()];
        let site = sites[usize::from(site_pick) % sites.len()];
        let kind = match op % 10 {
            0 => EventKind::acquire(lock_id, site),
            1 => EventKind::acquire(other, sites[0]),
            2 => EventKind::release(lock_id, site),
            3 => EventKind::ThreadStart,
            4 => EventKind::Yield,
            5 => EventKind::blocked(lock_id),
            6 => EventKind::acquire(lock_id, site).shared(),
            7 => EventKind::release(lock_id, site).shared(),
            8 => {
                let kind = EventKind::try_acquire(lock_id, site, lock % 2 == 0);
                if site_pick % 2 == 0 {
                    kind.shared()
                } else {
                    kind
                }
            }
            _ => {
                if lock % 2 == 0 {
                    EventKind::cond_wait(cv, lock_id, site)
                } else {
                    EventKind::cond_notify(cv, site, site_pick % 2 == 0)
                }
            }
        };
        trace.push(thread, kind);
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite invariant of the binary path: for ANY event sequence —
    /// mode-aware vocabulary included — binary write → read → JSONL
    /// write produces byte-identical output to a direct JSONL write,
    /// and reading either encoding yields the same in-memory [`Trace`].
    #[test]
    fn any_trace_round_trips_binary_to_jsonl_byte_identically(
        ops in prop::collection::vec((0u16..256, 0u16..256, 0u16..256), 0..120)
    ) {
        let trace = trace_of_ops(&ops);
        let jsonl = write_trace(Vec::new(), &trace).expect("jsonl write");
        let binary = write_trace_as(Vec::new(), &trace, TraceFormat::Binary).expect("binary write");

        let from_binary = read_trace_bytes(&binary).expect("binary read");
        prop_assert_eq!(&from_binary, &trace);
        let rewritten = write_trace(Vec::new(), &from_binary).expect("rewrite");
        prop_assert_eq!(&rewritten, &jsonl);

        let from_jsonl = read_trace_bytes(&jsonl).expect("jsonl read");
        prop_assert_eq!(&from_jsonl, &from_binary);
    }

    /// Any truncation of a sealed binary artifact is rejected with an
    /// error — never a panic, never a silently short trace.
    #[test]
    fn truncated_binary_artifacts_are_always_rejected(
        ops in prop::collection::vec((0u16..256, 0u16..256, 0u16..256), 1..40),
        cut in 0usize..4096
    ) {
        let trace = trace_of_ops(&ops);
        let binary = write_trace_as(Vec::new(), &trace, TraceFormat::Binary).expect("binary write");
        let keep = cut % binary.len();
        prop_assert!(read_trace_bytes(&binary[..keep]).is_err());
    }
}

#[test]
fn relation_v1_golden_is_rejected_as_a_version_mismatch() {
    match read_relation(GOLDEN_RELATION_V1.as_bytes()) {
        Err(RelationArtifactError::VersionMismatch { found: 1, expected }) => {
            assert_eq!(expected, RELATION_FORMAT_VERSION);
        }
        other => panic!("expected a version mismatch, got {other:?}"),
    }
}

#[test]
fn version_bumped_goldens_are_rejected() {
    let bumped = GOLDEN_TRACE_ARTIFACT.replacen(
        &format!("\"version\":{TRACE_FORMAT_VERSION}"),
        &format!("\"version\":{}", TRACE_FORMAT_VERSION + 1),
        1,
    );
    assert!(matches!(
        read_trace(bumped.as_bytes()),
        Err(SpillError::VersionMismatch { .. })
    ));

    let bumped = GOLDEN_RELATION_ARTIFACT.replacen(
        &format!("\"version\":{RELATION_FORMAT_VERSION}"),
        &format!("\"version\":{}", RELATION_FORMAT_VERSION + 1),
        1,
    );
    assert!(matches!(
        read_relation(bumped.as_bytes()),
        Err(RelationArtifactError::VersionMismatch { .. })
    ));
}
