//! Decoding a binary trace allocates per artifact, not per event: the
//! event vector's doublings, the string table and the object table. No
//! frame allocates, not even for the error it would report if it were
//! corrupt, and no event owns heap memory. Counts, not timings, so they
//! hold on any machine.
//!
//! Run in release mode too: `cargo test --release -p df-events --test
//! decode_allocs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use df_events::{
    read_trace_bytes, write_trace_as, EventKind, Label, ObjKind, ThreadId, Trace, TraceFormat,
};

/// Counts the allocations of the calling thread only, so tests running
/// in parallel in this binary do not see each other's.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract is passed through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const EVENTS: usize = 10_000;

/// Allocations allowed for one decode: about fourteen doublings of the
/// event vector, the string table and its labels, the object table and
/// the thread bindings.
const MAX_ALLOCS: u64 = 32;

/// Two threads taking nested pairs of four locks at a handful of sites,
/// shared and exclusive: `EVENTS` events.
fn artifact() -> Vec<u8> {
    let mut trace = Trace::new();
    let threads = [ThreadId::new(0), ThreadId::new(1)];
    for (i, &t) in threads.iter().enumerate() {
        let obj = trace.objects_mut().create_named(
            ObjKind::Thread,
            Label::new("decode.spawn:1"),
            None,
            vec![],
            Some(format!("worker-{i}")),
        );
        trace.bind_thread(t, obj);
    }
    let locks: Vec<_> = (0..4)
        .map(|i| {
            let site = Label::new(&format!("decode.lock:{i}"));
            trace
                .objects_mut()
                .create(ObjKind::Lock, site, None, vec![])
        })
        .collect();
    let sites: Vec<Label> = (0..6)
        .map(|i| Label::new(&format!("decode.site:{i}")))
        .collect();
    let mut i = 0;
    while trace.events().len() < EVENTS {
        let t = threads[i % 2];
        let (outer, inner) = (locks[i % 4], locks[(i + 1) % 4]);
        let site = sites[i % sites.len()];
        let nested = EventKind::acquire(inner, site);
        trace.push(t, EventKind::acquire(outer, site));
        trace.push(t, if i % 3 == 0 { nested.shared() } else { nested });
        let release = EventKind::release(inner, site);
        trace.push(
            t,
            if i % 3 == 0 {
                release.shared()
            } else {
                release
            },
        );
        trace.push(t, EventKind::release(outer, site));
        i += 1;
    }
    write_trace_as(Vec::new(), &trace, TraceFormat::Binary).expect("encode")
}

#[test]
fn decoding_allocates_per_artifact_not_per_event() {
    let bytes = artifact();
    let before = ALLOCS.with(Cell::get);
    let trace = read_trace_bytes(&bytes).expect("decode");
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(trace.events().len(), EVENTS);
    assert!(
        allocs <= MAX_ALLOCS,
        "{allocs} allocations decoding {EVENTS} events (at most {MAX_ALLOCS})"
    );
}
