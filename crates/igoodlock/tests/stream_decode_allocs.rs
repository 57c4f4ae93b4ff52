//! Decoding a binary trace straight into the relation builder allocates
//! nothing per event: once the stream is warmed up (its strings defined,
//! the payload buffer grown, every tuple seen), decoding 10,000 more
//! events into a [`RelationBuilder`] makes zero heap allocations. This is
//! the path `dfz analyze` takes. Counts, not timings, so they hold on any
//! machine.
//!
//! Run in release mode too: `cargo test --release -p df-igoodlock --test
//! stream_decode_allocs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use df_events::{
    decode_trace, write_trace_as, Event, EventKind, EventSink, Label, ObjId, ObjKind, ThreadId,
    Trace, TraceFormat,
};
use df_igoodlock::RelationBuilder;

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

const MEASURED_EVENTS: u64 = 10_000;

/// One round of lock traffic over `[a, b, rw, m]`: a nested pair, and a
/// shared hold with a nested acquisition under a successful try.
fn round([a, b, rw, m]: [ObjId; 4]) -> [EventKind; 10] {
    let l = Label::new;
    [
        EventKind::acquire(a, l("s:a")),
        EventKind::acquire(b, l("s:b")),
        EventKind::release(b, l("s:rb")),
        EventKind::release(a, l("s:ra")),
        EventKind::acquire(rw, l("s:rw")).shared(),
        EventKind::try_acquire(m, l("s:m"), true),
        EventKind::acquire(a, l("s:a2")),
        EventKind::release(a, l("s:ra2")),
        EventKind::release(m, l("s:rm")),
        EventKind::release(rw, l("s:rrw")),
    ]
}

/// Feeds the builder and reads the allocation count after the events
/// that end the warm-up and the measured stretch.
struct Probe {
    builder: RelationBuilder,
    warm_up: u64,
    at_start: u64,
    at_end: u64,
}

impl EventSink for Probe {
    fn on_event(&mut self, event: &Event) {
        self.builder.observe(event);
        if event.seq + 1 == self.warm_up {
            self.at_start = ALLOCS.with(Cell::get);
        } else if event.seq + 1 == self.warm_up + MEASURED_EVENTS {
            self.at_end = ALLOCS.with(Cell::get);
        }
    }

    fn on_finish(&mut self, trace: &Trace) {
        self.builder.on_finish(trace);
    }
}

#[test]
fn streamed_decoding_allocates_nothing_per_event() {
    let mut trace = Trace::new();
    let threads = [ThreadId::new(0), ThreadId::new(1)];
    for (i, &t) in threads.iter().enumerate() {
        let obj = trace.objects_mut().create_named(
            ObjKind::Thread,
            Label::new("s.spawn"),
            None,
            vec![],
            Some(format!("worker-{i}")),
        );
        trace.bind_thread(t, obj);
    }
    let locks = ["a", "b", "rw", "m"].map(|site| {
        trace
            .objects_mut()
            .create(ObjKind::Lock, Label::new(site), None, vec![])
    });
    // Warm-up: two rounds per thread.
    for _ in 0..2 {
        for &t in &threads {
            for kind in round(locks) {
                trace.push(t, kind);
            }
        }
    }
    let warm_up = trace.events().len() as u64;
    let mut i = 0;
    while (trace.events().len() as u64) < warm_up + MEASURED_EVENTS {
        let t = threads[i / 10 % 2];
        trace.push(t, round(locks)[i % 10].clone());
        i += 1;
    }
    let bytes = write_trace_as(Vec::new(), &trace, TraceFormat::Binary).expect("encode");

    let mut probe = Probe {
        builder: RelationBuilder::new(),
        warm_up,
        at_start: 0,
        at_end: 0,
    };
    decode_trace(&bytes[..], TraceFormat::Binary, &mut probe).expect("decode");
    assert!(probe.at_start > 0, "the warm-up allocated and was probed");
    let allocs = probe.at_end - probe.at_start;
    assert_eq!(
        allocs, 0,
        "{allocs} allocations decoding {MEASURED_EVENTS} warmed-up events"
    );
    let relation = probe
        .builder
        .finish()
        .expect("the footer binds both threads");
    assert_eq!(
        relation.len(),
        4,
        "two tuples per thread, all from the warm-up"
    );
    assert_eq!(relation.events(), trace.events().len() as u64);
}
