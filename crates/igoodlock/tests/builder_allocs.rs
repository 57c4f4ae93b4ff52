//! The relation builder allocates nothing for an event that adds no new
//! tuple: once a thread is known and its lock pattern seen, repeated
//! nested acquisitions (plain, shared and under a successful try),
//! releases, failed tries and yields make zero heap allocations, clocks
//! included. (Spawns and exits copy a clock; they happen once per
//! thread.) Offline analysis feeds the builder every event of a
//! recorded run, so this is its hot path. Counts, not timings, so they
//! hold on any machine.
//!
//! Run in release mode too: `cargo test --release -p df-igoodlock --test
//! builder_allocs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use df_events::{Event, EventKind, Label, ObjId, ObjKind, ThreadId, Trace};
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

const MEASURED_ROUNDS: u64 = 10_000;

/// One round of a worker's lock traffic over locks `[a, b, rw, m]`: a
/// nested pair, a shared hold with a nested exclusive acquisition under
/// a successful try, a failed try, and a yield.
fn round([a, b, rw, m]: [ObjId; 4]) -> Vec<EventKind> {
    let l = Label::new;
    vec![
        EventKind::acquire(a, l("w:a"), vec![], vec![l("w:a")]),
        EventKind::acquire(b, l("w:b"), vec![a], vec![l("w:a"), l("w:b")]),
        EventKind::release(b, l("w:rb")),
        EventKind::release(a, l("w:ra")),
        EventKind::acquire(rw, l("w:rw"), vec![], vec![l("w:rw")]).shared(),
        EventKind::try_acquire(m, l("w:m"), true),
        EventKind::try_acquire(b, l("w:tb"), false),
        EventKind::acquire(
            a,
            l("w:a2"),
            vec![rw, m],
            vec![l("w:rw"), l("w:m"), l("w:a2")],
        ),
        EventKind::release(a, l("w:ra2")),
        EventKind::release(m, l("w:rm")),
        EventKind::release(rw, l("w:rrw")),
        EventKind::Yield,
    ]
}

#[test]
fn repeated_events_allocate_nothing() {
    let mut trace = Trace::new();
    let main = ThreadId::new(0);
    let worker = ThreadId::new(1);
    let mut builder = RelationBuilder::new();
    let [_, child_obj] = [(main, "<main>"), (worker, "spawn:w")].map(|(t, site)| {
        let obj = trace
            .objects_mut()
            .create(ObjKind::Thread, Label::new(site), None, vec![]);
        builder.bind_thread(t, obj);
        obj
    });
    let locks = ["a", "b", "rw", "m"].map(|site| {
        trace
            .objects_mut()
            .create(ObjKind::Lock, Label::new(site), None, vec![])
    });
    let round = round(locks);

    // Every event is built up front, so the measured loop only observes.
    let mut seq = 0;
    let mut event = |thread: ThreadId, kind: EventKind| {
        seq += 1;
        Event::new(seq - 1, thread, kind)
    };
    // Warm-up: the fork, the worker's first round (its new tuples), and
    // one more round to grow every reused buffer.
    let mut warm_up = vec![
        event(main, EventKind::ThreadStart),
        event(
            main,
            EventKind::Spawn {
                child: worker,
                child_obj,
            },
        ),
        event(worker, EventKind::ThreadStart),
    ];
    for _ in 0..2 {
        warm_up.extend(round.iter().map(|k| event(worker, k.clone())));
    }
    let measured: Vec<Event> = (0..MEASURED_ROUNDS)
        .flat_map(|_| round.clone())
        .map(|k| event(worker, k))
        .collect();
    for e in &warm_up {
        builder.observe(e);
    }
    assert_eq!(
        builder.len(),
        2,
        "the nested pair and the shared/try nesting"
    );

    let before = ALLOCS.with(Cell::get);
    for e in &measured {
        builder.observe(e);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(
        allocs, 0,
        "{allocs} allocations over {MEASURED_ROUNDS} rounds"
    );
    let relation = builder.finish();
    assert_eq!(relation.len(), 2, "no round adds a tuple");
    assert_eq!(relation.events(), (warm_up.len() + measured.len()) as u64);
}
