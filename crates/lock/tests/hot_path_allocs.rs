//! The native hot path allocates nothing in steady state: after a
//! warm-up, nested `TrackedMutex` lock pairs under a tracker — with no
//! sink, and with a synchronous binary spill — make zero heap
//! allocations, and so does a read of a free `TrackedRwLock`. Counts,
//! not timings, so they hold on any machine.
//!
//! Run in release mode too: `cargo test --release -p df-lock --test
//! hot_path_allocs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use df_events::{SpillConfig, TraceFormat};
use df_lock::{TrackedMutex, TrackedRwLock, Tracker, TrackerConfig};

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

const WARM_UP_PAIRS: usize = 100;
const MEASURED_PAIRS: usize = 10_000;

/// Allocations made by `MEASURED_PAIRS` runs of `op`, after
/// `WARM_UP_PAIRS` runs have filled the call-site memo and grown every
/// reused buffer.
fn steady_state_allocs_of(mut op: impl FnMut()) -> u64 {
    for _ in 0..WARM_UP_PAIRS {
        op();
    }
    let before = ALLOCS.with(Cell::get);
    for _ in 0..MEASURED_PAIRS {
        op();
    }
    ALLOCS.with(Cell::get) - before
}

/// Allocations made by `MEASURED_PAIRS` nested lock pairs under
/// `tracker`, after the warm-up.
fn steady_state_allocs(tracker: &Tracker) -> u64 {
    let outer = TrackedMutex::with_tracker(tracker, 0u64);
    let inner = TrackedMutex::with_tracker(tracker, 0u64);
    let allocs = steady_state_allocs_of(|| {
        let mut a = outer.lock().unwrap();
        let mut b = inner.lock().unwrap();
        *a += 1;
        *b += 1;
    });
    assert_eq!(
        *outer.lock().unwrap(),
        (WARM_UP_PAIRS + MEASURED_PAIRS) as u64
    );
    allocs
}

#[test]
fn lock_pairs_allocate_nothing_without_a_sink() {
    let tracker = Tracker::new(TrackerConfig::default());
    assert_eq!(steady_state_allocs(&tracker), 0);
}

#[test]
fn lock_pairs_allocate_nothing_with_a_binary_spill() {
    let spill = SpillConfig::with_format(TraceFormat::Binary);
    let (config, sink) = TrackerConfig::default()
        .with_spill(std::io::sink(), &spill)
        .unwrap();
    let tracker = Tracker::new(config);
    assert_eq!(steady_state_allocs(&tracker), 0);
    tracker.seal();
    let (events, _) = sink.lock().unwrap().close().unwrap();
    // Every pair reached the spill: two acquires and two releases each.
    assert!(events >= 4 * (WARM_UP_PAIRS + MEASURED_PAIRS) as u64);
}

#[test]
fn free_rwlock_reads_allocate_nothing() {
    let spill = SpillConfig::with_format(TraceFormat::Binary);
    let (config, sink) = TrackerConfig::default()
        .with_spill(std::io::sink(), &spill)
        .unwrap();
    let tracker = Tracker::new(config);
    let outer = TrackedMutex::with_tracker(&tracker, 0u64);
    let shared = TrackedRwLock::with_tracker(&tracker, 0u64);
    let allocs = steady_state_allocs_of(|| {
        let mut a = outer.lock().unwrap();
        *a += *shared.read().unwrap();
    });
    assert_eq!(allocs, 0);
    tracker.seal();
    let (events, _) = sink.lock().unwrap().close().unwrap();
    assert!(events >= 4 * (WARM_UP_PAIRS + MEASURED_PAIRS) as u64);
}
