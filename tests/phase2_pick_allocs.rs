//! Allocation floor for the Phase II pick: a schedule point of an
//! active-random trial allocates a small, fixed number of times, and
//! that number does not grow with the program's thread count. The
//! wait-for graph of `checkRealDeadlock`, the strategy's candidate lists
//! and the object abstractions are reused from pick to pick, and a
//! handoff wakes the picked thread's carrier without allocating.
//!
//! Counts, not timings, so they hold on any machine. Allocations are
//! counted on every thread (virtual threads run on carriers), so this
//! file holds one test and no other test's run is counted.
//!
//! Run in release mode too: `cargo test --release -p deadlock-fuzzer
//! --test phase2_pick_allocs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use deadlock_fuzzer::prelude::*;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` unchanged; counting touches one
// atomic, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is passed through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

const TRIALS: u64 = 20;

/// Allocations per schedule point allowed at either ring size. Building
/// `checkRealDeadlock`'s wait-for graph afresh at every acquire pick,
/// collecting the thread views and abstracting objects anew cost 9.8 per
/// step at 8 seats and 10.8 at 32; what is left (1.7 and 0.5) is per-run
/// set-up spread over the run's steps.
const CEILING: f64 = 4.0;

/// Heap allocations per schedule point across [`TRIALS`] Phase II
/// trials of the `seats`-seat philosopher ring, at jobs = 1.
fn allocs_per_step(seats: usize) -> f64 {
    let program = df_benchmarks::dining_philosophers::program(seats);
    let fuzzer = DeadlockFuzzer::from_ref(program, Config::default().with_jobs(1));
    let phase1 = fuzzer.phase1();
    let cycle = phase1
        .abstract_cycles
        .iter()
        .find(|c| c.len() == seats)
        .expect("Phase I predicts the ring");
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut steps = 0;
    for seed in 0..TRIALS {
        steps += fuzzer.phase2(cycle, seed).steps;
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    allocs as f64 / steps as f64
}

#[test]
fn phase2_pick_allocations_do_not_grow_with_thread_count() {
    let small = allocs_per_step(8);
    let large = allocs_per_step(32);
    eprintln!("allocations per schedule point: 8 seats {small:.2}, 32 seats {large:.2}");
    assert!(
        small <= CEILING && large <= CEILING,
        "{small:.2} (8 seats) / {large:.2} (32 seats) allocations per step, ceiling {CEILING}"
    );
    assert!(
        large <= small + 1.0,
        "allocations per step grow with the thread count: {small:.2} at 8 seats, \
         {large:.2} at 32"
    );
}
