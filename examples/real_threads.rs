//! DeadlockFuzzer on **real OS threads**, via df-lock's tracked locks
//! (`std::sync::Mutex` cannot be intercepted, so programs use
//! `TrackedMutex` — the Rust analogue of the paper's bytecode
//! instrumentation).
//!
//! ```text
//! cargo run --example real_threads
//! ```

use std::sync::Arc;

use deadlock_fuzzer::abstraction::{AbstractionMode, Abstractor};
use deadlock_fuzzer::igoodlock::{igoodlock, IGoodlockOptions, LockDependencyRelation};
use deadlock_fuzzer::lock::{
    FuzzConfig, FuzzOutcome, Policy, TrackedMutex, Tracker, TrackerConfig,
};

/// The Figure 1 program: t1 sleeps first (so plain runs don't deadlock),
/// then the two threads take the two accounts in opposite orders.
fn transfer_program(tracker: &Tracker) {
    let checking = Arc::new(TrackedMutex::with_tracker(tracker, 100i64));
    let savings = Arc::new(TrackedMutex::with_tracker(tracker, 500i64));

    let (c1, s1) = (Arc::clone(&checking), Arc::clone(&savings));
    let t1 = tracker.spawn("c-to-s", move || {
        std::thread::sleep(std::time::Duration::from_millis(25)); // statement batch
        let mut from = c1.lock().unwrap();
        let mut to = s1.lock().unwrap();
        *from -= 10;
        *to += 10;
    });
    let (c2, s2) = (Arc::clone(&checking), Arc::clone(&savings));
    let t2 = tracker.spawn("s-to-c", move || {
        let mut from = s2.lock().unwrap();
        let mut to = c2.lock().unwrap();
        *from -= 25;
        *to += 25;
    });
    // Threads unwound by a biased run's abort join as `Err`; the
    // tracker's `finish` classifies the run.
    let _ = t1.join();
    let _ = t2.join();
}

fn main() {
    // Phase I: record a normal run.
    let record = Tracker::new(TrackerConfig::default().with_record_events(true));
    transfer_program(&record);
    let trace = record.trace();
    let relation = LockDependencyRelation::from_trace(&trace);
    let cycles = igoodlock(&relation, &IGoodlockOptions::default());
    println!(
        "Phase I observed {} nested acquisitions; iGoodlock reports {} potential cycle(s):",
        relation.len(),
        cycles.len()
    );
    let abstractor = Abstractor::new(AbstractionMode::default());
    let cycles: Vec<_> = cycles
        .iter()
        .map(|c| c.abstract_with(trace.objects(), &abstractor))
        .collect();
    for c in &cycles {
        println!("  {c}");
    }

    // Phase II: steer real threads into the deadlock.
    let mut created = 0;
    let trials = 5;
    for seed in 0..trials {
        let config = FuzzConfig::new(cycles[0].clone()).with_seed(seed);
        let tracker = Tracker::new(TrackerConfig::default().with_policy(Policy::Fuzz(config)));
        transfer_program(&tracker);
        match tracker.finish() {
            FuzzOutcome::Deadlock(w) => {
                created += 1;
                if seed == 0 {
                    println!("\nwitness from the first biased run:\n{w}");
                }
            }
            other => println!("seed {seed}: {other:?}"),
        }
    }
    println!(
        "created the real deadlock in {created}/{trials} biased runs \
         (threads were unwound, not left hanging)"
    );
}
