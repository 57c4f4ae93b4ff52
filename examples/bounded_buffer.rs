//! A bounded buffer with monitor wait/notify — and a resource deadlock
//! hiding behind it (model: `df_benchmarks::buffer`).
//!
//! The paper's technique targets *resource* deadlocks only ("We only
//! consider resource deadlocks in this paper"); communication deadlocks
//! (lost signals) are reported as stalls but not steered toward. Here a
//! producer/consumer handshake runs through a condition-variable protocol
//! (never a resource deadlock), while a flush path and a stats path take
//! the buffer lock and the metrics lock in opposite orders — the kind of
//! bug DeadlockFuzzer confirms. One of the two reported cycles is
//! distinguished by a *wait-reacquire* context.
//!
//! ```text
//! cargo run --example bounded_buffer
//! ```

use deadlock_fuzzer::prelude::*;

fn main() {
    let fuzzer = DeadlockFuzzer::from_ref(
        df_benchmarks::buffer::program(),
        Config::default().with_confirm_trials(15),
    );

    let baseline = fuzzer.baseline(15).expect("trials > 0").deadlocks;
    println!("plain runs that deadlocked: {baseline}/15");

    let report = fuzzer.run();
    println!("\n{report}");
    println!(
        "The wait/notify handshake is never reported — iGoodlock sees only the \
         lock-order inversion between Buffer.take (monitor→metrics) and \
         Metrics.snapshot (metrics→monitor). Note the second cycle's context: \
         the consumer re-entered the monitor from its wait()."
    );
}
