//! Integration test for §3 of the paper: the Figure 1 example and the
//! necessity of object abstractions.

use deadlock_fuzzer::abstraction::AbstractionMode;
use deadlock_fuzzer::prelude::*;

#[test]
fn two_thread_figure1_full_story() {
    let fuzzer = DeadlockFuzzer::from_ref(
        df_benchmarks::figure1::program(false),
        Config::default().with_confirm_trials(15),
    );
    // Plain testing rarely finds it (the paper ran 100 normal executions
    // with zero deadlocks).
    let baseline = fuzzer.baseline(15).expect("trials > 0").deadlocks;
    assert!(
        baseline <= 4,
        "baseline should rarely deadlock: {baseline}/15"
    );
    // DeadlockFuzzer confirms it every time.
    let report = fuzzer.run();
    assert_eq!(report.potential_count(), 1);
    assert_eq!(report.confirmed_count(), 1);
    assert_eq!(report.confirmations[0].probability.matched, 15);
    assert_eq!(report.confirmations[0].probability.avg_thrashes, 0.0);
}

#[test]
fn three_thread_variant_needs_abstractions() {
    // §3: with lines 24/27 uncommented, a third thread reaches the same
    // acquire sites. With precise abstractions DeadlockFuzzer never
    // pauses it (P = 1, no thrashing); with the trivial abstraction it
    // pauses the wrong thread, thrashes, and can miss.
    let trials = 20;
    let exact = DeadlockFuzzer::from_ref(
        df_benchmarks::figure1::program(true),
        Config::default().with_confirm_trials(trials),
    )
    .run();
    assert_eq!(exact.potential_count(), 1);
    let pe = &exact.confirmations[0].probability;
    assert_eq!(pe.matched, trials);
    assert_eq!(pe.avg_thrashes, 0.0);

    let trivial = DeadlockFuzzer::from_ref(
        df_benchmarks::figure1::program(true),
        Config::default()
            .with_mode(AbstractionMode::Trivial)
            .with_confirm_trials(trials),
    )
    .run();
    let pt = &trivial.confirmations[0].probability;
    let degraded = pt.matched < trials || pt.avg_thrashes > 0.0;
    assert!(degraded, "trivial abstraction must thrash or miss: {pt:?}");
}

#[test]
fn report_uses_paper_notation() {
    // iGoodlock's report format: ([thread abs], [lock abs], [contexts]).
    let fuzzer =
        DeadlockFuzzer::from_ref(df_benchmarks::figure1::program(false), Config::default());
    let p1 = fuzzer.phase1();
    let text = p1.abstract_cycles[0].to_string();
    // Thread abstractions carry the start sites (paper: [25,1], [26,1]),
    // lock abstractions the allocation sites (paper: [22,1], [23,1]).
    assert!(text.contains("MyThread.main:25"), "{text}");
    assert!(text.contains("MyThread.main:26"), "{text}");
    assert!(text.contains("MyThread.main:22"), "{text}");
    assert!(text.contains("MyThread.main:23"), "{text}");
    assert!(text.contains("MyThread.run:16"), "{text}");
}
