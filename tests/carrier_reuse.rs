//! Carrier reuse floor: virtual threads run on a process-wide pool of
//! parked OS threads, and a carrier is started only when none is idle.
//! A Phase II campaign therefore starts at most as many carriers as its
//! concurrent trials keep busy at once: the program's peak of live
//! virtual threads per worker, plus one of slack, however many trials it
//! runs, and it leaves none of them parked when it returns. Counts, not
//! timings, so this holds on any machine.
//!
//! This file holds one test, so the process-wide carrier counter sees
//! no other run.

use deadlock_fuzzer::events::EventKind;
use deadlock_fuzzer::prelude::*;
use deadlock_fuzzer::runtime::strategy::RoundRobinStrategy;
use deadlock_fuzzer::runtime::{carriers_started, VirtualRuntime};

/// The most virtual threads alive at once in one run of `program`.
fn peak_live(program: &ProgramRef) -> u64 {
    let p = program.clone();
    let r = VirtualRuntime::new(RunConfig::default())
        .run(Box::new(RoundRobinStrategy::new()), move |ctx| p.run(ctx));
    assert!(r.outcome.is_completed(), "{}", r.outcome);
    let (mut live, mut peak) = (1u64, 1u64);
    for e in r.trace.events() {
        match e.kind {
            EventKind::Spawn { .. } => live += 1,
            EventKind::ThreadExit => live -= 1,
            _ => {}
        }
        peak = peak.max(live);
    }
    peak
}

#[test]
fn a_thousand_trial_campaign_starts_at_most_peak_times_jobs_plus_one_carriers() {
    let program = df_benchmarks::figure1::program(false);
    let jobs = 2;
    let peak = peak_live(&program);
    let fuzzer = DeadlockFuzzer::from_ref(program.clone(), Config::default().with_jobs(jobs));
    let phase1 = fuzzer.phase1();
    let cycle = phase1.abstract_cycles.first().expect("figure1 has a cycle");
    let report = fuzzer.estimate_probability(cycle, 1000).unwrap();
    assert_eq!(report.trials, 1000);
    assert!(report.deadlocks > 0, "the campaign reproduced the deadlock");
    let started = carriers_started();
    let bound = peak * jobs as u64 + 1;
    assert!(
        started <= bound,
        "{started} carriers started for a peak of {peak} live virtual threads at jobs = {jobs} \
         (bound {bound})"
    );
    // The campaign retired its carriers, so the next run starts its own.
    let after = carriers_started();
    peak_live(&program);
    assert!(carriers_started() > after, "a carrier was left parked");
}
