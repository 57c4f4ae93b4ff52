//! Invariants tying the observability counters to the scheduler's
//! semantics: the metrics are only trustworthy if they move in lockstep
//! with what the paper says the scheduler does.

use deadlock_fuzzer::{Config, DeadlockFuzzer};
use df_fuzzer::DirectedStrategy;
use df_obs::Obs;
use df_runtime::{RunConfig, VirtualRuntime};

/// Runs the full pipeline over `program` and returns the counters plus
/// the length of the first confirmed cycle.
fn confirmed_run(
    program: deadlock_fuzzer::ProgramRef,
    trials: u32,
) -> (df_obs::CounterSnapshot, usize) {
    let obs = Obs::new();
    let fuzzer = DeadlockFuzzer::from_ref(
        program,
        Config::default()
            .with_confirm_trials(trials)
            .with_obs(obs.clone()),
    );
    let report = fuzzer.run();
    let confirmed = report
        .confirmations
        .iter()
        .find(|c| c.confirmed)
        .expect("at least one confirmed cycle");
    (obs.counters().snapshot(), confirmed.cycle.len())
}

#[test]
fn confirming_a_cycle_pauses_at_least_cycle_length_threads() {
    // To create a deadlock of length n the active scheduler parks the
    // cycle's threads at their inner acquires (§2.3); over a campaign
    // that confirms the cycle, the pause counter must reach at least n.
    let (counters, cycle_len) = confirmed_run(df_benchmarks::figure1::program(true), 4);
    assert_eq!(cycle_len, 2);
    assert!(
        counters.threads_paused >= cycle_len as u64,
        "paused {} < cycle length {cycle_len}",
        counters.threads_paused
    );
    assert!(counters.acquires_observed > 0);
    assert!(counters.cycles_found >= 1);
}

#[test]
fn confirming_the_philosopher_ring_pauses_at_least_ring_size_threads() {
    let (counters, cycle_len) = confirmed_run(df_benchmarks::dining_philosophers::program(3), 6);
    assert_eq!(cycle_len, 3);
    assert!(
        counters.threads_paused >= cycle_len as u64,
        "paused {} < cycle length {cycle_len}",
        counters.threads_paused
    );
}

#[test]
fn live_detector_counters_flow_into_the_metrics_document() {
    // df-lock's online wait-for-graph detector shares the same Obs
    // handle as the rest of the pipeline, so a live (natively
    // scheduled) tracked execution must surface its counters through
    // the exact `--metrics-out` document schema: one wait edge per
    // contended acquire, one detection for the forced two-lock cycle,
    // and the timeout that dissolved it.
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    use df_lock::{DeadlockHandler, TrackedMutex, Tracker, TrackerConfig};

    let obs = Obs::new();
    let tracker = Tracker::new(
        TrackerConfig::default()
            .with_obs(obs.clone())
            .with_handler(DeadlockHandler::Callback(Arc::new(|_| {}))),
    );
    let a = Arc::new(TrackedMutex::with_tracker(&tracker, ()));
    let b = Arc::new(TrackedMutex::with_tracker(&tracker, ()));
    let barrier = Arc::new(Barrier::new(2));

    let (a1, b1, bar) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&barrier));
    let t1 = tracker.spawn("metrics a->b", move || {
        let held = a1.lock().unwrap();
        bar.wait();
        let _ = b1.try_lock_for(Duration::from_secs(2));
        drop(held);
    });
    let (a2, b2, bar) = (Arc::clone(&a), Arc::clone(&b), barrier);
    let t2 = tracker.spawn("metrics b->a", move || {
        let held = b2.lock().unwrap();
        bar.wait();
        let _ = a2.try_lock_for(Duration::from_secs(2));
        drop(held);
    });
    t1.join().unwrap();
    t2.join().unwrap();

    let snapshot = obs.counters().snapshot();
    assert_eq!(snapshot.wfg_cycles_detected, 1);
    assert!(snapshot.wfg_edges >= 2, "both contended waits counted");
    assert!(snapshot.lock_timeouts >= 1, "at least one thread gave up");
    assert_eq!(snapshot.poisoned_recovered, 0);
    assert!(
        snapshot.acquires_observed >= 2,
        "live acquisitions feed the shared acquire counter"
    );

    // The document `dfz --metrics-out` writes carries the same keys
    // with the same values.
    let doc = serde_json::to_string(&obs.metrics("native-tracked")).expect("serialize metrics");
    for pair in [
        format!("\"wfg_edges\":{}", snapshot.wfg_edges),
        "\"wfg_cycles_detected\":1".to_string(),
        format!("\"lock_timeouts\":{}", snapshot.lock_timeouts),
        "\"poisoned_recovered\":0".to_string(),
    ] {
        assert!(
            doc.contains(&pair),
            "metrics document missing {pair}: {doc}"
        );
    }
}

#[test]
fn directed_replay_of_a_recorded_schedule_never_thrashes() {
    // Thrashing is the active scheduler's escape hatch for wrong pauses
    // (§2.3). A directed replay makes no speculative pauses at all, so
    // replaying a recorded schedule must report zero thrash events — and
    // must take exactly the recorded decisions.
    use df_events::Label;
    use df_runtime::{LockRef, TCtx};

    fn body(l1: LockRef, l2: LockRef) -> impl FnOnce(&TCtx) + Send + 'static {
        move |ctx: &TCtx| {
            let g1 = ctx.lock(&l1, Label::new("Replay.first"));
            let g2 = ctx.lock(&l2, Label::new("Replay.second"));
            drop(g2);
            drop(g1);
        }
    }
    fn program(ctx: &TCtx) {
        let a = ctx.new_lock(Label::new("Replay.newA"));
        let b = ctx.new_lock(Label::new("Replay.newB"));
        let t1 = ctx.spawn(Label::new("Replay.spawn1"), "t1", body(a, b));
        let t2 = ctx.spawn(Label::new("Replay.spawn2"), "t2", body(b, a));
        ctx.join(&t1, Label::new("Replay.join"));
        ctx.join(&t2, Label::new("Replay.join"));
    }

    let (strategy, record) = DirectedStrategy::new(vec![]);
    let recorded = VirtualRuntime::new(RunConfig::default()).run(Box::new(strategy), program);
    let prefix = record.lock().clone();
    assert!(!prefix.choices.is_empty());

    let obs = Obs::new();
    let (replay, replay_record) = DirectedStrategy::new(prefix.choices.clone());
    let replayed = VirtualRuntime::new(RunConfig::default().with_obs(obs.clone()))
        .run(Box::new(replay), program);

    let counters = obs.counters().snapshot();
    assert_eq!(counters.thrash_events, 0, "directed replay thrashed");
    assert_eq!(replay_record.lock().choices, prefix.choices);
    assert_eq!(replay_record.lock().branching, prefix.branching);
    assert_eq!(
        recorded.outcome.deadlock().is_some(),
        replayed.outcome.deadlock().is_some()
    );
    assert!(
        counters.acquires_observed >= 4,
        "both threads take two locks"
    );
}
