//! The parallel trial engine's contract: `jobs = 1` and `jobs = N`
//! campaigns are the *same experiment*. Verdicts, trial tallies, rolled-up
//! counters, and even the trace bytes must agree — only wall-clock fields
//! may differ. Cancellation (`stop_on_first`) must likewise report exactly
//! the sequential prefix regardless of worker count.

use deadlock_fuzzer::prelude::*;

/// Everything a `ProbabilityReport` asserts about an experiment, minus
/// its wall-clock fields.
#[allow(clippy::type_complexity)]
fn logical_fields(
    p: &ProbabilityReport,
) -> (u32, u32, u32, f64, f64, bool, f64, f64, f64, u32, String) {
    (
        p.trials,
        p.deadlocks,
        p.matched,
        p.probability,
        p.deadlock_rate,
        p.truncated,
        p.avg_thrashes,
        p.avg_yields,
        p.avg_steps,
        p.retries,
        p.outcomes.to_string(),
    )
}

#[test]
fn full_pipeline_is_jobs_invariant_down_to_the_trace_bytes() {
    let campaign = |jobs: usize| {
        let obs = df_obs::Obs::with_memory_sink();
        let fuzzer = DeadlockFuzzer::from_ref(
            df_benchmarks::figure1::program(true),
            Config::default()
                .with_phase1_seed(0)
                .with_phase2_seed_base(400)
                .with_confirm_trials(6)
                .with_jobs(jobs)
                .with_obs(obs.clone()),
        );
        let report = fuzzer.run();
        obs.flush();
        (
            report,
            obs.trace_contents().expect("memory sink present"),
            obs.counters().snapshot(),
        )
    };
    let (r1, trace1, c1) = campaign(1);
    let (r4, trace4, c4) = campaign(4);

    assert_eq!(r1.confirmed_count(), r4.confirmed_count());
    assert_eq!(r1.confirmations.len(), r4.confirmations.len());
    for (a, b) in r1.confirmations.iter().zip(&r4.confirmations) {
        assert_eq!(a.cycle.to_string(), b.cycle.to_string());
        assert_eq!(a.confirmed, b.confirmed);
        assert_eq!(a.error, b.error);
        assert_eq!(
            logical_fields(&a.probability),
            logical_fields(&b.probability),
            "cycle #{} diverged between jobs=1 and jobs=4",
            a.cycle_index
        );
    }
    assert!(trace1.contains("\"CheckRealDeadlock\""), "{trace1}");
    assert_eq!(trace1, trace4, "trace bytes drifted under parallelism");
    assert_eq!(c1, c4, "campaign counters drifted under parallelism");
}

#[test]
fn binary_spill_is_jobs_invariant() {
    // Same contract as above, with the high-throughput trace path in the
    // loop: the observation run spills df-trace binary v2, and the
    // spilled bytes must come out identical under jobs=1 and jobs=4, as
    // must the rolled-up counters.
    use std::io::Write;
    use std::sync::{Arc, Mutex};

    use deadlock_fuzzer::events::{
        read_trace_bytes, SinkHandle, SpillSink, TraceFormat, TRACE_BINARY_MAGIC,
    };

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let campaign = |jobs: usize| {
        let obs = df_obs::Obs::new();
        let fuzzer = DeadlockFuzzer::from_ref(
            df_benchmarks::figure1::program(true),
            Config::default()
                .with_phase1_seed(0)
                .with_phase2_seed_base(400)
                .with_confirm_trials(4)
                .with_jobs(jobs)
                .with_obs(obs.clone()),
        );
        let buf = SharedBuf::default();
        let sink = Arc::new(Mutex::new(
            SpillSink::with_format(buf.clone(), TraceFormat::Binary).expect("spill sink"),
        ));
        let result = fuzzer.observe(SinkHandle::none().with(sink.clone()), false);
        let outcome = format!("{:?}", result.outcome);
        let (events, bytes) = sink
            .lock()
            .expect("sink mutex")
            .close()
            .expect("seal spill");
        let report = fuzzer.run();
        let spilled = buf.0.lock().unwrap().clone();
        assert_eq!(spilled.len() as u64, bytes, "jobs={jobs}");
        (
            spilled,
            events,
            (outcome, report.confirmed_count()),
            obs.counters().snapshot(),
        )
    };

    let (spill1, events1, verdicts1, c1) = campaign(1);
    let (spill4, events4, verdicts4, c4) = campaign(4);

    assert!(spill1.starts_with(&TRACE_BINARY_MAGIC));
    assert_eq!(spill1, spill4, "spilled bytes drifted under parallelism");
    assert_eq!(events1, events4);
    assert!(events1 > 0);
    assert_eq!(verdicts1, verdicts4);
    let decoded = read_trace_bytes(&spill1).expect("spill decodes");
    assert_eq!(decoded.events().len() as u64, events1);
    assert_eq!(c1, c4, "campaign counters drifted under parallelism");
}

#[test]
fn seed_driven_program_variation_is_jobs_invariant() {
    // The synchronized-maps model varies which worker is delayed from
    // trial to trial. That variation is derived from `TCtx::run_seed`
    // (never from ambient state), so a trial's result depends only on its
    // seed — not on how many trials ran before it on the same worker.
    // This is the benchmark where an order-dependent program would break
    // jobs-invariance first (its matched/unmatched mix is ≈ 50/50).
    let campaign = |jobs: usize| {
        let fuzzer = DeadlockFuzzer::from_ref(
            df_benchmarks::maps::program(),
            Config::default().with_jobs(jobs),
        );
        let p1 = fuzzer.phase1();
        p1.abstract_cycles
            .iter()
            .take(4)
            .map(|c| logical_fields(&fuzzer.estimate_probability(c, 5).expect("trials > 0")))
            .collect::<Vec<_>>()
    };
    assert_eq!(campaign(1), campaign(4));
}

#[test]
fn adaptive_allocation_is_jobs_invariant() {
    // The adaptive allocator hands out trial batches from pure sequential
    // logic, and each batch reports the deterministic sequential prefix
    // of its trials — so which cycles run, how many trials each gets, and
    // every per-cycle tally must be byte-identical at jobs=1 and jobs=4,
    // with and without a campaign-wide trial budget. The synchronized-maps
    // model is the stress case: many cycles, a ≈50/50 matched mix, and
    // feasibility verdicts in play.
    for trial_budget in [None, Some(10)] {
        let campaign = |jobs: usize| {
            let obs = df_obs::Obs::new();
            let fuzzer = DeadlockFuzzer::from_ref(
                df_benchmarks::maps::program(),
                Config::default()
                    .with_phase1_seed(3)
                    .with_phase2_seed_base(900)
                    .with_confirm_trials(6)
                    .with_feasibility(true)
                    .with_adaptive_trials(true)
                    .with_trial_budget(trial_budget)
                    .with_jobs(jobs)
                    .with_obs(obs.clone()),
            );
            let report = fuzzer.run();
            let cycles: Vec<_> = report
                .confirmations
                .iter()
                .map(|c| {
                    (
                        c.cycle_index,
                        c.confirmed,
                        c.error.clone(),
                        format!("{:?}", c.feasibility),
                        logical_fields(&c.probability),
                    )
                })
                .collect();
            let snap = obs.counters().snapshot();
            (cycles, snap.trials_saved, snap.cycles_deferred_infeasible)
        };
        assert_eq!(
            campaign(1),
            campaign(4),
            "adaptive allocation drifted under parallelism (budget {trial_budget:?})"
        );
    }
}

#[test]
fn cancellation_reports_the_sequential_prefix() {
    // With stop_on_first, a parallel campaign may *run* trials past the
    // first confirming one, but it must never *report* them: the tally is
    // exactly the prefix up to and including the first match, as if the
    // trials had run one by one.
    for jobs in [1, 4] {
        let fuzzer = DeadlockFuzzer::from_ref(
            df_benchmarks::figure1::program(false),
            Config::default().with_jobs(jobs).with_stop_on_first(true),
        );
        let p1 = fuzzer.phase1();
        let prob = fuzzer
            .estimate_probability(&p1.abstract_cycles[0], 16)
            .expect("trials > 0");
        // Figure 1's deadlock is created with probability 1, so the very
        // first trial confirms and the report covers exactly one trial.
        assert_eq!(prob.trials, 1, "jobs={jobs}");
        assert_eq!(prob.matched, 1, "jobs={jobs}");
        assert_eq!(prob.probability, 1.0, "jobs={jobs}");
    }
}

#[test]
fn trial_pool_preserves_trial_identity() {
    // The pool hands out trial indices; results must land in index order
    // with nothing lost, duplicated, or renamed by worker scheduling.
    for workers in [1, 3, 8] {
        let pool = TrialPool::new(workers);
        let out = pool.run_trials(32, |i| i * i, |_| false);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }
}
