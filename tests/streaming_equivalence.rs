//! Streaming Phase I vs the offline path on *real* Table 1 traces.
//!
//! The incremental [`RelationBuilder`] is the same code `from_trace`
//! delegates to, but this test does not take that on faith: every
//! benchmark program runs twice under the same scheduler seed — once
//! recording the full event vector, once with the builder attached as
//! an event sink and recording disabled — and the two relations must be
//! byte-identical, the cycle reports must match, and the streamed run
//! must never have materialized an event.
//!
//! Phase I always streams, so its happens-before filter and feasibility
//! scorer read the clocks the builder keeps online. The second test
//! checks every filter combination against the trace-based oracle: the
//! run recorded in full, the relation built from the trace, and the
//! fork/join clocks recomputed event by event.

use std::sync::{Arc, Mutex};

use deadlock_fuzzer::abstraction::Abstractor;
use deadlock_fuzzer::events::SinkHandle;
use deadlock_fuzzer::fuzzer::SimpleRandomChecker;
use deadlock_fuzzer::igoodlock::{
    igoodlock, igoodlock_parallel, FeasibilityAnalysis, HbFilter, IGoodlockOptions,
    LockDependencyRelation, RelationBuilder,
};
use deadlock_fuzzer::runtime::{RunConfig, VirtualRuntime};
use deadlock_fuzzer::{Config, DeadlockFuzzer};

#[test]
fn streamed_relation_is_byte_identical_on_benchmark_traces() {
    let mut relations_with_cycles = 0;
    for bench in df_benchmarks::table1_suite() {
        for seed in [7u64, 23] {
            // Offline: record everything, build the relation post-hoc.
            let program = bench.program.clone();
            let recorded = VirtualRuntime::new(RunConfig::default().with_program_seed(seed))
                .run(Box::new(SimpleRandomChecker::with_seed(seed)), move |ctx| {
                    program.run(ctx)
                });
            let offline = LockDependencyRelation::from_trace(&recorded.trace);

            // Streaming: no event vector, the builder sees the live stream.
            let builder = Arc::new(Mutex::new(RelationBuilder::new()));
            let obs = df_obs::Obs::new();
            let program = bench.program.clone();
            let streamed_run = VirtualRuntime::new(
                RunConfig::default()
                    .with_program_seed(seed)
                    .with_record_trace(false)
                    .with_obs(obs.clone())
                    .with_event_sink(df_events::SinkHandle::single(builder.clone())),
            )
            .run(Box::new(SimpleRandomChecker::with_seed(seed)), move |ctx| {
                program.run(ctx)
            });
            let streamed = builder.lock().expect("builder sink").take();

            assert_eq!(
                serde_json::to_string(&offline).expect("serialize"),
                serde_json::to_string(&streamed).expect("serialize"),
                "byte-identical relation for {} (seed {seed})",
                bench.name
            );
            assert_eq!(
                igoodlock(&offline, &IGoodlockOptions::default()),
                igoodlock(&streamed, &IGoodlockOptions::default()),
                "identical cycle report for {} (seed {seed})",
                bench.name
            );

            // The streamed run really streamed: nothing materialized,
            // every event went through the sink.
            assert!(
                streamed_run.trace.events().is_empty(),
                "{}: streamed run must not materialize events",
                bench.name
            );
            let snap = obs.counters().snapshot();
            assert_eq!(
                snap.peak_trace_bytes, 0,
                "{}: streamed peak must stay at zero",
                bench.name
            );
            assert_eq!(
                snap.events_streamed,
                recorded.trace.events().len() as u64,
                "{}: sink must see the exact event count",
                bench.name
            );

            if !igoodlock(&offline, &IGoodlockOptions::default()).is_empty() {
                relations_with_cycles += 1;
            }
        }
    }
    assert!(
        relations_with_cycles > 0,
        "the suite must exercise cycle-producing relations"
    );
}

#[test]
fn phase1_matches_the_trace_oracle_under_every_filter_combination() {
    let mut pruned = 0;
    let mut infeasible = 0;
    for bench in df_benchmarks::table1_suite() {
        for seed in [11u64, 29] {
            for hb in [false, true] {
                for feasibility in [false, true] {
                    let config = Config::default()
                        .with_phase1_seed(seed)
                        .with_hb_filter(hb)
                        .with_feasibility(feasibility);
                    let fuzzer = DeadlockFuzzer::from_ref(bench.program.clone(), config.clone());
                    let live = fuzzer.phase1();
                    assert!(
                        live.trace.events().is_empty(),
                        "{}: Phase I must carry no events",
                        bench.name
                    );

                    let recorded = fuzzer.observe(SinkHandle::none(), true).trace;
                    let clocks = HbFilter::from_trace(&recorded);
                    let relation = clocks.retime(&LockDependencyRelation::from_trace(&recorded));
                    let (cycles, stats, ()) = igoodlock_parallel(
                        &relation.cyclic_core(),
                        hb.then_some(&clocks),
                        &config.igoodlock,
                        1,
                    );
                    let abstractor = Abstractor::new(config.mode);
                    let abstract_cycles: Vec<_> = cycles
                        .iter()
                        .map(|c| c.abstract_with(recorded.objects(), &abstractor))
                        .collect();
                    let scores = if feasibility {
                        FeasibilityAnalysis::from_relation(&relation).score_cycles(&cycles)
                    } else {
                        Vec::new()
                    };

                    let what = format!(
                        "{} seed {seed} hb {hb} feasibility {feasibility}",
                        bench.name
                    );
                    assert_eq!(live.cycles, cycles, "{what}: concrete cycles");
                    assert_eq!(
                        serde_json::to_string(&live.abstract_cycles).expect("serialize"),
                        serde_json::to_string(&abstract_cycles).expect("serialize"),
                        "{what}: abstract cycles"
                    );
                    assert_eq!(live.feasibility, scores, "{what}: verdicts and scores");
                    assert_eq!(live.stats.pruned_by_hb, stats.pruned_by_hb, "{what}");
                    pruned += stats.pruned_by_hb;
                    infeasible += scores
                        .iter()
                        .filter(|s| {
                            s.verdict == deadlock_fuzzer::igoodlock::FeasibilityVerdict::Infeasible
                        })
                        .count();
                }
            }
        }
    }
    assert!(pruned > 0, "the suite must exercise happens-before pruning");
    assert!(
        infeasible > 0,
        "the suite must exercise Infeasible verdicts"
    );
}
