//! Indexed iGoodlock vs the naive oracle on *real* Phase I relations:
//! every Table 1 benchmark program — plus the three mode-aware models
//! (producer/consumer condvar, read-mostly rwlock cache and the
//! writer-starvation ring) — is observed under the simple random
//! scheduler, and the two join implementations must produce
//! byte-identical cycle reports (with and without the happens-before
//! filter) and an identical join shape. The indexed join over each
//! relation's cyclic core must match the oracle over the whole relation
//! too, happens-before pruning included — the oracle's with clocks
//! recomputed event by event from the trace.

use std::sync::Arc;

use deadlock_fuzzer::events::Label;
use deadlock_fuzzer::fuzzer::SimpleRandomChecker;
use deadlock_fuzzer::igoodlock::oracle::{naive_igoodlock_filtered, HbFilter};
use deadlock_fuzzer::igoodlock::{igoodlock_filtered, IGoodlockOptions, LockDependencyRelation};
use deadlock_fuzzer::runtime::{LockRef, RunConfig, TCtx, VirtualRuntime};
use deadlock_fuzzer::{Named, ProgramRef};

fn suite() -> Vec<(String, ProgramRef)> {
    let mut programs: Vec<(String, ProgramRef)> = df_benchmarks::table1_suite()
        .into_iter()
        .map(|b| (b.name.to_string(), b.program))
        .collect();
    programs.push((
        "producer-consumer".into(),
        df_benchmarks::producer_consumer::program(),
    ));
    programs.push((
        "read-mostly-cache".into(),
        df_benchmarks::read_mostly_cache::program(),
    ));
    programs.push((
        "writer-starvation".into(),
        df_benchmarks::writer_starvation::program(3),
    ));
    programs.push(("ordered-then-inverted".into(), ordered_then_inverted()));
    programs
}

/// `main` nests two lock pairs in one order before it starts two threads
/// that take a third pair in opposite orders. The relation lists main's
/// tuples first, and the cyclic core drops them, so every kept tuple
/// moves to a lower index. If its hold window did not move with it, the
/// concurrent inversion would be judged by main's two windows, which are
/// ordered, and pruned.
fn ordered_then_inverted() -> ProgramRef {
    fn nest(ctx: &TCtx, outer: &LockRef, inner: &LockRef, at: &str) {
        ctx.acquire(outer, Label::new(&format!("{at}:outer")));
        ctx.acquire(inner, Label::new(&format!("{at}:inner")));
        ctx.release(inner, Label::new(&format!("{at}:release-inner")));
        ctx.release(outer, Label::new(&format!("{at}:release-outer")));
    }
    Arc::new(Named::new("ordered-then-inverted", |ctx: &TCtx| {
        let [x, y, z, a, b] =
            ["x", "y", "z", "a", "b"].map(|n| ctx.new_lock(Label::new(&format!("main:{n}"))));
        nest(ctx, &x, &y, "main:1");
        nest(ctx, &y, &z, "main:2");
        let t1 = ctx.spawn(Label::new("main:spawn1"), "t1", move |ctx| {
            nest(ctx, &a, &b, "t1")
        });
        let t2 = ctx.spawn(Label::new("main:spawn2"), "t2", move |ctx| {
            nest(ctx, &b, &a, "t2")
        });
        ctx.join(&t1, Label::new("main:join1"));
        ctx.join(&t2, Label::new("main:join2"));
    }))
}

#[test]
fn indexed_matches_naive_on_benchmark_traces() {
    let mut relations_with_cycles = 0;
    for (name, program) in suite() {
        let bench_name = name.as_str();
        for seed in [7u64, 23] {
            let program = program.clone();
            let result = VirtualRuntime::new(RunConfig::default())
                .run(Box::new(SimpleRandomChecker::with_seed(seed)), move |ctx| {
                    program.run(ctx)
                });
            let relation = LockDependencyRelation::from_trace(&result.trace);
            for hb_filter in [false, true] {
                for options in [
                    IGoodlockOptions::default(),
                    IGoodlockOptions::length_two_only(),
                ] {
                    let (ic, is) = igoodlock_filtered(&relation, hb_filter, &options);
                    let (nc, ns) = naive_igoodlock_filtered(&relation, hb_filter, &options);
                    assert_eq!(
                        serde_json::to_string(&ic).expect("serialize"),
                        serde_json::to_string(&nc).expect("serialize"),
                        "byte-identical cycle report for {} (seed {seed}, hb {}, {:?})",
                        bench_name,
                        hb_filter,
                        options
                    );
                    assert_eq!(is.chains_built, ns.chains_built, "{bench_name}");
                    assert_eq!(is.iterations, ns.iterations, "{bench_name}");
                    assert_eq!(
                        is.chains_per_iteration, ns.chains_per_iteration,
                        "{bench_name}"
                    );
                    assert_eq!(is.truncated, ns.truncated, "{bench_name}");
                    assert_eq!(is.pruned_by_hb, ns.pruned_by_hb, "{bench_name}");
                    assert_eq!(is.peak_open_chains, ns.peak_open_chains, "{bench_name}");
                    if !ic.is_empty() {
                        relations_with_cycles += 1;
                    }
                }
            }
        }
    }
    assert!(
        relations_with_cycles > 0,
        "the suite must exercise cycle-producing relations"
    );
}

/// The pipeline joins only the relation's cyclic core. On every recorded
/// trace, the core join with the happens-before filter must report the
/// same cycles as the oracle over the whole relation *and* prune the
/// same ones: the filter reads each kept tuple's hold window by its index
/// in the core, so this pins the core's timings to its tuples.
#[test]
fn core_join_matches_naive_over_full_relation_with_hb() {
    let mut pruned = 0;
    let mut dropped = 0;
    for (name, program) in suite() {
        for seed in [7u64, 23] {
            let program = program.clone();
            let result = VirtualRuntime::new(RunConfig::default())
                .run(Box::new(SimpleRandomChecker::with_seed(seed)), move |ctx| {
                    program.run(ctx)
                });
            let relation = LockDependencyRelation::from_trace(&result.trace);
            let core = relation.cyclic_core();
            let oracle = HbFilter::from_trace(&result.trace).retime(&relation);
            for options in [
                IGoodlockOptions::default(),
                IGoodlockOptions::length_two_only(),
            ] {
                let (cc, cs) = igoodlock_filtered(&core, true, &options);
                let (nc, ns) = naive_igoodlock_filtered(&oracle, true, &options);
                assert_eq!(
                    serde_json::to_string(&cc).expect("serialize"),
                    serde_json::to_string(&nc).expect("serialize"),
                    "core vs full cycle report for {name} (seed {seed}, {options:?})"
                );
                assert_eq!(cs.pruned_by_hb, ns.pruned_by_hb, "{name}");
                assert!(cs.chains_built <= ns.chains_built, "{name}");
                pruned += cs.pruned_by_hb;
            }
            dropped += relation.len() - core.len();
        }
    }
    assert!(pruned > 0, "the suite must exercise happens-before pruning");
    assert!(
        dropped > 0,
        "the suite must exercise tuples outside the core"
    );
}
