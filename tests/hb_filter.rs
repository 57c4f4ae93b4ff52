//! Integration test for the happens-before extension: fork/join-guarded
//! false positives are pruned while real cycles survive, and the clocks
//! the relation builder keeps online answer every happens-before
//! question exactly as clocks recomputed event by event from the trace.

use std::sync::Arc;

use deadlock_fuzzer::events::SinkHandle;
use deadlock_fuzzer::igoodlock::oracle::HbFilter;
use deadlock_fuzzer::igoodlock::LockDependencyRelation;
use deadlock_fuzzer::prelude::*;
use proptest::prelude::*;

#[test]
fn hb_filter_prunes_jigsaw_false_positive() {
    let plain =
        DeadlockFuzzer::from_ref(df_benchmarks::jigsaw::program(), Config::default()).phase1();
    let filtered = DeadlockFuzzer::from_ref(
        df_benchmarks::jigsaw::program(),
        Config::default().with_hb_filter(true),
    )
    .phase1();

    // The §5.4 CachedThread cycle is guarded by a spawn edge: the
    // opposite-order thread starts only after the first released its
    // locks.
    let has_fp = |cycles: &[deadlock_fuzzer::igoodlock::AbstractCycle]| {
        cycles
            .iter()
            .any(|c| c.to_string().contains("waitForRunner"))
    };
    assert!(has_fp(&plain.abstract_cycles), "unfiltered reports the FP");
    assert!(
        !has_fp(&filtered.abstract_cycles),
        "HB filter must prune the fork-guarded cycle"
    );
    assert!(filtered.stats.pruned_by_hb >= 1);

    // The real Figure 3 cycles survive (their threads are concurrent).
    let reals = |cycles: &[deadlock_fuzzer::igoodlock::AbstractCycle]| {
        cycles
            .iter()
            .filter(|c| c.to_string().contains("killClients"))
            .count()
    };
    assert_eq!(
        reals(&filtered.abstract_cycles),
        reals(&plain.abstract_cycles)
    );
}

#[test]
fn hb_filter_keeps_every_reproducible_cycle() {
    // Soundness of the filter on benchmarks where all cycles are real:
    // it must prune nothing.
    for program in [
        df_benchmarks::logging::program(),
        df_benchmarks::dbcp::program(),
        df_benchmarks::figure1::program(false),
    ] {
        let plain = DeadlockFuzzer::from_ref(program.clone(), Config::default()).phase1();
        let filtered =
            DeadlockFuzzer::from_ref(program, Config::default().with_hb_filter(true)).phase1();
        assert_eq!(plain.cycle_count(), filtered.cycle_count());
        assert_eq!(filtered.stats.pruned_by_hb, 0);
    }
}

#[test]
fn filtered_cycles_are_a_subset() {
    for program in [
        df_benchmarks::jigsaw::program(),
        df_benchmarks::maps::program(),
        df_benchmarks::lists::program(),
    ] {
        let plain = DeadlockFuzzer::from_ref(program.clone(), Config::default()).phase1();
        let filtered =
            DeadlockFuzzer::from_ref(program, Config::default().with_hb_filter(true)).phase1();
        let plain_set: Vec<String> = plain
            .abstract_cycles
            .iter()
            .map(|c| c.to_string())
            .collect();
        for c in &filtered.abstract_cycles {
            assert!(
                plain_set.contains(&c.to_string()),
                "filtered output must be a subset"
            );
        }
        assert_eq!(
            filtered.cycle_count() + filtered.stats.pruned_by_hb as usize,
            plain.cycle_count(),
            "pruned + kept = total"
        );
    }
}

/// One step of the main thread of a fork/join program, over lock
/// indices `a` and `b`.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Spawn a worker that nests `b` inside `a`.
    Spawn(usize, usize),
    /// Spawn a worker that first spawns and joins a grandchild nesting
    /// `a` inside `b`, then nests `b` inside `a` itself.
    SpawnNested(usize, usize),
    /// Join the oldest worker not yet joined.
    Join,
    /// Take `a`, join the oldest worker while holding it, then nest `b`:
    /// a hold window with a join inside it.
    JoinHolding(usize, usize),
}

fn arb_steps() -> impl Strategy<Value = (usize, Vec<Step>)> {
    (2usize..5).prop_flat_map(|locks| {
        let step = (0u8..4, 0..locks, 0..locks).prop_map(|(kind, a, b)| match kind {
            0 => Step::Spawn(a, b),
            1 => Step::SpawnNested(a, b),
            2 => Step::Join,
            _ => Step::JoinHolding(a, b),
        });
        (Just(locks), prop::collection::vec(step, 1..8))
    })
}

/// Acquires `a`, then `b` inside it when distinct.
fn nest(ctx: &TCtx, locks: &[LockRef], a: usize, b: usize) {
    let outer = ctx.lock(&locks[a], Label::new(&format!("fj.outer:{a}")));
    if a != b {
        let inner = ctx.lock(&locks[b], Label::new(&format!("fj.inner:{b}")));
        ctx.work(1);
        drop(inner);
    }
    drop(outer);
}

fn fork_join_program(locks: usize, steps: Vec<Step>) -> deadlock_fuzzer::ProgramRef {
    Arc::new(Named::new("fork-join", move |ctx: &TCtx| {
        let locks: Vec<LockRef> = (0..locks)
            .map(|_| ctx.new_lock(Label::new("fj.newLock")))
            .collect();
        let mut running = std::collections::VecDeque::new();
        for &step in &steps {
            match step {
                Step::Spawn(a, b) => {
                    let locks = locks.clone();
                    running.push_back(ctx.spawn(Label::new("fj.spawn"), "w", move |ctx| {
                        nest(ctx, &locks, a, b)
                    }));
                }
                Step::SpawnNested(a, b) => {
                    let locks = locks.clone();
                    running.push_back(ctx.spawn(Label::new("fj.spawnNested"), "n", move |ctx| {
                        let inner_locks = locks.clone();
                        let grandchild = ctx.spawn(Label::new("fj.spawnInner"), "g", move |ctx| {
                            nest(ctx, &inner_locks, b, a)
                        });
                        ctx.join(&grandchild, Label::new("fj.joinInner"));
                        nest(ctx, &locks, a, b);
                    }));
                }
                Step::Join => {
                    if let Some(worker) = running.pop_front() {
                        ctx.join(&worker, Label::new("fj.join"));
                    }
                }
                Step::JoinHolding(a, b) => {
                    let outer = ctx.lock(&locks[a], Label::new(&format!("fj.holdOuter:{a}")));
                    if let Some(worker) = running.pop_front() {
                        ctx.join(&worker, Label::new("fj.joinHolding"));
                    }
                    if a != b {
                        drop(ctx.lock(&locks[b], Label::new(&format!("fj.holdInner:{b}"))));
                    }
                    drop(outer);
                }
            }
        }
        for worker in running {
            ctx.join(&worker, Label::new("fj.joinRest"));
        }
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For every pair of timed tuples of a recorded run, the online
    /// clocks (window-start clock against acquisition epoch) and the
    /// per-event oracle clocks agree on happens-before and on window
    /// overlap.
    #[test]
    fn online_clocks_answer_like_the_per_event_oracle(spec in arb_steps()) {
        let program = fork_join_program(spec.0, spec.1);
        for seed in [0u64, 1, 2] {
            let fuzzer = DeadlockFuzzer::from_ref(
                program.clone(),
                Config::default().with_phase1_seed(seed),
            );
            let trace = fuzzer.observe(SinkHandle::none(), true).trace;
            let relation = LockDependencyRelation::from_trace(&trace);
            let oracle = HbFilter::from_trace(&trace);
            prop_assert_eq!(relation.events(), trace.events().len() as u64);
            let timings: Vec<_> = (0..relation.len())
                .filter_map(|i| relation.timing(i))
                .collect();
            prop_assert_eq!(timings.len(), relation.len());
            for a in &timings {
                for b in &timings {
                    prop_assert_eq!(
                        a.ends_before(b),
                        oracle.happens_before(a.acquire_seq, b.window_start_seq)
                    );
                    prop_assert_eq!(a.may_overlap(b), oracle.windows_may_overlap(a, b));
                }
            }
        }
    }
}
