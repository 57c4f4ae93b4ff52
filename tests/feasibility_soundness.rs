//! Property-based soundness check for the precision layer: a cycle the
//! feasibility analysis scores `Infeasible` must never be confirmed by a
//! Phase II trial — on any program, under several seeds.
//!
//! The generator builds programs in *stages*: every thread of stage `k`
//! is spawned and joined before stage `k + 1` starts, so lock-order
//! inversions that span stages are separated by fork/join happens-before
//! edges (exactly what the partial-order check proves infeasible), while
//! inversions within a stage stay live. Mixing both shapes exercises the
//! `Infeasible` verdict against real executions.
//!
//! The staged generator forks and joins unconditionally, which is the
//! verdict's precondition: fork/join structure must not depend on the
//! schedule. [`flag_gated`] breaks it on purpose, and
//! `schedule_dependent_fork_join_confirms_an_infeasible_cycle` checks in
//! the resulting counterexample.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use deadlock_fuzzer::prelude::*;
use df_igoodlock::FeasibilityVerdict;
use proptest::prelude::*;

/// A staged program spec: `stages[k][t]` is the list of (outer, inner)
/// nested acquisitions of thread `t` in stage `k`.
#[derive(Clone, Debug)]
struct Spec {
    locks: usize,
    stages: Vec<Vec<Vec<(usize, usize)>>>,
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    (2usize..5)
        .prop_flat_map(|locks| {
            let pair = (0..locks, 0..locks)
                .prop_filter_map("distinct", |(a, b)| (a != b).then_some((a, b)));
            let thread = prop::collection::vec(pair, 1..3);
            let stage = prop::collection::vec(thread, 1..3);
            (Just(locks), prop::collection::vec(stage, 1..3))
        })
        .prop_map(|(locks, stages)| Spec { locks, stages })
}

fn build(spec: Spec) -> deadlock_fuzzer::ProgramRef {
    Arc::new(Named::new("staged", move |ctx: &TCtx| {
        let locks: Vec<_> = (0..spec.locks)
            .map(|_| ctx.new_lock(Label::new("staged.newLock")))
            .collect();
        for (k, stage) in spec.stages.iter().enumerate() {
            let mut handles = Vec::new();
            for (t, pairs) in stage.iter().enumerate() {
                let locks = locks.clone();
                let pairs = pairs.clone();
                handles.push(ctx.spawn(
                    Label::new("staged.spawn"),
                    &format!("s{k}w{t}"),
                    move |ctx| {
                        for (i, &(outer, inner)) in pairs.iter().enumerate() {
                            let go = ctx.lock(
                                &locks[outer],
                                Label::new(&format!("staged.outer:{k}:{i}:{outer}")),
                            );
                            let gi = ctx.lock(
                                &locks[inner],
                                Label::new(&format!("staged.inner:{k}:{i}:{inner}")),
                            );
                            ctx.work(1);
                            drop(gi);
                            drop(go);
                        }
                    },
                ));
            }
            // The stage barrier: every cross-stage inversion is ordered
            // by these joins, which is what makes it infeasible.
            for h in &handles {
                ctx.join(h, Label::new("staged.join"));
            }
        }
    }))
}

/// A program whose fork/join structure depends on the schedule. The
/// first worker nests `b` inside `a` and sets a flag inside that
/// critical section. After `delay` work units, main looks at the flag:
/// if it is set, main joins the first worker before spawning the second
/// (which nests `a` inside `b`); if not, it spawns the second worker
/// before joining the first, and the inversion is live.
fn flag_gated(delay: u32) -> deadlock_fuzzer::ProgramRef {
    Arc::new(Named::new("flag-gated", move |ctx: &TCtx| {
        let a = ctx.new_lock(Label::new("gated.newLock:a"));
        let b = ctx.new_lock(Label::new("gated.newLock:b"));
        let flag = Arc::new(AtomicBool::new(false));
        let set = Arc::clone(&flag);
        let first = ctx.spawn(Label::new("gated.spawn:first"), "first", move |ctx| {
            let ga = ctx.lock(&a, Label::new("gated.first:a"));
            let gb = ctx.lock(&b, Label::new("gated.first:b"));
            set.store(true, Ordering::SeqCst);
            drop(gb);
            drop(ga);
        });
        let second = move |ctx: &TCtx| {
            let gb = ctx.lock(&b, Label::new("gated.second:b"));
            let ga = ctx.lock(&a, Label::new("gated.second:a"));
            drop(ga);
            drop(gb);
        };
        ctx.work(delay);
        if flag.load(Ordering::SeqCst) {
            ctx.join(&first, Label::new("gated.join:first"));
            let second = ctx.spawn(Label::new("gated.spawn:second"), "second", second);
            ctx.join(&second, Label::new("gated.join:second"));
        } else {
            let second = ctx.spawn(Label::new("gated.spawn:second"), "second", second);
            ctx.join(&first, Label::new("gated.join:first"));
            ctx.join(&second, Label::new("gated.join:second"));
        }
    }))
}

/// Outside the precondition the `Infeasible` verdict is not sound: the
/// observed run took the join-first branch, so Phase I scores the
/// inversion `Infeasible`, yet under the active scheduler the first
/// worker is paused inside its critical section before the flag is set,
/// main takes the spawn-first branch, and a trial deadlocks on exactly
/// that cycle.
#[test]
fn schedule_dependent_fork_join_confirms_an_infeasible_cycle() {
    let fuzzer = DeadlockFuzzer::from_ref(flag_gated(8), Config::default().with_feasibility(true));
    let p1 = fuzzer.phase1();
    assert_eq!(p1.abstract_cycles.len(), 1, "{p1}");
    assert_eq!(
        p1.feasibility[0].verdict,
        FeasibilityVerdict::Infeasible,
        "{p1}"
    );
    let prob = fuzzer
        .estimate_probability(&p1.abstract_cycles[0], 10)
        .expect("trials > 0");
    assert!(prob.matched > 0, "no trial confirmed the cycle: {prob}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Soundness: no trial ever confirms a cycle scored `Infeasible`.
    /// Each infeasible-scored cycle gets a real Phase II campaign under
    /// two seed bases — if the partial-order check were wrong anywhere,
    /// the active scheduler (which maximizes the reproduction chance)
    /// would be the first to prove it.
    #[test]
    fn infeasible_verdicts_are_never_confirmed(spec in arb_spec()) {
        let program = build(spec);
        let fuzzer = DeadlockFuzzer::from_ref(
            program,
            Config::default().with_feasibility(true).with_confirm_trials(4),
        );
        let p1 = fuzzer.phase1();
        prop_assert_eq!(p1.feasibility.len(), p1.abstract_cycles.len());
        for (cycle, judgement) in p1.abstract_cycles.iter().zip(&p1.feasibility) {
            if judgement.verdict != FeasibilityVerdict::Infeasible {
                continue;
            }
            prop_assert_eq!(judgement.score, 0.0);
            let prob = fuzzer
                .estimate_probability(cycle, 4)
                .expect("trials > 0");
            prop_assert!(
                prob.matched == 0,
                "a trial confirmed an Infeasible-scored cycle: {}",
                cycle
            );
        }
    }

    /// The adaptive allocator inherits that soundness operationally: it
    /// spends zero trials on `Infeasible` cycles and still reaches the
    /// same confirmed set as the uniform campaign on the same seeds.
    #[test]
    fn adaptive_pruning_preserves_the_confirmed_set(spec in arb_spec()) {
        let program = build(spec);
        let config = |adaptive: bool| {
            Config::default()
                .with_feasibility(true)
                .with_adaptive_trials(adaptive)
                .with_confirm_trials(4)
        };
        let uniform = DeadlockFuzzer::from_ref(program.clone(), config(false)).run();
        let adaptive = DeadlockFuzzer::from_ref(program, config(true)).run();
        let confirmed = |r: &deadlock_fuzzer::Report| {
            r.confirmations
                .iter()
                .filter(|c| c.confirmed)
                .map(|c| c.cycle_index)
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(confirmed(&uniform), confirmed(&adaptive));
        for c in &adaptive.confirmations {
            let infeasible = matches!(
                c.feasibility.as_ref().map(|j| j.verdict),
                Some(FeasibilityVerdict::Infeasible)
            );
            if infeasible {
                prop_assert!(c.probability.trials == 0, "pruned cycles spend nothing");
                prop_assert!(!c.confirmed);
            }
        }
    }
}
