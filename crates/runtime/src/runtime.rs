//! Entry point: running a program under a strategy.

use std::sync::Arc;
use std::time::Instant;

use df_events::{Label, ObjKind, ThreadId, Trace};

use crate::config::RunConfig;
use crate::controller::Controller;
use crate::ctx::TCtx;
use crate::result::{Outcome, RunResult};
use crate::state::ThreadState;
use crate::strategy::Strategy;

/// The virtual-thread runtime.
///
/// A `VirtualRuntime` is a reusable factory: every [`VirtualRuntime::run`]
/// call executes the given program from scratch under a fresh controller
/// with the given strategy.
///
/// # Example
///
/// ```
/// use df_runtime::{RunConfig, VirtualRuntime, strategy::RoundRobinStrategy};
/// use df_events::site;
///
/// let rt = VirtualRuntime::new(RunConfig::default());
/// let r = rt.run(Box::new(RoundRobinStrategy::new()), |ctx| {
///     let child = ctx.spawn(site!(), "worker", |ctx| ctx.work(3));
///     ctx.join(&child, site!());
/// });
/// assert!(r.outcome.is_completed());
/// ```
#[derive(Clone, Debug)]
pub struct VirtualRuntime {
    config: RunConfig,
}

impl VirtualRuntime {
    /// Creates a runtime with the given configuration.
    pub fn new(config: RunConfig) -> Self {
        VirtualRuntime { config }
    }

    /// The configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Executes `main` as the program's main thread under `strategy` and
    /// returns the run's result once every thread finished or the run was
    /// stopped (deadlock, stall, limits).
    pub fn run<F>(&self, strategy: Box<dyn Strategy>, main: F) -> RunResult
    where
        F: FnOnce(&TCtx) + Send + 'static,
    {
        crate::controller::install_quiet_abort_hook();
        let ctl = Controller::new(self.config.clone(), strategy);
        let main_id = ThreadId::new(0);
        {
            let mut inner = ctl.inner.lock();
            let main_obj = inner.g.trace.objects_mut().create_named(
                ObjKind::Thread,
                Label::new("<main>"),
                None,
                Vec::new(),
                Some("main".to_string()),
            );
            inner
                .g
                .threads
                .push(ThreadState::new(main_id, "main".to_string(), main_obj));
            inner.g.trace.bind_thread(main_id, main_obj);
            self.config.sink.thread_bound(main_id, main_obj);
            // The main thread's start schedule point, accounted here so
            // step numbering never depends on OS thread-startup timing.
            inner.g.steps += 1;
            inner.g.progress += 1;
            let c2 = Arc::clone(&ctl);
            let handle = std::thread::Builder::new()
                .name("vthread-main".to_string())
                .spawn(move || c2.thread_main(main_id, main))
                .expect("failed to spawn main OS thread");
            inner.handles.push(handle);
        }

        // Supervise: wait for completion, watching for hangs (program code
        // spinning without schedule points) and the hard wall-clock
        // deadline (which fires even while progress is steady).
        let started = Instant::now();
        let mut last_progress = 0u64;
        let mut last_change = Instant::now();
        let hung = loop {
            let mut inner = ctl.inner.lock();
            if inner.done {
                break false;
            }
            let deadline_hit = self
                .config
                .deadline
                .map(|d| started.elapsed() >= d)
                .unwrap_or(false);
            if inner.g.progress != last_progress && !deadline_hit {
                last_progress = inner.g.progress;
                last_change = Instant::now();
            } else if deadline_hit || last_change.elapsed() >= self.config.hang_timeout {
                let outcome = if deadline_hit {
                    Outcome::DeadlineExceeded
                } else {
                    Outcome::Hang
                };
                ctl.abort(&mut inner, outcome);
                break true;
            }
            let mut wait = self
                .config
                .hang_timeout
                .checked_div(4)
                .unwrap_or(self.config.hang_timeout)
                .max(std::time::Duration::from_millis(10));
            if let Some(d) = self.config.deadline {
                let remaining = d.saturating_sub(started.elapsed());
                wait = wait.min(remaining.max(std::time::Duration::from_millis(1)));
            }
            ctl.done_cond.wait_for(&mut inner, wait);
        };

        // Collect results. On a hang we cannot join threads stuck in user
        // code; detach them instead.
        let (outcome, trace, steps, mut strategy, handles, faults) = {
            let mut inner = ctl.inner.lock();
            let outcome = inner.g.final_outcome.take().unwrap_or(Outcome::Completed);
            let trace = std::mem::replace(&mut inner.g.trace, Trace::new());
            let steps = inner.g.steps;
            let strategy = inner.strategy.take().expect("strategy present at end");
            let handles = std::mem::take(&mut inner.handles);
            let faults = inner.g.fault_log();
            (outcome, trace, steps, strategy, handles, faults)
        };
        if !hung {
            for h in handles {
                let _ = h.join();
            }
        }
        let stats = strategy.finish();
        // Roll the run's scheduling statistics and fault log into the
        // shared observability registry (acquires are counted live by the
        // controller).
        let counters = self.config.obs.counters();
        counters.add_threads_paused(stats.pauses);
        counters.add_thrash_events(stats.thrashes);
        counters.add_yields_taken(stats.yields);
        counters.add_faults_injected(u64::from(faults.total()));
        // High-water mark of the in-memory event vector: zero for fully
        // streamed runs, which is the assertion behind `dfz record`'s
        // `peak trace bytes: 0`.
        counters.record_peak_trace_bytes(trace.approx_event_bytes());
        // Let streaming observers seal their output with the final object
        // table and thread bindings.
        self.config.sink.finish(&trace);
        RunResult {
            outcome,
            trace,
            steps,
            stats,
            faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{FifoStrategy, RoundRobinStrategy};
    use df_events::{site, EventKind};
    use std::time::Duration;

    fn cfg() -> RunConfig {
        RunConfig::default().with_hang_timeout(Duration::from_secs(5))
    }

    #[test]
    fn empty_program_completes() {
        let r = VirtualRuntime::new(cfg()).run(Box::new(FifoStrategy::new()), |_ctx| {});
        assert!(r.outcome.is_completed());
        assert!(r.steps >= 1);
    }

    #[test]
    fn trace_records_lock_events() {
        let r = VirtualRuntime::new(cfg()).run(Box::new(FifoStrategy::new()), |ctx| {
            let l = ctx.new_lock(site!("alloc"));
            ctx.acquire(&l, site!("acq"));
            ctx.release(&l, site!("rel"));
        });
        assert!(r.outcome.is_completed());
        assert_eq!(r.trace.acquire_count(), 1);
        let kinds: Vec<&EventKind> = r.trace.events().iter().map(|e| &e.kind).collect();
        assert!(kinds.iter().any(|k| matches!(k, EventKind::New { .. })));
        assert!(kinds.iter().any(|k| matches!(k, EventKind::Release { .. })));
    }

    #[test]
    fn reentrant_lock_records_single_acquire() {
        let r = VirtualRuntime::new(cfg()).run(Box::new(FifoStrategy::new()), |ctx| {
            let l = ctx.new_lock(site!());
            ctx.acquire(&l, site!());
            ctx.acquire(&l, site!());
            ctx.release(&l, site!());
            ctx.release(&l, site!());
        });
        assert!(r.outcome.is_completed());
        assert_eq!(r.trace.acquire_count(), 1);
        let reacquires = r
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Reacquire { .. }))
            .count();
        assert_eq!(reacquires, 1);
    }

    #[test]
    fn guard_releases_on_drop() {
        let r = VirtualRuntime::new(cfg()).run(Box::new(FifoStrategy::new()), |ctx| {
            let l = ctx.new_lock(site!());
            {
                let _g = ctx.lock(&l, site!());
            }
            // Lock must be free again: re-acquire explicitly.
            ctx.acquire(&l, site!());
            ctx.release(&l, site!());
        });
        assert!(r.outcome.is_completed());
        assert_eq!(r.trace.acquire_count(), 2);
    }

    #[test]
    fn spawn_and_join_complete() {
        let r = VirtualRuntime::new(cfg()).run(Box::new(RoundRobinStrategy::new()), |ctx| {
            let l = ctx.new_lock(site!());
            let child = ctx.spawn(site!(), "child", move |ctx| {
                let _g = ctx.lock(&l, site!());
                ctx.work(2);
            });
            ctx.work(2);
            ctx.join(&child, site!());
        });
        assert!(r.outcome.is_completed());
        // main + child started and exited
        let starts = r
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ThreadStart))
            .count();
        assert_eq!(starts, 2);
    }

    #[test]
    fn contended_lock_serializes() {
        // Two threads increment a shared counter under the same lock; the
        // result must be exact.
        let r = VirtualRuntime::new(cfg()).run(Box::new(RoundRobinStrategy::new()), |ctx| {
            let l = ctx.new_lock(site!());
            let counter = crate::ctx::Shared::new(0u32);
            let mut children = Vec::new();
            for i in 0..4 {
                let c = counter.clone();
                children.push(ctx.spawn(site!(), &format!("w{i}"), move |ctx| {
                    for _ in 0..5 {
                        let g = ctx.lock(&l, site!("w acquire"));
                        c.with(|v| *v += 1);
                        drop(g);
                        ctx.yield_now();
                    }
                }));
            }
            for ch in &children {
                ctx.join(ch, site!());
            }
            assert_eq!(counter.get(), 20);
        });
        assert!(r.outcome.is_completed(), "outcome: {:?}", r.outcome);
    }

    #[test]
    fn classic_deadlock_detected_by_waitfor_graph() {
        // Opposite lock orders forced by a round-robin schedule.
        let r = VirtualRuntime::new(cfg()).run(Box::new(RoundRobinStrategy::new()), |ctx| {
            let l1 = ctx.new_lock(site!("lock l1"));
            let l2 = ctx.new_lock(site!("lock l2"));
            let t1 = ctx.spawn(site!(), "t1", move |ctx| {
                ctx.acquire(&l1, site!("t1 acq l1"));
                ctx.yield_now();
                ctx.acquire(&l2, site!("t1 acq l2"));
                ctx.release(&l2, site!());
                ctx.release(&l1, site!());
            });
            let t2 = ctx.spawn(site!(), "t2", move |ctx| {
                ctx.acquire(&l2, site!("t2 acq l2"));
                ctx.yield_now();
                ctx.acquire(&l1, site!("t2 acq l1"));
                ctx.release(&l1, site!());
                ctx.release(&l2, site!());
            });
            ctx.join(&t1, site!());
            ctx.join(&t2, site!());
        });
        let w = r
            .outcome
            .deadlock()
            .expect("round robin forces the deadlock");
        assert_eq!(w.len(), 2);
        assert_eq!(w.detected_by, crate::result::Detector::WaitForGraph);
    }

    #[test]
    fn program_panic_is_reported() {
        let r = VirtualRuntime::new(cfg()).run(Box::new(FifoStrategy::new()), |ctx| {
            ctx.yield_now();
            panic!("model bug");
        });
        match r.outcome {
            Outcome::ProgramPanic(ref m) => assert!(m.contains("model bug")),
            ref o => panic!("unexpected outcome {o:?}"),
        }
    }

    #[test]
    fn release_of_unheld_lock_is_program_error() {
        let r = VirtualRuntime::new(cfg()).run(Box::new(FifoStrategy::new()), |ctx| {
            let l = ctx.new_lock(site!());
            ctx.release(&l, site!());
        });
        assert!(matches!(r.outcome, Outcome::ProgramPanic(_)));
    }

    #[test]
    fn step_limit_enforced() {
        let cfg = RunConfig::default()
            .with_max_steps(50)
            .with_hang_timeout(Duration::from_secs(5));
        let r = VirtualRuntime::new(cfg).run(Box::new(FifoStrategy::new()), |ctx| loop {
            ctx.yield_now();
        });
        assert_eq!(r.outcome, Outcome::StepLimit);
    }

    #[test]
    fn deadline_fires_even_while_progress_is_steady() {
        // An endless yield loop keeps the progress counter moving, so the
        // hang watchdog never fires — only the hard deadline bounds it.
        let cfg = RunConfig::default()
            .with_max_steps(u64::MAX)
            .with_hang_timeout(Duration::from_secs(60))
            .with_deadline(Duration::from_millis(150));
        let start = std::time::Instant::now();
        let r = VirtualRuntime::new(cfg).run(Box::new(FifoStrategy::new()), |ctx| loop {
            ctx.yield_now();
        });
        assert_eq!(r.outcome, Outcome::DeadlineExceeded);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "bounded promptly"
        );
    }

    #[test]
    fn hang_watchdog_fires_on_spin_loop() {
        let cfg = RunConfig::default().with_hang_timeout(Duration::from_millis(200));
        let r = VirtualRuntime::new(cfg).run(Box::new(FifoStrategy::new()), |ctx| {
            ctx.yield_now();
            #[allow(clippy::empty_loop)]
            loop {
                // no schedule points: the watchdog must fire
                std::hint::black_box(0u8);
            }
        });
        assert_eq!(r.outcome, Outcome::Hang);
    }

    #[test]
    fn join_on_unfinished_thread_waits() {
        let r = VirtualRuntime::new(cfg()).run(Box::new(RoundRobinStrategy::new()), |ctx| {
            let child = ctx.spawn(site!(), "slow", |ctx| ctx.work(10));
            ctx.join(&child, site!());
            // join returned → child must have exited; work events precede
        });
        assert!(r.outcome.is_completed());
        let exit_pos = r
            .trace
            .events()
            .iter()
            .position(|e| matches!(e.kind, EventKind::ThreadExit) && e.thread == ThreadId::new(1))
            .expect("child exit");
        let join_pos = r
            .trace
            .events()
            .iter()
            .position(|e| matches!(e.kind, EventKind::Join { .. }))
            .expect("join event");
        assert!(exit_pos < join_pos);
    }

    #[test]
    fn record_trace_off_still_tracks_objects() {
        let cfg = RunConfig::default()
            .with_record_trace(false)
            .with_hang_timeout(Duration::from_secs(5));
        let r = VirtualRuntime::new(cfg).run(Box::new(FifoStrategy::new()), |ctx| {
            let l = ctx.new_lock(site!());
            ctx.acquire(&l, site!());
            ctx.release(&l, site!());
        });
        assert!(r.outcome.is_completed());
        assert!(r.trace.events().is_empty());
        // main thread object + lock object
        assert_eq!(r.trace.objects().len(), 2);
    }

    #[test]
    fn nested_scopes_track_execution_index() {
        let r = VirtualRuntime::new(cfg()).run(Box::new(FifoStrategy::new()), |ctx| {
            for _ in 0..2 {
                ctx.scope(site!("call foo"), || {
                    let _l = ctx.new_lock(site!("alloc in foo"));
                });
            }
        });
        assert!(r.outcome.is_completed());
        // objects: main thread, two locks
        let locks: Vec<_> = r
            .trace
            .objects()
            .iter()
            .filter(|m| m.kind == df_events::ObjKind::Lock)
            .collect();
        assert_eq!(locks.len(), 2);
        // Same allocation site, different execution indices (call counts 1
        // and 2).
        assert_eq!(locks[0].site, locks[1].site);
        assert_ne!(locks[0].index, locks[1].index);
        assert_eq!(locks[0].index.len(), 2); // call frame + alloc frame
        assert_eq!(locks[0].index[0].count, 1);
        assert_eq!(locks[1].index[0].count, 2);
    }

    #[test]
    fn receiver_scopes_set_object_owner() {
        let r = VirtualRuntime::new(cfg()).run(Box::new(FifoStrategy::new()), |ctx| {
            let recv = ctx.new_object(site!("alloc receiver"));
            ctx.scope_on(&recv, site!("call method"), || {
                let _l = ctx.new_lock(site!("alloc lock in method"));
            });
        });
        assert!(r.outcome.is_completed());
        let lock = r
            .trace
            .objects()
            .iter()
            .find(|m| m.kind == df_events::ObjKind::Lock)
            .expect("lock created");
        let owner = lock.owner.expect("lock has owner");
        assert_eq!(r.trace.objects().get(owner).kind, df_events::ObjKind::Plain);
    }

    #[test]
    fn spawned_thread_objects_have_spawn_site() {
        let r = VirtualRuntime::new(cfg()).run(Box::new(RoundRobinStrategy::new()), |ctx| {
            let t = ctx.spawn(site!("spawn worker"), "w", |ctx| ctx.yield_now());
            ctx.join(&t, site!());
        });
        assert!(r.outcome.is_completed());
        let child_obj = r.trace.thread_obj(ThreadId::new(1)).expect("bound");
        let meta = r.trace.objects().get(child_obj);
        assert_eq!(meta.kind, df_events::ObjKind::Thread);
        assert!(meta.site.as_str().contains("spawn worker"));
    }

    #[test]
    fn three_thread_cycle_detected() {
        let r = VirtualRuntime::new(cfg()).run(Box::new(RoundRobinStrategy::new()), |ctx| {
            let locks: Vec<_> = (0..3).map(|_| ctx.new_lock(site!("locks"))).collect();
            let mut children = Vec::new();
            for i in 0..3 {
                let a = locks[i];
                let b = locks[(i + 1) % 3];
                children.push(ctx.spawn(site!(), &format!("t{i}"), move |ctx| {
                    ctx.acquire(&a, site!("first"));
                    ctx.yield_now();
                    ctx.acquire(&b, site!("second"));
                    ctx.release(&b, site!());
                    ctx.release(&a, site!());
                }));
            }
            for c in &children {
                ctx.join(c, site!());
            }
        });
        let w = r.outcome.deadlock().expect("3-cycle deadlock");
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn injected_acquire_panic_is_classified_not_hung() {
        let plan = crate::FaultPlan::new(11).with_panic_on_acquire(1.0);
        let r = VirtualRuntime::new(cfg().with_fault_plan(plan)).run(
            Box::new(FifoStrategy::new()),
            |ctx| {
                let l = ctx.new_lock(site!());
                ctx.acquire(&l, site!("doomed acquire"));
                ctx.release(&l, site!());
            },
        );
        match r.outcome {
            Outcome::ProgramPanic(ref m) => assert!(m.contains("injected fault"), "{m}"),
            ref o => panic!("unexpected outcome {o:?}"),
        }
        assert_eq!(r.faults.panics, 1);
    }

    #[test]
    fn injected_acquire_panic_unwinds_held_guards() {
        // The outer guard must release during the unwind without wedging
        // the controller.
        let plan = crate::FaultPlan::new(11).with_panic_on_acquire(1.0);
        let r = VirtualRuntime::new(cfg().with_fault_plan(plan)).run(
            Box::new(FifoStrategy::new()),
            |ctx| {
                let a = ctx.new_lock(site!("outer"));
                let b = ctx.new_lock(site!("inner"));
                let _g = ctx.lock(&a, site!("outer acquire"));
                ctx.acquire(&b, site!("inner acquire"));
                ctx.release(&b, site!());
            },
        );
        assert!(
            matches!(r.outcome, Outcome::ProgramPanic(_)),
            "{:?}",
            r.outcome
        );
        assert!(r.faults.panics >= 1);
    }

    #[test]
    fn leaked_release_starves_contenders_into_a_stall() {
        let plan = crate::FaultPlan::new(5).with_leak_release(1.0);
        let r = VirtualRuntime::new(cfg().with_fault_plan(plan)).run(
            Box::new(RoundRobinStrategy::new()),
            |ctx| {
                let l = ctx.new_lock(site!());
                let t = ctx.spawn(site!(), "contender", move |ctx| {
                    ctx.acquire(&l, site!("contender acquire"));
                    ctx.release(&l, site!());
                });
                ctx.acquire(&l, site!("main acquire"));
                ctx.release(&l, site!("leaked release"));
                ctx.join(&t, site!());
            },
        );
        // Main leaks the lock, so the contender can never acquire and the
        // join can never complete: a classified stall, not a hang.
        assert!(
            matches!(r.outcome, Outcome::Stall { .. }),
            "outcome: {:?}",
            r.outcome
        );
        assert!(r.faults.leaked_releases >= 1, "{}", r.faults);
    }

    #[test]
    fn spurious_wakeups_do_not_break_guarded_waits() {
        let plan = crate::FaultPlan::new(7).with_spurious_wakeup(0.5);
        let r = VirtualRuntime::new(cfg().with_fault_plan(plan)).run(
            Box::new(RoundRobinStrategy::new()),
            |ctx| {
                let m = ctx.new_lock(site!("monitor"));
                let flag = crate::ctx::Shared::new(false);
                let f2 = flag.clone();
                let waiter = ctx.spawn(site!(), "waiter", move |ctx| {
                    ctx.acquire(&m, site!("waiter lock"));
                    while !f2.get() {
                        ctx.wait(&m, site!("waiter wait"));
                    }
                    ctx.release(&m, site!("waiter unlock"));
                });
                ctx.work(5);
                ctx.acquire(&m, site!("main lock"));
                flag.with(|f| *f = true);
                ctx.notify_all(&m, site!("main notify"));
                ctx.release(&m, site!("main unlock"));
                ctx.join(&waiter, site!());
            },
        );
        // A while-guarded wait absorbs spurious wakeups: the program still
        // completes, and at least one wakeup was injected while the waiter
        // sat in the wait set.
        assert!(r.outcome.is_completed(), "outcome: {:?}", r.outcome);
        assert!(r.faults.spurious_wakeups >= 1, "{}", r.faults);
    }

    #[test]
    fn runaway_spawns_add_threads_but_run_completes() {
        let plan = crate::FaultPlan::new(3)
            .with_runaway_spawn(1.0)
            .with_max_runaway_spawns(2);
        let r = VirtualRuntime::new(cfg().with_fault_plan(plan)).run(
            Box::new(RoundRobinStrategy::new()),
            |ctx| {
                let t = ctx.spawn(site!(), "real child", |ctx| ctx.work(3));
                ctx.join(&t, site!());
            },
        );
        assert!(r.outcome.is_completed(), "outcome: {:?}", r.outcome);
        assert_eq!(r.faults.runaway_spawns, 1, "one program spawn, one fault");
        let starts = r
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ThreadStart))
            .count();
        // main + real child + injected runaway
        assert_eq!(starts, 3);
    }

    #[test]
    fn chaos_runs_always_terminate_with_a_classified_outcome() {
        // The acceptance gate for the fault harness: under a mix of every
        // fault kind, a deadlock-prone program must still terminate quickly
        // with some classified outcome — never a wall-clock hang.
        for seed in 0..8u64 {
            let plan = crate::FaultPlan::new(seed)
                .with_panic_on_acquire(0.05)
                .with_leak_release(0.1)
                .with_spurious_wakeup(0.2)
                .with_runaway_spawn(0.3)
                .with_max_runaway_spawns(2);
            let cfg = RunConfig::default()
                .with_max_steps(5_000)
                .with_hang_timeout(Duration::from_secs(5))
                .with_fault_plan(plan);
            let r = VirtualRuntime::new(cfg).run(Box::new(RoundRobinStrategy::new()), |ctx| {
                let l1 = ctx.new_lock(site!("l1"));
                let l2 = ctx.new_lock(site!("l2"));
                let t1 = ctx.spawn(site!(), "t1", move |ctx| {
                    ctx.acquire(&l1, site!());
                    ctx.yield_now();
                    ctx.acquire(&l2, site!());
                    ctx.release(&l2, site!());
                    ctx.release(&l1, site!());
                });
                let t2 = ctx.spawn(site!(), "t2", move |ctx| {
                    ctx.acquire(&l2, site!());
                    ctx.yield_now();
                    ctx.acquire(&l1, site!());
                    ctx.release(&l1, site!());
                    ctx.release(&l2, site!());
                });
                ctx.join(&t1, site!());
                ctx.join(&t2, site!());
            });
            assert!(
                !matches!(r.outcome, Outcome::Hang),
                "seed {seed} hung: {:?}",
                r.outcome
            );
        }
    }

    #[test]
    fn obs_counters_track_acquires_and_faults() {
        let obs = df_obs::Obs::with_memory_sink();
        let plan = crate::FaultPlan::new(5).with_leak_release(1.0);
        let r = VirtualRuntime::new(cfg().with_fault_plan(plan).with_obs(obs.clone())).run(
            Box::new(RoundRobinStrategy::new()),
            |ctx| {
                let l = ctx.new_lock(site!());
                ctx.acquire(&l, site!("acq"));
                ctx.release(&l, site!("leaked release"));
            },
        );
        let s = obs.counters().snapshot();
        assert_eq!(s.acquires_observed, 1);
        assert_eq!(s.faults_injected, u64::from(r.faults.total()));
        assert!(s.faults_injected >= 1);
        let trace = obs.trace_contents().unwrap();
        assert!(trace.contains("FaultInjected"), "{trace}");
        assert!(trace.contains("leak_release"), "{trace}");
    }

    #[test]
    fn fault_runs_are_deterministic_per_seed() {
        let run = || {
            let plan = crate::FaultPlan::new(21)
                .with_leak_release(0.3)
                .with_spurious_wakeup(0.3);
            VirtualRuntime::new(cfg().with_fault_plan(plan)).run(
                Box::new(RoundRobinStrategy::new()),
                |ctx| {
                    let l = ctx.new_lock(site!());
                    let t = ctx.spawn(site!(), "w", move |ctx| {
                        for _ in 0..4 {
                            ctx.acquire(&l, site!());
                            ctx.release(&l, site!());
                            ctx.yield_now();
                        }
                    });
                    for _ in 0..4 {
                        ctx.acquire(&l, site!());
                        ctx.release(&l, site!());
                        ctx.yield_now();
                    }
                    ctx.join(&t, site!());
                },
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.steps, b.steps);
        assert_eq!(format!("{:?}", a.outcome), format!("{:?}", b.outcome));
    }

    #[test]
    fn runs_are_reusable_and_deterministic() {
        let rt = VirtualRuntime::new(cfg());
        let run = || {
            rt.run(Box::new(RoundRobinStrategy::new()), |ctx| {
                let l = ctx.new_lock(site!());
                let t = ctx.spawn(site!(), "w", move |ctx| {
                    let _g = ctx.lock(&l, site!());
                });
                let _g = ctx.lock(&l, site!());
                drop(_g);
                ctx.join(&t, site!());
            })
        };
        let a = run();
        let b = run();
        assert!(a.outcome.is_completed());
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.trace.events().len(), b.trace.events().len());
        for (x, y) in a.trace.events().iter().zip(b.trace.events()) {
            assert_eq!(x, y);
        }
    }

    /// A sink that captures the full stream for comparison in tests.
    #[derive(Default)]
    struct CapturingSink {
        events: Vec<df_events::Event>,
        bindings: Vec<(ThreadId, df_events::ObjId)>,
        finished: bool,
    }

    impl df_events::EventSink for CapturingSink {
        fn on_event(&mut self, event: &df_events::Event) {
            self.events.push(event.clone());
        }

        fn on_thread_bound(&mut self, thread: ThreadId, obj: df_events::ObjId) {
            self.bindings.push((thread, obj));
        }

        fn on_finish(&mut self, _trace: &Trace) {
            self.finished = true;
        }
    }

    fn spawning_program(ctx: &TCtx) {
        let l = ctx.new_lock(site!("outer"));
        let m = ctx.new_lock(site!("inner"));
        let (l2, m2) = (l, m);
        let t = ctx.spawn(site!("spawn"), "worker", move |ctx| {
            let _a = ctx.lock(&l2, site!());
            let _b = ctx.lock(&m2, site!());
        });
        {
            let _a = ctx.lock(&l, site!());
            let _b = ctx.lock(&m, site!());
        }
        ctx.join(&t, site!());
    }

    #[test]
    fn sink_observes_the_exact_recorded_stream() {
        let sink = std::sync::Arc::new(std::sync::Mutex::new(CapturingSink::default()));
        let handle = df_events::SinkHandle::single(
            sink.clone() as std::sync::Arc<std::sync::Mutex<dyn df_events::EventSink>>
        );
        let obs = df_obs::Obs::new();
        let r = VirtualRuntime::new(cfg().with_event_sink(handle).with_obs(obs.clone()))
            .run(Box::new(FifoStrategy::new()), spawning_program);
        assert!(r.outcome.is_completed());
        let s = sink.lock().unwrap();
        assert!(s.finished);
        assert_eq!(s.events.as_slice(), r.trace.events());
        // Every traced thread binding was announced to the sink.
        for (thread, obj) in r.trace.thread_objs() {
            assert!(s.bindings.contains(&(thread, obj)), "missing {thread:?}");
        }
        let snap = obs.counters().snapshot();
        assert_eq!(snap.events_streamed, r.trace.events().len() as u64);
        assert_eq!(snap.peak_trace_bytes, r.trace.approx_event_bytes());
    }

    #[test]
    fn virtual_runtime_streams_into_a_binary_spill() {
        use std::io::Write;

        #[derive(Clone, Default)]
        struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = SharedBuf::default();
        let spill = std::sync::Arc::new(std::sync::Mutex::new(
            df_events::SpillSink::with_format(buf.clone(), df_events::TraceFormat::Binary)
                .expect("start spill"),
        ));
        let handle = df_events::SinkHandle::single(
            spill.clone() as std::sync::Arc<std::sync::Mutex<dyn df_events::EventSink>>
        );
        let r = VirtualRuntime::new(cfg().with_event_sink(handle))
            .run(Box::new(FifoStrategy::new()), spawning_program);
        assert!(r.outcome.is_completed());
        let (events, _bytes) = spill.lock().unwrap().close().expect("sealed spill");
        assert_eq!(events, r.trace.events().len() as u64);

        // The v2 artifact round-trips the exact stream the runtime saw.
        let bytes = buf.0.lock().unwrap().clone();
        assert!(bytes.starts_with(&df_events::TRACE_BINARY_MAGIC));
        let decoded = df_events::read_trace_bytes(&bytes).expect("decodes");
        assert_eq!(decoded.events(), r.trace.events());
        let live: Vec<_> = r.trace.thread_objs().collect();
        let spilled: Vec<_> = decoded.thread_objs().collect();
        assert_eq!(live, spilled);
    }

    #[test]
    fn streaming_without_recording_sees_the_same_events_at_zero_peak() {
        let recorded =
            VirtualRuntime::new(cfg()).run(Box::new(FifoStrategy::new()), spawning_program);
        let sink = std::sync::Arc::new(std::sync::Mutex::new(CapturingSink::default()));
        let handle = df_events::SinkHandle::single(
            sink.clone() as std::sync::Arc<std::sync::Mutex<dyn df_events::EventSink>>
        );
        let obs = df_obs::Obs::new();
        let r = VirtualRuntime::new(
            cfg()
                .with_record_trace(false)
                .with_event_sink(handle)
                .with_obs(obs.clone()),
        )
        .run(Box::new(FifoStrategy::new()), spawning_program);
        assert!(r.outcome.is_completed());
        assert!(r.trace.events().is_empty(), "no event vector materialized");
        let s = sink.lock().unwrap();
        assert_eq!(s.events.as_slice(), recorded.trace.events());
        let snap = obs.counters().snapshot();
        assert_eq!(snap.peak_trace_bytes, 0);
        assert_eq!(snap.events_streamed, recorded.trace.events().len() as u64);
    }
}
