//! Wake-up regression tests for the controller's direct token handoff.
//!
//! A waiting virtual thread parks its carrier (after a bounded yield loop
//! when it is one of at most two threads a pick can choose), and a pick
//! unparks only the picked thread's carrier, after the controller mutex
//! is released. So every way a run can end must explicitly release every
//! parked or yielding thread, a pick that lands before the picked thread
//! has parked (or reached its carrier) must not be lost, and an unpark
//! that arrives late, at a carrier already running another virtual
//! thread, must not let that thread run unpicked.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use df_events::{site, EventKind, ThreadId};
use df_runtime::strategy::{FifoStrategy, RoundRobinStrategy};
use df_runtime::{
    DeadlockWitness, Detector, Directive, Outcome, RunConfig, RunResult, StateView, Strategy, TCtx,
    VirtualRuntime,
};

const CHILDREN: usize = 32;

/// Counts one release when dropped: when the child it belongs to unwinds
/// out of a schedule point, or when the child's closure is dropped before
/// its thread ever started.
struct ReleaseGuard(Arc<AtomicUsize>);

impl Drop for ReleaseGuard {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// A program whose main thread spawns [`CHILDREN`] children that yield
/// forever, then runs `tail`.
fn parked_children<T>(released: &Arc<AtomicUsize>, tail: T) -> impl FnOnce(&TCtx) + Send + 'static
where
    T: FnOnce(&TCtx) + Send + 'static,
{
    let released = Arc::clone(released);
    move |ctx: &TCtx| {
        for i in 0..CHILDREN {
            let guard = ReleaseGuard(Arc::clone(&released));
            ctx.spawn(site!("handoff spawn"), &format!("child-{i}"), move |ctx| {
                let _guard = guard;
                loop {
                    ctx.yield_now();
                }
            });
        }
        tail(ctx);
    }
}

/// Runs `main` on a helper thread so a thread that is never woken fails
/// the test instead of hanging it (`run` joins every virtual thread).
fn run_bounded<F>(config: RunConfig, strategy: Box<dyn Strategy>, main: F) -> RunResult
where
    F: FnOnce(&TCtx) + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(VirtualRuntime::new(config).run(strategy, main));
    });
    let result = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("run did not return: a parked thread was never woken");
    runner.join().expect("runner thread panicked");
    result
}

/// Polls until every child has been released, failing after a bound.
fn assert_all_released(released: &AtomicUsize) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while released.load(Ordering::SeqCst) < CHILDREN {
        assert!(
            Instant::now() < give_up,
            "only {} of {CHILDREN} parked children were released",
            released.load(Ordering::SeqCst)
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(released.load(Ordering::SeqCst), CHILDREN);
}

/// Round-robin scheduling that ends the run with a fixed directive once
/// every thread has had time to reach a schedule point in its body.
struct StopAfter {
    inner: RoundRobinStrategy,
    picks: u32,
    stop: fn() -> Directive,
}

impl StopAfter {
    fn new(stop: fn() -> Directive) -> Self {
        StopAfter {
            inner: RoundRobinStrategy::new(),
            picks: 0,
            stop,
        }
    }
}

impl Strategy for StopAfter {
    fn pick(&mut self, view: &StateView<'_>, enabled: &[ThreadId]) -> Directive {
        self.picks += 1;
        if self.picks > 2_000 {
            return (self.stop)();
        }
        self.inner.pick(view, enabled)
    }
}

fn yield_forever(ctx: &TCtx) {
    loop {
        ctx.yield_now();
    }
}

fn config() -> RunConfig {
    RunConfig::default()
        .with_max_steps(u64::MAX)
        .with_hang_timeout(Duration::from_secs(60))
}

#[test]
fn strategy_abort_releases_every_parked_thread() {
    let released = Arc::new(AtomicUsize::new(0));
    let r = run_bounded(
        config(),
        Box::new(StopAfter::new(|| Directive::Abort("enough".to_string()))),
        parked_children(&released, yield_forever),
    );
    assert_eq!(r.outcome, Outcome::StrategyAbort("enough".to_string()));
    assert_all_released(&released);
}

#[test]
fn strategy_deadlock_releases_every_parked_thread() {
    let released = Arc::new(AtomicUsize::new(0));
    let r = run_bounded(
        config(),
        Box::new(StopAfter::new(|| {
            Directive::Deadlock(DeadlockWitness {
                components: Vec::new(),
                detected_by: Detector::Strategy,
            })
        })),
        parked_children(&released, yield_forever),
    );
    assert!(
        matches!(r.outcome, Outcome::Deadlock(_)),
        "outcome: {:?}",
        r.outcome
    );
    assert_all_released(&released);
}

#[test]
fn deadline_expiry_releases_every_parked_thread() {
    let released = Arc::new(AtomicUsize::new(0));
    let r = run_bounded(
        config().with_deadline(Duration::from_millis(200)),
        Box::new(RoundRobinStrategy::new()),
        parked_children(&released, yield_forever),
    );
    assert_eq!(r.outcome, Outcome::DeadlineExceeded);
    assert_all_released(&released);
}

#[test]
fn hang_releases_every_parked_thread() {
    // Main keeps the token and spins in program code with no schedule
    // point, so no child ever starts; the watchdog must still release
    // all of them. The flag lets the spinner finish once checked.
    let released = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let spin = Arc::clone(&stop);
    let r = run_bounded(
        config().with_hang_timeout(Duration::from_millis(200)),
        Box::new(FifoStrategy::new()),
        parked_children(&released, move |_ctx| {
            while !spin.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
        }),
    );
    let outcome = r.outcome.clone();
    assert_all_released(&released);
    stop.store(true, Ordering::SeqCst);
    assert_eq!(outcome, Outcome::Hang);
}

/// Always runs the highest enabled thread, so a freshly spawned child is
/// picked at its parent's next schedule point — typically before the
/// child's OS thread has reached its first schedule point.
struct Lifo;

impl Strategy for Lifo {
    fn pick(&mut self, _view: &StateView<'_>, enabled: &[ThreadId]) -> Directive {
        Directive::Run(
            *enabled
                .last()
                .expect("pick is only asked with enabled threads"),
        )
    }
}

#[test]
fn picks_that_beat_a_child_to_its_start_point_are_not_lost() {
    let rt = VirtualRuntime::new(RunConfig::default().with_hang_timeout(Duration::from_secs(5)));
    let mut first: Option<Vec<u8>> = None;
    for rep in 0..200 {
        let r = rt.run(Box::new(Lifo), |ctx| {
            let lock = ctx.new_lock(site!("race lock"));
            let children: Vec<_> = (0..16)
                .map(|i| {
                    ctx.spawn(site!("race spawn"), &format!("racer-{i}"), move |ctx| {
                        let _g = ctx.lock(&lock, site!("racer lock"));
                        ctx.yield_now();
                    })
                })
                .collect();
            for child in &children {
                ctx.join(child, site!("race join"));
            }
        });
        assert_eq!(r.outcome, Outcome::Completed, "rep {rep}");
        let bytes = df_events::write_trace(Vec::new(), &r.trace).expect("trace encodes");
        match &first {
            None => first = Some(bytes),
            Some(f) => assert!(*f == bytes, "rep {rep}: trace differs from rep 0"),
        }
    }
}

/// Picks a pseudo-random enabled thread (xorshift, seeded per run), logs
/// every pick, and stops the run with an abort after `abort_after` picks,
/// if set, while the other threads are parked.
struct LoggedRandom {
    state: u64,
    abort_after: Option<usize>,
    log: Arc<Mutex<Vec<ThreadId>>>,
}

impl Strategy for LoggedRandom {
    fn pick(&mut self, _view: &StateView<'_>, enabled: &[ThreadId]) -> Directive {
        let mut log = self.log.lock().unwrap();
        if self.abort_after == Some(log.len()) {
            return Directive::Abort("cut short".to_string());
        }
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let t = enabled[(self.state % enabled.len() as u64) as usize];
        log.push(t);
        Directive::Run(t)
    }
}

/// Main spawns four children that take a shared lock and yield in turn,
/// then joins them: every schedule point records exactly one event of the
/// picked thread (a thread's exit records one more, without a pick).
fn yielding_children(ctx: &TCtx) {
    let lock = ctx.new_lock(site!("stale lock"));
    let children: Vec<_> = (0..4)
        .map(|i| {
            ctx.spawn(site!("stale spawn"), &format!("yielder-{i}"), move |ctx| {
                for _ in 0..3 {
                    let _g = ctx.lock(&lock, site!("stale acquire"));
                    ctx.yield_now();
                }
            })
        })
        .collect();
    for child in &children {
        ctx.join(child, site!("stale join"));
    }
}

#[test]
fn late_unparks_on_reused_carriers_never_run_an_unpicked_thread() {
    // Two runners share the process-wide carrier pool, so a carrier is
    // reused from run to run and between the runners, and an unpark
    // meant for a thread of one run (an abort's wake-all, or a handoff
    // whose giver was slow to unpark) can reach a thread of the next.
    // Every event must still come from the thread the strategy picked
    // for that schedule point, in pick order.
    const RUNS_PER_RUNNER: u64 = 300;
    let runners: Vec<_> = (0..2u64)
        .map(|runner| {
            std::thread::spawn(move || {
                let rt = VirtualRuntime::new(
                    RunConfig::default().with_hang_timeout(Duration::from_secs(10)),
                );
                for run in 0..RUNS_PER_RUNNER {
                    let seed = runner * RUNS_PER_RUNNER + run;
                    let log = Arc::new(Mutex::new(Vec::new()));
                    let strategy = LoggedRandom {
                        state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
                        // Every third run is cut short mid-run.
                        abort_after: seed.is_multiple_of(3).then_some(5 + (seed % 40) as usize),
                        log: Arc::clone(&log),
                    };
                    let r = rt.run(Box::new(strategy), yielding_children);
                    assert!(
                        matches!(r.outcome, Outcome::Completed | Outcome::StrategyAbort(_)),
                        "run {seed}: {:?}",
                        r.outcome
                    );
                    let ran: Vec<ThreadId> = r
                        .trace
                        .events()
                        .iter()
                        .filter(|e| !matches!(e.kind, EventKind::ThreadExit))
                        .map(|e| e.thread)
                        .collect();
                    let picked = log.lock().unwrap().clone();
                    assert_eq!(ran, picked, "run {seed}: events differ from the picks");
                }
            })
        })
        .collect();
    for runner in runners {
        runner.join().expect("runner passed");
    }
}

/// Yields each thread of [`ping_pong`] makes.
const PING_PONG_ROUNDS: usize = 20;

/// Main spawns one child and both yield [`PING_PONG_ROUNDS`] times,
/// appending their id to `ran` each time a yield returns; then main
/// joins the child. With two threads, every pick's enabled set holds at
/// most two, so a waiter yields its carrier before it parks.
fn ping_pong(ran: &Arc<Mutex<Vec<ThreadId>>>) -> impl FnOnce(&TCtx) + Send + 'static {
    let rounds = |ran: Arc<Mutex<Vec<ThreadId>>>| {
        move |ctx: &TCtx| {
            for _ in 0..PING_PONG_ROUNDS {
                ctx.yield_now();
                ran.lock().unwrap().push(ctx.id());
            }
        }
    };
    let child = rounds(Arc::clone(ran));
    let main = rounds(Arc::clone(ran));
    move |ctx: &TCtx| {
        let child = ctx.spawn(site!("ping-pong spawn"), "pong", child);
        main(ctx);
        ctx.join(&child, site!("ping-pong join"));
    }
}

#[test]
fn a_two_thread_ping_pong_on_the_yield_path_runs_only_picked_threads() {
    // As above, two runners share the carrier pool. A waiter that leaves
    // its yield loop must still find itself picked under the controller
    // mutex before it runs: every event, and every return from a yield
    // the program sees, must come from the thread the strategy picked,
    // in pick order, in whole runs and in runs aborted mid-way alike.
    const RUNS_PER_RUNNER: u64 = 300;
    let runners: Vec<_> = (0..2u64)
        .map(|runner| {
            std::thread::spawn(move || {
                let rt = VirtualRuntime::new(
                    RunConfig::default().with_hang_timeout(Duration::from_secs(10)),
                );
                for run in 0..RUNS_PER_RUNNER {
                    let seed = runner * RUNS_PER_RUNNER + run;
                    let log = Arc::new(Mutex::new(Vec::new()));
                    let ran = Arc::new(Mutex::new(Vec::new()));
                    let strategy = LoggedRandom {
                        state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
                        // Every third run is cut short mid-run.
                        abort_after: seed.is_multiple_of(3).then_some(3 + (seed % 40) as usize),
                        log: Arc::clone(&log),
                    };
                    let r = rt.run(Box::new(strategy), ping_pong(&ran));
                    assert!(
                        matches!(r.outcome, Outcome::Completed | Outcome::StrategyAbort(_)),
                        "run {seed}: {:?}",
                        r.outcome
                    );
                    let events = r.trace.events();
                    let picked_events: Vec<ThreadId> = events
                        .iter()
                        .filter(|e| !matches!(e.kind, EventKind::ThreadExit))
                        .map(|e| e.thread)
                        .collect();
                    let picked = log.lock().unwrap().clone();
                    assert_eq!(
                        picked_events, picked,
                        "run {seed}: events differ from the picks"
                    );
                    let yields: Vec<ThreadId> = events
                        .iter()
                        .filter(|e| matches!(e.kind, EventKind::Yield))
                        .map(|e| e.thread)
                        .collect();
                    let ran = ran.lock().unwrap().clone();
                    assert_eq!(
                        ran, yields,
                        "run {seed}: a yield returned to an unpicked thread"
                    );
                }
            })
        })
        .collect();
    for runner in runners {
        runner.join().expect("runner passed");
    }
}

#[test]
fn a_strategy_abort_while_a_waiter_yields_releases_both_threads() {
    // Two threads alternate, so the one that just gave the token away
    // is in its yield loop when the other's next pick aborts the run.
    for picks in 2..102u32 {
        let released = Arc::new(AtomicUsize::new(0));
        let child_guard = ReleaseGuard(Arc::clone(&released));
        let main_guard = ReleaseGuard(Arc::clone(&released));
        // `StopAfter` aborts after its 2,000th pick; counting from
        // `picks` short of that aborts this run after `picks` picks.
        let mut strategy = StopAfter::new(|| Directive::Abort("mid-yield".to_string()));
        strategy.picks = 2_000 - picks;
        let r = run_bounded(config(), Box::new(strategy), move |ctx| {
            let _guard = main_guard;
            ctx.spawn(site!("yield abort spawn"), "yielder", move |ctx| {
                let _guard = child_guard;
                yield_forever(ctx);
            });
            yield_forever(ctx);
        });
        assert_eq!(
            r.outcome,
            Outcome::StrategyAbort("mid-yield".to_string()),
            "abort after {picks} picks"
        );
        assert_eq!(
            released.load(Ordering::SeqCst),
            2,
            "abort after {picks} picks: a thread was never released"
        );
    }
}
