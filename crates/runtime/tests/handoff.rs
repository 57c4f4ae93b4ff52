//! Wake-up regression tests for the controller's direct token handoff.
//!
//! Each virtual thread parks on its own condvar and a pick wakes only the
//! picked thread, so every way a run can end must explicitly release every
//! parked thread, and a pick that lands before the picked thread has
//! parked must not be lost.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use df_events::{site, ThreadId};
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
