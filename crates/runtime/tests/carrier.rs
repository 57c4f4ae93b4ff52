//! Carrier threads: virtual threads run on a process-wide pool of parked
//! OS threads. A run must survive a hung or panicking predecessor, a
//! reused carrier must carry nothing of the virtual thread it ran before,
//! and retired carriers are replaced by new ones.
//!
//! The pool is shared by the whole process, so every test here holds
//! [`SERIAL`]: carrier counts are exact only while no other run starts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use df_events::{site, Event, EventKind, ThreadId};
use df_runtime::strategy::RoundRobinStrategy;
use df_runtime::{
    carriers_started, retire_idle_carriers, Directive, Outcome, RunConfig, RunResult, StateView,
    Strategy, TCtx, VirtualRuntime,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn run<F>(hang_timeout: Duration, strategy: Box<dyn Strategy>, main: F) -> RunResult
where
    F: FnOnce(&TCtx) + Send + 'static,
{
    VirtualRuntime::new(RunConfig::default().with_hang_timeout(hang_timeout)).run(strategy, main)
}

/// Main spawns `n` children that each take a shared lock twice, then
/// joins them. Every thread checks it runs on a carrier.
fn fan_out(n: usize) -> impl FnOnce(&TCtx) + Send + 'static {
    move |ctx: &TCtx| {
        let lock = ctx.new_lock(site!("fan-out lock"));
        let children: Vec<_> = (0..n)
            .map(|i| {
                ctx.spawn(site!("fan-out spawn"), &format!("child-{i}"), move |ctx| {
                    assert_eq!(std::thread::current().name(), Some("df-carrier"));
                    for _ in 0..2 {
                        ctx.acquire(&lock, site!("child acquire"));
                        ctx.yield_now();
                        ctx.release(&lock, site!("child release"));
                    }
                })
            })
            .collect();
        for child in &children {
            ctx.join(child, site!("fan-out join"));
        }
    }
}

#[test]
fn a_hung_run_is_followed_by_a_clean_run() {
    let _serial = serial();
    let release = Arc::new(AtomicBool::new(false));
    let spinning = Arc::clone(&release);
    let started = Instant::now();
    let hung = run(
        Duration::from_millis(200),
        Box::new(RoundRobinStrategy::new()),
        move |ctx| {
            ctx.yield_now();
            // Program code that makes no schedule point: its carrier
            // stays stuck here after the run gave up on it.
            while !spinning.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        },
    );
    assert!(matches!(hung.outcome, Outcome::Hang), "{}", hung.outcome);
    assert!(started.elapsed() < Duration::from_secs(20));
    let clean = run(
        Duration::from_secs(10),
        Box::new(RoundRobinStrategy::new()),
        fan_out(4),
    );
    assert!(clean.outcome.is_completed(), "{}", clean.outcome);
    release.store(true, Ordering::SeqCst);
}

/// Round-robin until a thread exits, then panics in `pick`: the panic
/// escapes the exiting thread's `thread_main`, after its closure ran.
struct PanicsAfterExit {
    inner: RoundRobinStrategy,
    exited: bool,
}

impl Strategy for PanicsAfterExit {
    fn pick(&mut self, view: &StateView<'_>, enabled: &[ThreadId]) -> Directive {
        if self.exited {
            panic!("strategy bug after an exit");
        }
        self.inner.pick(view, enabled)
    }

    fn on_event(&mut self, event: &Event, _view: &StateView<'_>) {
        self.exited |= matches!(event.kind, EventKind::ThreadExit);
    }
}

#[test]
fn a_panic_escaping_a_virtual_thread_does_not_hang_the_run() {
    let _serial = serial();
    let started = Instant::now();
    let r = run(
        Duration::from_millis(200),
        Box::new(PanicsAfterExit {
            inner: RoundRobinStrategy::new(),
            exited: false,
        }),
        |ctx| {
            let child = ctx.spawn(site!("spawn"), "child", |ctx| ctx.yield_now());
            ctx.join(&child, site!("join"));
        },
    );
    // Nobody holds the token once the exiting thread's pick panicked,
    // so the watchdog ends the run.
    assert!(matches!(r.outcome, Outcome::Hang), "{}", r.outcome);
    assert!(started.elapsed() < Duration::from_secs(20));
    let clean = run(
        Duration::from_secs(10),
        Box::new(RoundRobinStrategy::new()),
        fan_out(2),
    );
    assert!(clean.outcome.is_completed(), "{}", clean.outcome);
}

#[test]
fn reused_carriers_carry_nothing_of_their_previous_threads() {
    let _serial = serial();
    let reference = run(
        Duration::from_secs(10),
        Box::new(RoundRobinStrategy::new()),
        fan_out(6),
    );
    assert!(reference.outcome.is_completed(), "{}", reference.outcome);
    // A deadlock ends with threads parked mid-acquire; the abort unwinds
    // them off their carriers, and `run` returns only once they are back
    // on the idle list.
    let deadlock = run(
        Duration::from_secs(10),
        Box::new(RoundRobinStrategy::new()),
        |ctx| {
            let a = ctx.new_lock(site!("a"));
            let b = ctx.new_lock(site!("b"));
            let t1 = ctx.spawn(site!("spawn t1"), "t1", move |ctx| {
                ctx.acquire(&a, site!("t1 a"));
                ctx.yield_now();
                ctx.acquire(&b, site!("t1 b"));
            });
            let t2 = ctx.spawn(site!("spawn t2"), "t2", move |ctx| {
                ctx.acquire(&b, site!("t2 b"));
                ctx.yield_now();
                ctx.acquire(&a, site!("t2 a"));
            });
            ctx.join(&t1, site!("join t1"));
            ctx.join(&t2, site!("join t2"));
        },
    );
    assert!(deadlock.outcome.is_deadlock(), "{}", deadlock.outcome);
    // Seven carriers are idle now, so the same program starts none and
    // runs exactly as it did before.
    let before = carriers_started();
    let again = run(
        Duration::from_secs(10),
        Box::new(RoundRobinStrategy::new()),
        fan_out(6),
    );
    assert!(again.outcome.is_completed(), "{}", again.outcome);
    assert_eq!(carriers_started(), before, "the run reused idle carriers");
    assert_eq!(again.steps, reference.steps);
    assert_eq!(again.trace.events(), reference.trace.events());
}

#[test]
fn retired_carriers_are_replaced_by_new_ones() {
    let _serial = serial();
    let reference = run(
        Duration::from_secs(10),
        Box::new(RoundRobinStrategy::new()),
        fan_out(3),
    );
    assert!(reference.outcome.is_completed(), "{}", reference.outcome);
    retire_idle_carriers();
    let before = carriers_started();
    let fresh = run(
        Duration::from_secs(10),
        Box::new(RoundRobinStrategy::new()),
        fan_out(3),
    );
    assert!(fresh.outcome.is_completed(), "{}", fresh.outcome);
    assert!(
        carriers_started() > before,
        "no carrier was left idle to reuse"
    );
    assert_eq!(fresh.steps, reference.steps);
    assert_eq!(fresh.trace.events(), reference.trace.events());
}

#[test]
fn a_run_stopped_at_once_has_registered_its_main_thread() {
    let _serial = serial();
    // The deadline passes before the supervisor's first look, usually
    // before the main thread's carrier has started it.
    let r = VirtualRuntime::new(RunConfig::default().with_deadline(Duration::ZERO))
        .run(Box::new(RoundRobinStrategy::new()), |ctx| ctx.yield_now());
    assert!(
        matches!(r.outcome, Outcome::DeadlineExceeded | Outcome::Completed),
        "{}",
        r.outcome
    );
    assert!(r.trace.thread_obj(ThreadId::new(0)).is_some());
    assert!(r.steps >= 1, "main's start point is counted");
}
