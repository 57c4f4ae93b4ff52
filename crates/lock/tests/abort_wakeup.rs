//! Wake-up regression tests for the Phase II abort over native threads.
//!
//! A fuzz-policy tracker parks threads in three different ways — paused
//! by the fuzzer, blocked natively on a held lock, and waiting on a
//! condvar nobody notifies — and an abort must get every one of them
//! moving again: the paused and the parked are woken to unwind, and the
//! natively blocked are freed when the holder they wait on unwinds.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use df_abstraction::{AbstractionMode, Abstractor};
use df_igoodlock::{igoodlock, AbstractCycle, IGoodlockOptions, LockDependencyRelation};
use df_lock::{
    FuzzConfig, FuzzOutcome, FuzzStats, Policy, TrackedCondvar, TrackedJoinHandle, TrackedMutex,
    Tracker, TrackerConfig,
};

/// Figure 1 with t1 holding `a` for `hold` before it asks for `b`;
/// returns `a` and both threads.
fn figure1(
    tracker: &Tracker,
    hold: Duration,
) -> (Arc<TrackedMutex<()>>, Vec<TrackedJoinHandle<()>>) {
    let a = Arc::new(TrackedMutex::with_tracker(tracker, ()));
    let b = Arc::new(TrackedMutex::with_tracker(tracker, ()));
    let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
    let t1 = tracker.spawn("t1", move || {
        std::thread::sleep(Duration::from_millis(30));
        let ga = a1.lock().unwrap();
        std::thread::sleep(hold);
        let gb = b1.lock().unwrap();
        drop((gb, ga));
    });
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let t2 = tracker.spawn("t2", move || {
        let gb = b2.lock().unwrap();
        let ga = a2.lock().unwrap();
        drop((ga, gb));
    });
    (a, vec![t1, t2])
}

/// Phase I on [`figure1`]: the fuzzer's target cycle.
fn target() -> AbstractCycle {
    let tracker = Tracker::new(TrackerConfig::default().with_record_events(true));
    let (_, threads) = figure1(&tracker, Duration::ZERO);
    for t in threads {
        t.join().unwrap();
    }
    let trace = tracker.trace();
    let relation = LockDependencyRelation::from_trace(&trace);
    let cycles = igoodlock(&relation, &IGoodlockOptions::default());
    assert_eq!(cycles.len(), 1, "one (a,b) cycle");
    cycles[0].abstract_with(
        trace.objects(),
        &Abstractor::new(AbstractionMode::default()),
    )
}

/// Runs [`figure1`] under `config` with two more threads: one natively
/// blocked on `a` while t1 holds it, one waiting on a condvar nobody
/// notifies. t2 pauses at its inner acquisition. Joins every thread and
/// returns the run's classification.
fn run(config: FuzzConfig, hold: Duration) -> (FuzzOutcome, FuzzStats) {
    let tracker = Tracker::new(TrackerConfig::default().with_policy(Policy::Fuzz(config)));
    let (a, mut threads) = figure1(&tracker, hold);
    threads.push(tracker.spawn("blocked", move || {
        std::thread::sleep(Duration::from_millis(60));
        let _g = a.lock().unwrap();
    }));
    let pair = Arc::new((
        TrackedMutex::with_tracker(&tracker, false),
        TrackedCondvar::with_tracker(&tracker),
    ));
    threads.push(tracker.spawn("parked", move || {
        let (flag, cv) = &*pair;
        let _g = cv.wait_while(flag.lock().unwrap(), |set| !*set);
    }));
    for t in threads {
        assert!(t.join().is_err(), "every thread is unwound by the abort");
    }
    (tracker.finish(), tracker.stats())
}

/// Runs `body` on a helper thread so a thread that is never woken fails
/// the test instead of hanging it.
fn run_bounded<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    let result = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("run did not return: a thread was never woken after the abort");
    runner.join().expect("runner thread panicked");
    result
}

#[test]
fn witness_abort_releases_every_thread() {
    let (outcome, stats) =
        run_bounded(|| run(FuzzConfig::new(target()), Duration::from_millis(100)));
    let w = outcome
        .deadlock()
        .expect("t1 closes the cycle with paused t2");
    assert_eq!(w.len(), 2);
    assert!(stats.pauses >= 1, "{stats:?}");
}

#[test]
fn deadline_abort_releases_every_thread() {
    // t1 holds `a` past the deadline, so the cycle never closes: the
    // deadline aborts with t2 paused, `blocked` blocked behind t1 and
    // `parked` waiting. A long pause timeout keeps the monitor out.
    let mut config = FuzzConfig::new(target()).with_deadline(Duration::from_millis(200));
    config.pause_timeout = Duration::from_secs(60);
    let (outcome, stats) = run_bounded(move || run(config, Duration::from_millis(500)));
    assert_eq!(outcome, FuzzOutcome::DeadlineExceeded);
    assert!(stats.pauses >= 1, "{stats:?}");
}
