//! End-to-end tests: DeadlockFuzzer's two phases over real OS threads,
//! on tracked locks.
//!
//! The program under test must be the *same code* in the record and fuzz
//! runs (allocation and acquisition sites identify program locations),
//! so each test program is a single function run against different
//! trackers.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use df_abstraction::{AbstractionMode, Abstractor};
use df_events::{EventKind, Trace};
use df_igoodlock::{igoodlock, AbstractCycle, Cycle, IGoodlockOptions, LockDependencyRelation};
use df_lock::{
    FuzzConfig, FuzzOutcome, NoiseConfig, Policy, TrackedCondvar, TrackedMutex, Tracker,
    TrackerConfig,
};

fn fuzzer(config: FuzzConfig) -> Tracker {
    Tracker::new(TrackerConfig::default().with_policy(Policy::Fuzz(config)))
}

/// Phase I: runs `program` under a recording tracker and returns
/// iGoodlock's cycles with the trace whose objects they name.
fn record(program: fn(&Tracker)) -> (Vec<Cycle>, Trace) {
    let tracker = Tracker::new(TrackerConfig::default().with_record_events(true));
    program(&tracker);
    let trace = tracker.trace();
    let relation = LockDependencyRelation::from_trace(&trace);
    (igoodlock(&relation, &IGoodlockOptions::default()), trace)
}

fn abstracted(cycle: &Cycle, trace: &Trace, mode: AbstractionMode) -> AbstractCycle {
    cycle.abstract_with(trace.objects(), &Abstractor::new(mode))
}

/// The Figure 1 program on real threads: t1 sleeps (long-running
/// methods), then locks (a, b); t2 locks (b, a) immediately.
fn figure1(tracker: &Tracker) {
    let a = Arc::new(TrackedMutex::with_tracker(tracker, ()));
    let b = Arc::new(TrackedMutex::with_tracker(tracker, ()));
    let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
    let t1 = tracker.spawn("t1", move || {
        std::thread::sleep(Duration::from_millis(30));
        let ga = a1.lock().unwrap();
        let gb = b1.lock().unwrap();
        drop((gb, ga));
    });
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let t2 = tracker.spawn("t2", move || {
        let gb = b2.lock().unwrap();
        let ga = a2.lock().unwrap();
        drop((ga, gb));
    });
    // A thread unwound by the fuzzer's abort joins as `Err`; `finish`
    // tells the abort from a program panic.
    let _ = t1.join();
    let _ = t2.join();
}

fn record_figure1() -> AbstractCycle {
    let (cycles, trace) = record(figure1);
    assert_eq!(cycles.len(), 1, "one (a,b) cycle");
    abstracted(&cycles[0], &trace, AbstractionMode::default())
}

#[test]
fn record_phase_predicts_figure1_cycle() {
    let (cycles, trace) = record(figure1);
    assert_eq!(cycles.len(), 1, "one (a,b) cycle");
    let mut names: Vec<String> = cycles[0]
        .components()
        .iter()
        .map(|c| {
            trace
                .objects()
                .get(c.thread_obj)
                .name
                .clone()
                .unwrap_or_default()
        })
        .collect();
    names.sort();
    assert_eq!(names, ["t1", "t2"], "cycle: {}", cycles[0]);
    assert_eq!(
        abstracted(&cycles[0], &trace, AbstractionMode::default()).len(),
        2
    );
}

#[test]
fn fuzz_phase_creates_the_real_deadlock() {
    let cycle = record_figure1();
    let trials = 5;
    for seed in 0..trials {
        let tracker = fuzzer(FuzzConfig::new(cycle.clone()).with_seed(seed));
        figure1(&tracker);
        match tracker.finish() {
            FuzzOutcome::Deadlock(w) => assert_eq!(w.len(), 2),
            other => panic!("seed {seed}: expected deadlock, got {other:?}"),
        }
    }
}

/// A program with a consistent lock order (no deadlock possible).
fn consistent_order(tracker: &Tracker) {
    let a = Arc::new(TrackedMutex::with_tracker(tracker, ()));
    let b = Arc::new(TrackedMutex::with_tracker(tracker, ()));
    let handles: Vec<_> = (0..2)
        .map(|i| {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            tracker.spawn(&format!("c{i}"), move || {
                let ga = a.lock().unwrap();
                let gb = b.lock().unwrap();
                drop((gb, ga));
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn fuzz_phase_completes_on_consistent_order() {
    // Feed the figure-1 cycle to a program that cannot produce it: the
    // monitor must release any pauses and the program completes.
    let cycle = record_figure1();
    let tracker = fuzzer(FuzzConfig::new(cycle));
    consistent_order(&tracker);
    assert_eq!(tracker.finish(), FuzzOutcome::Completed);
}

#[test]
fn record_phase_counts_multiple_contexts() {
    // Two different nesting sites over the same pair → two cycles, like
    // the DBCP model.
    fn program(tracker: &Tracker) {
        let a = Arc::new(TrackedMutex::with_tracker(tracker, ()));
        let b = Arc::new(TrackedMutex::with_tracker(tracker, ()));
        let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
        let t1 = tracker.spawn("w1", move || {
            std::thread::sleep(Duration::from_millis(20));
            {
                let ga = a1.lock().unwrap();
                let gb = b1.lock().unwrap();
                drop((gb, ga));
            }
            {
                let ga = a1.lock().unwrap();
                let gb = b1.lock().unwrap();
                drop((gb, ga));
            }
        });
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t2 = tracker.spawn("w2", move || {
            let gb = b2.lock().unwrap();
            let ga = a2.lock().unwrap();
            drop((ga, gb));
        });
        t1.join().unwrap();
        t2.join().unwrap();
    }
    let (cycles, _) = record(program);
    assert_eq!(cycles.len(), 2, "one per w1 context");
}

/// Both threads rush into opposite nesting; a barrier guarantees the
/// overlap, so the deadlock happens without any steering.
fn guaranteed_deadlock(tracker: &Tracker) {
    let a = Arc::new(TrackedMutex::with_tracker(tracker, ()));
    let b = Arc::new(TrackedMutex::with_tracker(tracker, ()));
    let barrier = Arc::new(Barrier::new(2));
    let (a1, b1, bar1) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&barrier));
    let t1 = tracker.spawn("d1", move || {
        let ga = a1.lock().unwrap();
        bar1.wait();
        let gb = b1.lock().unwrap();
        drop((gb, ga));
    });
    let (a2, b2, bar2) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&barrier));
    let t2 = tracker.spawn("d2", move || {
        let gb = b2.lock().unwrap();
        bar2.wait();
        let ga = a2.lock().unwrap();
        drop((ga, gb));
    });
    let _ = t1.join();
    let _ = t2.join();
}

#[test]
fn deadlocked_threads_are_unwound_not_stuck() {
    // Even with an empty target cycle (nothing to steer), the tracker
    // detects the naturally-occurring deadlock, unwinds the threads and
    // the process does not hang.
    let tracker = fuzzer(FuzzConfig::new(AbstractCycle::new(vec![])));
    guaranteed_deadlock(&tracker);
    let outcome = tracker.finish();
    let w = outcome.deadlock().expect("cycle detected");
    assert_eq!(w.len(), 2);
}

#[test]
fn stats_expose_pauses() {
    let cycle = record_figure1();
    let tracker = fuzzer(FuzzConfig::new(cycle));
    figure1(&tracker);
    assert!(
        tracker.stats().pauses >= 1,
        "steering must pause at least one thread"
    );
    assert!(tracker.finish().deadlock().is_some());
}

#[test]
fn noise_injection_is_a_weak_baseline() {
    // ConTest-style noise (the paper's §6 related work) rarely creates
    // Figure 1's deadlock — its sleeps "can only advise the scheduler …
    // cannot pause a thread as long as required" — while the active
    // scheduler creates it every time
    // (`fuzz_phase_creates_the_real_deadlock`). Figure 1's 30 ms prefix
    // dwarfs the ≤8 ms noise sleeps, so noise essentially never aligns
    // the threads.
    let mut noise_hits = 0;
    let trials = 4;
    for seed in 0..trials {
        let tracker = Tracker::new(TrackerConfig::default().with_policy(Policy::Noise(
            NoiseConfig {
                seed,
                ..NoiseConfig::default()
            },
        )));
        figure1(&tracker);
        if tracker.finish().deadlock().is_some() {
            noise_hits += 1;
        }
    }
    assert!(
        noise_hits < trials,
        "noise must not be as reliable as active scheduling: {noise_hits}/{trials}"
    );
}

#[test]
fn monitor_wait_notify_handshake_on_real_threads() {
    let tracker = Tracker::new(TrackerConfig::default().with_record_events(true));
    let monitor = Arc::new((
        TrackedMutex::with_tracker(&tracker, Vec::<u32>::new()),
        TrackedCondvar::with_tracker(&tracker),
    ));
    // The consumer holds the monitor across the barrier, so the producer
    // gets in only once the consumer waits: the wait really happens.
    let barrier = Arc::new(Barrier::new(2));
    let (m2, bar) = (Arc::clone(&monitor), Arc::clone(&barrier));
    let consumer = tracker.spawn("consumer", move || {
        let (queue, cv) = &*m2;
        let mut g = queue.lock().unwrap();
        bar.wait();
        while g.is_empty() {
            g = cv.wait(g).unwrap();
        }
        assert_eq!(g.pop(), Some(7));
    });
    let m3 = Arc::clone(&monitor);
    let producer = tracker.spawn("producer", move || {
        barrier.wait();
        let (queue, cv) = &*m3;
        let mut g = queue.lock().unwrap();
        g.push(7);
        cv.notify_one();
        drop(g);
    });
    consumer.join().unwrap();
    producer.join().unwrap();
    // Wait/notify events made it into the trace.
    let trace = tracker.trace();
    let kinds: Vec<_> = trace.events().iter().map(|e| &e.kind).collect();
    assert!(kinds
        .iter()
        .any(|k| matches!(k, EventKind::CondWait { .. })));
    assert!(kinds
        .iter()
        .any(|k| matches!(k, EventKind::CondNotify { .. })));
}

#[test]
fn wait_released_monitor_is_acquirable_by_others() {
    // While the waiter waits, the setter can take the same monitor —
    // proof the wait actually released it.
    let tracker = Tracker::default();
    let monitor = Arc::new((
        TrackedMutex::with_tracker(&tracker, 0u32),
        TrackedCondvar::with_tracker(&tracker),
    ));
    let m2 = Arc::clone(&monitor);
    let waiter = tracker.spawn("waiter", move || {
        let (flag, cv) = &*m2;
        let mut g = flag.lock().unwrap();
        while *g == 0 {
            g = cv.wait(g).unwrap();
        }
    });
    let m3 = Arc::clone(&monitor);
    let setter = tracker.spawn("setter", move || {
        std::thread::sleep(Duration::from_millis(10));
        let (flag, cv) = &*m3;
        let mut g = flag.lock().unwrap();
        *g = 1;
        cv.notify_all();
        drop(g);
    });
    waiter.join().unwrap();
    setter.join().unwrap();
}

#[test]
fn loop_allocations_stay_distinct_in_abstractions() {
    // One allocation statement run twice: the per-site allocation
    // counter puts the occurrence in the execution index.
    let tracker = Tracker::default();
    let ids: Vec<_> = (0..2)
        .map(|_| TrackedMutex::with_tracker(&tracker, ()).id())
        .collect();
    let trace = tracker.trace();
    let a = Abstractor::new(AbstractionMode::ExecIndex(10));
    let abs0 = a.abs(trace.objects(), ids[0]);
    let abs1 = a.abs(trace.objects(), ids[1]);
    assert_ne!(abs0, abs1, "loop iterations differ by occurrence counter");
    let site = Abstractor::new(AbstractionMode::Site);
    assert_eq!(
        site.abs(trace.objects(), ids[0]),
        site.abs(trace.objects(), ids[1]),
        "same allocation site"
    );
}

#[test]
fn never_notified_wait_times_out_instead_of_hanging() {
    // A fuzz-policy tracker with a short hang timeout; the thread waits
    // on a condvar nobody notifies — a communication deadlock. The
    // watchdog must unwind it and finish() must say Timeout, not
    // Completed.
    let mut cfg = FuzzConfig::new(AbstractCycle::new(vec![]));
    cfg.hang_timeout = Duration::from_millis(150);
    let tracker = fuzzer(cfg);
    let monitor = Arc::new((
        TrackedMutex::with_tracker(&tracker, 0u32),
        TrackedCondvar::with_tracker(&tracker),
    ));
    let m2 = Arc::clone(&monitor);
    let waiter = tracker.spawn("waiter", move || {
        let (flag, cv) = &*m2;
        let mut g = flag.lock().unwrap();
        while *g == 0 {
            g = cv.wait(g).unwrap();
        }
    });
    assert!(waiter.join().is_err(), "the waiter is unwound");
    assert_eq!(tracker.finish(), FuzzOutcome::Timeout);
}

#[test]
fn deadlock_witness_names_the_threads() {
    // Witnesses print spawn names, not just numeric thread ids.
    let cycle = record_figure1();
    let tracker = fuzzer(FuzzConfig::new(cycle));
    figure1(&tracker);
    let outcome = tracker.finish();
    let text = outcome.deadlock().expect("deadlock").to_string();
    assert!(text.contains("\"t1\""), "witness: {text}");
    assert!(text.contains("\"t2\""), "witness: {text}");
}

#[test]
fn program_panic_is_classified_not_swallowed() {
    // A thread that dies for a reason other than the run's abort is a
    // program bug, not a deadlock: join reports it without panicking
    // the harness, and finish() classifies the run.
    let tracker = fuzzer(FuzzConfig::new(AbstractCycle::new(vec![])));
    let h = tracker.spawn("worker", || {
        panic!("injected program bug");
    });
    let payload = h.join().expect_err("panic surfaces as Err");
    let err = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(err.contains("injected program bug"), "{err}");
    match tracker.finish() {
        FuzzOutcome::ProgramPanic(m) => assert!(m.contains("injected program bug"), "{m}"),
        other => panic!("expected ProgramPanic, got {other:?}"),
    }
}

#[test]
fn session_deadline_bounds_a_busy_program() {
    // The spinner makes steady progress forever, so the progress-based
    // hang watchdog never fires; the hard wall-clock deadline must end
    // the run anyway by unwinding the spinner.
    let cfg = FuzzConfig::new(AbstractCycle::new(vec![])).with_deadline(Duration::from_millis(150));
    let tracker = fuzzer(cfg);
    let m = Arc::new(TrackedMutex::with_tracker(&tracker, ()));
    let m2 = Arc::clone(&m);
    let started = Instant::now();
    let spinner = tracker.spawn("spinner", move || loop {
        let g = m2.lock().unwrap();
        drop(g);
    });
    assert!(spinner.join().is_err(), "the spinner is unwound");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "deadline must cut the spinner short"
    );
    assert_eq!(tracker.finish(), FuzzOutcome::DeadlineExceeded);
}

#[test]
fn over_matching_abstraction_forces_thrashing() {
    // Under the trivial ("ignore") abstraction every acquisition matches
    // the target cycle, so the fuzzer pauses threads that can never
    // deadlock. Once every live thread sits paused, the watchdog must
    // thrash — un-pause a random victim — instead of waiting out the
    // pause timeout (the paper's motivation for counting thrashes).
    let cycle = {
        let (cycles, trace) = record(figure1);
        abstracted(&cycles[0], &trace, AbstractionMode::Trivial)
    };
    let mut cfg = FuzzConfig::new(cycle).with_mode(AbstractionMode::Trivial);
    cfg.use_context = false;
    cfg.pause_timeout = Duration::from_millis(400);
    let tracker = fuzzer(cfg);
    let a = Arc::new(TrackedMutex::with_tracker(&tracker, ()));
    let b = Arc::new(TrackedMutex::with_tracker(&tracker, ()));
    let b2 = Arc::clone(&b);
    let child = tracker.spawn("child", move || {
        let g = b2.lock().unwrap();
        drop(g);
    });
    let g = a.lock().unwrap(); // main pauses here as well
    drop(g);
    child.join().unwrap();
    assert!(
        tracker.stats().thrashes >= 1,
        "all-paused state must trigger a thrash"
    );
    let _ = tracker.finish();
}

#[test]
fn fuzz_session_reports_observability_counters_and_trace() {
    let cycle = record_figure1();
    let obs = df_obs::Obs::with_memory_sink();
    let tracker = Tracker::new(
        TrackerConfig::default()
            .with_obs(obs.clone())
            .with_policy(Policy::Fuzz(FuzzConfig::new(cycle))),
    );
    figure1(&tracker);
    let outcome = tracker.finish();
    assert!(outcome.deadlock().is_some(), "got {outcome:?}");
    let counters = obs.counters().snapshot();
    assert!(counters.acquires_observed >= 1, "{counters:?}");
    assert!(counters.threads_paused >= 1, "{counters:?}");
    let trace = obs.trace_contents().expect("memory sink");
    assert!(trace.contains("Pause"), "trace: {trace}");
    assert!(
        trace.contains("CheckRealDeadlock") && trace.contains("\"verdict\":true"),
        "trace: {trace}"
    );
}
