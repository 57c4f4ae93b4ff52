//! Stack agreement: the relation builder keeps one lock stack per
//! thread, and every tuple's lockset, contexts and hold modes come from
//! it. This test runs random programs on both substrates — the virtual
//! runtime and OS threads under a df-lock [`Tracker`] — and checks that
//! stack against what each program really held at every acquisition.
//!
//! A program is a few threads run one after another, each a list of
//! operations on three mutexes and two rwlocks: nested acquisitions in
//! either mode, read re-entries, successful and failed tries, releases
//! in any order, and condvar waits on any held mutex — innermost or
//! not. Each interpreter keeps a model of its thread's stack (first
//! acquisitions only, outermost first; a wait moves the waited lock to
//! the top) and logs it before every blocking first acquisition. Then,
//! replaying the recorded trace through a [`RelationBuilder`]:
//!
//! * before each `Acquire`, the builder's stack (locks and modes) equals
//!   the model's stack logged for it;
//! * before each `Release`, the builder holds the lock in the mode the
//!   substrate reports releasing.
//!
//! Acquire events once carried the held set and its sites as well, and
//! the builder's stack was checked against them too. A corpus of such
//! programs, recorded in that format with the reports they produced
//! then, pins the sites: each artifact must still analyze to its report
//! byte for byte.
//!
//! A contended stream of four threads taking ordered pairs of shared
//! mutexes and rwlocks checks delivery: gapless sequence numbers, real
//! per-lock order, and the same release modes. Eight threads mixing
//! pairs, tries and condvar waits check that a sink gets the recorded
//! trace, and a thread whose events sit buffered in its slot checks
//! when they must go out anyway. Sinks get
//! the stream in runs, one call per run, and a sink that panics mid-run
//! loses nothing from the recorded trace; a lone thread's releases hand
//! out only full runs, and a wait that outlasts the acquisition's spin
//! still reaches the sink and the wait-for graph before it parks; the
//! `acquires_observed` counter counts every non-re-entrant acquisition.
//! The Lamport-stamped order keeps lock, reader–writer and spawn/join
//! order, and a pair a thread-local destructor takes after its thread's
//! exit still goes out.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use df_events::{
    AcquireMode, Event, EventKind, EventSink, Label, ObjId, SinkHandle, ThreadId, Trace,
};
use df_igoodlock::RelationBuilder;
use df_lock::{
    DeadlockHandler, TrackedCondvar, TrackedMutex, TrackedMutexGuard, TrackedRwLock,
    TrackedRwLockReadGuard, TrackedRwLockWriteGuard, Tracker, TrackerConfig, DELIVERY_RUN,
};
use df_runtime::strategy::RoundRobinStrategy;
use df_runtime::{LockRef, RunConfig, TCtx, VirtualRuntime};
use proptest::prelude::*;

/// Locks `0..MUTEXES` are mutexes (each with a condvar of its own), the
/// rest rwlocks.
const MUTEXES: usize = 3;
const LOCKS: usize = 5;

/// One generated operation: `(what, which, shared)`.
type Op = (u8, u8, u8);

/// A thread's stack as the program knows it: `(lock index, mode)`,
/// outermost first.
type Stack = Vec<(usize, AcquireMode)>;

/// What an interpreter does next, decided from its model.
enum Action {
    Acquire(usize, AcquireMode),
    /// A try the model expects to succeed (`true`) or fail.
    Try(usize, AcquireMode, bool),
    /// Releases the hold at this index of [`Model::holds`].
    Release(usize),
    Wait(usize),
}

/// One thread's view of what it holds.
#[derive(Default)]
struct Model {
    /// Every hold, re-entries included, in acquisition order.
    holds: Vec<(usize, AcquireMode)>,
    /// First acquisitions only: what the builder must reproduce.
    stack: Stack,
}

impl Model {
    fn held_mode(&self, lock: usize) -> Option<AcquireMode> {
        self.stack.iter().find(|h| h.0 == lock).map(|h| h.1)
    }

    /// Turns a generated op into an action both substrates agree on, or
    /// `None` where they would not (a blocking self-deadlock, or an
    /// exclusive try of a lock already held exclusively, which only the
    /// virtual runtime grants).
    fn decide(&self, (what, which, shared): Op) -> Option<Action> {
        let lock = usize::from(which) % LOCKS;
        let mode = if lock >= MUTEXES && shared == 1 {
            AcquireMode::Shared
        } else {
            AcquireMode::Exclusive
        };
        let free = match self.held_mode(lock) {
            None => true,
            Some(held) => held.is_shared() && mode.is_shared(),
        };
        match what % 6 {
            0 | 1 => free.then_some(Action::Acquire(lock, mode)),
            2 if free => Some(Action::Try(lock, mode, true)),
            2 => (lock >= MUTEXES && self.held_mode(lock) != Some(mode))
                .then_some(Action::Try(lock, mode, false)),
            3 | 4 => (!self.holds.is_empty())
                .then(|| Action::Release(usize::from(which) % self.holds.len())),
            _ => (lock < MUTEXES && self.held_mode(lock).is_some()).then_some(Action::Wait(lock)),
        }
    }

    fn acquired(&mut self, lock: usize, mode: AcquireMode) {
        if self.held_mode(lock).is_none() {
            self.stack.push((lock, mode));
        }
        self.holds.push((lock, mode));
    }

    fn released(&mut self, hold: usize) -> usize {
        let (lock, _) = self.holds.remove(hold);
        if !self.holds.iter().any(|h| h.0 == lock) {
            let pos = self.stack.iter().rposition(|h| h.0 == lock).expect("held");
            self.stack.remove(pos);
        }
        lock
    }

    fn waited(&mut self, lock: usize) {
        let pos = self.stack.iter().rposition(|h| h.0 == lock).expect("held");
        let entry = self.stack.remove(pos);
        self.stack.push(entry);
    }
}

/// Every blocking first acquisition in execution order: the acquired
/// lock and the model's stack just before it.
type Logged = Vec<(ObjId, Vec<(ObjId, AcquireMode)>)>;
type Log = Arc<Mutex<Logged>>;

fn log_acquire(log: &Log, ids: &[ObjId], lock: usize, stack: &Stack) {
    let stack = stack.iter().map(|&(l, m)| (ids[l], m)).collect();
    log.lock().unwrap().push((ids[lock], stack));
}

/// Replays `trace` through a builder, checking its stack at every
/// `Release` and, given the programs' log, at every `Acquire`.
fn check(trace: &Trace, log: Option<&Logged>) {
    let mut builder = RelationBuilder::new();
    for (thread, obj) in trace.thread_objs() {
        builder.bind_thread(thread, obj);
    }
    let mut expected = log.map(|log| log.iter());
    for event in trace.events() {
        let stack = builder.held_stack(event.thread);
        match &event.kind {
            EventKind::Acquire { lock, .. } => {
                if let Some(expected) = &mut expected {
                    let (want_lock, want_stack) = expected.next().expect("a logged acquisition");
                    assert_eq!(lock, want_lock, "event {}", event.seq);
                    let modes: Vec<(ObjId, AcquireMode)> =
                        stack.iter().map(|&(l, _, m)| (l, m)).collect();
                    assert_eq!(&modes, want_stack, "stack at event {}", event.seq);
                }
            }
            EventKind::Release { lock, mode, .. } => {
                let hold = stack.iter().rev().find(|h| h.0 == *lock);
                assert_eq!(
                    hold.map(|h| h.2),
                    Some(*mode),
                    "release at event {}",
                    event.seq
                );
            }
            _ => {}
        }
        builder.observe(event);
    }
    if let Some(mut expected) = expected {
        assert!(expected.next().is_none(), "every acquisition was recorded");
    }
}

fn program() -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..6, 0u8..16, 0u8..2), 0..14),
        1..4,
    )
}

// ---------------------------------------------------------------------
// The virtual runtime.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct VirtualLocks {
    locks: [LockRef; LOCKS],
    cvs: [df_runtime::CondvarRef; MUTEXES],
}

fn site(thread: usize, step: usize, what: &str) -> Label {
    Label::new(&format!("t{thread}.{step}: {what}"))
}

fn run_virtual(ctx: &TCtx, locks: VirtualLocks, ids: &[ObjId], ops: &[Op], t: usize, log: &Log) {
    let mut model = Model::default();
    for (step, &op) in ops.iter().enumerate() {
        match model.decide(op) {
            Some(Action::Acquire(lock, mode)) => {
                if model.held_mode(lock).is_none() {
                    log_acquire(log, ids, lock, &model.stack);
                }
                let l = &locks.locks[lock];
                if mode.is_shared() {
                    ctx.acquire_shared(l, site(t, step, "read"));
                } else {
                    ctx.acquire(l, site(t, step, "acquire"));
                }
                model.acquired(lock, mode);
            }
            Some(Action::Try(lock, mode, expect)) => {
                let l = &locks.locks[lock];
                let guard = if mode.is_shared() {
                    ctx.try_read_lock(l, site(t, step, "try read"))
                } else {
                    ctx.try_lock(l, site(t, step, "try"))
                };
                assert_eq!(guard.is_some(), expect);
                if let Some(guard) = guard {
                    std::mem::forget(guard);
                    model.acquired(lock, mode);
                }
            }
            Some(Action::Release(hold)) => {
                let lock = model.released(hold);
                ctx.release(&locks.locks[lock], site(t, step, "release"));
            }
            Some(Action::Wait(lock)) => {
                let ready = Arc::new(AtomicBool::new(false));
                let flag = Arc::clone(&ready);
                let (m, cv) = (locks.locks[lock], locks.cvs[lock]);
                let (log2, ids2) = (Arc::clone(log), ids.to_vec());
                let notifier = ctx.spawn(site(t, step, "spawn"), "notifier", move |ctx| {
                    log_acquire(&log2, &ids2, lock, &Vec::new());
                    ctx.acquire(&m, site(t, step, "notifier: acquire"));
                    flag.store(true, Ordering::SeqCst);
                    ctx.cond_notify_all(&cv, site(t, step, "notify"));
                    ctx.release(&m, site(t, step, "notifier: release"));
                });
                while !ready.load(Ordering::SeqCst) {
                    ctx.cond_wait(&cv, &m, site(t, step, "wait"));
                }
                ctx.join(&notifier, site(t, step, "join"));
                model.waited(lock);
            }
            None => {}
        }
    }
    while !model.holds.is_empty() {
        let lock = model.released(model.holds.len() - 1);
        ctx.release(&locks.locks[lock], site(t, ops.len(), "release"));
    }
}

fn virtual_trace(program: &[Vec<Op>]) -> (Trace, Logged) {
    let log: Log = Arc::default();
    let log2 = Arc::clone(&log);
    let program = program.to_vec();
    let r = VirtualRuntime::new(RunConfig::default()).run(
        Box::new(RoundRobinStrategy::new()),
        move |ctx| {
            let locks = VirtualLocks {
                locks: std::array::from_fn(|i| ctx.new_lock(Label::new(&format!("lock {i}")))),
                cvs: std::array::from_fn(|i| ctx.new_condvar(Label::new(&format!("cv {i}")))),
            };
            let ids: Vec<ObjId> = locks.locks.iter().map(LockRef::id).collect();
            for (t, ops) in program.iter().enumerate() {
                if t == 0 {
                    run_virtual(ctx, locks, &ids, ops, t, &log2);
                    continue;
                }
                let (ops, ids, log) = (ops.clone(), ids.clone(), Arc::clone(&log2));
                let child = ctx.spawn(site(t, 0, "spawn"), "worker", move |ctx| {
                    run_virtual(ctx, locks, &ids, &ops, t, &log);
                });
                ctx.join(&child, site(t, 0, "join"));
            }
        },
    );
    assert!(r.outcome.is_completed(), "{}", r.outcome);
    let log = std::mem::take(&mut *log.lock().unwrap());
    (r.trace, log)
}

// ---------------------------------------------------------------------
// OS threads under a df-lock tracker.
// ---------------------------------------------------------------------

struct NativeLocks {
    mutexes: Vec<TrackedMutex<()>>,
    rwlocks: Vec<TrackedRwLock<()>>,
    cvs: Vec<TrackedCondvar>,
    ids: Vec<ObjId>,
}

/// A held guard; the rwlock guards are kept only to be dropped.
#[allow(dead_code)]
enum Guard<'a> {
    Mutex(TrackedMutexGuard<'a, ()>),
    Read(TrackedRwLockReadGuard<'a, ()>),
    Write(TrackedRwLockWriteGuard<'a, ()>),
}

fn take<'a>(
    locks: &'a NativeLocks,
    lock: usize,
    mode: AcquireMode,
    tried: bool,
) -> Option<Guard<'a>> {
    if lock < MUTEXES {
        let m = &locks.mutexes[lock];
        return if tried {
            m.try_lock().ok().map(Guard::Mutex)
        } else {
            Some(Guard::Mutex(m.lock().unwrap()))
        };
    }
    let rw = &locks.rwlocks[lock - MUTEXES];
    match (mode, tried) {
        (AcquireMode::Shared, false) => Some(Guard::Read(rw.read().unwrap())),
        (AcquireMode::Shared, true) => rw.try_read().ok().map(Guard::Read),
        (AcquireMode::Exclusive, false) => Some(Guard::Write(rw.write().unwrap())),
        (AcquireMode::Exclusive, true) => rw.try_write().ok().map(Guard::Write),
    }
}

fn run_native(tracker: &Tracker, locks: &Arc<NativeLocks>, ops: &[Op], log: &Log) {
    let mut model = Model::default();
    let mut guards: Vec<Guard<'_>> = Vec::new();
    for &op in ops {
        match model.decide(op) {
            Some(Action::Acquire(lock, mode)) => {
                if model.held_mode(lock).is_none() {
                    log_acquire(log, &locks.ids, lock, &model.stack);
                }
                guards.push(take(locks, lock, mode, false).expect("blocking acquisition"));
                model.acquired(lock, mode);
            }
            Some(Action::Try(lock, mode, expect)) => {
                let guard = take(locks, lock, mode, true);
                assert_eq!(guard.is_some(), expect);
                if let Some(guard) = guard {
                    guards.push(guard);
                    model.acquired(lock, mode);
                }
            }
            Some(Action::Release(hold)) => {
                model.released(hold);
                drop(guards.remove(hold));
            }
            Some(Action::Wait(lock)) => {
                let hold = model.holds.iter().position(|h| h.0 == lock).expect("held");
                let Guard::Mutex(mut guard) = guards.remove(hold) else {
                    unreachable!("only mutexes are waited on")
                };
                let ready = Arc::new(AtomicBool::new(false));
                let (flag, shared, log2) = (Arc::clone(&ready), Arc::clone(locks), Arc::clone(log));
                let notifier = tracker.spawn("notifier", move || {
                    log_acquire(&log2, &shared.ids, lock, &Vec::new());
                    let _g = shared.mutexes[lock].lock().unwrap();
                    flag.store(true, Ordering::SeqCst);
                    shared.cvs[lock].notify_all();
                });
                while !ready.load(Ordering::SeqCst) {
                    guard = locks.cvs[lock].wait(guard).unwrap();
                }
                notifier.join().unwrap();
                guards.insert(hold, Guard::Mutex(guard));
                model.waited(lock);
            }
            None => {}
        }
    }
    while let Some(guard) = guards.pop() {
        model.released(guards.len());
        drop(guard);
    }
}

fn native_trace(program: &[Vec<Op>]) -> (Trace, Logged) {
    let tracker = Tracker::new(TrackerConfig::default().with_record_events(true));
    let mutexes: Vec<_> = (0..MUTEXES)
        .map(|_| TrackedMutex::with_tracker(&tracker, ()))
        .collect();
    let rwlocks: Vec<_> = (MUTEXES..LOCKS)
        .map(|_| TrackedRwLock::with_tracker(&tracker, ()))
        .collect();
    let ids = mutexes
        .iter()
        .map(TrackedMutex::id)
        .chain(rwlocks.iter().map(TrackedRwLock::id))
        .collect();
    let locks = Arc::new(NativeLocks {
        mutexes,
        rwlocks,
        cvs: (0..MUTEXES)
            .map(|_| TrackedCondvar::with_tracker(&tracker))
            .collect(),
        ids,
    });
    let log: Log = Arc::default();
    for (t, ops) in program.iter().enumerate() {
        if t == 0 {
            run_native(&tracker, &locks, ops, &log);
            continue;
        }
        let (tracker2, locks2, ops, log2) = (
            tracker.clone(),
            Arc::clone(&locks),
            ops.clone(),
            Arc::clone(&log),
        );
        tracker
            .spawn("worker", move || {
                run_native(&tracker2, &locks2, &ops, &log2)
            })
            .join()
            .unwrap();
    }
    tracker.seal();
    let log = std::mem::take(&mut *log.lock().unwrap());
    (tracker.trace(), log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn builder_stack_matches_the_virtual_runtime(program in program()) {
        let (trace, log) = virtual_trace(&program);
        check(&trace, Some(&log));
    }

    #[test]
    fn builder_stack_matches_df_lock(program in program()) {
        let (trace, log) = native_trace(&program);
        check(&trace, Some(&log));
    }
}

// ---------------------------------------------------------------------
// The recorded corpus.
// ---------------------------------------------------------------------

/// Frozen binary v3 artifacts of generated programs (the first four on
/// each substrate that report a cycle and wait on a condvar or re-enter
/// a lock), each next to the `dfz analyze --json` report it produced
/// when it was recorded.
fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/stack_corpus")
}

fn analyze_json(artifact: &[u8], source: &str) -> String {
    let opts = df_cli::CliOptions {
        json: true,
        ..df_cli::CliOptions::default()
    };
    df_cli::cmd_analyze(artifact, source, &opts)
        .expect("corpus artifacts analyze")
        .text
}

/// Every corpus artifact still analyzes to the report it was recorded
/// with, byte for byte.
#[test]
fn corpus_analyzes_as_recorded() {
    let mut checked = 0;
    for entry in std::fs::read_dir(corpus_dir()).expect("corpus directory") {
        let path = entry.expect("corpus entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let Some(stem) = name.strip_suffix(".bin") else {
            continue;
        };
        let want = std::fs::read_to_string(corpus_dir().join(format!("{stem}.analyze.json")))
            .expect("a recorded report per artifact");
        let artifact = std::fs::read(&path).expect("read artifact");
        assert_eq!(analyze_json(&artifact, &name), want, "{name}");
        checked += 1;
    }
    assert!(checked >= 8, "only {checked} corpus artifacts");
}

// ---------------------------------------------------------------------
// A contended stream.
// ---------------------------------------------------------------------

/// Keeps every delivered event, in delivery order, and the thread
/// bindings.
#[derive(Default)]
struct Collect(Trace);

impl EventSink for Collect {
    fn on_event(&mut self, event: &Event) {
        let seq = self.0.push(event.thread, event.kind.clone());
        assert_eq!(seq, event.seq, "sequence numbers are gapless");
    }

    fn on_finish(&mut self, trace: &Trace) {
        for (thread, obj) in trace.thread_objs() {
            self.0.bind_thread(thread, obj);
        }
    }
}

/// One of the stress test's shared locks: even slots are mutexes, odd
/// slots rwlocks.
enum Shared {
    Mutex(TrackedMutex<u64>),
    RwLock(TrackedRwLock<u64>),
}

const STRESS_THREADS: u64 = 4;
const STRESS_LOCKS: usize = 8;
const STRESS_ROUNDS: u64 = 3;
const STRESS_PAIRS: usize = 1_000;

/// Takes `locks[lo]` then `locks[hi]` nested, reading an rwlock when
/// `read`, and releases them in reverse.
fn take_pair(locks: &[Shared], lo: usize, hi: usize, read: bool) {
    let hold = |i: usize, then: &dyn Fn()| match &locks[i] {
        Shared::Mutex(m) => {
            let mut g = m.lock().unwrap();
            *g += 1;
            then();
        }
        Shared::RwLock(l) if read => {
            let _g = l.read().unwrap();
            then();
        }
        Shared::RwLock(l) => {
            let mut g = l.write().unwrap();
            *g += 1;
            then();
        }
    };
    hold(lo, &|| hold(hi, &|| {}));
}

/// Checks per-lock exclusion in the stream: replayed in sequence order,
/// no lock is taken exclusively while another thread holds it, nor
/// shared while another thread holds it exclusively. A condvar wait
/// gives its lock up at the `CondWait` and takes it back, silently,
/// before its thread's next event.
fn check_exclusion(events: &[Event]) {
    let mut holders: HashMap<ObjId, Vec<(ThreadId, AcquireMode)>> = HashMap::new();
    let mut waiting: HashMap<ThreadId, ObjId> = HashMap::new();
    let take = |holders: &mut HashMap<ObjId, Vec<(ThreadId, AcquireMode)>>,
                event: &Event,
                lock: ObjId,
                mode: AcquireMode| {
        let held = holders.entry(lock).or_default();
        let conflict = held
            .iter()
            .find(|&&(t, m)| t != event.thread && (mode.is_exclusive() || m.is_exclusive()));
        assert!(
            conflict.is_none(),
            "event {} takes {lock} {mode:?} while {:?} holds it",
            event.seq,
            conflict
        );
        held.push((event.thread, mode));
    };
    for event in events {
        if let Some(lock) = waiting.remove(&event.thread) {
            take(&mut holders, event, lock, AcquireMode::Exclusive);
        }
        let taken = match &event.kind {
            EventKind::Acquire { lock, mode, .. } => Some((*lock, *mode)),
            EventKind::TryAcquire {
                lock,
                acquired: true,
                mode,
                ..
            } => Some((*lock, *mode)),
            EventKind::Release { lock, .. } | EventKind::Rerelease { lock, .. } => {
                let held = holders.get_mut(lock).expect("released lock is held");
                let pos = held
                    .iter()
                    .rposition(|&(t, _)| t == event.thread)
                    .expect("releasing thread holds the lock");
                held.remove(pos);
                None
            }
            EventKind::CondWait { lock, .. } => {
                let held = holders.get_mut(lock).expect("waited lock is held");
                let pos = held
                    .iter()
                    .rposition(|&(t, _)| t == event.thread)
                    .expect("waiting thread holds the lock");
                held.remove(pos);
                waiting.insert(event.thread, *lock);
                None
            }
            _ => None,
        };
        if let Some((lock, mode)) = taken {
            take(&mut holders, event, lock, mode);
        }
    }
}

#[test]
fn contended_stream_stays_gapless_and_in_lock_order() {
    let collected = Arc::new(Mutex::new(Collect::default()));
    let witnesses = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&witnesses);
    let tracker = Tracker::new(
        TrackerConfig::default()
            .with_sink(SinkHandle::single(collected.clone()))
            .with_handler(DeadlockHandler::Callback(Arc::new(move |w| {
                seen.lock().unwrap().push(w.clone());
            }))),
    );
    let locks: Arc<Vec<Shared>> = Arc::new(
        (0..STRESS_LOCKS)
            .map(|i| {
                if i % 2 == 0 {
                    Shared::Mutex(TrackedMutex::with_tracker(&tracker, 0))
                } else {
                    Shared::RwLock(TrackedRwLock::with_tracker(&tracker, 0))
                }
            })
            .collect(),
    );
    for round in 0..STRESS_ROUNDS {
        let workers: Vec<_> = (0..STRESS_THREADS)
            .map(|t| {
                let locks = Arc::clone(&locks);
                tracker.spawn(&format!("stress-{round}-{t}"), move || {
                    let mut state =
                        (round * STRESS_THREADS + t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut next = move || {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        (state >> 33) as usize
                    };
                    for _ in 0..STRESS_PAIRS {
                        let (x, y) = (next() % STRESS_LOCKS, next() % STRESS_LOCKS);
                        if x != y {
                            take_pair(&locks, x.min(y), x.max(y), next() % 2 == 0);
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
    }
    tracker.seal();

    assert!(
        witnesses.lock().unwrap().is_empty(),
        "ordered pairs never deadlock"
    );
    let trace = std::mem::take(&mut collected.lock().unwrap().0);
    assert!(trace.acquire_count() > 0);
    check_exclusion(trace.events());
    check(&trace, None);
}

const MIXED_THREADS: usize = 8;
const MIXED_ROUNDS: usize = 4;
const MIXED_OPS: usize = 1_000;

/// Eight threads mix nested pairs, every `try_*` and a condvar barrier
/// per round, with the recording and a sink on at once: the sink gets
/// the recorded trace, gapless from 0, in an order that keeps every
/// lock's exclusion.
#[test]
fn mixed_operations_reach_the_sink_as_recorded() {
    let collected = Arc::new(Mutex::new(Collect::default()));
    let tracker = Tracker::new(
        TrackerConfig::default()
            .with_sink(SinkHandle::single(collected.clone()))
            .with_record_events(true),
    );
    let locks: Arc<Vec<Shared>> = Arc::new(
        (0..STRESS_LOCKS)
            .map(|i| {
                if i % 2 == 0 {
                    Shared::Mutex(TrackedMutex::with_tracker(&tracker, 0))
                } else {
                    Shared::RwLock(TrackedRwLock::with_tracker(&tracker, 0))
                }
            })
            .collect(),
    );
    let barrier = Arc::new((
        TrackedMutex::with_tracker(&tracker, 0usize),
        TrackedCondvar::with_tracker(&tracker),
    ));
    let workers: Vec<_> = (0..MIXED_THREADS)
        .map(|t| {
            let (locks, barrier) = (Arc::clone(&locks), Arc::clone(&barrier));
            tracker.spawn(&format!("mixed-{t}"), move || {
                let mut state = (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut next = move || {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (state >> 33) as usize
                };
                for round in 0..MIXED_ROUNDS {
                    for _ in 0..MIXED_OPS {
                        let (x, y) = (next() % STRESS_LOCKS, next() % STRESS_LOCKS);
                        match next() % 3 {
                            0 if x != y => take_pair(&locks, x.min(y), x.max(y), next() % 2 == 0),
                            // Tries never block, so any lock will do; a
                            // second try of a lock the first one got
                            // fails.
                            _ => match &locks[x] {
                                Shared::Mutex(m) => {
                                    let first = m.try_lock();
                                    drop(m.try_lock());
                                    drop(first);
                                }
                                Shared::RwLock(l) => {
                                    let first = l.try_read();
                                    drop(l.try_write());
                                    drop(first);
                                }
                            },
                        }
                    }
                    let (count, cv) = &*barrier;
                    let mut arrived = count.lock().unwrap();
                    *arrived += 1;
                    let all = (round + 1) * MIXED_THREADS;
                    if *arrived == all {
                        cv.notify_all();
                    }
                    drop(cv.wait_while(arrived, |n| *n < all).unwrap());
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    tracker.seal();

    let delivered = std::mem::take(&mut collected.lock().unwrap().0);
    let recorded = tracker.trace();
    assert_eq!(delivered.events(), recorded.events());
    let kinds =
        |pick: fn(&EventKind) -> bool| delivered.events().iter().filter(|e| pick(&e.kind)).count();
    assert!(kinds(|k| matches!(k, EventKind::CondWait { .. })) > 0);
    assert!(
        kinds(|k| matches!(
            k,
            EventKind::TryAcquire {
                acquired: false,
                ..
            }
        )) > 0
    );
    assert!(kinds(|k| matches!(k, EventKind::Acquire { mode, .. } if mode.is_shared())) > 0);
    check_exclusion(delivered.events());
    check(&delivered, None);
}

/// Whether the sink has been handed an event of `thread` matching
/// `pick`.
fn delivered(sink: &Mutex<Collect>, thread: ThreadId, pick: fn(&EventKind) -> bool) -> bool {
    let sink = sink.lock().unwrap();
    sink.0
        .events()
        .iter()
        .any(|e| e.thread == thread && pick(&e.kind))
}

/// A thread that holds `lock` from its acquisition, which is not
/// delivered before its release, until `release` fires.
fn holder(
    tracker: &Tracker,
    lock: &Arc<TrackedMutex<u64>>,
) -> (df_lock::TrackedJoinHandle<()>, std::sync::mpsc::Sender<()>) {
    let (held, wait_for_held) = std::sync::mpsc::channel();
    let (release, wait_for_release) = std::sync::mpsc::channel::<()>();
    let lock = Arc::clone(lock);
    let handle = tracker.spawn("holder", move || {
        let _guard = lock.lock().unwrap();
        held.send(()).unwrap();
        wait_for_release.recv().unwrap();
    });
    wait_for_held.recv().unwrap();
    (handle, release)
}

/// Polls until `cond` holds; fails after 30 s.
fn eventually(what: &str, cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !cond() {
        assert!(
            std::time::Instant::now() < deadline,
            "never delivered: {what}"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

fn takes(kind: &EventKind) -> bool {
    matches!(kind, EventKind::Acquire { .. })
}

/// A release hands out only a full run. Events a thread still buffers
/// while a holder keeps a lock still reach the sink before their thread
/// blocks, when it exits and at the seal.
#[test]
fn events_behind_another_threads_number_are_delivered() {
    let sink = Arc::new(Mutex::new(Collect::default()));
    let tracker =
        Tracker::new(TrackerConfig::default().with_sink(SinkHandle::single(sink.clone())));
    let held = Arc::new(TrackedMutex::with_tracker(&tracker, 0u64));
    let other = Arc::new(TrackedMutex::with_tracker(&tracker, 0u64));

    // Before it blocks: the waiter runs once the holder holds `held`, so
    // its pair on `other` stays buffered in its slot, short of a run,
    // until it blocks on `held`.
    let (go, wait_for_go) = std::sync::mpsc::channel::<()>();
    let (paired, wait_for_pair) = std::sync::mpsc::channel::<()>();
    let (block, wait_for_block) = std::sync::mpsc::channel::<()>();
    let (h, o) = (Arc::clone(&held), Arc::clone(&other));
    let waiter = tracker.spawn("waiter", move || {
        wait_for_go.recv().unwrap();
        *o.lock().unwrap() += 1;
        paired.send(()).unwrap();
        wait_for_block.recv().unwrap();
        *h.lock().unwrap() += 1;
    });
    let (holding, release) = holder(&tracker, &held);
    let w = waiter.thread_id();
    go.send(()).unwrap();
    wait_for_pair.recv().unwrap();
    assert!(!delivered(&sink, w, takes), "the pair stays buffered");
    block.send(()).unwrap();
    eventually("the waiter's pair before it blocks", || {
        delivered(&sink, w, |k| matches!(k, EventKind::Blocked { .. }))
    });
    assert!(delivered(&sink, w, takes));
    release.send(()).unwrap();
    holding.join().unwrap();
    waiter.join().unwrap();

    // When it exits: the exiting thread's pair stays buffered until its
    // exit.
    let (go, wait_for_go) = std::sync::mpsc::channel::<()>();
    let (paired, wait_for_pair) = std::sync::mpsc::channel::<()>();
    let (exit, wait_for_exit) = std::sync::mpsc::channel::<()>();
    let o = Arc::clone(&other);
    let exiting = tracker.spawn("exiting", move || {
        wait_for_go.recv().unwrap();
        *o.lock().unwrap() += 1;
        paired.send(()).unwrap();
        wait_for_exit.recv().unwrap();
    });
    let (holding, release) = holder(&tracker, &held);
    let x = exiting.thread_id();
    go.send(()).unwrap();
    wait_for_pair.recv().unwrap();
    assert!(!delivered(&sink, x, takes), "the pair stays buffered");
    exit.send(()).unwrap();
    exiting.join().unwrap();
    assert!(delivered(&sink, x, |k| matches!(k, EventKind::ThreadExit)));
    assert!(delivered(&sink, x, takes));
    release.send(()).unwrap();
    holding.join().unwrap();

    // At the seal: this thread's pair stays buffered while a holder has
    // not released yet.
    let (holding, release) = holder(&tracker, &held);
    *other.lock().unwrap() += 1;
    let me = {
        let sink = sink.lock().unwrap();
        let created = sink
            .0
            .events()
            .iter()
            .find(|e| matches!(e.kind, EventKind::New { obj } if obj == held.id()));
        created.expect("this thread created the locks").thread
    };
    let released = |k: &EventKind| matches!(k, EventKind::Release { .. });
    assert!(!delivered(&sink, me, released), "the pair stays buffered");
    tracker.seal();
    assert!(delivered(&sink, me, released));
    release.send(()).unwrap();
    holding.join().unwrap();
}

/// Keeps every run a sink is handed, as handed.
#[derive(Default)]
struct Runs(Vec<Vec<Event>>);

impl EventSink for Runs {
    fn on_event(&mut self, event: &Event) {
        self.on_events(std::slice::from_ref(event));
    }

    fn on_events(&mut self, events: &[Event]) {
        self.0.push(events.to_vec());
    }
}

thread_local! {
    /// Set while a worker of [`run_pairs`] releases a pair, where a
    /// panicking sink can only unwind a delivery after a native unlock,
    /// never an acquisition.
    static RELEASING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Panics once: in the first run it is handed while a pair is released.
#[derive(Default)]
struct ExplodingSink {
    exploded: bool,
}

impl EventSink for ExplodingSink {
    fn on_event(&mut self, _event: &Event) {}

    fn on_events(&mut self, _events: &[Event]) {
        if !self.exploded && RELEASING.with(std::cell::Cell::get) {
            self.exploded = true;
            panic!("sink exploded mid-run");
        }
    }
}

const RUN_THREADS: usize = 4;
const RUN_PAIRS: usize = 500;

/// Four threads take `RUN_PAIRS` nested pairs each of eight shared
/// mutexes, recording the trace, with a [`Runs`] sink first and `second`
/// after it. A release a sink panics in is caught, and poisoned mutexes
/// are taken anyway, so every pair takes and gives up both of its locks.
/// Returns the runs and the recorded trace.
fn run_pairs(second: Option<Arc<Mutex<dyn EventSink>>>) -> (Vec<Vec<Event>>, Trace) {
    let runs = Arc::new(Mutex::new(Runs::default()));
    let mut sinks = SinkHandle::single(runs.clone());
    if let Some(second) = second {
        sinks = sinks.with(second);
    }
    let tracker = Tracker::new(
        TrackerConfig::default()
            .with_sink(sinks)
            .with_record_events(true),
    );
    let locks: Arc<Vec<TrackedMutex<u64>>> = Arc::new(
        (0..STRESS_LOCKS)
            .map(|_| TrackedMutex::with_tracker(&tracker, 0))
            .collect(),
    );
    let workers: Vec<_> = (0..RUN_THREADS)
        .map(|t| {
            let locks = Arc::clone(&locks);
            tracker.spawn(&format!("runs-{t}"), move || {
                let take = |i: usize| {
                    locks[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                };
                for p in 0..RUN_PAIRS {
                    // Two distinct locks, taken in index order.
                    let x = (t + p) % STRESS_LOCKS;
                    let y = (x + 1 + 3 * p % (STRESS_LOCKS - 1)) % STRESS_LOCKS;
                    let (lo, hi) = (x.min(y), x.max(y));
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let (mut a, mut b) = (take(lo), take(hi));
                        *a += 1;
                        *b += 1;
                        RELEASING.with(|f| f.set(true));
                        drop(b);
                        drop(a);
                    }));
                    RELEASING.with(|f| f.set(false));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    tracker.seal();
    let runs = std::mem::take(&mut runs.lock().unwrap().0);
    (runs, tracker.trace())
}

/// Sinks get the stream in runs, one call each: the runs, concatenated,
/// are the recorded trace, gapless from 0, and a run carries more than
/// one event. A sink that panics mid-run costs the sinks after it that
/// run, but neither the sinks before it nor the recorded trace.
#[test]
fn sinks_get_the_recorded_trace_in_runs() {
    let exploding = Arc::new(Mutex::new(ExplodingSink::default()));
    for second in [None, Some(exploding.clone() as Arc<Mutex<dyn EventSink>>)] {
        let panicking = second.is_some();
        let (runs, recorded) = run_pairs(second);
        let delivered: Vec<Event> = runs.iter().flatten().cloned().collect();
        assert_eq!(delivered, recorded.events(), "panicking: {panicking}");
        for (i, event) in recorded.events().iter().enumerate() {
            assert_eq!(event.seq, i as u64, "gapless from 0");
        }
        assert!(
            runs.iter().any(|run| run.len() > 1),
            "some run carries more than one event"
        );
        // Every pair is in the recorded trace, the one the sink blew up
        // in included.
        for t in 0..RUN_THREADS {
            let thread = ThreadId::new(t as u32 + 1);
            let count = |pick: fn(&EventKind) -> bool| {
                recorded
                    .events()
                    .iter()
                    .filter(|e| e.thread == thread && pick(&e.kind))
                    .count()
            };
            assert_eq!(count(takes), 2 * RUN_PAIRS, "T{t} acquires");
            let released = |k: &EventKind| matches!(k, EventKind::Release { .. });
            assert_eq!(count(released), 2 * RUN_PAIRS, "T{t} releases");
            assert_eq!(count(|k| matches!(k, EventKind::ThreadExit)), 1);
        }
    }
    assert!(exploding.is_poisoned(), "the second sink did panic");
}

/// Keeps the length of every run a sink is handed while its delivering
/// thread releases a pair ([`RELEASING`]).
#[derive(Default)]
struct ReleasedRuns(Vec<usize>);

impl EventSink for ReleasedRuns {
    fn on_event(&mut self, event: &Event) {
        self.on_events(std::slice::from_ref(event));
    }

    fn on_events(&mut self, events: &[Event]) {
        if RELEASING.with(std::cell::Cell::get) {
            self.0.push(events.len());
        }
    }
}

const LONE_PAIRS: usize = 10_000;

/// A lone thread's releases hand its events out in full runs: every run
/// a release hands the sinks holds at least [`DELIVERY_RUN`] events,
/// together they carry all but the tail its exit hands out, and the
/// runs, concatenated, are the recorded trace.
#[test]
fn a_lone_threads_releases_hand_out_full_runs() {
    let runs = Arc::new(Mutex::new(Runs::default()));
    let released = Arc::new(Mutex::new(ReleasedRuns::default()));
    let tracker = Tracker::new(
        TrackerConfig::default()
            .with_sink(SinkHandle::single(runs.clone()).with(released.clone()))
            .with_record_events(true),
    );
    let outer = Arc::new(TrackedMutex::with_tracker(&tracker, 0u64));
    let inner = Arc::new(TrackedMutex::with_tracker(&tracker, 0u64));
    let (a, b) = (Arc::clone(&outer), Arc::clone(&inner));
    tracker
        .spawn("lone", move || {
            for _ in 0..LONE_PAIRS {
                let (mut x, mut y) = (a.lock().unwrap(), b.lock().unwrap());
                *x += 1;
                *y += 1;
                RELEASING.with(|f| f.set(true));
                drop(y);
                drop(x);
                RELEASING.with(|f| f.set(false));
            }
        })
        .join()
        .unwrap();
    tracker.seal();

    let lens = std::mem::take(&mut released.lock().unwrap().0);
    assert!(
        lens.iter().all(|&n| n >= DELIVERY_RUN),
        "a release handed out a short run: {lens:?}"
    );
    assert!(
        lens.iter().sum::<usize>() >= 4 * LONE_PAIRS - DELIVERY_RUN,
        "releases handed out {} of {} pair events",
        lens.iter().sum::<usize>(),
        4 * LONE_PAIRS
    );
    let delivered: Vec<Event> = std::mem::take(&mut runs.lock().unwrap().0)
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(delivered, tracker.trace().events());
    assert_eq!(*outer.lock().unwrap(), LONE_PAIRS as u64);
}

/// A wait that outlasts the acquisition's spin is a real wait: while a
/// holder keeps a lock across a channel handshake, the waiter's
/// `Blocked` reaches the sink before it parks, and `wfg_edges` counts
/// it. The spin never hides a wait that lasts.
#[test]
fn a_wait_past_the_spin_is_delivered_and_counted() {
    let sink = Arc::new(Mutex::new(Collect::default()));
    let obs = df_obs::Obs::default();
    let tracker = Tracker::new(
        TrackerConfig::default()
            .with_sink(SinkHandle::single(sink.clone()))
            .with_obs(obs.clone()),
    );
    let held = Arc::new(TrackedMutex::with_tracker(&tracker, 0u64));
    let (holding, release) = holder(&tracker, &held);
    let h = Arc::clone(&held);
    let waiter = tracker.spawn("waiter", move || *h.lock().unwrap() += 1);
    let w = waiter.thread_id();
    let blocked = |k: &EventKind| matches!(k, EventKind::Blocked { .. });
    eventually("the waiter's Blocked while the holder holds", || {
        delivered(&sink, w, blocked)
    });
    assert!(!waiter.is_finished(), "the waiter is parked");
    assert_eq!(obs.counters().snapshot().wfg_edges, 1);
    release.send(()).unwrap();
    holding.join().unwrap();
    waiter.join().unwrap();
    tracker.seal();
    assert!(delivered(&sink, w, |k| matches!(
        k,
        EventKind::Unblocked { .. }
    )));
    assert_eq!(*held.lock().unwrap(), 1);
    assert_eq!(obs.counters().snapshot().wfg_edges, 1);
}

const COUNT_THREADS: usize = 4;
const COUNT_ROUNDS: usize = 300;

/// `acquires_observed` counts every non-re-entrant acquisition,
/// successful tries included and failing ones not: once the threads
/// have exited and at the seal, with a spill and with no sink.
#[test]
fn acquires_observed_is_exact_once_threads_exit() {
    for spill in [true, false] {
        let obs = df_obs::Obs::default();
        let mut config = TrackerConfig::default().with_obs(obs.clone());
        let mut spilled = None;
        if spill {
            let format = df_events::SpillConfig::with_format(df_events::TraceFormat::Binary);
            let (with_spill, sink) = config.with_spill(Vec::new(), &format).unwrap();
            config = with_spill;
            spilled = Some(sink);
        }
        let tracker = Tracker::new(config);
        let locks: Arc<Vec<TrackedMutex<u64>>> = Arc::new(
            (0..STRESS_LOCKS)
                .map(|_| TrackedMutex::with_tracker(&tracker, 0))
                .collect(),
        );
        let shared = Arc::new(TrackedRwLock::with_tracker(&tracker, 0u64));
        let workers: Vec<_> = (0..COUNT_THREADS)
            .map(|t| {
                let (locks, shared) = (Arc::clone(&locks), Arc::clone(&shared));
                let own = TrackedMutex::with_tracker(&tracker, 0u64);
                tracker.spawn(&format!("count-{t}"), move || {
                    for round in 0..COUNT_ROUNDS {
                        // A nested pair: two acquisitions.
                        let lo = (t + round) % (STRESS_LOCKS - 1);
                        let mut a = locks[lo].lock().unwrap();
                        *locks[lo + 1].lock().unwrap() += 1;
                        *a += 1;
                        drop(a);
                        // A re-entrant read: one.
                        let outer = shared.read().unwrap();
                        let inner = shared.read().unwrap();
                        assert_eq!(*outer + *inner, 0);
                        drop(inner);
                        drop(outer);
                        // A successful try: one; a failing one: none.
                        let held = own.try_lock().unwrap();
                        assert!(own.try_lock().is_err());
                        drop(held);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let expected = (COUNT_THREADS * COUNT_ROUNDS * 4) as u64;
        let observed = || obs.counters().snapshot().acquires_observed;
        assert_eq!(observed(), expected, "spill: {spill}, threads exited");
        tracker.seal();
        assert_eq!(observed(), expected, "spill: {spill}, sealed");
        if let Some(sink) = spilled {
            let (events, _) = sink.lock().unwrap().close().unwrap();
            assert!(events > expected);
        }
    }
}

/// Takes `lock` and gives it up `pairs` times, flagging the releases
/// ([`RELEASING`]).
fn lock_pairs(lock: &TrackedMutex<u64>, pairs: usize) {
    for _ in 0..pairs {
        let mut held = lock.lock().unwrap();
        *held += 1;
        RELEASING.with(|f| f.set(true));
        drop(held);
        RELEASING.with(|f| f.set(false));
    }
}

/// The positions in `events` of `thread`'s events matching `pick`.
fn positions(events: &[Event], thread: ThreadId, pick: fn(&EventKind) -> bool) -> Vec<usize> {
    let mine = |(i, e): (usize, &Event)| (e.thread == thread && pick(&e.kind)).then_some(i);
    events.iter().enumerate().filter_map(mine).collect()
}

const IDLE_PAIRS: usize = 10_000;

/// Two workers take a lock of their own over and over while the main
/// thread that spawned them sits parked in `join`, with nothing to hand
/// out: every run a worker's release hands the sinks is a full one, and
/// once both are done, before either exits, the sinks hold all of their
/// pair events but what each still buffers — at most a backlog of four
/// runs.
#[test]
fn an_idle_main_thread_in_join_holds_back_no_worker_runs() {
    let runs = Arc::new(Mutex::new(Runs::default()));
    let released = Arc::new(Mutex::new(ReleasedRuns::default()));
    let tracker = Tracker::new(
        TrackerConfig::default().with_sink(SinkHandle::single(runs.clone()).with(released.clone())),
    );
    let (done, wait_for_done) = std::sync::mpsc::channel::<()>();
    let (exits, workers): (Vec<_>, Vec<_>) = (0..2)
        .map(|t| {
            let (exit, wait_for_exit) = std::sync::mpsc::channel::<()>();
            let (lock, done) = (TrackedMutex::with_tracker(&tracker, 0u64), done.clone());
            let worker = tracker.spawn(&format!("idle-{t}"), move || {
                lock_pairs(&lock, IDLE_PAIRS);
                done.send(()).unwrap();
                wait_for_exit.recv().unwrap();
            });
            (exit, worker)
        })
        .unzip();
    let ids: Vec<ThreadId> = workers.iter().map(|w| w.thread_id()).collect();
    // Untracked, so the main thread stays the only one in `join`.
    let sink = Arc::clone(&runs);
    let checker = std::thread::spawn(move || {
        wait_for_done.recv().unwrap();
        wait_for_done.recv().unwrap();
        let pair_events = sink
            .lock()
            .unwrap()
            .0
            .iter()
            .flatten()
            .filter(|e| ids.contains(&e.thread))
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Acquire { .. } | EventKind::Release { .. }
                )
            })
            .count();
        for exit in exits {
            exit.send(()).unwrap();
        }
        pair_events
    });
    for worker in workers {
        worker.join().unwrap();
    }
    let pair_events = checker.join().unwrap();
    let all = 2 * 2 * IDLE_PAIRS;
    assert!(
        pair_events >= all - 2 * 4 * DELIVERY_RUN,
        "the sinks held {pair_events} of {all} pair events while the workers were done"
    );
    let lens = std::mem::take(&mut released.lock().unwrap().0);
    assert!(!lens.is_empty(), "the workers' releases handed out runs");
    assert!(
        lens.iter().all(|&n| n >= DELIVERY_RUN),
        "a release handed out a short run: {lens:?}"
    );
}

/// A writer's `Acquire` follows every concurrent reader's `Release`,
/// even when the reader with the far larger clock lets go first: the
/// lock keeps the largest stamp released, not the last one. No flush
/// falls between the readers' releases and the write, so nothing but
/// the lock's stamp orders them.
#[test]
fn a_writers_acquire_follows_every_concurrent_readers_release() {
    let sink = Arc::new(Mutex::new(Collect::default()));
    let tracker =
        Tracker::new(TrackerConfig::default().with_sink(SinkHandle::single(sink.clone())));
    let rw = Arc::new(TrackedRwLock::with_tracker(&tracker, 0u64));
    let start = Arc::new(std::sync::Barrier::new(3));
    let both_read = Arc::new(std::sync::Barrier::new(2));
    let finish = Arc::new(std::sync::Barrier::new(3));
    let (busy_let_go, wait_for_busy) = std::sync::mpsc::channel::<()>();
    let (idle_let_go, wait_for_idle) = std::sync::mpsc::channel::<()>();
    let busy = {
        let (rw, start, both_read, finish) =
            (rw.clone(), start.clone(), both_read.clone(), finish.clone());
        let own = TrackedMutex::with_tracker(&tracker, 0u64);
        tracker.spawn("busy reader", move || {
            start.wait();
            // A hundred events: a clock far ahead, and no full run.
            lock_pairs(&own, 50);
            let read = rw.read().unwrap();
            both_read.wait();
            drop(read);
            busy_let_go.send(()).unwrap();
            finish.wait();
        })
    };
    let idle = {
        let (rw, start, both_read, finish) =
            (rw.clone(), start.clone(), both_read.clone(), finish.clone());
        tracker.spawn("idle reader", move || {
            start.wait();
            let read = rw.read().unwrap();
            both_read.wait();
            wait_for_busy.recv().unwrap();
            drop(read);
            idle_let_go.send(()).unwrap();
            finish.wait();
        })
    };
    let writer = {
        let rw = rw.clone();
        tracker.spawn("writer", move || {
            start.wait();
            wait_for_idle.recv().unwrap();
            *rw.write().unwrap() += 1;
            finish.wait();
        })
    };
    let threads = [busy.thread_id(), idle.thread_id(), writer.thread_id()];
    for t in [busy, idle, writer] {
        t.join().unwrap();
    }
    tracker.seal();

    let trace = std::mem::take(&mut sink.lock().unwrap().0);
    let released = |k: &EventKind| matches!(k, EventKind::Release { .. });
    let releases: Vec<usize> = threads[..2]
        .iter()
        .flat_map(|&reader| positions(trace.events(), reader, released))
        .filter(|&i| matches!(trace.events()[i].kind, EventKind::Release { lock, .. } if lock == rw.id()))
        .collect();
    let write = positions(trace.events(), threads[2], takes);
    assert_eq!((releases.len(), write.len()), (2, 1));
    assert!(
        releases.iter().all(|&r| r < write[0]),
        "the write at {} precedes a read release at {releases:?}",
        write[0]
    );
    check_exclusion(trace.events());
}

/// Spawn and join order the stream whatever real time says: while a
/// busy thread's clock runs far ahead and untracked sleeps stretch the
/// child's life, the child's events follow its `Spawn`, and the joiner,
/// whose own clock is small, continues after the child's `ThreadExit`.
#[test]
fn spawn_and_join_order_holds_when_untracked_work_skews_real_time() {
    let sink = Arc::new(Mutex::new(Collect::default()));
    let tracker =
        Tracker::new(TrackerConfig::default().with_sink(SinkHandle::single(sink.clone())));
    let own = TrackedMutex::with_tracker(&tracker, 0u64);
    let (stop, wait_for_stop) = std::sync::mpsc::channel::<()>();
    let busy_lock = TrackedMutex::with_tracker(&tracker, 0u64);
    let busy = tracker.spawn("busy", move || {
        while wait_for_stop.try_recv().is_err() {
            lock_pairs(&busy_lock, 100);
        }
    });
    let parent = tracker.spawn("parent", {
        let tracker = tracker.clone();
        move || {
            let child_lock = TrackedMutex::with_tracker(&tracker, 0u64);
            let child = tracker.spawn("child", move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                lock_pairs(&child_lock, 3);
                std::thread::sleep(std::time::Duration::from_millis(20));
            });
            let id = child.thread_id();
            child.join().unwrap();
            lock_pairs(&own, 1);
            id
        }
    });
    let child = parent.join().unwrap();
    stop.send(()).unwrap();
    busy.join().unwrap();
    tracker.seal();

    let trace = std::mem::take(&mut sink.lock().unwrap().0);
    let events = trace.events();
    let spawned = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::Spawn { child: c, .. } if c == child))
        .expect("the child's spawn");
    let joined = events
        .iter()
        .position(|e| matches!(e.kind, EventKind::Join { target } if target == child))
        .expect("the child's join");
    let parent_id = events[joined].thread;
    let of_child = positions(events, child, |_| true);
    let exited = positions(events, child, |k| matches!(k, EventKind::ThreadExit));
    assert!(of_child.len() > 6 && exited.len() == 1);
    assert!(
        of_child.iter().all(|&i| i > spawned),
        "child before its spawn"
    );
    assert_eq!(
        of_child.last(),
        exited.first(),
        "the exit is the child's last"
    );
    assert!(
        joined > exited[0],
        "join at {joined} before the exit at {}",
        exited[0]
    );
    assert_eq!(events[spawned].thread, parent_id, "the parent spawned it");
    let after = positions(events, parent_id, takes);
    assert!(!after.is_empty() && after.iter().all(|&i| i > joined));
    check(&trace, None);
}

/// A hand-out levels the thread clocks: a thread idle across it goes on
/// from the largest clock, not its own, so the next run does not put its
/// later events ahead of a busy thread's earlier ones. The busy thread
/// takes its lock once after the flush, then the idle one does; in the
/// run that carries both, the busy thread's comes first.
#[test]
fn a_hand_out_levels_the_thread_clocks() {
    let sink = Arc::new(Mutex::new(Collect::default()));
    let tracker =
        Tracker::new(TrackerConfig::default().with_sink(SinkHandle::single(sink.clone())));
    let start = Arc::new(std::sync::Barrier::new(2));
    let (busy_done, wait_for_busy) = std::sync::mpsc::channel::<()>();
    let (go, wait_for_go) = std::sync::mpsc::channel::<()>();
    let (turn, wait_for_turn) = std::sync::mpsc::channel::<()>();
    let (idle_done, wait_for_idle) = std::sync::mpsc::channel::<()>();
    let (exit, wait_for_exit) = std::sync::mpsc::channel::<()>();
    let busy = {
        let (lock, start) = (TrackedMutex::with_tracker(&tracker, 0u64), start.clone());
        tracker.spawn("busy", move || {
            start.wait();
            // A hundred events: a clock far ahead, and no full run.
            lock_pairs(&lock, 50);
            busy_done.send(()).unwrap();
            wait_for_go.recv().unwrap();
            lock_pairs(&lock, 1);
            turn.send(()).unwrap();
            wait_for_exit.recv().unwrap();
        })
    };
    let idle = {
        let lock = TrackedMutex::with_tracker(&tracker, 0u64);
        tracker.spawn("idle", move || {
            start.wait();
            wait_for_turn.recv().unwrap();
            lock_pairs(&lock, 1);
            idle_done.send(()).unwrap();
        })
    };
    wait_for_busy.recv().unwrap();
    drop(tracker.trace());
    let flushed = sink.lock().unwrap().0.events().len();
    go.send(()).unwrap();
    wait_for_idle.recv().unwrap();
    exit.send(()).unwrap();
    let (b, i) = (busy.thread_id(), idle.thread_id());
    busy.join().unwrap();
    idle.join().unwrap();
    tracker.seal();

    let trace = std::mem::take(&mut sink.lock().unwrap().0);
    let later = &trace.events()[flushed..];
    let (busy_takes, idle_takes) = (positions(later, b, takes), positions(later, i, takes));
    assert_eq!((busy_takes.len(), idle_takes.len()), (1, 1));
    assert!(
        busy_takes[0] < idle_takes[0],
        "the idle thread's acquire at {} went ahead of the busy one's at {}",
        idle_takes[0],
        busy_takes[0]
    );
}

/// A mutex a thread-local owns and takes once more when the thread ends.
struct LockOnDrop(TrackedMutex<u64>);

impl Drop for LockOnDrop {
    fn drop(&mut self) {
        *self.0.lock().unwrap() += 1;
    }
}

thread_local! {
    static LATE: std::cell::RefCell<Option<LockOnDrop>> = const { std::cell::RefCell::new(None) };
}

/// A thread-local destructor runs after a tracked thread's exit
/// bookkeeping: the pair it takes still reaches the sink, after the
/// thread's `ThreadExit` and before the joiner's `Join`, and is counted.
#[test]
fn a_thread_local_destructor_that_locks_after_exit_is_delivered() {
    let obs = df_obs::Obs::default();
    let sink = Arc::new(Mutex::new(Collect::default()));
    let tracker = Tracker::new(
        TrackerConfig::default()
            .with_obs(obs.clone())
            .with_sink(SinkHandle::single(sink.clone())),
    );
    let lock = TrackedMutex::with_tracker(&tracker, 0u64);
    let late = tracker.spawn("late", move || {
        lock_pairs(&lock, 1);
        LATE.with(|l| *l.borrow_mut() = Some(LockOnDrop(lock)));
    });
    let t = late.thread_id();
    late.join().unwrap();
    tracker.seal();

    let trace = std::mem::take(&mut sink.lock().unwrap().0);
    let events = trace.events();
    let exit = positions(events, t, |k| matches!(k, EventKind::ThreadExit));
    let pairs = positions(events, t, takes);
    let releases = positions(events, t, |k| matches!(k, EventKind::Release { .. }));
    let join = positions(events, ThreadId::new(0), |k| {
        matches!(k, EventKind::Join { .. })
    });
    assert_eq!((exit.len(), pairs.len(), releases.len()), (1, 2, 2));
    assert!(exit[0] < pairs[1] && pairs[1] < releases[1] && releases[1] < join[0]);
    assert_eq!(obs.counters().snapshot().acquires_observed, 2);
}
