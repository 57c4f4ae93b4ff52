//! The token-passing controller: serializes virtual threads and consults
//! the strategy at every schedule point.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::{self, Thread};

use df_events::{AcquireMode, EventKind, Label, ObjId, ObjKind, ThreadId};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::carrier::{self, Tally};
use crate::config::RunConfig;
use crate::ctx::TCtx;
use crate::fault::{FaultState, InjectedFault};
use crate::pending::PendingOp;
use crate::result::{DeadlockWitness, Detector, Outcome, WitnessComponent};
use crate::state::{Global, ThreadState, ThreadStatus};
use crate::strategy::{Directive, Strategy};
use crate::view::StateView;
use crate::waitfor::WaitForGraph;

/// Panic payload used to unwind a virtual thread when the run is aborted.
pub(crate) struct AbortToken;

/// Error returned by controller operations once the run is shutting down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Aborted;

/// Result of executing a pending operation.
pub(crate) enum OpOutcome {
    Unit,
    Created(ObjId),
    /// Saved monitor recursion count (from `WaitRelease` /
    /// `CondWaitRelease`).
    Count(u32),
    /// Whether a `TryAcquire` obtained the lock.
    Acquired(bool),
}

pub(crate) struct Inner {
    pub(crate) g: Global,
    pub(crate) strategy: Option<Box<dyn Strategy>>,
    /// Set when the run has fully terminated (normally or by abort).
    pub(crate) done: bool,
    /// Scratch buffer for the enabled set, refilled at every pick so the
    /// per-step path does not allocate.
    enabled: Vec<ThreadId>,
}

/// The carrier to unpark once the controller mutex is released: the
/// thread a pick made `current`, if it is already on its carrier.
type Wake = Option<Thread>;

/// How many times a waiter likely to be picked next yields its carrier,
/// watching [`Controller::picked`], before it parks. Parking and being
/// woken cost two futex calls and a trip through the OS scheduler; a
/// yield that finds the pick already made costs neither. The gain
/// levels off from about 20 yields on the Table 1 campaign; past the
/// bound the waiter parks as if it had not yielded.
const HANDOFF_YIELDS: u32 = 50;

/// [`Controller::picked`] while no thread holds the token.
const NO_THREAD: u32 = u32::MAX;

/// [`Controller::picked`] once the run is aborting: it ends every yield
/// loop, and no later write replaces it.
const ABORTING: u32 = u32::MAX - 1;

/// Shared controller for one run.
///
/// A virtual thread waits for the token by parking its carrier
/// (`Thread::park`) with the one `inner` mutex released. A pick only sets
/// `current` under the mutex and names the picked thread's carrier; the
/// giver unparks that carrier after it has let the mutex go, so the woken
/// thread never wakes into a mutex its waker still holds. A woken thread
/// re-checks `current` and `aborting` under the mutex before it runs and
/// parks again if it was not picked, so a stale or spurious unpark (one
/// meant for an earlier virtual thread of a reused carrier) costs one
/// extra check. The supervisor parks on `done_cond`, which is notified
/// only when `inner.done` is set.
///
/// Most Phase II picks leave the token where it is, and when it moves
/// there are often only two threads to move between. So a waiter that
/// was in the last pick's enabled set, and that set held at most two
/// threads, first yields its carrier up to [`HANDOFF_YIELDS`] times,
/// watching `picked`, a lock-free copy of `current`. If the copy names
/// it (or the run aborts) within the bound, it goes straight to the same
/// re-check under the mutex without having slept, and the giver's
/// unpark finds no parked thread to wake. Any other waiter parks at
/// once: with more threads able to run, yielding ones would crowd out
/// the one that holds the token.
pub(crate) struct Controller {
    pub(crate) inner: Mutex<Inner>,
    pub(crate) done_cond: Condvar,
    pub(crate) config: RunConfig,
    /// The run's virtual threads still on a carrier.
    pub(crate) tally: Arc<Tally>,
    /// `inner.g.current` as a thread index, [`NO_THREAD`] or
    /// [`ABORTING`], written under `inner` with every change of it. Only
    /// yielding waiters read it, without the mutex; a value read there
    /// is a hint to re-check `current` under the mutex, never a pick.
    /// Stores are `Release` and loads `Acquire`, but the mutex the
    /// re-check takes, not this pairing, orders the run's state.
    picked: AtomicU32,
}

/// Installs (once per process) a panic hook that suppresses the default
/// "thread panicked" report for the runtime's internal [`AbortToken`]
/// unwinds, which are control flow rather than errors.
pub(crate) fn install_quiet_abort_hook() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            // AbortToken unwinds are control flow; InjectedFault panics are
            // deliberate (reported via `Outcome::ProgramPanic`): neither is
            // an error worth a stderr report.
            if info.payload().downcast_ref::<AbortToken>().is_some()
                || info.payload().downcast_ref::<InjectedFault>().is_some()
            {
                return;
            }
            prev(info);
        }));
    });
}

impl Controller {
    pub(crate) fn new(config: RunConfig, strategy: Box<dyn Strategy>) -> Arc<Self> {
        let mut g = Global::new(config.record_trace);
        g.faults = config.fault_plan.clone().map(FaultState::new);
        Arc::new(Controller {
            inner: Mutex::new(Inner {
                g,
                strategy: Some(strategy),
                done: false,
                enabled: Vec::new(),
            }),
            done_cond: Condvar::new(),
            config,
            tally: Arc::default(),
            picked: AtomicU32::new(NO_THREAD),
        })
    }

    /// Hands the token to `t` (or frees it) and mirrors that in
    /// `picked`, unless the run is aborting, whose mark stays.
    fn set_current(&self, g: &mut Global, t: Option<ThreadId>) {
        g.current = t;
        if !g.aborting {
            let picked = t.map_or(NO_THREAD, |t| t.as_u32());
            self.picked.store(picked, Ordering::Release);
        }
    }

    /// Records an event: appends to the trace (if recording), streams it
    /// to any attached sinks, and informs the strategy. The sequence
    /// number comes from a dedicated event counter so sinks observe the
    /// exact numbering a recorded trace would carry even when trace
    /// recording is off.
    fn record(&self, inner: &mut Inner, thread: ThreadId, kind: EventKind) {
        if inner.g.aborting {
            return;
        }
        let seq = inner.g.event_seq;
        inner.g.event_seq += 1;
        if inner.g.record_trace {
            let pushed = inner.g.trace.push(thread, kind.clone());
            debug_assert_eq!(pushed, seq, "trace and event counter agree");
        }
        let event = df_events::Event::new(seq, thread, kind);
        if self.config.sink.is_attached() {
            self.config.sink.emit(std::slice::from_ref(&event));
            self.config.obs.counters().add_events_streamed(1);
        }
        if let Some(mut strat) = inner.strategy.take() {
            strat.on_event(&event, &StateView { g: &inner.g });
            inner.strategy = Some(strat);
        }
    }

    /// Ends the run with `outcome` (first writer wins) and wakes every
    /// registered carrier plus the supervisor.
    pub(crate) fn abort(&self, inner: &mut Inner, outcome: Outcome) {
        if inner.g.final_outcome.is_none() {
            inner.g.final_outcome = Some(outcome);
        }
        inner.g.aborting = true;
        inner.done = true;
        self.picked.store(ABORTING, Ordering::Release);
        for carrier in inner.g.threads.iter().filter_map(|ts| ts.carrier.as_ref()) {
            carrier.unpark();
        }
        self.done_cond.notify_one();
    }

    /// Picks the next thread to run. Called whenever the token is free
    /// (`current == None`). On success `current` is set and the picked
    /// thread's carrier is returned for the caller to unpark once it has
    /// released the mutex. Returns `Err(Aborted)` if the run ended instead.
    fn reschedule(&self, inner: &mut Inner) -> Result<Wake, Aborted> {
        if inner.g.aborting {
            return Err(Aborted);
        }
        self.inject_spurious_wakeup(inner);
        let Inner {
            g,
            strategy,
            enabled,
            ..
        } = inner;
        g.fill_enabled(enabled);
        if enabled.is_empty() {
            let alive = g.alive();
            let outcome = if alive.is_empty() {
                Outcome::Completed
            } else {
                self.diagnose_stall(g, alive)
            };
            self.abort(inner, outcome);
            return Err(Aborted);
        }
        let directive = strategy
            .as_mut()
            .expect("strategy present")
            .pick(&StateView { g }, enabled);
        match directive {
            Directive::Run(t) if enabled.contains(&t) => {
                // `current` is only written under `inner`, and a waiter
                // re-checks it under `inner` before parking; an unpark
                // that lands before `t` parks makes its park return at
                // once, and a `t` not yet registered finds the pick when
                // it registers. So the wake-up cannot be lost.
                self.set_current(g, Some(t));
                Ok(g.thread(t).carrier.clone())
            }
            Directive::Run(t) => {
                self.abort(
                    inner,
                    Outcome::StrategyAbort(format!("strategy picked disabled thread {t}")),
                );
                Err(Aborted)
            }
            Directive::Deadlock(w) => {
                self.abort(inner, Outcome::Deadlock(w));
                Err(Aborted)
            }
            Directive::Abort(msg) => {
                self.abort(inner, Outcome::StrategyAbort(msg));
                Err(Aborted)
            }
        }
    }

    /// Fault injection: with the configured probability, wake one thread
    /// parked in a monitor or condvar wait set without a notify (a
    /// spurious wakeup). Candidates are visited in id order so the
    /// decision stream is deterministic despite `HashMap` iteration order.
    fn inject_spurious_wakeup(&self, inner: &mut Inner) {
        if inner.g.faults.is_none() {
            return;
        }
        // `false` marks a monitor wait set, `true` a condvar wait set;
        // monitor and condvar ids never collide (distinct objects).
        let mut candidates: Vec<(ObjId, bool)> = inner
            .g
            .locks
            .iter()
            .filter(|(_, s)| !s.wait_set.is_empty())
            .map(|(&l, _)| (l, false))
            .chain(
                inner
                    .g
                    .condvars
                    .iter()
                    .filter(|(_, ws)| !ws.is_empty())
                    .map(|(&c, _)| (c, true)),
            )
            .collect();
        if candidates.is_empty() {
            return;
        }
        candidates.sort_unstable();
        let fs = inner
            .g
            .faults
            .as_mut()
            .expect("fault state present: checked at function entry");
        if !fs.fire_spurious_wakeup() {
            return;
        }
        let (target, is_condvar) = candidates[fs.pick_index(candidates.len())];
        // Waking = removing from the wait set; the thread's
        // AwaitNotify/AwaitCondNotify op becomes enabled and it proceeds
        // to re-acquire the lock (the condvar path's spurious-wakeup
        // safety then falls to the program's predicate loop).
        let woken = if is_condvar {
            inner
                .g
                .condvars
                .get_mut(&target)
                .expect("candidate condvar has a wait set: it had waiters")
                .remove(0)
        } else {
            inner
                .g
                .locks
                .get_mut(&target)
                .expect("candidate monitor has a lock state: it had waiters")
                .wait_set
                .remove(0)
        };
        self.config.obs.emit(&df_obs::TraceEvent::FaultInjected {
            step: inner.g.steps,
            kind: "spurious_wakeup".to_string(),
            thread: woken,
        });
    }

    /// Classifies a state with no enabled threads: a lock cycle is a real
    /// deadlock; anything else is a stall.
    fn diagnose_stall(&self, g: &Global, alive: Vec<ThreadId>) -> Outcome {
        let mut wf = WaitForGraph::new();
        // Holds come from the lock states themselves so shared holds get
        // their mode (the per-thread lock stack does not record modes).
        for (&l, s) in &g.locks {
            if let Some(o) = s.owner {
                wf.add_holds(o, l);
            }
            let mut readers = s.readers.clone();
            readers.sort_unstable();
            readers.dedup();
            for r in readers {
                wf.add_holds_shared(r, l);
            }
        }
        for ts in &g.threads {
            match &ts.status {
                ThreadStatus::Announced(PendingOp::Acquire { lock, mode, .. }) => match mode {
                    AcquireMode::Exclusive => wf.add_waits(ts.id, *lock),
                    AcquireMode::Shared => wf.add_waits_shared(ts.id, *lock),
                },
                ThreadStatus::Announced(PendingOp::WaitReacquire { lock, .. }) => {
                    wf.add_waits(ts.id, *lock);
                }
                _ => {}
            }
        }
        match wf.find_cycle() {
            Some(cycle) => {
                let components = cycle
                    .iter()
                    .map(|&t| {
                        let ts = g.thread(t);
                        let (lock, site, mode) = match &ts.status {
                            ThreadStatus::Announced(PendingOp::Acquire { lock, site, mode }) => {
                                (*lock, *site, *mode)
                            }
                            ThreadStatus::Announced(PendingOp::WaitReacquire {
                                lock,
                                site,
                                ..
                            }) => (*lock, *site, AcquireMode::Exclusive),
                            _ => unreachable!("cycle thread must wait on a lock"),
                        };
                        let mut context = ts.context_stack.clone();
                        context.push(site);
                        let holding = ts.lock_stack.clone();
                        let holding_modes = holding
                            .iter()
                            .map(|&l| {
                                if g.lock_state(l).and_then(|s| s.owner) == Some(t) {
                                    AcquireMode::Exclusive
                                } else {
                                    AcquireMode::Shared
                                }
                            })
                            .collect();
                        WitnessComponent {
                            thread: t,
                            thread_obj: ts.obj,
                            thread_name: Some(ts.name.clone()),
                            holding,
                            holding_modes,
                            waiting_for: lock,
                            waiting_mode: mode,
                            context,
                        }
                    })
                    .collect();
                Outcome::Deadlock(DeadlockWitness {
                    components,
                    detected_by: Detector::WaitForGraph,
                })
            }
            None => {
                // No lock cycle: if threads are parked in monitor or
                // condvar wait sets this is a communication deadlock
                // (lost signal), otherwise a plain stall (e.g. a join
                // cycle).
                let waiting: Vec<ThreadId> = g
                    .threads
                    .iter()
                    .filter(|ts| {
                        matches!(
                            &ts.status,
                            ThreadStatus::Announced(PendingOp::AwaitNotify { .. })
                                | ThreadStatus::Announced(PendingOp::AwaitCondNotify { .. })
                        )
                    })
                    .map(|ts| ts.id)
                    .collect();
                if waiting.is_empty() {
                    Outcome::Stall { stuck: alive }
                } else {
                    Outcome::CommunicationStall {
                        stuck: alive,
                        waiting,
                    }
                }
            }
        }
    }

    /// Announces `op` for `me`, releases the token, and waits until the
    /// strategy picks `me` again.
    fn announce_and_wait(
        &self,
        inner: &mut MutexGuard<'_, Inner>,
        me: ThreadId,
        op: PendingOp,
    ) -> Result<(), Aborted> {
        inner.g.thread_mut(me).status = ThreadStatus::Announced(op);
        inner.g.steps += 1;
        inner.g.progress += 1;
        if inner.g.steps > self.config.max_steps {
            self.abort(inner, Outcome::StepLimit);
            return Err(Aborted);
        }
        // We hold the token (we were running user code): give it up so the
        // strategy takes a fresh decision for this schedule point.
        debug_assert_eq!(
            inner.g.current,
            Some(me),
            "announcing thread holds the token"
        );
        self.set_current(&mut inner.g, None);
        let wake = self.reschedule(inner)?;
        self.wait_until_picked(inner, me, wake)
    }

    /// Blocks until the strategy makes `me` current, then marks it running.
    /// `wake` is the carrier of the thread the caller's own pick made
    /// current: it is unparked after the mutex is released, just before
    /// `me` waits. An abort unparks every carrier, so a pending `wake` may
    /// be dropped when the run is ending, or when the pick was `me`.
    ///
    /// `me` waits by parking, after a bounded yield loop if it was one of
    /// at most two threads the last pick could choose (see
    /// [`Controller`]). Either way it runs only once the re-check under
    /// the mutex finds it picked.
    fn wait_until_picked(
        &self,
        inner: &mut MutexGuard<'_, Inner>,
        me: ThreadId,
        mut wake: Wake,
    ) -> Result<(), Aborted> {
        loop {
            if inner.g.aborting {
                return Err(Aborted);
            }
            if inner.g.current == Some(me) {
                break;
            }
            let yield_first = inner.enabled.len() <= 2 && inner.enabled.contains(&me);
            MutexGuard::unlocked(inner, || {
                if let Some(carrier) = wake.take() {
                    carrier.unpark();
                }
                if !(yield_first && self.yield_until_picked(me)) {
                    carrier::park();
                }
            });
        }
        inner.g.thread_mut(me).status = ThreadStatus::Running;
        Ok(())
    }

    /// Yields the carrier up to [`HANDOFF_YIELDS`] times and returns
    /// whether `picked` named `me` or the abort mark after one of them.
    fn yield_until_picked(&self, me: ThreadId) -> bool {
        (0..HANDOFF_YIELDS).any(|_| {
            thread::yield_now();
            let picked = self.picked.load(Ordering::Acquire);
            picked == me.as_u32() || picked == ABORTING
        })
    }

    /// First schedule point of a thread. Unlike [`Self::op`], the thread
    /// does *not* hold the token here: it was registered as
    /// `Announced(Start)` by its spawner and may even have been picked
    /// already (carrier startup races the strategy's decision). Consume an
    /// existing pick if there is one; otherwise wait for one. Kicking the
    /// scheduler is only needed for the main thread, which starts with a
    /// free token.
    ///
    /// The start schedule point is accounted to `steps`/`progress` at
    /// *registration* (by the spawn entry points and the main-thread
    /// setup), not here: this function runs when the carrier gets to it,
    /// and bumping the counters here would let wall-clock timing shift
    /// the step numbering of an otherwise deterministic schedule.
    ///
    /// Here the thread also registers its carrier, under the mutex and
    /// before it first checks for a pick: a pick made before this point
    /// had no carrier to unpark and is found by that check.
    pub(crate) fn start_point(&self, me: ThreadId) -> Result<(), Aborted> {
        let mut inner = self.inner.lock();
        inner.g.thread_mut(me).carrier = Some(thread::current());
        let wake = if inner.g.current.is_none() && !inner.g.aborting {
            self.reschedule(&mut inner)?
        } else {
            None
        };
        self.wait_until_picked(&mut inner, me, wake)?;
        self.record(&mut inner, me, EventKind::ThreadStart);
        Ok(())
    }

    /// Executes one instrumented operation for `me`: schedule point, then
    /// the operation's semantics.
    pub(crate) fn op(&self, me: ThreadId, op: PendingOp) -> Result<OpOutcome, Aborted> {
        let mut inner = self.inner.lock();
        if inner.g.aborting {
            // The run is over (deadlock found, limits, …). Threads still
            // executing user code — e.g. guards releasing during an
            // unwind — must not touch the schedule.
            return Err(Aborted);
        }
        self.announce_and_wait(&mut inner, me, op.clone())?;
        // Fault injection: a first (non-re-entrant) acquisition may panic
        // instead of acquiring, modeling an exception thrown on entry to a
        // synchronized region. The panic unwinds the virtual thread outside
        // the controller lock and surfaces as `Outcome::ProgramPanic`.
        if let PendingOp::Acquire { lock, site, mode } = &op {
            let first = inner
                .g
                .locks
                .get(lock)
                .map(|s| match mode {
                    AcquireMode::Exclusive => s.owner != Some(me),
                    AcquireMode::Shared => !s.holds_shared(me),
                })
                .unwrap_or(true);
            if first
                && inner
                    .g
                    .faults
                    .as_mut()
                    .map(|f| f.fire_panic_on_acquire())
                    .unwrap_or(false)
            {
                let msg = format!("injected fault: panic on acquire at {site}");
                self.config.obs.emit(&df_obs::TraceEvent::FaultInjected {
                    step: inner.g.steps,
                    kind: "panic_on_acquire".to_string(),
                    thread: me,
                });
                drop(inner);
                panic::panic_any(InjectedFault(msg));
            }
        }
        self.execute(&mut inner, me, op)
    }

    fn execute(
        &self,
        inner: &mut Inner,
        me: ThreadId,
        op: PendingOp,
    ) -> Result<OpOutcome, Aborted> {
        match op {
            PendingOp::Start => {
                self.record(inner, me, EventKind::ThreadStart);
                Ok(OpOutcome::Unit)
            }
            PendingOp::Acquire { lock, site, mode } => {
                let state = inner.g.locks.entry(lock).or_default();
                match mode {
                    AcquireMode::Exclusive => {
                        if state.owner == Some(me) {
                            state.count += 1;
                            self.record(inner, me, EventKind::reacquire(lock, site));
                        } else {
                            debug_assert!(
                                state.owner.is_none() && state.readers.is_empty(),
                                "picked thread must not block"
                            );
                            state.owner = Some(me);
                            state.count = 1;
                            let ts = inner.g.thread_mut(me);
                            ts.lock_stack.push(lock);
                            ts.context_stack.push(site);
                            self.record(inner, me, EventKind::acquire(lock, site));
                            self.config.obs.counters().add_acquires_observed(1);
                        }
                    }
                    AcquireMode::Shared => {
                        debug_assert!(state.owner.is_none(), "picked thread must not block");
                        let reentrant = state.holds_shared(me);
                        state.readers.push(me);
                        if reentrant {
                            self.record(inner, me, EventKind::reacquire(lock, site));
                        } else {
                            let ts = inner.g.thread_mut(me);
                            ts.lock_stack.push(lock);
                            ts.context_stack.push(site);
                            self.record(inner, me, EventKind::acquire(lock, site).shared());
                            self.config.obs.counters().add_acquires_observed(1);
                        }
                    }
                }
                Ok(OpOutcome::Unit)
            }
            PendingOp::TryAcquire { lock, site, mode } => {
                let state = inner.g.locks.entry(lock).or_default();
                let acquired = state.can_acquire(me, mode);
                if acquired {
                    match mode {
                        AcquireMode::Exclusive => {
                            if state.owner == Some(me) {
                                state.count += 1;
                            } else {
                                state.owner = Some(me);
                                state.count = 1;
                                let ts = inner.g.thread_mut(me);
                                ts.lock_stack.push(lock);
                                ts.context_stack.push(site);
                            }
                        }
                        AcquireMode::Shared => {
                            let reentrant = state.holds_shared(me);
                            state.readers.push(me);
                            if !reentrant {
                                let ts = inner.g.thread_mut(me);
                                ts.lock_stack.push(lock);
                                ts.context_stack.push(site);
                            }
                        }
                    }
                    self.config.obs.counters().add_acquires_observed(1);
                }
                self.record(
                    inner,
                    me,
                    EventKind::try_acquire(lock, site, acquired).with_mode(mode),
                );
                Ok(OpOutcome::Acquired(acquired))
            }
            PendingOp::Release { lock, site } => {
                // A shared hold is released by retiring one reader entry;
                // the thread itself knows only "release", the mode is
                // derived from what it actually holds.
                let shared_hold = inner
                    .g
                    .locks
                    .get(&lock)
                    .map(|s| s.owner != Some(me) && s.holds_shared(me))
                    .unwrap_or(false);
                if shared_hold {
                    let state = inner
                        .g
                        .locks
                        .get_mut(&lock)
                        .expect("lock state present: shared hold was checked above");
                    let pos = state
                        .readers
                        .iter()
                        .rposition(|&r| r == me)
                        .expect("reader entry present: shared hold was checked above");
                    state.readers.remove(pos);
                    if state.readers.contains(&me) {
                        self.record(inner, me, EventKind::rerelease(lock, site));
                    } else {
                        let ts = inner.g.thread_mut(me);
                        if let Some(pos) = ts.lock_stack.iter().rposition(|&l| l == lock) {
                            ts.lock_stack.remove(pos);
                            ts.context_stack.remove(pos);
                        }
                        self.record(inner, me, EventKind::release(lock, site).shared());
                    }
                    return Ok(OpOutcome::Unit);
                }
                let state = match inner.g.locks.get_mut(&lock) {
                    Some(s) if s.owner == Some(me) => s,
                    _ => panic!("thread {me} released lock {lock} it does not hold"),
                };
                if state.count > 1 {
                    state.count -= 1;
                    self.record(inner, me, EventKind::rerelease(lock, site));
                } else if inner
                    .g
                    .faults
                    .as_mut()
                    .map(|f| f.fire_leak_release())
                    .unwrap_or(false)
                {
                    // Fault injection: the outermost release is silently
                    // dropped — the lock stays owned and the thread's lock
                    // stack keeps the hold, so later contenders block
                    // forever and the stall detector must classify it.
                    self.config.obs.emit(&df_obs::TraceEvent::FaultInjected {
                        step: inner.g.steps,
                        kind: "leak_release".to_string(),
                        thread: me,
                    });
                } else {
                    let state = inner
                        .g
                        .locks
                        .get_mut(&lock)
                        .expect("lock state present: ownership was checked above");
                    state.count = 0;
                    state.owner = None;
                    let ts = inner.g.thread_mut(me);
                    if let Some(pos) = ts.lock_stack.iter().rposition(|&l| l == lock) {
                        ts.lock_stack.remove(pos);
                        ts.context_stack.remove(pos);
                    }
                    self.record(inner, me, EventKind::release(lock, site));
                }
                Ok(OpOutcome::Unit)
            }
            PendingOp::Call { site, receiver } => {
                inner.g.thread_mut(me).enter_call(site, receiver);
                self.record(inner, me, EventKind::Call { site });
                Ok(OpOutcome::Unit)
            }
            PendingOp::Return => {
                inner.g.thread_mut(me).exit_call();
                self.record(inner, me, EventKind::Return);
                Ok(OpOutcome::Unit)
            }
            PendingOp::New { site, kind } => {
                let owner = inner.g.thread(me).current_receiver();
                let index = inner.g.thread_mut(me).alloc_index(site);
                let obj = inner.g.trace.objects_mut().create(kind, site, owner, index);
                self.record(inner, me, EventKind::New { obj });
                Ok(OpOutcome::Created(obj))
            }
            PendingOp::Join { target } => {
                self.record(inner, me, EventKind::Join { target });
                Ok(OpOutcome::Unit)
            }
            PendingOp::Yield => {
                self.record(inner, me, EventKind::Yield);
                Ok(OpOutcome::Unit)
            }
            PendingOp::Work { units } => {
                self.record(inner, me, EventKind::Work { units });
                Ok(OpOutcome::Unit)
            }
            PendingOp::WaitRelease { lock, site } => {
                let state = match inner.g.locks.get_mut(&lock) {
                    Some(s) if s.owner == Some(me) => s,
                    _ => panic!("thread {me} called wait on monitor {lock} it does not hold"),
                };
                let count = state.count;
                state.count = 0;
                state.owner = None;
                state.wait_set.push(me);
                let ts = inner.g.thread_mut(me);
                if let Some(pos) = ts.lock_stack.iter().rposition(|&l| l == lock) {
                    ts.lock_stack.remove(pos);
                    ts.context_stack.remove(pos);
                }
                self.record(inner, me, EventKind::wait(lock, site));
                Ok(OpOutcome::Count(count))
            }
            PendingOp::CondWaitRelease {
                condvar,
                lock,
                site,
            } => {
                let state = match inner.g.locks.get_mut(&lock) {
                    Some(s) if s.owner == Some(me) => s,
                    _ => panic!(
                        "thread {me} waited on condvar {condvar} without holding lock {lock}"
                    ),
                };
                let count = state.count;
                state.count = 0;
                state.owner = None;
                inner.g.condvars.entry(condvar).or_default().push(me);
                let ts = inner.g.thread_mut(me);
                if let Some(pos) = ts.lock_stack.iter().rposition(|&l| l == lock) {
                    ts.lock_stack.remove(pos);
                    ts.context_stack.remove(pos);
                }
                self.record(inner, me, EventKind::cond_wait(condvar, lock, site));
                Ok(OpOutcome::Count(count))
            }
            PendingOp::AwaitCondNotify { .. } => {
                // Enabled-ness already required the notify (or an injected
                // spurious wakeup); nothing to execute.
                Ok(OpOutcome::Unit)
            }
            PendingOp::CondNotify { condvar, site, all } => {
                // Unlike a monitor notify, the notifier need not hold the
                // associated lock (Rust `Condvar` semantics).
                let ws = inner.g.condvars.entry(condvar).or_default();
                if all {
                    ws.clear();
                } else if !ws.is_empty() {
                    ws.remove(0);
                }
                self.record(inner, me, EventKind::cond_notify(condvar, site, all));
                Ok(OpOutcome::Unit)
            }
            PendingOp::AwaitNotify { .. } => {
                // Enabled-ness already required the notify to have
                // happened; nothing to execute.
                Ok(OpOutcome::Unit)
            }
            PendingOp::WaitReacquire { lock, count, site } => {
                let state = inner.g.locks.entry(lock).or_default();
                debug_assert!(state.owner.is_none(), "picked thread must not block");
                state.owner = Some(me);
                state.count = count;
                // Reacquisition restores the monitor silently (Java wait
                // semantics); the original Acquire event already carries
                // the lock dependency. The held stack is restored with
                // the wait site as context.
                let ts = inner.g.thread_mut(me);
                ts.lock_stack.push(lock);
                ts.context_stack.push(site);
                Ok(OpOutcome::Unit)
            }
            PendingOp::Notify { lock, site, all } => {
                let state = inner.g.locks.entry(lock).or_default();
                if state.owner != Some(me) {
                    panic!("thread {me} called notify on monitor {lock} it does not hold");
                }
                if all {
                    state.wait_set.clear();
                } else if !state.wait_set.is_empty() {
                    state.wait_set.remove(0);
                }
                self.record(inner, me, EventKind::notify(lock, site, all));
                Ok(OpOutcome::Unit)
            }
            PendingOp::Spawn { .. } | PendingOp::Exit => {
                unreachable!("spawn/exit use dedicated entry points")
            }
        }
    }

    /// Spawn entry point: registers the child under the schedule point of
    /// the parent and hands it to a carrier.
    pub(crate) fn spawn<F>(
        self: &Arc<Self>,
        me: ThreadId,
        site: Label,
        name: String,
        f: F,
    ) -> Result<(ThreadId, ObjId), Aborted>
    where
        F: FnOnce(&TCtx) + Send + 'static,
    {
        let mut inner = self.inner.lock();
        if inner.g.aborting {
            return Err(Aborted);
        }
        self.announce_and_wait(&mut inner, me, PendingOp::Spawn { site })?;
        // Create the thread object (threads are objects, §2.2) in the
        // parent's allocation context.
        let owner = inner.g.thread(me).current_receiver();
        let index = inner.g.thread_mut(me).alloc_index(site);
        let child_obj = inner.g.trace.objects_mut().create_named(
            ObjKind::Thread,
            site,
            owner,
            index,
            Some(name.clone()),
        );
        let child = ThreadId::new(u32::try_from(inner.g.threads.len()).expect("thread overflow"));
        inner
            .g
            .threads
            .push(ThreadState::new(child, name, child_obj));
        inner.g.trace.bind_thread(child, child_obj);
        // Account the child's start schedule point now, while we hold the
        // parent's critical section — not when the OS gets around to
        // starting the thread (see `start_point`).
        inner.g.steps += 1;
        inner.g.progress += 1;
        self.record(&mut inner, me, EventKind::Spawn { child, child_obj });
        // The child is now Announced(Start); the strategy may pick it at
        // any later schedule point. Hand it to the carrier that will run
        // it.
        self.launch(child, f);
        // Fault injection: a program spawn may fan out one extra busy
        // thread the program never asked for (bounded by the plan's cap).
        if inner
            .g
            .faults
            .as_mut()
            .map(|f| f.fire_runaway_spawn())
            .unwrap_or(false)
        {
            self.config.obs.emit(&df_obs::TraceEvent::FaultInjected {
                step: inner.g.steps,
                kind: "runaway_spawn".to_string(),
                thread: me,
            });
            self.spawn_runaway(&mut inner, me);
        }
        Ok((child, child_obj))
    }

    /// Registers and launches one injected runaway thread: it burns a few
    /// schedule points with yields and exits, competing with program
    /// threads for the scheduler's attention.
    fn spawn_runaway(self: &Arc<Self>, inner: &mut Inner, parent: ThreadId) {
        let site = Label::new("<fault:runaway-spawn>");
        let n = inner.g.fault_log().runaway_spawns;
        let name = format!("fault-runaway-{n}");
        let child_obj = inner.g.trace.objects_mut().create_named(
            ObjKind::Thread,
            site,
            None,
            Vec::new(),
            Some(name.clone()),
        );
        let child = ThreadId::new(u32::try_from(inner.g.threads.len()).expect("thread overflow"));
        inner
            .g
            .threads
            .push(ThreadState::new(child, name, child_obj));
        inner.g.trace.bind_thread(child, child_obj);
        inner.g.steps += 1;
        inner.g.progress += 1;
        self.record(inner, parent, EventKind::Spawn { child, child_obj });
        self.launch(child, |ctx: &TCtx| {
            for _ in 0..16 {
                ctx.yield_now();
            }
        });
    }

    /// Runs virtual thread `me` on a carrier, counted in the run's tally.
    pub(crate) fn launch<F>(self: &Arc<Self>, me: ThreadId, f: F)
    where
        F: FnOnce(&TCtx) + Send + 'static,
    {
        let ctl = Arc::clone(self);
        carrier::launch(&self.tally, move || ctl.thread_main(me, f));
    }

    /// Body of every virtual thread, run on its carrier.
    fn thread_main<F>(self: Arc<Self>, me: ThreadId, f: F)
    where
        F: FnOnce(&TCtx),
    {
        let ctx = TCtx::new(Arc::clone(&self), me);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            // First schedule point: wait to be picked before running any
            // program code.
            if self.start_point(me).is_err() {
                return;
            }
            f(&ctx);
        }));
        match result {
            Ok(()) => {}
            Err(payload) => {
                if payload.downcast_ref::<AbortToken>().is_none() {
                    let injected = payload.downcast_ref::<InjectedFault>();
                    let msg = injected
                        .map(|f| f.0.clone())
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "opaque panic payload".to_string());
                    let mut inner = self.inner.lock();
                    if injected.is_none() {
                        // Every carrier is named `df-carrier`, so the panic
                        // hook's report cannot say which virtual thread
                        // panicked; this line does.
                        let name = &inner.g.thread(me).name;
                        eprintln!("virtual thread {me} ({name:?}) panicked: {msg}");
                    }
                    self.abort(&mut inner, Outcome::ProgramPanic(msg));
                }
            }
        }
        self.thread_exit(me);
    }

    /// Marks `me` finished and hands the token onward, waking the picked
    /// thread after the mutex is released. The carrier is unregistered: it
    /// goes back to the pool and may carry another run's thread next.
    fn thread_exit(&self, me: ThreadId) {
        let mut inner = self.inner.lock();
        if !matches!(inner.g.thread(me).status, ThreadStatus::Finished) {
            self.record(&mut inner, me, EventKind::ThreadExit);
            inner.g.thread_mut(me).status = ThreadStatus::Finished;
            inner.g.progress += 1;
        }
        inner.g.thread_mut(me).carrier = None;
        if inner.g.current == Some(me) {
            self.set_current(&mut inner.g, None);
        }
        let wake = if inner.g.aborting {
            None
        } else {
            self.reschedule(&mut inner).ok().flatten()
        };
        drop(inner);
        if let Some(carrier) = wake {
            carrier.unpark();
        }
    }
}
