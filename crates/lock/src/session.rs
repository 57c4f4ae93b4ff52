//! Phase II over native threads: the fuzz and noise policies a
//! [`crate::Tracker`] can run under, their watchdog, and the outcome
//! classification.
//!
//! Under [`Policy::Fuzz`] every blocking acquisition first runs the
//! membership test of Algorithm 3: when `(abs(t), abs(l), C)` matches a
//! component of the target cycle, `checkRealDeadlock` (Algorithm 4) runs
//! over the held locks plus the blocked and paused intents, and the
//! thread either reports the witness or *pauses* — parks on the session's
//! condvar with its intent registered as a wait edge. A watchdog thread
//! stands in for the virtual runtime's schedule points: it un-pauses a
//! thread paused longer than the pause timeout (the §5 monitor), thrashes
//! (un-pauses a random paused thread) when every live thread is blocked
//! or paused, and aborts the run when the event stream stops moving or
//! the deadline passes.
//!
//! An abort — a witness or the watchdog — unwinds program threads instead
//! of leaving the process deadlocked: the detecting thread unwinds at
//! once, paused and condvar-parked threads are woken to unwind, and every
//! later acquire-side operation unwinds. Unwinding threads drop their
//! guards, which frees the threads natively blocked behind them.
//! [`crate::Tracker::finish`] then classifies the run.

use std::collections::HashMap;
use std::panic;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use df_abstraction::{Abstraction, AbstractionMode, Abstractor};
use df_events::{Label, ObjId, ThreadId};
use df_igoodlock::AbstractCycle;
use df_runtime::{DeadlockWitness, Detector};
use parking_lot::{Condvar, MutexGuard};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::tracker::{self, Access, State, TrackerInner};

/// A Phase II policy: what a [`crate::Tracker`] does with the blocking
/// acquisitions it intercepts, beyond recording them and running the
/// online detector (all a tracker without a policy does).
#[derive(Clone, Debug)]
pub enum Policy {
    /// Phase II: bias the schedule toward a target cycle.
    Fuzz(FuzzConfig),
    /// ConTest-style noise injection (the paper's §6 related work):
    /// random short sleeps before acquisitions, hoping to shake a
    /// deadlock loose. Unlike the active scheduler it "cannot pause a
    /// thread as long as required", so it serves as the baseline the
    /// paper argues against.
    Noise(NoiseConfig),
}

/// Configuration of the noise-injection baseline.
#[derive(Clone, Debug)]
pub struct NoiseConfig {
    /// RNG seed.
    pub seed: u64,
    /// Probability of injecting a sleep before an acquisition.
    pub probability: f64,
    /// Maximum injected sleep.
    pub max_sleep: Duration,
    /// Abort the run after this long without progress (a noise run
    /// that deadlocks for real must still terminate).
    pub hang_timeout: Duration,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            seed: 0,
            probability: 0.3,
            max_sleep: Duration::from_millis(8),
            hang_timeout: Duration::from_secs(2),
        }
    }
}

impl NoiseConfig {
    /// Checks the knobs for nonsense, returning the reason a tracker
    /// must not be started with them. Rejecting an out-of-range
    /// probability up front keeps a typo'd `1.3` from quietly running as
    /// `1.0`.
    pub fn validate(&self) -> Result<(), String> {
        if !self.probability.is_finite() || !(0.0..=1.0).contains(&self.probability) {
            return Err(format!(
                "noise probability must be within [0, 1], got {}",
                self.probability
            ));
        }
        if self.max_sleep.is_zero() {
            return Err("noise max_sleep must be positive".to_string());
        }
        if self.hang_timeout.is_zero() {
            return Err("noise hang_timeout must be positive".to_string());
        }
        Ok(())
    }
}

/// Phase II configuration for native threads.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// The target cycle (from a recorded run's iGoodlock report).
    pub cycle: AbstractCycle,
    /// Abstraction mode the cycle was abstracted with.
    pub mode: AbstractionMode,
    /// RNG seed for thrash victim selection.
    pub seed: u64,
    /// Honor acquisition contexts in the membership test.
    pub use_context: bool,
    /// §5 monitor: un-pause a thread paused longer than this.
    pub pause_timeout: Duration,
    /// Abort the whole run after this long without progress.
    pub hang_timeout: Duration,
    /// Hard wall-clock deadline for the whole run, measured from tracker
    /// creation and enforced even while the program makes steady
    /// progress (unlike `hang_timeout`, which only fires when progress
    /// stops). `None` (the default) means unbounded. Exceeding it unwinds
    /// the program threads and [`crate::Tracker::finish`] reports
    /// [`FuzzOutcome::DeadlineExceeded`].
    pub deadline: Option<Duration>,
}

impl FuzzConfig {
    /// Default knobs for a target cycle (exec-indexing abstraction,
    /// contexts honored).
    pub fn new(cycle: AbstractCycle) -> Self {
        FuzzConfig {
            cycle,
            mode: AbstractionMode::default(),
            seed: 0,
            use_context: true,
            pause_timeout: Duration::from_millis(500),
            hang_timeout: Duration::from_secs(5),
            deadline: None,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the abstraction mode.
    pub fn with_mode(mut self, mode: AbstractionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the hard run deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Terminal outcome of a tracker run, from [`crate::Tracker::finish`].
#[derive(Clone, Debug, PartialEq)]
pub enum FuzzOutcome {
    /// Program finished without creating the deadlock.
    Completed,
    /// A real deadlock was created and witnessed; the program's threads
    /// were unwound instead of leaving the process stuck.
    Deadlock(DeadlockWitness),
    /// The watchdog aborted the run (no progress).
    Timeout,
    /// The run's hard wall-clock deadline ([`FuzzConfig::deadline`])
    /// elapsed while the program was still making progress.
    DeadlineExceeded,
    /// A tracked thread panicked for a reason other than the run's
    /// abort — a bug in the program under test, not a deadlock. Carries
    /// the panic message.
    ProgramPanic(String),
}

impl FuzzOutcome {
    /// The witness, if a deadlock was created.
    pub fn deadlock(&self) -> Option<&DeadlockWitness> {
        match self {
            FuzzOutcome::Deadlock(w) => Some(w),
            _ => None,
        }
    }

    /// Whether the run ended without a verdict about the target cycle
    /// (timed out, hit the deadline, or the program broke) — the caller
    /// may want to retry with a different seed.
    pub fn is_degraded(&self) -> bool {
        matches!(
            self,
            FuzzOutcome::Timeout | FuzzOutcome::DeadlineExceeded | FuzzOutcome::ProgramPanic(_)
        )
    }
}

/// Phase II statistics of a tracker run, from [`crate::Tracker::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FuzzStats {
    /// Acquisitions paused because they matched the target cycle.
    pub pauses: u64,
    /// Paused threads released because every live thread was stuck.
    pub thrashes: u64,
    /// Paused threads released by the §5 pause-timeout monitor.
    pub monitor_releases: u64,
}

/// Panic payload that unwinds program threads when a run aborts.
struct Abort;

/// Unwinds the calling thread with the abort payload.
pub(crate) fn unwind() -> ! {
    panic::panic_any(Abort)
}

/// The fixed half of a Phase II run; the mutable half
/// ([`SessionState`]) lives in the tracker's state, under its lock.
pub(crate) struct Session {
    policy: Policy,
    /// Set, under the state lock, once the run aborts.
    aborting: AtomicBool,
    /// Paused threads park here.
    cond: Condvar,
    /// Tracker creation: the anchor of the deadline.
    created: Instant,
}

impl Session {
    /// # Panics
    ///
    /// Panics if a noise policy fails [`NoiseConfig::validate`].
    pub(crate) fn new(policy: Policy, created: Instant) -> Session {
        if let Policy::Noise(cfg) = &policy {
            if let Err(reason) = cfg.validate() {
                panic!("invalid NoiseConfig: {reason}");
            }
        }
        Session {
            policy,
            aborting: AtomicBool::new(false),
            cond: Condvar::new(),
            created,
        }
    }

    /// The seed of the session's RNG.
    pub(crate) fn seed(&self) -> u64 {
        match &self.policy {
            Policy::Fuzz(cfg) => cfg.seed,
            Policy::Noise(cfg) => cfg.seed,
        }
    }

    /// Whether the run has aborted.
    pub(crate) fn aborting(&self) -> bool {
        self.aborting.load(Ordering::SeqCst)
    }
}

/// Mutable Phase II bookkeeping, kept in the tracker's state so the
/// watchdog, the gate and the detector see one consistent snapshot.
pub(crate) struct SessionState {
    rng: ChaCha8Rng,
    /// Paused threads and when they paused.
    paused_since: HashMap<ThreadId, Instant>,
    /// Native condvars tracked threads are parked on, so an abort can
    /// wake them.
    pub(crate) parked: HashMap<ThreadId, Arc<std::sync::Condvar>>,
    witness: Option<DeadlockWitness>,
    program_panic: Option<String>,
    timed_out: bool,
    deadline_hit: bool,
    /// `finish` ran: the watchdog stops.
    finished: bool,
    pub(crate) stats: FuzzStats,
}

impl SessionState {
    pub(crate) fn seeded(seed: u64) -> Self {
        SessionState {
            rng: ChaCha8Rng::seed_from_u64(seed),
            paused_since: HashMap::new(),
            parked: HashMap::new(),
            witness: None,
            program_panic: None,
            timed_out: false,
            deadline_hit: false,
            finished: false,
            stats: FuzzStats::default(),
        }
    }

    /// Records a tracked thread's panic unless it is the abort unwinding.
    pub(crate) fn note_panic(&mut self, payload: &(dyn std::any::Any + Send)) {
        if payload.downcast_ref::<Abort>().is_none() && self.program_panic.is_none() {
            self.program_panic = Some(panic_message(payload));
        }
    }

    /// Classifies the run and stops the watchdog.
    ///
    /// Precedence: a witnessed deadlock beats everything (it is the
    /// verdict Phase II exists to produce), then a program panic, then
    /// the deadline, then the progress watchdog.
    pub(crate) fn finish(&mut self) -> FuzzOutcome {
        self.finished = true;
        match self.witness.take() {
            Some(w) => FuzzOutcome::Deadlock(w),
            None => match self.program_panic.take() {
                Some(m) => FuzzOutcome::ProgramPanic(m),
                None if self.deadline_hit => FuzzOutcome::DeadlineExceeded,
                None if self.timed_out => FuzzOutcome::Timeout,
                None => FuzzOutcome::Completed,
            },
        }
    }
}

impl Default for SessionState {
    fn default() -> Self {
        SessionState::seeded(0)
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "program thread panicked".to_string())
}

/// The gate before a blocking acquisition of `lock` at `site`: a noise
/// sleep, or the fuzzer's match → `checkRealDeadlock` → pause.
pub(crate) fn gate(
    inner: &Arc<TrackerInner>,
    session: &Session,
    lock: ObjId,
    site: Label,
    access: Access,
) {
    match &session.policy {
        Policy::Noise(cfg) => {
            let sleep = noise_sleep(&mut inner.state.lock().session.rng, cfg);
            if let Some(d) = sleep {
                std::thread::sleep(d);
            }
        }
        Policy::Fuzz(cfg) => {
            let me = tracker::current_thread(inner);
            pause_if_targeted(inner, session, cfg, me, lock, site, access);
        }
    }
}

/// Algorithm 3 at one acquisition: if it matches a target component,
/// check for a real deadlock and either report it or pause until the
/// watchdog releases this thread or the run aborts.
fn pause_if_targeted(
    inner: &TrackerInner,
    session: &Session,
    cfg: &FuzzConfig,
    me: ThreadId,
    lock: ObjId,
    site: Label,
    access: Access,
) {
    tracker::unwind_if_aborting(inner);
    let mut st = inner.state.lock();
    let ts = st
        .threads
        .get_mut(&me)
        .expect("acquiring thread is registered");
    // A thread the monitor or a thrash released takes its pending
    // acquisition unpaused.
    if std::mem::take(&mut ts.released) {
        return;
    }
    let Some(lock_abs) = target_lock(cfg, &st, me, lock, site) else {
        return;
    };
    // checkRealDeadlock before pausing (Algorithm 3 line 11): the intent
    // is registered as a wait edge, so the detector sees it — and so do
    // other threads' checks for as long as this thread stays paused.
    st.waits.insert(me, (lock, site, access));
    let verdict = tracker::detect(&mut st, me, Detector::Strategy);
    if inner.obs.traces() {
        inner.obs.emit(&df_obs::TraceEvent::CheckRealDeadlock {
            step: st.event_seq,
            verdict: verdict.is_some(),
            cycle_len: verdict.as_ref().map_or(0, |w| w.components.len()),
        });
    }
    if let Some(witness) = verdict {
        abort_with(session, st, me, witness);
    }
    if inner.obs.traces() {
        inner.obs.emit(&df_obs::TraceEvent::Pause {
            step: st.event_seq,
            thread: me,
            name: st.threads[&me].name.clone(),
            lock: lock_abs.to_string(),
            site: site.to_string(),
        });
    }
    st.session.paused_since.insert(me, Instant::now());
    st.session.stats.pauses += 1;
    inner.obs.counters().add_threads_paused(1);
    while st.session.paused_since.contains_key(&me) && !session.aborting() {
        session.cond.wait(&mut st);
    }
    st.waits.remove(&me);
    if session.aborting() {
        st.session.paused_since.remove(&me);
        drop(st);
        unwind();
    }
}

/// The lock's abstraction when acquiring `lock` at `site` is a
/// component of the target cycle — the membership test
/// `(abs(t), abs(l), C) ∈ Cycle` of Algorithm 3.
fn target_lock(
    cfg: &FuzzConfig,
    st: &State,
    me: ThreadId,
    lock: ObjId,
    site: Label,
) -> Option<Abstraction> {
    let abstractor = Abstractor::new(cfg.mode);
    let ts = &st.threads[&me];
    let thread_abs = abstractor.abs(st.trace.objects(), ts.obj);
    let lock_abs = abstractor.abs(st.trace.objects(), lock);
    let matched = if cfg.use_context {
        let mut context = ts.context_stack.clone();
        context.push(site);
        cfg.cycle
            .find_component(&thread_abs, &lock_abs, &context)
            .is_some()
    } else {
        cfg.cycle
            .components()
            .iter()
            .any(|c| c.thread == thread_abs && c.lock == lock_abs)
    };
    matched.then_some(lock_abs)
}

/// Records `witness` as the run's verdict, aborts the run, and unwinds
/// the detecting thread `me`.
pub(crate) fn abort_with(
    session: &Session,
    mut st: MutexGuard<'_, State>,
    me: ThreadId,
    witness: DeadlockWitness,
) -> ! {
    st.waits.remove(&me);
    st.session.witness.get_or_insert(witness);
    abort(session, &st);
    drop(st);
    unwind()
}

/// Marks the run aborted and wakes every thread the tracker parked:
/// paused threads and condvar waiters. Runs under the state lock.
fn abort(session: &Session, st: &State) {
    session.aborting.store(true, Ordering::SeqCst);
    session.cond.notify_all();
    wake_parked(st);
}

fn wake_parked(st: &State) {
    for cv in st.session.parked.values() {
        cv.notify_all();
    }
}

/// Un-pauses `t`, exempting its pending acquisition from pausing again.
fn release(session: &Session, st: &mut State, t: ThreadId) {
    st.session.paused_since.remove(&t);
    if let Some(ts) = st.threads.get_mut(&t) {
        ts.released = true;
    }
    session.cond.notify_all();
}

fn thread_name(st: &State, t: ThreadId) -> String {
    st.threads
        .get(&t)
        .map_or_else(String::new, |ts| ts.name.clone())
}

/// Starts the watchdog: thrashing and the §5 monitor in real time
/// instead of schedule points. If every live thread is blocked or
/// paused, it un-pauses a random one; if a thread has been paused too
/// long, it releases it; if the event stream does not move for the hang
/// timeout, or the deadline passes, it aborts the run.
pub(crate) fn start_watchdog(inner: &Arc<TrackerInner>, session: &Session) {
    let (pause_timeout, hang_timeout, deadline) = match &session.policy {
        Policy::Fuzz(cfg) => (cfg.pause_timeout, cfg.hang_timeout, cfg.deadline),
        Policy::Noise(cfg) => (cfg.hang_timeout, cfg.hang_timeout, None),
    };
    // Adaptive backoff: pause timeouts and thrash detection need the
    // fine 5ms resolution, but only while some thread is actually
    // paused; otherwise the hang/deadline checks tolerate a coarser
    // poll, keeping the watchdog off the scheduler's back.
    let fine = Duration::from_millis(5);
    let coarse = (hang_timeout / 10).clamp(fine, Duration::from_millis(50));
    // The deadline is anchored to tracker creation, not to whenever the
    // watchdog thread happens to get scheduled: a slow spawn under load
    // must not silently extend the run's budget.
    let created = session.created;
    let weak = Arc::downgrade(inner);
    std::thread::Builder::new()
        .name("df-watchdog".into())
        .spawn(move || {
            let mut last_progress = 0u64;
            let mut last_change = Instant::now();
            let mut poll = fine;
            loop {
                std::thread::sleep(poll);
                let Some(inner) = weak.upgrade() else { return };
                let Some(session) = &inner.session else {
                    return;
                };
                let mut st = inner.state.lock();
                if st.session.finished {
                    return;
                }
                if session.aborting() {
                    // A waiter that registered just before the abort may
                    // park after its wake-up went out; repeat the wake-up
                    // until every such waiter has left.
                    if st.session.parked.is_empty() {
                        return;
                    }
                    wake_parked(&st);
                    continue;
                }
                if deadline.is_some_and(|d| created.elapsed() > d) {
                    st.session.deadline_hit = true;
                    abort(session, &st);
                    continue;
                }
                if st.event_seq != last_progress {
                    last_progress = st.event_seq;
                    last_change = Instant::now();
                } else if last_change.elapsed() > hang_timeout {
                    st.session.timed_out = true;
                    abort(session, &st);
                    continue;
                }
                release_expired(&inner, session, &mut st, pause_timeout);
                thrash_if_stuck(&inner, session, &mut st);
                poll = if st.session.paused_since.is_empty() {
                    coarse
                } else {
                    fine
                };
            }
        })
        .expect("failed to spawn watchdog");
}

/// §5 monitor: releases every thread paused longer than `pause_timeout`.
fn release_expired(
    inner: &TrackerInner,
    session: &Session,
    st: &mut State,
    pause_timeout: Duration,
) {
    let mut expired: Vec<ThreadId> = st
        .session
        .paused_since
        .iter()
        .filter(|&(_, at)| at.elapsed() > pause_timeout)
        .map(|(&t, _)| t)
        .collect();
    expired.sort();
    for t in expired {
        release(session, st, t);
        st.session.stats.monitor_releases += 1;
        if inner.obs.traces() {
            inner.obs.emit(&df_obs::TraceEvent::Unpause {
                step: st.event_seq,
                thread: t,
                name: thread_name(st, t),
            });
        }
    }
}

/// Thrashing: when every live thread is blocked or paused, releases a
/// random paused one.
fn thrash_if_stuck(inner: &TrackerInner, session: &Session, st: &mut State) {
    if st.session.paused_since.is_empty() {
        return;
    }
    let all_stuck = st
        .threads
        .iter()
        .filter(|(_, ts)| !ts.exited)
        .all(|(t, _)| st.waits.contains_key(t));
    if !all_stuck {
        return;
    }
    let mut paused: Vec<ThreadId> = st.session.paused_since.keys().copied().collect();
    paused.sort();
    let victim = paused[st.session.rng.gen_range(0..paused.len())];
    release(session, st, victim);
    st.session.stats.thrashes += 1;
    inner.obs.counters().add_thrash_events(1);
    if inner.obs.traces() {
        inner.obs.emit(&df_obs::TraceEvent::Thrash {
            step: st.event_seq,
            thread: victim,
            name: thread_name(st, victim),
        });
    }
}

/// Samples the noise injector's pre-acquisition sleep: `None` when the
/// probability coin says no noise, otherwise a duration uniform over the
/// full `0..=max_sleep` range at microsecond resolution, so
/// sub-millisecond budgets still sleep and the maximum itself is drawn.
fn noise_sleep(rng: &mut ChaCha8Rng, cfg: &NoiseConfig) -> Option<Duration> {
    if !rng.gen_bool(cfg.probability) {
        return None;
    }
    let max_us = cfg.max_sleep.as_micros().min(u64::MAX as u128) as u64;
    Some(Duration::from_micros(rng.gen_range(0..=max_us)))
}

/// Keeps the abort unwinding off stderr: only genuine panics reach the
/// previously installed hook.
pub(crate) fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Abort>().is_none() {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TrackedMutex, Tracker, TrackerConfig};
    use df_events::{EventKind, Trace};

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn noise_sleep_covers_the_full_range_at_microsecond_resolution() {
        let cfg = NoiseConfig {
            probability: 1.0,
            max_sleep: Duration::from_micros(2_500),
            ..NoiseConfig::default()
        };
        let mut r = rng(7);
        let samples: Vec<Duration> = (0..4_000)
            .map(|_| noise_sleep(&mut r, &cfg).expect("probability 1.0 always sleeps"))
            .collect();
        let max = samples.iter().max().expect("non-empty");
        assert!(samples.iter().all(|d| *d <= cfg.max_sleep));
        // The old sampler truncated to whole milliseconds with an
        // exclusive bound: every draw was quantized and the top of the
        // range unreachable. At microsecond resolution the empirical max
        // must get close to the budget...
        assert!(
            *max > cfg.max_sleep.mul_f64(0.9),
            "max sample {max:?} never approaches the {:?} budget",
            cfg.max_sleep
        );
        // ...and draws must not all sit on millisecond boundaries.
        assert!(
            samples.iter().any(|d| d.subsec_micros() % 1_000 != 0),
            "samples are still millisecond-quantized"
        );
    }

    #[test]
    fn noise_sleep_honors_sub_millisecond_budgets() {
        // A 300µs budget used to collapse to `gen_range(0..1ms) = 0`:
        // the baseline silently never slept.
        let cfg = NoiseConfig {
            probability: 1.0,
            max_sleep: Duration::from_micros(300),
            ..NoiseConfig::default()
        };
        let mut r = rng(11);
        let samples: Vec<Duration> = (0..500)
            .map(|_| noise_sleep(&mut r, &cfg).expect("always sleeps"))
            .collect();
        assert!(samples.iter().all(|d| *d <= cfg.max_sleep));
        assert!(samples.iter().any(|d| !d.is_zero()));
    }

    #[test]
    fn noise_sleep_upper_bound_is_inclusive() {
        let cfg = NoiseConfig {
            probability: 1.0,
            max_sleep: Duration::from_micros(3),
            ..NoiseConfig::default()
        };
        let mut r = rng(13);
        let hit_max =
            (0..200).any(|_| noise_sleep(&mut r, &cfg).expect("always sleeps") == cfg.max_sleep);
        assert!(hit_max, "the configured maximum is never drawn");
    }

    #[test]
    fn noise_sleep_probability_zero_never_sleeps() {
        let cfg = NoiseConfig {
            probability: 0.0,
            ..NoiseConfig::default()
        };
        let mut r = rng(17);
        assert!((0..100).all(|_| noise_sleep(&mut r, &cfg).is_none()));
    }

    #[test]
    fn noise_config_validation_rejects_nonsense() {
        let bad_probability = NoiseConfig {
            probability: 1.3,
            ..NoiseConfig::default()
        };
        assert!(bad_probability.validate().is_err());
        let nan = NoiseConfig {
            probability: f64::NAN,
            ..NoiseConfig::default()
        };
        assert!(nan.validate().is_err());
        let zero_sleep = NoiseConfig {
            max_sleep: Duration::ZERO,
            ..NoiseConfig::default()
        };
        assert!(zero_sleep.validate().is_err());
        let zero_watchdog = NoiseConfig {
            hang_timeout: Duration::ZERO,
            ..NoiseConfig::default()
        };
        assert!(zero_watchdog.validate().is_err());
        assert!(NoiseConfig::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid NoiseConfig")]
    fn noise_session_refuses_an_invalid_config() {
        let _ = Tracker::new(
            TrackerConfig::default().with_policy(Policy::Noise(NoiseConfig {
                probability: 2.0,
                ..NoiseConfig::default()
            })),
        );
    }

    #[test]
    fn deadline_is_anchored_to_session_creation_not_watchdog_spawn() {
        // Backdate the tracker: from its point of view its 1s deadline
        // expired long ago, even though the watchdog thread is brand new.
        // The regression measured the deadline from watchdog spawn and
        // would report `Completed` here.
        let created = Instant::now()
            .checked_sub(Duration::from_secs(2))
            .expect("system uptime exceeds two seconds");
        let cfg = FuzzConfig::new(AbstractCycle::new(vec![])).with_deadline(Duration::from_secs(1));
        let tracker = Tracker::build(
            TrackerConfig::default().with_policy(Policy::Fuzz(cfg)),
            created,
        );
        std::thread::sleep(Duration::from_millis(400));
        assert_eq!(tracker.finish(), FuzzOutcome::DeadlineExceeded);
    }

    #[derive(Default)]
    struct CapturingSink {
        events: Vec<df_events::Event>,
        bindings: Vec<(ThreadId, ObjId)>,
        finished: bool,
    }

    impl df_events::EventSink for CapturingSink {
        fn on_event(&mut self, event: &df_events::Event) {
            self.events.push(event.clone());
        }

        fn on_thread_bound(&mut self, thread: ThreadId, obj: ObjId) {
            self.bindings.push((thread, obj));
        }

        fn on_finish(&mut self, _trace: &Trace) {
            self.finished = true;
        }
    }

    fn capturing_handle() -> (Arc<std::sync::Mutex<CapturingSink>>, df_events::SinkHandle) {
        let cap = Arc::new(std::sync::Mutex::new(CapturingSink::default()));
        let handle = df_events::SinkHandle::single(cap.clone());
        (cap, handle)
    }

    /// A deterministic single-threaded locking program (no interleaving
    /// nondeterminism, so two trackers running it produce identical
    /// traces).
    fn run_locking_program(tracker: &Tracker) {
        let a = TrackedMutex::with_tracker(tracker, 0u8);
        let b = TrackedMutex::with_tracker(tracker, 0u8);
        let ga = a.lock().expect("fresh lock");
        let gb = b.lock().expect("fresh lock");
        drop(gb);
        drop(ga);
    }

    #[test]
    fn sink_observes_the_exact_recorded_stream() {
        let (cap, handle) = capturing_handle();
        let obs = df_obs::Obs::default();
        let tracker = Tracker::new(
            TrackerConfig::default()
                .with_sink(handle)
                .with_obs(obs.clone())
                .with_record_events(true),
        );
        run_locking_program(&tracker);
        tracker.seal();
        let trace = tracker.trace();
        let cap = cap.lock().expect("sink mutex");
        assert!(!trace.events().is_empty());
        assert_eq!(cap.events.as_slice(), trace.events());
        assert!(cap.finished);
        for (thread, obj) in trace.thread_objs() {
            assert!(cap.bindings.contains(&(thread, obj)));
        }
        let snap = obs.counters().snapshot();
        assert_eq!(snap.events_streamed, trace.events().len() as u64);
        assert_eq!(snap.peak_trace_bytes, trace.approx_event_bytes());
        assert!(snap.peak_trace_bytes > 0);
    }

    /// A `Write` target the test can read back after the spill sink
    /// (which owns its writer) is done with it.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("buffer mutex").extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Regression for the sink-poisoning hazard: a sink whose callback
    /// panics mid-trial poisons its own `std::sync::Mutex`, but the
    /// fan-out handle recovers the guard — so a [`df_events::SpillSink`]
    /// sharing the handle still receives the rest of the stream and the
    /// end-of-run seal, and the panicking trial leaves an *analyzable*
    /// trace behind instead of a truncated one.
    #[test]
    fn panicking_sink_trial_still_seals_an_analyzable_spill() {
        /// Panics on the first `Release` it sees, once.
        #[derive(Default)]
        struct ExplodingSink {
            exploded: bool,
        }
        impl df_events::EventSink for ExplodingSink {
            fn on_event(&mut self, event: &df_events::Event) {
                if !self.exploded && matches!(event.kind, EventKind::Release { .. }) {
                    self.exploded = true;
                    panic!("sink exploded on first release");
                }
            }
        }

        let buf = SharedBuf::default();
        let spill = Arc::new(std::sync::Mutex::new(
            df_events::SpillSink::new(buf.clone()).expect("start spill"),
        ));
        let exploder: Arc<std::sync::Mutex<dyn df_events::EventSink>> =
            Arc::new(std::sync::Mutex::new(ExplodingSink::default()));
        // Spill first: it must see each event before the exploder gets
        // a chance to panic the emitting thread.
        let handle = df_events::SinkHandle::single(spill.clone()).with(exploder);

        let tracker = Tracker::new(TrackerConfig::default().with_sink(handle));
        let trial = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_locking_program(&tracker);
        }));
        assert!(trial.is_err(), "the exploding sink panicked the trial");

        tracker.seal();
        let (events, _bytes) = spill
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .close()
            .expect("panicking trial still seals the spill");
        assert!(events > 0);

        let bytes = buf.0.lock().expect("buffer mutex").clone();
        let trace = df_events::read_trace(std::io::BufReader::new(bytes.as_slice()))
            .expect("sealed spill parses as a df-trace artifact");
        assert_eq!(trace.events().len() as u64, events);
        // Both releases made it out: the one that blew up the sink and
        // the one emitted while unwinding the outer guard.
        let releases = trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Release { .. }))
            .count();
        assert_eq!(releases, 2);
    }

    /// The ring-buffered binary spill path survives the same panicking
    /// trial: encoded frames cross the SPSC ring to the writer thread,
    /// the seal frame lands after the panic, and the binary artifact
    /// decodes to the same events a synchronous JSONL spill would have
    /// captured.
    #[test]
    fn panicking_trial_seals_a_ring_buffered_binary_spill() {
        let buf = SharedBuf::default();
        let config =
            df_events::SpillConfig::with_format(df_events::TraceFormat::Binary).with_ring(128);
        let (config, spill) = TrackerConfig::default()
            .with_spill(buf.clone(), &config)
            .expect("start spill");
        let tracker = Tracker::new(config);
        let trial = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_locking_program(&tracker);
            panic!("trial dies after the program ran");
        }));
        assert!(trial.is_err());

        tracker.seal();
        let (events, bytes_written) = spill
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .close()
            .expect("panicking trial still seals the ring spill");
        assert!(events > 0);

        let bytes = buf.0.lock().expect("buffer mutex").clone();
        assert_eq!(bytes.len() as u64, bytes_written);
        assert!(bytes.starts_with(&df_events::TRACE_BINARY_MAGIC));
        let trace = df_events::read_trace_bytes(&bytes)
            .expect("sealed ring spill parses as a df-trace binary artifact");
        assert_eq!(trace.events().len() as u64, events);
        assert!(trace.thread_objs().count() > 0, "bindings survive the seal");
    }

    #[test]
    fn streaming_session_sees_the_same_events_at_zero_peak() {
        let (recorded_cap, recorded_handle) = capturing_handle();
        let recorded = Tracker::new(
            TrackerConfig::default()
                .with_sink(recorded_handle)
                .with_record_events(true),
        );
        run_locking_program(&recorded);
        recorded.seal();
        drop(recorded);

        let (cap, handle) = capturing_handle();
        let obs = df_obs::Obs::default();
        let tracker = Tracker::new(
            TrackerConfig::default()
                .with_sink(handle)
                .with_obs(obs.clone()),
        );
        run_locking_program(&tracker);
        tracker.seal();
        assert!(
            tracker.trace().events().is_empty(),
            "a streaming tracker must not materialize the event vector"
        );
        let cap = cap.lock().expect("sink mutex");
        let recorded_cap = recorded_cap.lock().expect("sink mutex");
        assert_eq!(cap.events, recorded_cap.events);
        let snap = obs.counters().snapshot();
        assert_eq!(snap.events_streamed, cap.events.len() as u64);
        assert_eq!(snap.peak_trace_bytes, 0);
    }
}
