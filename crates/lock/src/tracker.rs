//! The tracker: the shared registry behind the drop-in lock types.
//!
//! Every [`crate::TrackedMutex`] / [`crate::TrackedRwLock`] created
//! under a tracker reports its lifecycle here. The tracker assigns
//! [`ThreadId`]s to native threads (lazily, on first contact), emits the
//! same event stream the virtual runtime would — `New`, `Acquire` with
//! held-set and context, `Release`, `Blocked`/`Unblocked`, spawn and
//! exit events — into the attached [`SinkHandle`], and maintains the
//! live holds/waits registry the online wait-for-graph detector walks.
//! Under a Phase II [`Policy`] the same registry carries the paused
//! intents (see [`crate::session`]).
//!
//! ## Why detection cannot miss and cannot lie
//!
//! All bookkeeping happens under one internal mutex, and the protocol
//! orders updates around the native lock operations:
//!
//! * ownership is recorded *before* a thread's next wait edge is
//!   registered (program order), and every thread of a forming cycle
//!   registers its wait edge before parking — so the last thread to
//!   register sees the complete cycle and reports it;
//! * ownership is cleared *before* the native unlock and the wait edge
//!   of a contended acquire is cleared (with ownership recorded) in the
//!   same critical section after the native lock is obtained — so the
//!   registry never claims a hold that has been given up, and a stale
//!   wait edge always points at a lock whose registry holder entry is
//!   already cleared. False cycles cannot form.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use df_events::{
    AcquireMode, Event, EventKind, IndexFrame, Label, ObjId, ObjKind, ObjectTable, SinkHandle,
    ThreadId, Trace,
};
use df_obs::Obs;
use df_runtime::{DeadlockWitness, Detector, WaitForGraph, WitnessComponent};
use parking_lot::{Mutex, MutexGuard};

use crate::handler::{DeadlockHandler, LIVE_DEADLOCK_EXIT_CODE};
use crate::session::{self, FuzzOutcome, FuzzStats, Policy, Session, SessionState};
use crate::tls;

/// Configuration of a [`Tracker`], built with `with_*` chaining.
#[derive(Debug, Default)]
pub struct TrackerConfig {
    /// Policy invoked when the online detector closes a cycle. Under a
    /// fuzz or noise [`Policy`] a cycle aborts the run instead, and
    /// [`Tracker::finish`] reports it.
    pub handler: DeadlockHandler,
    /// Streaming observers of the emitted event stream (a spill writer,
    /// a relation builder, …). Sinks run on program threads and must
    /// not acquire tracked locks.
    pub sink: SinkHandle,
    /// Observability handle for the `wfg_*`/`lock_timeouts`/
    /// `poisoned_recovered` counters, the Phase II pause/thrash counters
    /// and the scheduler-decision trace.
    pub obs: Obs,
    /// Also materialize the event vector in memory (the trace handed to
    /// sinks on [`Tracker::seal`] then carries events, not just the
    /// object table). Off by default: streaming sinks don't need it.
    pub record_events: bool,
    /// Phase II: steer toward a target cycle or inject noise. `None`
    /// (the default) only observes.
    pub policy: Option<Policy>,
}

impl TrackerConfig {
    /// Sets the deadlock handler.
    pub fn with_handler(mut self, handler: DeadlockHandler) -> Self {
        self.handler = handler;
        self
    }

    /// Attaches the streaming sinks.
    pub fn with_sink(mut self, sink: SinkHandle) -> Self {
        self.sink = sink;
        self
    }

    /// Uses `obs` for counters.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Also records the in-memory event trace.
    pub fn with_record_events(mut self, record: bool) -> Self {
        self.record_events = record;
        self
    }

    /// Sets the Phase II policy.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Attaches a spill sink writing to `out` with the given
    /// [`df_events::SpillConfig`] (format + optional ring buffering) and
    /// returns both the updated config and a handle to the sink, which
    /// the caller must [`df_events::AnySpillSink::close`] after
    /// [`Tracker::seal`] to harvest the event/byte counts.
    ///
    /// # Errors
    ///
    /// Returns the [`df_events::SpillError`] of writing the artifact
    /// preamble.
    #[allow(clippy::type_complexity)]
    pub fn with_spill<W: std::io::Write + Send + 'static>(
        mut self,
        out: W,
        config: &df_events::SpillConfig,
    ) -> Result<(Self, Arc<std::sync::Mutex<df_events::AnySpillSink<W>>>), df_events::SpillError>
    {
        let sink = Arc::new(std::sync::Mutex::new(df_events::AnySpillSink::new(
            out, config,
        )?));
        self.sink = self.sink.with(sink.clone());
        Ok((self, sink))
    }
}

/// Which threads hold a lock right now. Absent from the registry means
/// the lock is free.
#[derive(Debug)]
enum Holders {
    /// Exclusive: a mutex owner or an rwlock writer.
    Writer(ThreadId),
    /// Shared: rwlock readers, possibly several, possibly repeated.
    Readers(Vec<ThreadId>),
}

#[derive(Debug)]
pub(crate) struct ThreadState {
    pub(crate) obj: ObjId,
    pub(crate) name: String,
    /// Locks held, outermost first (repeats on re-entrant tries).
    lock_stack: Vec<ObjId>,
    /// Acquisition sites parallel to `lock_stack`.
    pub(crate) context_stack: Vec<Label>,
    /// Per-site allocation counts for execution-index object metadata.
    alloc_counts: HashMap<Label, u32>,
    /// Released by the Phase II watchdog: the next acquisition is not
    /// paused again.
    pub(crate) released: bool,
    /// The thread's body returned or unwound.
    pub(crate) exited: bool,
}

#[derive(Default)]
pub(crate) struct State {
    /// Object table + thread bindings (+ events when `record_events`).
    pub(crate) trace: Trace,
    /// Sequence number of the next event; also the progress clock of the
    /// Phase II watchdog.
    pub(crate) event_seq: u64,
    next_thread: u32,
    pub(crate) threads: HashMap<ThreadId, ThreadState>,
    locks: HashMap<ObjId, Holders>,
    /// Blocked contended acquires, condvar waiters' pending reacquires
    /// and paused Phase II intents: thread → (awaited lock, site, mode).
    pub(crate) waits: HashMap<ThreadId, (ObjId, Label, AcquireMode)>,
    /// Sorted lock sets (held ∪ awaited across the cycle) of deadlocks
    /// already reported, so a persisting deadlock is not re-reported by
    /// every thread that bumps into it.
    reported: HashSet<Vec<ObjId>>,
    /// The `held` and `context` buffers of the last `Acquire` event,
    /// taken back after delivery so the next one allocates nothing.
    acquire_scratch: (Vec<ObjId>, Vec<Label>),
    sealed: bool,
    pub(crate) session: SessionState,
}

/// Shared guts of a [`Tracker`]; lock types hold an `Arc` to this.
pub struct TrackerInner {
    pub(crate) state: Mutex<State>,
    sink: SinkHandle,
    pub(crate) obs: Obs,
    handler: DeadlockHandler,
    record_events: bool,
    /// The Phase II session, when a fuzz or noise policy is set.
    pub(crate) session: Option<Session>,
}

/// Exclusive (write) or shared (read) acquisition, for the registry.
/// The registry speaks the same mode vocabulary as the event stream.
pub(crate) type Access = AcquireMode;

/// Tracks native threads and locks, detects deadlocks online.
///
/// Cheap to clone (an `Arc`); every tracked object created through a
/// clone shares the same registry, event stream and detector.
#[derive(Clone)]
pub struct Tracker {
    inner: Arc<TrackerInner>,
}

static GLOBAL: OnceLock<Tracker> = OnceLock::new();

impl Default for Tracker {
    fn default() -> Self {
        Tracker::new(TrackerConfig::default())
    }
}

impl Tracker {
    /// Creates a tracker with `config`. A fuzz or noise policy also
    /// starts the Phase II watchdog thread.
    ///
    /// # Panics
    ///
    /// Panics if a noise policy fails [`crate::NoiseConfig::validate`] —
    /// check first when the knobs come from user input.
    pub fn new(config: TrackerConfig) -> Self {
        Tracker::build(config, Instant::now())
    }

    /// [`Tracker::new`] with the creation instant — the deadline's
    /// anchor — given explicitly.
    pub(crate) fn build(config: TrackerConfig, created: Instant) -> Self {
        let session = config.policy.map(|policy| Session::new(policy, created));
        let state = State {
            session: SessionState::seeded(session.as_ref().map_or(0, Session::seed)),
            ..State::default()
        };
        let inner = Arc::new(TrackerInner {
            state: Mutex::new(state),
            sink: config.sink,
            obs: config.obs,
            handler: config.handler,
            record_events: config.record_events,
            session,
        });
        if let Some(session) = &inner.session {
            session::install_quiet_hook();
            session::start_watchdog(&inner, session);
        }
        Tracker { inner }
    }

    /// Installs `config` as the process-wide tracker used by
    /// [`crate::TrackedMutex::new`] and friends, and returns it.
    ///
    /// # Panics
    ///
    /// Panics if a global tracker already exists (a default one is
    /// created lazily by the first drop-in constructor — install before
    /// creating tracked objects).
    pub fn install(config: TrackerConfig) -> &'static Tracker {
        if GLOBAL.set(Tracker::new(config)).is_err() {
            panic!("a global df-lock tracker is already installed");
        }
        GLOBAL.get().expect("just installed")
    }

    /// The process-wide tracker (installing a default-configured one —
    /// log-only handler, no sinks — on first use).
    pub fn global() -> &'static Tracker {
        GLOBAL.get_or_init(Tracker::default)
    }

    /// The observability handle counters are reported through.
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Seals the run: records the trace high-water mark and delivers
    /// `on_finish` (with the object table and thread bindings) to every
    /// sink, so an attached [`df_events::SpillSink`] writes its footer
    /// and the artifact becomes analyzable. Idempotent; also invoked by
    /// the [`DeadlockHandler::SealAndExit`] handler before exiting.
    pub fn seal(&self) {
        seal(&self.inner);
    }

    /// A copy of the trace so far: the object table and thread bindings,
    /// plus the events when [`TrackerConfig::record_events`] is set —
    /// the input of Phase I.
    pub fn trace(&self) -> Trace {
        self.inner.state.lock().trace.clone()
    }

    /// Classifies the run and stops the Phase II watchdog. Call after
    /// joining all program threads.
    ///
    /// Precedence: a witnessed deadlock beats everything (it is the
    /// verdict Phase II exists to produce), then a program panic, then
    /// the deadline, then the progress watchdog. Only a fuzz or noise
    /// policy turns cycles into witnesses here; without one they go to
    /// the handler.
    pub fn finish(&self) -> FuzzOutcome {
        self.inner.state.lock().session.finish()
    }

    /// Phase II statistics so far: pauses, thrashes, monitor releases.
    pub fn stats(&self) -> FuzzStats {
        self.inner.state.lock().session.stats
    }

    /// Spawns a tracked thread under this tracker. See
    /// [`crate::TrackedThread::spawn`] for the drop-in variant.
    #[track_caller]
    pub fn spawn<F, T>(&self, name: &str, f: F) -> crate::thread::TrackedJoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        crate::thread::spawn_impl(&self.inner, name.to_string(), df_events::caller_site(), f)
    }

    pub(crate) fn inner(&self) -> &Arc<TrackerInner> {
        &self.inner
    }
}

impl std::fmt::Debug for Tracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("Tracker")
            .field("threads", &st.threads.len())
            .field("locks_held", &st.locks.len())
            .field("sealed", &st.sealed)
            .finish()
    }
}

/// Assigns the next sequence number and delivers one event, handing it
/// back so the caller can reuse its buffers (the recorded trace, when
/// kept, owns a copy).
fn emit(inner: &TrackerInner, st: &mut State, thread: ThreadId, kind: EventKind) -> Event {
    let seq = st.event_seq;
    st.event_seq += 1;
    let event = Event::new(seq, thread, kind);
    if inner.record_events {
        let s = st.trace.push(event.thread, event.kind.clone());
        debug_assert_eq!(s, seq, "recorded trace stays in sequence order");
    }
    if inner.sink.is_attached() {
        inner.sink.emit(&event);
        inner.obs.counters().add_events_streamed(1);
    }
    event
}

/// The execution-index frame of an allocation: the allocating statement
/// with its per-thread occurrence count, which is what the `absI_k`
/// abstraction of analyzed spills keys on.
fn alloc_index(st: &mut State, by: ThreadId, site: Label) -> Vec<IndexFrame> {
    let counts = match st.threads.get_mut(&by) {
        Some(ts) => &mut ts.alloc_counts,
        None => return vec![IndexFrame::new(site, 1)],
    };
    let q = counts.entry(site).or_insert(0);
    *q += 1;
    vec![IndexFrame::new(site, *q)]
}

/// Registers a thread: assigns an id, creates its thread object, binds
/// it in the trace and announces the binding to sinks (always before
/// any event of the thread can be emitted).
pub(crate) fn register_thread(
    inner: &Arc<TrackerInner>,
    name: String,
    site: Label,
    spawner: Option<ThreadId>,
) -> ThreadId {
    let (id, obj) = {
        let mut st = inner.state.lock();
        let id = ThreadId::new(st.next_thread);
        st.next_thread += 1;
        let index = match spawner {
            Some(parent) => alloc_index(&mut st, parent, site),
            None => vec![IndexFrame::new(site, 1)],
        };
        let obj = st.trace.objects_mut().create_named(
            ObjKind::Thread,
            site,
            None,
            index,
            Some(name.clone()),
        );
        st.trace.bind_thread(id, obj);
        st.threads.insert(
            id,
            ThreadState {
                obj,
                name,
                lock_stack: Vec::new(),
                context_stack: Vec::new(),
                alloc_counts: HashMap::new(),
                released: false,
                exited: false,
            },
        );
        if let Some(parent) = spawner {
            emit(
                inner,
                &mut st,
                parent,
                EventKind::Spawn {
                    child: id,
                    child_obj: obj,
                },
            );
        }
        (id, obj)
    };
    inner.sink.thread_bound(id, obj);
    id
}

/// The calling thread's id under `inner`, auto-registering it (with its
/// OS thread name, when set) on first contact — this is what makes the
/// lock types drop-in for threads the tracker did not spawn.
pub(crate) fn current_thread(inner: &Arc<TrackerInner>) -> ThreadId {
    if let Some(id) = tls::lookup(inner) {
        return id;
    }
    let name = std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| "<unnamed>".to_string());
    let id = register_thread(inner, name, Label::new("<native thread>"), None);
    tls::bind(inner, id);
    id
}

/// Registers a lock object at its allocation site and emits `New`.
pub(crate) fn register_lock(inner: &Arc<TrackerInner>, site: Label) -> ObjId {
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    let index = alloc_index(&mut st, me, site);
    let obj = st
        .trace
        .objects_mut()
        .create(ObjKind::Lock, site, None, index);
    emit(inner, &mut st, me, EventKind::New { obj });
    obj
}

/// Registers a condition variable object (an [`ObjKind::Plain`] object,
/// like the virtual runtime's condvars) at its allocation site and
/// emits `New`.
pub(crate) fn register_condvar(inner: &Arc<TrackerInner>, site: Label) -> ObjId {
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    let index = alloc_index(&mut st, me, site);
    let obj = st
        .trace
        .objects_mut()
        .create(ObjKind::Plain, site, None, index);
    emit(inner, &mut st, me, EventKind::New { obj });
    obj
}

/// Unwinds the calling thread if its tracker's Phase II run aborted.
/// Only acquire-side operations call this; release paths never panic.
pub(crate) fn unwind_if_aborting(inner: &TrackerInner) {
    if inner.session.as_ref().is_some_and(Session::aborting) {
        session::unwind();
    }
}

/// The Phase II gate before a blocking acquisition (`lock`, `read`,
/// `write` and the `*_for` variants): a no-op unless a fuzz or noise
/// policy is set.
pub(crate) fn gate(inner: &Arc<TrackerInner>, lock: ObjId, site: Label, access: Access) {
    if let Some(session) = &inner.session {
        session::gate(inner, session, lock, site, access);
    }
}

/// Records ownership and the held stack for a completed acquisition and
/// emits its event — `Reacquire` when the thread already holds the
/// lock, otherwise `event(held, held sites)` over the stacks as they
/// were before this acquisition — and returns the emitted event. Must be
/// called with the native lock already held.
fn record_acquire(
    inner: &TrackerInner,
    st: &mut State,
    me: ThreadId,
    lock: ObjId,
    site: Label,
    access: Access,
    event: impl FnOnce(&[ObjId], &[Label]) -> EventKind,
) -> Event {
    match access {
        Access::Exclusive => {
            st.locks.insert(lock, Holders::Writer(me));
        }
        Access::Shared => match st
            .locks
            .entry(lock)
            .or_insert_with(|| Holders::Readers(vec![]))
        {
            Holders::Readers(rs) => rs.push(me),
            // A writer entry here would mean std handed out a read
            // guard while a write guard exists; keep the stronger claim.
            Holders::Writer(_) => {}
        },
    }
    let ts = st
        .threads
        .get_mut(&me)
        .expect("acquiring thread registered");
    let re_entrant = ts.lock_stack.contains(&lock);
    let kind = if re_entrant {
        EventKind::reacquire(lock, site)
    } else {
        event(&ts.lock_stack, &ts.context_stack)
    };
    ts.lock_stack.push(lock);
    ts.context_stack.push(site);
    let emitted = emit(inner, st, me, kind);
    if !re_entrant {
        inner.obs.counters().add_acquires_observed(1);
    }
    emitted
}

/// `record_acquire` for a blocking acquisition: the `Acquire` event
/// carries the held set and the context ending at `site`, built in the
/// state's scratch buffers and taken back once delivered.
fn record_blocking_acquire(
    inner: &TrackerInner,
    st: &mut State,
    me: ThreadId,
    lock: ObjId,
    site: Label,
    access: Access,
) {
    let (mut held, mut context) = std::mem::take(&mut st.acquire_scratch);
    let emitted = record_acquire(inner, st, me, lock, site, access, |held_now, sites| {
        held.clear();
        held.extend_from_slice(held_now);
        context.clear();
        context.extend_from_slice(sites);
        context.push(site);
        EventKind::acquire(lock, site, held, context).with_mode(access)
    });
    // A `Reacquire` never called the closure; its buffers dropped with it.
    if let EventKind::Acquire { held, context, .. } = emitted.kind {
        st.acquire_scratch = (held, context);
    }
}

/// Bookkeeping for a non-blocking `try_*` attempt. A successful try
/// joins the registry and the held stack exactly like an acquisition,
/// but the stream records it as `TryAcquire { acquired: true }` — a try
/// never blocks, so Phase I must not treat it as a blockable edge. A
/// failed try leaves all state untouched and records
/// `TryAcquire { acquired: false }`.
pub(crate) fn try_acquired(
    inner: &Arc<TrackerInner>,
    lock: ObjId,
    site: Label,
    access: Access,
    acquired: bool,
) {
    unwind_if_aborting(inner);
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    if acquired {
        record_acquire(inner, &mut st, me, lock, site, access, |_, _| {
            EventKind::try_acquire(lock, site, true).with_mode(access)
        });
    } else {
        emit(
            inner,
            &mut st,
            me,
            EventKind::try_acquire(lock, site, false).with_mode(access),
        );
    }
}

/// Bookkeeping for an acquisition that succeeded without blocking.
pub(crate) fn acquired_uncontended(
    inner: &Arc<TrackerInner>,
    lock: ObjId,
    site: Label,
    access: Access,
) {
    unwind_if_aborting(inner);
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    record_blocking_acquire(inner, &mut st, me, lock, site, access);
}

/// Registers the wait edge of a contended acquisition *before* the
/// caller parks on the native lock, and runs cycle detection from the
/// blocking thread. This is the detector's entry point for blocked
/// threads: a cycle exists exactly when its last wait edge is
/// registered, and that registration happens here or at a Phase II
/// pause, under the registry lock.
pub(crate) fn begin_wait(inner: &Arc<TrackerInner>, lock: ObjId, site: Label, access: Access) {
    unwind_if_aborting(inner);
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    st.waits.insert(me, (lock, site, access));
    inner.obs.counters().add_wfg_edges(1);
    emit(
        inner,
        &mut st,
        me,
        EventKind::blocked(lock).with_mode(access),
    );
    if let Some(witness) = detect(&mut st, me, Detector::WaitForGraph) {
        report(inner, st, me, witness);
    }
}

/// The blocked acquisition of `lock` succeeded: clears the wait edge,
/// emits `Unblocked`, records ownership.
pub(crate) fn acquired_contended(
    inner: &Arc<TrackerInner>,
    lock: ObjId,
    site: Label,
    access: Access,
) {
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    st.waits.remove(&me);
    unwind_if_aborting(inner);
    emit(inner, &mut st, me, EventKind::unblocked(lock));
    record_blocking_acquire(inner, &mut st, me, lock, site, access);
}

/// A timed acquisition gave up: clears the wait edge and counts the
/// timeout. No `Unblocked` is emitted — that event means "acquired".
pub(crate) fn wait_timed_out(inner: &Arc<TrackerInner>, _lock: ObjId) {
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    st.waits.remove(&me);
    inner.obs.counters().add_lock_timeouts(1);
}

/// Release bookkeeping, called by guard drops *before* the native
/// unlock so the registry never claims a hold the thread gave up.
/// Emitted even during a panic unwind, which keeps the relation
/// balanced after poisoning.
pub(crate) fn release(inner: &Arc<TrackerInner>, lock: ObjId, site: Label) {
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    // The guard doesn't know its own mode; the registry does — a
    // read-guard drop finds this thread among the lock's readers.
    let mut mode = Access::Exclusive;
    match st.locks.get_mut(&lock) {
        Some(Holders::Writer(t)) if *t == me => {
            st.locks.remove(&lock);
        }
        Some(Holders::Readers(rs)) => {
            mode = Access::Shared;
            if let Some(pos) = rs.iter().rposition(|&t| t == me) {
                rs.remove(pos);
            }
            if rs.is_empty() {
                st.locks.remove(&lock);
            }
        }
        _ => {}
    }
    let ts = st
        .threads
        .get_mut(&me)
        .expect("releasing thread registered");
    if let Some(pos) = ts.lock_stack.iter().rposition(|&l| l == lock) {
        ts.lock_stack.remove(pos);
        ts.context_stack.remove(pos);
    }
    let still_held = ts.lock_stack.contains(&lock);
    if still_held {
        emit(inner, &mut st, me, EventKind::rerelease(lock, site));
    } else {
        emit(
            inner,
            &mut st,
            me,
            EventKind::release(lock, site).with_mode(mode),
        );
    }
}

/// The release half of a condvar wait, run *before* the native
/// `Condvar::wait` parks (which atomically gives the lock up): clears
/// this thread's write hold, emits the `CondWait` communication event,
/// and registers the eventual-reacquire wait edge — a parked waiter is
/// one notify away from blocking on the lock, so cycles running through
/// it are real deadlocks and must be visible to other threads'
/// detection passes. The waiter itself cannot close a cycle here: the
/// lock it waits for was held by nobody else a moment ago.
///
/// Under a Phase II policy the native condvar `cv` is registered so an
/// abort can wake the waiter; a wait that would start after the abort
/// unwinds here instead, with the caller's guard still live.
pub(crate) fn cond_wait_begin(
    inner: &Arc<TrackerInner>,
    cv: &Arc<std::sync::Condvar>,
    condvar: ObjId,
    lock: ObjId,
    site: Label,
) {
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    // Checked under the registry lock, where aborts happen: a waiter
    // registered before the abort is woken by it, and none registers
    // after.
    unwind_if_aborting(inner);
    if matches!(st.locks.get(&lock), Some(Holders::Writer(t)) if *t == me) {
        st.locks.remove(&lock);
    }
    let ts = st.threads.get_mut(&me).expect("waiting thread registered");
    if let Some(pos) = ts.lock_stack.iter().rposition(|&l| l == lock) {
        ts.lock_stack.remove(pos);
        ts.context_stack.remove(pos);
    }
    emit(
        inner,
        &mut st,
        me,
        EventKind::cond_wait(condvar, lock, site),
    );
    st.waits.insert(me, (lock, site, Access::Exclusive));
    inner.obs.counters().add_wfg_edges(1);
    if inner.session.is_some() {
        st.session.parked.insert(me, Arc::clone(cv));
    }
}

/// The reacquire half of a condvar wait, run after the native wait
/// returned with the lock re-held: clears the wait edge and restores
/// ownership *silently* — matching the virtual runtime, where the
/// original `Acquire` already carries the lock dependency and the
/// reacquisition emits nothing.
pub(crate) fn cond_wait_end(inner: &Arc<TrackerInner>, lock: ObjId, site: Label) {
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    st.waits.remove(&me);
    st.session.parked.remove(&me);
    st.locks.insert(lock, Holders::Writer(me));
    let ts = st.threads.get_mut(&me).expect("waiting thread registered");
    ts.lock_stack.push(lock);
    ts.context_stack.push(site);
}

/// Emits the `CondNotify` communication event. Rust `Condvar` semantics:
/// the notifier need not hold any lock.
pub(crate) fn cond_notify(inner: &Arc<TrackerInner>, condvar: ObjId, site: Label, all: bool) {
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    emit(
        inner,
        &mut st,
        me,
        EventKind::cond_notify(condvar, site, all),
    );
}

/// Counts a poisoned-lock recovery (`PoisonError::into_inner`).
pub(crate) fn note_poison_recovered(inner: &Arc<TrackerInner>) {
    inner.obs.counters().add_poisoned_recovered(1);
}

/// Emits `ThreadStart` for a freshly spawned tracked thread.
pub(crate) fn thread_started(inner: &Arc<TrackerInner>, id: ThreadId) {
    let mut st = inner.state.lock();
    emit(inner, &mut st, id, EventKind::ThreadStart);
}

/// Records a tracked thread's panic for [`Tracker::finish`] (the abort
/// unwinding is not a program panic).
pub(crate) fn thread_panicked(inner: &Arc<TrackerInner>, payload: &(dyn std::any::Any + Send)) {
    inner.state.lock().session.note_panic(payload);
}

/// Marks the thread exited and emits `ThreadExit`; runs from a drop
/// guard so it fires even when the thread body panicked.
pub(crate) fn thread_exited(inner: &Arc<TrackerInner>, id: ThreadId) {
    let mut st = inner.state.lock();
    if let Some(ts) = st.threads.get_mut(&id) {
        ts.exited = true;
    }
    emit(inner, &mut st, id, EventKind::ThreadExit);
}

/// Emits `Join` after a tracked join completes.
pub(crate) fn thread_joined(inner: &Arc<TrackerInner>, joiner: ThreadId, target: ThreadId) {
    let mut st = inner.state.lock();
    emit(inner, &mut st, joiner, EventKind::Join { target });
}

/// Whether `me`'s registered wait is on its own conflicting hold — a
/// one-thread deadlock, since std locks are not re-entrant. (The
/// [`WaitForGraph`] leaves self-edges to its caller.)
fn waits_on_itself(st: &State, me: ThreadId) -> bool {
    let Some(&(lock, _, mode)) = st.waits.get(&me) else {
        return false;
    };
    match st.locks.get(&lock) {
        Some(Holders::Writer(t)) => *t == me,
        Some(Holders::Readers(rs)) => mode.is_exclusive() && rs.contains(&me),
        None => false,
    }
}

/// The registry as a wait-for graph: every hold and every registered
/// wait (blocked, condvar-parked or paused).
fn wait_for_graph(st: &State) -> WaitForGraph {
    let mut g = WaitForGraph::new();
    for (&lock, holders) in &st.locks {
        match holders {
            Holders::Writer(t) => g.add_holds(*t, lock),
            Holders::Readers(rs) => {
                for &t in rs {
                    g.add_holds_shared(t, lock);
                }
            }
        }
    }
    for (&t, &(lock, _, mode)) in &st.waits {
        match mode {
            Access::Exclusive => g.add_waits(t, lock),
            Access::Shared => g.add_waits_shared(t, lock),
        }
    }
    g
}

/// Looks for a cycle through `me`'s registered wait edge; on a new one
/// builds the witness under the registry lock, so the snapshot is
/// consistent. Serves both the contended-acquire check and the Phase II
/// pause-point check (`checkRealDeadlock`), told apart by `detected_by`.
pub(crate) fn detect(
    st: &mut State,
    me: ThreadId,
    detected_by: Detector,
) -> Option<DeadlockWitness> {
    let cycle = if waits_on_itself(st, me) {
        vec![me]
    } else {
        wait_for_graph(st).find_cycle_from(me)?
    };

    // Dedup on the deadlock's full lock set — held ∪ awaited across the
    // cycle's threads. Keying on awaited locks alone reports a
    // reader-heavy cycle once per reader: each reader that bumps into
    // the same stuck writer closes a cycle with a different awaited
    // set, but the union of locks involved is identical.
    let mut key: Vec<ObjId> = cycle
        .iter()
        .flat_map(|t| {
            st.threads[t]
                .lock_stack
                .iter()
                .copied()
                .chain(std::iter::once(
                    st.waits.get(t).expect("cycle thread waits").0,
                ))
        })
        .collect();
    key.sort();
    key.dedup();
    if !st.reported.insert(key) {
        return None;
    }

    let components: Vec<WitnessComponent> = cycle
        .iter()
        .map(|t| {
            let ts = &st.threads[t];
            let &(waiting_for, site, waiting_mode) = st.waits.get(t).expect("cycle thread waits");
            let mut context = ts.context_stack.clone();
            context.push(site);
            let holding = ts.lock_stack.clone();
            let holding_modes = holding
                .iter()
                .map(|l| match st.locks.get(l) {
                    Some(Holders::Writer(w)) if w == t => Access::Exclusive,
                    _ => Access::Shared,
                })
                .collect();
            WitnessComponent {
                thread: *t,
                thread_obj: ts.obj,
                thread_name: Some(ts.name.clone()),
                holding,
                holding_modes,
                waiting_for,
                waiting_mode,
                context,
            }
        })
        .collect();
    Some(DeadlockWitness {
        components,
        detected_by,
    })
}

/// Delivers a witness found at a contended acquire by `me`. Under a
/// Phase II session it aborts the run and unwinds `me`; otherwise the
/// handler fires, after the registry lock is dropped so a SealAndExit
/// (which seals sinks) or a callback cannot deadlock against other
/// program threads touching the tracker.
fn report(
    inner: &Arc<TrackerInner>,
    st: MutexGuard<'_, State>,
    me: ThreadId,
    witness: DeadlockWitness,
) {
    inner.obs.counters().add_wfg_cycles_detected(1);
    if let Some(session) = &inner.session {
        session::abort_with(session, st, me, witness);
    }
    let rendered = render_report(&witness, st.trace.objects());
    drop(st);
    dispatch(inner, &witness, &rendered);
}

/// Names a lock by id and allocation site, e.g.
/// `o5 (allocated at examples/native_deadlock.rs:31:37)`.
fn lock_name(objects: &ObjectTable, id: ObjId) -> String {
    match objects.try_get(id) {
        Some(meta) => format!("{id} (allocated at {})", meta.site),
        None => id.to_string(),
    }
}

/// The human-readable witness report: names every thread, the locks it
/// holds (with allocation sites) and the blocked acquisition site —
/// enough to line the live cycle up against `dfz analyze` output.
fn render_report(witness: &DeadlockWitness, objects: &ObjectTable) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "df-lock: real deadlock among {} thread(s) (detected by {}):",
        witness.len(),
        witness.detected_by
    );
    for c in &witness.components {
        let name = c.thread_name.as_deref().unwrap_or("?");
        let holding = if c.holding.is_empty() {
            "nothing".to_string()
        } else {
            c.holding
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    let read = c
                        .holding_modes
                        .get(i)
                        .map(|m| m.is_shared())
                        .unwrap_or(false);
                    if read {
                        format!("{} (read)", lock_name(objects, l))
                    } else {
                        lock_name(objects, l)
                    }
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        let blocked_at = c.context.last().map(|s| s.to_string()).unwrap_or_default();
        let want = if c.waiting_mode.is_shared() {
            "read of "
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  thread {} '{}' holds {holding}, blocked acquiring {want}{} at {blocked_at}",
            c.thread,
            name,
            lock_name(objects, c.waiting_for),
        );
    }
    out
}

/// Invokes the configured handler with a finished witness.
fn dispatch(inner: &Arc<TrackerInner>, witness: &DeadlockWitness, rendered: &str) {
    match &inner.handler {
        DeadlockHandler::Log => eprint!("{rendered}"),
        DeadlockHandler::SealAndExit => {
            eprint!("{rendered}");
            eprintln!("df-lock: sealing spill and exiting with code {LIVE_DEADLOCK_EXIT_CODE}");
            seal(inner);
            std::process::exit(LIVE_DEADLOCK_EXIT_CODE);
        }
        DeadlockHandler::Callback(f) => f(witness),
    }
}

/// Seals the run (idempotent): peak-trace-bytes high-water mark, then
/// `on_finish` to every sink with the trace skeleton.
pub(crate) fn seal(inner: &Arc<TrackerInner>) {
    let st = {
        let mut st = inner.state.lock();
        if st.sealed {
            return;
        }
        st.sealed = true;
        inner
            .obs
            .counters()
            .record_peak_trace_bytes(st.trace.approx_event_bytes());
        st
    };
    inner.sink.finish(&st.trace);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn o(i: u32) -> ObjId {
        ObjId::new(i)
    }

    /// Thread t1 holds o1 (as `held`) and waits for it again in `mode`.
    fn relocking(held: Holders, mode: AcquireMode) -> State {
        let mut st = State::default();
        st.threads.insert(
            t(1),
            ThreadState {
                obj: o(0),
                name: "t1".to_string(),
                lock_stack: vec![o(1)],
                context_stack: vec![Label::new("lock")],
                alloc_counts: HashMap::new(),
                released: false,
                exited: false,
            },
        );
        st.locks.insert(o(1), held);
        st.waits.insert(t(1), (o(1), Label::new("relock"), mode));
        st
    }

    #[test]
    fn self_loop_is_a_one_thread_cycle() {
        // Non-re-entrant std lock: blocking on a lock you hold is a
        // real single-thread deadlock, unlike the virtual runtime.
        let mut st = relocking(Holders::Writer(t(1)), AcquireMode::Exclusive);
        let w = detect(&mut st, t(1), Detector::WaitForGraph).expect("self-wait");
        assert_eq!(w.len(), 1);
        assert_eq!(w.components[0].holding, vec![o(1)]);
        assert_eq!(w.components[0].waiting_for, o(1));
    }

    #[test]
    fn upgrade_self_loop_is_a_one_thread_cycle() {
        // A thread write-waiting on a lock it read-holds: the classic
        // std::sync::RwLock upgrade deadlock.
        let mut st = relocking(Holders::Readers(vec![t(2), t(1)]), AcquireMode::Exclusive);
        let w = detect(&mut st, t(1), Detector::WaitForGraph).expect("upgrade self-wait");
        assert_eq!(w.len(), 1);
        assert_eq!(w.components[0].holding_modes, vec![AcquireMode::Shared]);
        // A shared re-read next to other readers is not a self-wait.
        let st = relocking(Holders::Readers(vec![t(2), t(1)]), AcquireMode::Shared);
        assert!(!waits_on_itself(&st, t(1)));
    }
}
