//! The tracker: the shared registry behind the drop-in lock types.
//!
//! Every [`crate::TrackedMutex`] / [`crate::TrackedRwLock`] created
//! under a tracker reports its lifecycle here. The tracker assigns
//! [`ThreadId`]s to native threads (lazily, on first contact), emits the
//! same event stream the virtual runtime would — `New`, `Acquire`,
//! `Release`, `Blocked`/`Unblocked`, spawn and exit events — into the
//! attached [`SinkHandle`], and maintains the live holds and waits the
//! online wait-for-graph detector walks. Under a Phase II [`Policy`]
//! the registry also carries the paused intents (see
//! [`crate::session`]).
//!
//! ## Where the bookkeeping lives
//!
//! * Each tracked thread owns a [`ThreadSlot`] behind a mutex of its own:
//!   the locks it holds, as `(lock, site, mode)`, its Lamport clock, its
//!   uncounted acquisitions and its events not yet handed out. No
//!   per-lock holder map exists; a lock's holders are the threads whose
//!   slots list it.
//! * An event is stamped one past its thread's clock; no counter is
//!   shared. Each tracked lock keeps a stamp beside its native lock
//!   ([`LockObj`]). An acquisition, after the native acquire, first
//!   moves the clock up to the lock's stamp; a release, before the native
//!   unlock, raises the lock's stamp with `fetch_max`, so all of an
//!   rwlock's readers come before its next writer. A condvar wait does
//!   both. A spawned thread starts from its `Spawn` stamp, a joiner
//!   continues from the joined thread's clock.
//! * A hand-out ([`Delivery`]) reads the largest clock of the live slots,
//!   its cut, then, one slot at a time, raises the slot's clock to the
//!   cut and takes its events stamped up to it. So no later event is
//!   stamped at or below one handed out, and every event a taken one
//!   depends on is stamped below it and taken too. It orders the run by
//!   (stamp, thread), numbers it gaplessly and calls the sinks once, off
//!   the native locks. The stream
//!   keeps each thread's, each lock's and the fork/join order; unrelated
//!   events come in causal, not real-time, order. A release hands out
//!   once its slot holds a full run ([`DELIVERY_RUN`] events); a flush
//!   (before a thread blocks, at a tracked thread's exit, at
//!   registration, at [`Tracker::trace`] and at the seal) always does.
//!   Acquisitions reach `acquires_observed` at hand-outs. A slot leaves
//!   the hand-outs once its OS thread has ended and it is empty.
//! * A blocking acquisition retries the native `try_*` up to
//!   [`SPIN_TRIES`] times before it registers a wait edge (see
//!   [`spin`]), so a brief overlap costs neither the registry nor a
//!   flush.
//! * The registry mutex ([`State`]) guards the rest: registration, wait
//!   edges, condvar waits, the Phase II session and the seal.
//!
//! An uncontended acquire, a release and a `try_*` take only their own
//! slot and, off the native lock and once a run is due, the delivery
//! section. Lock order: registry → delivery → slots in thread-id order,
//! with sinks called under the delivery section; no one holds two slots
//! at once, and nothing while it takes the delivery section.
//!
//! ## Why detection cannot miss and cannot lie
//!
//! 1. A slot changes only on its own thread.
//! 2. A thread publishes a hold before it can register its next wait
//!    edge (program order).
//! 3. A contended acquisition clears its wait edge and publishes the
//!    hold together, under the registry lock.
//! 4. A release unpublishes the hold before the native unlock.
//!
//! Wait edges change only under the registry lock, and a thread with a
//! registered wait edge stays blocked (natively, on a condvar, or
//! paused) until the registry clears it, so by (1) its slot is frozen
//! meanwhile. Every thread of a cycle waits; the last one to register
//! its edge reads every member's slot frozen, with each hold published
//! (2), and reports the cycle. A published hold is real (4), and no pass
//! sees a wait edge next to the hold that satisfied it (3), so false
//! cycles cannot form.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, TryLockError, TryLockResult};
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
    /// not acquire tracked locks. They see every event, numbered
    /// gaplessly, in runs handed over by whichever thread delivers, one
    /// [`df_events::EventSink::on_events`] call per run, in an order that
    /// keeps each thread's, each lock's and the fork/join order (causal,
    /// not real time). An event goes out once some thread has buffered
    /// a full run, and at the latest before its thread blocks on a lock
    /// or condvar, when a thread the tracker spawned exits, or at
    /// [`Tracker::trace`] or [`Tracker::seal`]. A sink read while the
    /// program runs may therefore lag it; flush first.
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

    /// Attaches a spill sink writing to `out` in the
    /// [`df_events::SpillConfig`]'s format and returns both the updated
    /// config and a handle to the sink, which the caller must
    /// [`df_events::SpillSink::close`] after [`Tracker::seal`] to harvest
    /// the event/byte counts.
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
    ) -> Result<(Self, Arc<std::sync::Mutex<df_events::SpillSink<W>>>), df_events::SpillError> {
        let mut spill = df_events::SpillSink::with_format(out, config.format)?;
        spill.reserve_events(RESERVED_EVENTS);
        let sink = Arc::new(std::sync::Mutex::new(spill));
        self.sink = self.sink.with(sink.clone());
        Ok((self, sink))
    }
}

/// Exclusive (write) or shared (read) acquisition, for the registry.
/// The registry speaks the same mode vocabulary as the event stream.
pub(crate) type Access = AcquireMode;

/// One lock a thread holds.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Hold {
    pub(crate) lock: ObjId,
    /// Where it was acquired.
    pub(crate) site: Label,
    pub(crate) mode: Access,
}

/// A tracked thread's own bookkeeping. Only its thread changes `held`;
/// the detector, witnesses and the Phase II gate read it under the
/// registry lock. A hand-out takes `pending` and `acquires` and raises
/// `clock`.
#[derive(Debug, Default)]
pub(crate) struct ThreadSlot {
    /// Locks held, outermost first (repeats on re-entrant reads and
    /// tries).
    pub(crate) held: Vec<Hold>,
    /// The Lamport clock: the stamp of the thread's latest event.
    clock: u64,
    /// Non-re-entrant acquisitions not yet added to `acquires_observed`.
    acquires: u64,
    /// Events not yet handed out, in stamp order; each one's `seq` holds
    /// its stamp until the hand-out numbers it.
    pending: Vec<Event>,
    /// The thread's binding is gone with its OS thread: nothing emits
    /// here any more.
    pub(crate) gone: bool,
}

impl ThreadSlot {
    /// Moves the clock up to `stamp`: the next event is stamped past it.
    fn observe(&mut self, stamp: u64) {
        self.clock = self.clock.max(stamp);
    }

    fn holds(&self, lock: ObjId) -> bool {
        self.held.iter().any(|h| h.lock == lock)
    }

    /// The context of an acquisition at `site`: the held locks' sites,
    /// outermost first, then `site`.
    pub(crate) fn context(&self, site: Label) -> Vec<Label> {
        let mut context: Vec<Label> = self.held.iter().map(|h| h.site).collect();
        context.push(site);
        context
    }
}

/// A thread slot, shared by its thread's binding and the registry.
pub(crate) type SharedSlot = Arc<Mutex<ThreadSlot>>;

/// Events a buffer of the delivery path is reserved for up front, per
/// slot: a backlog up to its bound plus a run, so no buffer grows while
/// the program runs. Grown then, next to a growing spill buffer, they
/// left ~10 MB of native-spill's heap stranded between campaigns.
const RESERVED_EVENTS: usize = BACKLOG_BOUND + DELIVERY_RUN;

/// A tracked lock's object id and Lamport stamp, kept beside its native
/// lock. The stamp is the largest of the lock's releases so far.
#[derive(Debug)]
pub(crate) struct LockObj {
    pub(crate) id: ObjId,
    stamp: AtomicU64,
}

/// A registered wait: the awaited lock, the acquisition site and mode.
pub(crate) type Wait = (ObjId, Label, Access);

#[derive(Debug)]
pub(crate) struct ThreadState {
    pub(crate) obj: ObjId,
    pub(crate) name: String,
    pub(crate) slot: SharedSlot,
    /// Per-site allocation counts for execution-index object metadata.
    alloc_counts: HashMap<Label, u32>,
    /// Released by the Phase II watchdog: the next acquisition is not
    /// paused again.
    pub(crate) released: bool,
    /// The thread's body returned or unwound.
    pub(crate) exited: bool,
}

/// The registry: everything off the uncontended lock path.
#[derive(Default)]
pub(crate) struct State {
    /// Object table + thread bindings. Recorded events live in the emit
    /// section.
    pub(crate) trace: Trace,
    /// Registered threads, indexed by [`ThreadId`].
    pub(crate) threads: Vec<ThreadState>,
    /// Per thread, indexed by [`ThreadId`]: its blocked contended
    /// acquire, pending condvar reacquire or paused Phase II intent.
    pub(crate) waits: Vec<Option<Wait>>,
    /// Sorted lock sets (held ∪ awaited across the cycle) of deadlocks
    /// already reported, so a persisting deadlock is not re-reported by
    /// every thread that bumps into it.
    reported: HashSet<Vec<ObjId>>,
    /// The wait-for graph, cleared and refilled by every cycle check.
    graph: WaitForGraph,
    sealed: bool,
    pub(crate) session: SessionState,
}

impl State {
    pub(crate) fn thread(&self, t: ThreadId) -> &ThreadState {
        &self.threads[t.as_usize()]
    }

    pub(crate) fn wait(&self, t: ThreadId) -> Option<Wait> {
        self.waits[t.as_usize()]
    }

    pub(crate) fn set_wait(&mut self, t: ThreadId, wait: Option<Wait>) {
        self.waits[t.as_usize()] = wait;
    }

    /// The Phase II watchdog's progress clock: the sum of the thread
    /// clocks, which every event and every hand-out's raise moves up.
    pub(crate) fn progress(&self) -> u64 {
        self.threads.iter().map(|ts| ts.slot.lock().clock).sum()
    }
}

/// The delivery section: its holder drains the slots for the sinks.
#[derive(Default)]
struct Delivery {
    /// Sequence number of the next event to hand out.
    next: u64,
    /// The slots a hand-out visits, in thread-id order: every slot but
    /// the emptied ones of ended threads.
    slots: Vec<SharedSlot>,
    /// The run being handed out; reused, and reserved at registration for
    /// [`RESERVED_EVENTS`] per slot.
    run: Vec<Event>,
    /// The handed-out events, when [`TrackerConfig::record_events`] is
    /// set.
    events: Vec<Event>,
}

/// How many events a thread leaves waiting in its slot before its
/// delivery waits for the delivery section. While one thread hands out
/// a run, the others run their lock operations unhindered and fill their
/// buffers faster than a run drains; without the bound, the buffers grew
/// to a hundred thousand events.
const BACKLOG_BOUND: usize = 1024;

/// A full run: how many events a thread's slot buffers before the
/// release (failed try, notify, object creation, thread start or join)
/// that fills it hands out. Each hand-out has a fixed cost (the delivery
/// section, the slots, the sort and the sink mutexes), which a run of
/// this length spreads thin; a hand-out per release paid it for two
/// events at a time.
#[doc(hidden)]
pub const DELIVERY_RUN: usize = 256;
const _: () = assert!(DELIVERY_RUN <= BACKLOG_BOUND);

/// How many times a blocking acquisition tries the native lock, with a
/// [`std::hint::spin_loop`] between tries, before it registers a wait
/// edge: about as long as `std::sync::Mutex` spins before it parks.
pub(crate) const SPIN_TRIES: u32 = 100;

/// Shared guts of a [`Tracker`]; lock types hold an `Arc` to this.
pub struct TrackerInner {
    pub(crate) state: Mutex<State>,
    delivery: Mutex<Delivery>,
    sink: SinkHandle,
    pub(crate) obs: Obs,
    handler: DeadlockHandler,
    record_events: bool,
    /// Events are kept for the sinks or the recording: `record_events`
    /// or an attached sink.
    buffered: bool,
    /// The Phase II session, when a fuzz or noise policy is set.
    pub(crate) session: Option<Session>,
}

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
            delivery: Mutex::default(),
            buffered: config.record_events || config.sink.is_attached(),
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
    /// the input of Phase I. The recorded events are the delivered
    /// ones, so it first hands out everything stamped so far.
    pub fn trace(&self) -> Trace {
        let st = self.inner.state.lock();
        let d = flush(&self.inner);
        full_trace(&st, &d.events).into_owned()
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
        let mut held: Vec<ObjId> = Vec::new();
        for ts in &st.threads {
            held.extend(ts.slot.lock().held.iter().map(|h| h.lock));
        }
        held.sort();
        held.dedup();
        f.debug_struct("Tracker")
            .field("threads", &st.threads.len())
            .field("locks_held", &held.len())
            .field("sealed", &st.sealed)
            .finish()
    }
}

/// Stamps one event into `slot`, which the caller holds, one past its
/// clock, and buffers it for delivery. Returns whether the slot now
/// holds a full run, which its thread should [`deliver`] (never, when
/// nothing is buffered).
fn emit(inner: &TrackerInner, slot: &mut ThreadSlot, thread: ThreadId, kind: EventKind) -> bool {
    slot.clock += 1;
    if inner.buffered {
        slot.pending.push(Event::new(slot.clock, thread, kind));
    }
    slot.pending.len() >= DELIVERY_RUN
}

/// Emits `kind` as the calling thread's event, registering the thread
/// on first contact, and delivers if that fills a run.
fn emit_own(inner: &Arc<TrackerInner>, kind: EventKind) {
    let due = with_own_slot(inner, |me, slot| emit(inner, &mut slot.lock(), me, kind));
    if due {
        deliver(inner);
    }
}

/// Hands the sinks every event stamped up to the cut, the largest slot
/// clock: raises each slot's clock to the cut and takes its events up to
/// it, one slot at a time, drops the emptied slots of ended threads,
/// orders the run by (stamp, thread), numbers it from [`Delivery::next`]
/// and calls the sinks once.
fn hand_out(inner: &TrackerInner, d: &mut Delivery) {
    let Delivery {
        next,
        slots,
        run,
        events,
    } = d;
    // A sink that panicked mid-run left its run behind.
    run.clear();
    let cut = slots.iter().map(|s| s.lock().clock).max().unwrap_or(0);
    let mut acquires = 0;
    slots.retain(|slot| {
        let mut slot = slot.lock();
        slot.observe(cut);
        let taken = slot.pending.partition_point(|e| e.seq <= cut);
        run.extend(slot.pending.drain(..taken));
        acquires += std::mem::take(&mut slot.acquires);
        let done = slot.gone && slot.pending.is_empty();
        if done {
            slot.pending = Vec::new();
        }
        !done
    });
    inner.obs.counters().add_acquires_observed(acquires);
    if run.is_empty() {
        return;
    }
    run.sort_unstable_by_key(|e| (e.seq, e.thread));
    for event in run.iter_mut() {
        event.seq = *next;
        *next += 1;
    }
    // Taken, counted and recorded before any sink runs: a sink that
    // panics neither gets the run twice nor loses it from the trace.
    if inner.sink.is_attached() {
        inner.obs.counters().add_events_streamed(run.len() as u64);
    }
    let run: &[Event] = if inner.record_events {
        let start = events.len();
        events.append(run);
        &events[start..]
    } else {
        run
    };
    inner.sink.emit(run);
}

/// Hands out what is buffered once the caller's slot holds a full run:
/// guards call it after the native unlock and no acquisition calls it,
/// so sink work stays out of the critical section of the lock being
/// taken or given up. While another thread delivers, the caller moves
/// on (its next release tries again), unless its own backlog is past
/// [`BACKLOG_BOUND`]: then it waits its turn, and hands out only if the
/// other hand-out left it a full run.
pub(crate) fn deliver(inner: &Arc<TrackerInner>) {
    let own = || with_own_slot(inner, |_, slot| slot.lock().pending.len());
    let mut d = match inner.delivery.try_lock() {
        Some(d) => d,
        None if own() > BACKLOG_BOUND => inner.delivery.lock(),
        None => return,
    };
    if own() >= DELIVERY_RUN {
        hand_out(inner, &mut d);
    }
}

/// Hands out every event stamped before the call, waiting for the
/// delivering thread if there is one, and keeps the delivery section so
/// the caller can tell the sinks more in order.
fn flush(inner: &TrackerInner) -> MutexGuard<'_, Delivery> {
    let mut d = inner.delivery.lock();
    hand_out(inner, &mut d);
    d
}

/// The registry's object table and thread bindings with the recorded
/// events, if any.
fn full_trace<'a>(st: &'a State, events: &[Event]) -> Cow<'a, Trace> {
    if events.is_empty() {
        return Cow::Borrowed(&st.trace);
    }
    let mut trace = st.trace.clone();
    for event in events {
        trace.push(event.thread, event.kind.clone());
    }
    Cow::Owned(trace)
}

/// The execution-index frame of an allocation: the allocating statement
/// with its per-thread occurrence count, which is what the `absI_k`
/// abstraction of analyzed spills keys on.
fn alloc_index(st: &mut State, by: ThreadId, site: Label) -> Vec<IndexFrame> {
    let counts = match st.threads.get_mut(by.as_usize()) {
        Some(ts) => &mut ts.alloc_counts,
        None => return vec![IndexFrame::new(site, 1)],
    };
    let q = counts.entry(site).or_insert(0);
    *q += 1;
    vec![IndexFrame::new(site, *q)]
}

/// Registers a thread: assigns an id, creates its thread object and
/// slot, and binds it in the trace (sinks get the binding with the
/// trace at `on_finish`).
pub(crate) fn register_thread(
    inner: &Arc<TrackerInner>,
    name: String,
    site: Label,
    spawner: Option<ThreadId>,
) -> (ThreadId, SharedSlot) {
    let (id, slot) = {
        let mut st = inner.state.lock();
        let id = ThreadId::new(st.threads.len() as u32);
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
        // The child starts from its `Spawn` stamp; the flush below
        // delivers the `Spawn`.
        let clock = spawner.map_or(0, |parent| {
            let mut slot = st.thread(parent).slot.lock();
            let kind = EventKind::Spawn {
                child: id,
                child_obj: obj,
            };
            emit(inner, &mut slot, parent, kind);
            slot.clock
        });
        let reserved = if inner.buffered { RESERVED_EVENTS } else { 0 };
        let slot = SharedSlot::new(Mutex::new(ThreadSlot {
            clock,
            pending: Vec::with_capacity(reserved),
            ..ThreadSlot::default()
        }));
        let mut d = inner.delivery.lock();
        d.slots.push(Arc::clone(&slot));
        let backlog = d.slots.len() * reserved;
        d.run.reserve(backlog);
        st.threads.push(ThreadState {
            obj,
            name,
            slot: Arc::clone(&slot),
            alloc_counts: HashMap::new(),
            released: false,
            exited: false,
        });
        st.waits.push(None);
        (id, slot)
    };
    let _delivery = flush(inner);
    (id, slot)
}

/// Runs `f` on the calling thread's id and slot under `inner`,
/// auto-registering the thread (with its OS thread name, when set) on
/// first contact — this is what makes the lock types drop-in for threads
/// the tracker did not spawn.
fn with_own_slot<R>(inner: &Arc<TrackerInner>, f: impl FnOnce(ThreadId, &SharedSlot) -> R) -> R {
    match tls::with_binding(inner, f) {
        Ok(r) => r,
        Err(f) => {
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| "<unnamed>".to_string());
            let (id, slot) = register_thread(inner, name, Label::new("<native thread>"), None);
            tls::bind(inner, id, Arc::clone(&slot));
            f(id, &slot)
        }
    }
}

/// The calling thread's id under `inner`, registering it on first
/// contact.
pub(crate) fn current_thread(inner: &Arc<TrackerInner>) -> ThreadId {
    with_own_slot(inner, |me, _| me)
}

/// Registers a lock object at its allocation site and emits `New`.
pub(crate) fn register_lock(inner: &Arc<TrackerInner>, site: Label) -> LockObj {
    let id = register_object(inner, ObjKind::Lock, site);
    LockObj {
        id,
        stamp: AtomicU64::new(0),
    }
}

/// Registers a condition variable object (an [`ObjKind::Plain`] object,
/// like the virtual runtime's condvars) at its allocation site and
/// emits `New`.
pub(crate) fn register_condvar(inner: &Arc<TrackerInner>, site: Label) -> ObjId {
    register_object(inner, ObjKind::Plain, site)
}

fn register_object(inner: &Arc<TrackerInner>, kind: ObjKind, site: Label) -> ObjId {
    let me = current_thread(inner);
    let (obj, due) = {
        let mut st = inner.state.lock();
        let index = alloc_index(&mut st, me, site);
        let obj = st.trace.objects_mut().create(kind, site, None, index);
        let due = emit(
            inner,
            &mut st.thread(me).slot.lock(),
            me,
            EventKind::New { obj },
        );
        (obj, due)
    };
    if due {
        deliver(inner);
    }
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
pub(crate) fn gate(inner: &Arc<TrackerInner>, lock: &LockObj, site: Label, access: Access) {
    if let Some(session) = &inner.session {
        session::gate(inner, session, lock.id, site, access);
    }
}

/// Retries `try_acquire` while it would block, up to [`SPIN_TRIES`]
/// tries in all, with a [`std::hint::spin_loop`] between them, and
/// returns the last outcome. Blocking acquisitions call it before they
/// register a wait edge: a holder that lets go within the spin costs
/// the waiter no registry lock, no detection pass, no flush and no
/// `Blocked`/`Unblocked` events. A wait that outlasts the spin still
/// registers its edge and runs detection before it parks, so no
/// deadlock goes unseen.
pub(crate) fn spin<G>(mut try_acquire: impl FnMut() -> TryLockResult<G>) -> TryLockResult<G> {
    let mut tries = 1;
    loop {
        match try_acquire() {
            Err(TryLockError::WouldBlock) if tries < SPIN_TRIES => {
                tries += 1;
                std::hint::spin_loop();
            }
            outcome => return outcome,
        }
    }
}

/// Publishes a completed acquisition in the caller's slot and emits its
/// event, stamped past the lock's stamp: `Reacquire` when the thread
/// already holds the lock, otherwise the `Acquire` or, for a `try_*`,
/// the successful `TryAcquire`. Must be called with the native lock
/// already held; delivery waits for a later call.
fn record_acquire(
    inner: &TrackerInner,
    slot: &mut ThreadSlot,
    me: ThreadId,
    lock: &LockObj,
    site: Label,
    mode: Access,
    tried: bool,
) {
    // `Relaxed`: the native acquire orders this load after the previous
    // holders' `fetch_max`es, which precede their native unlocks.
    slot.observe(lock.stamp.load(Ordering::Relaxed));
    let lock = lock.id;
    let re_entrant = slot.holds(lock);
    let kind = if re_entrant {
        EventKind::reacquire(lock, site)
    } else if tried {
        EventKind::try_acquire(lock, site, true).with_mode(mode)
    } else {
        EventKind::acquire(lock, site).with_mode(mode)
    };
    emit(inner, slot, me, kind);
    slot.held.push(Hold { lock, site, mode });
    slot.acquires += u64::from(!re_entrant);
}

/// Bookkeeping for a non-blocking `try_*` attempt. A successful try
/// joins the held stack exactly like an acquisition, but the stream
/// records it as `TryAcquire { acquired: true }` — a try never blocks,
/// so Phase I must not treat it as a blockable edge. A failed try leaves
/// the slot untouched and records `TryAcquire { acquired: false }`.
pub(crate) fn try_acquired(
    inner: &Arc<TrackerInner>,
    lock: &LockObj,
    site: Label,
    mode: Access,
    acquired: bool,
) {
    unwind_if_aborting(inner);
    if acquired {
        with_own_slot(inner, |me, slot| {
            record_acquire(inner, &mut slot.lock(), me, lock, site, mode, true);
        });
    } else {
        let failed = EventKind::try_acquire(lock.id, site, false).with_mode(mode);
        emit_own(inner, failed);
    }
}

/// Bookkeeping for an acquisition that succeeded without blocking.
pub(crate) fn acquired_uncontended(
    inner: &Arc<TrackerInner>,
    lock: &LockObj,
    site: Label,
    mode: Access,
) {
    unwind_if_aborting(inner);
    with_own_slot(inner, |me, slot| {
        record_acquire(inner, &mut slot.lock(), me, lock, site, mode, false);
    });
}

/// Registers the wait edge of a contended acquisition *before* the
/// caller parks on the native lock, and runs cycle detection from the
/// blocking thread. This is the detector's entry point for blocked
/// threads: a cycle exists exactly when its last wait edge is
/// registered, and that registration happens here or at a Phase II
/// pause, under the registry lock.
pub(crate) fn begin_wait(inner: &Arc<TrackerInner>, lock: &LockObj, site: Label, access: Access) {
    let lock = lock.id;
    unwind_if_aborting(inner);
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    st.set_wait(me, Some((lock, site, access)));
    inner.obs.counters().add_wfg_edges(1);
    let blocked = EventKind::blocked(lock).with_mode(access);
    emit(inner, &mut st.thread(me).slot.lock(), me, blocked);
    if let Some(witness) = detect(&mut st, me, Detector::WaitForGraph) {
        report(inner, st, me, witness);
    } else {
        drop(st);
        drop(flush(inner));
    }
}

/// The blocked acquisition of `lock` succeeded: clears the wait edge,
/// emits `Unblocked` and publishes the hold, all in one registry
/// critical section, so no detection pass sees the wait edge next to
/// the hold that satisfied it.
pub(crate) fn acquired_contended(
    inner: &Arc<TrackerInner>,
    lock: &LockObj,
    site: Label,
    mode: Access,
) {
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    st.set_wait(me, None);
    unwind_if_aborting(inner);
    let mut slot = st.thread(me).slot.lock();
    slot.observe(lock.stamp.load(Ordering::Relaxed));
    emit(inner, &mut slot, me, EventKind::unblocked(lock.id));
    record_acquire(inner, &mut slot, me, lock, site, mode, false);
}

/// A timed acquisition gave up: clears the wait edge and counts the
/// timeout. No `Unblocked` is emitted — that event means "acquired".
pub(crate) fn wait_timed_out(inner: &Arc<TrackerInner>) {
    let me = current_thread(inner);
    inner.state.lock().set_wait(me, None);
    inner.obs.counters().add_lock_timeouts(1);
}

/// Release bookkeeping, called by guard drops *before* the native
/// unlock so no slot claims a hold the thread gave up; raises the lock's
/// stamp to the release's. Returns whether the calling thread's slot
/// holds a full run: the guard then [`deliver`]s, after the unlock.
/// Emitted even during a panic unwind, which keeps the relation
/// balanced after poisoning.
pub(crate) fn release(inner: &Arc<TrackerInner>, obj: &LockObj, site: Label) -> bool {
    let lock = obj.id;
    with_own_slot(inner, |me, slot| {
        let mut slot = slot.lock();
        // The guard doesn't know its own mode; the slot does.
        let mode = match slot.held.iter().rposition(|h| h.lock == lock) {
            Some(pos) => slot.held.remove(pos).mode,
            None => Access::Exclusive,
        };
        let kind = if slot.holds(lock) {
            EventKind::rerelease(lock, site)
        } else {
            EventKind::release(lock, site).with_mode(mode)
        };
        let due = emit(inner, &mut slot, me, kind);
        // A maximum, not a store: concurrent readers release in any
        // order, and the next writer must come after all of them.
        obj.stamp.fetch_max(slot.clock, Ordering::Relaxed);
        due
    })
}

/// The release half of a condvar wait, run *before* the native
/// `Condvar::wait` parks (which atomically gives the lock up): drops
/// this thread's hold, emits the `CondWait` communication event, and
/// registers the eventual-reacquire wait edge — a parked waiter is one
/// notify away from blocking on the lock, so cycles running through it
/// are real deadlocks and must be visible to other threads' detection
/// passes. The waiter itself cannot close a cycle here: the lock it
/// waits for was held by nobody else a moment ago.
///
/// Under a Phase II policy the native condvar `cv` is registered so an
/// abort can wake the waiter; a wait that would start after the abort
/// unwinds here instead, with the caller's guard still live.
pub(crate) fn cond_wait_begin(
    inner: &Arc<TrackerInner>,
    cv: &Arc<std::sync::Condvar>,
    condvar: ObjId,
    obj: &LockObj,
    site: Label,
) {
    let lock = obj.id;
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    // Checked under the registry lock, where aborts happen: a waiter
    // registered before the abort is woken by it, and none registers
    // after.
    unwind_if_aborting(inner);
    {
        let mut slot = st.thread(me).slot.lock();
        if let Some(pos) = slot.held.iter().rposition(|h| h.lock == lock) {
            slot.held.remove(pos);
        }
        emit(
            inner,
            &mut slot,
            me,
            EventKind::cond_wait(condvar, lock, site),
        );
        obj.stamp.fetch_max(slot.clock, Ordering::Relaxed);
    }
    st.set_wait(me, Some((lock, site, Access::Exclusive)));
    inner.obs.counters().add_wfg_edges(1);
    if inner.session.is_some() {
        st.session.parked.insert(me, Arc::clone(cv));
    }
    drop(st);
    drop(flush(inner));
}

/// The reacquire half of a condvar wait, run after the native wait
/// returned with the lock re-held: clears the wait edge and restores
/// the hold *silently* — matching the virtual runtime, where the
/// original `Acquire` already carries the lock dependency and the
/// reacquisition emits nothing.
pub(crate) fn cond_wait_end(inner: &Arc<TrackerInner>, lock: &LockObj, site: Label) {
    let me = current_thread(inner);
    let mut st = inner.state.lock();
    st.set_wait(me, None);
    st.session.parked.remove(&me);
    let mut slot = st.thread(me).slot.lock();
    slot.observe(lock.stamp.load(Ordering::Relaxed));
    slot.held.push(Hold {
        lock: lock.id,
        site,
        mode: Access::Exclusive,
    });
}

/// Emits the `CondNotify` communication event. Rust `Condvar` semantics:
/// the notifier need not hold any lock.
pub(crate) fn cond_notify(inner: &Arc<TrackerInner>, condvar: ObjId, site: Label, all: bool) {
    emit_own(inner, EventKind::cond_notify(condvar, site, all));
}

/// Counts a poisoned-lock recovery (`PoisonError::into_inner`).
pub(crate) fn note_poison_recovered(inner: &Arc<TrackerInner>) {
    inner.obs.counters().add_poisoned_recovered(1);
}

/// Emits `ThreadStart` for a freshly spawned tracked thread, on that
/// thread.
pub(crate) fn thread_started(inner: &Arc<TrackerInner>) {
    emit_own(inner, EventKind::ThreadStart);
}

/// Records a tracked thread's panic for [`Tracker::finish`] (the abort
/// unwinding is not a program panic).
pub(crate) fn thread_panicked(inner: &Arc<TrackerInner>, payload: &(dyn std::any::Any + Send)) {
    inner.state.lock().session.note_panic(payload);
}

/// Marks the thread exited and emits `ThreadExit`; runs from a drop
/// guard so it fires even when the thread body panicked. Hands out
/// everything stamped so far, so no event is left queued once the
/// program's threads are gone, then gives the emptied buffer back: a
/// tracker outlives its threads, and one that ran many short ones would
/// otherwise keep their run-sized reserves. Hand-outs visit the slot
/// until its OS thread ends, so a thread-local destructor's events go out.
pub(crate) fn thread_exited(inner: &Arc<TrackerInner>, id: ThreadId) {
    let mut st = inner.state.lock();
    let Some(ts) = st.threads.get_mut(id.as_usize()) else {
        return;
    };
    ts.exited = true;
    let slot = Arc::clone(&ts.slot);
    emit(inner, &mut slot.lock(), id, EventKind::ThreadExit);
    drop(st);
    drop(flush(inner));
    slot.lock().pending.shrink_to_fit();
}

/// Emits `Join` on the joining thread after a tracked join completes,
/// stamped past the joined thread's clock.
pub(crate) fn thread_joined(inner: &Arc<TrackerInner>, target: ThreadId) {
    let exit = inner.state.lock().thread(target).slot.lock().clock;
    with_own_slot(inner, |_, slot| slot.lock().observe(exit));
    emit_own(inner, EventKind::Join { target });
}

/// Whether `me`'s registered wait is on its own conflicting hold — a
/// one-thread deadlock, since std locks are not re-entrant. (The
/// [`WaitForGraph`] leaves self-edges to its caller.)
fn waits_on_itself(st: &State, me: ThreadId) -> bool {
    let Some((lock, _, mode)) = st.wait(me) else {
        return false;
    };
    st.thread(me)
        .slot
        .lock()
        .held
        .iter()
        .any(|h| h.lock == lock && (h.mode.is_exclusive() || mode.is_exclusive()))
}

/// Refills the registry's wait-for graph: every hold published in a
/// slot and every registered wait (blocked, condvar-parked or paused).
fn refill_graph(st: &mut State) {
    let State {
        threads,
        waits,
        graph,
        ..
    } = st;
    graph.clear();
    for (i, (ts, wait)) in threads.iter().zip(waits.iter()).enumerate() {
        let t = ThreadId::new(i as u32);
        for h in &ts.slot.lock().held {
            match h.mode {
                Access::Exclusive => graph.add_holds(t, h.lock),
                Access::Shared => graph.add_holds_shared(t, h.lock),
            }
        }
        match wait {
            Some((lock, _, Access::Exclusive)) => graph.add_waits(t, *lock),
            Some((lock, _, Access::Shared)) => graph.add_waits_shared(t, *lock),
            None => {}
        }
    }
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
        refill_graph(st);
        st.graph.find_cycle_from(me)?
    };
    let members: Vec<(ThreadId, Vec<Hold>, Wait)> = cycle
        .iter()
        .map(|&t| {
            let held = st.thread(t).slot.lock().held.clone();
            (t, held, st.wait(t).expect("cycle thread waits"))
        })
        .collect();

    // Dedup on the deadlock's full lock set — held ∪ awaited across the
    // cycle's threads. Keying on awaited locks alone reports a
    // reader-heavy cycle once per reader: each reader that bumps into
    // the same stuck writer closes a cycle with a different awaited
    // set, but the union of locks involved is identical.
    let mut key: Vec<ObjId> = members
        .iter()
        .flat_map(|(_, held, wait)| held.iter().map(|h| h.lock).chain(std::iter::once(wait.0)))
        .collect();
    key.sort();
    key.dedup();
    if !st.reported.insert(key) {
        return None;
    }

    let components: Vec<WitnessComponent> = members
        .into_iter()
        .map(|(t, held, (waiting_for, site, waiting_mode))| {
            let ts = st.thread(t);
            let mut context: Vec<Label> = held.iter().map(|h| h.site).collect();
            context.push(site);
            WitnessComponent {
                thread: t,
                thread_obj: ts.obj,
                thread_name: Some(ts.name.clone()),
                holding: held.iter().map(|h| h.lock).collect(),
                holding_modes: held.iter().map(|h| h.mode).collect(),
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

/// Seals the run (idempotent): hands out every stamped event, records
/// the peak-trace-bytes high-water mark, then hands `on_finish` the
/// trace skeleton. The delivery section stays held through `on_finish`,
/// so no delivery interleaves with the footer.
pub(crate) fn seal(inner: &Arc<TrackerInner>) {
    let mut st = inner.state.lock();
    if st.sealed {
        return;
    }
    st.sealed = true;
    let d = flush(inner);
    let trace = full_trace(&st, &d.events);
    inner
        .obs
        .counters()
        .record_peak_trace_bytes(trace.approx_event_bytes());
    inner.sink.finish(&trace);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    use crate::{TrackedMutex, TrackedRwLock};

    fn t(i: u32) -> ThreadId {
        ThreadId::new(i)
    }
    fn o(i: u32) -> ObjId {
        ObjId::new(i)
    }

    fn thread_holding_o1(name: &str, mode: Option<AcquireMode>) -> ThreadState {
        let slot = SharedSlot::default();
        if let Some(mode) = mode {
            slot.lock().held.push(Hold {
                lock: o(1),
                site: Label::new("lock"),
                mode,
            });
        }
        ThreadState {
            obj: o(0),
            name: name.to_string(),
            slot,
            alloc_counts: HashMap::new(),
            released: false,
            exited: false,
        }
    }

    /// Thread t1 holds o1 in `held` mode (next to reader t0 when `held`
    /// is shared) and waits for it again in `mode`.
    fn relocking(held: AcquireMode, mode: AcquireMode) -> State {
        State {
            threads: vec![
                thread_holding_o1("t0", held.is_shared().then_some(held)),
                thread_holding_o1("t1", Some(held)),
            ],
            waits: vec![None, Some((o(1), Label::new("relock"), mode))],
            ..State::default()
        }
    }

    #[test]
    fn self_loop_is_a_one_thread_cycle() {
        // Non-re-entrant std lock: blocking on a lock you hold is a
        // real single-thread deadlock, unlike the virtual runtime.
        let mut st = relocking(AcquireMode::Exclusive, AcquireMode::Exclusive);
        let w = detect(&mut st, t(1), Detector::WaitForGraph).expect("self-wait");
        assert_eq!(w.len(), 1);
        assert_eq!(w.components[0].holding, vec![o(1)]);
        assert_eq!(w.components[0].waiting_for, o(1));
    }

    #[test]
    fn upgrade_self_loop_is_a_one_thread_cycle() {
        // A thread write-waiting on a lock it read-holds: the classic
        // std::sync::RwLock upgrade deadlock.
        let mut st = relocking(AcquireMode::Shared, AcquireMode::Exclusive);
        let w = detect(&mut st, t(1), Detector::WaitForGraph).expect("upgrade self-wait");
        assert_eq!(w.len(), 1);
        assert_eq!(w.components[0].holding_modes, vec![AcquireMode::Shared]);
        // A shared re-read next to other readers is not a self-wait.
        let st = relocking(AcquireMode::Shared, AcquireMode::Shared);
        assert!(!waits_on_itself(&st, t(1)));
    }

    /// The uncontended acquire, release and try paths never take the
    /// registry lock: a worker finishes its operations while this thread
    /// holds it. A regression blocks the worker until the timeout.
    #[test]
    fn fast_path_never_takes_the_registry() {
        const ROUNDS: usize = 2_000;
        let spill = df_events::SpillConfig::with_format(df_events::TraceFormat::Binary);
        let (config, sink) = TrackerConfig::default()
            .with_spill(std::io::sink(), &spill)
            .expect("start spill");
        let tracker = Tracker::new(config);
        let a = TrackedMutex::with_tracker(&tracker, 0u64);
        let b = TrackedMutex::with_tracker(&tracker, 0u64);
        let r = TrackedRwLock::with_tracker(&tracker, 0u64);
        let (go, wait_for_go) = mpsc::channel::<()>();
        let (done, wait_for_done) = mpsc::channel::<()>();
        let worker = tracker.spawn("fast path", move || {
            wait_for_go.recv().expect("go signal");
            // Five operations a round, each an acquire and a release.
            for _ in 0..ROUNDS {
                let mut outer = a.lock().unwrap();
                *b.lock().unwrap() += 1;
                *outer += 1;
                drop(outer);
                drop(r.read().unwrap());
                *r.write().unwrap() += 1;
                drop(a.try_lock().unwrap());
            }
            done.send(()).expect("done signal");
        });
        let registry = tracker.inner.state.lock();
        go.send(()).expect("worker waits for go");
        let finished = wait_for_done.recv_timeout(Duration::from_secs(30));
        drop(registry);
        worker.join().expect("worker");
        assert!(
            finished.is_ok(),
            "uncontended lock operations waited for the registry lock"
        );
        tracker.seal();
        let (events, _) = sink.lock().unwrap().close().unwrap();
        assert!(events >= 10 * ROUNDS as u64);
    }

    /// Threads the tracker did not spawn register on first contact and
    /// leave the hand-outs once they have ended and their events are
    /// out.
    #[test]
    fn ended_first_contact_threads_leave_the_hand_outs() {
        const THREADS: usize = 8;
        let tracker = Tracker::new(TrackerConfig::default().with_record_events(true));
        let lock = Arc::new(TrackedMutex::with_tracker(&tracker, 0u64));
        for _ in 0..THREADS {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || *lock.lock().unwrap() += 1)
                .join()
                .unwrap();
        }
        let trace = tracker.trace();
        let acquires = trace.events().iter();
        let acquires = acquires.filter(|e| matches!(e.kind, EventKind::Acquire { .. }));
        assert_eq!(acquires.count(), THREADS);
        // Only the slot of this thread, which created the lock, is left.
        assert_eq!(tracker.inner.delivery.lock().slots.len(), 1);
    }
}
