//! The thread-side API: handles through which program code performs
//! instrumented operations.

use std::panic;
use std::sync::Arc;

use df_events::{AcquireMode, Label, ObjId, ObjKind, ThreadId};
use parking_lot::Mutex;

use crate::controller::{AbortToken, Aborted, Controller, OpOutcome};
use crate::pending::PendingOp;

/// A handle to a virtual lock.
///
/// Locks are re-entrant, like Java monitors: the owning thread may acquire
/// the same lock again without blocking, and only the outermost
/// acquire/release pair is recorded (paper §2.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LockRef {
    id: ObjId,
}

impl LockRef {
    /// The lock's dynamic object id.
    pub fn id(&self) -> ObjId {
        self.id
    }
}

/// A handle to a plain (non-lock, non-thread) virtual object, used as a
/// method receiver for k-object-sensitive abstraction chains.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ObjRef {
    id: ObjId,
}

impl ObjRef {
    /// The object's dynamic id.
    pub fn id(&self) -> ObjId {
        self.id
    }
}

/// A handle to a virtual condition variable.
///
/// A condvar has its own wait set, distinct from any lock's monitor wait
/// set; [`TCtx::cond_wait`] pairs it with the lock it releases for the
/// duration of the wait, like `std::sync::Condvar`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CondvarRef {
    id: ObjId,
}

impl CondvarRef {
    /// The condvar's dynamic object id.
    pub fn id(&self) -> ObjId {
        self.id
    }
}

/// A handle to a spawned virtual thread, usable with [`TCtx::join`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ThreadRef {
    id: ThreadId,
    obj: ObjId,
}

impl ThreadRef {
    /// The thread's id.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// The object representing the thread.
    pub fn obj(&self) -> ObjId {
        self.obj
    }
}

/// Per-thread context handle passed to every program closure.
///
/// All methods are *schedule points*: the calling virtual thread announces
/// the operation, blocks until the scheduling strategy picks it, then
/// performs the operation.
///
/// # Panics
///
/// Every method unwinds the thread (with an internal abort token, not a
/// user-visible panic message) if the run is shutting down — e.g. a
/// deadlock was found while this thread was blocked. Program closures do
/// not need to handle this; the runtime catches it.
pub struct TCtx {
    ctl: Arc<Controller>,
    me: ThreadId,
}

fn unwrap_or_abort<T>(r: Result<T, Aborted>) -> T {
    match r {
        Ok(v) => v,
        Err(Aborted) => panic::panic_any(AbortToken),
    }
}

impl TCtx {
    pub(crate) fn new(ctl: Arc<Controller>, me: ThreadId) -> Self {
        TCtx { ctl, me }
    }

    /// This thread's id.
    pub fn id(&self) -> ThreadId {
        self.me
    }

    /// The run's program seed ([`crate::RunConfig::program_seed`]).
    ///
    /// Program models that vary behavior run to run (arrival order, input
    /// shuffles, …) must branch on this value instead of ambient state
    /// (statics, wall clock, OS scheduling), so a (program, seed) pair
    /// always replays the same execution tree. Not a schedule point.
    pub fn run_seed(&self) -> u64 {
        self.ctl.config.program_seed
    }

    /// Creates a new lock object at `site`.
    ///
    /// The allocation records full abstraction metadata (owner object and
    /// execution index), so Phase II can re-identify "the same" lock in a
    /// different execution.
    pub fn new_lock(&self, site: Label) -> LockRef {
        match unwrap_or_abort(self.ctl.op(
            self.me,
            PendingOp::New {
                site,
                kind: ObjKind::Lock,
            },
        )) {
            OpOutcome::Created(id) => LockRef { id },
            _ => unreachable!("New returns Created"),
        }
    }

    /// Creates a new plain object at `site` (for receiver chains).
    pub fn new_object(&self, site: Label) -> ObjRef {
        match unwrap_or_abort(self.ctl.op(
            self.me,
            PendingOp::New {
                site,
                kind: ObjKind::Plain,
            },
        )) {
            OpOutcome::Created(id) => ObjRef { id },
            _ => unreachable!("New returns Created"),
        }
    }

    /// Acquires `lock` exclusively at `site`, blocking (in virtual time)
    /// while another thread holds it in any mode. Re-entrant.
    pub fn acquire(&self, lock: &LockRef, site: Label) {
        unwrap_or_abort(self.ctl.op(
            self.me,
            PendingOp::Acquire {
                lock: lock.id,
                site,
                mode: AcquireMode::Exclusive,
            },
        ));
    }

    /// Acquires `lock` in shared (read) mode at `site`: readers coexist,
    /// but the acquisition blocks while a writer holds the lock.
    /// Re-entrant reads are collapsed like re-entrant exclusive holds.
    pub fn acquire_shared(&self, lock: &LockRef, site: Label) {
        unwrap_or_abort(self.ctl.op(
            self.me,
            PendingOp::Acquire {
                lock: lock.id,
                site,
                mode: AcquireMode::Shared,
            },
        ));
    }

    /// Releases `lock` at `site`.
    ///
    /// # Panics
    ///
    /// Panics (as a program error) if this thread does not hold `lock`.
    pub fn release(&self, lock: &LockRef, site: Label) {
        unwrap_or_abort(self.ctl.op(
            self.me,
            PendingOp::Release {
                lock: lock.id,
                site,
            },
        ));
    }

    /// Acquires `lock` and returns an RAII guard that releases it on drop
    /// — the ergonomic equivalent of a `synchronized` block.
    ///
    /// # Example
    ///
    /// ```
    /// use df_runtime::{RunConfig, VirtualRuntime, strategy::FifoStrategy};
    /// use df_events::site;
    ///
    /// let r = VirtualRuntime::new(RunConfig::default())
    ///     .run(Box::new(FifoStrategy::new()), |ctx| {
    ///         let l = ctx.new_lock(site!());
    ///         let _g = ctx.lock(&l, site!());
    ///         // critical section
    ///     });
    /// assert!(r.outcome.is_completed());
    /// ```
    pub fn lock(&self, lock: &LockRef, site: Label) -> LockGuard<'_> {
        self.acquire(lock, site);
        LockGuard {
            ctx: self,
            lock: *lock,
            site,
            released: false,
        }
    }

    /// Acquires `lock` in shared (read) mode and returns an RAII guard —
    /// the rwlock read-side equivalent of [`TCtx::lock`]. The release is
    /// mode-derived, so the same guard type serves both sides.
    pub fn read_lock(&self, lock: &LockRef, site: Label) -> LockGuard<'_> {
        self.acquire_shared(lock, site);
        LockGuard {
            ctx: self,
            lock: *lock,
            site,
            released: false,
        }
    }

    /// Attempts `lock` exclusively without blocking: returns a guard on
    /// success, `None` if the lock is held in a conflicting mode. Always
    /// a schedule point either way.
    pub fn try_lock(&self, lock: &LockRef, site: Label) -> Option<LockGuard<'_>> {
        self.try_mode(lock, site, AcquireMode::Exclusive)
    }

    /// Attempts a shared (read) acquisition of `lock` without blocking.
    pub fn try_read_lock(&self, lock: &LockRef, site: Label) -> Option<LockGuard<'_>> {
        self.try_mode(lock, site, AcquireMode::Shared)
    }

    fn try_mode(&self, lock: &LockRef, site: Label, mode: AcquireMode) -> Option<LockGuard<'_>> {
        match unwrap_or_abort(self.ctl.op(
            self.me,
            PendingOp::TryAcquire {
                lock: lock.id,
                site,
                mode,
            },
        )) {
            OpOutcome::Acquired(true) => Some(LockGuard {
                ctx: self,
                lock: *lock,
                site,
                released: false,
            }),
            OpOutcome::Acquired(false) => None,
            _ => unreachable!("TryAcquire returns Acquired"),
        }
    }

    /// Enters a method at call site `site` (execution-indexing event) with
    /// no receiver (a static method).
    pub fn call(&self, site: Label) {
        unwrap_or_abort(self.ctl.op(
            self.me,
            PendingOp::Call {
                site,
                receiver: None,
            },
        ));
    }

    /// Enters a method at `site` with receiver `recv` (`this`); objects
    /// allocated inside belong to `recv` for k-object-sensitivity.
    pub fn call_on(&self, recv: &ObjRef, site: Label) {
        unwrap_or_abort(self.ctl.op(
            self.me,
            PendingOp::Call {
                site,
                receiver: Some(recv.id),
            },
        ));
    }

    /// Returns from the current method.
    pub fn ret(&self) {
        unwrap_or_abort(self.ctl.op(self.me, PendingOp::Return));
    }

    /// Runs `f` inside a `call`/`ret` pair (a static method body).
    pub fn scope<R>(&self, site: Label, f: impl FnOnce() -> R) -> R {
        self.call(site);
        let r = f();
        self.ret();
        r
    }

    /// Runs `f` inside a `call_on`/`ret` pair (an instance method body on
    /// `recv`).
    pub fn scope_on<R>(&self, recv: &ObjRef, site: Label, f: impl FnOnce() -> R) -> R {
        self.call_on(recv, site);
        let r = f();
        self.ret();
        r
    }

    /// Spawns a child virtual thread running `f`. The spawn site becomes
    /// the allocation site of the thread object.
    pub fn spawn<F>(&self, site: Label, name: &str, f: F) -> ThreadRef
    where
        F: FnOnce(&TCtx) + Send + 'static,
    {
        let (id, obj) = unwrap_or_abort(self.ctl.spawn(self.me, site, name.to_string(), f));
        ThreadRef { id, obj }
    }

    /// Blocks (in virtual time) until `target` finishes.
    pub fn join(&self, target: &ThreadRef, site: Label) {
        let _ = site;
        unwrap_or_abort(self.ctl.op(self.me, PendingOp::Join { target: target.id }));
    }

    /// An explicit schedule point with no other effect.
    pub fn yield_now(&self) {
        unwrap_or_abort(self.ctl.op(self.me, PendingOp::Yield));
    }

    /// Simulated computation: `units` consecutive schedule points. Under a
    /// random scheduler, heavier work delays this thread relative to
    /// others — this models the paper's "long running methods" (Figure 1).
    pub fn work(&self, units: u32) {
        for _ in 0..units {
            unwrap_or_abort(self.ctl.op(self.me, PendingOp::Work { units: 1 }));
        }
    }

    /// Java-style `Object.wait()` on `lock`'s monitor: releases the
    /// monitor entirely (remembering its recursion count), parks this
    /// thread in the monitor's wait set until a [`TCtx::notify`] /
    /// [`TCtx::notify_all`], then re-acquires the monitor with the saved
    /// count before returning.
    ///
    /// A waiting thread is *disabled* in the paper's sense; a wait with
    /// no future notify is a communication deadlock and the runtime
    /// reports the stall as
    /// [`crate::Outcome::CommunicationStall`].
    ///
    /// # Panics
    ///
    /// Panics (as a program error) if this thread does not hold `lock`.
    pub fn wait(&self, lock: &LockRef, site: Label) {
        let count = match unwrap_or_abort(self.ctl.op(
            self.me,
            PendingOp::WaitRelease {
                lock: lock.id,
                site,
            },
        )) {
            crate::controller::OpOutcome::Count(n) => n,
            _ => unreachable!("WaitRelease returns the saved count"),
        };
        unwrap_or_abort(
            self.ctl
                .op(self.me, PendingOp::AwaitNotify { lock: lock.id }),
        );
        unwrap_or_abort(self.ctl.op(
            self.me,
            PendingOp::WaitReacquire {
                lock: lock.id,
                count,
                site,
            },
        ));
    }

    /// Wakes one thread from `lock`'s wait set (FIFO), like
    /// `Object.notify()`.
    ///
    /// # Panics
    ///
    /// Panics (as a program error) if this thread does not hold `lock`.
    pub fn notify(&self, lock: &LockRef, site: Label) {
        unwrap_or_abort(self.ctl.op(
            self.me,
            PendingOp::Notify {
                lock: lock.id,
                site,
                all: false,
            },
        ));
    }

    /// Wakes every thread in `lock`'s wait set, like
    /// `Object.notifyAll()`.
    ///
    /// # Panics
    ///
    /// Panics (as a program error) if this thread does not hold `lock`.
    pub fn notify_all(&self, lock: &LockRef, site: Label) {
        unwrap_or_abort(self.ctl.op(
            self.me,
            PendingOp::Notify {
                lock: lock.id,
                site,
                all: true,
            },
        ));
    }

    /// Creates a new condition variable at `site`.
    pub fn new_condvar(&self, site: Label) -> CondvarRef {
        match unwrap_or_abort(self.ctl.op(
            self.me,
            PendingOp::New {
                site,
                kind: ObjKind::Plain,
            },
        )) {
            OpOutcome::Created(id) => CondvarRef { id },
            _ => unreachable!("New returns Created"),
        }
    }

    /// `Condvar::wait` on `cv`, releasing `lock` for the duration:
    /// releases the (exclusively held) lock, parks this thread in the
    /// condvar's wait set until a [`TCtx::cond_notify_one`] /
    /// [`TCtx::cond_notify_all`] (or an injected spurious wakeup), then
    /// re-acquires the lock before returning. Callers must re-check their
    /// predicate in a loop, exactly as with `std::sync::Condvar`.
    ///
    /// # Panics
    ///
    /// Panics (as a program error) if this thread does not hold `lock`
    /// exclusively.
    pub fn cond_wait(&self, cv: &CondvarRef, lock: &LockRef, site: Label) {
        let count = match unwrap_or_abort(self.ctl.op(
            self.me,
            PendingOp::CondWaitRelease {
                condvar: cv.id,
                lock: lock.id,
                site,
            },
        )) {
            OpOutcome::Count(n) => n,
            _ => unreachable!("CondWaitRelease returns the saved count"),
        };
        unwrap_or_abort(
            self.ctl
                .op(self.me, PendingOp::AwaitCondNotify { condvar: cv.id }),
        );
        unwrap_or_abort(self.ctl.op(
            self.me,
            PendingOp::WaitReacquire {
                lock: lock.id,
                count,
                site,
            },
        ));
    }

    /// Wakes one thread from `cv`'s wait set (FIFO), like
    /// `Condvar::notify_one`. Does not require holding any lock.
    pub fn cond_notify_one(&self, cv: &CondvarRef, site: Label) {
        unwrap_or_abort(self.ctl.op(
            self.me,
            PendingOp::CondNotify {
                condvar: cv.id,
                site,
                all: false,
            },
        ));
    }

    /// Wakes every thread in `cv`'s wait set, like
    /// `Condvar::notify_all`.
    pub fn cond_notify_all(&self, cv: &CondvarRef, site: Label) {
        unwrap_or_abort(self.ctl.op(
            self.me,
            PendingOp::CondNotify {
                condvar: cv.id,
                site,
                all: true,
            },
        ));
    }
}

/// RAII guard returned by [`TCtx::lock`]; releases the lock when dropped.
#[must_use = "dropping the guard immediately releases the lock"]
pub struct LockGuard<'a> {
    ctx: &'a TCtx,
    lock: LockRef,
    site: Label,
    released: bool,
}

impl LockGuard<'_> {
    /// Releases the lock early (idempotent with the drop).
    pub fn unlock(mut self) {
        self.release_inner();
    }

    /// The guarded lock.
    pub fn lock_ref(&self) -> LockRef {
        self.lock
    }

    fn release_inner(&mut self) {
        if self.released {
            return;
        }
        self.released = true;
        let r = self.ctx.ctl.op(
            self.ctx.me,
            PendingOp::Release {
                lock: self.lock.id,
                site: self.site,
            },
        );
        if r.is_err() && !std::thread::panicking() {
            // The run is shutting down while this thread executes user
            // code: unwind it like any other aborted operation. If we are
            // already unwinding (AbortToken flew through the guard's
            // scope), swallow to avoid a double panic.
            panic::panic_any(AbortToken);
        }
    }
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        self.release_inner();
    }
}

/// Convenience shared mutable data for program models.
///
/// Virtual-thread execution is fully serialized, so plain shared state
/// cannot race; `Shared` just packages the `Arc<Mutex<…>>` boilerplate that
/// program closures need to move data around. It deliberately does **not**
/// create schedule points — use virtual locks ([`TCtx::lock`]) for the
/// synchronization structure the analyses should see.
///
/// # Example
///
/// ```
/// let counter = df_runtime::Shared::new(0u32);
/// counter.with(|c| *c += 1);
/// assert_eq!(counter.get(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Shared<T>(Arc<Mutex<T>>);

impl<T> Shared<T> {
    /// Wraps `value`.
    pub fn new(value: T) -> Self {
        Shared(Arc::new(Mutex::new(value)))
    }

    /// Runs `f` with exclusive access to the value.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.0.lock())
    }
}

impl<T: Clone> Shared<T> {
    /// Returns a clone of the value.
    pub fn get(&self) -> T {
        self.0.lock().clone()
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}
