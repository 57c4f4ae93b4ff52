//! A drop-in tracked `std::sync::Condvar`.

use std::sync::{Arc, LockResult, PoisonError};

use df_events::{caller_site, ObjId};

use crate::mutex::TrackedMutexGuard;
use crate::tracker::{self, Tracker, TrackerInner};

/// A `std::sync::Condvar` replacement that feeds the event stream and
/// keeps the online wait-for graph truthful across waits.
///
/// A wait runs the spurious-wakeup-safe native protocol — the lock is
/// given up atomically, the thread parks, and the lock is reacquired
/// before `wait` returns — while the tracker mirrors each step:
///
/// * the `CondWait` event marks the communication edge (condvar, lock,
///   site) for `dfz analyze`;
/// * the waiter drops its hold *before* parking, so a producer
///   taking the lock meanwhile sees it free — no false self-cycle;
/// * the eventual-reacquire wait edge stays registered for the whole
///   park, so a cycle running through a parked waiter (its awaited
///   lock held by a thread that is itself blocked on something the
///   waiter holds) is detected by whichever thread closes it;
/// * the reacquisition is restored silently, matching the virtual
///   runtime's `WaitReacquire` — the original `Acquire` already
///   carries the lock dependency.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use df_lock::{TrackedCondvar, TrackedMutex, Tracker, TrackerConfig};
///
/// let tracker = Tracker::new(TrackerConfig::default());
/// let ready = Arc::new((
///     TrackedMutex::with_tracker(&tracker, false),
///     TrackedCondvar::with_tracker(&tracker),
/// ));
/// let pair = Arc::clone(&ready);
/// let t = tracker.spawn("producer", move || {
///     *pair.0.lock().unwrap() = true;
///     pair.1.notify_one();
/// });
/// let (lock, cv) = &*ready;
/// let mut done = lock.lock().unwrap();
/// while !*done {
///     done = cv.wait(done).unwrap();
/// }
/// t.join().unwrap();
/// ```
pub struct TrackedCondvar {
    tracker: Arc<TrackerInner>,
    id: ObjId,
    /// Shared with the tracker while a thread is parked, so a Phase II
    /// abort can wake it.
    cv: Arc<std::sync::Condvar>,
}

impl TrackedCondvar {
    /// Creates a tracked condvar under the global tracker; the caller's
    /// source location becomes the allocation site.
    #[track_caller]
    pub fn new() -> Self {
        Self::with_tracker(Tracker::global())
    }

    /// Creates a tracked condvar under `tracker`.
    #[track_caller]
    pub fn with_tracker(tracker: &Tracker) -> Self {
        let inner = Arc::clone(tracker.inner());
        let id = tracker::register_condvar(&inner, caller_site());
        TrackedCondvar {
            tracker: inner,
            id,
            cv: Arc::new(std::sync::Condvar::new()),
        }
    }

    /// The condvar's object id in the tracker's object table.
    pub fn id(&self) -> ObjId {
        self.id
    }

    /// Blocks until notified (or a spurious wakeup), releasing and
    /// reacquiring the guard's mutex like `std::sync::Condvar::wait`.
    /// Callers must re-check their predicate in a loop, exactly as with
    /// `std`.
    ///
    /// Under a fuzz or noise policy an abort of the tracker's run wakes
    /// the waiter, which then unwinds (releasing the guard).
    #[track_caller]
    pub fn wait<'a, T>(
        &self,
        guard: TrackedMutexGuard<'a, T>,
    ) -> LockResult<TrackedMutexGuard<'a, T>> {
        let site = caller_site();
        let mutex = guard.mutex();
        debug_assert!(
            Arc::ptr_eq(&self.tracker, mutex.tracker_inner()),
            "condvar and mutex must share a tracker"
        );
        tracker::cond_wait_begin(&self.tracker, &self.cv, self.id, &mutex.obj, site);
        let (lock, native) = guard.into_parts();
        let (native, poisoned) = match self.cv.wait(native) {
            Ok(g) => (g, false),
            Err(p) => (p.into_inner(), true),
        };
        tracker::cond_wait_end(&self.tracker, &mutex.obj, site);
        let g = lock.guard(native, site);
        tracker::unwind_if_aborting(&self.tracker);
        if poisoned {
            tracker::note_poison_recovered(&self.tracker);
            Err(PoisonError::new(g))
        } else {
            Ok(g)
        }
    }

    /// Blocks while `condition` returns `true`, like
    /// `std::sync::Condvar::wait_while` — the re-check loop is built
    /// in, so spurious wakeups never leak to the caller.
    #[track_caller]
    pub fn wait_while<'a, T, F>(
        &self,
        guard: TrackedMutexGuard<'a, T>,
        mut condition: F,
    ) -> LockResult<TrackedMutexGuard<'a, T>>
    where
        F: FnMut(&mut T) -> bool,
    {
        let mut guard = guard;
        let mut poisoned = false;
        while condition(&mut *guard) {
            guard = match self.wait(guard) {
                Ok(g) => g,
                Err(p) => {
                    poisoned = true;
                    p.into_inner()
                }
            };
        }
        if poisoned {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }

    /// Wakes one parked waiter, like `std::sync::Condvar::notify_one`.
    /// The `CondNotify` event lands in the stream before the wakeup, so
    /// the notify is ordered before the waiter's reacquisition.
    #[track_caller]
    pub fn notify_one(&self) {
        tracker::cond_notify(&self.tracker, self.id, caller_site(), false);
        self.cv.notify_one();
    }

    /// Wakes all parked waiters, like `std::sync::Condvar::notify_all`.
    #[track_caller]
    pub fn notify_all(&self) {
        tracker::cond_notify(&self.tracker, self.id, caller_site(), true);
        self.cv.notify_all();
    }
}

impl Default for TrackedCondvar {
    #[track_caller]
    fn default() -> Self {
        TrackedCondvar::new()
    }
}

impl std::fmt::Debug for TrackedCondvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedCondvar")
            .field("id", &self.id)
            .finish()
    }
}
