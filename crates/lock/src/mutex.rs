//! A drop-in tracked `std::sync::Mutex`.

use std::sync::{Arc, LockResult, MutexGuard, PoisonError, TryLockError, TryLockResult};
use std::time::{Duration, Instant};

use df_events::{caller_site, Label, ObjId};

use crate::tracker::{self, Access, Tracker, TrackerInner};

/// A `std::sync::Mutex<T>` replacement whose acquisitions and releases
/// feed the DeadlockFuzzer event stream and the online wait-for-graph
/// detector. The API mirrors `std`: `lock` returns a [`LockResult`],
/// poisoning propagates, guards release on drop.
///
/// `new` uses the process-wide [`Tracker::global`] (install a
/// configured one with [`Tracker::install`]); [`TrackedMutex::with_tracker`]
/// pins a specific tracker, which is what tests use.
///
/// # Example
///
/// ```
/// use df_lock::{TrackedMutex, Tracker, TrackerConfig};
///
/// let tracker = Tracker::new(TrackerConfig::default());
/// let m = TrackedMutex::with_tracker(&tracker, 41);
/// *m.lock().unwrap() += 1;
/// assert_eq!(*m.lock().unwrap(), 42);
/// ```
pub struct TrackedMutex<T> {
    tracker: Arc<TrackerInner>,
    id: ObjId,
    data: std::sync::Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Creates a tracked mutex under the global tracker. The caller's
    /// source location becomes the lock's allocation site — the label
    /// witnesses and `dfz analyze` abstractions report.
    #[track_caller]
    pub fn new(data: T) -> Self {
        Self::with_tracker(Tracker::global(), data)
    }

    /// Creates a tracked mutex under `tracker`.
    #[track_caller]
    pub fn with_tracker(tracker: &Tracker, data: T) -> Self {
        let inner = Arc::clone(tracker.inner());
        let id = tracker::register_lock(&inner, caller_site());
        TrackedMutex {
            tracker: inner,
            id,
            data: std::sync::Mutex::new(data),
        }
    }

    /// The lock's object id in the tracker's object table.
    pub fn id(&self) -> ObjId {
        self.id
    }

    /// Whether the mutex is poisoned (a holder panicked).
    pub fn is_poisoned(&self) -> bool {
        self.data.is_poisoned()
    }

    /// Acquires the mutex, blocking like `std::sync::Mutex::lock`.
    ///
    /// A contended acquisition registers a wait edge in the wait-for
    /// graph first; if that edge closes a cycle the configured
    /// [`crate::DeadlockHandler`] fires *before* this thread parks. A
    /// poisoned mutex is reported as `Err` exactly like `std`, with the
    /// guard recoverable via [`PoisonError::into_inner`] (the recovery
    /// is counted and release events still flow).
    ///
    /// Under a fuzz policy the acquisition may first pause (see
    /// [`crate::Policy`]); once the tracker's run has aborted it unwinds
    /// the calling thread instead.
    #[track_caller]
    pub fn lock(&self) -> LockResult<TrackedMutexGuard<'_, T>> {
        let site = caller_site();
        tracker::gate(&self.tracker, self.id, site, Access::Exclusive);
        match self.data.try_lock() {
            Ok(g) => {
                tracker::acquired_uncontended(&self.tracker, self.id, site, Access::Exclusive);
                Ok(self.guard(g, site))
            }
            Err(TryLockError::Poisoned(p)) => {
                tracker::acquired_uncontended(&self.tracker, self.id, site, Access::Exclusive);
                tracker::note_poison_recovered(&self.tracker);
                Err(PoisonError::new(self.guard(p.into_inner(), site)))
            }
            Err(TryLockError::WouldBlock) => {
                tracker::begin_wait(&self.tracker, self.id, site, Access::Exclusive);
                let (g, poisoned) = match self.data.lock() {
                    Ok(g) => (g, false),
                    Err(p) => (p.into_inner(), true),
                };
                tracker::acquired_contended(&self.tracker, self.id, site, Access::Exclusive);
                if poisoned {
                    tracker::note_poison_recovered(&self.tracker);
                    Err(PoisonError::new(self.guard(g, site)))
                } else {
                    Ok(self.guard(g, site))
                }
            }
        }
    }

    /// Attempts the mutex without blocking, like
    /// `std::sync::Mutex::try_lock`. Both outcomes flow into the event
    /// stream as `TryAcquire { acquired }` — a try never blocks, so
    /// Phase I records no blockable dependency edge for it.
    #[track_caller]
    pub fn try_lock(&self) -> TryLockResult<TrackedMutexGuard<'_, T>> {
        let site = caller_site();
        match self.data.try_lock() {
            Ok(g) => {
                tracker::try_acquired(&self.tracker, self.id, site, Access::Exclusive, true);
                Ok(self.guard(g, site))
            }
            Err(TryLockError::Poisoned(p)) => {
                tracker::try_acquired(&self.tracker, self.id, site, Access::Exclusive, true);
                tracker::note_poison_recovered(&self.tracker);
                Err(TryLockError::Poisoned(PoisonError::new(
                    self.guard(p.into_inner(), site),
                )))
            }
            Err(TryLockError::WouldBlock) => {
                tracker::try_acquired(&self.tracker, self.id, site, Access::Exclusive, false);
                Err(TryLockError::WouldBlock)
            }
        }
    }

    /// Acquires the mutex, giving up after `timeout` — the robustness
    /// escape hatch that converts a suspected deadlock into a
    /// recoverable `Err(TryLockError::WouldBlock)` (counted in the
    /// `lock_timeouts` metric). Detection still fires the instant the
    /// wait edge closes a cycle, so a timed-out thread has already had
    /// its deadlock reported by the time it recovers.
    #[track_caller]
    pub fn try_lock_for(&self, timeout: Duration) -> TryLockResult<TrackedMutexGuard<'_, T>> {
        let site = caller_site();
        tracker::gate(&self.tracker, self.id, site, Access::Exclusive);
        match self.data.try_lock() {
            Ok(g) => {
                tracker::acquired_uncontended(&self.tracker, self.id, site, Access::Exclusive);
                return Ok(self.guard(g, site));
            }
            Err(TryLockError::Poisoned(p)) => {
                tracker::acquired_uncontended(&self.tracker, self.id, site, Access::Exclusive);
                tracker::note_poison_recovered(&self.tracker);
                return Err(TryLockError::Poisoned(PoisonError::new(
                    self.guard(p.into_inner(), site),
                )));
            }
            Err(TryLockError::WouldBlock) => {}
        }
        tracker::begin_wait(&self.tracker, self.id, site, Access::Exclusive);
        let deadline = Instant::now() + timeout;
        loop {
            match self.data.try_lock() {
                Ok(g) => {
                    tracker::acquired_contended(&self.tracker, self.id, site, Access::Exclusive);
                    return Ok(self.guard(g, site));
                }
                Err(TryLockError::Poisoned(p)) => {
                    tracker::acquired_contended(&self.tracker, self.id, site, Access::Exclusive);
                    tracker::note_poison_recovered(&self.tracker);
                    return Err(TryLockError::Poisoned(PoisonError::new(
                        self.guard(p.into_inner(), site),
                    )));
                }
                Err(TryLockError::WouldBlock) => {
                    if Instant::now() >= deadline {
                        tracker::wait_timed_out(&self.tracker, self.id);
                        return Err(TryLockError::WouldBlock);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    pub(crate) fn guard<'a>(
        &'a self,
        data: MutexGuard<'a, T>,
        site: Label,
    ) -> TrackedMutexGuard<'a, T> {
        TrackedMutexGuard {
            lock: self,
            data: Some(data),
            site,
        }
    }

    pub(crate) fn tracker_inner(&self) -> &Arc<TrackerInner> {
        &self.tracker
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("id", &self.id)
            .field("data", &self.data)
            .finish()
    }
}

/// RAII guard of a [`TrackedMutex`]; releases (and emits the release
/// event) on drop, including during panic unwinding.
pub struct TrackedMutexGuard<'a, T> {
    lock: &'a TrackedMutex<T>,
    data: Option<MutexGuard<'a, T>>,
    site: Label,
}

impl<'a, T> TrackedMutexGuard<'a, T> {
    /// The mutex this guard holds.
    pub(crate) fn mutex(&self) -> &'a TrackedMutex<T> {
        self.lock
    }

    /// Splits the guard for a condvar wait: hands the native guard back
    /// (so `std::sync::Condvar::wait` can consume it) together with the
    /// lock it belongs to, *without* running the drop-time release —
    /// the condvar path does its own release bookkeeping and must not
    /// emit a `Release` event.
    pub(crate) fn into_parts(mut self) -> (&'a TrackedMutex<T>, MutexGuard<'a, T>) {
        let data = self.data.take().expect("guard live until drop");
        let lock = self.lock;
        std::mem::forget(self);
        (lock, data)
    }
}

impl<T> std::ops::Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.data.as_ref().expect("guard live until drop")
    }
}

impl<T> std::ops::DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.data.as_mut().expect("guard live until drop")
    }
}

impl<T> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        // Registry release strictly before the native unlock: the
        // registry must never claim a hold another thread could
        // already have re-acquired.
        tracker::release(&self.lock.tracker, self.lock.id, self.site);
        self.data.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FuzzConfig, Policy, TrackerConfig};
    use df_igoodlock::AbstractCycle;

    #[test]
    fn lock_guards_data() {
        let tracker = Tracker::default();
        let m = TrackedMutex::with_tracker(&tracker, vec![1, 2]);
        m.lock().unwrap().push(3);
        assert_eq!(*m.lock().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn reentry_panics_with_diagnostic() {
        // Re-locking a held std mutex would hang forever. Under a fuzz
        // policy the self-wait is a one-thread witness: the thread
        // unwinds and the run reports the witness.
        let policy = Policy::Fuzz(FuzzConfig::new(AbstractCycle::new(vec![])));
        let tracker = Tracker::new(TrackerConfig::default().with_policy(policy));
        let m = TrackedMutex::with_tracker(&tracker, ());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = m.lock().unwrap();
            let _again = m.lock();
        }));
        assert!(unwound.is_err(), "re-entry must unwind, not hang");
        let outcome = tracker.finish();
        let w = outcome.deadlock().expect("re-entry is a witness");
        assert_eq!(w.len(), 1);
        assert_eq!(w.components[0].waiting_for, m.id());
        assert_eq!(w.components[0].holding, vec![m.id()]);
    }
}
