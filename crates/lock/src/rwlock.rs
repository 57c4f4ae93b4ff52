//! A drop-in tracked `std::sync::RwLock`.

use std::sync::{
    Arc, LockResult, PoisonError, RwLockReadGuard, RwLockWriteGuard, TryLockError, TryLockResult,
};
use std::time::{Duration, Instant};

use df_events::{caller_site, Label, ObjId};

use crate::tracker::{self, Access, Tracker, TrackerInner};

/// A `std::sync::RwLock<T>` replacement feeding the event stream and
/// the online detector. Readers register as *shared* holders, so the
/// wait-for graph walks every reader of a contended write — a writer
/// blocked on a reader that is itself blocked forms a detectable cycle.
///
/// # Example
///
/// ```
/// use df_lock::{TrackedRwLock, Tracker, TrackerConfig};
///
/// let tracker = Tracker::new(TrackerConfig::default());
/// let l = TrackedRwLock::with_tracker(&tracker, 1);
/// assert_eq!(*l.read().unwrap(), 1);
/// *l.write().unwrap() += 1;
/// assert_eq!(*l.read().unwrap(), 2);
/// ```
pub struct TrackedRwLock<T> {
    tracker: Arc<TrackerInner>,
    id: ObjId,
    data: std::sync::RwLock<T>,
}

impl<T> TrackedRwLock<T> {
    /// Creates a tracked rwlock under the global tracker; the caller's
    /// source location becomes the allocation site.
    #[track_caller]
    pub fn new(data: T) -> Self {
        Self::with_tracker(Tracker::global(), data)
    }

    /// Creates a tracked rwlock under `tracker`.
    #[track_caller]
    pub fn with_tracker(tracker: &Tracker, data: T) -> Self {
        let inner = Arc::clone(tracker.inner());
        let id = tracker::register_lock(&inner, caller_site());
        TrackedRwLock {
            tracker: inner,
            id,
            data: std::sync::RwLock::new(data),
        }
    }

    /// The lock's object id in the tracker's object table.
    pub fn id(&self) -> ObjId {
        self.id
    }

    /// Whether the rwlock is poisoned (a writer panicked).
    pub fn is_poisoned(&self) -> bool {
        self.data.is_poisoned()
    }

    /// Acquires shared read access, like `std::sync::RwLock::read`.
    #[track_caller]
    pub fn read(&self) -> LockResult<TrackedRwLockReadGuard<'_, T>> {
        let site = caller_site();
        tracker::gate(&self.tracker, self.id, site, Access::Shared);
        match self.data.try_read() {
            Ok(g) => {
                tracker::acquired_uncontended(&self.tracker, self.id, site, Access::Shared);
                Ok(self.read_guard(g, site))
            }
            Err(TryLockError::Poisoned(p)) => {
                tracker::acquired_uncontended(&self.tracker, self.id, site, Access::Shared);
                tracker::note_poison_recovered(&self.tracker);
                Err(PoisonError::new(self.read_guard(p.into_inner(), site)))
            }
            Err(TryLockError::WouldBlock) => {
                tracker::begin_wait(&self.tracker, self.id, site, Access::Shared);
                let (g, poisoned) = match self.data.read() {
                    Ok(g) => (g, false),
                    Err(p) => (p.into_inner(), true),
                };
                tracker::acquired_contended(&self.tracker, self.id, site, Access::Shared);
                if poisoned {
                    tracker::note_poison_recovered(&self.tracker);
                    Err(PoisonError::new(self.read_guard(g, site)))
                } else {
                    Ok(self.read_guard(g, site))
                }
            }
        }
    }

    /// Acquires exclusive write access, like `std::sync::RwLock::write`.
    #[track_caller]
    pub fn write(&self) -> LockResult<TrackedRwLockWriteGuard<'_, T>> {
        let site = caller_site();
        tracker::gate(&self.tracker, self.id, site, Access::Exclusive);
        match self.data.try_write() {
            Ok(g) => {
                tracker::acquired_uncontended(&self.tracker, self.id, site, Access::Exclusive);
                Ok(self.write_guard(g, site))
            }
            Err(TryLockError::Poisoned(p)) => {
                tracker::acquired_uncontended(&self.tracker, self.id, site, Access::Exclusive);
                tracker::note_poison_recovered(&self.tracker);
                Err(PoisonError::new(self.write_guard(p.into_inner(), site)))
            }
            Err(TryLockError::WouldBlock) => {
                tracker::begin_wait(&self.tracker, self.id, site, Access::Exclusive);
                let (g, poisoned) = match self.data.write() {
                    Ok(g) => (g, false),
                    Err(p) => (p.into_inner(), true),
                };
                tracker::acquired_contended(&self.tracker, self.id, site, Access::Exclusive);
                if poisoned {
                    tracker::note_poison_recovered(&self.tracker);
                    Err(PoisonError::new(self.write_guard(g, site)))
                } else {
                    Ok(self.write_guard(g, site))
                }
            }
        }
    }

    /// Attempts shared read access without blocking. Both outcomes are
    /// recorded as shared `TryAcquire { acquired }` events.
    #[track_caller]
    pub fn try_read(&self) -> TryLockResult<TrackedRwLockReadGuard<'_, T>> {
        let site = caller_site();
        match self.data.try_read() {
            Ok(g) => {
                tracker::try_acquired(&self.tracker, self.id, site, Access::Shared, true);
                Ok(self.read_guard(g, site))
            }
            Err(TryLockError::Poisoned(p)) => {
                tracker::try_acquired(&self.tracker, self.id, site, Access::Shared, true);
                tracker::note_poison_recovered(&self.tracker);
                Err(TryLockError::Poisoned(PoisonError::new(
                    self.read_guard(p.into_inner(), site),
                )))
            }
            Err(TryLockError::WouldBlock) => {
                tracker::try_acquired(&self.tracker, self.id, site, Access::Shared, false);
                Err(TryLockError::WouldBlock)
            }
        }
    }

    /// Attempts exclusive write access without blocking. Both outcomes
    /// are recorded as exclusive `TryAcquire { acquired }` events.
    #[track_caller]
    pub fn try_write(&self) -> TryLockResult<TrackedRwLockWriteGuard<'_, T>> {
        let site = caller_site();
        match self.data.try_write() {
            Ok(g) => {
                tracker::try_acquired(&self.tracker, self.id, site, Access::Exclusive, true);
                Ok(self.write_guard(g, site))
            }
            Err(TryLockError::Poisoned(p)) => {
                tracker::try_acquired(&self.tracker, self.id, site, Access::Exclusive, true);
                tracker::note_poison_recovered(&self.tracker);
                Err(TryLockError::Poisoned(PoisonError::new(
                    self.write_guard(p.into_inner(), site),
                )))
            }
            Err(TryLockError::WouldBlock) => {
                tracker::try_acquired(&self.tracker, self.id, site, Access::Exclusive, false);
                Err(TryLockError::WouldBlock)
            }
        }
    }

    /// Acquires write access, giving up after `timeout` (the same
    /// recoverable-deadlock escape hatch as
    /// [`crate::TrackedMutex::try_lock_for`]).
    #[track_caller]
    pub fn try_write_for(
        &self,
        timeout: Duration,
    ) -> TryLockResult<TrackedRwLockWriteGuard<'_, T>> {
        let site = caller_site();
        tracker::gate(&self.tracker, self.id, site, Access::Exclusive);
        match self.data.try_write() {
            Ok(g) => {
                tracker::acquired_uncontended(&self.tracker, self.id, site, Access::Exclusive);
                return Ok(self.write_guard(g, site));
            }
            Err(TryLockError::Poisoned(p)) => {
                tracker::acquired_uncontended(&self.tracker, self.id, site, Access::Exclusive);
                tracker::note_poison_recovered(&self.tracker);
                return Err(TryLockError::Poisoned(PoisonError::new(
                    self.write_guard(p.into_inner(), site),
                )));
            }
            Err(TryLockError::WouldBlock) => {}
        }
        tracker::begin_wait(&self.tracker, self.id, site, Access::Exclusive);
        let deadline = Instant::now() + timeout;
        loop {
            match self.data.try_write() {
                Ok(g) => {
                    tracker::acquired_contended(&self.tracker, self.id, site, Access::Exclusive);
                    return Ok(self.write_guard(g, site));
                }
                Err(TryLockError::Poisoned(p)) => {
                    tracker::acquired_contended(&self.tracker, self.id, site, Access::Exclusive);
                    tracker::note_poison_recovered(&self.tracker);
                    return Err(TryLockError::Poisoned(PoisonError::new(
                        self.write_guard(p.into_inner(), site),
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

    fn read_guard<'a>(
        &'a self,
        data: RwLockReadGuard<'a, T>,
        site: Label,
    ) -> TrackedRwLockReadGuard<'a, T> {
        TrackedRwLockReadGuard {
            lock: self,
            data: Some(data),
            site,
        }
    }

    fn write_guard<'a>(
        &'a self,
        data: RwLockWriteGuard<'a, T>,
        site: Label,
    ) -> TrackedRwLockWriteGuard<'a, T> {
        TrackedRwLockWriteGuard {
            lock: self,
            data: Some(data),
            site,
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TrackedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedRwLock")
            .field("id", &self.id)
            .field("data", &self.data)
            .finish()
    }
}

/// Shared-access RAII guard of a [`TrackedRwLock`].
pub struct TrackedRwLockReadGuard<'a, T> {
    lock: &'a TrackedRwLock<T>,
    data: Option<RwLockReadGuard<'a, T>>,
    site: Label,
}

impl<T> std::ops::Deref for TrackedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.data.as_ref().expect("guard live until drop")
    }
}

impl<T> Drop for TrackedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        tracker::release(&self.lock.tracker, self.lock.id, self.site);
        self.data.take();
    }
}

/// Exclusive-access RAII guard of a [`TrackedRwLock`].
pub struct TrackedRwLockWriteGuard<'a, T> {
    lock: &'a TrackedRwLock<T>,
    data: Option<RwLockWriteGuard<'a, T>>,
    site: Label,
}

impl<T> std::ops::Deref for TrackedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.data.as_ref().expect("guard live until drop")
    }
}

impl<T> std::ops::DerefMut for TrackedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.data.as_mut().expect("guard live until drop")
    }
}

impl<T> Drop for TrackedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        tracker::release(&self.lock.tracker, self.lock.id, self.site);
        self.data.take();
    }
}
