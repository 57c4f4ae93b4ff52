//! Drop-in tracked thread spawning.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use df_events::{caller_site, Label, ThreadId};

use crate::tracker::{self, Tracker, TrackerInner};

/// A `std::thread` replacement whose spawns bind the child to a tracker
/// thread object and emit `Spawn`/`ThreadStart`/`ThreadExit`/`Join`
/// events — so traces of natively-scheduled programs carry the same
/// thread structure the virtual runtime records.
///
/// Threads the tracker did not spawn are still handled: the first
/// tracked-lock operation auto-registers the calling thread under its
/// OS thread name. `TrackedThread` just makes spawn edges and names
/// explicit.
pub struct TrackedThread;

impl TrackedThread {
    /// Spawns a tracked thread under the global tracker, like
    /// `std::thread::spawn`. The caller's source location becomes the
    /// thread object's allocation site.
    #[track_caller]
    pub fn spawn<F, T>(f: F) -> TrackedJoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let site = caller_site();
        let inner = Arc::clone(Tracker::global().inner());
        spawn_impl(&inner, format!("tracked@{site}"), site, f)
    }
}

/// Emits `ThreadExit` when the child returns *or unwinds*: the event
/// must flow even for a panicking thread so the trace stays coherent.
struct ExitGuard {
    inner: Arc<TrackerInner>,
    id: ThreadId,
}

impl Drop for ExitGuard {
    fn drop(&mut self) {
        tracker::thread_exited(&self.inner, self.id);
    }
}

pub(crate) fn spawn_impl<F, T>(
    inner: &Arc<TrackerInner>,
    name: String,
    site: Label,
    f: F,
) -> TrackedJoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let parent = tracker::current_thread(inner);
    let (child, slot) = tracker::register_thread(inner, name.clone(), site, Some(parent));
    let inner_for_child = Arc::clone(inner);
    let handle = std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            crate::tls::bind(&inner_for_child, child, slot);
            tracker::thread_started(&inner_for_child);
            let _exit = ExitGuard {
                inner: Arc::clone(&inner_for_child),
                id: child,
            };
            panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
                tracker::thread_panicked(&inner_for_child, payload.as_ref());
                panic::resume_unwind(payload)
            })
        })
        .expect("spawn tracked thread");
    TrackedJoinHandle {
        handle,
        inner: Arc::clone(inner),
        target: child,
    }
}

/// Join handle of a tracked thread; mirrors `std::thread::JoinHandle`.
pub struct TrackedJoinHandle<T> {
    handle: std::thread::JoinHandle<T>,
    inner: Arc<TrackerInner>,
    target: ThreadId,
}

impl<T> TrackedJoinHandle<T> {
    /// The tracker-assigned id of the spawned thread.
    pub fn thread_id(&self) -> ThreadId {
        self.target
    }

    /// Waits for the thread to finish, like
    /// `std::thread::JoinHandle::join`: a panicking child returns
    /// `Err` with the panic payload (and its locks were already
    /// released — with events — during the unwind). A child unwound by
    /// a Phase II abort also returns `Err`; [`crate::Tracker::finish`]
    /// tells an abort from a program panic.
    pub fn join(self) -> std::thread::Result<T> {
        let result = self.handle.join();
        tracker::thread_joined(&self.inner, self.target);
        result
    }

    /// Whether the thread has finished running.
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }
}
