//! Pending operations announced by threads at schedule points.

use df_events::{AcquireMode, Label, ObjId, ObjKind, ThreadId};

/// The next instrumented operation a virtual thread is about to execute.
///
/// Algorithm 3 of the paper inspects "the next statement to be executed by
/// t" before deciding whether to run or pause the thread. In this runtime,
/// every thread *announces* its next operation before blocking at the
/// schedule point, so the [`crate::Strategy`] sees exactly this information.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PendingOp {
    /// The thread has been spawned and is about to start running.
    Start,
    /// About to acquire `lock` at `site` (possibly re-entrant).
    Acquire {
        /// Target lock.
        lock: ObjId,
        /// Acquisition site.
        site: Label,
        /// Exclusive (write) or shared (read) acquisition.
        mode: AcquireMode,
    },
    /// About to *attempt* `lock` at `site` without blocking: always
    /// enabled, succeeds or fails atomically at execution.
    TryAcquire {
        /// Target lock.
        lock: ObjId,
        /// Attempt site.
        site: Label,
        /// Exclusive (write) or shared (read) attempt.
        mode: AcquireMode,
    },
    /// About to release `lock` at `site`.
    Release {
        /// Target lock.
        lock: ObjId,
        /// Release site.
        site: Label,
    },
    /// About to enter a method (execution-indexing event).
    Call {
        /// Call site.
        site: Label,
        /// Receiver object (`this`), if any.
        receiver: Option<ObjId>,
    },
    /// About to return from the current method.
    Return,
    /// About to allocate an object.
    New {
        /// Allocation site.
        site: Label,
        /// Kind of object being allocated.
        kind: ObjKind,
    },
    /// About to spawn a child thread.
    Spawn {
        /// Spawn site (allocation site of the thread object).
        site: Label,
    },
    /// About to join on `target` (enabled only once `target` finished).
    Join {
        /// The thread being joined.
        target: ThreadId,
    },
    /// An explicit yield.
    Yield,
    /// Simulated computation.
    Work {
        /// Abstract cost units.
        units: u32,
    },
    /// About to release the monitor and join its wait set
    /// (`Object.wait()` stage 1).
    WaitRelease {
        /// The monitor.
        lock: ObjId,
        /// Wait site.
        site: Label,
    },
    /// In the monitor's wait set, waiting for a notify (stage 2); enabled
    /// only once notified.
    AwaitNotify {
        /// The monitor.
        lock: ObjId,
    },
    /// Re-acquiring the monitor after a notify (stage 3), restoring the
    /// saved recursion count; enabled only when the monitor is free.
    WaitReacquire {
        /// The monitor.
        lock: ObjId,
        /// Recursion count to restore.
        count: u32,
        /// The original wait site (kept as the context of the restored
        /// hold).
        site: Label,
    },
    /// About to release `lock` and join `condvar`'s wait set
    /// (`Condvar::wait` stage 1). Unlike a monitor wait, the wait set
    /// belongs to the condition variable, not the lock.
    CondWaitRelease {
        /// The condition variable.
        condvar: ObjId,
        /// The lock released for the duration of the wait.
        lock: ObjId,
        /// Wait site.
        site: Label,
    },
    /// In `condvar`'s wait set, waiting for a notify (stage 2); enabled
    /// only once notified (or spuriously woken by fault injection). The
    /// re-acquisition of the released lock is stage 3, which reuses
    /// [`PendingOp::WaitReacquire`].
    AwaitCondNotify {
        /// The condition variable.
        condvar: ObjId,
    },
    /// About to notify one or all waiters of a condition variable. The
    /// notifier does *not* need to hold the associated lock.
    CondNotify {
        /// The condition variable.
        condvar: ObjId,
        /// Notify site.
        site: Label,
        /// `true` for `notify_all`.
        all: bool,
    },
    /// About to notify one or all waiters of a monitor.
    Notify {
        /// The monitor.
        lock: ObjId,
        /// Notify site.
        site: Label,
        /// `true` for `notifyAll`.
        all: bool,
    },
    /// About to exit.
    Exit,
}

impl PendingOp {
    /// If this is a (re-entrant or first) acquire, the target lock and site.
    pub fn acquire_target(&self) -> Option<(ObjId, Label)> {
        match self {
            PendingOp::Acquire { lock, site, .. } => Some((*lock, *site)),
            _ => None,
        }
    }

    /// Whether this operation is a lock acquisition.
    pub fn is_acquire(&self) -> bool {
        matches!(self, PendingOp::Acquire { .. })
    }

    /// The acquisition mode of a pending `Acquire`/`TryAcquire`.
    pub fn acquire_mode(&self) -> Option<AcquireMode> {
        match self {
            PendingOp::Acquire { mode, .. } | PendingOp::TryAcquire { mode, .. } => Some(*mode),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_target_only_for_acquire() {
        let lk = ObjId::new(1);
        let s = Label::new("p:1");
        let acq = PendingOp::Acquire {
            lock: lk,
            site: s,
            mode: AcquireMode::Exclusive,
        };
        assert_eq!(acq.acquire_target(), Some((lk, s)));
        assert!(PendingOp::Yield.acquire_target().is_none());
        assert!(acq.is_acquire());
        assert!(!PendingOp::Exit.is_acquire());
    }

    #[test]
    fn acquire_mode_covers_blocking_and_try_variants() {
        let lk = ObjId::new(1);
        let s = Label::new("p:2");
        assert_eq!(
            PendingOp::Acquire {
                lock: lk,
                site: s,
                mode: AcquireMode::Shared,
            }
            .acquire_mode(),
            Some(AcquireMode::Shared)
        );
        let try_op = PendingOp::TryAcquire {
            lock: lk,
            site: s,
            mode: AcquireMode::Exclusive,
        };
        assert_eq!(try_op.acquire_mode(), Some(AcquireMode::Exclusive));
        // A try is an attempt, not a blocking acquisition.
        assert!(!try_op.is_acquire());
        assert!(try_op.acquire_target().is_none());
        assert_eq!(PendingOp::Yield.acquire_mode(), None);
    }
}
