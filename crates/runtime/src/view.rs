//! Read-only view of the execution state offered to strategies.

use df_events::{Label, ObjId, ObjectTable, ThreadId, Trace};

use crate::pending::PendingOp;
use crate::state::{Global, ThreadState, ThreadStatus};

/// A read-only snapshot view of the controller state, passed to
/// [`crate::Strategy`] at every scheduling decision.
///
/// The view exposes exactly the information Algorithms 3 and 4 of the paper
/// need: per-thread pending operations, lock stacks (`LockSet`), context
/// stacks (`Context`), lock ownership, and the object table for computing
/// abstractions.
pub struct StateView<'a> {
    pub(crate) g: &'a Global,
}

/// Per-thread information visible to strategies.
#[derive(Clone, Debug)]
pub struct ThreadView<'a> {
    /// The thread id.
    pub id: ThreadId,
    /// The object representing this thread.
    pub obj: ObjId,
    /// Human-readable thread name.
    pub name: &'a str,
    /// The thread's announced next operation, if it is waiting at a
    /// schedule point (`None` while running or after finishing).
    pub pending: Option<&'a PendingOp>,
    /// Locks held, outermost first (the paper's `LockSet[t]`).
    pub lock_stack: &'a [ObjId],
    /// Acquisition sites of held locks (the paper's `Context[t]`).
    pub context_stack: &'a [Label],
    /// Whether the thread is alive (not finished).
    pub alive: bool,
    /// Whether the thread's pending operation could execute now.
    pub enabled: bool,
}

impl<'a> ThreadView<'a> {
    fn new(g: &'a Global, ts: &'a ThreadState) -> Self {
        ThreadView {
            id: ts.id,
            obj: ts.obj,
            name: &ts.name,
            pending: match &ts.status {
                ThreadStatus::Announced(op) => Some(op),
                _ => None,
            },
            lock_stack: &ts.lock_stack,
            context_stack: &ts.context_stack,
            alive: ts.is_alive(),
            enabled: g.is_enabled(ts.id),
        }
    }
}

impl<'a> StateView<'a> {
    /// All threads, in id order. The views are made as the iterator is
    /// walked; nothing is collected.
    pub fn threads(&self) -> impl ExactSizeIterator<Item = ThreadView<'a>> + 'a {
        let g = self.g;
        g.threads.iter().map(move |ts| ThreadView::new(g, ts))
    }

    /// View of one thread.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a thread of this execution.
    pub fn thread(&self, t: ThreadId) -> ThreadView<'a> {
        ThreadView::new(self.g, &self.g.threads[t.as_usize()])
    }

    /// The current owner of `lock`, if it is held.
    pub fn lock_owner(&self, lock: ObjId) -> Option<ThreadId> {
        self.g.lock_state(lock).and_then(|l| l.owner)
    }

    /// The recursion count of `lock` (0 if free or never used).
    pub fn lock_count(&self, lock: ObjId) -> u32 {
        self.g.lock_state(lock).map(|l| l.count).unwrap_or(0)
    }

    /// Whether a thread other than `t` holds `lock` in shared (read)
    /// mode.
    pub fn read_held_by_other(&self, lock: ObjId, t: ThreadId) -> bool {
        self.g
            .lock_state(lock)
            .is_some_and(|l| l.readers.iter().any(|&r| r != t))
    }

    /// The object table of the execution so far (for computing
    /// abstractions on the fly).
    pub fn objects(&self) -> &'a ObjectTable {
        self.g.trace.objects()
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &'a Trace {
        &self.g.trace
    }

    /// Number of schedule points executed so far.
    pub fn steps(&self) -> u64 {
        self.g.steps
    }

    /// Enabled threads in id order (the paper's `Enabled(s)`).
    pub fn enabled(&self) -> Vec<ThreadId> {
        self.g.enabled()
    }

    /// Alive threads in id order (the paper's `Alive(s)`).
    pub fn alive(&self) -> Vec<ThreadId> {
        self.g.alive()
    }
}
