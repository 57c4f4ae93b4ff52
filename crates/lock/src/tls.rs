//! Per-OS-thread bindings from trackers to the calling thread's
//! [`df_events::ThreadId`] and thread slot.
//!
//! A thread may touch locks of several trackers (a test process runs
//! many), so the binding is a small vector keyed by tracker identity
//! rather than a single slot. Entries hold [`Weak`] references; dead
//! trackers are pruned on the next bind. A binding dropped with its OS
//! thread marks the slot gone, so the tracker's hand-outs stop visiting
//! it once it is empty.

use std::cell::RefCell;
use std::sync::{Arc, Weak};

use df_events::ThreadId;

use crate::tracker::{SharedSlot, TrackerInner};

struct Binding {
    tracker: Weak<TrackerInner>,
    id: ThreadId,
    slot: SharedSlot,
}

impl Drop for Binding {
    fn drop(&mut self) {
        self.slot.lock().gone = true;
    }
}

thread_local! {
    static BINDINGS: RefCell<Vec<Binding>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on the calling thread's id and slot under `inner`, or hands
/// `f` back if the thread has not been bound yet.
///
/// Compares addresses instead of upgrading: a `Weak` keeps its
/// allocation alive, so no other tracker can occupy that address while
/// the entry exists, and the lookup touches no reference count. `f` runs
/// while the bindings are borrowed, so it must not bind.
pub(crate) fn with_binding<R, F>(inner: &Arc<TrackerInner>, f: F) -> Result<R, F>
where
    F: FnOnce(ThreadId, &SharedSlot) -> R,
{
    let target = Arc::as_ptr(inner);
    BINDINGS.with(|b| {
        let bindings = b.borrow();
        match bindings
            .iter()
            .find(|b| std::ptr::eq(b.tracker.as_ptr(), target))
        {
            Some(b) => Ok(f(b.id, &b.slot)),
            None => Err(f),
        }
    })
}

/// Binds the calling thread to `id` and its `slot` under `inner`.
pub(crate) fn bind(inner: &Arc<TrackerInner>, id: ThreadId, slot: SharedSlot) {
    BINDINGS.with(|b| {
        let mut v = b.borrow_mut();
        v.retain(|b| b.tracker.strong_count() > 0);
        v.push(Binding {
            tracker: Arc::downgrade(inner),
            id,
            slot,
        });
    });
}
