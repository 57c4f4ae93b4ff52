//! Per-OS-thread bindings from trackers to the calling thread's
//! [`df_events::ThreadId`] and thread slot.
//!
//! A thread may touch locks of several trackers (a test process runs
//! many), so the binding is a small vector keyed by tracker identity
//! rather than a single slot. Entries hold [`Weak`] references; dead
//! trackers are pruned on the next bind.

use std::cell::RefCell;
use std::sync::{Arc, Weak};

use df_events::ThreadId;

use crate::tracker::{SharedSlot, TrackerInner};

type Binding = (Weak<TrackerInner>, ThreadId, SharedSlot);

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
            .find(|(weak, _, _)| std::ptr::eq(weak.as_ptr(), target))
        {
            Some((_, id, slot)) => Ok(f(*id, slot)),
            None => Err(f),
        }
    })
}

/// Binds the calling thread to `id` and its `slot` under `inner`.
pub(crate) fn bind(inner: &Arc<TrackerInner>, id: ThreadId, slot: SharedSlot) {
    BINDINGS.with(|b| {
        let mut v = b.borrow_mut();
        v.retain(|(weak, _, _)| weak.strong_count() > 0);
        v.push((Arc::downgrade(inner), id, slot));
    });
}
