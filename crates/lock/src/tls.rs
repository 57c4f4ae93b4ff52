//! Per-OS-thread bindings from trackers to their [`df_events::ThreadId`]s.
//!
//! A thread may touch locks of several trackers (a test process runs
//! many), so the binding is a small vector keyed by tracker identity
//! rather than a single slot. Entries hold [`Weak`] references; dead
//! trackers are pruned on the next bind.

use std::cell::RefCell;
use std::sync::{Arc, Weak};

use df_events::ThreadId;

use crate::tracker::TrackerInner;

thread_local! {
    static BINDINGS: RefCell<Vec<(Weak<TrackerInner>, ThreadId)>> =
        const { RefCell::new(Vec::new()) };
}

/// The calling thread's id under `inner`, if it has been bound.
///
/// Compares addresses instead of upgrading: a `Weak` keeps its
/// allocation alive, so no other tracker can occupy that address while
/// the entry exists, and the lookup touches no reference count.
pub(crate) fn lookup(inner: &Arc<TrackerInner>) -> Option<ThreadId> {
    let target = Arc::as_ptr(inner);
    BINDINGS.with(|b| {
        b.borrow()
            .iter()
            .find(|(weak, _)| std::ptr::eq(weak.as_ptr(), target))
            .map(|&(_, id)| id)
    })
}

/// Binds the calling thread to `id` under `inner`.
pub(crate) fn bind(inner: &Arc<TrackerInner>, id: ThreadId) {
    BINDINGS.with(|b| {
        let mut v = b.borrow_mut();
        v.retain(|(weak, _)| weak.strong_count() > 0);
        v.push((Arc::downgrade(inner), id));
    });
}
