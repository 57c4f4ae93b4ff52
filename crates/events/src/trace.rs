//! Complete execution traces.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::{Event, EventKind, ObjId, ObjectTable, ThreadId, TraceFooter};

/// Everything observed during one execution: the event sequence, the object
/// table, and the mapping from threads to their thread objects.
///
/// A `Trace` is the interface between an execution substrate (virtual or
/// real threads) and Phase I (`df-igoodlock`): the lock dependency relation
/// of Definition 1 is a pure function of a `Trace`.
///
/// # Example
///
/// ```
/// use df_events::{Event, EventKind, Label, ObjKind, ThreadId, Trace};
///
/// let mut trace = Trace::default();
/// let main = ThreadId::new(0);
/// let main_obj = trace.objects_mut().create(ObjKind::Thread, Label::new("<main>"), None, vec![]);
/// trace.bind_thread(main, main_obj);
/// trace.push(main, EventKind::ThreadStart);
/// assert_eq!(trace.events().len(), 1);
/// assert_eq!(trace.thread_obj(main), Some(main_obj));
/// ```
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<Event>,
    objects: ObjectTable,
    thread_objs: BTreeMap<ThreadId, ObjId>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// A trace of `events` (in sequence order) with an artifact
    /// footer's object table and bindings.
    pub(crate) fn from_parts(events: Vec<Event>, footer: TraceFooter) -> Self {
        Trace {
            events,
            objects: footer.objects,
            thread_objs: footer.thread_objs,
        }
    }

    /// Appends an event executed by `thread`, assigning the next sequence
    /// number, and returns that sequence number.
    pub fn push(&mut self, thread: ThreadId, kind: EventKind) -> u64 {
        let seq = self.events.len() as u64;
        self.events.push(Event::new(seq, thread, kind));
        seq
    }

    /// The recorded events in execution order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The object table of the execution.
    pub fn objects(&self) -> &ObjectTable {
        &self.objects
    }

    /// Mutable access to the object table (used by substrates while
    /// recording).
    pub fn objects_mut(&mut self) -> &mut ObjectTable {
        &mut self.objects
    }

    /// Associates `thread` with the object that represents it.
    pub fn bind_thread(&mut self, thread: ThreadId, obj: ObjId) {
        self.thread_objs.insert(thread, obj);
    }

    /// The object representing `thread`, if bound.
    pub fn thread_obj(&self, thread: ThreadId) -> Option<ObjId> {
        self.thread_objs.get(&thread).copied()
    }

    /// All (thread, thread-object) bindings.
    pub fn thread_objs(&self) -> impl Iterator<Item = (ThreadId, ObjId)> + '_ {
        self.thread_objs.iter().map(|(&t, &o)| (t, o))
    }

    /// Number of first-acquisition events in the trace.
    pub fn acquire_count(&self) -> usize {
        self.events.iter().filter(|e| e.kind.is_acquire()).count()
    }

    /// Resident size of the event sequence in bytes: the inline size of
    /// every [`Event`] (no event owns heap memory). This is the number
    /// the `peak_trace_bytes` observability counter reports.
    pub fn approx_event_bytes(&self) -> u64 {
        (self.events.len() * std::mem::size_of::<Event>()) as u64
    }

    /// Iterates over the distinct threads that appear in the trace, in id
    /// order.
    pub fn threads(&self) -> Vec<ThreadId> {
        let mut ts: Vec<ThreadId> = self.events.iter().map(|e| e.thread).collect();
        ts.sort();
        ts.dedup();
        ts
    }

    /// Renders the trace as human-readable lines (for debugging and the
    /// examples).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Label, ObjKind};

    #[test]
    fn push_assigns_sequence_numbers() {
        let mut t = Trace::new();
        let a = t.push(ThreadId::new(0), EventKind::Yield);
        let b = t.push(ThreadId::new(1), EventKind::Yield);
        assert_eq!((a, b), (0, 1));
        assert_eq!(t.events()[1].thread, ThreadId::new(1));
    }

    #[test]
    fn threads_are_deduped_and_sorted() {
        let mut t = Trace::new();
        t.push(ThreadId::new(2), EventKind::Yield);
        t.push(ThreadId::new(0), EventKind::Yield);
        t.push(ThreadId::new(2), EventKind::Return);
        assert_eq!(t.threads(), vec![ThreadId::new(0), ThreadId::new(2)]);
    }

    #[test]
    fn acquire_count_ignores_reacquires() {
        let mut t = Trace::new();
        let lk = t
            .objects_mut()
            .create(ObjKind::Lock, Label::new("t:1"), None, vec![]);
        t.push(ThreadId::new(0), EventKind::acquire(lk, Label::new("t:2")));
        t.push(
            ThreadId::new(0),
            EventKind::Reacquire {
                lock: lk,
                site: Label::new("t:3"),
            },
        );
        assert_eq!(t.acquire_count(), 1);
    }

    #[test]
    fn thread_bindings() {
        let mut t = Trace::new();
        let o = t
            .objects_mut()
            .create(ObjKind::Thread, Label::new("b:1"), None, vec![]);
        t.bind_thread(ThreadId::new(3), o);
        assert_eq!(t.thread_obj(ThreadId::new(3)), Some(o));
        assert_eq!(t.thread_obj(ThreadId::new(4)), None);
        assert_eq!(t.thread_objs().count(), 1);
    }

    #[test]
    fn render_contains_every_event() {
        let mut t = Trace::new();
        t.push(ThreadId::new(0), EventKind::ThreadStart);
        t.push(ThreadId::new(0), EventKind::ThreadExit);
        let s = t.render();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("start"));
        assert!(s.contains("exit"));
    }
}
