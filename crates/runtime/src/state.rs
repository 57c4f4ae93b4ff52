//! Internal mutable state of the controller.

use std::collections::HashMap;
use std::thread::Thread;

use df_events::{AcquireMode, IndexFrame, Label, ObjId, ThreadId, Trace};

use crate::fault::{FaultLog, FaultState};
use crate::pending::PendingOp;

/// Lifecycle status of a virtual thread.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum ThreadStatus {
    /// The thread has announced `PendingOp` and waits to be picked.
    Announced(PendingOp),
    /// The thread holds the token and is executing program code.
    Running,
    /// The thread has exited.
    Finished,
}

/// Per-thread bookkeeping: the paper's `LockSet[t]` and `Context[t]` stacks
/// plus the light-weight execution-indexing state of §2.4.2.
#[derive(Debug)]
pub(crate) struct ThreadState {
    pub(crate) id: ThreadId,
    pub(crate) name: String,
    pub(crate) obj: ObjId,
    pub(crate) status: ThreadStatus,
    /// Stack of locks held (first acquisitions only), outermost first.
    pub(crate) lock_stack: Vec<ObjId>,
    /// Stack of acquisition sites, aligned with `lock_stack`.
    pub(crate) context_stack: Vec<Label>,
    /// Execution-indexing call stack: `(site, count)` frames.
    pub(crate) call_stack: Vec<IndexFrame>,
    /// Per-depth statement counters (`Counters[d][c]` in the paper).
    pub(crate) counters: Vec<HashMap<Label, u32>>,
    /// Stack of method receivers (`this`), aligned with call depth; used by
    /// k-object-sensitive abstraction.
    pub(crate) receiver_stack: Vec<Option<ObjId>>,
    /// The carrier running this thread, registered under the controller
    /// mutex at its first schedule point and cleared when it exits. A pick
    /// unparks it after the mutex is released; `None` means there is no
    /// one to wake, since a thread not yet on its carrier finds its pick
    /// when it registers.
    pub(crate) carrier: Option<Thread>,
}

impl ThreadState {
    pub(crate) fn new(id: ThreadId, name: String, obj: ObjId) -> Self {
        ThreadState {
            id,
            name,
            obj,
            status: ThreadStatus::Announced(PendingOp::Start),
            lock_stack: Vec::new(),
            context_stack: Vec::new(),
            call_stack: Vec::new(),
            counters: vec![HashMap::new()],
            receiver_stack: Vec::new(),
            carrier: None,
        }
    }

    /// Depth of the execution-indexing stack (the paper's `d`).
    pub(crate) fn depth(&self) -> usize {
        self.call_stack.len()
    }

    /// Increment `Counters[d][site]` and return the new count.
    pub(crate) fn bump_counter(&mut self, site: Label) -> u32 {
        let d = self.depth();
        if self.counters.len() <= d {
            self.counters.resize_with(d + 1, HashMap::new);
        }
        let c = self.counters[d].entry(site).or_insert(0);
        *c += 1;
        *c
    }

    /// Handle `c: Call(m)`: bump the counter, push the frame, reset the
    /// next depth's counters (per §2.4.2).
    pub(crate) fn enter_call(&mut self, site: Label, receiver: Option<ObjId>) {
        let q = self.bump_counter(site);
        self.call_stack.push(IndexFrame::new(site, q));
        let d = self.depth();
        if self.counters.len() <= d {
            self.counters.resize_with(d + 1, HashMap::new);
        }
        self.counters[d].clear();
        self.receiver_stack.push(receiver);
    }

    /// Handle `c: Return(m)`.
    pub(crate) fn exit_call(&mut self) {
        self.call_stack.pop();
        self.receiver_stack.pop();
    }

    /// Snapshot the execution index for an allocation at `site`
    /// (call stack plus the allocation frame), per §2.4.2.
    pub(crate) fn alloc_index(&mut self, site: Label) -> Vec<IndexFrame> {
        let q = self.bump_counter(site);
        let mut index = self.call_stack.clone();
        index.push(IndexFrame::new(site, q));
        index
    }

    /// The innermost receiver (`this` of the current method), if any.
    pub(crate) fn current_receiver(&self) -> Option<ObjId> {
        self.receiver_stack.iter().rev().flatten().next().copied()
    }

    pub(crate) fn is_alive(&self) -> bool {
        !matches!(self.status, ThreadStatus::Finished)
    }
}

/// State of one re-entrant virtual lock (a Java-style monitor, or an
/// rwlock when shared acquisitions are used).
#[derive(Debug, Default)]
pub(crate) struct LockState {
    pub(crate) owner: Option<ThreadId>,
    /// Usage counter (§2.1 footnote 2): recursion depth of the owner.
    pub(crate) count: u32,
    /// Threads holding the lock in shared (read) mode. Duplicate entries
    /// encode re-entrant read holds; disjoint from `owner` by
    /// construction (a writer excludes readers and vice versa).
    pub(crate) readers: Vec<ThreadId>,
    /// Threads parked in `Object.wait()` on this monitor, FIFO.
    pub(crate) wait_set: Vec<ThreadId>,
}

impl LockState {
    /// Whether `t` could complete an *exclusive* acquisition right now.
    pub(crate) fn is_free_for(&self, t: ThreadId) -> bool {
        self.can_acquire(t, AcquireMode::Exclusive)
    }

    /// Whether `t` could complete an acquisition in `mode` right now:
    /// shared needs no writer; exclusive needs no other writer and no
    /// readers (re-entrancy exempts the owner itself).
    pub(crate) fn can_acquire(&self, t: ThreadId, mode: AcquireMode) -> bool {
        match mode {
            AcquireMode::Exclusive => match self.owner {
                Some(o) => o == t,
                None => self.readers.is_empty(),
            },
            AcquireMode::Shared => self.owner.is_none(),
        }
    }

    /// Whether `t` currently holds this lock in shared mode.
    pub(crate) fn holds_shared(&self, t: ThreadId) -> bool {
        self.readers.contains(&t)
    }
}

/// The whole controller state, guarded by one mutex.
#[derive(Debug)]
pub(crate) struct Global {
    pub(crate) threads: Vec<ThreadState>,
    pub(crate) locks: HashMap<ObjId, LockState>,
    /// Condition-variable wait sets, FIFO per condvar.
    pub(crate) condvars: HashMap<ObjId, Vec<ThreadId>>,
    pub(crate) trace: Trace,
    pub(crate) record_trace: bool,
    /// The thread currently allowed to run (token holder).
    pub(crate) current: Option<ThreadId>,
    pub(crate) steps: u64,
    /// Events recorded so far — the sequence number of the next event.
    /// Counted even when `record_trace` is off so streaming sinks see
    /// the exact sequence numbers a recorded trace would carry.
    pub(crate) event_seq: u64,
    pub(crate) aborting: bool,
    pub(crate) final_outcome: Option<crate::Outcome>,
    /// Monotonic progress counter for the hang watchdog.
    pub(crate) progress: u64,
    /// Live fault-injection state, if a plan was configured.
    pub(crate) faults: Option<FaultState>,
}

impl Global {
    pub(crate) fn new(record_trace: bool) -> Self {
        Global {
            threads: Vec::new(),
            locks: HashMap::new(),
            condvars: HashMap::new(),
            trace: Trace::new(),
            record_trace,
            current: None,
            steps: 0,
            event_seq: 0,
            aborting: false,
            final_outcome: None,
            progress: 0,
            faults: None,
        }
    }

    /// The log of faults injected so far (empty without a plan).
    pub(crate) fn fault_log(&self) -> FaultLog {
        self.faults.as_ref().map(|f| f.log).unwrap_or_default()
    }

    pub(crate) fn thread(&self, t: ThreadId) -> &ThreadState {
        &self.threads[t.as_usize()]
    }

    pub(crate) fn thread_mut(&mut self, t: ThreadId) -> &mut ThreadState {
        &mut self.threads[t.as_usize()]
    }

    pub(crate) fn lock_state(&self, l: ObjId) -> Option<&LockState> {
        self.locks.get(&l)
    }

    /// Whether `t`'s announced operation can execute now (the paper's
    /// `Enabled(s)` membership test).
    pub(crate) fn is_enabled(&self, t: ThreadId) -> bool {
        let ts = self.thread(t);
        match &ts.status {
            ThreadStatus::Finished => false,
            ThreadStatus::Running => false,
            ThreadStatus::Announced(op) => match op {
                PendingOp::Acquire { lock, mode, .. } => self
                    .lock_state(*lock)
                    .map(|l| l.can_acquire(t, *mode))
                    .unwrap_or(true),
                PendingOp::Join { target } => {
                    matches!(self.thread(*target).status, ThreadStatus::Finished)
                }
                // Parked in a wait set until a notify removes the thread.
                PendingOp::AwaitNotify { lock } => self
                    .lock_state(*lock)
                    .map(|l| !l.wait_set.contains(&t))
                    .unwrap_or(true),
                PendingOp::AwaitCondNotify { condvar } => self
                    .condvars
                    .get(condvar)
                    .map(|ws| !ws.contains(&t))
                    .unwrap_or(true),
                // Re-acquisition after a notify needs the lock free (for
                // both monitor waits and condvar waits, which release an
                // exclusive hold).
                PendingOp::WaitReacquire { lock, .. } => self
                    .lock_state(*lock)
                    .map(|l| l.is_free_for(t))
                    .unwrap_or(true),
                // A try-acquire never blocks: it is always enabled and
                // reports failure instead of waiting.
                _ => true,
            },
        }
    }

    /// All enabled threads in id order.
    pub(crate) fn enabled(&self) -> Vec<ThreadId> {
        let mut out = Vec::new();
        self.fill_enabled(&mut out);
        out
    }

    /// Replaces `out`'s contents with the enabled threads in id order,
    /// reusing its allocation.
    pub(crate) fn fill_enabled(&self, out: &mut Vec<ThreadId>) {
        out.clear();
        out.extend(
            self.threads
                .iter()
                .filter(|ts| self.is_enabled(ts.id))
                .map(|ts| ts.id),
        );
    }

    /// All alive (non-finished) threads in id order.
    pub(crate) fn alive(&self) -> Vec<ThreadId> {
        self.threads
            .iter()
            .filter(|ts| ts.is_alive())
            .map(|ts| ts.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lbl(s: &str) -> Label {
        Label::new(s)
    }

    #[test]
    fn execution_indexing_matches_paper_example() {
        // Paper §2.4.2:
        //  main() { for i in 0..5 { foo(); } }          // call site 3
        //  foo()  { bar(); bar(); }                     // call sites 6, 7
        //  bar()  { for i in 0..3 { new Object(); } }   // alloc site 11
        // First object created: absI3 = [11,1, 6,1, 3,1]
        // Last object created:  absI3 = [11,3, 7,1, 3,5]
        let mut ts = ThreadState::new(ThreadId::new(0), "main".into(), ObjId::new(0));
        let (s3, s6, s7, s11) = (lbl("main:3"), lbl("foo:6"), lbl("foo:7"), lbl("bar:11"));
        let mut first: Option<Vec<IndexFrame>> = None;
        let mut last: Option<Vec<IndexFrame>> = None;
        for _ in 0..5 {
            ts.enter_call(s3, None); // call foo()
            for call_site in [s6, s7] {
                ts.enter_call(call_site, None); // call bar()
                for _ in 0..3 {
                    let idx = ts.alloc_index(s11);
                    if first.is_none() {
                        first = Some(idx.clone());
                    }
                    last = Some(idx);
                }
                ts.exit_call();
            }
            ts.exit_call();
        }
        // Paper lists innermost-first [c1,q1,...]; our index is
        // outermost-first, so reverse expectations.
        let first = first.unwrap();
        assert_eq!(
            first,
            vec![
                IndexFrame::new(s3, 1),
                IndexFrame::new(s6, 1),
                IndexFrame::new(s11, 1)
            ]
        );
        let last = last.unwrap();
        assert_eq!(
            last,
            vec![
                IndexFrame::new(s3, 5),
                IndexFrame::new(s7, 1),
                IndexFrame::new(s11, 3)
            ]
        );
    }

    #[test]
    fn counters_reset_per_fresh_context() {
        let mut ts = ThreadState::new(ThreadId::new(0), "t".into(), ObjId::new(0));
        let (call, alloc) = (lbl("c:1"), lbl("a:1"));
        ts.enter_call(call, None);
        assert_eq!(ts.alloc_index(alloc).last().unwrap().count, 1);
        assert_eq!(ts.alloc_index(alloc).last().unwrap().count, 2);
        ts.exit_call();
        // Re-entering the same call from the same outer context is a new
        // invocation: its inner counters start fresh.
        ts.enter_call(call, None);
        assert_eq!(ts.alloc_index(alloc).last().unwrap().count, 1);
        // ...and the second call frame carries count 2.
        assert_eq!(ts.call_stack.last().unwrap().count, 2);
    }

    #[test]
    fn receiver_stack_tracks_innermost_receiver() {
        let mut ts = ThreadState::new(ThreadId::new(0), "t".into(), ObjId::new(0));
        assert_eq!(ts.current_receiver(), None);
        ts.enter_call(lbl("m:1"), Some(ObjId::new(9)));
        ts.enter_call(lbl("m:2"), None); // static method keeps outer receiver
        assert_eq!(ts.current_receiver(), Some(ObjId::new(9)));
        ts.exit_call();
        ts.exit_call();
        assert_eq!(ts.current_receiver(), None);
    }

    #[test]
    fn lock_state_reentrancy() {
        let mut l = LockState::default();
        let t = ThreadId::new(1);
        assert!(l.is_free_for(t));
        l.owner = Some(t);
        l.count = 1;
        assert!(l.is_free_for(t));
        assert!(!l.is_free_for(ThreadId::new(2)));
    }

    #[test]
    fn mode_aware_acquirability() {
        let (t1, t2) = (ThreadId::new(1), ThreadId::new(2));
        // Readers coexist with each other but block writers.
        let mut l = LockState::default();
        l.readers.push(t1);
        assert!(l.can_acquire(t2, AcquireMode::Shared));
        assert!(!l.can_acquire(t2, AcquireMode::Exclusive));
        assert!(l.holds_shared(t1));
        // A reader cannot upgrade: its own shared hold blocks the write.
        assert!(!l.can_acquire(t1, AcquireMode::Exclusive));
        // A writer blocks readers, including itself (no downgrade).
        let w = LockState {
            owner: Some(t1),
            count: 1,
            ..LockState::default()
        };
        assert!(!w.can_acquire(t2, AcquireMode::Shared));
        assert!(!w.can_acquire(t1, AcquireMode::Shared));
        assert!(w.can_acquire(t1, AcquireMode::Exclusive));
    }

    #[test]
    fn enabled_excludes_blocked_and_finished() {
        let mut g = Global::new(true);
        g.threads.push(ThreadState::new(
            ThreadId::new(0),
            "a".into(),
            ObjId::new(0),
        ));
        g.threads.push(ThreadState::new(
            ThreadId::new(1),
            "b".into(),
            ObjId::new(1),
        ));
        let lock = ObjId::new(5);
        g.locks.insert(
            lock,
            LockState {
                owner: Some(ThreadId::new(0)),
                count: 1,
                ..LockState::default()
            },
        );
        g.thread_mut(ThreadId::new(1)).status = ThreadStatus::Announced(PendingOp::Acquire {
            lock,
            site: lbl("e:1"),
            mode: AcquireMode::Exclusive,
        });
        // Thread 0 announced Start → enabled. Thread 1 wants a held lock →
        // disabled.
        assert_eq!(g.enabled(), vec![ThreadId::new(0)]);
        g.thread_mut(ThreadId::new(0)).status = ThreadStatus::Finished;
        assert!(g.enabled().is_empty());
        assert_eq!(g.alive(), vec![ThreadId::new(1)]);
    }

    #[test]
    fn shared_acquire_enabled_alongside_readers_and_trys_never_block() {
        let mut g = Global::new(true);
        for i in 0..3 {
            g.threads.push(ThreadState::new(
                ThreadId::new(i),
                format!("t{i}"),
                ObjId::new(i),
            ));
        }
        let lock = ObjId::new(9);
        g.locks.insert(
            lock,
            LockState {
                readers: vec![ThreadId::new(0)],
                ..LockState::default()
            },
        );
        g.thread_mut(ThreadId::new(1)).status = ThreadStatus::Announced(PendingOp::Acquire {
            lock,
            site: lbl("s:1"),
            mode: AcquireMode::Shared,
        });
        g.thread_mut(ThreadId::new(2)).status = ThreadStatus::Announced(PendingOp::TryAcquire {
            lock,
            site: lbl("s:2"),
            mode: AcquireMode::Exclusive,
        });
        // Reader 1 may join reader 0; the try-writer is enabled too (it
        // will fail, not block).
        assert!(g.is_enabled(ThreadId::new(1)));
        assert!(g.is_enabled(ThreadId::new(2)));
        // A blocking writer would be disabled.
        g.thread_mut(ThreadId::new(2)).status = ThreadStatus::Announced(PendingOp::Acquire {
            lock,
            site: lbl("s:3"),
            mode: AcquireMode::Exclusive,
        });
        assert!(!g.is_enabled(ThreadId::new(2)));
    }

    #[test]
    fn cond_wait_set_disables_until_notified() {
        let mut g = Global::new(true);
        g.threads.push(ThreadState::new(
            ThreadId::new(0),
            "w".into(),
            ObjId::new(0),
        ));
        let cv = ObjId::new(7);
        g.condvars.insert(cv, vec![ThreadId::new(0)]);
        g.thread_mut(ThreadId::new(0)).status =
            ThreadStatus::Announced(PendingOp::AwaitCondNotify { condvar: cv });
        assert!(!g.is_enabled(ThreadId::new(0)));
        g.condvars.get_mut(&cv).unwrap().clear();
        assert!(g.is_enabled(ThreadId::new(0)));
    }

    #[test]
    fn join_enabled_only_after_target_finishes() {
        let mut g = Global::new(true);
        g.threads.push(ThreadState::new(
            ThreadId::new(0),
            "a".into(),
            ObjId::new(0),
        ));
        g.threads.push(ThreadState::new(
            ThreadId::new(1),
            "b".into(),
            ObjId::new(1),
        ));
        g.thread_mut(ThreadId::new(0)).status = ThreadStatus::Announced(PendingOp::Join {
            target: ThreadId::new(1),
        });
        assert!(!g.is_enabled(ThreadId::new(0)));
        g.thread_mut(ThreadId::new(1)).status = ThreadStatus::Finished;
        assert!(g.is_enabled(ThreadId::new(0)));
    }
}
