//! A wait on a lock that is not the innermost hold moves that lock to
//! the top of the thread's stack: both substrates take it off at the
//! wait and push it back when the wait returns. The relation builder
//! must do the same, or the hold modes it looks up by stack position
//! land on the wrong locks.
//!
//! The program on both substrates: hold `m`, read-lock `rw`, wait on a
//! condvar with `m`, then acquire `x`. The tuple for `x` holds
//! `[rw, m]` in modes `[Shared, Exclusive]`, and its window starts at
//! the wait event, where `m` was last (re)acquired.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use deadlock_fuzzer::events::{AcquireMode, EventKind, ObjId, Trace};
use deadlock_fuzzer::igoodlock::{LockDep, LockDependencyRelation};
use deadlock_fuzzer::lock::{TrackedCondvar, TrackedMutex, TrackedRwLock, Tracker, TrackerConfig};
use deadlock_fuzzer::prelude::site;
use deadlock_fuzzer::runtime::strategy::RoundRobinStrategy;
use deadlock_fuzzer::runtime::{RunConfig, VirtualRuntime};

/// Checks the tuple for `x` in the relation built from `trace`.
fn check(trace: &Trace, m: ObjId, rw: ObjId, x: ObjId) {
    let relation = LockDependencyRelation::from_trace(trace);
    let (i, dep): (usize, &LockDep) = relation
        .deps()
        .iter()
        .enumerate()
        .find(|(_, d)| d.lock == x)
        .expect("a tuple for x");
    assert_eq!(dep.lockset, vec![rw, m]);
    assert_eq!(
        dep.hold_modes,
        vec![AcquireMode::Shared, AcquireMode::Exclusive]
    );
    let wait_seq = trace
        .events()
        .iter()
        .find(|e| matches!(e.kind, EventKind::CondWait { lock, .. } if lock == m))
        .expect("a condvar wait on m")
        .seq;
    assert_eq!(relation.timing(i).unwrap().window_start_seq, wait_seq);
}

#[test]
fn virtual_runtime_wait_keeps_hold_modes_on_their_locks() {
    let ids = Arc::new(std::sync::Mutex::new(None));
    let ids2 = Arc::clone(&ids);
    let r = VirtualRuntime::new(RunConfig::default()).run(
        Box::new(RoundRobinStrategy::new()),
        move |ctx| {
            let m = ctx.new_lock(site!("m"));
            let rw = ctx.new_lock(site!("rw"));
            let x = ctx.new_lock(site!("x"));
            let cv = ctx.new_condvar(site!("cv"));
            *ids2.lock().unwrap() = Some((m.id(), rw.id(), x.id()));
            let ready = Arc::new(AtomicBool::new(false));
            ctx.acquire(&m, site!("acquire m"));
            ctx.acquire_shared(&rw, site!("read rw"));
            // The notifier can take `m` only once main waits, so the
            // wait always happens.
            let flag = Arc::clone(&ready);
            let notifier = ctx.spawn(site!("spawn"), "notifier", move |ctx| {
                ctx.acquire(&m, site!("notifier: acquire m"));
                flag.store(true, Ordering::SeqCst);
                ctx.cond_notify_one(&cv, site!("notify"));
                ctx.release(&m, site!("notifier: release m"));
            });
            while !ready.load(Ordering::SeqCst) {
                ctx.cond_wait(&cv, &m, site!("wait"));
            }
            ctx.acquire(&x, site!("acquire x"));
            ctx.release(&x, site!("release x"));
            ctx.release(&rw, site!("release rw"));
            ctx.release(&m, site!("release m"));
            ctx.join(&notifier, site!("join"));
        },
    );
    assert!(r.outcome.is_completed(), "{}", r.outcome);
    let (m, rw, x) = ids.lock().unwrap().expect("ids recorded");
    check(&r.trace, m, rw, x);
}

#[test]
fn df_lock_wait_keeps_hold_modes_on_their_locks() {
    let tracker = Tracker::new(TrackerConfig::default().with_record_events(true));
    let m = Arc::new(TrackedMutex::with_tracker(&tracker, false));
    let rw = TrackedRwLock::with_tracker(&tracker, ());
    let x = TrackedMutex::with_tracker(&tracker, ());
    let cv = Arc::new(TrackedCondvar::with_tracker(&tracker));
    let mut ready = m.lock().unwrap();
    let read = rw.read().unwrap();
    let notifier = tracker.spawn("notifier", {
        let (m, cv) = (Arc::clone(&m), Arc::clone(&cv));
        move || {
            *m.lock().unwrap() = true;
            cv.notify_one();
        }
    });
    while !*ready {
        ready = cv.wait(ready).unwrap();
    }
    drop(x.lock().unwrap());
    drop(read);
    drop(ready);
    notifier.join().unwrap();
    tracker.seal();
    check(&tracker.trace(), m.id(), rw.id(), x.id());
}
