//! Edge-case coverage for the virtual runtime: non-lexical lock orders,
//! deep re-entrancy, guard idioms, execution-indexing across threads.

use df_events::{site, EventKind, ObjKind, ThreadId};
use df_runtime::{
    strategy::{FifoStrategy, RoundRobinStrategy},
    Outcome, RunConfig, Shared, VirtualRuntime,
};

fn rt() -> VirtualRuntime {
    VirtualRuntime::new(RunConfig::default())
}

#[test]
fn non_lexical_release_order_is_supported() {
    // Acquire a, b; release a first (hand-over-hand) — the paper assumes
    // nested order but notes the extension is easy; we support it.
    let r = rt().run(Box::new(FifoStrategy::new()), |ctx| {
        let a = ctx.new_lock(site!("nl a"));
        let b = ctx.new_lock(site!("nl b"));
        let c = ctx.new_lock(site!("nl c"));
        ctx.acquire(&a, site!("nl acq a"));
        ctx.acquire(&b, site!("nl acq b"));
        ctx.release(&a, site!("nl rel a")); // out of order
        ctx.acquire(&c, site!("nl acq c"));
        ctx.release(&c, site!("nl rel c"));
        ctx.release(&b, site!("nl rel b"));
    });
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
    // The acquire of c sees only b held (a was released).
    let mut held = Vec::new();
    let mut held_at_c = None;
    for e in r.trace.events() {
        match &e.kind {
            EventKind::Acquire { lock, site, .. } => {
                if site.as_str().contains("nl acq c") {
                    held_at_c = Some(held.clone());
                }
                held.push(*lock);
            }
            EventKind::Release { lock, .. } => held.retain(|l| l != lock),
            _ => {}
        }
    }
    assert_eq!(held_at_c.expect("acquire of c recorded").len(), 1);
}

#[test]
fn deep_reentrancy_balances() {
    let r = rt().run(Box::new(FifoStrategy::new()), |ctx| {
        let l = ctx.new_lock(site!("deep l"));
        for _ in 0..5 {
            ctx.acquire(&l, site!("deep acq"));
        }
        for _ in 0..5 {
            ctx.release(&l, site!("deep rel"));
        }
        // Fully released: another acquire records a fresh first
        // acquisition.
        ctx.acquire(&l, site!("deep acq2"));
        ctx.release(&l, site!("deep rel2"));
    });
    assert!(r.outcome.is_completed());
    assert_eq!(r.trace.acquire_count(), 2, "two first acquisitions");
    let reacquires = r
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Reacquire { .. }))
        .count();
    assert_eq!(reacquires, 4);
}

#[test]
fn unbalanced_release_after_reentrancy_is_an_error() {
    let r = rt().run(Box::new(FifoStrategy::new()), |ctx| {
        let l = ctx.new_lock(site!("ub l"));
        ctx.acquire(&l, site!("ub acq"));
        ctx.release(&l, site!("ub rel"));
        ctx.release(&l, site!("ub rel again")); // not held anymore
    });
    assert!(matches!(r.outcome, Outcome::ProgramPanic(_)));
}

#[test]
fn guard_unlock_is_idempotent_with_drop() {
    let r = rt().run(Box::new(FifoStrategy::new()), |ctx| {
        let l = ctx.new_lock(site!("gi l"));
        let g = ctx.lock(&l, site!("gi acq"));
        g.unlock(); // explicit early release; drop must not double-release
        ctx.acquire(&l, site!("gi acq2"));
        ctx.release(&l, site!("gi rel2"));
    });
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
}

#[test]
fn child_threads_get_fresh_execution_index_state() {
    // Each spawned thread starts its own §2.4.2 counters: two children
    // allocating at the same site in the same position get count 1 each,
    // and are distinguished by their *thread* identity instead.
    let r = rt().run(Box::new(RoundRobinStrategy::new()), |ctx| {
        let collected = Shared::new(Vec::<df_events::ObjId>::new());
        let mut children = Vec::new();
        for i in 0..2 {
            let collected = collected.clone();
            children.push(ctx.spawn(site!("ei spawn"), &format!("c{i}"), move |ctx| {
                let l = ctx.new_lock(site!("ei child alloc"));
                collected.with(|v| v.push(l.id()));
            }));
        }
        for c in &children {
            ctx.join(c, site!());
        }
    });
    assert!(r.outcome.is_completed());
    let locks: Vec<_> = r
        .trace
        .objects()
        .iter()
        .filter(|m| m.kind == ObjKind::Lock)
        .collect();
    assert_eq!(locks.len(), 2);
    // Same site, same index (both are the thread's first allocation at
    // depth 0) — identical absI, distinct only dynamically.
    assert_eq!(locks[0].site, locks[1].site);
    assert_eq!(locks[0].index, locks[1].index);
}

#[test]
fn spawn_tree_exec_indices_nest() {
    // main spawns A; A spawns B. B's thread object carries A's call
    // context at the spawn site.
    let r = rt().run(Box::new(RoundRobinStrategy::new()), |ctx| {
        let a = ctx.spawn(site!("tree spawn A"), "A", |ctx| {
            ctx.scope(site!("tree A.run"), || {
                let b = ctx.spawn(site!("tree spawn B"), "B", |ctx| ctx.yield_now());
                ctx.join(&b, site!());
            });
        });
        ctx.join(&a, site!());
    });
    assert!(r.outcome.is_completed());
    let b_obj = r.trace.thread_obj(ThreadId::new(2)).expect("B bound");
    let meta = r.trace.objects().get(b_obj);
    assert_eq!(
        meta.index.len(),
        2,
        "call frame + spawn frame: {:?}",
        meta.index
    );
    assert!(meta.index[0].site.as_str().contains("tree A.run"));
    assert!(meta.index[1].site.as_str().contains("tree spawn B"));
}

#[test]
fn many_threads_many_locks_scale_smoke() {
    // 12 threads hammering 6 locks in ascending order: no deadlock, and
    // the run stays within the step budget.
    let r = rt().run(Box::new(RoundRobinStrategy::new()), |ctx| {
        let locks: Vec<_> = (0..6).map(|_| ctx.new_lock(site!("scale lock"))).collect();
        let mut children = Vec::new();
        for i in 0..12 {
            let locks = locks.clone();
            children.push(
                ctx.spawn(site!("scale spawn"), &format!("s{i}"), move |ctx| {
                    for round in 0..3 {
                        let x = (i + round) % locks.len();
                        let y = (x + 1) % locks.len();
                        let (lo, hi) = if x < y { (x, y) } else { (y, x) };
                        let g1 = ctx.lock(&locks[lo], site!("scale lo"));
                        let g2 = ctx.lock(&locks[hi], site!("scale hi"));
                        drop(g2);
                        drop(g1);
                        ctx.yield_now();
                    }
                }),
            );
        }
        for c in &children {
            ctx.join(c, site!());
        }
    });
    assert!(r.outcome.is_completed(), "{:?}", r.outcome);
    assert!(r.steps < 10_000);
}

#[test]
fn shared_cell_is_plain_data() {
    let cell = Shared::new(vec![1u8]);
    let clone = cell.clone();
    clone.with(|v| v.push(2));
    assert_eq!(cell.get(), vec![1, 2]);
}
