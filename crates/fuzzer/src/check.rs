//! Algorithm 4: `checkRealDeadlock`.

use df_events::{AcquireMode, ObjId, ThreadId};
use df_runtime::{DeadlockWitness, Detector, PendingOp, StateView, WaitForGraph, WitnessComponent};

/// Algorithm 4 of the paper, evaluated over the live execution state.
///
/// The paper's formulation looks for distinct threads `t_1 … t_m` and locks
/// `l_1 … l_m` with `l_i` *before* `l_{i+1}` in `LockSet[t_i]` (cyclically)
/// — where a thread *blocked in* an acquire keeps the target lock pushed on
/// its lock set. In this runtime, blocked threads announce their pending
/// acquire instead of pushing it, so the check is: build the wait-for
/// graph of
///
/// * held locks (every thread's lock stack),
/// * pending acquires of threads that are blocked (their lock is held by
///   someone else), and
/// * `candidate`'s pending acquire of `candidate_lock` (the acquire the
///   scheduler is about to let happen — the "push" of Algorithm 3 line 9),
///
/// and report a cycle as a real deadlock. Intended acquires of *paused*
/// threads count as edges too (even though Algorithm 3 as printed pops the
/// lock when pausing): a paused thread is one schedule decision away from
/// the acquire, and a cycle through it can always be driven to the actual
/// blocked state by releasing the paused threads one by one — every lock
/// in the cycle is held by a cycle member, so no one can escape. This is
/// what lets DeadlockFuzzer confirm a deadlock with *zero* thrashes
/// (Table 1 reports 0.00 average thrashes for Logging and DBCP at
/// probability 1.00, which is impossible if paused intents are invisible
/// to the check).
///
/// `graph` is the caller's scratch: it is cleared and refilled, so a
/// caller that checks at every pick (as [`crate::ActiveStrategy`] does)
/// keeps one graph and allocates only when a cycle is found.
///
/// Returns the witness if the acquire closes a cycle.
pub fn check_real_deadlock(
    view: &StateView<'_>,
    candidate: ThreadId,
    candidate_lock: ObjId,
    candidate_mode: AcquireMode,
    graph: &mut WaitForGraph,
) -> Option<DeadlockWitness> {
    let add_wait =
        |graph: &mut WaitForGraph, t: ThreadId, lock: ObjId, mode: AcquireMode| match mode {
            AcquireMode::Exclusive => graph.add_waits(t, lock),
            AcquireMode::Shared => graph.add_waits_shared(t, lock),
        };
    graph.clear();
    for t in view.threads() {
        for &held in t.lock_stack {
            // A lock on the stack whose owner is someone else (or nobody)
            // is a shared hold: the runtime pushes read holds on the same
            // stack but only exclusive holds set the owner.
            if view.lock_owner(held) == Some(t.id) {
                graph.add_holds(t.id, held);
            } else {
                graph.add_holds_shared(t.id, held);
            }
        }
        if t.id == candidate {
            add_wait(graph, t.id, candidate_lock, candidate_mode);
            continue;
        }
        // Any announced acquire whose lock is currently held by another
        // thread in a conflicting mode is a wait-for edge — whether the
        // thread is blocked in the acquire or paused just before it. (An
        // acquire of a free lock can never be part of a cycle: a cycle
        // needs the lock to be held by a cycle member. Likewise a read of
        // a read-held lock never blocks, so it contributes no edge.)
        let wanted = match t.pending {
            Some(PendingOp::Acquire { lock, mode, .. }) => Some((*lock, *mode)),
            Some(PendingOp::WaitReacquire { lock, .. }) => Some((*lock, AcquireMode::Exclusive)),
            _ => None,
        };
        if let Some((lock, mode)) = wanted {
            let writer_is_other = view.lock_owner(lock).map(|o| o != t.id).unwrap_or(false);
            let blocked = match mode {
                AcquireMode::Exclusive => writer_is_other || view.read_held_by_other(lock, t.id),
                AcquireMode::Shared => writer_is_other,
            };
            if blocked {
                add_wait(graph, t.id, lock, mode);
            }
        }
    }
    let cycle = graph.find_cycle()?;
    let components = cycle
        .iter()
        .map(|&tid| {
            let t = view.thread(tid);
            let waiting_for = graph
                .waiting_for(tid)
                .expect("cycle thread waits for a lock");
            let (site, waiting_mode) = match t.pending {
                Some(PendingOp::Acquire { site, mode, .. }) => (Some(*site), *mode),
                Some(PendingOp::WaitReacquire { site, .. }) => {
                    (Some(*site), AcquireMode::Exclusive)
                }
                _ => (None, AcquireMode::Exclusive),
            };
            let mut context = t.context_stack.to_vec();
            if let Some(site) = site {
                context.push(site);
            }
            let holding = t.lock_stack.to_vec();
            let holding_modes = holding
                .iter()
                .map(|&l| {
                    if view.lock_owner(l) == Some(tid) {
                        AcquireMode::Exclusive
                    } else {
                        AcquireMode::Shared
                    }
                })
                .collect();
            WitnessComponent {
                thread: tid,
                thread_obj: t.obj,
                thread_name: Some(t.name.to_string()),
                holding,
                holding_modes,
                waiting_for,
                waiting_mode,
                context,
            }
        })
        .collect();
    Some(DeadlockWitness {
        components,
        detected_by: Detector::Strategy,
    })
}

// Unit coverage for `check_real_deadlock` requires a live `StateView`; it
// is exercised end-to-end in `active.rs` tests and in the integration
// suite (a strategy that feeds known states through the runtime).
