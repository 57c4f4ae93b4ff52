//! A read-mostly cache behind a reader/writer lock: the program's one
//! opposite-order nesting pairs two *shared* holds of the cache lock,
//! so it can never deadlock — readers coexist. A mode-blind dependency
//! join reports the inversion as a deadlock anyway; the mode-aware join
//! (read–read pruned at the bitset level) keeps the count at zero.
//!
//! This is the false-positive guard for the rwlock vocabulary: the
//! acceptance bar is *zero* cycles on this model, while the same trace
//! with its modes erased must still trip the blind join (proving the
//! zero is earned, not vacuous).

use std::sync::Arc;

use deadlock_fuzzer::{Named, ProgramRef};
use df_events::Label;
use df_runtime::{Shared, TCtx};

fn label(s: &str) -> Label {
    Label::new(s)
}

/// Concurrent reader threads.
pub const READERS: usize = 3;

/// Builds the read-mostly-cache model.
pub fn program() -> ProgramRef {
    Arc::new(Named::new("read-mostly-cache", |ctx: &TCtx| {
        let cache = ctx.new_lock(label("Cache.<init>: rwlock"));
        let stats = ctx.new_lock(label("Stats.<init>: lock"));
        let hits = Shared::new(0usize);

        let mut threads = Vec::new();
        // Readers: cache.read → stats (look the entry up, then count
        // the hit).
        for r in 0..READERS {
            let h = hits.clone();
            threads.push(ctx.spawn(
                label("App.startReader"),
                &format!("reader-{r}"),
                move |ctx| {
                    for _ in 0..2 {
                        ctx.acquire_shared(&cache, label("Cache.get: read"));
                        ctx.work(1);
                        ctx.acquire(&stats, label("Stats.hit: lock"));
                        h.with(|n| *n += 1);
                        ctx.release(&stats, label("Stats.hit: unlock"));
                        ctx.release(&cache, label("Cache.get: unlock"));
                    }
                },
            ));
        }

        // Reporter: stats → cache.read — the opposite order, but the
        // cache side is shared on *both* paths, so the inversion is
        // harmless: a read acquisition proceeds under a read hold.
        let h = hits.clone();
        threads.push(
            ctx.spawn(label("App.startReporter"), "reporter", move |ctx| {
                ctx.acquire(&stats, label("Stats.report: lock"));
                ctx.acquire_shared(&cache, label("Cache.size: read"));
                let _seen = h.with(|n| *n);
                ctx.release(&cache, label("Cache.size: unlock"));
                ctx.release(&stats, label("Stats.report: unlock"));
            }),
        );

        // Writer: refreshes under the exclusive lock and nests nothing,
        // keeping writes on the global lock order.
        threads.push(ctx.spawn(label("App.startWriter"), "writer", move |ctx| {
            for _ in 0..2 {
                ctx.acquire(&cache, label("Cache.refresh: write"));
                ctx.work(2);
                ctx.release(&cache, label("Cache.refresh: unlock"));
            }
        }));

        for t in &threads {
            ctx.join(t, label("App.join"));
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use deadlock_fuzzer::igoodlock::{
        igoodlock, IGoodlockOptions, LockDep, LockDependencyRelation,
    };
    use deadlock_fuzzer::{Config, DeadlockFuzzer};
    use df_events::AcquireMode;

    #[test]
    fn mode_aware_join_reports_zero_cycles() {
        let fuzzer = DeadlockFuzzer::from_ref(program(), Config::default());
        let p1 = fuzzer.phase1();
        assert!(p1.run_outcome.is_completed(), "{:?}", p1.run_outcome);
        assert_eq!(
            p1.cycle_count(),
            0,
            "read–read inversions are not deadlocks: {p1}"
        );
    }

    #[test]
    fn the_zero_is_earned_not_vacuous() {
        // Erase the modes from the very trace Phase I observed: the
        // blind join must flag the stats/cache inversion, proving the
        // mode-aware zero comes from the read–read pruning and not from
        // the inversion failing to be recorded.
        let fuzzer = DeadlockFuzzer::from_ref(program(), Config::default());
        let recorded = fuzzer.observe(df_events::SinkHandle::none(), true);
        let relation = LockDependencyRelation::from_trace(&recorded.trace);
        let blind: Vec<LockDep> = relation
            .deps()
            .iter()
            .cloned()
            .map(|mut d| {
                d.mode = AcquireMode::Exclusive;
                d.hold_modes = vec![AcquireMode::Exclusive; d.lockset.len()];
                d
            })
            .collect();
        let blind_relation = LockDependencyRelation::from_deps(blind);
        let cycles = igoodlock(&blind_relation, &IGoodlockOptions::default());
        assert!(
            !cycles.is_empty(),
            "with modes erased the inversion must be flagged"
        );
    }
}
