//! Capstone integration test: the active-testing recipe end to end. A
//! service with a lock-order inversion buried among other schedule
//! points is analyzed by iGoodlock, and the biased scheduler then
//! *creates* the predicted deadlock, confirming the paper's framing of
//! DeadlockFuzzer as predict-then-create.

use deadlock_fuzzer::prelude::*;

fn label(s: &str) -> Label {
    Label::new(s)
}

/// A job queue whose workers take the queue and stats locks in opposite
/// orders — a deadlock.
fn buggy_service(ctx: &TCtx) {
    let queue_lock = ctx.new_lock(label("Service.queueLock"));
    let stats_lock = ctx.new_lock(label("Service.statsLock"));
    ctx.work(1);

    let submitter = ctx.spawn(label("Service.startSubmitter"), "submitter", move |ctx| {
        ctx.work(6);
        // submit(): queue → stats.
        let gq = ctx.lock(&queue_lock, label("Service.submit: queue"));
        let gs = ctx.lock(&stats_lock, label("Service.submit: stats"));
        ctx.work(1);
        drop(gs);
        drop(gq);
    });
    let reporter = ctx.spawn(label("Service.startReporter"), "reporter", move |ctx| {
        // report(): stats → queue (the inversion).
        let gs = ctx.lock(&stats_lock, label("Service.report: stats"));
        let gq = ctx.lock(&queue_lock, label("Service.report: queue"));
        drop(gq);
        drop(gs);
        ctx.work(4);
        ctx.work(1);
    });
    ctx.join(&submitter, label("Service.join"));
    ctx.join(&reporter, label("Service.join"));
}

#[test]
fn deadlock_checker_confirms_the_inversion() {
    let fuzzer = DeadlockFuzzer::with_config(
        Named::new("buggy-service", buggy_service),
        Config::default().with_confirm_trials(8),
    );
    let report = fuzzer.run();
    assert_eq!(report.potential_count(), 1, "the queue/stats inversion");
    assert_eq!(report.confirmed_count(), 1);
    assert_eq!(report.confirmations[0].probability.matched, 8);
}
