//! Quickstart: the paper's Figure 1 example, end to end.
//!
//! Two threads acquire two locks in opposite orders, but the first thread
//! runs "long running methods" first, so stress testing almost never
//! trips the deadlock. DeadlockFuzzer (1) predicts the cycle from one
//! ordinary execution, then (2) *creates* the deadlock deterministically.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use deadlock_fuzzer::prelude::*;

fn label(s: &str) -> Label {
    Label::new(s)
}

/// Figure 1 of the paper, transcribed to the virtual-thread API.
fn figure1() -> Named<impl Program> {
    Named::new("figure1", |ctx: &TCtx| {
        // main (lines 21-28): two locks, two MyThread instances.
        let o1 = ctx.new_lock(label("main:22"));
        let o2 = ctx.new_lock(label("main:23"));
        let run = |l1: LockRef, l2: LockRef, flag: bool| {
            move |ctx: &TCtx| {
                if flag {
                    ctx.work(8); // f1() .. f4(): long running methods
                }
                ctx.acquire(&l1, label("run:15"));
                ctx.acquire(&l2, label("run:16"));
                ctx.release(&l2, label("run:17"));
                ctx.release(&l1, label("run:18"));
            }
        };
        let t1 = ctx.spawn(label("main:25"), "t1", run(o1, o2, true));
        let t2 = ctx.spawn(label("main:26"), "t2", run(o2, o1, false));
        ctx.join(&t1, label("main: join"));
        ctx.join(&t2, label("main: join"));
    })
}

fn main() {
    let fuzzer = DeadlockFuzzer::with_config(figure1(), Config::default().with_confirm_trials(20));

    // Control: plain random testing does not find the deadlock.
    let baseline_deadlocks = fuzzer.baseline(20).expect("trials > 0").deadlocks;
    println!("plain random testing: {baseline_deadlocks}/20 runs deadlocked");

    // Phase I: observe one execution, predict potential cycles.
    let phase1 = fuzzer.phase1();
    println!("\n--- Phase I (iGoodlock) ---\n{phase1}");

    // Phase II: create each predicted cycle.
    let report = fuzzer.run();
    println!("--- Phase II (active random scheduler) ---\n{report}");

    let conf = &report.confirmations[0];
    println!(
        "Figure 1's deadlock was created in {}/{} biased runs (paper: probability 1).",
        conf.probability.matched, conf.probability.trials
    );
    if let Some(first) = fuzzer
        .phase2(&report.confirmations[0].cycle, 1)
        .witness
        .as_ref()
    {
        println!("\nA concrete witness:\n{first}");
    }
}
