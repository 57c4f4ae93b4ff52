//! Handoff park floor: when the token moves between the only two
//! threads that can run, the waiter yields its carrier until it is
//! picked instead of parking, so most switches wake no one. Counts, not
//! timings: the floor is loose enough for a loaded machine.
//!
//! This file holds one test, so the process-wide park counter sees no
//! other run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use df_events::{site, ThreadId};
use df_runtime::{
    carrier_parks, Directive, Outcome, RunConfig, StateView, Strategy, VirtualRuntime,
};

/// Runs the thread that did not run last whenever it is enabled, and
/// counts the picks that switch threads.
struct Alternate {
    last: Option<ThreadId>,
    switches: Arc<AtomicUsize>,
}

impl Strategy for Alternate {
    fn pick(&mut self, _view: &StateView<'_>, enabled: &[ThreadId]) -> Directive {
        let t = enabled
            .iter()
            .copied()
            .find(|&t| Some(t) != self.last)
            .unwrap_or(enabled[0]);
        if self.last.is_some_and(|last| last != t) {
            self.switches.fetch_add(1, Ordering::Relaxed);
        }
        self.last = Some(t);
        Directive::Run(t)
    }
}

#[test]
fn two_alternating_threads_park_on_fewer_than_half_their_switches() {
    const ROUNDS: usize = 2_500;
    let switches = Arc::new(AtomicUsize::new(0));
    let strategy = Alternate {
        last: None,
        switches: Arc::clone(&switches),
    };
    let before = carrier_parks();
    let r = VirtualRuntime::new(RunConfig::default()).run(Box::new(strategy), |ctx| {
        let child = ctx.spawn(site!("alternate spawn"), "other", |ctx| {
            for _ in 0..ROUNDS {
                ctx.yield_now();
            }
        });
        for _ in 0..ROUNDS {
            ctx.yield_now();
        }
        ctx.join(&child, site!("alternate join"));
    });
    let parks = carrier_parks() - before;
    assert_eq!(r.outcome, Outcome::Completed);
    assert!(r.steps >= 4_000, "{} schedule points", r.steps);
    let switches = switches.load(Ordering::Relaxed) as u64;
    println!(
        "{} schedule points, {switches} switches, {parks} carrier parks ({:.3} per switch)",
        r.steps,
        parks as f64 / switches as f64
    );
    assert!(
        parks * 2 < switches,
        "{parks} carrier parks for {switches} switches: a waiter of two parks instead of yielding"
    );
}
