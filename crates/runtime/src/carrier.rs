//! Carrier threads: the OS threads that virtual threads run on.
//!
//! Starting an OS thread costs tens of microseconds, which used to be a
//! large share of a short Phase II trial. Instead, a process-wide pool
//! keeps finished carriers parked and hands each new virtual thread to
//! an idle one; a carrier is started only when none is idle. Carriers
//! hold no scheduling state (the controller decides everything), so
//! concurrent runs may share the pool without affecting each other's
//! schedules.
//!
//! A run counts its virtual threads still on a carrier in a [`Tally`]
//! and waits for it to reach zero instead of joining OS threads. A
//! carrier drops the virtual thread's closure (and with it the run's
//! controller) and puts itself back on the idle list *before* it leaves
//! the tally, so a returned run has released everything a join would
//! have, and its next trial finds the carriers idle. A hung run does not
//! wait: its stuck carriers never come back and the pool starts
//! replacements.
//!
//! A parked carrier keeps the allocator's per-thread cache of the blocks
//! its virtual threads freed, which only the thread's exit returns. A
//! caller that has finished a batch of runs therefore calls
//! [`retire_idle_carriers`], and the next batch starts fresh carriers.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// A virtual thread's body plus the tally of the run it belongs to.
struct Work {
    body: Box<dyn FnOnce() + Send>,
    tally: Arc<Tally>,
}

/// What a parked carrier is handed.
enum Job {
    Run(Work),
    Retire,
}

/// A parked carrier's hand-off slot.
#[derive(Default)]
struct Slot {
    job: Mutex<Option<Job>>,
    ready: Condvar,
}

impl Slot {
    /// Parks until the slot is filled.
    fn wait(&self) -> Job {
        let mut job = self.job.lock();
        loop {
            if let Some(j) = job.take() {
                return j;
            }
            self.ready.wait(&mut job);
        }
    }

    fn hand(&self, job: Job) {
        *self.job.lock() = Some(job);
        self.ready.notify_one();
    }
}

/// Idle carriers, most recently parked last.
static IDLE: Mutex<Vec<Arc<Slot>>> = Mutex::new(Vec::new());

/// Carriers started since the process began.
static STARTED: AtomicU64 = AtomicU64::new(0);

/// The number of carrier threads this process has started — how tests
/// check that runs reuse carriers instead of starting new ones.
#[doc(hidden)]
pub fn carriers_started() -> u64 {
    STARTED.load(Ordering::Relaxed)
}

/// Parks of a waiting virtual thread's carrier since the process began.
static PARKS: AtomicU64 = AtomicU64::new(0);

/// The number of times a virtual thread waiting for its pick has parked
/// its carrier in this process — how tests check that a handoff between
/// two threads mostly finds the waiter awake instead of waking it.
#[doc(hidden)]
pub fn carrier_parks() -> u64 {
    PARKS.load(Ordering::Relaxed)
}

/// Parks the calling carrier until it is unparked, counted in
/// [`carrier_parks`].
pub(crate) fn park() {
    PARKS.fetch_add(1, Ordering::Relaxed);
    std::thread::park();
}

/// The virtual threads of one run that are still on a carrier.
#[derive(Default)]
pub(crate) struct Tally {
    live: Mutex<usize>,
    empty: Condvar,
}

impl Tally {
    fn leave(&self) {
        let mut live = self.live.lock();
        *live -= 1;
        if *live == 0 {
            self.empty.notify_all();
        }
    }

    /// Blocks until every virtual thread launched under this tally has
    /// left its carrier.
    pub(crate) fn wait_empty(&self) {
        let mut live = self.live.lock();
        while *live > 0 {
            self.empty.wait(&mut live);
        }
    }
}

/// Runs `body` on an idle carrier, or on a new one if none is idle,
/// counting it in `tally` until the carrier is free again.
pub(crate) fn launch(tally: &Arc<Tally>, body: impl FnOnce() + Send + 'static) {
    *tally.live.lock() += 1;
    let work = Work {
        body: Box::new(body),
        tally: Arc::clone(tally),
    };
    let idle = IDLE.lock().pop();
    match idle {
        Some(slot) => slot.hand(Job::Run(work)),
        None => {
            let started = std::thread::Builder::new()
                .name("df-carrier".to_string())
                .spawn(move || carry(Arc::new(Slot::default()), work));
            if let Err(e) = started {
                // The work never ran: leave the tally, or the run would
                // wait for it forever once the panic ends it.
                tally.leave();
                panic!("failed to spawn a carrier OS thread: {e}");
            }
            STARTED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Lets every idle carrier exit, returning the memory its allocator
/// cache holds. Runs started afterwards start new carriers; carriers busy
/// with a virtual thread are not affected.
///
/// The pipeline calls this when a batch of trials ends: the batch reuses
/// its carriers from trial to trial, and what follows it (the next
/// cycle's batch, the next campaign's Phase I join) does not keep them
/// and their caches parked.
pub fn retire_idle_carriers() {
    let idle = std::mem::take(&mut *IDLE.lock());
    for slot in idle {
        slot.hand(Job::Retire);
    }
}

/// A carrier's loop: run the work, return to the idle list, leave the
/// run's tally, park until handed more work or retired.
fn carry(slot: Arc<Slot>, mut work: Work) {
    loop {
        let Work { body, tally } = work;
        // A panic that escapes the body must still free the carrier and
        // leave the tally, or its run would wait forever. Unwinding drops
        // the closure either way.
        let _ = panic::catch_unwind(AssertUnwindSafe(body));
        IDLE.lock().push(Arc::clone(&slot));
        tally.leave();
        drop(tally);
        match slot.wait() {
            Job::Run(next) => work = next,
            Job::Retire => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_body_still_leaves_the_tally() {
        let tally = Arc::new(Tally::default());
        launch(&tally, || panic!("escaped its virtual thread"));
        launch(&tally, || {});
        tally.wait_empty();
    }
}
