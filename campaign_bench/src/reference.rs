//! The reference workload: a fixed piece of std-only work timed between
//! campaigns, so campaign time can be stated in units of it.
//!
//! On a shared host the speed of identical work drifts by a quarter
//! between 20-second windows, and the drift moves the reference workload
//! with the campaign. Dividing one by the other cancels the host and
//! keeps the code: the reference uses nothing from this repository, so
//! no change to the repository can move it.

use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Threads in the token ring: enough to make every handoff wake several
/// sleepers, as the virtual runtime's scheduler does.
const RING_THREADS: usize = 8;
/// Token passes around the ring per run.
const RING_PASSES: usize = 4_000;
/// Elements per sort: 128 KiB, small enough that the buffer the
/// allocator keeps afterwards does not show in the next campaign's peak
/// resident set.
const SORT_LEN: usize = 1 << 14;
/// Sorts per run.
const SORTS: usize = 64;

/// The reference workload. Its ring threads live as long as it does, so
/// timing it starts no threads between campaigns: starting eight fresh
/// threads after every campaign raised the next campaigns' peak resident
/// set (native-spill's by a third).
pub struct Reference {
    ring: Arc<Ring>,
    threads: Vec<JoinHandle<()>>,
}

struct Ring {
    state: Mutex<Token>,
    turn: Condvar,
}

struct Token {
    /// Passes made in the current run; `RING_PASSES` when idle.
    passes: usize,
    stop: bool,
}

impl Ring {
    fn lock(&self) -> MutexGuard<'_, Token> {
        self.state.lock().expect("token lock poisoned")
    }
}

impl Reference {
    /// Starts the ring threads, idle until [`Reference::run_s`].
    pub fn new() -> Reference {
        let ring = Arc::new(Ring {
            state: Mutex::new(Token {
                passes: RING_PASSES,
                stop: false,
            }),
            turn: Condvar::new(),
        });
        let threads = (0..RING_THREADS)
            .map(|me| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    let mut token = ring.lock();
                    while !token.stop {
                        if token.passes < RING_PASSES && token.passes % RING_THREADS == me {
                            token.passes += 1;
                            ring.turn.notify_all();
                        } else {
                            token = ring.turn.wait(token).expect("token lock poisoned");
                        }
                    }
                })
            })
            .collect();
        Reference { ring, threads }
    }

    /// Wall seconds of one reference run: sort pseudo-random integers,
    /// then pass a token around the ring over one mutex and condvar. The
    /// two halves follow the two kinds of work the workloads do:
    /// computing over memory, and handing control between OS threads.
    pub fn run_s(&self) -> f64 {
        let start = Instant::now();
        sort_kernel();
        let mut token = self.ring.lock();
        token.passes = 0;
        self.ring.turn.notify_all();
        while token.passes < RING_PASSES {
            token = self.ring.turn.wait(token).expect("token lock poisoned");
        }
        drop(token);
        start.elapsed().as_secs_f64()
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        // A poisoned lock still stops the ring: its threads must end to be
        // joined.
        let mut token = self
            .ring
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        token.stop = true;
        drop(token);
        self.ring.turn.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn sort_kernel() {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut v = vec![0u64; SORT_LEN];
    for _ in 0..SORTS {
        for slot in v.iter_mut() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *slot = x >> 11;
        }
        v.sort_unstable();
        black_box(&v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_runs_repeatedly_and_stops_on_drop() {
        let reference = Reference::new();
        assert!(reference.run_s() > 0.0);
        assert!(reference.run_s() > 0.0);
        drop(reference);
    }
}
