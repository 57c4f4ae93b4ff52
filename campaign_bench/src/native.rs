//! The native-spill workload: OS threads under a df-lock [`Tracker`]
//! spill a binary trace into memory through the ring writer, and the
//! spill is analyzed the way `dfz analyze` does it.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use deadlock_fuzzer::abstraction::Abstractor;
use deadlock_fuzzer::events::{read_trace_bytes, SpillConfig, TraceFormat};
use deadlock_fuzzer::igoodlock::{
    igoodlock_parallel, AbstractCycle, IGoodlockStats, LockDependencyRelation,
};
use deadlock_fuzzer::lock::{TrackedMutex, Tracker, TrackerConfig};
use deadlock_fuzzer::Config;

use crate::spans::Tracer;

const THREADS: usize = 2;
const LOCKS: usize = 16;
/// Ring capacity of the measured spill, in frames.
pub const RING_FRAMES: usize = 4096;

/// The generated program: per worker thread, the ordered lock pairs it
/// takes nested. Pairs are always taken low index first, so the only
/// cycle in the program is the planted inversion.
pub struct NativeInput {
    pairs: Arc<Vec<Vec<(u8, u8)>>>,
}

impl NativeInput {
    /// `pairs_per_thread` ordered pairs for each of the two workers,
    /// drawn from an LCG seeded with `seed`.
    pub fn generate(pairs_per_thread: usize, seed: u64) -> Self {
        let mut state = seed ^ 0x2545_F491_4F6C_DD1D;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % LOCKS
        };
        let pairs = (0..THREADS)
            .map(|_| {
                (0..pairs_per_thread)
                    .map(|_| loop {
                        let (x, y) = (next(), next());
                        if x != y {
                            break (x.min(y) as u8, x.max(y) as u8);
                        }
                    })
                    .collect()
            })
            .collect();
        NativeInput {
            pairs: Arc::new(pairs),
        }
    }

    /// Lock operations (acquires plus releases) one run performs.
    pub fn lock_ops(&self) -> u64 {
        let pairs: usize = self.pairs.iter().map(Vec::len).sum();
        4 * (pairs as u64 + 2)
    }
}

/// A `Write` target shared with the spill-writer thread.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("spill buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One tracked run, from program start to spill closed.
pub struct Recording {
    /// The sealed binary artifact.
    pub bytes: Vec<u8>,
    /// Events the spill reported on close.
    pub events: u64,
    /// Wall time from program start to spill closed.
    pub seconds: f64,
    /// Times the emitting threads found the ring full.
    pub backpressure_waits: u64,
    /// Non-reentrant acquisitions the tracker saw.
    pub acquires: u64,
    /// Wait-for-graph edges: one per contended acquisition.
    pub wfg_edges: u64,
}

/// What the analysis of one recording found.
pub struct Analysis {
    /// Events `read_trace_bytes` decoded.
    pub decoded: u64,
    /// Lock dependency tuples.
    pub relation_size: usize,
    /// Join statistics.
    pub stats: IGoodlockStats,
    /// Predicted cycles under the default abstraction.
    pub cycles: Vec<AbstractCycle>,
}

/// Runs the program under a fresh tracker spilling into memory with a
/// ring of `ring_frames` (0 = synchronous spill).
///
/// # Errors
///
/// Returns the spill error, as text.
pub fn record(
    input: &NativeInput,
    ring_frames: usize,
    tr: &Tracer,
    parent: Option<u32>,
) -> Result<Recording, String> {
    let buf = SharedBuf::default();
    let spill = SpillConfig::with_format(TraceFormat::Binary).with_ring(ring_frames);
    let start = Instant::now();
    let (tracker, sink) = tr.span(parent, "record", |_| {
        let (config, sink) = TrackerConfig::default()
            .with_spill(buf.clone(), &spill)
            .map_err(|e| e.to_string())?;
        let tracker = Tracker::new(config);
        run_program(&tracker, input);
        Ok::<_, String>((tracker, sink))
    })?;
    tr.span(parent, "seal", |_| tracker.seal());
    let mut sink = sink.lock().expect("spill sink poisoned");
    let backpressure_waits = sink.backpressure_waits();
    let (events, _) = tr
        .span(parent, "close", |_| sink.close())
        .map_err(|e| e.to_string())?;
    let seconds = start.elapsed().as_secs_f64();
    let counters = tracker.obs().counters().snapshot();
    let bytes = std::mem::take(&mut *buf.0.lock().expect("spill buffer poisoned"));
    Ok(Recording {
        bytes,
        events,
        seconds,
        backpressure_waits,
        acquires: counters.acquires_observed,
        wfg_edges: counters.wfg_edges,
    })
}

/// `dfz analyze` on the artifact: decode, build the relation, join,
/// abstract.
///
/// # Errors
///
/// Returns the decoding error, as text.
pub fn analyze(bytes: &[u8], tr: &Tracer, parent: Option<u32>) -> Result<Analysis, String> {
    let config = Config::default();
    let trace = tr
        .span(parent, "read", |_| read_trace_bytes(bytes))
        .map_err(|e| e.to_string())?;
    let relation = tr.span(parent, "relation", |_| {
        LockDependencyRelation::from_trace(&trace)
    });
    let (cycles, stats, _) = tr.span(parent, "join", |_| {
        igoodlock_parallel(&relation, None, &config.igoodlock, config.phase1_jobs)
    });
    let abstractor = Abstractor::new(config.mode);
    let cycles = tr.span(parent, "abstract", |_| {
        cycles
            .iter()
            .map(|c| c.abstract_with(trace.objects(), &abstractor))
            .collect()
    });
    Ok(Analysis {
        decoded: trace.events().len() as u64,
        relation_size: relation.len(),
        stats,
        cycles,
    })
}

/// The tracked program: two workers take their ordered pairs
/// concurrently, then two threads run the planted inversion one after
/// the other (joined in between, so it never deadlocks).
fn run_program(tracker: &Tracker, input: &NativeInput) {
    let locks: Arc<Vec<TrackedMutex<u64>>> = Arc::new(
        (0..LOCKS)
            .map(|_| TrackedMutex::with_tracker(tracker, 0))
            .collect(),
    );
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let locks = Arc::clone(&locks);
            let pairs = Arc::clone(&input.pairs);
            tracker.spawn(&format!("worker-{t}"), move || {
                for &(lo, hi) in &pairs[t] {
                    let mut outer = locks[lo as usize].lock().expect("worker lock poisoned");
                    let mut inner = locks[hi as usize].lock().expect("worker lock poisoned");
                    *inner += 1;
                    *outer += 1;
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }
    let x = Arc::new(TrackedMutex::with_tracker(tracker, ()));
    let y = Arc::new(TrackedMutex::with_tracker(tracker, ()));
    for (name, first, second) in [("inversion-a", &x, &y), ("inversion-b", &y, &x)] {
        let (first, second) = (Arc::clone(first), Arc::clone(second));
        tracker
            .spawn(name, move || {
                let _outer = first.lock().expect("inversion lock poisoned");
                let _inner = second.lock().expect("inversion lock poisoned");
            })
            .join()
            .expect("inversion thread panicked");
    }
}

/// The same program on plain `std::sync::Mutex`: the uninstrumented
/// control for the tracker's per-operation cost. Returns seconds.
pub fn plain_run(input: &NativeInput) -> f64 {
    let start = Instant::now();
    let locks: Vec<Mutex<u64>> = (0..LOCKS).map(|_| Mutex::new(0)).collect();
    std::thread::scope(|s| {
        for pairs in input.pairs.iter() {
            let locks = &locks;
            s.spawn(move || {
                for &(lo, hi) in pairs {
                    let mut outer = locks[lo as usize].lock().expect("lock poisoned");
                    let mut inner = locks[hi as usize].lock().expect("lock poisoned");
                    *inner += 1;
                    *outer += 1;
                }
            });
        }
    });
    let (x, y) = (Mutex::new(()), Mutex::new(()));
    for (first, second) in [(&x, &y), (&y, &x)] {
        std::thread::scope(|s| {
            s.spawn(|| {
                let _outer = first.lock().expect("lock poisoned");
                let _inner = second.lock().expect("lock poisoned");
            });
        });
    }
    start.elapsed().as_secs_f64()
}
