//! The record layer of a natively-threaded run, split by what a tracked
//! lock operation pays for: the lock-pair loop of the repository
//! benchmark's native-spill workload (ordered pairs over 16 mutexes,
//! taken nested), timed on plain `std::sync::Mutex`, under a df-lock
//! [`Tracker`] without a sink, with a sink that only counts, and with a
//! binary spill into memory — each on one OS thread and on two that
//! split the same pairs between them. The differences between rows are
//! the costs of tracking, of delivering to a sink and of encoding.
//!
//! The two-thread rows vary from rep to rep with how often the threads
//! collide, so each row reports the median of its reps beside the best,
//! and its contended acquisitions (the tracker's `wfg_edges`: those
//! that outlasted the acquisition's spin).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use deadlock_fuzzer::lock::{TrackedMutex, Tracker, TrackerConfig};
use df_events::{Event, EventSink, SinkHandle, SpillConfig, TraceFormat};
use serde::Serialize;

/// Lock pairs one timed run takes in total: native-spill's two workers
/// take 150,000 each.
pub const LOCK_RECORD_PAIRS: usize = 300_000;

const LOCKS: usize = 16;

/// Reps a row takes at least, whatever the caller asks for, so that its
/// median is one rep's time rather than the mean of two.
const MIN_REPS: u32 = 5;

/// What a timed run records its lock operations through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Recorder {
    /// Untracked `std::sync::Mutex`es: the floor.
    Plain,
    /// `TrackedMutex`es under a tracker with no sink attached.
    Tracker,
    /// A tracker delivering to a sink that counts events.
    CountingSink,
    /// A tracker delivering to a binary [`df_events::SpillSink`] that
    /// writes into memory.
    BinarySpill,
}

impl Recorder {
    const ALL: [Recorder; 4] = [
        Recorder::Plain,
        Recorder::Tracker,
        Recorder::CountingSink,
        Recorder::BinarySpill,
    ];

    fn name(self) -> &'static str {
        match self {
            Recorder::Plain => "std-mutex",
            Recorder::Tracker => "tracker",
            Recorder::CountingSink => "counting-sink",
            Recorder::BinarySpill => "binary-spill",
        }
    }
}

/// One `lock_record` row of `BENCH_igoodlock.json`.
#[derive(Clone, Debug, Serialize)]
pub struct LockRecordRow {
    /// `std-mutex`, `tracker`, `counting-sink` or `binary-spill`.
    pub recorder: String,
    /// OS threads splitting the pairs.
    pub threads: usize,
    /// Lock operations (acquires plus releases) of the loop.
    pub ops: u64,
    /// Best-of-reps wall time of the loop, milliseconds.
    pub wall_ms: f64,
    /// Nanoseconds per lock operation at the best-of-reps time.
    pub ns_per_op: f64,
    /// Median-of-reps wall time of the loop, milliseconds.
    pub median_wall_ms: f64,
    /// Nanoseconds per lock operation at the median time.
    pub median_ns_per_op: f64,
    /// Median over the reps of the acquisitions that registered a wait
    /// (the tracker's `wfg_edges`; tracked rows only).
    pub contended: Option<u64>,
    /// Events the sink received (the counting sink and the spill only):
    /// checked against the operations the loop performed.
    pub events: Option<u64>,
}

/// One timed run of the loop.
struct Rep {
    seconds: f64,
    /// Contended acquisitions, under a tracker.
    contended: Option<u64>,
    /// Events a sink received.
    events: Option<u64>,
}

/// The middle of `values`, sorted in place (the lower middle of an even
/// count).
fn median<T: Copy + PartialOrd>(values: &mut [T]) -> T {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    values[(values.len() - 1) / 2]
}

/// Counts the events it is handed.
#[derive(Default)]
struct CountingSink(u64);

impl EventSink for CountingSink {
    fn on_event(&mut self, _event: &Event) {
        self.0 += 1;
    }
}

/// `pairs` ordered lock pairs per thread, low index first, drawn from
/// native-spill's generator.
fn generate_pairs(threads: usize, pairs: usize, seed: u64) -> Vec<Vec<(u8, u8)>> {
    let mut state = seed ^ 0x2545_F491_4F6C_DD1D;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % LOCKS
    };
    (0..threads)
        .map(|_| {
            (0..pairs)
                .map(|_| loop {
                    let (x, y) = (next(), next());
                    if x != y {
                        break (x.min(y) as u8, x.max(y) as u8);
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs the loop once: its wall time, and the tracker's contended
/// acquisitions and a sink's event count.
fn run_once(recorder: Recorder, work: &Arc<Vec<Vec<(u8, u8)>>>) -> Result<Rep, String> {
    if recorder == Recorder::Plain {
        let locks: Vec<Mutex<u64>> = (0..LOCKS).map(|_| Mutex::new(0)).collect();
        let start = Instant::now();
        std::thread::scope(|s| {
            for pairs in work.iter() {
                let locks = &locks;
                s.spawn(move || {
                    for &(lo, hi) in pairs {
                        let mut outer = locks[lo as usize].lock().expect("lock poisoned");
                        *locks[hi as usize].lock().expect("lock poisoned") += 1;
                        *outer += 1;
                    }
                });
            }
        });
        return Ok(Rep {
            seconds: start.elapsed().as_secs_f64(),
            contended: None,
            events: None,
        });
    }
    let counter = Arc::new(Mutex::new(CountingSink::default()));
    let (config, spill) = match recorder {
        Recorder::CountingSink => (
            TrackerConfig::default().with_sink(SinkHandle::single(counter.clone())),
            None,
        ),
        Recorder::BinarySpill => {
            let spill = SpillConfig::with_format(TraceFormat::Binary);
            let (config, sink) = TrackerConfig::default()
                .with_spill(Vec::new(), &spill)
                .map_err(|e| e.to_string())?;
            (config, Some(sink))
        }
        _ => (TrackerConfig::default(), None),
    };
    let tracker = Tracker::new(config);
    let locks: Arc<Vec<TrackedMutex<u64>>> = Arc::new(
        (0..LOCKS)
            .map(|_| TrackedMutex::with_tracker(&tracker, 0))
            .collect(),
    );
    let start = Instant::now();
    let workers: Vec<_> = (0..work.len())
        .map(|t| {
            let (locks, work) = (Arc::clone(&locks), Arc::clone(work));
            tracker.spawn(&format!("worker-{t}"), move || {
                for &(lo, hi) in &work[t] {
                    let mut outer = locks[lo as usize].lock().expect("lock poisoned");
                    *locks[hi as usize].lock().expect("lock poisoned") += 1;
                    *outer += 1;
                }
            })
        })
        .collect();
    for w in workers {
        w.join().map_err(|_| "worker panicked".to_string())?;
    }
    tracker.seal();
    let seconds = start.elapsed().as_secs_f64();
    let events = match (recorder, spill) {
        (Recorder::CountingSink, _) => Some(counter.lock().expect("sink poisoned").0),
        (_, Some(sink)) => {
            let (events, _) = sink
                .lock()
                .expect("spill poisoned")
                .close()
                .map_err(|e| e.to_string())?;
            Some(events)
        }
        _ => None,
    };
    Ok(Rep {
        seconds,
        contended: Some(tracker.obs().counters().snapshot().wfg_edges),
        events,
    })
}

/// Times the loop for every recorder on 1 and 2 threads, `pairs` pairs
/// in total, over `reps` reps (at least [`MIN_REPS`]): the best and the
/// median. Errors if a sink missed an operation.
pub fn lock_record_bench(pairs: usize, reps: u32) -> Result<Vec<LockRecordRow>, String> {
    let mut rows = Vec::new();
    for threads in [1, 2] {
        let work = Arc::new(generate_pairs(threads, pairs / threads, 0));
        let ops = 4 * (pairs / threads * threads) as u64;
        for recorder in Recorder::ALL {
            let reps = (0..reps.max(MIN_REPS))
                .map(|_| run_once(recorder, &work))
                .collect::<Result<Vec<Rep>, String>>()?;
            for n in reps.iter().filter_map(|r| r.events) {
                if n < ops {
                    return Err(format!(
                        "{} on {threads} thread(s) delivered {n} events for {ops} lock operations",
                        recorder.name()
                    ));
                }
            }
            let mut seconds: Vec<f64> = reps.iter().map(|r| r.seconds).collect();
            let mut contended: Vec<u64> = reps.iter().filter_map(|r| r.contended).collect();
            let best = seconds.iter().copied().fold(f64::INFINITY, f64::min);
            let mid = median(&mut seconds);
            rows.push(LockRecordRow {
                recorder: recorder.name().to_string(),
                threads,
                ops,
                wall_ms: best * 1e3,
                ns_per_op: best * 1e9 / ops as f64,
                median_wall_ms: mid * 1e3,
                median_ns_per_op: mid * 1e9 / ops as f64,
                contended: (!contended.is_empty()).then(|| median(&mut contended)),
                events: reps.last().and_then(|r| r.events),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_recorder_runs_on_one_and_two_threads() {
        let rows = lock_record_bench(2_000, 1).unwrap();
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert_eq!(r.ops, 8_000);
            assert!(r.ns_per_op > 0.0);
            assert!(r.median_ns_per_op >= r.ns_per_op);
            let sinks = r.recorder == "counting-sink" || r.recorder == "binary-spill";
            assert_eq!(r.events.is_some(), sinks, "{}", r.recorder);
            assert_eq!(r.contended.is_some(), r.recorder != "std-mutex");
            if r.threads == 1 {
                assert_eq!(r.contended.unwrap_or(0), 0, "a lone thread never waits");
            }
        }
    }
}
