//! End-to-end: tracked native locks spilling a binary v2 artifact,
//! sealed by `Tracker::seal`, analyzable offline by `dfz analyze`
//! exactly like a JSONL spill.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use df_events::{read_trace_bytes, SpillConfig, TraceFormat, TRACE_BINARY_MAGIC};
use df_igoodlock::{igoodlock, IGoodlockOptions, LockDependencyRelation};
use df_lock::{TrackedMutex, Tracker, TrackerConfig};

/// A `Write` target whose bytes outlive the sink that owns it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Runs two threads that nest two tracked locks in opposite orders —
/// sequentially, so no real deadlock forms but iGoodlock sees the
/// inversion — under a tracker spilling with `spill`.
fn inverted_order_run(spill: &SpillConfig) -> (Vec<u8>, u64, u64) {
    let buf = SharedBuf::default();
    let (config, sink) = TrackerConfig::default()
        .with_spill(buf.clone(), spill)
        .expect("spill preamble");
    let tracker = Tracker::new(config);
    let a = Arc::new(TrackedMutex::with_tracker(&tracker, ()));
    let b = Arc::new(TrackedMutex::with_tracker(&tracker, ()));

    let (a1, b1) = (Arc::clone(&a), Arc::clone(&b));
    tracker
        .spawn("order a->b", move || {
            let outer = a1.lock().unwrap();
            let inner = b1.lock().unwrap();
            drop((inner, outer));
        })
        .join()
        .unwrap();
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    tracker
        .spawn("order b->a", move || {
            let outer = b2.lock().unwrap();
            let inner = a2.lock().unwrap();
            drop((inner, outer));
        })
        .join()
        .unwrap();

    tracker.seal();
    let mut guard = sink.lock().unwrap();
    let (events, bytes) = guard.close().expect("sealed spill");
    (buf.bytes(), events, bytes)
}

#[test]
fn tracked_run_spills_binary_and_analyzes() {
    let spill = SpillConfig::with_format(TraceFormat::Binary);
    let (bytes, events, written) = inverted_order_run(&spill);
    assert!(events > 0);
    assert_eq!(written as usize, bytes.len());
    assert!(bytes.starts_with(&TRACE_BINARY_MAGIC));

    let trace = read_trace_bytes(&bytes).expect("sealed binary artifact");
    assert_eq!(trace.events().len() as u64, events);
    let relation = LockDependencyRelation::from_trace(&trace);
    let cycles = igoodlock(&relation, &IGoodlockOptions::default());
    assert_eq!(
        cycles.len(),
        1,
        "the inverted nesting must surface as one iGoodlock cycle"
    );
}

#[test]
fn binary_spill_matches_jsonl_spill_semantically() {
    let binary = SpillConfig::with_format(TraceFormat::Binary);
    let jsonl = SpillConfig::default();
    let (bin_bytes, bin_events, _) = inverted_order_run(&binary);
    let (jsonl_bytes, jsonl_events, written) = inverted_order_run(&jsonl);
    assert_eq!(written as usize, jsonl_bytes.len());
    assert_eq!(bin_events, jsonl_events);
    assert!(
        bin_bytes.len() < jsonl_bytes.len(),
        "binary ({}) must be denser than JSONL ({})",
        bin_bytes.len(),
        jsonl_bytes.len()
    );

    // Offline analysis through the CLI front door is byte-identical
    // across the two encodings of the same (deterministically replayed)
    // workload shape.
    let opts = df_cli::CliOptions {
        json: true,
        ..df_cli::CliOptions::default()
    };
    let from_bin = df_cli::cmd_analyze(&bin_bytes[..], "trace.bin", &opts).unwrap();
    let from_jsonl = df_cli::cmd_analyze(&jsonl_bytes[..], "trace.jsonl", &opts).unwrap();
    assert_eq!(from_bin.text, from_jsonl.text);
    assert_ne!(
        from_bin.text.trim(),
        "[]",
        "analysis must report the inversion cycle"
    );
}
