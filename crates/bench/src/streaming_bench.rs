//! Streaming Phase I memory/throughput bench: the offline path (record
//! the full event vector, build the relation post-hoc) vs the streaming
//! path (a [`RelationBuilder`] sink, no event vector) on real benchmark
//! programs. Each row cross-checks that the two paths produce a
//! byte-identical relation before it is reported, so the artifact can
//! never publish numbers for diverging implementations.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use deadlock_fuzzer::ProgramRef;
use df_fuzzer::SimpleRandomChecker;
use df_igoodlock::{LockDependencyRelation, RelationBuilder};
use df_runtime::{RunConfig, VirtualRuntime};
use serde::Serialize;

/// One streaming row of `BENCH_igoodlock.json`: a benchmark program run
/// through Phase I's two observation paths.
#[derive(Clone, Debug, Serialize)]
pub struct StreamingBenchRow {
    /// Benchmark program name.
    pub workload: String,
    /// Events in the execution (identical across paths by construction).
    pub events: u64,
    /// Deduplicated tuples in the relation.
    pub relation_size: usize,
    /// Best-of-reps wall time of the offline path (record + `from_trace`),
    /// milliseconds.
    pub offline_ms: f64,
    /// Best-of-reps wall time of the streaming path (builder sink,
    /// `record_trace` off), milliseconds.
    pub streamed_ms: f64,
    /// High-water mark of the materialized event vector on the offline
    /// path, bytes.
    pub offline_peak_trace_bytes: u64,
    /// Same high-water mark on the streaming path — zero by design.
    pub streamed_peak_trace_bytes: u64,
}

fn seeded_run(program: &ProgramRef, seed: u64, config: RunConfig) -> df_runtime::RunResult {
    let p = program.clone();
    VirtualRuntime::new(config.with_program_seed(seed))
        .run(Box::new(SimpleRandomChecker::with_seed(seed)), move |ctx| {
            p.run(ctx)
        })
}

/// Measures one program under both observation paths, cross-checking the
/// relations. Returns an error on divergence — a correctness failure the
/// caller should turn into a non-zero exit.
pub fn streaming_bench_row(
    workload: &str,
    program: &ProgramRef,
    seed: u64,
    reps: u32,
) -> Result<StreamingBenchRow, String> {
    let mut offline_ms = f64::INFINITY;
    let mut streamed_ms = f64::INFINITY;
    let mut offline: Option<(LockDependencyRelation, u64, u64)> = None;
    let mut streamed: Option<(LockDependencyRelation, u64)> = None;
    for _ in 0..reps.max(1) {
        let obs = df_obs::Obs::new();
        let start = Instant::now();
        let result = seeded_run(program, seed, RunConfig::default().with_obs(obs.clone()));
        let relation = LockDependencyRelation::from_trace(&result.trace);
        offline_ms = offline_ms.min(start.elapsed().as_secs_f64() * 1e3);
        let snap = obs.counters().snapshot();
        offline = Some((
            relation,
            result.trace.events().len() as u64,
            snap.peak_trace_bytes,
        ));

        let obs = df_obs::Obs::new();
        let builder = Arc::new(Mutex::new(RelationBuilder::new()));
        let start = Instant::now();
        let result = seeded_run(
            program,
            seed,
            RunConfig::default()
                .with_record_trace(false)
                .with_obs(obs.clone())
                .with_event_sink(df_events::SinkHandle::single(builder.clone())),
        );
        let relation = builder
            .lock()
            .expect("builder sink")
            .take()
            .map_err(|e| format!("{workload}: {e}"))?;
        streamed_ms = streamed_ms.min(start.elapsed().as_secs_f64() * 1e3);
        if !result.trace.events().is_empty() {
            return Err(format!("{workload}: streaming path materialized events"));
        }
        streamed = Some((relation, obs.counters().snapshot().peak_trace_bytes));
    }
    let (offline_relation, events, offline_peak) = offline.expect("reps >= 1");
    let (streamed_relation, streamed_peak) = streamed.expect("reps >= 1");
    let a = serde_json::to_string(&offline_relation).map_err(|e| e.to_string())?;
    let b = serde_json::to_string(&streamed_relation).map_err(|e| e.to_string())?;
    if a != b {
        return Err(format!(
            "{workload}: offline and streamed relations differ \
             ({} vs {} tuples)",
            offline_relation.len(),
            streamed_relation.len()
        ));
    }
    if streamed_peak != 0 {
        return Err(format!(
            "{workload}: streaming path reported a non-zero trace peak \
             ({streamed_peak} bytes)"
        ));
    }
    Ok(StreamingBenchRow {
        workload: workload.to_string(),
        events,
        relation_size: offline_relation.len(),
        offline_ms,
        streamed_ms,
        offline_peak_trace_bytes: offline_peak,
        streamed_peak_trace_bytes: streamed_peak,
    })
}

/// The streaming sweep: every Table 1 benchmark plus a wide
/// dining-philosophers ring (the most event-dense model we have).
pub fn streaming_bench(seed: u64, reps: u32) -> Result<Vec<StreamingBenchRow>, String> {
    let mut rows = Vec::new();
    for bench in df_benchmarks::table1_suite() {
        rows.push(streaming_bench_row(bench.name, &bench.program, seed, reps)?);
    }
    let ring = df_benchmarks::dining_philosophers::program(9);
    rows.push(streaming_bench_row("philosophers-9", &ring, seed, reps)?);
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cross_check_and_report_zero_streamed_peak() {
        let rows = streaming_bench(7, 1).expect("paths agree");
        assert_eq!(rows.len(), 11);
        for row in &rows {
            assert!(row.events > 0, "{}", row.workload);
            assert_eq!(row.streamed_peak_trace_bytes, 0, "{}", row.workload);
            assert!(
                row.offline_peak_trace_bytes > 0,
                "{}: offline path must materialize",
                row.workload
            );
        }
    }
}
