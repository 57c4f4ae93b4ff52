//! `igoodlock_bench` — measures Phase I's cycle computation in isolation
//! (the naive join, the indexed join, and the DFS lock-graph baseline on
//! the same relations), Phase I's two observation paths (offline trace
//! recording vs the streaming relation builder), and trace I/O
//! throughput (JSONL v1 vs binary v2, offline vs ring-streamed), with
//! output parity cross-checked per row.
//!
//! ```text
//! cargo run --release -p df-bench --bin igoodlock_bench
//! cargo run --release -p df-bench --bin igoodlock_bench -- \
//!     --sizes 4,8,12,16 --pairs 48 --noise 4096 --reps 3 \
//!     --trace-events 1000000 --precision-trials 20 --out BENCH_igoodlock.json
//! ```
//!
//! The `precision` envelope runs every Table 1 benchmark twice — a
//! uniform Phase II campaign and the feasibility-seeded adaptive one —
//! and gates two contracts: no `Infeasible`-scored cycle is ever
//! confirmed by a trial (soundness), and both campaigns confirm the same
//! cycle set (parity). `--precision-trials` sets the per-cycle ceiling.
//!
//! Exits non-zero if any implementation pair disagrees on cycles,
//! `chains_built`, or the streamed relation, or if a precision contract
//! is broken — a correctness failure, which CI's perf-smoke step turns
//! into a red build.

use df_bench::{
    igoodlock_bench, precision_bench, streaming_bench, trace_io_bench_rows, IGoodlockBenchRow,
    PrecisionRow, StreamingBenchRow, TraceIoBenchRow,
};
use serde::Serialize;

/// The envelope written to `BENCH_igoodlock.json`: the join comparison,
/// the streaming memory/throughput
/// comparison, the trace I/O throughput comparison, and the precision
/// envelope (predicted-vs-confirmed rates per Table 1 benchmark) — one
/// file so CI uploads a single artifact.
#[derive(Serialize)]
struct BenchArtifact {
    join: Vec<IGoodlockBenchRow>,
    streaming: Vec<StreamingBenchRow>,
    trace_io: Vec<TraceIoBenchRow>,
    precision: Vec<PrecisionRow>,
}

struct Args {
    sizes: Vec<u32>,
    pairs: u32,
    noise: u32,
    reps: u32,
    trace_events: u64,
    precision_trials: u32,
    out: String,
}

fn parse_args() -> Args {
    let mut sizes = vec![4u32, 8, 12, 16];
    let mut pairs = 48u32;
    let mut noise = 4096u32;
    let mut reps = 3u32;
    let mut trace_events = 1_000_000u64;
    let mut precision_trials = 20u32;
    let mut out = String::from("BENCH_igoodlock.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sizes" => {
                sizes = args
                    .next()
                    .map(|v| {
                        v.split(',')
                            .map(|s| s.trim().parse().expect("--sizes needs numbers"))
                            .collect()
                    })
                    .expect("--sizes needs a comma-separated list");
            }
            "--pairs" => {
                pairs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--pairs needs a number");
            }
            "--noise" => {
                noise = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--noise needs a number");
            }
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps needs a number");
            }
            "--trace-events" => {
                trace_events = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--trace-events needs a number");
            }
            "--precision-trials" => {
                precision_trials = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--precision-trials needs a number");
            }
            "--out" => {
                out = args.next().expect("--out needs a path");
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    Args {
        sizes,
        pairs,
        noise,
        reps,
        trace_events,
        precision_trials,
        out,
    }
}

fn print_rows(rows: &[IGoodlockBenchRow]) {
    println!("== Phase I cycle computation: naive vs indexed vs DFS ==");
    println!(
        "{:<22} {:>6} {:>7} | {:>10} {:>10} {:>10} {:>8} | {:>12} {:>14} {:>14}",
        "workload",
        "|D|",
        "cycles",
        "naive(ms)",
        "index(ms)",
        "dfs(ms)",
        "speedup",
        "chains",
        "naive cand.",
        "index cand."
    );
    for r in rows {
        println!(
            "{:<22} {:>6} {:>7} | {:>10.3} {:>10.3} {:>10.3} {:>7.1}x | {:>12} {:>14} {:>14}",
            r.workload,
            r.relation_size,
            r.cycles,
            r.naive_ms,
            r.indexed_ms,
            r.dfs_ms,
            r.speedup,
            r.chains_built,
            r.naive_candidates_examined,
            r.indexed_candidates_examined,
        );
    }
    println!(
        "(per row: identical cycles and chains_built across naive/indexed, \
         identical cycle set from the DFS baseline; times are best of reps)"
    );
}

fn print_streaming_rows(rows: &[StreamingBenchRow]) {
    println!();
    println!("== Phase I observation: offline recording vs streaming builder ==");
    println!(
        "{:<22} {:>8} {:>6} | {:>11} {:>11} | {:>14} {:>14}",
        "workload", "events", "|D|", "offline(ms)", "stream(ms)", "offline peak B", "stream peak B"
    );
    for r in rows {
        println!(
            "{:<22} {:>8} {:>6} | {:>11.3} {:>11.3} | {:>14} {:>14}",
            r.workload,
            r.events,
            r.relation_size,
            r.offline_ms,
            r.streamed_ms,
            r.offline_peak_trace_bytes,
            r.streamed_peak_trace_bytes,
        );
    }
    println!(
        "(per row: byte-identical relation across the two paths; the \
         streaming path's trace peak is asserted to be zero)"
    );
}

fn print_trace_io_rows(rows: &[TraceIoBenchRow]) {
    println!();
    println!("== Trace I/O: JSONL v1 vs binary v2, offline vs ring-streamed ==");
    println!(
        "{:<20} {:<16} {:>10} | {:>10} {:>14} | {:>12} {:>8}",
        "workload", "mode", "events", "wall(ms)", "events/sec", "bytes", "B/event"
    );
    for r in rows {
        println!(
            "{:<20} {:<16} {:>10} | {:>10.3} {:>14.0} | {:>12} {:>8.2}",
            r.workload, r.mode, r.events, r.wall_ms, r.events_per_sec, r.bytes, r.bytes_per_event,
        );
    }
    println!(
        "(per workload: streamed output byte-identical to offline output per \
         format, binary decodes back to the source trace; times are best of reps)"
    );
}

fn print_precision_rows(rows: &[PrecisionRow]) {
    println!();
    println!("== Precision: feasibility verdicts vs Phase II confirmation ==");
    println!(
        "{:<20} {:>6} {:>5} {:>6} {:>4} | {:>8} {:>8} {:>5} | {:>8} {:>8} {:>7}",
        "benchmark",
        "cycles",
        "feas",
        "infeas",
        "unk",
        "conf(u)",
        "conf(a)",
        "same",
        "trials-u",
        "trials-a",
        "saved"
    );
    for r in rows {
        println!(
            "{:<20} {:>6} {:>5} {:>6} {:>4} | {:>8} {:>8} {:>5} | {:>8} {:>8} {:>7}",
            r.name,
            r.cycles,
            r.feasible,
            r.infeasible,
            r.unknown,
            r.confirmed_uniform,
            r.confirmed_adaptive,
            if r.same_cycle_set { "yes" } else { "NO" },
            r.trials_uniform,
            r.trials_adaptive,
            r.trials_saved,
        );
    }
    println!(
        "(per row: uniform and adaptive campaigns run the same seeded \
         pipeline; `same` gates that both confirm the same cycle set)"
    );
}

/// Fails the bench if the precision layer broke either of its contracts:
/// a cycle scored `Infeasible` was confirmed by a real trial (soundness),
/// or the uncapped adaptive campaign confirmed a different cycle set than
/// the uniform one (parity).
fn enforce_precision(rows: &[PrecisionRow]) {
    let mut failed = false;
    for r in rows {
        if r.infeasible_confirmed > 0 {
            eprintln!(
                "precision gate: {} confirmed {} cycle(s) scored Infeasible \
                 — the feasibility check is unsound",
                r.name, r.infeasible_confirmed
            );
            failed = true;
        }
        if !r.same_cycle_set {
            eprintln!(
                "precision gate: {} — adaptive campaign confirmed a \
                 different cycle set than the uniform campaign \
                 (uniform {}, adaptive {})",
                r.name, r.confirmed_uniform, r.confirmed_adaptive
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    let join = match igoodlock_bench(&args.sizes, args.pairs, args.noise, args.reps) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("parity failure: {e}");
            std::process::exit(1);
        }
    };
    print_rows(&join);
    let streaming = match streaming_bench(7, args.reps) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("parity failure: {e}");
            std::process::exit(1);
        }
    };
    print_streaming_rows(&streaming);
    let trace_io = match trace_io_bench_rows(args.trace_events, args.reps) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("parity failure: {e}");
            std::process::exit(1);
        }
    };
    print_trace_io_rows(&trace_io);
    let precision = precision_bench(args.precision_trials);
    print_precision_rows(&precision);
    enforce_precision(&precision);
    let artifact = BenchArtifact {
        join,
        streaming,
        trace_io,
        precision,
    };
    let json = serde_json::to_string_pretty(&artifact).expect("serialize");
    std::fs::write(&args.out, json + "\n").expect("write bench artifact");
    println!("wrote {}", args.out);
}
