//! Experiment harness: regenerates Table 1 and Figure 2 of the paper.
//!
//! The `repro` binary (`cargo run -p df-bench --bin repro -- <experiment>`)
//! prints the paper-style tables; the Criterion benches
//! (`cargo bench -p df-bench`) measure the runtime columns. Both are built
//! on the functions here so the numbers agree. The `igoodlock_bench`
//! binary measures Phase I's cycle computation in isolation (naive vs
//! indexed join vs the DFS lock-graph baseline) and emits
//! `BENCH_igoodlock.json`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod igoodlock_bench;
mod precision;
mod streaming_bench;
mod trace_bench;

pub use igoodlock_bench::{
    igoodlock_bench, igoodlock_bench_row, philosophers_ring_relation, synthetic_join_relation,
    IGoodlockBenchRow,
};
pub use precision::{precision_bench, precision_row, PrecisionRow};
pub use streaming_bench::{streaming_bench, streaming_bench_row, StreamingBenchRow};
pub use trace_bench::{synthetic_trace, trace_io_bench_rows, TraceIoBenchRow};

use std::time::Duration;

use deadlock_fuzzer::{Config, DeadlockFuzzer, TrialPool, Variant};
use df_benchmarks::{table1_suite, Benchmark};
use serde::Serialize;

/// One row of the regenerated Table 1.
#[derive(Clone, Debug, Serialize)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Lines of code of the original Java program (reference).
    pub paper_loc: usize,
    /// Mean wall time of a plain (simple-random) run.
    pub normal: Duration,
    /// Wall time of Phase I (instrumented run + iGoodlock).
    pub igoodlock: Duration,
    /// Mean wall time of a Phase II run.
    pub df: Duration,
    /// Potential deadlock cycles reported by iGoodlock.
    pub cycles: usize,
    /// Cycles confirmed by DeadlockFuzzer (reproduced at least once).
    pub reproduced: usize,
    /// Mean probability of reproducing a cycle (matched trials / trials,
    /// averaged over cycles; the paper's column 9).
    pub probability: Option<f64>,
    /// Mean thrashings per Phase II run (column 10).
    pub avg_thrashes: Option<f64>,
    /// Mean §4 yields injected per Phase II run.
    pub avg_yields: Option<f64>,
    /// Mean threads paused per Phase II run.
    pub avg_pauses: Option<f64>,
    /// Deadlocks observed in the plain-run control (paper: 0 out of 100).
    pub baseline_deadlocks: u32,
    /// The paper's published row, for side-by-side comparison.
    pub paper_cycles: &'static str,
    /// Published "real" count.
    pub paper_real: &'static str,
    /// Published "reproduced" count.
    pub paper_reproduced: &'static str,
    /// Published probability.
    pub paper_probability: &'static str,
    /// Published thrashes.
    pub paper_thrashes: &'static str,
}

/// Runs the full pipeline for one benchmark and aggregates a Table 1 row.
pub fn table1_row(bench: &Benchmark, trials: u32, baseline_runs: u32) -> Table1Row {
    table1_row_with(bench, trials, baseline_runs, 0)
}

/// [`table1_row`] with an explicit Phase II worker count for the
/// benchmark's own trial campaigns (`0` = auto, `1` = sequential — the
/// right setting when many rows are already being measured in parallel).
fn table1_row_with(bench: &Benchmark, trials: u32, baseline_runs: u32, jobs: usize) -> Table1Row {
    let config = Config::default()
        .with_confirm_trials(trials)
        .with_jobs(jobs);
    let fuzzer = DeadlockFuzzer::from_ref(bench.program.clone(), config);
    let baseline = fuzzer.baseline(baseline_runs).expect("baseline_runs > 0");
    let normal = baseline.avg_duration;
    let phase1 = fuzzer.phase1();
    let report = fuzzer.run();
    let n = report.confirmations.len();
    let (probability, avg_thrashes, avg_yields, avg_pauses, df) = if n == 0 {
        (None, None, None, None, normal)
    } else {
        let mean = |f: fn(&deadlock_fuzzer::ProbabilityReport) -> f64| {
            report
                .confirmations
                .iter()
                .map(|c| f(&c.probability))
                .sum::<f64>()
                / n as f64
        };
        let prob = report
            .confirmations
            .iter()
            .map(|c| c.probability.probability)
            .sum::<f64>()
            / n as f64;
        let df = report
            .confirmations
            .iter()
            .map(|c| c.probability.avg_duration)
            .sum::<Duration>()
            / u32::try_from(n).expect("cycle count fits u32");
        (
            Some(prob),
            Some(mean(|p| p.avg_thrashes)),
            Some(mean(|p| p.avg_yields)),
            Some(mean(|p| p.avg_pauses)),
            df,
        )
    };
    Table1Row {
        name: bench.name.to_string(),
        paper_loc: bench.paper_loc,
        normal,
        igoodlock: phase1.duration,
        df,
        cycles: report.potential_count(),
        reproduced: report.confirmed_count(),
        probability,
        avg_thrashes,
        avg_yields,
        avg_pauses,
        baseline_deadlocks: baseline.deadlocks,
        paper_cycles: bench.paper_row.cycles,
        paper_real: bench.paper_row.real,
        paper_reproduced: bench.paper_row.reproduced,
        paper_probability: bench.paper_row.probability,
        paper_thrashes: bench.paper_row.thrashes,
    }
}

/// Regenerates all of Table 1.
pub fn table1(trials: u32, baseline_runs: u32) -> Vec<Table1Row> {
    table1_suite()
        .iter()
        .map(|b| table1_row(b, trials, baseline_runs))
        .collect()
}

/// Regenerates Table 1 with the rows fanned out across `jobs` workers
/// (`0` = one per available hardware thread). Each row's own trial
/// campaigns run sequentially so the row-level pool is the only source
/// of parallelism; every measurement except the wall-clock columns is
/// identical at any `jobs` value.
pub fn table1_with_jobs(trials: u32, baseline_runs: u32, jobs: usize) -> Vec<Table1Row> {
    let suite = table1_suite();
    TrialPool::new(jobs).run_trials(
        u32::try_from(suite.len()).expect("suite fits u32"),
        |i| table1_row_with(&suite[i as usize], trials, baseline_runs, 1),
        |_| false,
    )
}

/// The four benchmarks of Figure 2, in the paper's order. "Collections"
/// is represented by the synchronized-maps model (the paper's interesting
/// 0.52 case).
pub fn figure2_benchmarks() -> Vec<Benchmark> {
    vec![
        df_benchmarks::maps::benchmark(),
        df_benchmarks::logging::benchmark(),
        df_benchmarks::dbcp::benchmark(),
        df_benchmarks::swing::benchmark(),
    ]
}

/// One cell of Figure 2: a benchmark × variant measurement.
#[derive(Clone, Debug, Serialize)]
pub struct Fig2Cell {
    /// Benchmark name.
    pub benchmark: String,
    /// Variant label (Figure 2 legend).
    pub variant: String,
    /// Phase II runtime normalized to the uninstrumented run (top-left
    /// graph), per schedule point (see [`per_step_ratio`]).
    pub runtime_normalized: f64,
    /// Probability of reproducing the deadlock (top-right graph).
    pub probability: f64,
    /// Average thrashings per run (bottom-left graph).
    pub avg_thrashes: f64,
    /// Average §4 yields injected per run.
    pub avg_yields: f64,
}

/// Measures one Figure 2 cell.
pub fn fig2_cell(bench: &Benchmark, variant: Variant, trials: u32) -> Fig2Cell {
    fig2_cell_with(bench, variant, trials, 0)
}

/// [`fig2_cell`] with an explicit Phase II worker count for the cell's
/// own trial campaigns.
fn fig2_cell_with(bench: &Benchmark, variant: Variant, trials: u32, jobs: usize) -> Fig2Cell {
    let config = Config::default()
        .with_variant(variant)
        .with_confirm_trials(trials)
        .with_jobs(jobs);
    let fuzzer = DeadlockFuzzer::from_ref(bench.program.clone(), config);
    let baseline = fuzzer.baseline(3).expect("trials > 0");
    let report = fuzzer.run();
    let n = report.confirmations.len().max(1) as f64;
    let mean = |f: fn(&deadlock_fuzzer::ProbabilityReport) -> f64| {
        report
            .confirmations
            .iter()
            .map(|c| f(&c.probability))
            .sum::<f64>()
            / n
    };
    let runtime_normalized = per_step_ratio(
        mean(|p| p.avg_duration.as_secs_f64()),
        mean(|p| p.avg_steps),
        baseline.avg_duration.as_secs_f64(),
        baseline.avg_steps,
    )
    // No confirmation campaign ran: nothing to compare.
    .unwrap_or(1.0);
    Fig2Cell {
        benchmark: bench.name.to_string(),
        variant: variant.label().to_string(),
        runtime_normalized,
        probability: mean(|p| p.probability),
        avg_thrashes: mean(|p| p.avg_thrashes),
        avg_yields: mean(|p| p.avg_yields),
    }
}

/// Instrumented time per schedule point over plain time per schedule
/// point. Dividing by steps, not runs, keeps the ratio honest when the
/// instrumented run stops early: a Phase II trial ends at the deadlock it
/// created while a plain run goes to completion. `None` when either side
/// did no measurable work. Times are in seconds.
pub fn per_step_ratio(
    instrumented_s: f64,
    instrumented_steps: f64,
    plain_s: f64,
    plain_steps: f64,
) -> Option<f64> {
    if instrumented_steps <= 0.0 || plain_steps <= 0.0 || plain_s <= 0.0 {
        return None;
    }
    Some((instrumented_s / instrumented_steps) / (plain_s / plain_steps))
}

/// The (benchmark × variant) pairs of the Figure 2 grid, row-major in
/// the paper's order.
pub fn figure2_grid() -> Vec<(Benchmark, Variant)> {
    let mut pairs = Vec::new();
    for bench in figure2_benchmarks() {
        for variant in Variant::ALL {
            pairs.push((bench.clone(), variant));
        }
    }
    pairs
}

/// Measures the Figure 2 cells for the given pairs, fanned out across
/// `jobs` workers (`0` = one per available hardware thread). Cells are
/// independent seeded pipelines, so every measurement except the
/// wall-clock-derived `runtime_normalized` is identical at any `jobs`
/// value; each cell's own trial campaign runs sequentially so the
/// sweep-level pool is the only source of parallelism.
pub fn fig2_cells_with_jobs(
    pairs: &[(Benchmark, Variant)],
    trials: u32,
    jobs: usize,
) -> Vec<Fig2Cell> {
    TrialPool::new(jobs).run_trials(
        u32::try_from(pairs.len()).expect("grid fits u32"),
        |i| {
            let (bench, variant) = &pairs[i as usize];
            fig2_cell_with(bench, *variant, trials, 1)
        },
        |_| false,
    )
}

/// Measures the whole Figure 2 grid (4 benchmarks × 5 variants).
pub fn figure2(trials: u32) -> Vec<Fig2Cell> {
    let mut cells = Vec::new();
    for bench in figure2_benchmarks() {
        for variant in Variant::ALL {
            cells.push(fig2_cell(&bench, variant, trials));
        }
    }
    cells
}

/// [`figure2`] with the sweep fanned out across `jobs` workers.
pub fn figure2_with_jobs(trials: u32, jobs: usize) -> Vec<Fig2Cell> {
    fig2_cells_with_jobs(&figure2_grid(), trials, jobs)
}

/// Correlation points for Figure 2 (bottom right): (thrashes,
/// probability) per cycle confirmation, pooled over the Figure 2
/// benchmarks under the default variant plus the degraded variants (the
/// paper pools its variant runs the same way).
pub fn fig2_correlation(trials: u32) -> Vec<(f64, f64)> {
    let mut points = Vec::new();
    for bench in figure2_benchmarks() {
        for variant in [
            Variant::ContextExecIndex,
            Variant::IgnoreAbstraction,
            Variant::IgnoreContext,
            Variant::NoYields,
        ] {
            let config = Config::default()
                .with_variant(variant)
                .with_confirm_trials(trials);
            let fuzzer = DeadlockFuzzer::from_ref(bench.program.clone(), config);
            let report = fuzzer.run();
            for c in &report.confirmations {
                points.push((c.probability.avg_thrashes, c.probability.probability));
            }
        }
    }
    points
}

/// One row of the motivation experiment (paper §1): how many program
/// runs each technique needs to produce Figure 1's deadlock, as the
/// benign prefix (execution length) grows.
#[derive(Clone, Debug, Serialize)]
pub struct MotivationRow {
    /// Work units of the long-running prefix.
    pub prefix: u32,
    /// Total schedules in the program's (full) schedule tree — what a
    /// model checker must cover; `None` when the cap was hit first.
    pub exhaustive_runs: Option<u64>,
    /// Runs of plain random testing until the first deadlock (capped).
    pub random_runs: Option<u64>,
    /// Runs DeadlockFuzzer needed (Phase I observation + biased runs
    /// until the deadlock — in practice 1 biased run).
    pub deadlockfuzzer_runs: u64,
}

/// Measures the §1 motivation: schedules explode with execution length
/// for systematic exploration, random testing is hit-or-miss, and the
/// two-phase approach stays O(1) runs.
pub fn motivation(prefixes: &[u32], cap: u64) -> Vec<MotivationRow> {
    use deadlock_fuzzer::{Named, Program};
    use df_events::Label;
    use df_fuzzer::{explore, ExploreOptions};
    use df_runtime::{LockRef, TCtx};

    fn body(l1: LockRef, l2: LockRef, work: u32) -> impl FnOnce(&TCtx) + Send + 'static {
        move |ctx: &TCtx| {
            ctx.work(work);
            let g1 = ctx.lock(&l1, Label::new("Motiv.first"));
            let g2 = ctx.lock(&l2, Label::new("Motiv.second"));
            drop(g2);
            drop(g1);
        }
    }
    fn program(prefix: u32) -> impl Fn(&TCtx) + Send + Sync + Clone + 'static {
        move |ctx: &TCtx| {
            let a = ctx.new_lock(Label::new("Motiv.newA"));
            let b = ctx.new_lock(Label::new("Motiv.newB"));
            let t1 = ctx.spawn(Label::new("Motiv.spawn1"), "t1", body(a, b, prefix));
            let t2 = ctx.spawn(Label::new("Motiv.spawn2"), "t2", body(b, a, 0));
            ctx.join(&t1, Label::new("Motiv.join"));
            ctx.join(&t2, Label::new("Motiv.join"));
        }
    }

    prefixes
        .iter()
        .map(|&prefix| {
            // Exhaustive exploration: size of the full schedule tree
            // (the paper's "exponential increase in the number of thread
            // schedules with execution length").
            let p = program(prefix);
            let explored = explore(
                {
                    let p = p.clone();
                    move || {
                        let p = p.clone();
                        move |ctx: &TCtx| p(ctx)
                    }
                },
                &ExploreOptions {
                    max_runs: cap as usize,
                    stop_at_first_deadlock: false,
                    ..ExploreOptions::default()
                },
            );
            let exhaustive_runs = explored.exhausted.then_some(explored.runs as u64);
            // Plain random testing.
            let fuzzer = DeadlockFuzzer::from_ref(
                std::sync::Arc::new(Named::new("motivation", program(prefix))),
                Config::default(),
            );
            let mut random_runs = None;
            for i in 0..cap {
                let r = fuzzer.phase2(&deadlock_fuzzer::igoodlock::AbstractCycle::new(vec![]), i);
                if r.deadlocked() {
                    random_runs = Some(i + 1);
                    break;
                }
            }
            // DeadlockFuzzer: one observation run + biased runs until the
            // deadlock.
            let phase1 = fuzzer.phase1();
            let mut df_runs = 1; // the Phase I observation
            if let Some(cycle) = phase1.abstract_cycles.first() {
                for i in 0..cap {
                    df_runs += 1;
                    if fuzzer.phase2(cycle, 10_000 + i).deadlocked() {
                        break;
                    }
                }
            }
            let _ = Program::name(&program(prefix)); // keep trait in scope
            MotivationRow {
                prefix,
                exhaustive_runs,
                random_runs,
                deadlockfuzzer_runs: df_runs,
            }
        })
        .collect()
}

/// Pearson correlation coefficient of a point set (expected negative for
/// the thrash/probability relation).
pub fn pearson(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let (mx, my) = (
        points.iter().map(|p| p.0).sum::<f64>() / n,
        points.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let cov = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>();
    let (sx, sy) = (
        points
            .iter()
            .map(|p| (p.0 - mx).powi(2))
            .sum::<f64>()
            .sqrt(),
        points
            .iter()
            .map(|p| (p.1 - my).powi(2))
            .sum::<f64>()
            .sqrt(),
    );
    if sx == 0.0 || sy == 0.0 {
        0.0
    } else {
        cov / (sx * sy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_detects_perfect_anticorrelation() {
        let points = vec![(0.0, 1.0), (1.0, 0.5), (2.0, 0.0)];
        assert!((pearson(&points) + 1.0).abs() < 1e-9);
        assert_eq!(pearson(&[]), 0.0);
        assert_eq!(pearson(&[(1.0, 1.0)]), 0.0);
        // Degenerate: no variance in x.
        assert_eq!(pearson(&[(1.0, 0.0), (1.0, 1.0)]), 0.0);
    }

    #[test]
    fn per_step_ratio_ignores_where_a_run_stops() {
        let full = per_step_ratio(0.003, 1_000.0, 0.001, 1_000.0).expect("work on both sides");
        // Same per-step cost, but the trial stops after half the steps.
        let half = per_step_ratio(0.0015, 500.0, 0.001, 1_000.0).expect("work on both sides");
        assert!((full - 3.0).abs() < 1e-9, "{full}");
        assert!((half - full).abs() < 1e-9, "{half} vs {full}");
        assert_eq!(per_step_ratio(0.001, 0.0, 0.001, 1.0), None);
        assert_eq!(per_step_ratio(0.001, 1.0, 0.0, 1.0), None);
    }

    #[test]
    fn table1_row_on_a_small_benchmark() {
        let bench = df_benchmarks::logging::benchmark();
        let row = table1_row(&bench, 3, 2);
        assert_eq!(row.cycles, 3);
        assert_eq!(row.reproduced, 3);
        assert!(row.probability.unwrap() > 0.9);
        assert_eq!(row.paper_probability, "1.00");
    }

    #[test]
    fn fig2_cell_default_variant_beats_trivial_on_collections() {
        let bench = df_benchmarks::maps::benchmark();
        let best = fig2_cell(&bench, Variant::ContextExecIndex, 4);
        assert!(best.probability > 0.0);
        assert!(best.runtime_normalized > 0.0);
    }

    #[test]
    fn parallel_sweep_matches_the_sequential_sweep() {
        let pairs = vec![
            (df_benchmarks::maps::benchmark(), Variant::ContextExecIndex),
            (df_benchmarks::logging::benchmark(), Variant::NoYields),
            (df_benchmarks::maps::benchmark(), Variant::IgnoreAbstraction),
        ];
        let seq = fig2_cells_with_jobs(&pairs, 3, 1);
        let par = fig2_cells_with_jobs(&pairs, 3, 4);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            // Cell order and every seeded measurement agree; only the
            // wall-clock-derived runtime_normalized may differ.
            assert_eq!(s.benchmark, p.benchmark);
            assert_eq!(s.variant, p.variant);
            assert_eq!(s.probability, p.probability);
            assert_eq!(s.avg_thrashes, p.avg_thrashes);
            assert_eq!(s.avg_yields, p.avg_yields);
        }
    }

    #[test]
    fn figure2_grid_covers_every_benchmark_and_variant() {
        let grid = figure2_grid();
        assert_eq!(grid.len(), figure2_benchmarks().len() * Variant::ALL.len());
    }
}
