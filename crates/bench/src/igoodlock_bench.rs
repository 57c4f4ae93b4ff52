//! Phase I micro-bench: naive vs indexed iGoodlock vs the DFS baseline.
//!
//! Workloads are pure lock dependency relations (no scheduler, no program
//! execution), so the numbers isolate the cycle computation itself — the
//! paper's Table 2 flavor of comparison, plus our naive-vs-indexed
//! column. Every row cross-checks the three implementations before it is
//! reported: naive and indexed must agree exactly (same cycles, same
//! order, same `chains_built`), and the DFS baseline must report the
//! same cycle set.

use std::collections::BTreeSet;
use std::time::Instant;

use df_events::{Label, ObjId, ThreadId};
use df_igoodlock::{
    goodlock_dfs, igoodlock_parallel, igoodlock_with_stats, naive_igoodlock_with_stats,
    IGoodlockOptions, LockDep, LockDependencyRelation,
};
use serde::Serialize;

/// Jobs value used for the `parallel_ms` column of the main join table.
const PARALLEL_COLUMN_JOBS: usize = 4;

/// The lock dependency relation that Phase I extracts from an n-way
/// dining-philosophers ring: philosopher `p` (thread `p + 1`) acquires
/// fork `(p + 1) mod n` while holding fork `p`. The relation contains one
/// potential deadlock cycle — the full ring of length `n`.
pub fn philosophers_ring_relation(n: u32) -> LockDependencyRelation {
    let fork = |i: u32| ObjId::new(100 + (i % n));
    let deps = (0..n)
        .map(|p| {
            LockDep::exclusive(
                ThreadId::new(p + 1),
                ObjId::new(p + 1),
                vec![fork(p)],
                fork(p + 1),
                vec![
                    Label::new(&format!("Philosopher.takeLeft:{p}")),
                    Label::new(&format!("Philosopher.takeRight:{p}")),
                ],
            )
        })
        .collect();
    LockDependencyRelation::from_deps(deps)
}

/// A relation with `pairs` two-cycles plus `noise` acyclic tuples —
/// the "large synthetic relation" workload. The noise tuples are strictly
/// ordered chains that can never close, so the cycle count stays `pairs`
/// while the naive join's per-chain scan cost grows with the whole
/// relation.
pub fn synthetic_join_relation(pairs: u32, noise: u32) -> LockDependencyRelation {
    let mut deps = Vec::new();
    for p in 0..pairs {
        let l1 = ObjId::new(1000 + 2 * p);
        let l2 = ObjId::new(1001 + 2 * p);
        let c = Label::new(&format!("pair{p}"));
        deps.push(LockDep::exclusive(
            ThreadId::new(1),
            ObjId::new(1),
            vec![l1],
            l2,
            vec![c, c],
        ));
        deps.push(LockDep::exclusive(
            ThreadId::new(2),
            ObjId::new(2),
            vec![l2],
            l1,
            vec![c, c],
        ));
    }
    for n in 0..noise {
        // Strictly ordered chain: never cyclic.
        let a = ObjId::new(5000 + n);
        let b = ObjId::new(5001 + n);
        deps.push(LockDep::exclusive(
            ThreadId::new(3 + n % 4),
            ObjId::new(3 + n % 4),
            vec![a],
            b,
            vec![Label::new(&format!("noise{n}")), Label::new("inner")],
        ));
    }
    LockDependencyRelation::from_deps(deps)
}

/// One row of `BENCH_igoodlock.json`: a workload measured under all three
/// cycle-computation implementations.
#[derive(Clone, Debug, Serialize)]
pub struct IGoodlockBenchRow {
    /// Workload label (`ring-12`, `synthetic-48x4096`).
    pub workload: String,
    /// Deduplicated tuples in the relation.
    pub relation_size: usize,
    /// Potential deadlock cycles found (identical across implementations).
    pub cycles: usize,
    /// Best-of-reps wall time of the naive join, milliseconds.
    pub naive_ms: f64,
    /// Best-of-reps wall time of the indexed join, milliseconds.
    pub indexed_ms: f64,
    /// Best-of-reps wall time of the DFS lock-graph baseline, milliseconds.
    pub dfs_ms: f64,
    /// Best-of-reps wall time of the parallel join at 4 jobs,
    /// milliseconds — parity-checked against the indexed join before the
    /// row is emitted.
    pub parallel_ms: f64,
    /// `naive_ms / indexed_ms`.
    pub speedup: f64,
    /// Chains built by the join — asserted identical between naive and
    /// indexed before the row is emitted.
    pub chains_built: u64,
    /// Candidate tuples the naive join examined (`|D|` per open chain).
    pub naive_candidates_examined: u64,
    /// Candidate tuples the indexed join examined (bucket entries only).
    pub indexed_candidates_examined: u64,
    /// Chain extensions attempted by the DFS baseline.
    pub dfs_extensions: u64,
}

fn time_best_of<T>(reps: u32, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let v = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        out = Some(v);
    }
    (out.expect("reps >= 1"), best)
}

fn cycle_set(cycles: &[df_igoodlock::Cycle]) -> BTreeSet<String> {
    cycles.iter().map(|c| c.to_string()).collect()
}

/// Measures one workload under naive, indexed and DFS, cross-checking
/// their outputs. Returns an error describing the first divergence — a
/// correctness failure, not a measurement artifact — so callers (CI's
/// perf-smoke step) can fail loudly.
pub fn igoodlock_bench_row(
    workload: &str,
    relation: &LockDependencyRelation,
    reps: u32,
) -> Result<IGoodlockBenchRow, String> {
    let options = IGoodlockOptions::default();
    // One untimed warmup of the first implementation measured: on
    // microsecond-scale rows the process's first join call pays one-time
    // allocator and code-path costs that would otherwise be billed to
    // whichever implementation happens to run first.
    let _ = igoodlock_with_stats(relation, &options);
    let ((indexed_cycles, indexed_stats), indexed_ms) =
        time_best_of(reps, || igoodlock_with_stats(relation, &options));
    let ((naive_cycles, naive_stats), naive_ms) =
        time_best_of(reps, || naive_igoodlock_with_stats(relation, &options));
    let ((dfs_cycles, dfs_stats), dfs_ms) = time_best_of(reps, || goodlock_dfs(relation, &options));
    let ((parallel_cycles, parallel_stats, _), parallel_ms) = time_best_of(reps, || {
        igoodlock_parallel(relation, None, &options, PARALLEL_COLUMN_JOBS)
    });
    if parallel_cycles != indexed_cycles || parallel_stats != indexed_stats {
        return Err(format!(
            "{workload}: parallel join (jobs={PARALLEL_COLUMN_JOBS}) diverged from \
             the sequential indexed join ({} vs {} cycles)",
            parallel_cycles.len(),
            indexed_cycles.len()
        ));
    }
    if indexed_cycles != naive_cycles {
        return Err(format!(
            "{workload}: indexed and naive cycle reports differ \
             ({} vs {} cycles)",
            indexed_cycles.len(),
            naive_cycles.len()
        ));
    }
    if indexed_stats.chains_built != naive_stats.chains_built {
        return Err(format!(
            "{workload}: chains_built diverged (indexed {} vs naive {})",
            indexed_stats.chains_built, naive_stats.chains_built
        ));
    }
    if cycle_set(&dfs_cycles) != cycle_set(&indexed_cycles) {
        return Err(format!(
            "{workload}: DFS baseline cycle set differs \
             ({} vs {} cycles)",
            dfs_cycles.len(),
            indexed_cycles.len()
        ));
    }
    Ok(IGoodlockBenchRow {
        workload: workload.to_string(),
        relation_size: relation.len(),
        cycles: indexed_cycles.len(),
        naive_ms,
        indexed_ms,
        dfs_ms,
        parallel_ms,
        speedup: naive_ms / indexed_ms.max(1e-9),
        chains_built: indexed_stats.chains_built,
        naive_candidates_examined: naive_stats.join_candidates_examined,
        indexed_candidates_examined: indexed_stats.join_candidates_examined,
        dfs_extensions: dfs_stats.extensions,
    })
}

/// The lowest `speedup` a bench row may report before the sweep fails.
/// Small relations now dispatch to the naive join directly (the
/// index-construction fast path), so indexed can never structurally lose
/// to naive; what remains is wall-clock noise on microsecond-scale rows.
/// Rows too fast to time reliably get a looser floor.
fn min_row_speedup(naive_ms: f64) -> f64 {
    if naive_ms >= 0.05 {
        0.9
    } else {
        0.7
    }
}

/// Fails on the first row whose indexed join regressed below the naive
/// join by more than [`min_row_speedup`] allows — the guard that caught
/// small rings paying index-construction cost for buckets they never
/// amortized.
pub fn check_speedup_floor(rows: &[IGoodlockBenchRow]) -> Result<(), String> {
    for row in rows {
        let floor = min_row_speedup(row.naive_ms);
        if row.speedup < floor {
            return Err(format!(
                "{}: indexed join regressed below naive ({:.2}x < {floor}x floor; \
                 naive {:.3}ms, indexed {:.3}ms)",
                row.workload, row.speedup, row.naive_ms, row.indexed_ms
            ));
        }
    }
    Ok(())
}

/// The rows of the sweep behind `BENCH_igoodlock.json`: a philosophers
/// ring per entry of `ring_sizes`, plus one large synthetic relation of
/// `pairs` two-cycles and `noise` acyclic tuples, each parity-checked by
/// [`igoodlock_bench_row`].
pub fn igoodlock_bench_rows(
    ring_sizes: &[u32],
    pairs: u32,
    noise: u32,
    reps: u32,
) -> Result<Vec<IGoodlockBenchRow>, String> {
    let mut rows = Vec::new();
    for &n in ring_sizes {
        let rel = philosophers_ring_relation(n);
        rows.push(igoodlock_bench_row(&format!("ring-{n}"), &rel, reps)?);
    }
    let rel = synthetic_join_relation(pairs, noise);
    rows.push(igoodlock_bench_row(
        &format!("synthetic-{pairs}x{noise}"),
        &rel,
        reps,
    )?);
    Ok(rows)
}

/// The full sweep behind `BENCH_igoodlock.json`: [`igoodlock_bench_rows`]
/// gated by [`check_speedup_floor`].
pub fn igoodlock_bench(
    ring_sizes: &[u32],
    pairs: u32,
    noise: u32,
    reps: u32,
) -> Result<Vec<IGoodlockBenchRow>, String> {
    let rows = igoodlock_bench_rows(ring_sizes, pairs, noise, reps)?;
    check_speedup_floor(&rows)?;
    Ok(rows)
}

/// One row of the `join_parallel` envelope: a workload joined with the
/// sharded parallel Phase I join at one `jobs` value, cross-checked
/// byte-for-byte against the sequential indexed join before emission.
#[derive(Clone, Debug, Serialize)]
pub struct JoinParallelRow {
    /// Workload label (`ring-12`, `synthetic-96x16384`).
    pub workload: String,
    /// Deduplicated tuples in the relation.
    pub relation_size: usize,
    /// Worker count handed to [`igoodlock_parallel`].
    pub jobs: usize,
    /// Potential deadlock cycles found (identical across jobs values).
    pub cycles: usize,
    /// Best-of-reps wall time of the sequential indexed join, ms.
    pub indexed_ms: f64,
    /// Best-of-reps wall time of the parallel join at `jobs`, ms.
    pub parallel_ms: f64,
    /// `indexed_ms / parallel_ms`.
    pub speedup: f64,
    /// Chains built — asserted identical to the sequential join.
    pub chains_built: u64,
    /// Join candidates examined — asserted identical to the sequential
    /// join.
    pub candidates_examined: u64,
    /// Frontier chunks executed by the parallel scheduler (scheduling
    /// observability; varies with `jobs`).
    pub tasks_executed: u64,
    /// Drained-queue observations by join workers (varies with `jobs`).
    pub steal_waits: u64,
}

/// Measures one workload under the parallel join at each `jobs` value,
/// asserting byte-identical cycle reports and identical join stats
/// against the sequential indexed join (and, once per workload, the
/// naive oracle). Returns one row per `jobs` value.
pub fn join_parallel_rows(
    workload: &str,
    relation: &LockDependencyRelation,
    reps: u32,
    jobs_list: &[usize],
) -> Result<Vec<JoinParallelRow>, String> {
    let options = IGoodlockOptions::default();
    let _ = igoodlock_with_stats(relation, &options); // untimed warmup
    let ((seq_cycles, seq_stats), indexed_ms) =
        time_best_of(reps, || igoodlock_with_stats(relation, &options));
    let (naive_cycles, naive_stats) = naive_igoodlock_with_stats(relation, &options);
    if seq_cycles != naive_cycles || seq_stats.chains_built != naive_stats.chains_built {
        return Err(format!(
            "{workload}: sequential indexed join diverged from the naive oracle \
             ({} vs {} cycles)",
            seq_cycles.len(),
            naive_cycles.len()
        ));
    }
    let seq_bytes = serde_json::to_string(&seq_cycles).expect("cycles serialize");
    let mut rows = Vec::new();
    for &jobs in jobs_list {
        let ((cycles, stats, pstats), parallel_ms) =
            time_best_of(reps, || igoodlock_parallel(relation, None, &options, jobs));
        let bytes = serde_json::to_string(&cycles).expect("cycles serialize");
        if bytes != seq_bytes {
            return Err(format!(
                "{workload}: parallel join at jobs={jobs} produced a different \
                 cycle report than the sequential indexed join"
            ));
        }
        if stats != seq_stats {
            return Err(format!(
                "{workload}: parallel join at jobs={jobs} diverged on join stats \
                 (chains_built {} vs {}, candidates {} vs {})",
                stats.chains_built,
                seq_stats.chains_built,
                stats.join_candidates_examined,
                seq_stats.join_candidates_examined
            ));
        }
        rows.push(JoinParallelRow {
            workload: workload.to_string(),
            relation_size: relation.len(),
            jobs,
            cycles: cycles.len(),
            indexed_ms,
            parallel_ms,
            speedup: indexed_ms / parallel_ms.max(1e-9),
            chains_built: stats.chains_built,
            candidates_examined: stats.join_candidates_examined,
            tasks_executed: pstats.tasks_executed,
            steal_waits: pstats.steal_waits,
        });
    }
    Ok(rows)
}

/// The `join_parallel` envelope sweep: every philosophers ring, the
/// standard synthetic relation, and a scaled synthetic relation at
/// `2 * pairs` two-cycles over `4 * noise` acyclic tuples (the workload
/// the jobs=4 speedup acceptance is measured on), each under every
/// entry of `jobs_list`.
pub fn join_parallel_bench(
    ring_sizes: &[u32],
    pairs: u32,
    noise: u32,
    reps: u32,
    jobs_list: &[usize],
) -> Result<Vec<JoinParallelRow>, String> {
    let mut rows = Vec::new();
    for &n in ring_sizes {
        let rel = philosophers_ring_relation(n);
        rows.extend(join_parallel_rows(
            &format!("ring-{n}"),
            &rel,
            reps,
            jobs_list,
        )?);
    }
    for (pairs, noise) in [(pairs, noise), (2 * pairs, 4 * noise)] {
        let rel = synthetic_join_relation(pairs, noise);
        rows.extend(join_parallel_rows(
            &format!("synthetic-{pairs}x{noise}"),
            &rel,
            reps,
            jobs_list,
        )?);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_relation_has_one_full_cycle() {
        for n in [4u32, 7] {
            let rel = philosophers_ring_relation(n);
            assert_eq!(rel.len(), n as usize);
            let (cycles, _) = igoodlock_with_stats(&rel, &IGoodlockOptions::default());
            assert_eq!(cycles.len(), 1, "ring-{n} has exactly the full ring");
            assert_eq!(cycles[0].len(), n as usize);
        }
    }

    #[test]
    fn bench_rows_pass_parity_at_small_size() {
        // The wall-clock speedup floor is covered by the timing-free
        // `speedup_floor_*` tests below.
        let rows = igoodlock_bench_rows(&[4, 6], 4, 32, 3).expect("parity holds");
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.cycles > 0);
            assert!(row.chains_built >= row.relation_size as u64);
            assert!(row.indexed_candidates_examined <= row.naive_candidates_examined);
            assert!(row.parallel_ms > 0.0);
        }
        assert_eq!(rows[2].cycles, 4);
    }

    fn timed_row(workload: &str, naive_ms: f64, indexed_ms: f64) -> IGoodlockBenchRow {
        IGoodlockBenchRow {
            workload: workload.to_string(),
            relation_size: 1,
            cycles: 1,
            naive_ms,
            indexed_ms,
            dfs_ms: naive_ms,
            parallel_ms: indexed_ms,
            speedup: naive_ms / indexed_ms,
            chains_built: 1,
            naive_candidates_examined: 1,
            indexed_candidates_examined: 1,
            dfs_extensions: 1,
        }
    }

    #[test]
    fn speedup_floor_is_0_9_for_timeable_rows() {
        // naive_ms >= 0.05: the 0.9x floor applies.
        let above = timed_row("above", 1.0, 1.0 / 0.95);
        let below = timed_row("below", 1.0, 1.0 / 0.85);
        assert_eq!(check_speedup_floor(std::slice::from_ref(&above)), Ok(()));
        let err = check_speedup_floor(&[above, below]).expect_err("0.85x < 0.9x");
        assert!(err.starts_with("below:"), "{err}");
        assert!(err.contains("0.9x floor"), "{err}");
    }

    #[test]
    fn speedup_floor_is_0_7_for_rows_too_fast_to_time() {
        // naive_ms < 0.05: 0.8x passes here although it would fail the
        // 0.9x floor, and 0.6x fails.
        let above = timed_row("above", 0.01, 0.01 / 0.8);
        let below = timed_row("below", 0.01, 0.01 / 0.6);
        assert_eq!(check_speedup_floor(std::slice::from_ref(&above)), Ok(()));
        let err = check_speedup_floor(&[above, below]).expect_err("0.6x < 0.7x");
        assert!(err.starts_with("below:"), "{err}");
        assert!(err.contains("0.7x floor"), "{err}");
    }

    #[test]
    fn join_parallel_rows_pass_parity_across_jobs() {
        // pairs=4 + noise=128 gives a 136-tuple relation: wide enough
        // that the parallel join actually fans out across workers
        // instead of delegating to the sequential path.
        let rows = join_parallel_bench(&[6], 4, 32, 1, &[1, 2, 4]).expect("parity holds");
        assert_eq!(rows.len(), 3 * 3, "3 workloads x 3 jobs values");
        let big: Vec<_> = rows
            .iter()
            .filter(|r| r.workload == "synthetic-8x128")
            .collect();
        assert_eq!(big.len(), 3);
        assert!(big[0].relation_size >= 64, "{}", big[0].relation_size);
        for r in &big {
            assert_eq!(r.cycles, big[0].cycles);
            assert_eq!(r.chains_built, big[0].chains_built);
            assert_eq!(r.candidates_examined, big[0].candidates_examined);
        }
        let fanned = big.iter().find(|r| r.jobs == 4).expect("jobs=4 row");
        assert!(
            fanned.tasks_executed > 1,
            "jobs=4 on a wide frontier must execute several chunks: {}",
            fanned.tasks_executed
        );
    }
}
