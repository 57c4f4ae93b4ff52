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
use std::time::{Duration, Instant};

use df_events::{Label, ObjId, ThreadId};
use df_igoodlock::oracle::naive_igoodlock_with_stats;
use df_igoodlock::{
    goodlock_dfs, igoodlock_with_stats, IGoodlockOptions, LockDep, LockDependencyRelation,
};
use serde::Serialize;

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
    /// Tuples in the relation's cyclic core — what the pipeline joins.
    /// The timed joins of the row still run over the whole relation.
    pub core_size: usize,
    /// Potential deadlock cycles found (identical across implementations).
    pub cycles: usize,
    /// Best-of-reps wall time of the naive join, milliseconds.
    pub naive_ms: f64,
    /// Best-of-reps wall time of the indexed join, milliseconds.
    pub indexed_ms: f64,
    /// Best-of-reps wall time of the DFS lock-graph baseline, milliseconds.
    pub dfs_ms: f64,
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

/// The shortest timed sample. A small ring's join takes a few
/// microseconds, where one call's timing is mostly timer and scheduler
/// noise; such joins are timed in batches that last at least this long.
const MIN_SAMPLE: Duration = Duration::from_millis(1);

/// Calls per batch for a batch to last [`MIN_SAMPLE`], given that `calls`
/// calls took `elapsed`. A call counts as at least 1 ns, so a batch is
/// at most 10^6 calls.
fn batch_size(elapsed: Duration, calls: u32) -> u32 {
    let per_call = (elapsed.as_nanos() / u128::from(calls.max(1))).max(1);
    u32::try_from(MIN_SAMPLE.as_nanos().div_ceil(per_call)).expect("at most 10^6 calls")
}

/// Grows a batch of calls to `f` until one lasts [`MIN_SAMPLE`], in
/// untimed calibration batches (which also warm up caches and the
/// allocator). Returns `f`'s last result and the batch size.
fn calibrate<T>(f: &mut impl FnMut() -> T) -> (T, u32) {
    let mut batch = 1;
    let mut out = f();
    loop {
        let start = Instant::now();
        for _ in 0..batch {
            out = f();
        }
        let next = batch_size(start.elapsed(), batch);
        if next <= batch {
            return (out, batch);
        }
        batch = next;
    }
}

/// Times one batch of `batch` calls to `f`, keeping the last result in
/// `out`, and returns milliseconds per call.
fn time_batch<T>(f: &mut impl FnMut() -> T, batch: u32, out: &mut T) -> f64 {
    let start = Instant::now();
    for _ in 0..batch {
        *out = f();
    }
    start.elapsed().as_secs_f64() * 1e3 / f64::from(batch)
}

/// Runs `f` in batches of calls and returns its last result with the
/// best of `reps` samples, in milliseconds per call.
fn time_best_of<T>(reps: u32, mut f: impl FnMut() -> T) -> (T, f64) {
    let (mut out, batch) = calibrate(&mut f);
    let best = (0..reps.max(1))
        .map(|_| time_batch(&mut f, batch, &mut out))
        .fold(f64::INFINITY, f64::min);
    (out, best)
}

/// [`time_best_of`] for two functions whose times are compared: their
/// timed batches alternate, so a slow spell of the machine falls on
/// samples of both rather than on all the samples of one.
fn time_alternating_best_of<A, B>(
    reps: u32,
    mut f: impl FnMut() -> A,
    mut g: impl FnMut() -> B,
) -> ((A, f64), (B, f64)) {
    let (mut a, a_batch) = calibrate(&mut f);
    let (mut b, b_batch) = calibrate(&mut g);
    let (mut a_best, mut b_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        a_best = a_best.min(time_batch(&mut f, a_batch, &mut a));
        b_best = b_best.min(time_batch(&mut g, b_batch, &mut b));
    }
    ((a, a_best), (b, b_best))
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
    let (((naive_cycles, naive_stats), naive_ms), ((indexed_cycles, indexed_stats), indexed_ms)) =
        time_alternating_best_of(
            reps,
            || naive_igoodlock_with_stats(relation, &options),
            || igoodlock_with_stats(relation, &options),
        );
    let ((dfs_cycles, dfs_stats), dfs_ms) = time_best_of(reps, || goodlock_dfs(relation, &options));
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
        core_size: relation.cyclic_core().len(),
        cycles: indexed_cycles.len(),
        naive_ms,
        indexed_ms,
        dfs_ms,
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
        }
        assert_eq!(rows[2].cycles, 4);
        // Rings are one cycle; the synthetic noise is strictly ordered.
        assert_eq!(rows[0].core_size, 4);
        assert_eq!(rows[2].relation_size, 40);
        assert_eq!(rows[2].core_size, 8);
    }

    fn timed_row(workload: &str, naive_ms: f64, indexed_ms: f64) -> IGoodlockBenchRow {
        IGoodlockBenchRow {
            workload: workload.to_string(),
            relation_size: 1,
            core_size: 1,
            cycles: 1,
            naive_ms,
            indexed_ms,
            dfs_ms: naive_ms,
            speedup: naive_ms / indexed_ms,
            chains_built: 1,
            naive_candidates_examined: 1,
            indexed_candidates_examined: 1,
            dfs_extensions: 1,
        }
    }

    #[test]
    fn batches_are_sized_to_last_a_millisecond() {
        // The 4 µs naive join of a small ring is timed 250 calls at a
        // time, however many calls the calibration batch made.
        assert_eq!(batch_size(Duration::from_micros(4), 1), 250);
        assert_eq!(batch_size(Duration::from_micros(40), 10), 250);
        // Rounded up: 334 calls of 3 µs last at least 1 ms.
        assert_eq!(batch_size(Duration::from_micros(3), 1), 334);
        // Calls of a millisecond or more are timed one at a time.
        assert_eq!(batch_size(Duration::from_millis(1), 1), 1);
        assert_eq!(batch_size(Duration::from_millis(80), 1), 1);
        assert_eq!(batch_size(Duration::from_millis(4), 2), 1);
        // A call the clock cannot see counts as 1 ns.
        assert_eq!(batch_size(Duration::ZERO, 1), 1_000_000);
        assert_eq!(batch_size(Duration::from_nanos(5), 8), 1_000_000);
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
}
