//! A count floor for the cyclic-core prefilter: Phase I on the
//! synthetic join workload (32 pool locks nested in ascending order by
//! eight threads, plus four planted lock-order inversions) must join
//! only the planted pairs. Counts, not timings, so the floor holds on
//! any machine: over the whole relation this join builds ~2M chains.

use deadlock_fuzzer::prelude::*;
use df_benchmarks::synthetic::{self, SyntheticSpec};

#[test]
fn synthetic_join_runs_over_the_planted_pairs_only() {
    let program = synthetic::program(SyntheticSpec {
        threads: 8,
        locks: 32,
        ops_per_thread: 100,
        cycle_pairs: 4,
        seed: 3,
    });
    let config = Config::default()
        .with_hb_filter(true)
        .with_feasibility(true);
    let report = DeadlockFuzzer::from_ref(program, config).phase1();
    assert_eq!(report.relation_size, 782);
    assert_eq!(report.core_size, 8, "the four planted pairs");
    assert_eq!(report.cycle_count(), 4);
    assert!(!report.stats.truncated, "{:?}", report.stats);
    assert!(
        report.stats.chains_built <= 16,
        "the join left the core: {:?}",
        report.stats
    );
    // Feasibility still scores every cycle against the whole relation.
    assert_eq!(report.feasibility.len(), 4);
}
