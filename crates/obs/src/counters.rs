//! Lock-free campaign counters.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// A lock-free registry of the campaign-wide counters the paper's
/// evaluation (§5) reports: observed acquisitions, recorded dependency
/// edges, cycles found, scheduler pauses/thrashes/yields, trial retries
/// and injected faults.
///
/// Every field is a relaxed [`AtomicU64`]; incrementing from program
/// threads, the controller, and the campaign driver concurrently is safe
/// and never blocks. Read a consistent-enough view with
/// [`Counters::snapshot`].
#[derive(Debug, Default)]
pub struct Counters {
    acquires_observed: AtomicU64,
    dependency_edges: AtomicU64,
    cycles_found: AtomicU64,
    threads_paused: AtomicU64,
    thrash_events: AtomicU64,
    yields_taken: AtomicU64,
    trial_retries: AtomicU64,
    faults_injected: AtomicU64,
    join_candidates_examined: AtomicU64,
    join_chains_built: AtomicU64,
    events_streamed: AtomicU64,
    wfg_edges: AtomicU64,
    wfg_cycles_detected: AtomicU64,
    lock_timeouts: AtomicU64,
    poisoned_recovered: AtomicU64,
    cycles_pruned_infeasible: AtomicU64,
    trials_saved: AtomicU64,
    peak_trace_bytes: AtomicU64,
}

/// A plain-data copy of [`Counters`] taken at one instant, the form that
/// lands in `metrics.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// First (non-re-entrant) lock acquisitions observed by any runtime.
    pub acquires_observed: u64,
    /// Lock dependency relation edges recorded for iGoodlock.
    pub dependency_edges: u64,
    /// Potential deadlock cycles reported by iGoodlock.
    pub cycles_found: u64,
    /// Times the active scheduler paused a thread before an acquire.
    pub threads_paused: u64,
    /// Thrashings: every enabled thread was paused and one was released
    /// at random (paper §2.3).
    pub thrash_events: u64,
    /// Yields injected by the §4 optimization.
    pub yields_taken: u64,
    /// Phase II trials retried after a degraded outcome.
    pub trial_retries: u64,
    /// Faults injected by an active fault plan.
    pub faults_injected: u64,
    /// Relation tuples examined as candidates by the iGoodlock join
    /// index (the denominator of the index hit rate).
    pub join_candidates_examined: u64,
    /// Chains built by the iGoodlock join across all iterations.
    pub join_chains_built: u64,
    /// Events delivered to streaming [`df_events::EventSink`]s.
    pub events_streamed: u64,
    /// Wait edges registered in the live wait-for graph (one per
    /// contended native acquire).
    pub wfg_edges: u64,
    /// Deadlock cycles the online wait-for-graph detector reported.
    pub wfg_cycles_detected: u64,
    /// Timed native acquisitions (`try_lock_for`) that gave up and
    /// returned a recoverable error instead of blocking forever.
    pub lock_timeouts: u64,
    /// Poisoned native locks whose guards were recovered via
    /// `PoisonError::into_inner` (release events still emitted).
    pub poisoned_recovered: u64,
    /// Cycles the feasibility layer scored `Infeasible` and the adaptive
    /// allocator therefore skipped without spending a single trial.
    pub cycles_pruned_infeasible: u64,
    /// Phase II trials the adaptive allocator did not run compared to a
    /// uniform `confirm_trials`-per-cycle campaign (early confirmation
    /// stops, infeasible pruning, and total-budget caps all contribute).
    pub trials_saved: u64,
    /// Largest in-memory event-trace footprint (approximate bytes) any
    /// single run materialized. A fully streamed observation (Phase I,
    /// `dfz record`) keeps this at zero. Unlike the
    /// other counters this is a high-water mark: merging shards takes
    /// the maximum, not the sum.
    pub peak_trace_bytes: u64,
}

macro_rules! counter_methods {
    (
        add { $($(#[$doc:meta])* $field:ident => $add:ident;)* }
        max { $($(#[$mdoc:meta])* $mfield:ident => $record:ident;)* }
    ) => {
        $(
            $(#[$doc])*
            pub fn $add(&self, n: u64) {
                self.$field.fetch_add(n, Ordering::Relaxed);
            }
        )*

        $(
            $(#[$mdoc])*
            pub fn $record(&self, n: u64) {
                self.$mfield.fetch_max(n, Ordering::Relaxed);
            }
        )*

        /// Copies every counter into a serializable snapshot.
        pub fn snapshot(&self) -> CounterSnapshot {
            CounterSnapshot {
                $($field: self.$field.load(Ordering::Relaxed),)*
                $($mfield: self.$mfield.load(Ordering::Relaxed),)*
            }
        }

        /// Folds a per-worker counter shard into the campaign rollup
        /// after its trial completes: additive counters are summed,
        /// high-water marks are maxed — which is what keeps campaign
        /// metrics invariant under how trials are partitioned across
        /// workers.
        pub fn merge(&self, delta: &CounterSnapshot) {
            $(self.$field.fetch_add(delta.$field, Ordering::Relaxed);)*
            $(self.$mfield.fetch_max(delta.$mfield, Ordering::Relaxed);)*
        }
    };
}

impl Counters {
    /// Creates a zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    counter_methods! {
        add {
            /// Counts `n` observed first lock acquisitions.
            acquires_observed => add_acquires_observed;
            /// Counts `n` recorded lock dependency edges.
            dependency_edges => add_dependency_edges;
            /// Counts `n` potential cycles reported by iGoodlock.
            cycles_found => add_cycles_found;
            /// Counts `n` scheduler pauses.
            threads_paused => add_threads_paused;
            /// Counts `n` thrash events.
            thrash_events => add_thrash_events;
            /// Counts `n` injected yields.
            yields_taken => add_yields_taken;
            /// Counts `n` retried trials.
            trial_retries => add_trial_retries;
            /// Counts `n` injected faults.
            faults_injected => add_faults_injected;
            /// Counts `n` join candidates examined by iGoodlock.
            join_candidates_examined => add_join_candidates_examined;
            /// Counts `n` chains built by the iGoodlock join.
            join_chains_built => add_join_chains_built;
            /// Counts `n` events delivered to streaming sinks.
            events_streamed => add_events_streamed;
            /// Counts `n` wait edges registered in the live wait-for graph.
            wfg_edges => add_wfg_edges;
            /// Counts `n` cycles reported by the online detector.
            wfg_cycles_detected => add_wfg_cycles_detected;
            /// Counts `n` timed acquisitions that gave up.
            lock_timeouts => add_lock_timeouts;
            /// Counts `n` poisoned locks recovered.
            poisoned_recovered => add_poisoned_recovered;
            /// Counts `n` cycles pruned as infeasible before any trial.
            cycles_pruned_infeasible => add_cycles_pruned_infeasible;
            /// Counts `n` trials saved relative to uniform allocation.
            trials_saved => add_trials_saved;
        }
        max {
            /// Raises the in-memory trace high-water mark to `n` bytes
            /// if `n` exceeds the current mark.
            peak_trace_bytes => record_peak_trace_bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        assert_eq!(Counters::new().snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn adds_accumulate() {
        let c = Counters::new();
        c.add_acquires_observed(2);
        c.add_acquires_observed(3);
        c.add_thrash_events(1);
        let s = c.snapshot();
        assert_eq!(s.acquires_observed, 5);
        assert_eq!(s.thrash_events, 1);
        assert_eq!(s.yields_taken, 0);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let c = std::sync::Arc::new(Counters::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.add_threads_paused(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.snapshot().threads_paused, 4000);
    }

    #[test]
    fn peak_is_a_high_water_mark_not_a_sum() {
        let c = Counters::new();
        c.record_peak_trace_bytes(100);
        c.record_peak_trace_bytes(40);
        assert_eq!(c.snapshot().peak_trace_bytes, 100);
        c.record_peak_trace_bytes(250);
        assert_eq!(c.snapshot().peak_trace_bytes, 250);
    }

    #[test]
    fn merge_sums_adds_and_maxes_peaks() {
        let a = Counters::new();
        a.add_events_streamed(5);
        a.record_peak_trace_bytes(300);
        let b = Counters::new();
        b.add_events_streamed(7);
        b.record_peak_trace_bytes(120);
        a.merge(&b.snapshot());
        let s = a.snapshot();
        assert_eq!(s.events_streamed, 12);
        assert_eq!(s.peak_trace_bytes, 300);
    }

    #[test]
    fn live_detector_counters_accumulate_and_merge() {
        let a = Counters::new();
        a.add_wfg_edges(3);
        a.add_wfg_cycles_detected(1);
        let b = Counters::new();
        b.add_wfg_edges(2);
        b.add_lock_timeouts(4);
        b.add_poisoned_recovered(1);
        a.merge(&b.snapshot());
        let s = a.snapshot();
        assert_eq!(s.wfg_edges, 5);
        assert_eq!(s.wfg_cycles_detected, 1);
        assert_eq!(s.lock_timeouts, 4);
        assert_eq!(s.poisoned_recovered, 1);
    }

    #[test]
    fn precision_counters_accumulate_and_merge() {
        let a = Counters::new();
        a.add_cycles_pruned_infeasible(1);
        a.add_trials_saved(20);
        let b = Counters::new();
        b.add_cycles_pruned_infeasible(2);
        b.add_trials_saved(15);
        a.merge(&b.snapshot());
        let s = a.snapshot();
        assert_eq!(s.cycles_pruned_infeasible, 3);
        assert_eq!(s.trials_saved, 35);
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let c = Counters::new();
        c.add_cycles_found(7);
        let s = c.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: CounterSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn snapshots_with_retired_counters_still_parse() {
        // Documents written before a counter was removed keep parsing:
        // unknown fields are ignored.
        let c = Counters::new();
        c.add_cycles_found(7);
        let s = c.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let old = json.replacen('{', "{\"retired_counter\":3,", 1);
        let back: CounterSnapshot = serde_json::from_str(&old).unwrap();
        assert_eq!(s, back);
    }
}
