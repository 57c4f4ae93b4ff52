//! Reports produced by the pipeline.

use std::fmt;
use std::time::Duration;

use df_igoodlock::{AbstractCycle, Cycle, CycleFeasibility, IGoodlockStats};
use df_runtime::{DeadlockWitness, Outcome};
use serde::{Deserialize, Serialize};

/// Coarse classification of one Phase II trial — the campaign-level
/// failure taxonomy.
///
/// A [`df_runtime::Outcome`] carries run-internal detail (witnesses,
/// messages); `TrialOutcome` collapses it to the classes the campaign
/// runner makes decisions on: panicked and timed-out trials are retried
/// with a rotated seed, and every class is counted in
/// [`TrialOutcomes`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum TrialOutcome {
    /// The program ran to completion without deadlocking.
    Completed,
    /// A real deadlock was witnessed (matching the target or not).
    Deadlock,
    /// The run stalled without a lock cycle (join cycle, lost signal).
    Stall,
    /// The program under test panicked.
    ProgramPanic,
    /// The trial exhausted its step budget, hang watchdog, or wall-clock
    /// deadline.
    Timeout,
    /// The harness itself failed (e.g. a strategy abort).
    InternalError,
}

impl TrialOutcome {
    /// Classifies a runtime outcome.
    pub fn classify(outcome: &Outcome) -> Self {
        match outcome {
            Outcome::Completed => TrialOutcome::Completed,
            Outcome::Deadlock(_) => TrialOutcome::Deadlock,
            Outcome::Stall { .. } | Outcome::CommunicationStall { .. } => TrialOutcome::Stall,
            Outcome::ProgramPanic(_) => TrialOutcome::ProgramPanic,
            Outcome::StepLimit | Outcome::Hang | Outcome::DeadlineExceeded => TrialOutcome::Timeout,
            Outcome::StrategyAbort(_) => TrialOutcome::InternalError,
        }
    }

    /// Whether the campaign runner should retry this trial with a rotated
    /// seed: panics, timeouts and internal errors say nothing about the
    /// cycle under test, while completed/deadlock/stall are real verdicts.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            TrialOutcome::ProgramPanic | TrialOutcome::Timeout | TrialOutcome::InternalError
        )
    }
}

impl fmt::Display for TrialOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TrialOutcome::Completed => "completed",
            TrialOutcome::Deadlock => "deadlock",
            TrialOutcome::Stall => "stall",
            TrialOutcome::ProgramPanic => "program-panic",
            TrialOutcome::Timeout => "timeout",
            TrialOutcome::InternalError => "internal-error",
        })
    }
}

/// Per-class trial counts for one confirmation campaign.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TrialOutcomes {
    /// Trials that completed without deadlock.
    pub completed: u32,
    /// Trials that witnessed a real deadlock.
    pub deadlocks: u32,
    /// Trials that stalled without a lock cycle.
    pub stalls: u32,
    /// Trials whose final attempt panicked in program code.
    pub panics: u32,
    /// Trials whose final attempt timed out (steps, hang, or deadline).
    pub timeouts: u32,
    /// Trials whose final attempt failed inside the harness.
    pub internal_errors: u32,
}

impl TrialOutcomes {
    /// Counts one (final-attempt) trial outcome.
    pub fn record(&mut self, outcome: TrialOutcome) {
        match outcome {
            TrialOutcome::Completed => self.completed += 1,
            TrialOutcome::Deadlock => self.deadlocks += 1,
            TrialOutcome::Stall => self.stalls += 1,
            TrialOutcome::ProgramPanic => self.panics += 1,
            TrialOutcome::Timeout => self.timeouts += 1,
            TrialOutcome::InternalError => self.internal_errors += 1,
        }
    }

    /// Total trials counted.
    pub fn total(&self) -> u32 {
        self.completed
            + self.deadlocks
            + self.stalls
            + self.panics
            + self.timeouts
            + self.internal_errors
    }

    /// Merges another count set into this one.
    pub fn merge(&mut self, other: &TrialOutcomes) {
        self.completed += other.completed;
        self.deadlocks += other.deadlocks;
        self.stalls += other.stalls;
        self.panics += other.panics;
        self.timeouts += other.timeouts;
        self.internal_errors += other.internal_errors;
    }
}

impl fmt::Display for TrialOutcomes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} completed, {} deadlock, {} stall, {} panic, {} timeout, {} internal",
            self.completed,
            self.deadlocks,
            self.stalls,
            self.panics,
            self.timeouts,
            self.internal_errors
        )
    }
}

/// Result of Phase I: one observed execution + iGoodlock.
#[derive(Clone, Debug)]
pub struct Phase1Report {
    /// Potential deadlock cycles with concrete ids (Phase I execution).
    pub cycles: Vec<Cycle>,
    /// The same cycles in abstract, execution-independent form.
    pub abstract_cycles: Vec<AbstractCycle>,
    /// iGoodlock search statistics.
    pub stats: IGoodlockStats,
    /// Size of the (deduplicated) lock dependency relation.
    pub relation_size: usize,
    /// Size of the relation's cyclic core — the tuples the iGoodlock
    /// join ran over (see
    /// [`df_igoodlock::LockDependencyRelation::cyclic_core`]).
    pub core_size: usize,
    /// Number of first-acquisition events observed.
    pub acquires_observed: usize,
    /// Wall-clock time of the instrumented execution + analysis.
    pub duration: Duration,
    /// Outcome of the observation run (usually `Completed`; the paper
    /// notes Phase I may itself stumble into a deadlock).
    pub run_outcome: Outcome,
    /// Feasibility judgement of each cycle, parallel to [`Self::cycles`],
    /// when [`crate::Config::feasibility`] is on (empty otherwise).
    pub feasibility: Vec<CycleFeasibility>,
    /// The observed run's object table and thread bindings, which the
    /// concrete [`Cycle`]s reference, so callers can re-abstract cycles
    /// under other [`df_abstraction::AbstractionMode`]s. Phase I streams
    /// its events into the relation builder, so this trace holds no
    /// events; record them with [`crate::DeadlockFuzzer::observe`].
    pub trace: df_events::Trace,
}

impl Phase1Report {
    /// Number of potential deadlock cycles reported.
    pub fn cycle_count(&self) -> usize {
        self.cycles.len()
    }
}

impl fmt::Display for Phase1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "iGoodlock: {} potential deadlock cycle(s) from {} dependency tuple(s), {} in the cyclic core, in {:?}",
            self.cycles.len(),
            self.relation_size,
            self.core_size,
            self.duration
        )?;
        for (i, c) in self.abstract_cycles.iter().enumerate() {
            match self.feasibility.get(i) {
                Some(judgement) => writeln!(f, "  cycle {}: {} — {judgement}", i + 1, c)?,
                None => writeln!(f, "  cycle {}: {}", i + 1, c)?,
            }
        }
        Ok(())
    }
}

/// Result of a single Phase II execution against one target cycle.
#[derive(Clone, Debug)]
pub struct Phase2Report {
    /// The run's outcome.
    pub outcome: Outcome,
    /// The witnessed deadlock, if any.
    pub witness: Option<DeadlockWitness>,
    /// Whether the witnessed deadlock matches the target cycle (up to
    /// rotation) under the configured abstraction. A deadlock that does
    /// not match is still a real deadlock — the paper observed this on the
    /// Collections benchmarks ("created a deadlock which was different
    /// from the potential deadlock cycle provided as input").
    pub matched_target: bool,
    /// Thrashings during the run (Table 1, column 10).
    pub thrashes: u64,
    /// Threads paused at least once.
    pub pauses: u64,
    /// §4 yields injected.
    pub yields: u64,
    /// Schedule points executed.
    pub steps: u64,
    /// Wall-clock duration of the run.
    pub duration: Duration,
    /// The run's trace — feed it to
    /// [`crate::DeadlockFuzzer::replay`] to re-execute this exact
    /// schedule (e.g. to step through a witnessed deadlock).
    pub trace: df_events::Trace,
}

impl Phase2Report {
    /// Whether a real deadlock (any) was created.
    pub fn deadlocked(&self) -> bool {
        self.witness.is_some()
    }

    /// The trial-level classification of this run's outcome.
    pub fn trial_outcome(&self) -> TrialOutcome {
        TrialOutcome::classify(&self.outcome)
    }
}

/// Aggregate of repeated Phase II trials for one cycle — one row of the
/// paper's probability experiments.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProbabilityReport {
    /// Trials run.
    pub trials: u32,
    /// Trials that created any real deadlock.
    pub deadlocks: u32,
    /// Trials whose deadlock matched the target cycle.
    pub matched: u32,
    /// Empirical probability of reproducing the *target* cycle
    /// (`matched / trials`) — the quantity confirmation keys on.
    ///
    /// Historical note: this field used to be `deadlocks / trials`, which
    /// on multi-cycle programs could report `1.0` for a cycle that never
    /// matched (every trial deadlocked — on a *different* cycle). That
    /// any-deadlock rate now lives in [`Self::deadlock_rate`].
    pub probability: f64,
    /// Empirical probability of creating *any* real deadlock
    /// (`deadlocks / trials`; Table 1 column 9 counts deadlocks, matched
    /// or not).
    pub deadlock_rate: f64,
    /// Whether the campaign was truncated by
    /// [`crate::Config::stop_on_first`] before running every requested
    /// trial. A truncated `probability` is a biased estimate (the
    /// campaign stops on success), so consumers that feed estimators —
    /// the adaptive allocator above all — must reject it.
    pub truncated: bool,
    /// Mean thrashings per run (Table 1 column 10).
    pub avg_thrashes: f64,
    /// Mean threads paused per run.
    pub avg_pauses: f64,
    /// Mean §4 yields injected per run.
    pub avg_yields: f64,
    /// Mean schedule points per run.
    pub avg_steps: f64,
    /// Mean wall-clock duration per run.
    pub avg_duration: Duration,
    /// Per-class counts of the final attempt of every trial.
    pub outcomes: TrialOutcomes,
    /// Retries spent on panicked/timed-out attempts (each trial retries at
    /// most [`crate::Config::trial_retries`] times with a rotated seed).
    pub retries: u32,
}

/// Aggregate of the plain-scheduler control runs
/// ([`crate::DeadlockFuzzer::baseline`]): the paper's "ran each program
/// normally" column.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BaselineReport {
    /// Runs that deadlocked.
    pub deadlocks: u32,
    /// Mean wall-clock duration per run.
    pub avg_duration: Duration,
    /// Mean schedule points per run. Phase II trials stop at the deadlock
    /// they create while plain runs usually complete, so runtime overhead
    /// compares time per schedule point, not time per run.
    pub avg_steps: f64,
}

impl Default for ProbabilityReport {
    /// A zero-trial placeholder, used when a confirmation campaign failed
    /// before producing any trials.
    fn default() -> Self {
        ProbabilityReport {
            trials: 0,
            deadlocks: 0,
            matched: 0,
            probability: 0.0,
            deadlock_rate: 0.0,
            truncated: false,
            avg_thrashes: 0.0,
            avg_pauses: 0.0,
            avg_yields: 0.0,
            avg_steps: 0.0,
            avg_duration: Duration::ZERO,
            outcomes: TrialOutcomes::default(),
            retries: 0,
        }
    }
}

impl fmt::Display for ProbabilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reproduction probability {:.2} ({} of {} runs matched target; \
             deadlock rate {:.2}, {} deadlocked), avg thrashes {:.2}",
            self.probability,
            self.matched,
            self.trials,
            self.deadlock_rate,
            self.deadlocks,
            self.avg_thrashes
        )?;
        if self.truncated {
            write!(f, " [truncated: stopped on first match]")?;
        }
        if self.outcomes.panics + self.outcomes.timeouts + self.outcomes.internal_errors > 0
            || self.retries > 0
        {
            write!(
                f,
                " [outcomes: {}; retries {}]",
                self.outcomes, self.retries
            )?;
        }
        Ok(())
    }
}

/// One confirmed (or unconfirmed) cycle in a full pipeline run.
#[derive(Clone, Debug)]
pub struct CycleConfirmation {
    /// Index into [`Phase1Report::abstract_cycles`].
    pub cycle_index: usize,
    /// The target cycle.
    pub cycle: AbstractCycle,
    /// Trial aggregate.
    pub probability: ProbabilityReport,
    /// Whether at least one trial reproduced this cycle (DeadlockFuzzer's
    /// "confirmed real deadlock" verdict — never a false positive).
    pub confirmed: bool,
    /// The feasibility judgement the precision layer gave this cycle
    /// before any trial ran, when [`crate::Config::feasibility`] is on.
    pub feasibility: Option<CycleFeasibility>,
    /// Why confirmation could not run (invalid config or an internal
    /// panic), if it failed; the campaign records the error and moves on
    /// to the next cycle instead of aborting.
    pub error: Option<String>,
}

/// Result of the full two-phase pipeline on one program.
#[derive(Clone, Debug)]
pub struct Report {
    /// Program name.
    pub program: String,
    /// Phase I results.
    pub phase1: Phase1Report,
    /// Per-cycle Phase II confirmations.
    pub confirmations: Vec<CycleConfirmation>,
}

impl Report {
    /// Number of cycles confirmed as real deadlocks.
    pub fn confirmed_count(&self) -> usize {
        self.confirmations.iter().filter(|c| c.confirmed).count()
    }

    /// Cycles reported by iGoodlock.
    pub fn potential_count(&self) -> usize {
        self.phase1.cycle_count()
    }

    /// Confirmation campaigns that failed to run (recorded, not fatal).
    pub fn failed_count(&self) -> usize {
        self.confirmations
            .iter()
            .filter(|c| c.error.is_some())
            .count()
    }

    /// Aggregate trial-outcome counts over every confirmation campaign.
    pub fn trial_outcome_totals(&self) -> TrialOutcomes {
        let mut totals = TrialOutcomes::default();
        for c in &self.confirmations {
            totals.merge(&c.probability.outcomes);
        }
        totals
    }

    /// Builds the campaign-level [`df_obs::Metrics`] document: the
    /// observability handle's counters and phase timings, plus report-level
    /// gauges (cycle counts, iGoodlock search effort, mean thrash/yield
    /// rates) in `extra`. This is what `dfz --metrics-out` writes.
    pub fn metrics(&self, obs: &df_obs::Obs) -> df_obs::Metrics {
        let mut m = obs.metrics(&self.program);
        let stats = &self.phase1.stats;
        m.extra.insert(
            "potential_cycles".to_string(),
            self.potential_count() as f64,
        );
        m.extra.insert(
            "confirmed_cycles".to_string(),
            self.confirmed_count() as f64,
        );
        m.extra
            .insert("failed_campaigns".to_string(), self.failed_count() as f64);
        m.extra.insert(
            "relation_size".to_string(),
            self.phase1.relation_size as f64,
        );
        m.extra.insert(
            "igoodlock_core_size".to_string(),
            self.phase1.core_size as f64,
        );
        m.extra
            .insert("igoodlock_iterations".to_string(), stats.iterations as f64);
        m.extra.insert(
            "igoodlock_chains_built".to_string(),
            stats.chains_built as f64,
        );
        if let Some(widest) = stats.chains_per_iteration.iter().max() {
            m.extra
                .insert("igoodlock_widest_level".to_string(), *widest as f64);
        }
        m.extra.insert(
            "igoodlock_peak_open_chains".to_string(),
            stats.peak_open_chains as f64,
        );
        m.extra.insert(
            "igoodlock_join_candidates_examined".to_string(),
            stats.join_candidates_examined as f64,
        );
        for judgement in &self.phase1.feasibility {
            m.extra.insert(
                format!("feasibility_score_cycle_{}", judgement.cycle_index),
                judgement.score,
            );
        }
        let campaigns: Vec<&ProbabilityReport> = self
            .confirmations
            .iter()
            .filter(|c| c.error.is_none())
            .map(|c| &c.probability)
            .collect();
        if !campaigns.is_empty() {
            let n = campaigns.len() as f64;
            let mean =
                |f: fn(&ProbabilityReport) -> f64| campaigns.iter().map(|p| f(p)).sum::<f64>() / n;
            m.extra
                .insert("avg_thrashes".to_string(), mean(|p| p.avg_thrashes));
            m.extra
                .insert("avg_pauses".to_string(), mean(|p| p.avg_pauses));
            m.extra
                .insert("avg_yields".to_string(), mean(|p| p.avg_yields));
        }
        m
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== DeadlockFuzzer report: {} ===", self.program)?;
        write!(f, "{}", self.phase1)?;
        for c in &self.confirmations {
            match &c.error {
                Some(e) => writeln!(
                    f,
                    "  cycle {}: confirmation FAILED — {e}",
                    c.cycle_index + 1
                )?,
                None => {
                    let pruned = c.probability.trials == 0
                        && matches!(
                            c.feasibility.as_ref().map(|j| j.verdict),
                            Some(df_igoodlock::FeasibilityVerdict::Infeasible)
                        );
                    if pruned {
                        write!(f, "  cycle {}: pruned — no trials spent", c.cycle_index + 1)?;
                    } else {
                        write!(
                            f,
                            "  cycle {}: {} — {}",
                            c.cycle_index + 1,
                            if c.confirmed {
                                "CONFIRMED"
                            } else {
                                "not reproduced"
                            },
                            c.probability
                        )?;
                    }
                    if let Some(judgement) = &c.feasibility {
                        write!(f, " [predicted {judgement}]")?;
                    }
                    writeln!(f)?;
                }
            }
        }
        let totals = self.trial_outcome_totals();
        if totals.total() > 0 {
            writeln!(f, "trial outcomes: {totals}")?;
        }
        writeln!(
            f,
            "confirmed {} of {} potential cycles",
            self.confirmed_count(),
            self.potential_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_report_display() {
        let p = ProbabilityReport {
            trials: 100,
            deadlocks: 99,
            matched: 98,
            probability: 0.98,
            deadlock_rate: 0.99,
            avg_thrashes: 0.0,
            avg_steps: 120.0,
            avg_duration: Duration::from_millis(3),
            ..ProbabilityReport::default()
        };
        let s = p.to_string();
        assert!(s.contains("probability 0.98"), "{s}");
        assert!(s.contains("98 of 100"), "{s}");
        assert!(s.contains("deadlock rate 0.99"), "{s}");
        // Untruncated clean campaigns do not clutter the row.
        assert!(!s.contains("retries"));
        assert!(!s.contains("truncated"));
    }

    #[test]
    fn probability_report_display_flags_truncated_campaigns() {
        let p = ProbabilityReport {
            trials: 1,
            deadlocks: 1,
            matched: 1,
            probability: 1.0,
            deadlock_rate: 1.0,
            truncated: true,
            ..ProbabilityReport::default()
        };
        assert!(p.to_string().contains("[truncated"), "{p}");
    }

    #[test]
    fn probability_report_display_surfaces_degradation() {
        let mut p = ProbabilityReport {
            trials: 10,
            deadlocks: 4,
            matched: 4,
            probability: 0.4,
            retries: 3,
            ..ProbabilityReport::default()
        };
        p.outcomes.deadlocks = 4;
        p.outcomes.timeouts = 5;
        p.outcomes.panics = 1;
        let s = p.to_string();
        assert!(s.contains("5 timeout"), "{s}");
        assert!(s.contains("retries 3"), "{s}");
    }

    #[test]
    fn probability_serde_round_trip() {
        let p = ProbabilityReport {
            trials: 10,
            deadlocks: 5,
            matched: 5,
            probability: 0.5,
            avg_thrashes: 1.5,
            avg_steps: 10.0,
            avg_duration: Duration::from_micros(17),
            ..ProbabilityReport::default()
        };
        let json = serde_json::to_string(&p).unwrap();
        let back: ProbabilityReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.trials, 10);
        assert_eq!(back.avg_duration, Duration::from_micros(17));
        assert_eq!(back.outcomes, TrialOutcomes::default());
    }

    #[test]
    fn trial_outcome_classification_covers_every_runtime_outcome() {
        use df_events::ThreadId;
        let cases = [
            (Outcome::Completed, TrialOutcome::Completed),
            (Outcome::StepLimit, TrialOutcome::Timeout),
            (Outcome::Hang, TrialOutcome::Timeout),
            (Outcome::DeadlineExceeded, TrialOutcome::Timeout),
            (
                Outcome::ProgramPanic("boom".into()),
                TrialOutcome::ProgramPanic,
            ),
            (
                Outcome::StrategyAbort("bug".into()),
                TrialOutcome::InternalError,
            ),
            (
                Outcome::Stall {
                    stuck: vec![ThreadId::new(1)],
                },
                TrialOutcome::Stall,
            ),
            (
                Outcome::CommunicationStall {
                    stuck: vec![ThreadId::new(1)],
                    waiting: vec![ThreadId::new(1)],
                },
                TrialOutcome::Stall,
            ),
        ];
        for (outcome, expected) in cases {
            assert_eq!(TrialOutcome::classify(&outcome), expected, "{outcome}");
        }
    }

    #[test]
    fn retryable_classes_are_the_non_verdicts() {
        assert!(TrialOutcome::ProgramPanic.is_retryable());
        assert!(TrialOutcome::Timeout.is_retryable());
        assert!(TrialOutcome::InternalError.is_retryable());
        assert!(!TrialOutcome::Completed.is_retryable());
        assert!(!TrialOutcome::Deadlock.is_retryable());
        assert!(!TrialOutcome::Stall.is_retryable());
    }

    #[test]
    fn trial_outcome_counters_record_and_merge() {
        let mut a = TrialOutcomes::default();
        a.record(TrialOutcome::Deadlock);
        a.record(TrialOutcome::Timeout);
        let mut b = TrialOutcomes::default();
        b.record(TrialOutcome::Deadlock);
        b.merge(&a);
        assert_eq!(b.deadlocks, 2);
        assert_eq!(b.timeouts, 1);
        assert_eq!(b.total(), 3);
        assert!(b.to_string().contains("2 deadlock"));
    }
}
