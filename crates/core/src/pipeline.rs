//! The two-phase DeadlockFuzzer pipeline.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use df_abstraction::Abstractor;
use df_events::ObjectTable;
use df_fuzzer::{ActiveConfig, ActiveStrategy, SimpleRandomChecker};
use df_igoodlock::{
    igoodlock_filtered, AbstractComponent, AbstractCycle, Cycle, CycleFeasibility,
    FeasibilityAnalysis, FeasibilityVerdict, IGoodlockStats, LockDependencyRelation,
    RelationBuilder,
};
use df_runtime::{Outcome, RunResult, VirtualRuntime};

use crate::allocate::{allocate_trials, trials_saved, BatchResult, CycleBudget};
use crate::config::Config;
use crate::error::DfError;
use crate::pool::TrialPool;
use crate::program::{Program, ProgramRef};
use crate::report::{
    BaselineReport, CycleConfirmation, Phase1Report, Phase2Report, ProbabilityReport, Report,
    TrialOutcome, TrialOutcomes,
};

/// Offset between the seeds of successive retry attempts of one trial.
/// Chosen large and odd so rotated seeds never collide with the dense
/// `phase2_seed_base + trial` sequence of first attempts.
const RETRY_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// The distilled result of one confirmation trial as it crosses back
/// from a pool worker: the final attempt's classification plus the
/// worker's observability shard (absorbed in trial order by the
/// aggregator). The full [`Phase2Report`] (with its trace) stays on the
/// worker — campaigns only need the tallies.
struct TrialRun {
    outcome: TrialOutcome,
    deadlocked: bool,
    matched: bool,
    thrashes: u64,
    pauses: u64,
    yields: u64,
    steps: u64,
    duration: std::time::Duration,
    retries: u32,
    shard: df_obs::Obs,
}

/// Folds a campaign's trial results into a [`ProbabilityReport`],
/// absorbing each trial's observability shard into `obs` in trial order.
/// `requested` is the per-cycle trial ceiling the campaign aimed for and
/// `stopped_early` whether the campaign was allowed to cut itself short
/// (stop-on-first or an adaptive allocation) — together they decide the
/// report's `truncated` flag, the marker that keeps biased estimates out
/// of downstream consumers.
///
/// # Errors
///
/// Returns [`DfError::EmptyCampaign`] when `results` is empty: with zero
/// trials every per-trial average is a division by zero, so no estimate
/// exists.
/// Best-effort text of a caught confirmation panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "confirmation panicked".to_string())
}

fn aggregate_trials(
    results: Vec<TrialRun>,
    requested: u32,
    stopped_early: bool,
    obs: &df_obs::Obs,
) -> Result<ProbabilityReport, DfError> {
    if results.is_empty() {
        return Err(DfError::EmptyCampaign);
    }
    let ran = u32::try_from(results.len()).expect("ran <= trials");
    let mut deadlocks = 0u32;
    let mut matched = 0u32;
    let mut thrashes = 0u64;
    let mut pauses = 0u64;
    let mut yields = 0u64;
    let mut steps = 0u64;
    let mut total_duration = std::time::Duration::ZERO;
    let mut outcomes = TrialOutcomes::default();
    let mut retries = 0u32;
    for t in &results {
        obs.absorb(&t.shard);
        outcomes.record(t.outcome);
        if t.deadlocked {
            deadlocks += 1;
        }
        if t.matched {
            matched += 1;
        }
        thrashes += t.thrashes;
        pauses += t.pauses;
        yields += t.yields;
        steps += t.steps;
        total_duration += t.duration;
        retries += t.retries;
    }
    Ok(ProbabilityReport {
        trials: ran,
        deadlocks,
        matched,
        probability: f64::from(matched) / f64::from(ran),
        deadlock_rate: f64::from(deadlocks) / f64::from(ran),
        truncated: stopped_early && ran < requested,
        avg_thrashes: thrashes as f64 / f64::from(ran),
        avg_pauses: pauses as f64 / f64::from(ran),
        avg_yields: yields as f64 / f64::from(ran),
        avg_steps: steps as f64 / f64::from(ran),
        avg_duration: total_duration / ran,
        outcomes,
        retries,
    })
}

/// The DeadlockFuzzer tool: Phase I prediction + Phase II active random
/// confirmation for one program.
///
/// # Example
///
/// ```
/// use deadlock_fuzzer::{Config, DeadlockFuzzer};
/// use df_events::site;
/// use df_runtime::TCtx;
///
/// // A program with a consistent lock order: no deadlock predicted.
/// let fuzzer = DeadlockFuzzer::with_config(
///     |ctx: &TCtx| {
///         let a = ctx.new_lock(site!());
///         let _g = ctx.lock(&a, site!());
///     },
///     Config::default(),
/// );
/// let report = fuzzer.run();
/// assert_eq!(report.potential_count(), 0);
/// ```
pub struct DeadlockFuzzer {
    program: ProgramRef,
    config: Config,
}

impl DeadlockFuzzer {
    /// Creates a fuzzer with the default configuration (the paper's best
    /// variant: execution indexing + context + yields).
    pub fn new(program: impl Program) -> Self {
        Self::with_config(program, Config::default())
    }

    /// Creates a fuzzer with an explicit configuration.
    pub fn with_config(program: impl Program, config: Config) -> Self {
        DeadlockFuzzer {
            program: Arc::new(program),
            config,
        }
    }

    /// Creates a fuzzer from an already-shared program handle.
    pub fn from_ref(program: ProgramRef, config: Config) -> Self {
        DeadlockFuzzer { program, config }
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Runs the program once under `strategy`. `seed` doubles as the
    /// program seed ([`df_runtime::RunConfig::program_seed`]): program
    /// models that vary run to run derive the variation from it, which
    /// keeps every (strategy seed, program) pair replayable — the
    /// property that makes parallel campaigns order-independent.
    fn execute(&self, strategy: Box<dyn df_runtime::Strategy>, seed: u64) -> RunResult {
        let program = Arc::clone(&self.program);
        let mut run = self.config.run.clone().with_program_seed(seed);
        if run.deadline.is_none() {
            run.deadline = self.config.trial_deadline;
        }
        VirtualRuntime::new(run).run(strategy, move |ctx| program.run(ctx))
    }

    /// Runs the program once under the Phase I simple random scheduler
    /// (seeded with [`Config::phase1_seed`]) with `sink` attached —
    /// the engine behind `dfz record` and [`DeadlockFuzzer::phase1`]. With
    /// `record_trace` false the event vector is never materialized: the
    /// sinks (e.g. a [`df_events::SpillSink`] writing the on-disk trace
    /// format, or a [`RelationBuilder`]) are the only consumers of the
    /// stream, and the returned result's trace carries just the object
    /// table and thread bindings.
    pub fn observe(&self, sink: df_events::SinkHandle, record_trace: bool) -> RunResult {
        let program = Arc::clone(&self.program);
        let mut run = self
            .config
            .run
            .clone()
            .with_program_seed(self.config.phase1_seed)
            .with_record_trace(record_trace)
            .with_event_sink(sink);
        if run.deadline.is_none() {
            run.deadline = self.config.trial_deadline;
        }
        VirtualRuntime::new(run).run(
            Box::new(SimpleRandomChecker::with_seed(self.config.phase1_seed)),
            move |ctx| program.run(ctx),
        )
    }

    /// A clone of this fuzzer reporting into `obs` instead of the
    /// configured handle — how one parallel worker gets a private
    /// observability shard (the virtual-runtime config, including any
    /// fault plan, is cloned per worker along the way).
    fn with_obs_shard(&self, obs: df_obs::Obs) -> DeadlockFuzzer {
        DeadlockFuzzer {
            program: Arc::clone(&self.program),
            config: self.config.clone().with_obs(obs),
        }
    }

    /// Runs a batch of trials on a pool of [`Config::jobs`] workers (see
    /// [`TrialPool::run_trials`]), then retires the carrier threads the
    /// batch leaves parked, so their allocator caches do not outlive it.
    fn run_trials<T, F, S>(&self, trials: u32, job: F, stop: S) -> Vec<T>
    where
        T: Send,
        F: Fn(u32) -> T + Sync,
        S: Fn(&T) -> bool + Sync,
    {
        let results = TrialPool::new(self.config.jobs).run_trials(trials, job, stop);
        df_runtime::retire_idle_carriers();
        results
    }

    /// Phase I: observe one execution under the simple random scheduler
    /// (Algorithm 2), computing the lock dependency relation as it runs,
    /// and analyze it with [`analyze_relation`].
    ///
    /// A [`RelationBuilder`] attached to the runtime as an event sink
    /// builds the relation and its fork/join clocks online, so the event
    /// vector is never materialized: the report's trace holds the object
    /// table and thread bindings the abstractions need, and no events.
    pub fn phase1(&self) -> Phase1Report {
        let start = Instant::now();
        let obs = self.config.obs();
        obs.emit(&df_obs::TraceEvent::PhaseStart {
            phase: "phase1".to_string(),
        });
        let builder = Arc::new(std::sync::Mutex::new(RelationBuilder::new()));
        let result = self.observe(df_events::SinkHandle::single(builder.clone()), false);
        let relation = builder
            .lock()
            .expect("relation builder sink")
            .take()
            .expect("the runtime binds every thread it runs");
        let analysis = analyze_relation(&relation, Some(result.trace.objects()), &self.config);
        obs.counters().add_dependency_edges(relation.len() as u64);
        obs.counters()
            .add_cycles_found(analysis.cycles.len() as u64);
        obs.counters()
            .add_join_candidates_examined(analysis.stats.join_candidates_examined);
        obs.counters()
            .add_join_chains_built(analysis.stats.chains_built);
        obs.timings().record("phase1", start.elapsed());
        obs.emit(&df_obs::TraceEvent::PhaseEnd {
            phase: "phase1".to_string(),
        });
        Phase1Report {
            cycles: analysis.cycles,
            abstract_cycles: analysis.abstract_cycles,
            feasibility: analysis.feasibility,
            stats: analysis.stats,
            relation_size: relation.len(),
            core_size: analysis.core_size,
            acquires_observed: relation.raw_count,
            duration: start.elapsed(),
            run_outcome: result.outcome,
            trace: result.trace,
        }
    }

    /// Phase II: one active-random execution biased toward `cycle`
    /// (Algorithm 3) with the given seed.
    pub fn phase2(&self, cycle: &AbstractCycle, seed: u64) -> Phase2Report {
        let start = Instant::now();
        let active = ActiveConfig {
            cycle: cycle.clone(),
            mode: self.config.mode,
            seed,
            use_context: self.config.use_context,
            yield_optimization: self.config.yield_optimization,
            pause_budget: self.config.pause_budget,
            yield_budget: self.config.yield_budget,
            obs: self.config.obs().clone(),
        };
        let result = self.execute(Box::new(ActiveStrategy::new(active)), seed);
        let witness = result.outcome.deadlock().cloned();
        let matched_target = witness
            .as_ref()
            .map(|w| {
                let abstractor = Abstractor::new(self.config.mode);
                let witness_cycle = AbstractCycle::new(
                    w.components
                        .iter()
                        .map(|c| AbstractComponent {
                            thread: abstractor.abs(result.trace.objects(), c.thread_obj),
                            lock: abstractor.abs(result.trace.objects(), c.waiting_for),
                            context: c.context.clone(),
                            mode: c.waiting_mode,
                        })
                        .collect(),
                );
                cycle.matches(&witness_cycle)
            })
            .unwrap_or(false);
        self.config
            .obs()
            .timings()
            .record("phase2", start.elapsed());
        Phase2Report {
            outcome: result.outcome,
            witness,
            matched_target,
            thrashes: result.stats.thrashes,
            pauses: result.stats.pauses,
            yields: result.stats.yields,
            steps: result.steps,
            duration: start.elapsed(),
            trace: result.trace,
        }
    }

    /// Runs `trials` Phase II executions for `cycle` (seeds
    /// `phase2_seed_base..phase2_seed_base + trials`) and aggregates the
    /// empirical reproduction probability — Table 1 columns 8–10.
    ///
    /// Trials fan out across [`Config::jobs`] workers through a
    /// [`TrialPool`]; each keeps its deterministic index-based seed and
    /// records into a private observability shard that is folded back
    /// in trial order, so any `jobs` value yields the same report (and
    /// the same trace bytes) modulo wall-clock fields.
    ///
    /// Each trial is classified into a [`crate::TrialOutcome`]; trials that
    /// end without a verdict (program panic, timeout, internal error) are
    /// retried up to [`Config::trial_retries`] times with a rotated seed,
    /// and the final attempt's outcome is what counts. With
    /// [`Config::stop_on_first`], the campaign reports exactly the trials
    /// up to and including the first one that matched the target —
    /// in-flight later trials are cancelled and never tallied.
    ///
    /// # Errors
    ///
    /// Returns [`DfError::InvalidConfig`] when `trials` is zero.
    pub fn estimate_probability(
        &self,
        cycle: &AbstractCycle,
        trials: u32,
    ) -> Result<ProbabilityReport, DfError> {
        if trials == 0 {
            return Err(DfError::InvalidConfig(
                "at least one trial required".to_string(),
            ));
        }
        let obs = self.config.obs().clone();
        let results = self.run_trials(
            trials,
            |i| self.run_confirmation_trial(cycle, i, &obs),
            |t| self.config.stop_on_first && t.matched,
        );
        aggregate_trials(results, trials, self.config.stop_on_first, &obs)
    }

    /// One confirmation trial (`phase2` plus the bounded seed-rotating
    /// retry loop), recording into a private shard of `obs` so trials on
    /// different workers never interleave their counters or trace lines.
    fn run_confirmation_trial(
        &self,
        cycle: &AbstractCycle,
        trial: u32,
        obs: &df_obs::Obs,
    ) -> TrialRun {
        let shard = obs.fork_shard();
        let mut runner = self.with_obs_shard(shard.clone());
        // A trial reads only the outcome, the witness and the strategy
        // stats; abstracting the witness needs just the object table,
        // which the runtime keeps without recording the events.
        runner.config.run.record_trace = false;
        let base_seed = self.config.phase2_seed_base + u64::from(trial);
        let mut attempt = 0u32;
        let r = loop {
            let seed = base_seed.wrapping_add(u64::from(attempt).wrapping_mul(RETRY_SEED_STRIDE));
            let r = runner.phase2(cycle, seed);
            if r.trial_outcome().is_retryable() && attempt < self.config.trial_retries {
                shard.counters().add_trial_retries(1);
                shard.emit(&df_obs::TraceEvent::TrialRetry {
                    trial,
                    attempt,
                    outcome: r.trial_outcome().to_string(),
                });
                attempt += 1;
                continue;
            }
            break r;
        };
        TrialRun {
            outcome: r.trial_outcome(),
            deadlocked: r.deadlocked(),
            matched: r.matched_target,
            thrashes: r.thrashes,
            pauses: r.pauses,
            yields: r.yields,
            steps: r.steps,
            duration: r.duration,
            retries: attempt,
            shard,
        }
    }

    /// The full tool: Phase I, then Phase II confirmation of every
    /// reported cycle via [`DeadlockFuzzer::confirm_all`].
    ///
    /// `run` never panics on a failed confirmation: each cycle's campaign
    /// is isolated, and an error or panic while confirming one cycle is
    /// recorded in that cycle's [`CycleConfirmation::error`] while the
    /// remaining cycles are still confirmed.
    pub fn run(&self) -> Report {
        let phase1 = self.phase1();
        let confirmations = self.confirm_all(&phase1);
        Report {
            program: self.program.name().to_string(),
            phase1,
            confirmations,
        }
    }

    /// Phase II confirmation of every cycle in `phase1`.
    ///
    /// With [`Config::adaptive_trials`] off, every cycle gets a uniform
    /// campaign of [`Config::confirm_trials`] trials. With it on, trials
    /// are handed out by the deterministic bandit loop of
    /// [`crate::allocate_trials`], seeded from the Phase I feasibility
    /// scores: hot cycles are probed first and retired at their first
    /// match, `Infeasible` cycles run only after every other one, and an
    /// optional [`Config::trial_budget`] caps the campaign-wide spend,
    /// cutting the deferred cycles first. Either way the trial at index
    /// `i` of a cycle uses seed `phase2_seed_base + i`, so uncapped
    /// adaptive campaigns confirm exactly the cycles a uniform campaign
    /// would, and the allocation is identical at any [`Config::jobs`]
    /// value.
    pub fn confirm_all(&self, phase1: &Phase1Report) -> Vec<CycleConfirmation> {
        if self.config.adaptive_trials {
            self.confirm_all_adaptive(phase1)
        } else {
            phase1
                .abstract_cycles
                .iter()
                .enumerate()
                .map(|(i, cycle)| self.confirm_cycle(i, cycle, phase1.feasibility.get(i).cloned()))
                .collect()
        }
    }

    /// The adaptive confirmation campaign behind
    /// [`DeadlockFuzzer::confirm_all`]. The allocator itself is pure
    /// sequential logic; each batch it requests runs through the trial
    /// pool with a stop-at-first-match predicate, whose deterministic
    /// sequential-prefix semantics keep the whole allocation
    /// jobs-invariant.
    fn confirm_all_adaptive(&self, phase1: &Phase1Report) -> Vec<CycleConfirmation> {
        let obs = self.config.obs().clone();
        let cycles = &phase1.abstract_cycles;
        let budgets: Vec<CycleBudget> = (0..cycles.len())
            .map(|i| match phase1.feasibility.get(i) {
                Some(judgement) => CycleBudget {
                    cycle_index: i,
                    score: judgement.score,
                    infeasible: judgement.verdict == FeasibilityVerdict::Infeasible,
                },
                // Unscored (feasibility off): a flat uninformative prior,
                // never deferred.
                None => CycleBudget {
                    cycle_index: i,
                    score: 0.5,
                    infeasible: false,
                },
            })
            .collect();
        let mut runs: Vec<Vec<TrialRun>> = (0..cycles.len()).map(|_| Vec::new()).collect();
        let mut errors: Vec<Option<String>> = vec![None; cycles.len()];
        let outcomes = allocate_trials(
            &budgets,
            self.config.confirm_trials,
            self.config.trial_budget,
            |slot, start, len| {
                if errors[slot].is_some() {
                    // The cycle's campaign already failed; report the
                    // batch as spent-without-a-match so the allocator
                    // retires the cycle instead of retrying it forever.
                    return BatchResult {
                        ran: len,
                        matched: 0,
                    };
                }
                let attempt = panic::catch_unwind(AssertUnwindSafe(|| {
                    self.run_trials(
                        len,
                        |i| self.run_confirmation_trial(&cycles[slot], start + i, &obs),
                        |t| t.matched,
                    )
                }));
                match attempt {
                    Ok(results) => {
                        let ran = u32::try_from(results.len()).expect("ran <= len");
                        let matched = u32::try_from(results.iter().filter(|t| t.matched).count())
                            .expect("matched <= len");
                        runs[slot].extend(results);
                        BatchResult { ran, matched }
                    }
                    Err(payload) => {
                        errors[slot] = Some(
                            DfError::Confirmation {
                                cycle_index: slot,
                                message: panic_message(payload),
                            }
                            .to_string(),
                        );
                        BatchResult {
                            ran: len,
                            matched: 0,
                        }
                    }
                }
            },
        );
        obs.counters()
            .add_trials_saved(trials_saved(&outcomes, self.config.confirm_trials));
        let mut confirmations = Vec::with_capacity(cycles.len());
        for (i, (outcome, trial_runs)) in outcomes.iter().zip(runs).enumerate() {
            let feasibility = phase1.feasibility.get(i).cloned();
            let cycle = cycles[i].clone();
            if outcome.deferred_infeasible {
                obs.counters().add_cycles_deferred_infeasible(1);
            }
            if outcome.deferred_infeasible && outcome.trials_run == 0 {
                // Cut by the budget before its turn: not a failure.
                confirmations.push(CycleConfirmation {
                    cycle_index: i,
                    cycle,
                    confirmed: false,
                    probability: ProbabilityReport::default(),
                    error: None,
                    feasibility,
                });
                continue;
            }
            if let Some(message) = errors[i].take() {
                confirmations.push(CycleConfirmation {
                    cycle_index: i,
                    cycle,
                    confirmed: false,
                    probability: ProbabilityReport::default(),
                    error: Some(message),
                    feasibility,
                });
                continue;
            }
            // Adaptive campaigns stop at the first match, so a confirmed
            // cycle's estimate is flagged truncated just like a
            // stop-on-first one. A cycle the budget starved of any trial
            // aggregates to EmptyCampaign and is recorded as an error.
            match aggregate_trials(trial_runs, self.config.confirm_trials, true, &obs) {
                Ok(probability) => confirmations.push(CycleConfirmation {
                    cycle_index: i,
                    cycle,
                    confirmed: probability.matched > 0,
                    probability,
                    error: None,
                    feasibility,
                }),
                Err(e) => confirmations.push(CycleConfirmation {
                    cycle_index: i,
                    cycle,
                    confirmed: false,
                    probability: ProbabilityReport::default(),
                    error: Some(e.to_string()),
                    feasibility,
                }),
            }
        }
        confirmations
    }

    /// Confirms one cycle, converting any error or panic into a recorded
    /// [`CycleConfirmation::error`] instead of aborting the campaign.
    fn confirm_cycle(
        &self,
        index: usize,
        cycle: &AbstractCycle,
        feasibility: Option<df_igoodlock::CycleFeasibility>,
    ) -> CycleConfirmation {
        let attempt = panic::catch_unwind(AssertUnwindSafe(|| {
            self.estimate_probability(cycle, self.config.confirm_trials)
        }));
        let outcome: Result<ProbabilityReport, DfError> = match attempt {
            Ok(result) => result,
            Err(payload) => Err(DfError::Confirmation {
                cycle_index: index,
                message: panic_message(payload),
            }),
        };
        match outcome {
            Ok(probability) => CycleConfirmation {
                cycle_index: index,
                cycle: cycle.clone(),
                confirmed: probability.matched > 0,
                probability,
                error: None,
                feasibility,
            },
            Err(e) => CycleConfirmation {
                cycle_index: index,
                cycle: cycle.clone(),
                confirmed: false,
                probability: ProbabilityReport::default(),
                error: Some(e.to_string()),
                feasibility,
            },
        }
    }

    /// Replays a recorded schedule (e.g. the trace of a Phase II run
    /// that deadlocked) deterministically — the debugging workflow for a
    /// confirmed witness.
    ///
    /// # Example
    ///
    /// ```
    /// # use deadlock_fuzzer::{Config, DeadlockFuzzer};
    /// # use df_events::site;
    /// # use df_runtime::TCtx;
    /// # let fuzzer = DeadlockFuzzer::with_config(
    /// #     |ctx: &TCtx| { let a = ctx.new_lock(site!()); let _g = ctx.lock(&a, site!()); },
    /// #     Config::default(),
    /// # );
    /// let phase1 = fuzzer.phase1();
    /// // ... after a deadlocking phase2 run r: fuzzer.replay(&r_trace)
    /// ```
    pub fn replay(&self, trace: &df_events::Trace) -> RunResult {
        self.execute(
            Box::new(df_runtime::strategy::ReplayStrategy::from_trace(trace)),
            self.config.run.program_seed,
        )
    }

    /// Baseline: `trials` uninstrumented-equivalent runs under the plain
    /// random scheduler, counting how many deadlock (the paper's "ran each
    /// program normally 100 times" control) and measuring their mean
    /// duration and schedule points for the overhead columns of Table 1
    /// and Figure 2. Runs fan out across [`Config::jobs`] workers like
    /// confirmation trials do.
    ///
    /// # Errors
    ///
    /// Returns [`DfError::InvalidConfig`] when `trials` is zero.
    pub fn baseline(&self, trials: u32) -> Result<BaselineReport, DfError> {
        if trials == 0 {
            return Err(DfError::InvalidConfig(
                "at least one trial required".to_string(),
            ));
        }
        let obs = self.config.obs().clone();
        let results = self.run_trials(
            trials,
            |i| {
                let shard = obs.fork_shard();
                let runner = self.with_obs_shard(shard.clone());
                let start = Instant::now();
                let seed = self.config.phase2_seed_base + u64::from(i);
                let r = runner.execute(Box::new(SimpleRandomChecker::with_seed(seed)), seed);
                (
                    matches!(r.outcome, Outcome::Deadlock(_)),
                    start.elapsed(),
                    r.steps,
                    shard,
                )
            },
            |_| false,
        );
        let mut deadlocks = 0;
        let mut total = std::time::Duration::ZERO;
        let mut steps = 0u64;
        for (deadlocked, duration, run_steps, shard) in &results {
            obs.absorb(shard);
            total += *duration;
            steps += run_steps;
            if *deadlocked {
                deadlocks += 1;
            }
        }
        Ok(BaselineReport {
            deadlocks,
            avg_duration: total / trials,
            avg_steps: steps as f64 / f64::from(trials),
        })
    }
}

/// What Phase I derives from a lock dependency relation (see
/// [`analyze_relation`]).
#[derive(Clone, Debug)]
pub struct RelationAnalysis {
    /// Size of the relation's cyclic core — the tuples the join ran
    /// over.
    pub core_size: usize,
    /// Potential deadlock cycles with concrete ids.
    pub cycles: Vec<Cycle>,
    /// iGoodlock search statistics.
    pub stats: IGoodlockStats,
    /// The cycles abstracted over the object table; empty without one.
    pub abstract_cycles: Vec<AbstractCycle>,
    /// Feasibility judgement of each cycle when [`Config::feasibility`]
    /// is on (empty otherwise).
    pub feasibility: Vec<CycleFeasibility>,
}

/// Phase I's analysis step, shared by [`DeadlockFuzzer::phase1`] and
/// `dfz analyze`: iGoodlock (Algorithm 1) over the relation's cyclic
/// core, pruned by happens-before under [`Config::hb_filter`]; the
/// cycles abstracted over `objects` under [`Config::mode`]; and, under
/// [`Config::feasibility`], each cycle scored from the whole relation.
/// The core only drops tuples no cycle can contain, so the cycles are
/// those of the whole relation. A relation read without its execution's
/// object table (a `df-relation` artifact) passes `None` and gets no
/// abstract cycles.
pub fn analyze_relation(
    relation: &LockDependencyRelation,
    objects: Option<&ObjectTable>,
    config: &Config,
) -> RelationAnalysis {
    let core = relation.cyclic_core();
    let (cycles, stats) = igoodlock_filtered(&core, config.hb_filter, &config.igoodlock);
    let abstract_cycles = match objects {
        Some(objects) => {
            let abstractor = Abstractor::new(config.mode);
            cycles
                .iter()
                .map(|c| c.abstract_with(objects, &abstractor))
                .collect()
        }
        None => Vec::new(),
    };
    let feasibility = if config.feasibility {
        FeasibilityAnalysis::from_relation(relation).score_cycles(&cycles)
    } else {
        Vec::new()
    };
    RelationAnalysis {
        core_size: core.len(),
        cycles,
        stats,
        abstract_cycles,
        feasibility,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Named;
    use df_events::site;
    use df_igoodlock::LockDependencyRelation;
    use df_runtime::{LockRef, TCtx};

    /// Figure 1 of the paper as a reusable program.
    fn figure1() -> Named<impl Program> {
        Named::new("figure1", |ctx: &TCtx| {
            let o1 = ctx.new_lock(site!("fig1 main:22"));
            let o2 = ctx.new_lock(site!("fig1 main:23"));
            let body = |l1: LockRef, l2: LockRef, slow: bool| {
                move |ctx: &TCtx| {
                    if slow {
                        ctx.work(8);
                    }
                    ctx.acquire(&l1, site!("fig1 run:15"));
                    ctx.acquire(&l2, site!("fig1 run:16"));
                    ctx.release(&l2, site!("fig1 run:17"));
                    ctx.release(&l1, site!("fig1 run:18"));
                }
            };
            let t1 = ctx.spawn(site!("fig1 main:25"), "t1", body(o1, o2, true));
            let t2 = ctx.spawn(site!("fig1 main:26"), "t2", body(o2, o1, false));
            ctx.join(&t1, site!());
            ctx.join(&t2, site!());
        })
    }

    #[test]
    fn full_pipeline_confirms_figure1() {
        let fuzzer =
            DeadlockFuzzer::with_config(figure1(), Config::default().with_confirm_trials(10));
        let report = fuzzer.run();
        assert_eq!(report.program, "figure1");
        assert_eq!(report.potential_count(), 1);
        assert_eq!(report.confirmed_count(), 1);
        let conf = &report.confirmations[0];
        assert!((conf.probability.probability - 1.0).abs() < f64::EPSILON);
        assert_eq!(conf.probability.matched, 10);
        let text = report.to_string();
        assert!(text.contains("CONFIRMED"), "report text: {text}");
    }

    /// Two independent opposite-order lock pairs on four threads: two
    /// predicted cycles, and while Phase II targets one of them the other
    /// pair keeps deadlocking on its own — the program where `matched`
    /// and `deadlocks` (and so `probability` and `deadlock_rate`) differ.
    fn two_cycles() -> Named<impl Program> {
        Named::new("two_cycles", |ctx: &TCtx| {
            let a = ctx.new_lock(site!("tc main:a"));
            let b = ctx.new_lock(site!("tc main:b"));
            let c = ctx.new_lock(site!("tc main:c"));
            let d = ctx.new_lock(site!("tc main:d"));
            let pair = |l1: LockRef, l2: LockRef| {
                move |ctx: &TCtx| {
                    ctx.acquire(&l1, site!("tc pair:outer"));
                    ctx.acquire(&l2, site!("tc pair:inner"));
                    ctx.release(&l2, site!("tc pair:rel2"));
                    ctx.release(&l1, site!("tc pair:rel1"));
                }
            };
            let t1 = ctx.spawn(site!("tc main:s1"), "t1", pair(a, b));
            let t2 = ctx.spawn(site!("tc main:s2"), "t2", pair(b, a));
            let t3 = ctx.spawn(site!("tc main:s3"), "t3", pair(c, d));
            let t4 = ctx.spawn(site!("tc main:s4"), "t4", pair(d, c));
            ctx.join(&t1, site!());
            ctx.join(&t2, site!());
            ctx.join(&t3, site!());
            ctx.join(&t4, site!());
        })
    }

    /// Opposite lock orders that can never overlap: the second thread is
    /// spawned only after the first is joined, so iGoodlock (without the
    /// hb filter) predicts a cycle no execution can realize.
    fn ordered_pair() -> Named<impl Program> {
        Named::new("ordered_pair", |ctx: &TCtx| {
            let a = ctx.new_lock(site!("op main:a"));
            let b = ctx.new_lock(site!("op main:b"));
            let t1 = ctx.spawn(site!("op main:s1"), "t1", move |ctx: &TCtx| {
                ctx.acquire(&a, site!("op t1:a"));
                ctx.acquire(&b, site!("op t1:b"));
                ctx.release(&b, site!("op t1:rb"));
                ctx.release(&a, site!("op t1:ra"));
            });
            ctx.join(&t1, site!());
            let t2 = ctx.spawn(site!("op main:s2"), "t2", move |ctx: &TCtx| {
                ctx.acquire(&b, site!("op t2:b"));
                ctx.acquire(&a, site!("op t2:a"));
                ctx.release(&a, site!("op t2:ra"));
                ctx.release(&b, site!("op t2:rb"));
            });
            ctx.join(&t2, site!());
        })
    }

    #[test]
    fn baseline_rarely_deadlocks_on_figure1() {
        let fuzzer = DeadlockFuzzer::new(figure1());
        let baseline = fuzzer.baseline(20).expect("trials > 0");
        let deadlocks = baseline.deadlocks;
        assert!(baseline.avg_steps > 0.0);
        assert!(
            deadlocks <= 6,
            "baseline should rarely deadlock: {deadlocks}/20"
        );
    }

    #[test]
    fn streamed_phase1_matches_offline_without_materializing_events() {
        let obs = df_obs::Obs::default();
        let fuzzer =
            DeadlockFuzzer::with_config(figure1(), Config::default().with_obs(obs.clone()));
        let streamed = fuzzer.phase1();
        let recorded = fuzzer.observe(df_events::SinkHandle::none(), true);
        let offline = LockDependencyRelation::from_trace(&recorded.trace);
        assert_eq!(offline.len(), streamed.relation_size);
        assert_eq!(offline.raw_count, streamed.acquires_observed);
        assert_eq!(
            igoodlock_filtered(&offline, false, &Config::default().igoodlock).0,
            streamed.cycles
        );
        assert!(!recorded.trace.events().is_empty());
        assert!(
            streamed.trace.events().is_empty(),
            "Phase I must not materialize the event vector"
        );
        assert_eq!(streamed.trace.objects(), recorded.trace.objects());
        let snap = obs.counters().snapshot();
        assert_eq!(
            snap.events_streamed,
            recorded.trace.events().len() as u64,
            "Phase I streams every event into the builder"
        );
        assert_eq!(snap.dependency_edges, streamed.relation_size as u64);
    }

    #[test]
    fn observe_streams_the_run_into_custom_sinks() {
        let fuzzer = DeadlockFuzzer::new(figure1());
        let builder = Arc::new(std::sync::Mutex::new(RelationBuilder::new()));
        let result = fuzzer.observe(df_events::SinkHandle::single(builder.clone()), false);
        assert!(result.trace.events().is_empty());
        let relation = builder.lock().expect("sink").take().unwrap();
        let offline = fuzzer.phase1();
        assert_eq!(relation.len(), offline.relation_size);
    }

    #[test]
    fn phase2_reports_match_flag() {
        let fuzzer = DeadlockFuzzer::new(figure1());
        let p1 = fuzzer.phase1();
        assert_eq!(p1.cycle_count(), 1);
        assert!(p1.run_outcome.is_completed() || p1.run_outcome.is_deadlock());
        let r = fuzzer.phase2(&p1.abstract_cycles[0], 42);
        assert!(r.deadlocked());
        assert!(r.matched_target);
        assert!(r.steps > 0);
    }

    #[test]
    fn replay_of_a_deadlocking_phase2_run_reproduces_it() {
        let fuzzer = DeadlockFuzzer::new(figure1());
        let p1 = fuzzer.phase1();
        let r = fuzzer.phase2(&p1.abstract_cycles[0], 3);
        let w1 = r.witness.clone().expect("phase 2 deadlocks");
        let replayed = fuzzer.replay(&r.trace);
        let w2 = replayed
            .deadlock()
            .expect("replay lands in the same deadlock");
        assert_eq!(w1.threads(), w2.threads());
        assert_eq!(w1.locks(), w2.locks());
    }

    #[test]
    fn no_lock_program_yields_empty_report() {
        let fuzzer = DeadlockFuzzer::new(Named::new("lockless", |ctx: &TCtx| {
            ctx.work(3);
        }));
        let report = fuzzer.run();
        assert_eq!(report.potential_count(), 0);
        assert!(report.confirmations.is_empty());
        assert_eq!(report.phase1.relation_size, 0);
    }

    #[test]
    fn estimate_probability_counts_trials() {
        let fuzzer = DeadlockFuzzer::new(figure1());
        let p1 = fuzzer.phase1();
        let prob = fuzzer
            .estimate_probability(&p1.abstract_cycles[0], 5)
            .expect("trials > 0");
        assert_eq!(prob.trials, 5);
        assert_eq!(prob.deadlocks, 5);
        assert!(prob.avg_steps > 0.0);
        assert_eq!(prob.outcomes.deadlocks, 5);
        assert_eq!(prob.outcomes.total(), 5);
        assert_eq!(prob.retries, 0);
    }

    #[test]
    fn estimate_probability_rejects_zero_trials() {
        let fuzzer = DeadlockFuzzer::new(figure1());
        let p1 = fuzzer.phase1();
        let cycle = p1
            .abstract_cycles
            .first()
            .cloned()
            .unwrap_or_else(|| AbstractCycle::new(vec![]));
        let result = fuzzer.estimate_probability(&cycle, 0);
        assert!(
            matches!(result, Err(DfError::InvalidConfig(_))),
            "{result:?}"
        );
        assert!(matches!(fuzzer.baseline(0), Err(DfError::InvalidConfig(_))));
    }

    #[test]
    fn injected_panics_are_classified_and_retried_not_fatal() {
        use df_runtime::FaultPlan;
        // Predict the cycle with a clean fuzzer, then confirm it under a
        // plan that panics on every first acquire.
        let clean = DeadlockFuzzer::new(figure1());
        let cycle = clean.phase1().abstract_cycles[0].clone();
        let mut config = Config::default().with_trial_retries(1);
        config.run = config
            .run
            .with_fault_plan(FaultPlan::new(7).with_panic_on_acquire(1.0));
        let faulty = DeadlockFuzzer::with_config(figure1(), config);
        let prob = faulty.estimate_probability(&cycle, 4).expect("trials > 0");
        assert_eq!(prob.trials, 4);
        assert_eq!(prob.deadlocks, 0);
        assert_eq!(prob.outcomes.panics, 4, "{:?}", prob.outcomes);
        assert_eq!(prob.retries, 4, "each trial retried once");
        let s = prob.to_string();
        assert!(s.contains("4 panic"), "{s}");
    }

    #[test]
    fn fuzzer_state_is_shareable_across_pool_workers() {
        fn assert_sync<T: Sync>() {}
        fn assert_send<T: Send>() {}
        // The pool shares `&DeadlockFuzzer` across workers and moves
        // per-trial results (built from RunResult) back; fault plans ride
        // along inside the cloned RunConfig.
        assert_sync::<DeadlockFuzzer>();
        assert_send::<df_runtime::RunConfig>();
        assert_send::<df_runtime::FaultPlan>();
        assert_send::<RunResult>();
    }

    #[test]
    fn parallel_and_sequential_campaigns_agree() {
        let run = |jobs| {
            let fuzzer = DeadlockFuzzer::with_config(figure1(), Config::default().with_jobs(jobs));
            let p1 = fuzzer.phase1();
            fuzzer
                .estimate_probability(&p1.abstract_cycles[0], 6)
                .expect("trials > 0")
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.trials, par.trials);
        assert_eq!(seq.deadlocks, par.deadlocks);
        assert_eq!(seq.matched, par.matched);
        assert_eq!(seq.outcomes, par.outcomes);
        assert_eq!(seq.retries, par.retries);
        assert_eq!(seq.avg_steps, par.avg_steps);
        assert_eq!(seq.avg_thrashes, par.avg_thrashes);
    }

    #[test]
    fn stop_on_first_reports_only_the_confirming_prefix() {
        for jobs in [1, 4] {
            let fuzzer = DeadlockFuzzer::with_config(
                figure1(),
                Config::default().with_stop_on_first(true).with_jobs(jobs),
            );
            let p1 = fuzzer.phase1();
            let prob = fuzzer
                .estimate_probability(&p1.abstract_cycles[0], 10)
                .expect("trials > 0");
            // Figure 1 confirms on every seed, so the deterministic stop
            // point is trial 0 — later trials must never be tallied even
            // if a parallel worker had already started them.
            assert_eq!(prob.trials, 1, "jobs={jobs}");
            assert_eq!(prob.matched, 1, "jobs={jobs}");
            assert_eq!(prob.outcomes.total(), 1, "jobs={jobs}");
            assert!((prob.probability - 1.0).abs() < f64::EPSILON);
        }
    }

    #[test]
    fn aggregate_of_zero_trials_is_an_empty_campaign_error() {
        let obs = df_obs::Obs::default();
        let result = aggregate_trials(Vec::new(), 5, false, &obs);
        assert!(matches!(result, Err(DfError::EmptyCampaign)), "{result:?}");
    }

    #[test]
    fn probability_counts_target_matches_not_all_deadlocks() {
        // Regression for the historical bug where `probability` was
        // computed as deadlocks/ran: four deadlocking trials of which two
        // matched the target must report probability 0.5 (matched/ran)
        // and deadlock_rate 1.0.
        let obs = df_obs::Obs::default();
        let trial = |matched: bool| TrialRun {
            outcome: TrialOutcome::Deadlock,
            deadlocked: true,
            matched,
            thrashes: 1,
            pauses: 0,
            yields: 0,
            steps: 10,
            duration: std::time::Duration::from_millis(1),
            retries: 0,
            shard: obs.fork_shard(),
        };
        let report = aggregate_trials(
            vec![trial(true), trial(false), trial(true), trial(false)],
            4,
            false,
            &obs,
        )
        .expect("non-empty campaign");
        assert_eq!(report.matched, 2);
        assert_eq!(report.deadlocks, 4);
        assert!(
            (report.probability - 0.5).abs() < f64::EPSILON,
            "{report:?}"
        );
        assert!(
            (report.deadlock_rate - 1.0).abs() < f64::EPSILON,
            "{report:?}"
        );
        assert!(!report.truncated);
    }

    #[test]
    fn unmatched_deadlocks_raise_deadlock_rate_above_probability() {
        // End-to-end version of the accounting regression on a two-cycle
        // trace: targeting cycle 0, the untargeted pair's deadlocks count
        // toward deadlock_rate but not probability.
        let fuzzer = DeadlockFuzzer::new(two_cycles());
        let p1 = fuzzer.phase1();
        assert_eq!(p1.cycle_count(), 2);
        let prob = fuzzer
            .estimate_probability(&p1.abstract_cycles[0], 12)
            .expect("trials > 0");
        assert!(prob.matched > 0, "{prob:?}");
        assert!(prob.deadlocks > prob.matched, "{prob:?}");
        assert!(prob.deadlock_rate > prob.probability, "{prob:?}");
    }

    #[test]
    fn feasibility_judgements_ride_the_report() {
        let fuzzer = DeadlockFuzzer::with_config(
            two_cycles(),
            Config::default()
                .with_feasibility(true)
                .with_confirm_trials(3),
        );
        let report = fuzzer.run();
        assert_eq!(report.phase1.feasibility.len(), 2);
        for (conf, judgement) in report.confirmations.iter().zip(&report.phase1.feasibility) {
            assert_eq!(
                conf.feasibility.as_ref(),
                Some(judgement),
                "confirmation carries its cycle's judgement"
            );
            assert_eq!(
                judgement.verdict,
                df_igoodlock::FeasibilityVerdict::Feasible,
                "both pairs run concurrently"
            );
        }
        let metrics = report.metrics(&df_obs::Obs::default());
        assert!(
            metrics.extra.contains_key("feasibility_score_cycle_0"),
            "{:?}",
            metrics.extra.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn adaptive_campaign_matches_uniform_verdicts_with_fewer_trials() {
        let uniform = DeadlockFuzzer::with_config(
            two_cycles(),
            Config::default()
                .with_feasibility(true)
                .with_confirm_trials(8),
        )
        .run();
        let obs = df_obs::Obs::default();
        let adaptive = DeadlockFuzzer::with_config(
            two_cycles(),
            Config::default()
                .with_feasibility(true)
                .with_adaptive_trials(true)
                .with_confirm_trials(8)
                .with_obs(obs.clone()),
        )
        .run();
        let verdicts = |r: &Report| {
            r.confirmations
                .iter()
                .map(|c| (c.cycle_index, c.confirmed))
                .collect::<Vec<_>>()
        };
        assert_eq!(verdicts(&uniform), verdicts(&adaptive));
        let spent = |r: &Report| {
            r.confirmations
                .iter()
                .map(|c| c.probability.trials)
                .sum::<u32>()
        };
        let (uniform_spent, adaptive_spent) = (spent(&uniform), spent(&adaptive));
        assert!(
            adaptive_spent < uniform_spent,
            "adaptive must confirm with fewer trials: {adaptive_spent} vs {uniform_spent}"
        );
        let snap = obs.counters().snapshot();
        assert_eq!(snap.trials_saved, u64::from(uniform_spent - adaptive_spent));
        for c in &adaptive.confirmations {
            if c.confirmed && c.probability.trials < 8 {
                assert!(
                    c.probability.truncated,
                    "an early-stopped estimate must be flagged: {c:?}"
                );
            }
        }
    }

    #[test]
    fn infeasible_cycles_are_deferred_not_skipped() {
        let obs = df_obs::Obs::default();
        let fuzzer = DeadlockFuzzer::with_config(
            ordered_pair(),
            Config::default()
                .with_feasibility(true)
                .with_adaptive_trials(true)
                .with_obs(obs.clone()),
        );
        let report = fuzzer.run();
        assert_eq!(
            report.potential_count(),
            1,
            "with the hb filter off the ordered cycle is still predicted"
        );
        let conf = &report.confirmations[0];
        let judgement = conf.feasibility.as_ref().expect("cycle was scored");
        assert_eq!(
            judgement.verdict,
            df_igoodlock::FeasibilityVerdict::Infeasible
        );
        assert!(!conf.confirmed);
        assert!(conf.error.is_none(), "{conf:?}");
        let ceiling = Config::default().confirm_trials;
        assert_eq!(conf.probability.trials, ceiling, "deferred, then run");
        let snap = obs.counters().snapshot();
        assert_eq!(snap.cycles_deferred_infeasible, 1);
        assert_eq!(snap.trials_saved, 0);
    }

    #[test]
    fn a_drained_budget_cuts_the_deferred_cycle() {
        // The live inversion of figure1, then the ordered pair: one
        // budgeted trial goes to the live cycle, none is left for the
        // deferred one.
        let program = Named::new("live_then_ordered", |ctx: &TCtx| {
            figure1().run(ctx);
            ordered_pair().run(ctx);
        });
        let report = DeadlockFuzzer::with_config(
            program,
            Config::default()
                .with_feasibility(true)
                .with_adaptive_trials(true)
                .with_trial_budget(Some(1)),
        )
        .run();
        let cut: Vec<_> = report
            .confirmations
            .iter()
            .filter(|c| c.cut_while_deferred())
            .collect();
        assert_eq!(cut.len(), 1, "{report}");
        assert!(cut[0].error.is_none());
        assert!(
            report
                .to_string()
                .contains("deferred, then cut by the trial budget"),
            "{report}"
        );
    }

    #[test]
    fn trial_budget_caps_the_adaptive_campaign() {
        let fuzzer = DeadlockFuzzer::with_config(
            two_cycles(),
            Config::default()
                .with_feasibility(true)
                .with_adaptive_trials(true)
                .with_confirm_trials(50)
                .with_trial_budget(Some(6)),
        );
        let report = fuzzer.run();
        let spent: u32 = report
            .confirmations
            .iter()
            .map(|c| c.probability.trials)
            .sum();
        assert!(spent <= 6, "budget overrun: {spent}");
    }

    #[test]
    fn campaign_failure_is_recorded_not_fatal() {
        // confirm_trials = 0 makes every confirmation campaign fail with
        // InvalidConfig; run() must record it and finish, not panic.
        let fuzzer =
            DeadlockFuzzer::with_config(figure1(), Config::default().with_confirm_trials(0));
        let report = fuzzer.run();
        assert_eq!(report.potential_count(), 1);
        assert_eq!(report.confirmed_count(), 0);
        assert_eq!(report.failed_count(), 1);
        let conf = &report.confirmations[0];
        assert!(!conf.confirmed);
        assert!(
            conf.error
                .as_deref()
                .unwrap_or("")
                .contains("at least one trial"),
            "{:?}",
            conf.error
        );
        assert_eq!(conf.probability.trials, 0);
        let text = report.to_string();
        assert!(text.contains("FAILED"), "{text}");
    }

    #[test]
    fn trial_deadline_bounds_programs_that_spin_forever() {
        use std::time::Duration;
        let mut config = Config::default().with_trial_deadline(Some(Duration::from_millis(200)));
        config.run = config
            .run
            .with_max_steps(u64::MAX)
            .with_hang_timeout(Duration::from_secs(60));
        let fuzzer = DeadlockFuzzer::with_config(
            Named::new("spinner", |ctx: &TCtx| loop {
                ctx.yield_now();
            }),
            config,
        );
        let start = Instant::now();
        let report = fuzzer.run();
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "deadline must bound the campaign"
        );
        assert_eq!(report.phase1.run_outcome, Outcome::DeadlineExceeded);
    }

    #[test]
    fn chaos_campaign_still_terminates_with_a_report() {
        use df_runtime::FaultPlan;
        use std::time::Duration;
        let mut config = Config::default()
            .with_confirm_trials(3)
            .with_trial_retries(1)
            .with_trial_deadline(Some(Duration::from_secs(5)));
        config.run = config.run.with_max_steps(20_000).with_fault_plan(
            FaultPlan::new(11)
                .with_panic_on_acquire(0.05)
                .with_leak_release(0.05)
                .with_spurious_wakeup(0.1)
                .with_runaway_spawn(0.2),
        );
        let fuzzer = DeadlockFuzzer::with_config(figure1(), config);
        let report = fuzzer.run();
        // Whatever the faults did, every campaign finished with every
        // trial classified.
        for conf in &report.confirmations {
            if conf.error.is_none() {
                assert_eq!(conf.probability.outcomes.total(), 3);
            }
        }
        let _ = report.to_string();
    }
}
