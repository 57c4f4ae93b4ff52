//! Pipeline configuration and the paper's experimental variants.

use crate::error::DfError;
use df_abstraction::AbstractionMode;
use df_igoodlock::IGoodlockOptions;
use df_runtime::RunConfig;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// The five DeadlockFuzzer variants evaluated in Figure 2 of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Variant {
    /// Variant 1: context information + k-object-sensitive abstraction.
    ContextKObject,
    /// Variant 2 (the default / best performer): context information +
    /// light-weight execution-indexing abstraction.
    ContextExecIndex,
    /// Variant 3: trivial abstraction ("ignore abstraction").
    IgnoreAbstraction,
    /// Variant 4: abstraction without acquisition contexts
    /// ("ignore context").
    IgnoreContext,
    /// Variant 5: the §4 yield optimization disabled ("no yields").
    NoYields,
}

impl Variant {
    /// All five variants, in the paper's order.
    pub const ALL: [Variant; 5] = [
        Variant::ContextKObject,
        Variant::ContextExecIndex,
        Variant::IgnoreAbstraction,
        Variant::IgnoreContext,
        Variant::NoYields,
    ];

    /// The paper's legend label.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::ContextKObject => "Context + 1st Abstraction",
            Variant::ContextExecIndex => "Context + 2nd Abstraction",
            Variant::IgnoreAbstraction => "Ignore Abstraction",
            Variant::IgnoreContext => "Ignore Context",
            Variant::NoYields => "No Yields",
        }
    }

    /// Applies the variant's knobs to a configuration.
    pub fn apply(&self, mut config: Config) -> Config {
        match self {
            Variant::ContextKObject => {
                config.mode = AbstractionMode::KObject(10);
                config.use_context = true;
                config.yield_optimization = true;
            }
            Variant::ContextExecIndex => {
                config.mode = AbstractionMode::ExecIndex(10);
                config.use_context = true;
                config.yield_optimization = true;
            }
            Variant::IgnoreAbstraction => {
                config.mode = AbstractionMode::Trivial;
                config.use_context = true;
                config.yield_optimization = true;
            }
            Variant::IgnoreContext => {
                config.mode = AbstractionMode::ExecIndex(10);
                config.use_context = false;
                config.yield_optimization = true;
            }
            Variant::NoYields => {
                config.mode = AbstractionMode::ExecIndex(10);
                config.use_context = true;
                config.yield_optimization = false;
            }
        }
        config
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration of the full two-phase pipeline.
#[derive(Clone, Debug)]
pub struct Config {
    /// Object abstraction used to report and match cycles.
    pub mode: AbstractionMode,
    /// Honor acquisition contexts when matching cycle components.
    pub use_context: bool,
    /// Enable the §4 yield optimization.
    pub yield_optimization: bool,
    /// Seed of the Phase I (simple random) execution.
    pub phase1_seed: u64,
    /// Base seed of Phase II executions (trial `i` uses
    /// `phase2_seed_base + i`).
    pub phase2_seed_base: u64,
    /// iGoodlock bounds.
    pub igoodlock: IGoodlockOptions,
    /// Prune Phase I cycles whose hold windows are ordered by fork/join
    /// happens-before (they can never manifest — e.g. the paper's §5.4
    /// Jigsaw false positives). Off by default: the paper's iGoodlock
    /// deliberately ignores happens-before to keep its predictive power;
    /// this is the extension explored by the generalized-Goodlock line of
    /// work.
    pub hb_filter: bool,
    /// Virtual-runtime bounds for each execution.
    pub run: RunConfig,
    /// Livelock-monitor budget for paused threads (§5).
    pub pause_budget: u64,
    /// §4 yield gate: maximum scheduling decisions a gated thread is
    /// deferred per site.
    pub yield_budget: u32,
    /// Trials per cycle used by [`crate::DeadlockFuzzer::run`] to confirm
    /// cycles (the paper uses 100 for Table 1's probability column).
    pub confirm_trials: u32,
    /// Per-trial wall-clock deadline, applied on top of the step budget:
    /// each Phase II (and baseline) execution is bounded by this much real
    /// time even while it makes steady progress. Copied into
    /// [`RunConfig::deadline`] unless that is already set. `None` disables
    /// the deadline.
    pub trial_deadline: Option<Duration>,
    /// How many times a retryable trial (program panic, timeout, internal
    /// error — see [`crate::TrialOutcome::is_retryable`]) is re-run with a
    /// rotated seed before its outcome is accepted. `0` disables retries.
    pub trial_retries: u32,
    /// Worker threads for Phase II confirmation, probability-estimation
    /// and baseline trials ([`crate::TrialPool`]). `0` (the default)
    /// means one worker per available hardware thread; `1` runs trials
    /// sequentially on the calling thread. Per-trial seeding is
    /// index-based, so any `jobs` value produces the same report modulo
    /// wall-clock fields.
    pub jobs: usize,
    /// Read by nothing. Kept only because the repository benchmark still
    /// passes it to the join, and goes away once the benchmark calls
    /// [`df_igoodlock::igoodlock_filtered`].
    #[doc(hidden)]
    pub phase1_jobs: usize,
    /// Score every Phase I cycle with the sync-preserving partial-order
    /// feasibility check ([`df_igoodlock::FeasibilityAnalysis`]): each
    /// cycle gets a `Feasible`/`Infeasible`/`Unknown` verdict and a
    /// numeric score in the report. Layered on top of the ±[`Config::hb_filter`]
    /// choice — the filter *removes* provably-impossible cycles, the
    /// scorer *ranks* the survivors (and still marks provably-impossible
    /// ones `Infeasible` when the filter is off).
    pub feasibility: bool,
    /// Replace the uniform `confirm_trials`-per-cycle Phase II campaign
    /// of [`crate::DeadlockFuzzer::run`] with the deterministic adaptive
    /// allocator ([`crate::allocate_trials`]): trials go first to the
    /// cycles feasibility scored highest, running estimates reorder the
    /// queue between rounds, confirmed cycles stop immediately, and
    /// `Infeasible`-scored cycles are skipped outright. Per-cycle trial
    /// seeding is unchanged (trial `i` of a cycle still uses
    /// `phase2_seed_base + i`), so allocation is jobs-invariant.
    /// Incompatible with [`Config::stop_on_first`], whose truncated
    /// estimates would bias the allocator.
    pub adaptive_trials: bool,
    /// Optional cap on the *total* Phase II trials an adaptive campaign
    /// may spend across all cycles. `None` (the default) lets every
    /// unconfirmed, non-infeasible cycle reach `confirm_trials`, which
    /// guarantees the adaptive campaign confirms exactly the cycles a
    /// uniform one would. Ignored when [`Config::adaptive_trials`] is
    /// off.
    pub trial_budget: Option<u32>,
    /// Stop a confirmation campaign at the first trial that reproduces
    /// the target cycle: the campaign reports exactly the trials up to
    /// and including the first matching one (in trial-index order, at
    /// any `jobs`), never trials started after the confirmation. Off by
    /// default — the paper's probability columns need every trial.
    pub stop_on_first: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            mode: AbstractionMode::default(),
            use_context: true,
            yield_optimization: true,
            phase1_seed: 0,
            phase2_seed_base: 1_000,
            igoodlock: IGoodlockOptions::default(),
            hb_filter: false,
            run: RunConfig::default(),
            pause_budget: 5_000,
            yield_budget: 8,
            confirm_trials: 20,
            trial_deadline: Some(Duration::from_secs(30)),
            trial_retries: 2,
            jobs: 0,
            phase1_jobs: 1,
            feasibility: false,
            adaptive_trials: false,
            trial_budget: None,
            stop_on_first: false,
        }
    }
}

impl Config {
    /// Default configuration (variant 2 of the paper).
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies a Figure 2 variant.
    pub fn with_variant(self, variant: Variant) -> Self {
        variant.apply(self)
    }

    /// Sets the abstraction mode.
    pub fn with_mode(mut self, mode: AbstractionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the Phase I seed.
    pub fn with_phase1_seed(mut self, seed: u64) -> Self {
        self.phase1_seed = seed;
        self
    }

    /// Sets the Phase II base seed.
    pub fn with_phase2_seed_base(mut self, seed: u64) -> Self {
        self.phase2_seed_base = seed;
        self
    }

    /// Sets the number of confirmation trials per cycle.
    pub fn with_confirm_trials(mut self, trials: u32) -> Self {
        self.confirm_trials = trials;
        self
    }

    /// Sets context matching.
    pub fn with_context(mut self, use_context: bool) -> Self {
        self.use_context = use_context;
        self
    }

    /// Sets the yield optimization.
    pub fn with_yields(mut self, yields: bool) -> Self {
        self.yield_optimization = yields;
        self
    }

    /// Enables/disables the happens-before false-positive filter.
    pub fn with_hb_filter(mut self, on: bool) -> Self {
        self.hb_filter = on;
        self
    }

    /// Sets the per-trial wall-clock deadline (`None` disables it).
    pub fn with_trial_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.trial_deadline = deadline;
        self
    }

    /// Sets the retry budget for retryable trial outcomes.
    pub fn with_trial_retries(mut self, retries: u32) -> Self {
        self.trial_retries = retries;
        self
    }

    /// Sets the trial worker count (`0` = one per hardware thread,
    /// `1` = sequential).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Enables/disables feasibility scoring of Phase I cycles.
    pub fn with_feasibility(mut self, on: bool) -> Self {
        self.feasibility = on;
        self
    }

    /// Enables/disables the adaptive Phase II trial allocator.
    pub fn with_adaptive_trials(mut self, on: bool) -> Self {
        self.adaptive_trials = on;
        self
    }

    /// Caps the total trials of an adaptive campaign (`None` = let every
    /// unconfirmed cycle reach `confirm_trials`).
    pub fn with_trial_budget(mut self, budget: Option<u32>) -> Self {
        self.trial_budget = budget;
        self
    }

    /// Stops confirmation campaigns at the first matching trial.
    pub fn with_stop_on_first(mut self, stop: bool) -> Self {
        self.stop_on_first = stop;
        self
    }

    /// Sets the livelock-monitor pause budget (§5).
    pub fn with_pause_budget(mut self, budget: u64) -> Self {
        self.pause_budget = budget;
        self
    }

    /// Sets the §4 yield gate budget.
    pub fn with_yield_budget(mut self, budget: u32) -> Self {
        self.yield_budget = budget;
        self
    }

    /// Sets the iGoodlock search bounds.
    pub fn with_igoodlock(mut self, options: IGoodlockOptions) -> Self {
        self.igoodlock = options;
        self
    }

    /// Replaces the per-execution virtual-runtime configuration.
    pub fn with_run(mut self, run: RunConfig) -> Self {
        self.run = run;
        self
    }

    /// Attaches an observability handle; counters, phase timings and the
    /// optional trace sink are shared by every execution of the pipeline.
    pub fn with_obs(mut self, obs: df_obs::Obs) -> Self {
        self.run = self.run.with_obs(obs);
        self
    }

    /// The observability handle carried by the runtime configuration.
    pub fn obs(&self) -> &df_obs::Obs {
        &self.run.obs
    }

    /// Checks the configuration for values that make a campaign
    /// meaningless, returning the first problem found.
    ///
    /// The pipeline used to accept nonsense silently — zero trials only
    /// surfaced as a failed confirmation deep inside [`crate::DeadlockFuzzer::run`],
    /// and out-of-range probabilities were clamped where they were used.
    /// Front doors (the `dfz` CLI rejects invalid configurations with
    /// exit code 2) should call this before starting any work.
    ///
    /// # Errors
    ///
    /// Returns [`DfError::InvalidConfig`] describing the offending field.
    pub fn validate(&self) -> Result<(), DfError> {
        let invalid = |m: String| Err(DfError::InvalidConfig(m));
        if self.confirm_trials == 0 {
            return invalid("confirm_trials must be at least 1".to_string());
        }
        if self.run.max_steps == 0 {
            return invalid("run.max_steps must be at least 1".to_string());
        }
        if self.run.hang_timeout.is_zero() {
            return invalid("run.hang_timeout must be positive".to_string());
        }
        if self.trial_deadline.is_some_and(|d| d.is_zero()) {
            return invalid("trial_deadline must be positive (use None to disable it)".to_string());
        }
        if self.igoodlock.max_cycles == 0 {
            return invalid("igoodlock.max_cycles must be at least 1".to_string());
        }
        if self.igoodlock.max_open_chains == 0 {
            return invalid("igoodlock.max_open_chains must be at least 1".to_string());
        }
        if self.trial_budget == Some(0) {
            return invalid(
                "trial_budget must be at least 1 (use None for an uncapped campaign)".to_string(),
            );
        }
        if self.adaptive_trials && self.stop_on_first {
            return invalid(
                "adaptive_trials is incompatible with stop_on_first: truncated \
                 campaigns produce biased estimates the allocator must not consume"
                    .to_string(),
            );
        }
        if let Some(plan) = &self.run.fault_plan {
            for (name, p) in [
                ("panic_on_acquire", plan.panic_on_acquire),
                ("leak_release", plan.leak_release),
                ("spurious_wakeup", plan.spurious_wakeup),
                ("runaway_spawn", plan.runaway_spawn),
            ] {
                if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                    return invalid(format!(
                        "fault probability {name} must be within [0, 1], got {p}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_variant_two() {
        let c = Config::default();
        assert_eq!(c.mode, AbstractionMode::ExecIndex(10));
        assert!(c.use_context);
        assert!(c.yield_optimization);
    }

    #[test]
    fn variants_toggle_the_right_knobs() {
        let base = Config::default();
        let v1 = base.clone().with_variant(Variant::ContextKObject);
        assert_eq!(v1.mode, AbstractionMode::KObject(10));
        let v3 = base.clone().with_variant(Variant::IgnoreAbstraction);
        assert_eq!(v3.mode, AbstractionMode::Trivial);
        assert!(v3.use_context);
        let v4 = base.clone().with_variant(Variant::IgnoreContext);
        assert!(!v4.use_context);
        assert_eq!(v4.mode, AbstractionMode::ExecIndex(10));
        let v5 = base.clone().with_variant(Variant::NoYields);
        assert!(!v5.yield_optimization);
        assert!(v5.use_context);
    }

    #[test]
    fn labels_match_figure_2_legend() {
        assert_eq!(
            Variant::ContextExecIndex.label(),
            "Context + 2nd Abstraction"
        );
        assert_eq!(Variant::ALL.len(), 5);
        assert_eq!(Variant::NoYields.to_string(), "No Yields");
    }

    #[test]
    fn builders_apply() {
        let c = Config::new()
            .with_phase1_seed(5)
            .with_phase2_seed_base(77)
            .with_confirm_trials(3)
            .with_context(false)
            .with_yields(false)
            .with_mode(AbstractionMode::Site)
            .with_trial_deadline(Some(Duration::from_secs(5)))
            .with_trial_retries(1)
            .with_jobs(4)
            .with_stop_on_first(true)
            .with_pause_budget(99)
            .with_yield_budget(3)
            .with_igoodlock(IGoodlockOptions::default())
            .with_run(RunConfig::default().with_max_steps(123));
        assert_eq!(c.phase1_seed, 5);
        assert_eq!(c.phase2_seed_base, 77);
        assert_eq!(c.confirm_trials, 3);
        assert!(!c.use_context);
        assert!(!c.yield_optimization);
        assert_eq!(c.mode, AbstractionMode::Site);
        assert_eq!(c.trial_deadline, Some(Duration::from_secs(5)));
        assert_eq!(c.trial_retries, 1);
        assert_eq!(c.jobs, 4);
        assert!(c.stop_on_first);
        assert_eq!(c.pause_budget, 99);
        assert_eq!(c.yield_budget, 3);
        assert_eq!(c.run.max_steps, 123);
    }

    #[test]
    fn default_jobs_are_auto_and_campaigns_run_every_trial() {
        let c = Config::default();
        assert_eq!(c.jobs, 0, "0 = one worker per hardware thread");
        assert!(!c.stop_on_first, "paper probabilities need all trials");
    }

    #[test]
    fn default_campaign_is_bounded() {
        let c = Config::default();
        assert!(c.trial_deadline.is_some(), "trials must be time-bounded");
        assert!(c.trial_retries > 0);
    }

    #[test]
    fn default_config_validates() {
        assert!(Config::default().validate().is_ok());
    }

    fn rejection(c: &Config) -> String {
        match c.validate() {
            Err(DfError::InvalidConfig(m)) => m,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_zero_confirm_trials() {
        let c = Config::default().with_confirm_trials(0);
        assert!(rejection(&c).contains("confirm_trials"));
    }

    #[test]
    fn validate_rejects_zero_max_steps() {
        let mut c = Config::default();
        c.run = c.run.with_max_steps(0);
        assert!(rejection(&c).contains("max_steps"));
    }

    #[test]
    fn validate_rejects_zero_hang_timeout() {
        let mut c = Config::default();
        c.run = c.run.with_hang_timeout(Duration::ZERO);
        assert!(rejection(&c).contains("hang_timeout"));
    }

    #[test]
    fn validate_rejects_zero_trial_deadline_but_allows_none() {
        let c = Config::default().with_trial_deadline(Some(Duration::ZERO));
        assert!(rejection(&c).contains("trial_deadline"));
        assert!(Config::default()
            .with_trial_deadline(None)
            .validate()
            .is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_igoodlock_bounds() {
        let mut c = Config::default();
        c.igoodlock.max_cycles = 0;
        assert!(rejection(&c).contains("max_cycles"));
        let mut c = Config::default();
        c.igoodlock.max_open_chains = 0;
        assert!(rejection(&c).contains("max_open_chains"));
    }

    #[test]
    fn validate_accepts_every_phase1_filter_combination() {
        for hb in [false, true] {
            for feasibility in [false, true] {
                let c = Config::default()
                    .with_hb_filter(hb)
                    .with_feasibility(feasibility);
                assert!(c.validate().is_ok(), "hb={hb} feasibility={feasibility}");
            }
        }
    }

    #[test]
    fn validate_rejects_degenerate_precision_settings() {
        let c = Config::default().with_trial_budget(Some(0));
        assert!(rejection(&c).contains("trial_budget"));
        assert!(Config::default()
            .with_trial_budget(Some(1))
            .validate()
            .is_ok());
        let c = Config::default()
            .with_adaptive_trials(true)
            .with_stop_on_first(true);
        assert!(rejection(&c).contains("stop_on_first"));
        // Each knob is fine on its own, and the precision pair composes.
        assert!(Config::default()
            .with_stop_on_first(true)
            .validate()
            .is_ok());
        assert!(Config::default()
            .with_feasibility(true)
            .with_adaptive_trials(true)
            .with_trial_budget(Some(100))
            .validate()
            .is_ok());
    }

    #[test]
    fn precision_knobs_default_off() {
        let c = Config::default();
        assert!(!c.feasibility);
        assert!(!c.adaptive_trials);
        assert_eq!(c.trial_budget, None);
    }

    #[test]
    fn validate_rejects_out_of_range_fault_probabilities() {
        use df_runtime::FaultPlan;
        let mut c = Config::default();
        c.run = c
            .run
            .with_fault_plan(FaultPlan::new(1).with_leak_release(1.5));
        assert!(rejection(&c).contains("leak_release"));
        let mut c = Config::default();
        c.run = c
            .run
            .with_fault_plan(FaultPlan::new(1).with_panic_on_acquire(f64::NAN));
        assert!(rejection(&c).contains("panic_on_acquire"));
        let mut c = Config::default();
        c.run = c
            .run
            .with_fault_plan(FaultPlan::new(1).with_leak_release(1.0));
        assert!(c.validate().is_ok(), "boundary probabilities are legal");
    }
}
