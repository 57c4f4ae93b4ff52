//! The four workloads, their set-up, the timed and traced campaigns, and
//! the correctness gates.
//!
//! Every workload is a closed loop: one campaign runs at a time and the
//! next starts when it ends. A virtual-thread campaign is exactly what
//! `DeadlockFuzzer::run` does (`phase1` then `confirm_all`); its traced
//! twin makes the same calls one public layer at a time so each can be
//! timed from outside.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use deadlock_fuzzer::abstraction::Abstractor;
use deadlock_fuzzer::events::SinkHandle;
use deadlock_fuzzer::fuzzer::SimpleRandomChecker;
use deadlock_fuzzer::igoodlock::{
    igoodlock_parallel, AbstractCycle, Cycle, FeasibilityAnalysis, HbFilter, LockDependencyRelation,
};
use deadlock_fuzzer::runtime::VirtualRuntime;
use deadlock_fuzzer::{Config, DeadlockFuzzer, ProgramRef, TrialPool};
use df_benchmarks::synthetic::{self, SyntheticSpec};

use crate::native::{self, NativeInput, RING_FRAMES};
use crate::reference::Reference;
use crate::spans::{self, Span, Tracer};
use crate::stats::{median, per_step_ratio, tail_percentile};

/// Trial-pool width. Fixed, never read from the host, so a result does
/// not depend on the machine's core count.
pub const JOBS: usize = 2;

/// The spec seed of the synthetic program. The program is fixed because
/// the generator's join size swings from 1.6M to 2.9M chains across spec
/// seeds (and near truncation at some); `--seed` varies the schedules.
const SYNTH_SPEC_SEED: u64 = 3;

/// Predicted and confirmed cycle counts at seed 0 and full scale.
const PINNED_AT_SEED_0: [(Workload, usize, Option<usize>); 4] = [
    (Workload::Ring32, 1, Some(1)),
    (Workload::Table1, 60, Some(54)),
    (Workload::SynthJoin, 4, Some(4)),
    (Workload::NativeSpill, 1, None),
];

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 32-seat dining-philosophers ring: Phase II bound by the
    /// runtime's token handoff across 33 live threads.
    Ring32,
    /// The ten Table 1 models: many short Phase II trials.
    Table1,
    /// A synthetic program whose Phase I join dominates, with the
    /// happens-before and feasibility passes on.
    SynthJoin,
    /// OS threads under df-lock spilling a binary trace, then analyzed.
    NativeSpill,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Ring32,
        Workload::Table1,
        Workload::SynthJoin,
        Workload::NativeSpill,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ring32 => "ring32",
            Workload::Table1 => "table1",
            Workload::SynthJoin => "synth-join",
            Workload::NativeSpill => "native-spill",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::full`] is the benchmark; tests pass smaller ones.
#[derive(Clone, Debug, PartialEq)]
pub struct Scale {
    /// Philosophers in the ring.
    pub ring_seats: usize,
    /// Which models of `table1_suite()` to run.
    pub table1_models: std::ops::Range<usize>,
    /// Nested acquisitions per synthetic worker.
    pub synth_ops: usize,
    /// Planted inversions in the synthetic program.
    pub synth_pairs: usize,
    /// Ordered lock pairs per native worker.
    pub native_pairs: usize,
    /// Phase II trials per predicted cycle.
    pub confirm_trials: u32,
}

impl Scale {
    /// The sizes the benchmark runs.
    pub fn full() -> Scale {
        Scale {
            ring_seats: 32,
            table1_models: 0..10,
            synth_ops: 100,
            synth_pairs: 4,
            native_pairs: 150_000,
            confirm_trials: 20,
        }
    }
}

/// How one run measures.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Workload seed: drives the Phase II seeds and the native program.
    pub seed: u64,
    /// Keep starting campaigns until this much time has passed...
    pub seconds: f64,
    /// ...and at least this many have run.
    pub min_reps: u32,
    /// Set-ups (input construction plus one warm-up campaign) to time.
    pub setups: u32,
    /// Follow every timed campaign with a traced one.
    pub trace: bool,
}

/// One metric as measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The value: a median where `samples > 1`.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many measurements the value summarizes.
    pub samples: usize,
}

/// Everything one run measured and checked.
pub struct RunReport {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Whether traced campaigns ran.
    pub trace: bool,
    /// Failed correctness gates; empty when the outputs are correct.
    pub gate_failures: Vec<String>,
    /// Program executions started in measured campaigns.
    pub attempted: u64,
    /// Executions that ended without a verdict (panic, timeout, internal
    /// error), plus confirmations that errored.
    pub failed: u64,
    /// Every metric the workload produces, by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Spans of the traced campaigns, with the campaign's index.
    pub spans: Vec<(u32, Span)>,
}

impl RunReport {
    /// Whether every gate passed.
    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty()
    }
}

/// Runs `workload` at `scale`: set-ups, then timed (and with
/// `opts.trace`, traced) campaigns for `opts.seconds`.
pub fn run(workload: Workload, scale: &Scale, opts: &RunOptions) -> RunReport {
    let pinned = (*scale == Scale::full() && opts.seed == 0)
        .then(|| PINNED_AT_SEED_0.iter().find(|p| p.0 == workload))
        .flatten()
        .map(|&(_, p, c)| (p, c));
    let seed = opts.seed;
    match workload {
        Workload::NativeSpill => measure(
            workload,
            || NativeCampaign {
                input: NativeInput::generate(scale.native_pairs, seed),
            },
            pinned,
            opts,
        ),
        _ => measure(
            workload,
            || VirtualCampaign::build(workload, scale, seed),
            pinned,
            opts,
        ),
    }
}

/// Work tallied over campaigns.
#[derive(Default)]
struct Tally {
    executions: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.executions += other.executions;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

/// Per-layer values of the traced campaigns: one value per campaign,
/// summarized by median, plus the durations of every instrumented
/// execution, pooled across campaigns for their percentiles.
#[derive(Default)]
struct Samples {
    per_campaign: BTreeMap<&'static str, (&'static str, Vec<f64>)>,
    run_ms: Vec<f64>,
}

impl Samples {
    fn add(&mut self, name: &'static str, unit: &'static str, value: f64) {
        if value.is_finite() {
            let entry = self.per_campaign.entry(name).or_insert((unit, Vec::new()));
            entry.1.push(value);
        }
    }

    fn into_metrics(self, out: &mut BTreeMap<String, Metric>) {
        for (name, (unit, values)) in self.per_campaign {
            out.insert(
                name.to_string(),
                metric(median(&values), unit, values.len()),
            );
        }
        let n = self.run_ms.len();
        out.insert(
            "exec.run_ms_p50".into(),
            metric(median(&self.run_ms), "ms", n),
        );
        if let Some((p, v)) = tail_percentile(&self.run_ms) {
            out.insert(format!("exec.run_ms_p{p}"), metric(v, "ms", n));
        }
    }
}

fn metric(value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        value,
        unit,
        samples,
    }
}

/// One workload's campaign, untraced and traced.
trait Campaign {
    /// What must come out the same in every campaign of a run.
    type Verdict: PartialEq;
    /// One campaign through the whole-pipeline calls.
    fn run(&self) -> (Self::Verdict, Tally);
    /// The campaign with one Phase II trial per cycle: every code path
    /// runs once before timing starts.
    fn warm_up(&self);
    /// Predicted and (where there is Phase II) confirmed cycles.
    fn counts(&self, verdict: &Self::Verdict) -> (usize, Option<usize>);
    /// Gates that hold at any seed.
    fn gates(&self, verdict: &Self::Verdict) -> Vec<String>;
    /// One campaign split into its public calls, each in a span; adds its
    /// per-layer values to `samples` and returns its spans and any gate it
    /// failed against `reference`.
    fn traced(
        &self,
        reference: &Self::Verdict,
        samples: &mut Samples,
    ) -> (Vec<Span>, Tally, Vec<String>);
}

fn measure<C: Campaign>(
    workload: Workload,
    build: impl Fn() -> C,
    pinned: Option<(usize, Option<usize>)>,
    opts: &RunOptions,
) -> RunReport {
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..opts.setups.max(1) {
        let start = Instant::now();
        let campaign = build();
        campaign.warm_up();
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some(campaign);
    }
    let campaign = built.expect("at least one set-up");

    let mut gates = Vec::new();
    let mut first_verdict = None;
    let mut tally = Tally::default();
    let mut samples = Samples::default();
    let (mut campaign_s, mut rss_mb, mut traced_s, mut spans) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Reference runs bracket every timed campaign: `reference_s[i]` ran
    // just before campaign `i` and `reference_s[i + 1]` just after it.
    let reference = Reference::new();
    let mut reference_s = vec![reference.run_s()];
    let start = Instant::now();
    let mut rep = 0u32;
    while rep < opts.min_reps || start.elapsed().as_secs_f64() < opts.seconds {
        reset_peak_rss();
        let t = Instant::now();
        let (verdict, t1) = campaign.run();
        campaign_s.push(t.elapsed().as_secs_f64());
        rss_mb.extend(peak_rss_mb());
        reference_s.push(reference.run_s());
        tally.add(t1);
        let first = match &first_verdict {
            Some(first) => {
                if verdict != *first {
                    gates.push(format!("campaign {rep}: verdicts differ from campaign 0's"));
                }
                first
            }
            None => first_verdict.insert(verdict),
        };
        if opts.trace {
            let (rep_spans, t2, failures) = campaign.traced(first, &mut samples);
            tally.add(t2);
            gates.extend(
                failures
                    .into_iter()
                    .map(|f| format!("traced campaign {rep}: {f}")),
            );
            traced_s.push(spans::wall_ms(&rep_spans, "campaign") / 1e3);
            spans.extend(rep_spans.into_iter().map(|s| (rep, s)));
        }
        rep += 1;
    }
    let first = first_verdict.expect("at least one campaign");
    gates.extend(campaign.gates(&first));
    gates.extend(tally.errors);
    let counts = campaign.counts(&first);
    if let Some(expected) = pinned.filter(|&p| p != counts) {
        gates.push(format!(
            "seed 0 counts (predicted, confirmed) = {counts:?}, expected {expected:?}"
        ));
    }

    let campaign_rel: Vec<f64> = campaign_s
        .iter()
        .zip(reference_s.windows(2))
        .map(|(c, r)| c / ((r[0] + r[1]) / 2.0))
        .collect();
    let failed_frac = tally.failed as f64 / tally.executions.max(1) as f64;
    let mut metrics = BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &'static str, samples: usize| {
        metrics.insert(name.to_string(), metric(value, unit, samples));
    };
    put(
        "campaign_rel",
        median(&campaign_rel),
        "ratio",
        campaign_rel.len(),
    );
    put("campaign_s", median(&campaign_s), "s", campaign_s.len());
    put("reference_s", median(&reference_s), "s", reference_s.len());
    put("setup_s", median(&setup_s), "s", setup_s.len());
    if !rss_mb.is_empty() {
        put("peak_rss_mb", median(&rss_mb), "MB", rss_mb.len());
    }
    put("predicted_cycles", counts.0 as f64, "count", 1);
    if let Some(confirmed) = counts.1 {
        put("confirmed_cycles", confirmed as f64, "count", 1);
    }
    put("failed_frac", failed_frac, "ratio", 1);
    if opts.trace {
        let overhead = median(&traced_s) / median(&campaign_s) - 1.0;
        put("trace.overhead_frac", overhead, "ratio", traced_s.len());
        samples.into_metrics(&mut metrics);
    }
    RunReport {
        workload,
        seed: opts.seed,
        trace: opts.trace,
        gate_failures: gates,
        attempted: tally.executions,
        failed: tally.failed,
        metrics,
        spans,
    }
}

/// Restarts the kernel's peak-RSS tracking (`VmHWM`) from the current
/// resident set, so each campaign's peak is its own rather than the
/// largest of every campaign so far, which grows with heap fragmentation
/// and so with the number of campaigns a run fits in. Where the kernel
/// refuses, the peak stays the process's.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The peak resident set (`VmHWM`) since the last reset, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

// ---------------------------------------------------------------------------
// Virtual-thread workloads
// ---------------------------------------------------------------------------

struct Target {
    name: String,
    program: ProgramRef,
    fuzzer: DeadlockFuzzer,
    expected_cycles: Option<usize>,
    /// Every predicted cycle is a real deadlock Phase II must confirm.
    all_real: bool,
}

struct VirtualCampaign {
    targets: Vec<Target>,
}

/// What one program's campaign decided.
#[derive(Clone, Debug, PartialEq)]
struct Verdicts {
    cycles: Vec<Cycle>,
    abstract_cycles: Vec<AbstractCycle>,
    /// Matching trials per cycle.
    matched: Vec<u32>,
    truncated: bool,
}

impl Verdicts {
    fn confirmed(&self) -> usize {
        self.matched.iter().filter(|&&m| m > 0).count()
    }
}

/// One Phase II trial or plain run, as its caller saw it.
struct Execution {
    steps: u64,
    seconds: f64,
    matched: bool,
    pauses: u64,
    thrashes: u64,
    failed: bool,
}

impl VirtualCampaign {
    fn build(workload: Workload, scale: &Scale, seed: u64) -> VirtualCampaign {
        // Phase I keeps the default seed: the one schedule it observes
        // decides which cycles are predicted (at some seeds Java Logging
        // shows only two of its three orders), and so how much Phase II
        // work the campaign does. The workload seed drives Phase II, where
        // the time goes; seed 0 keeps the default base of 1000.
        let phase2_seed_base = 1_000 + (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16);
        let mut config = Config::default()
            .with_confirm_trials(scale.confirm_trials)
            .with_jobs(JOBS)
            .with_phase2_seed_base(phase2_seed_base);
        let programs: Vec<(String, ProgramRef, Option<usize>, bool)> = match workload {
            Workload::Ring32 => vec![(
                format!("dining-philosophers-{}", scale.ring_seats),
                df_benchmarks::dining_philosophers::program(scale.ring_seats),
                Some(1),
                true,
            )],
            Workload::Table1 => df_benchmarks::table1_suite()[scale.table1_models.clone()]
                .iter()
                .map(|b| {
                    (
                        b.name.to_string(),
                        b.program.clone(),
                        b.expected_cycles,
                        false,
                    )
                })
                .collect(),
            Workload::SynthJoin => {
                config = config.with_hb_filter(true).with_feasibility(true);
                let spec = SyntheticSpec {
                    threads: 8,
                    locks: 32,
                    ops_per_thread: scale.synth_ops,
                    cycle_pairs: scale.synth_pairs,
                    seed: SYNTH_SPEC_SEED,
                };
                vec![(
                    "synthetic".to_string(),
                    synthetic::program(spec),
                    Some(scale.synth_pairs),
                    true,
                )]
            }
            Workload::NativeSpill => unreachable!("native-spill runs no virtual threads"),
        };
        let targets = programs
            .into_iter()
            .map(|(name, program, expected_cycles, all_real)| Target {
                name,
                fuzzer: DeadlockFuzzer::from_ref(program.clone(), config.clone()),
                program,
                expected_cycles,
                all_real,
            })
            .collect();
        VirtualCampaign { targets }
    }
}

impl Campaign for VirtualCampaign {
    type Verdict = Vec<Verdicts>;

    fn run(&self) -> (Vec<Verdicts>, Tally) {
        let mut tally = Tally::default();
        let verdicts = self
            .targets
            .iter()
            .map(|t| {
                let phase1 = t.fuzzer.phase1();
                let confirmations = t.fuzzer.confirm_all(&phase1);
                tally.executions += 1;
                for c in &confirmations {
                    let p = &c.probability;
                    let o = &p.outcomes;
                    tally.executions += u64::from(p.trials + p.retries);
                    tally.failed += u64::from(o.panics + o.timeouts + o.internal_errors);
                    if let Some(e) = &c.error {
                        tally.failed += 1;
                        tally.errors.push(format!("{}: {e}", t.name));
                    }
                }
                Verdicts {
                    matched: confirmations
                        .iter()
                        .map(|c| c.probability.matched)
                        .collect(),
                    truncated: phase1.stats.truncated,
                    cycles: phase1.cycles,
                    abstract_cycles: phase1.abstract_cycles,
                }
            })
            .collect();
        (verdicts, tally)
    }

    fn warm_up(&self) {
        for t in &self.targets {
            let config = t.fuzzer.config().clone().with_confirm_trials(1);
            DeadlockFuzzer::from_ref(t.program.clone(), config).run();
        }
    }

    fn counts(&self, verdicts: &Vec<Verdicts>) -> (usize, Option<usize>) {
        let predicted = verdicts.iter().map(|v| v.cycles.len()).sum();
        let confirmed = verdicts.iter().map(Verdicts::confirmed).sum();
        (predicted, Some(confirmed))
    }

    fn gates(&self, verdicts: &Vec<Verdicts>) -> Vec<String> {
        let mut failures = Vec::new();
        for (t, v) in self.targets.iter().zip(verdicts) {
            let predicted = v.cycles.len();
            if t.expected_cycles.is_some_and(|n| n != predicted) {
                failures.push(format!(
                    "{}: {predicted} cycles predicted, expected {:?}",
                    t.name, t.expected_cycles
                ));
            }
            if t.all_real && v.confirmed() != predicted {
                failures.push(format!(
                    "{}: {} of {predicted} real cycles confirmed",
                    t.name,
                    v.confirmed()
                ));
            }
            if v.truncated {
                failures.push(format!("{}: the join was truncated", t.name));
            }
        }
        failures
    }

    fn traced(
        &self,
        reference: &Vec<Verdicts>,
        samples: &mut Samples,
    ) -> (Vec<Span>, Tally, Vec<String>) {
        let tr = Tracer::new(true);
        let mut tally = Tally::default();
        let mut failures = Vec::new();
        let mut events = 0u64;
        let mut join = JoinCounts::default();
        let mut trials: Vec<Vec<Execution>> = Vec::new();
        tr.span(None, "campaign", |root| {
            for (t, expected) in self.targets.iter().zip(reference) {
                tr.span(root, &format!("program[{}]", t.name), |program| {
                    let split = tr.span(program, "phase1", |p| split_phase1(&t.fuzzer, &tr, p));
                    if split.cycles != expected.cycles
                        || split.abstract_cycles != expected.abstract_cycles
                    {
                        failures.push(format!("{}: split Phase I differs from phase1()", t.name));
                    }
                    let runs = tr.span(program, "phase2", |p| {
                        split_phase2(&t.fuzzer, &split.abstract_cycles, &tr, p)
                    });
                    let matched: Vec<u32> = runs
                        .iter()
                        .map(|c| c.iter().filter(|e| e.matched).count() as u32)
                        .collect();
                    if matched != expected.matched {
                        failures.push(format!(
                            "{}: trials matched {matched:?} per cycle, confirm_all {:?}",
                            t.name, expected.matched
                        ));
                    }
                    tally.executions += 1 + runs.iter().map(|c| c.len() as u64).sum::<u64>();
                    tally.failed += runs.iter().flatten().filter(|e| e.failed).count() as u64;
                    events += split.events;
                    join.add(&split);
                    trials.push(runs.into_iter().flatten().collect());
                });
            }
        });
        let plain: Vec<Vec<Execution>> = tr.span(None, "baseline", |root| {
            self.targets
                .iter()
                .zip(&trials)
                .map(|(t, runs)| {
                    if runs.is_empty() {
                        return Vec::new();
                    }
                    tr.span(root, &format!("program[{}]", t.name), |p| {
                        plain_runs(t, &tr, p)
                    })
                })
                .collect()
        });
        let spans = tr.into_spans();

        let self_ms = spans::self_ms_by_layer(&spans);
        let layer = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
        let record_ms = layer("observe");
        samples.add("exec.record_ms", "ms", record_ms);
        samples.add("exec.record_events", "count", events as f64);
        samples.add(
            "exec.record_events_per_s",
            "1/s",
            events as f64 / (record_ms / 1e3),
        );
        join.sample(samples, &self_ms);
        if self.targets[0].fuzzer.config().hb_filter {
            samples.add("igoodlock.hb_ms", "ms", layer("hb"));
        }
        if self.targets[0].fuzzer.config().feasibility {
            samples.add("igoodlock.feasibility_ms", "ms", layer("feasibility"));
        }

        let all: Vec<&Execution> = trials.iter().flatten().collect();
        let n = all.len().max(1) as f64;
        let steps: u64 = all.iter().map(|e| e.steps).sum();
        let busy_s: f64 = all.iter().map(|e| e.seconds).sum();
        let per_trial =
            |count: fn(&Execution) -> u64| all.iter().map(|e| count(e)).sum::<u64>() as f64 / n;
        samples.add("core.trials", "count", all.len() as f64);
        samples.add("exec.steps_per_s", "1/s", steps as f64 / busy_s);
        samples.run_ms.extend(all.iter().map(|e| e.seconds * 1e3));
        let pool_s = spans::wall_ms(&spans, "phase2") / 1e3;
        samples.add(
            "core.pool_busy_frac",
            "ratio",
            busy_s / (JOBS as f64 * pool_s),
        );
        samples.add("fuzzer.pauses_per_trial", "count", per_trial(|e| e.pauses));
        samples.add(
            "fuzzer.thrashes_per_trial",
            "count",
            per_trial(|e| e.thrashes),
        );
        samples.add(
            "fuzzer.match_rate",
            "ratio",
            per_trial(|e| u64::from(e.matched)),
        );
        // What the Phase II steps would have cost at each program's
        // plain-random cost per step.
        let plain_s: f64 = trials
            .iter()
            .zip(&plain)
            .filter(|(_, p)| !p.is_empty())
            .map(|(t, p)| {
                let plain_steps = p.iter().map(|e| e.steps).sum::<u64>().max(1);
                let per_step = p.iter().map(|e| e.seconds).sum::<f64>() / plain_steps as f64;
                t.iter().map(|e| e.steps).sum::<u64>() as f64 * per_step
            })
            .sum();
        if let Some(x) = per_step_ratio(busy_s, steps, plain_s, steps) {
            samples.add("exec.step_cost_x", "ratio", x);
        }
        (spans, tally, failures)
    }
}

/// Phase I as its public calls: what `phase1()` computes, call by call.
struct SplitPhase1 {
    cycles: Vec<Cycle>,
    abstract_cycles: Vec<AbstractCycle>,
    events: u64,
    relation_size: usize,
    stats: deadlock_fuzzer::igoodlock::IGoodlockStats,
}

fn split_phase1(fuzzer: &DeadlockFuzzer, tr: &Tracer, parent: Option<u32>) -> SplitPhase1 {
    let config = fuzzer.config();
    let observed = tr.span(parent, "observe", |_| {
        fuzzer.observe(SinkHandle::none(), true)
    });
    let trace = &observed.trace;
    let relation = tr.span(parent, "relation", |_| {
        LockDependencyRelation::from_trace(trace)
    });
    let hb = config
        .hb_filter
        .then(|| tr.span(parent, "hb", |_| HbFilter::from_trace(trace)));
    let (cycles, stats, _) = tr.span(parent, "join", |_| {
        igoodlock_parallel(
            &relation,
            hb.as_ref(),
            &config.igoodlock,
            config.phase1_jobs,
        )
    });
    let abstractor = Abstractor::new(config.mode);
    let abstract_cycles = tr.span(parent, "abstract", |_| {
        cycles
            .iter()
            .map(|c| c.abstract_with(trace.objects(), &abstractor))
            .collect()
    });
    if config.feasibility {
        tr.span(parent, "feasibility", |_| {
            FeasibilityAnalysis::new(trace, &relation).score_cycles(&cycles)
        });
    }
    SplitPhase1 {
        events: trace.events().len() as u64,
        relation_size: relation.len(),
        cycles,
        abstract_cycles,
        stats,
    }
}

/// Phase II as `confirm_all` runs it with uniform trials: per cycle, its
/// trials on a pool of [`JOBS`] workers, trial `i` seeded
/// `phase2_seed_base + i`.
fn split_phase2(
    fuzzer: &DeadlockFuzzer,
    cycles: &[AbstractCycle],
    tr: &Tracer,
    parent: Option<u32>,
) -> Vec<Vec<Execution>> {
    let config = fuzzer.config();
    cycles
        .iter()
        .enumerate()
        .map(|(k, cycle)| {
            tr.span(parent, &format!("cycle[{k}]"), |c| {
                TrialPool::new(JOBS).run_trials(
                    config.confirm_trials,
                    |i| {
                        tr.span(c, &format!("trial[{i}]"), |_| {
                            let r = fuzzer.phase2(cycle, config.phase2_seed_base + u64::from(i));
                            Execution {
                                steps: r.steps,
                                seconds: r.duration.as_secs_f64(),
                                matched: r.matched_target,
                                pauses: r.pauses,
                                thrashes: r.thrashes,
                                failed: r.trial_outcome().is_retryable(),
                            }
                        })
                    },
                    |_| false,
                )
            })
        })
        .collect()
}

/// Plain-random runs of the program on the Phase II seeds: the
/// uninstrumented control.
fn plain_runs(t: &Target, tr: &Tracer, parent: Option<u32>) -> Vec<Execution> {
    let config = t.fuzzer.config();
    TrialPool::new(JOBS).run_trials(
        config.confirm_trials,
        |i| {
            tr.span(parent, &format!("run[{i}]"), |_| {
                let seed = config.phase2_seed_base + u64::from(i);
                let mut run = config.run.clone().with_program_seed(seed);
                if run.deadline.is_none() {
                    run.deadline = config.trial_deadline;
                }
                let program = Arc::clone(&t.program);
                let start = Instant::now();
                let r = VirtualRuntime::new(run)
                    .run(Box::new(SimpleRandomChecker::with_seed(seed)), move |ctx| {
                        program.run(ctx)
                    });
                Execution {
                    steps: r.steps,
                    seconds: start.elapsed().as_secs_f64(),
                    matched: false,
                    pauses: 0,
                    thrashes: 0,
                    failed: false,
                }
            })
        },
        |_| false,
    )
}

/// Join statistics summed over a campaign's programs (peak: the largest).
#[derive(Default)]
struct JoinCounts {
    relation_size: u64,
    chains_built: u64,
    candidates: u64,
    peak_open_chains: u64,
    cycles: u64,
}

impl JoinCounts {
    fn add(&mut self, split: &SplitPhase1) {
        self.relation_size += split.relation_size as u64;
        self.chains_built += split.stats.chains_built;
        self.candidates += split.stats.join_candidates_examined;
        self.peak_open_chains = self.peak_open_chains.max(split.stats.peak_open_chains);
        self.cycles += split.cycles.len() as u64;
    }

    fn sample(&self, samples: &mut Samples, self_ms: &BTreeMap<String, f64>) {
        let ms = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
        samples.add("igoodlock.relation_ms", "ms", ms("relation"));
        samples.add("igoodlock.join_ms", "ms", ms("join"));
        samples.add(
            "igoodlock.relation_size",
            "count",
            self.relation_size as f64,
        );
        samples.add("igoodlock.chains_built", "count", self.chains_built as f64);
        samples.add(
            "igoodlock.candidates_examined",
            "count",
            self.candidates as f64,
        );
        samples.add(
            "igoodlock.peak_open_chains",
            "count",
            self.peak_open_chains as f64,
        );
        if self.chains_built > 0 {
            samples.add(
                "igoodlock.join_yield",
                "ratio",
                self.cycles as f64 / self.chains_built as f64,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Native-thread workload
// ---------------------------------------------------------------------------

struct NativeCampaign {
    input: NativeInput,
}

#[derive(PartialEq)]
struct NativeVerdict {
    cycles: Vec<AbstractCycle>,
    /// `read_trace_bytes` decoded exactly the events the spill reported.
    decoded_all: bool,
}

impl NativeCampaign {
    fn campaign(
        &self,
        tr: &Tracer,
        parent: Option<u32>,
    ) -> Result<(native::Recording, native::Analysis), String> {
        let recording = native::record(&self.input, RING_FRAMES, tr, parent)?;
        let analysis = native::analyze(&recording.bytes, tr, parent)?;
        Ok((recording, analysis))
    }

    fn verdict(
        result: &Result<(native::Recording, native::Analysis), String>,
    ) -> (NativeVerdict, Tally) {
        let mut tally = Tally {
            executions: 1,
            ..Tally::default()
        };
        match result {
            Ok((r, a)) => (
                NativeVerdict {
                    cycles: a.cycles.clone(),
                    decoded_all: a.decoded == r.events,
                },
                tally,
            ),
            Err(e) => {
                tally.failed = 1;
                tally.errors.push(format!("native campaign: {e}"));
                (
                    NativeVerdict {
                        cycles: Vec::new(),
                        decoded_all: false,
                    },
                    tally,
                )
            }
        }
    }
}

impl Campaign for NativeCampaign {
    type Verdict = NativeVerdict;

    fn run(&self) -> (NativeVerdict, Tally) {
        Self::verdict(&self.campaign(&Tracer::new(false), None))
    }

    /// No Phase II to cut short: the warm-up is a whole campaign.
    fn warm_up(&self) {
        let _ = self.campaign(&Tracer::new(false), None);
    }

    fn counts(&self, verdict: &NativeVerdict) -> (usize, Option<usize>) {
        (verdict.cycles.len(), None)
    }

    fn gates(&self, verdict: &NativeVerdict) -> Vec<String> {
        let mut failures = Vec::new();
        if verdict.cycles.len() != 1 {
            failures.push(format!(
                "{} cycles predicted, expected the planted inversion only",
                verdict.cycles.len()
            ));
        }
        if !verdict.decoded_all {
            failures.push("the spill decoded to a different event count than it wrote".into());
        }
        failures
    }

    fn traced(
        &self,
        reference: &NativeVerdict,
        samples: &mut Samples,
    ) -> (Vec<Span>, Tally, Vec<String>) {
        let tr = Tracer::new(true);
        let result = tr.span(None, "campaign", |root| self.campaign(&tr, root));
        let sync = tr.span(None, "sync-spill", |p| {
            native::record(&self.input, 0, &tr, p)
        });
        let plain_s = tr.span(None, "baseline", |_| native::plain_run(&self.input));
        let spans = tr.into_spans();
        let (verdict, tally) = Self::verdict(&result);
        let mut failures = Vec::new();
        if verdict != *reference {
            failures.push("verdicts differ from the untraced campaign's".to_string());
        }
        let (Ok((rec, analysis)), Ok(sync)) = (result, sync) else {
            failures.push("a traced recording failed".to_string());
            return (spans, tally, failures);
        };
        // Self times of the measured campaign only: the sync-spill repeat
        // records the same layer names.
        let campaign_spans: Vec<Span> = {
            let root = spans.iter().find(|s| s.name == "campaign").map(|s| s.id);
            spans.iter().filter(|s| s.parent == root).cloned().collect()
        };
        let self_ms = spans::self_ms_by_layer(&campaign_spans);
        let ms = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
        let ops = self.input.lock_ops();
        samples.add("exec.record_ms", "ms", rec.seconds * 1e3);
        samples.add("exec.record_events", "count", rec.events as f64);
        samples.add(
            "exec.record_events_per_s",
            "1/s",
            rec.events as f64 / rec.seconds,
        );
        samples.run_ms.push(rec.seconds * 1e3);
        samples.add("exec.steps_per_s", "1/s", ops as f64 / rec.seconds);
        if let Some(x) = per_step_ratio(rec.seconds, ops, plain_s, ops) {
            samples.add("exec.step_cost_x", "ratio", x);
        }
        JoinCounts {
            relation_size: analysis.relation_size as u64,
            chains_built: analysis.stats.chains_built,
            candidates: analysis.stats.join_candidates_examined,
            peak_open_chains: analysis.stats.peak_open_chains,
            cycles: analysis.cycles.len() as u64,
        }
        .sample(samples, &self_ms);
        // No Phase II on native threads.
        for name in [
            "core.trials",
            "fuzzer.pauses_per_trial",
            "fuzzer.thrashes_per_trial",
        ] {
            samples.add(name, "count", 0.0);
        }
        samples.add("fuzzer.match_rate", "ratio", 0.0);
        samples.add("events.read_ms", "ms", ms("read"));
        samples.add(
            "events.read_events_per_s",
            "1/s",
            analysis.decoded as f64 / (ms("read") / 1e3),
        );
        samples.add(
            "events.bytes_per_event",
            "B",
            rec.bytes.len() as f64 / rec.events as f64,
        );
        samples.add("events.spill_close_ms", "ms", ms("seal") + ms("close"));
        samples.add(
            "events.backpressure_waits",
            "count",
            rec.backpressure_waits as f64,
        );
        samples.add(
            "events.sync_spill_events_per_s",
            "1/s",
            sync.events as f64 / sync.seconds,
        );
        samples.add("lock.acquires", "count", rec.acquires as f64);
        samples.add(
            "lock.contended_frac",
            "ratio",
            rec.wfg_edges as f64 / rec.acquires as f64,
        );
        samples.add("lock.wfg_edges", "count", rec.wfg_edges as f64);
        (spans, tally, failures)
    }
}
