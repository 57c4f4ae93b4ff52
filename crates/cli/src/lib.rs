//! Library backing the `dfz` command-line tool.
//!
//! Everything the binary does is exposed as functions here so it can be
//! tested without spawning processes:
//!
//! * resolve a benchmark by name ([`resolve_program`]);
//! * run Phase I and render/serialize its cycles ([`cmd_phase1`]);
//! * record a Phase I run to durable artifacts and analyze them later
//!   ([`cmd_record`], [`cmd_analyze`]);
//! * confirm cycles with Phase II trials ([`cmd_confirm`]);
//! * run the full pipeline ([`cmd_run`]).
//!
//! Every command has the same shape — `Result<CmdOutput, CliError>` —
//! so `main` prints and exit-codes through a single path:
//! [`CmdOutput::code`] on success, [`CliError::exit_code`] on failure.

#![deny(missing_docs)]
#![deny(unsafe_code)]

use std::fmt::Write as _;

use deadlock_fuzzer::{Config, DeadlockFuzzer, ProgramRef, Report, Variant};
use df_abstraction::Abstractor;
#[cfg(test)]
use df_events::TraceFormat;
use df_events::{SpillConfig, Trace, TRACE_BINARY_MAGIC};
use df_igoodlock::{igoodlock_filtered, HbFilter, IGoodlockOptions, LockDependencyRelation};

/// Documented process exit codes for the verdict commands (`confirm`,
/// `run`). See README "Failure taxonomy & exit codes".
pub mod exit_code {
    /// A deadlock cycle was confirmed by a real witness.
    pub const CYCLE_CONFIRMED: i32 = 0;
    /// No cycle was predicted, or no prediction could be reproduced.
    pub const NO_CYCLE_FOUND: i32 = 1;
    /// Bad command line (unknown command, flag, or value).
    pub const USAGE: i32 = 2;
    /// The program under test panicked during trials (a bug in the
    /// program, not a deadlock and not a harness failure).
    pub const PROGRAM_PANIC: i32 = 3;
    /// The harness itself failed (invalid config, confirmation error,
    /// unreadable input).
    pub const INTERNAL_ERROR: i32 = 4;
    /// The online wait-for-graph detector of `df-lock` found a real
    /// deadlock in a natively-scheduled program and its `SealAndExit`
    /// handler terminated the process after sealing the spill.
    pub const LIVE_DEADLOCK: i32 = 5;
}

/// Rendered output of a command plus the process exit code `main` should
/// use.
#[derive(Clone, Debug)]
pub struct CmdOutput {
    /// Text for stdout.
    pub text: String,
    /// One of the [`exit_code`] constants.
    pub code: i32,
}

impl CmdOutput {
    /// Plain success output (informational commands).
    pub fn ok(text: String) -> Self {
        CmdOutput {
            text,
            code: exit_code::CYCLE_CONFIRMED,
        }
    }
}

/// Typed failure of a `dfz` command. Every command returns
/// `Result<CmdOutput, CliError>`, so `main` prints and exit-codes
/// through one path: [`CmdOutput::code`] on success,
/// [`CliError::exit_code`] on failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// The user asked for something that does not exist: an unknown
    /// benchmark or variant, a cycle index out of range. Maps to
    /// [`exit_code::USAGE`].
    Usage(String),
    /// The harness itself failed: unreadable input, unwritable output,
    /// serialization or confirmation errors. Maps to
    /// [`exit_code::INTERNAL_ERROR`].
    Internal(String),
}

impl CliError {
    /// A usage-class error (`exit_code::USAGE`).
    pub fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }

    /// An internal-class error (`exit_code::INTERNAL_ERROR`).
    pub fn internal(msg: impl Into<String>) -> Self {
        CliError::Internal(msg.into())
    }

    /// The documented process exit code for this error class.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => exit_code::USAGE,
            CliError::Internal(_) => exit_code::INTERNAL_ERROR,
        }
    }

    /// The human-readable message, without the class prefix.
    pub fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Internal(m) => m,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

impl std::error::Error for CliError {}

/// Maps a pipeline [`Report`] to its documented exit code: a confirmed
/// cycle wins, then a program panic seen in any trial, then a harness
/// failure, then "nothing found".
pub fn report_exit_code(report: &Report) -> i32 {
    if report.confirmations.iter().any(|c| c.confirmed) {
        return exit_code::CYCLE_CONFIRMED;
    }
    let phase1_panicked = matches!(
        report.phase1.run_outcome,
        deadlock_fuzzer::runtime::Outcome::ProgramPanic(_)
    );
    if phase1_panicked || report.trial_outcome_totals().panics > 0 {
        return exit_code::PROGRAM_PANIC;
    }
    if report.failed_count() > 0 {
        return exit_code::INTERNAL_ERROR;
    }
    exit_code::NO_CYCLE_FOUND
}

/// Names accepted by [`resolve_program`].
pub const BENCHMARKS: [&str; 19] = [
    "figure1",
    "figure1-three-threads",
    "dining-philosophers",
    "section4",
    "cache4j",
    "sor",
    "hedc",
    "jspider",
    "jigsaw",
    "logging",
    "swing",
    "dbcp",
    "lists",
    "maps",
    "buffer",
    "account",
    "producer-consumer",
    "read-mostly-cache",
    "writer-starvation",
];

/// Resolves a benchmark/program model by name.
///
/// # Errors
///
/// Returns a [`CliError::Usage`] listing the valid names if `name` is
/// unknown.
pub fn resolve_program(name: &str) -> Result<ProgramRef, CliError> {
    Ok(match name {
        "figure1" => df_benchmarks::figure1::program(false),
        "figure1-three-threads" => df_benchmarks::figure1::program(true),
        "dining-philosophers" => df_benchmarks::dining_philosophers::program(3),
        "section4" => df_benchmarks::section4::program(),
        "cache4j" => df_benchmarks::cache4j::program(),
        "sor" => df_benchmarks::sor::program(),
        "hedc" => df_benchmarks::hedc::program(),
        "jspider" => df_benchmarks::jspider::program(),
        "jigsaw" => df_benchmarks::jigsaw::program(),
        "logging" => df_benchmarks::logging::program(),
        "swing" => df_benchmarks::swing::program(),
        "dbcp" => df_benchmarks::dbcp::program(),
        "lists" => df_benchmarks::lists::program(),
        "maps" => df_benchmarks::maps::program(),
        "buffer" => df_benchmarks::buffer::program(),
        "account" => df_benchmarks::account::program(),
        "producer-consumer" => df_benchmarks::producer_consumer::program(),
        "read-mostly-cache" => df_benchmarks::read_mostly_cache::program(),
        "writer-starvation" => df_benchmarks::writer_starvation::program(3),
        other => {
            return Err(CliError::usage(format!(
                "unknown benchmark '{other}'; expected one of: {}",
                BENCHMARKS.join(", ")
            )))
        }
    })
}

/// Resolves a Figure 2 variant by a short name.
///
/// # Errors
///
/// Returns a [`CliError::Usage`] listing the valid names if `name` is
/// unknown.
pub fn resolve_variant(name: &str) -> Result<Variant, CliError> {
    Ok(match name {
        "kobject" => Variant::ContextKObject,
        "execindex" | "default" => Variant::ContextExecIndex,
        "trivial" => Variant::IgnoreAbstraction,
        "nocontext" => Variant::IgnoreContext,
        "noyields" => Variant::NoYields,
        other => {
            return Err(CliError::usage(format!(
                "unknown variant '{other}'; expected kobject | execindex | trivial | nocontext | noyields"
            )))
        }
    })
}

/// Options shared by the commands.
#[derive(Clone, Debug)]
pub struct CliOptions {
    /// Phase I seed.
    pub seed: u64,
    /// Phase II trials per cycle.
    pub trials: u32,
    /// Figure 2 variant.
    pub variant: Variant,
    /// Enable the happens-before false-positive filter.
    pub hb: bool,
    /// Score each predicted cycle's feasibility from the Phase I trace
    /// (the precision layer); verdicts ride the reports and
    /// `--metrics-out` gauges.
    pub feasibility: bool,
    /// Replace the uniform per-cycle campaign with the deterministic
    /// adaptive trial allocator (prunes `Infeasible` cycles, probes
    /// high-scoring ones first, stops each cycle at its first match).
    pub adaptive: bool,
    /// Campaign-wide cap on adaptive Phase II trials (`None` =
    /// uncapped).
    pub trial_budget: Option<u32>,
    /// Emit JSON instead of text.
    pub json: bool,
    /// Write campaign metrics (the `df-metrics-v1` schema) to this file.
    pub metrics_out: Option<std::path::PathBuf>,
    /// Stream scheduler-decision trace events (JSONL) to this file.
    pub trace_out: Option<std::path::PathBuf>,
    /// Inject a panic with this probability at each first acquisition
    /// (fault harness; drives the exit-code 3 path end to end).
    pub fault_panic: Option<f64>,
    /// Seed of the fault-injection RNG.
    pub fault_seed: u64,
    /// Worker threads for Phase II trial campaigns (`0` = one per
    /// available hardware thread, `1` = sequential).
    pub jobs: usize,
    /// Stream Phase I through the incremental relation builder instead
    /// of materializing the event vector.
    pub stream: bool,
    /// `dfz record`: write the event stream as a `df-trace` artifact to
    /// this file.
    pub out: Option<std::path::PathBuf>,
    /// `dfz record`: write the lock dependency relation as a
    /// `df-relation` artifact to this file.
    pub relation_out: Option<std::path::PathBuf>,
    /// `dfz record`: how the trace artifact is encoded and scheduled to
    /// disk — the shared [`SpillConfig`] that `--format`, `--spill-ring`,
    /// `--spill-batch-bytes` and `--spill-flush-ms` all map onto
    /// (`dfz analyze` sniffs the encoding, so the format only matters
    /// when writing). The same struct flows into
    /// [`Config::with_spill`] and `df_lock::Tracker::with_spill`.
    pub spill: SpillConfig,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            seed: 0,
            trials: 10,
            variant: Variant::ContextExecIndex,
            hb: false,
            feasibility: false,
            adaptive: false,
            trial_budget: None,
            json: false,
            metrics_out: None,
            trace_out: None,
            fault_panic: None,
            fault_seed: 0,
            jobs: 0,
            stream: false,
            out: None,
            relation_out: None,
            spill: SpillConfig::default(),
        }
    }
}

/// Builds the pipeline [`Config`] the options describe and validates it,
/// so nonsense combinations (`--trials 0`, `--stream --hb`, fault
/// probabilities outside `[0, 1]`) die at the front door with exit
/// code 2 instead of degenerating mid-campaign.
///
/// # Errors
///
/// Returns a [`CliError::Usage`] carrying the [`Config::validate`]
/// rejection message.
pub fn config_of(opts: &CliOptions) -> Result<Config, CliError> {
    let mut config = Config::default()
        .with_variant(opts.variant)
        .with_phase1_seed(opts.seed)
        .with_confirm_trials(opts.trials)
        .with_hb_filter(opts.hb)
        .with_feasibility(opts.feasibility)
        .with_adaptive_trials(opts.adaptive)
        .with_trial_budget(opts.trial_budget)
        .with_jobs(opts.jobs)
        .with_stream_phase1(opts.stream)
        .with_spill(opts.spill);
    if let Some(p) = opts.fault_panic {
        config.run = config.run.with_fault_plan(
            deadlock_fuzzer::runtime::FaultPlan::new(opts.fault_seed).with_panic_on_acquire(p),
        );
    }
    config
        .validate()
        .map_err(|e| CliError::usage(e.to_string()))?;
    Ok(config)
}

/// Builds the observability handle the options ask for: a file-backed
/// trace sink when `--trace-out` was given, counters-only otherwise.
///
/// # Errors
///
/// Returns a [`CliError::Internal`] if the trace file cannot be created.
pub fn obs_of(opts: &CliOptions) -> Result<df_obs::Obs, CliError> {
    match &opts.trace_out {
        Some(path) => df_obs::Obs::with_file_sink(path)
            .map_err(|e| CliError::internal(format!("cannot open {}: {e}", path.display()))),
        None => Ok(df_obs::Obs::new()),
    }
}

/// Writes the metrics file if `--metrics-out` was given.
///
/// # Errors
///
/// Returns a [`CliError::Internal`] if the file cannot be written.
pub fn write_metrics(opts: &CliOptions, metrics: &df_obs::Metrics) -> Result<(), CliError> {
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, metrics.to_json_pretty())
            .map_err(|e| CliError::internal(format!("cannot write {}: {e}", path.display())))?;
    }
    Ok(())
}

/// `dfz phase1 <benchmark>` — predict potential deadlock cycles.
pub fn cmd_phase1(name: &str, opts: &CliOptions) -> Result<CmdOutput, CliError> {
    let program = resolve_program(name)?;
    let fuzzer = DeadlockFuzzer::from_ref(program, config_of(opts)?);
    let report = fuzzer.phase1();
    if opts.json {
        return serde_json::to_string_pretty(&report.abstract_cycles)
            .map(CmdOutput::ok)
            .map_err(|e| CliError::internal(e.to_string()));
    }
    Ok(CmdOutput::ok(format!("{report}")))
}

/// `dfz record <benchmark>` — run Phase I once and persist it as durable
/// artifacts: the event stream (`--out`, `df-trace` JSONL) and/or the
/// lock dependency relation (`--relation-out`, `df-relation` JSON). With
/// `--stream` the run never materializes the event vector — events flow
/// straight from the scheduler into the attached sinks.
///
/// # Errors
///
/// Returns a [`CliError::Usage`] when neither output flag was given or
/// the config is invalid, and a [`CliError::Internal`] when an artifact
/// cannot be created or sealed.
pub fn cmd_record(name: &str, opts: &CliOptions) -> Result<CmdOutput, CliError> {
    use std::sync::{Arc, Mutex};

    if opts.out.is_none() && opts.relation_out.is_none() {
        return Err(CliError::usage(
            "record needs --out <trace file> and/or --relation-out <relation file>",
        ));
    }
    let program = resolve_program(name)?;
    let obs = obs_of(opts)?;
    let config = config_of(opts)?;
    let spill_config = config.spill;
    let fuzzer = DeadlockFuzzer::from_ref(program, config.with_obs(obs.clone()));

    let mut handle = df_events::SinkHandle::none();
    let spill = match &opts.out {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| {
                CliError::internal(format!("cannot create {}: {e}", path.display()))
            })?;
            let sink = df_events::AnySpillSink::new(std::io::BufWriter::new(file), &spill_config)
                .map_err(|e| {
                CliError::internal(format!("cannot start {}: {e}", path.display()))
            })?;
            let sink = Arc::new(Mutex::new(sink));
            handle = handle.with(sink.clone());
            Some(sink)
        }
        None => None,
    };
    let builder = match &opts.relation_out {
        Some(_) => {
            let b = Arc::new(Mutex::new(df_igoodlock::RelationBuilder::new()));
            handle = handle.with(b.clone());
            Some(b)
        }
        None => None,
    };

    let result = fuzzer.observe(handle, !opts.stream);

    let mut out = String::new();
    let _ = writeln!(out, "recorded {name}: outcome {:?}", result.outcome);
    let _ = writeln!(
        out,
        "  events streamed: {}",
        obs.counters().snapshot().events_streamed
    );
    let _ = writeln!(
        out,
        "  peak trace bytes: {}",
        obs.counters().snapshot().peak_trace_bytes
    );
    if let (Some(sink), Some(path)) = (spill, &opts.out) {
        // Recover a poisoned sink mutex: even if a trial panicked inside
        // the program, the spill must still be harvested and sealed.
        let mut guard = sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let (events, bytes) = guard
            .close()
            .map_err(|e| CliError::internal(format!("sealing {}: {e}", path.display())))?;
        let waits = guard.backpressure_waits();
        drop(guard);
        obs.counters().add_spill_backpressure_waits(waits);
        let _ = writeln!(
            out,
            "  trace artifact: {} ({events} events, {bytes} bytes)",
            path.display()
        );
        let _ = writeln!(out, "  trace format: {}", spill_config.format);
        if spill_config.ring_capacity > 0 {
            let _ = writeln!(out, "  spill backpressure waits: {waits}");
        }
    }
    if let (Some(b), Some(path)) = (builder, &opts.relation_out) {
        let relation = b.lock().expect("relation builder sink").take();
        let file = std::fs::File::create(path)
            .map_err(|e| CliError::internal(format!("cannot create {}: {e}", path.display())))?;
        df_igoodlock::write_relation(std::io::BufWriter::new(file), &relation)
            .map_err(|e| CliError::internal(format!("writing {}: {e}", path.display())))?;
        let _ = writeln!(
            out,
            "  relation artifact: {} ({} dependency tuples)",
            path.display(),
            relation.len()
        );
    }
    obs.flush();
    write_metrics(opts, &obs.metrics(name))?;
    Ok(CmdOutput::ok(out))
}

/// The abstraction mode Phase I would use for `variant` — keeps
/// offline analysis output aligned with [`cmd_phase1`].
fn abstraction_of(variant: Variant) -> df_abstraction::AbstractionMode {
    match variant {
        Variant::ContextKObject => df_abstraction::AbstractionMode::KObject(10),
        Variant::IgnoreAbstraction => df_abstraction::AbstractionMode::Trivial,
        _ => df_abstraction::AbstractionMode::ExecIndex(10),
    }
}

/// Offline iGoodlock over a decoded trace artifact, for [`cmd_analyze`].
/// With `--json` the output is the same pretty-printed abstract-cycle
/// array [`cmd_phase1`] prints, so a recorded run can be diffed
/// byte-for-byte against a live one.
fn analyze_trace(trace: &Trace, opts: &CliOptions) -> Result<CmdOutput, CliError> {
    let relation = LockDependencyRelation::from_trace(trace);
    let hb = opts.hb.then(|| HbFilter::from_trace(trace));
    let (cycles, stats) = igoodlock_filtered(&relation, hb.as_ref(), &IGoodlockOptions::default());
    let abstractor = Abstractor::new(abstraction_of(opts.variant));
    let abstract_cycles: Vec<df_igoodlock::AbstractCycle> = cycles
        .iter()
        .map(|c| c.abstract_with(trace.objects(), &abstractor))
        .collect();
    if opts.json {
        return serde_json::to_string_pretty(&abstract_cycles)
            .map(CmdOutput::ok)
            .map_err(|e| CliError::internal(e.to_string()));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "offline analysis: {} dependency tuple(s), {} potential cycle(s){}",
        relation.len(),
        cycles.len(),
        if stats.pruned_by_hb > 0 {
            format!(" ({} pruned by happens-before)", stats.pruned_by_hb)
        } else {
            String::new()
        }
    );
    for (i, c) in abstract_cycles.iter().enumerate() {
        let _ = writeln!(out, "  cycle {}: {c}", i + 1);
    }
    Ok(CmdOutput::ok(out))
}

/// Offline iGoodlock over a bare [`LockDependencyRelation`] (a
/// `df-relation` artifact): no trace means no object table, so cycles
/// are reported concretely rather than abstracted. With
/// `--metrics-out`, the join's wall-clock span is recorded through
/// [`df_obs::PhaseTimings`] and lands both as a `phase1_join` phase and
/// as a `phase1_join_ms` extra gauge in the metrics document.
fn analyze_relation(
    relation: &LockDependencyRelation,
    opts: &CliOptions,
) -> Result<CmdOutput, CliError> {
    let timings = df_obs::PhaseTimings::new();
    let (cycles, stats) = timings.time("phase1_join", || {
        igoodlock_filtered(relation, None, &IGoodlockOptions::default())
    });
    let mut metrics = df_obs::Metrics::new("analyze-relation");
    metrics.counters.dependency_edges = relation.len() as u64;
    metrics.counters.cycles_found = cycles.len() as u64;
    metrics.counters.join_candidates_examined = stats.join_candidates_examined;
    metrics.counters.join_chains_built = stats.chains_built;
    metrics.phases = timings.snapshot();
    if let Some(span) = metrics.phases.iter().find(|s| s.name == "phase1_join") {
        metrics
            .extra
            .insert("phase1_join_ms".to_string(), span.micros as f64 / 1000.0);
    }
    write_metrics(opts, &metrics)?;
    if opts.json {
        return serde_json::to_string_pretty(&cycles)
            .map(CmdOutput::ok)
            .map_err(|e| CliError::internal(e.to_string()));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "offline analysis (relation artifact): {} dependency tuple(s), {} potential cycle(s)",
        relation.len(),
        cycles.len()
    );
    for (i, c) in cycles.iter().enumerate() {
        let _ = writeln!(out, "  cycle {}: {c}", i + 1);
    }
    Ok(CmdOutput::ok(out))
}

/// `dfz analyze <artifact>` — offline iGoodlock over a recorded
/// artifact, sniffing its format from the first bytes: `df-trace`
/// binary v2 (from `dfz record --format binary`), `df-trace` JSONL v1
/// (from `dfz record --out` or a sealed `df-lock` spill), or
/// `df-relation` JSON (from `dfz record --relation-out`). Both trace
/// encodings decode to the same [`Trace`], so `--json` output is
/// byte-identical regardless of which one was recorded. `source` is the artifact's path (or other
/// provenance string), used verbatim in error messages.
///
/// # Errors
///
/// Returns a [`CliError::Usage`] for `--hb` over a relation artifact
/// (the filter's vector clocks need the events) and for a truncated or
/// corrupt artifact — the message names `source` and, when the failure
/// is tied to one line (JSONL) or frame (binary), its 1-based index.
/// Returns a [`CliError::Internal`] naming `source` if the content
/// matches none of the formats.
pub fn cmd_analyze(content: &[u8], source: &str, opts: &CliOptions) -> Result<CmdOutput, CliError> {
    if content.starts_with(&TRACE_BINARY_MAGIC) {
        let trace = df_events::read_trace_bytes(content)
            .map_err(|e| CliError::usage(format!("bad trace artifact {source}: {e}")))?;
        return analyze_trace(&trace, opts);
    }
    let content = std::str::from_utf8(content).map_err(|_| {
        CliError::internal(format!(
            "{source} is neither a df-trace binary artifact nor UTF-8 text"
        ))
    })?;
    let head = content.trim_start();
    if head.starts_with("{\"Header\"") {
        let trace = df_events::read_trace(content.as_bytes())
            .map_err(|e| CliError::usage(format!("bad trace artifact {source}: {e}")))?;
        return analyze_trace(&trace, opts);
    }
    if head.starts_with("{\"format\":\"df-relation\"") {
        if opts.hb {
            return Err(CliError::usage(
                "--hb needs the event stream; a relation artifact has none (record with --out)",
            ));
        }
        let relation = df_igoodlock::read_relation(content.as_bytes())
            .map_err(|e| CliError::usage(format!("bad relation artifact {source}: {e}")))?;
        return analyze_relation(&relation, opts);
    }
    Err(CliError::internal(format!(
        "{source} is not a df-trace or df-relation artifact"
    )))
}

/// `dfz confirm <benchmark>` — Phase II confirmation of one or all cycles.
///
/// The returned [`CmdOutput::code`] follows the [`exit_code`] taxonomy:
/// confirmed beats program-panic beats no-cycle-found.
pub fn cmd_confirm(
    name: &str,
    cycle_index: Option<usize>,
    opts: &CliOptions,
) -> Result<CmdOutput, CliError> {
    let program = resolve_program(name)?;
    let fuzzer = DeadlockFuzzer::from_ref(program, config_of(opts)?);
    let phase1 = fuzzer.phase1();
    if phase1.abstract_cycles.is_empty() {
        return Ok(CmdOutput {
            text: "no potential deadlock cycles to confirm\n".to_string(),
            code: exit_code::NO_CYCLE_FOUND,
        });
    }
    let mut out = String::new();
    let mut confirmed = false;
    let mut panicked = false;
    let mut failed = false;
    match cycle_index {
        Some(i) if i < phase1.abstract_cycles.len() => {
            let prob = fuzzer
                .estimate_probability(&phase1.abstract_cycles[i], opts.trials)
                .map_err(|e| CliError::internal(e.to_string()))?;
            confirmed = prob.matched > 0;
            panicked = prob.outcomes.panics > 0;
            let _ = write!(
                out,
                "cycle {:>2}: {} — {}",
                i + 1,
                if prob.matched > 0 {
                    "CONFIRMED"
                } else {
                    "not reproduced"
                },
                prob
            );
            if let Some(judgement) = phase1.feasibility.get(i) {
                let _ = write!(out, " [predicted {judgement}]");
            }
            out.push('\n');
        }
        Some(i) => {
            return Err(CliError::usage(format!(
                "cycle {i} out of range (0..{})",
                phase1.abstract_cycles.len()
            )))
        }
        None => {
            for c in fuzzer.confirm_all(&phase1) {
                confirmed |= c.confirmed;
                panicked |= c.probability.outcomes.panics > 0;
                let pruned = c.error.is_none()
                    && c.probability.trials == 0
                    && matches!(
                        c.feasibility.as_ref().map(|j| j.verdict),
                        Some(df_igoodlock::FeasibilityVerdict::Infeasible)
                    );
                let _ = write!(out, "cycle {:>2}: ", c.cycle_index + 1);
                if let Some(e) = &c.error {
                    failed = true;
                    let _ = write!(out, "FAILED — {e}");
                } else if pruned {
                    let _ = write!(out, "pruned — no trials spent");
                } else {
                    let _ = write!(
                        out,
                        "{} — {}",
                        if c.confirmed {
                            "CONFIRMED"
                        } else {
                            "not reproduced"
                        },
                        c.probability
                    );
                }
                if let Some(judgement) = &c.feasibility {
                    let _ = write!(out, " [predicted {judgement}]");
                }
                out.push('\n');
            }
        }
    }
    let code = if confirmed {
        exit_code::CYCLE_CONFIRMED
    } else if panicked {
        exit_code::PROGRAM_PANIC
    } else if failed {
        exit_code::INTERNAL_ERROR
    } else {
        exit_code::NO_CYCLE_FOUND
    };
    Ok(CmdOutput { text: out, code })
}

/// `dfz run <benchmark>` — the full two-phase pipeline.
///
/// The returned [`CmdOutput::code`] is [`report_exit_code`] of the
/// pipeline report.
pub fn cmd_run(name: &str, opts: &CliOptions) -> Result<CmdOutput, CliError> {
    let program = resolve_program(name)?;
    let obs = obs_of(opts)?;
    let fuzzer = DeadlockFuzzer::from_ref(program, config_of(opts)?.with_obs(obs.clone()));
    let report = fuzzer.run();
    obs.flush();
    write_metrics(opts, &report.metrics(&obs))?;
    Ok(CmdOutput {
        code: report_exit_code(&report),
        text: format!("{report}"),
    })
}

/// `dfz races <benchmark>` — the RaceFuzzer sibling: predict data races
/// by lockset analysis, then confirm each with the active race
/// scheduler.
pub fn cmd_races(name: &str, opts: &CliOptions) -> Result<CmdOutput, CliError> {
    use df_fuzzer::{predict_races, RaceStrategy, SimpleRandomChecker};
    use df_runtime::{RunConfig, VirtualRuntime};

    let program = resolve_program(name)?;
    let rt = VirtualRuntime::new(RunConfig::default());
    let p = program.clone();
    let observed = rt.run(
        Box::new(SimpleRandomChecker::with_seed(opts.seed)),
        move |ctx| p.run(ctx),
    );
    let candidates = predict_races(&observed.trace);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "lockset analysis predicts {} potential race(s)",
        candidates.len()
    );
    for (i, c) in candidates.iter().enumerate() {
        let mut hits = 0;
        for seed in 0..opts.trials as u64 {
            let (strategy, witness) = RaceStrategy::new(c.clone(), seed);
            let p = program.clone();
            let _ = rt.run(Box::new(strategy), move |ctx| p.run(ctx));
            let got = witness.lock().take();
            if got.is_some() {
                hits += 1;
            }
        }
        let _ = writeln!(
            out,
            "  race {}: {} — {c} ({hits}/{} biased runs)",
            i + 1,
            if hits > 0 {
                "CONFIRMED"
            } else {
                "not reproduced"
            },
            opts.trials
        );
    }
    Ok(CmdOutput::ok(out))
}

/// `dfz list` — the benchmark names.
pub fn cmd_list() -> String {
    let mut out = String::from("available benchmarks:\n");
    for b in BENCHMARKS {
        let _ = writeln!(out, "  {b}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_rejects_unknown_names() {
        assert!(resolve_program("figure1").is_ok());
        let err = match resolve_program("nope") {
            Err(e) => e,
            Ok(_) => panic!("'nope' must not resolve"),
        };
        assert!(err.message().contains("figure1"));
        assert_eq!(err.exit_code(), exit_code::USAGE);
        assert!(resolve_variant("trivial").is_ok());
        assert!(resolve_variant("bogus").is_err());
    }

    #[test]
    fn errors_carry_their_exit_code_class() {
        let usage = CliError::usage("bad flag");
        assert_eq!(usage.exit_code(), exit_code::USAGE);
        assert_eq!(usage.to_string(), "bad flag");
        let internal = CliError::internal("disk on fire");
        assert_eq!(internal.exit_code(), exit_code::INTERNAL_ERROR);
        assert_eq!(internal.message(), "disk on fire");
        assert_ne!(usage, internal);
    }

    #[test]
    fn phase1_command_renders_cycles() {
        let out = cmd_phase1("figure1", &CliOptions::default()).unwrap();
        assert_eq!(out.code, exit_code::CYCLE_CONFIRMED);
        assert!(
            out.text.contains("1 potential deadlock cycle"),
            "{}",
            out.text
        );
        assert!(out.text.contains("MyThread.run:16"), "{}", out.text);
    }

    #[test]
    fn phase1_json_is_parseable() {
        let opts = CliOptions {
            json: true,
            ..CliOptions::default()
        };
        let out = cmd_phase1("figure1", &opts).unwrap();
        let cycles: Vec<df_igoodlock::AbstractCycle> = serde_json::from_str(&out.text).unwrap();
        assert_eq!(cycles.len(), 1);
    }

    #[test]
    fn analyze_rejects_garbage() {
        // Neither format's header, in UTF-8 text and in raw bytes: an
        // internal error that names the source.
        for (content, source) in [
            (&b"{not json"[..], "runs/garbage.json"),
            (&[0xff, 0xfe, 0x00][..], "runs/garbage.bin"),
        ] {
            let err = cmd_analyze(content, source, &CliOptions::default()).unwrap_err();
            assert_eq!(err.exit_code(), exit_code::INTERNAL_ERROR, "{err}");
            assert!(err.message().contains(source), "{err}");
        }
    }

    #[test]
    fn confirm_reports_verdicts() {
        let opts = CliOptions {
            trials: 4,
            ..CliOptions::default()
        };
        let out = cmd_confirm("figure1", None, &opts).unwrap();
        assert!(out.text.contains("CONFIRMED"), "{}", out.text);
        assert_eq!(out.code, exit_code::CYCLE_CONFIRMED);
        let err = cmd_confirm("figure1", Some(7), &opts).unwrap_err();
        assert!(err.message().contains("out of range"));
        assert_eq!(err.exit_code(), exit_code::USAGE);
        let none = cmd_confirm("sor", None, &opts).unwrap();
        assert!(none.text.contains("no potential"), "{}", none.text);
        assert_eq!(none.code, exit_code::NO_CYCLE_FOUND);
    }

    #[test]
    fn precision_flags_surface_verdicts_and_stay_jobs_invariant() {
        let base = CliOptions {
            trials: 6,
            feasibility: true,
            adaptive: true,
            jobs: 1,
            ..CliOptions::default()
        };
        let out = cmd_confirm("figure1", None, &base).unwrap();
        assert!(out.text.contains("CONFIRMED"), "{}", out.text);
        assert!(out.text.contains("[predicted Feasible"), "{}", out.text);
        assert!(out.text.contains("truncated"), "{}", out.text);
        let par = cmd_confirm(
            "figure1",
            None,
            &CliOptions {
                jobs: 4,
                ..base.clone()
            },
        )
        .unwrap();
        assert_eq!(out.text, par.text, "adaptive allocation drifted with jobs");
        assert_eq!(out.code, par.code);
    }

    #[test]
    fn adaptive_with_stop_on_first_style_misuse_is_a_usage_error() {
        let opts = CliOptions {
            adaptive: true,
            trial_budget: Some(0),
            ..CliOptions::default()
        };
        let err = cmd_confirm("figure1", None, &opts).unwrap_err();
        assert_eq!(err.exit_code(), exit_code::USAGE);
        assert!(err.message().contains("trial_budget"), "{err}");
    }

    #[test]
    fn jobs_do_not_change_command_output() {
        let seq = CliOptions {
            trials: 4,
            jobs: 1,
            ..CliOptions::default()
        };
        let par = CliOptions {
            jobs: 4,
            ..seq.clone()
        };
        let a = cmd_confirm("figure1", None, &seq).unwrap();
        let b = cmd_confirm("figure1", None, &par).unwrap();
        assert_eq!(a.text, b.text);
        assert_eq!(a.code, b.code);
    }

    #[test]
    fn run_exit_codes_distinguish_found_from_not_found() {
        let opts = CliOptions {
            trials: 3,
            ..CliOptions::default()
        };
        let hit = cmd_run("figure1", &opts).unwrap();
        assert_eq!(hit.code, exit_code::CYCLE_CONFIRMED, "{}", hit.text);
        let miss = cmd_run("sor", &opts).unwrap();
        assert_eq!(miss.code, exit_code::NO_CYCLE_FOUND, "{}", miss.text);
    }

    #[test]
    fn program_panic_maps_to_its_own_exit_code() {
        // Inject unconditional acquire panics so every trial dies in
        // program code; the report must map to PROGRAM_PANIC, not
        // CONFIRMED or INTERNAL_ERROR.
        use deadlock_fuzzer::runtime::FaultPlan;
        let program = resolve_program("figure1").unwrap();
        let mut cfg = Config::default()
            .with_confirm_trials(2)
            .with_trial_retries(0);
        cfg.run.fault_plan = Some(FaultPlan::new(7).with_panic_on_acquire(1.0));
        let fuzzer = DeadlockFuzzer::from_ref(program, cfg);
        let report = fuzzer.run();
        assert_eq!(report_exit_code(&report), exit_code::PROGRAM_PANIC);
    }

    #[test]
    fn exit_codes_are_distinct_and_documented() {
        let codes = [
            exit_code::CYCLE_CONFIRMED,
            exit_code::NO_CYCLE_FOUND,
            exit_code::USAGE,
            exit_code::PROGRAM_PANIC,
            exit_code::INTERNAL_ERROR,
            exit_code::LIVE_DEADLOCK,
        ];
        for (i, a) in codes.iter().enumerate() {
            for b in &codes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn hb_flag_prunes_in_offline_analysis() {
        for (tag, spill) in [
            ("jsonl", SpillConfig::default()),
            ("binary", SpillConfig::with_format(TraceFormat::Binary)),
        ] {
            let trace_path = TempPath::new(&format!("jigsaw-hb.{tag}"));
            let record_opts = CliOptions {
                out: Some(trace_path.0.clone()),
                spill,
                ..CliOptions::default()
            };
            cmd_record("jigsaw", &record_opts).unwrap();
            let content = std::fs::read(&trace_path.0).unwrap();
            let plain = cmd_analyze(&content, tag, &CliOptions::default())
                .unwrap()
                .text;
            let hb_opts = CliOptions {
                hb: true,
                ..CliOptions::default()
            };
            let filtered = cmd_analyze(&content, tag, &hb_opts).unwrap().text;
            assert!(
                filtered.contains("pruned by happens-before"),
                "{tag}: {filtered}"
            );
            assert!(plain.contains("waitForRunner"), "{tag}: {plain}");
            assert!(!filtered.contains("waitForRunner"), "{tag}: {filtered}");
        }
    }

    #[test]
    fn list_names_everything() {
        let out = cmd_list();
        for b in BENCHMARKS {
            assert!(out.contains(b));
        }
    }

    #[test]
    fn invalid_config_is_a_usage_error() {
        let opts = CliOptions {
            trials: 0,
            ..CliOptions::default()
        };
        let err = cmd_phase1("figure1", &opts).unwrap_err();
        assert_eq!(err.exit_code(), exit_code::USAGE);
        assert!(err.message().contains("confirm_trials"), "{err}");

        let streamed_hb = CliOptions {
            stream: true,
            hb: true,
            ..CliOptions::default()
        };
        let err = cmd_phase1("figure1", &streamed_hb).unwrap_err();
        assert_eq!(err.exit_code(), exit_code::USAGE);

        let bad_fault = CliOptions {
            fault_panic: Some(1.5),
            ..CliOptions::default()
        };
        let err = cmd_run("figure1", &bad_fault).unwrap_err();
        assert_eq!(err.exit_code(), exit_code::USAGE);
    }

    /// A scratch path that dies with the test.
    struct TempPath(std::path::PathBuf);
    impl TempPath {
        fn new(name: &str) -> Self {
            TempPath(
                std::env::temp_dir().join(format!("dfz-cli-test-{}-{name}", std::process::id())),
            )
        }
    }
    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn record_requires_an_output_flag() {
        let err = cmd_record("figure1", &CliOptions::default()).unwrap_err();
        assert_eq!(err.exit_code(), exit_code::USAGE);
        assert!(err.message().contains("--out"), "{err}");
    }

    #[test]
    fn record_then_analyze_matches_live_phase1() {
        let trace_path = TempPath::new("trace.jsonl");
        let relation_path = TempPath::new("relation.json");
        let opts = CliOptions {
            out: Some(trace_path.0.clone()),
            relation_out: Some(relation_path.0.clone()),
            json: true,
            ..CliOptions::default()
        };
        let recorded = cmd_record("figure1", &opts).unwrap();
        assert!(
            recorded.text.contains("trace artifact"),
            "{}",
            recorded.text
        );
        assert!(
            recorded.text.contains("relation artifact"),
            "{}",
            recorded.text
        );

        let live = cmd_phase1("figure1", &opts).unwrap();
        let content = std::fs::read(&trace_path.0).unwrap();
        let offline = cmd_analyze(&content, "trace.jsonl", &opts).unwrap();
        assert_eq!(offline.text, live.text, "recorded analysis must match live");

        let relation_content = std::fs::read(&relation_path.0).unwrap();
        let from_relation = cmd_analyze(&relation_content, "relation.json", &opts).unwrap();
        let cycles: Vec<df_igoodlock::Cycle> = serde_json::from_str(&from_relation.text).unwrap();
        assert_eq!(cycles.len(), 1, "{}", from_relation.text);
    }

    #[test]
    fn streamed_record_keeps_peak_at_zero() {
        let trace_path = TempPath::new("streamed.jsonl");
        let opts = CliOptions {
            out: Some(trace_path.0.clone()),
            stream: true,
            ..CliOptions::default()
        };
        let out = cmd_record("figure1", &opts).unwrap();
        assert!(out.text.contains("peak trace bytes: 0"), "{}", out.text);
        assert!(!out.text.contains("events streamed: 0"), "{}", out.text);

        // The streamed artifact still analyzes like a recorded one.
        let content = std::fs::read(&trace_path.0).unwrap();
        let offline = cmd_analyze(&content, "streamed.jsonl", &CliOptions::default()).unwrap();
        assert!(
            offline.text.contains("1 potential cycle"),
            "{}",
            offline.text
        );
    }

    #[test]
    fn binary_record_analyzes_byte_identically_to_jsonl() {
        let jsonl_path = TempPath::new("trace-v1.jsonl");
        let bin_path = TempPath::new("trace-v2.bin");
        let jsonl_opts = CliOptions {
            out: Some(jsonl_path.0.clone()),
            json: true,
            ..CliOptions::default()
        };
        let bin_opts = CliOptions {
            out: Some(bin_path.0.clone()),
            spill: SpillConfig::with_format(TraceFormat::Binary).with_ring(256),
            json: true,
            ..CliOptions::default()
        };
        let v1 = cmd_record("figure1", &jsonl_opts).unwrap();
        assert!(v1.text.contains("trace format: jsonl"), "{}", v1.text);
        let v2 = cmd_record("figure1", &bin_opts).unwrap();
        assert!(v2.text.contains("trace format: binary"), "{}", v2.text);
        assert!(v2.text.contains("spill backpressure waits:"), "{}", v2.text);

        let jsonl_bytes = std::fs::read(&jsonl_path.0).unwrap();
        let bin_bytes = std::fs::read(&bin_path.0).unwrap();
        assert!(bin_bytes.starts_with(&TRACE_BINARY_MAGIC));
        assert!(
            bin_bytes.len() < jsonl_bytes.len(),
            "binary ({}) must be denser than JSONL ({})",
            bin_bytes.len(),
            jsonl_bytes.len()
        );

        // Same run, either encoding: the --json analysis must be
        // byte-identical.
        let from_jsonl = cmd_analyze(&jsonl_bytes, "v1", &jsonl_opts).unwrap();
        let from_bin = cmd_analyze(&bin_bytes, "v2", &bin_opts).unwrap();
        assert_eq!(from_jsonl.text, from_bin.text);
        assert_eq!(
            from_jsonl.text,
            cmd_phase1("figure1", &jsonl_opts).unwrap().text
        );
    }

    #[test]
    fn analyze_names_path_and_frame_for_corrupt_binary_artifacts() {
        let bin_path = TempPath::new("corrupt-v2.bin");
        let opts = CliOptions {
            out: Some(bin_path.0.clone()),
            spill: SpillConfig::with_format(TraceFormat::Binary),
            ..CliOptions::default()
        };
        cmd_record("figure1", &opts).unwrap();
        let bytes = std::fs::read(&bin_path.0).unwrap();
        let plain = CliOptions::default();

        // Truncated mid-frame: usage error naming the source.
        let err = cmd_analyze(&bytes[..bytes.len() - 1], "runs/cut.bin", &plain).unwrap_err();
        assert_eq!(err.exit_code(), exit_code::USAGE);
        assert!(err.message().contains("runs/cut.bin"), "{err}");
        assert!(err.message().contains("frame"), "{err}");

        // Seal frame sliced off: reported as a truncation.
        let err = cmd_analyze(&bytes[..bytes.len() - 2], "runs/unsealed.bin", &plain).unwrap_err();
        assert_eq!(err.exit_code(), exit_code::USAGE);
        assert!(err.message().contains("truncated"), "{err}");

        // An unknown frame tag spliced in before the seal.
        let mut patched = bytes[..bytes.len() - 2].to_vec();
        patched.extend_from_slice(&[1, 99]);
        patched.extend_from_slice(&bytes[bytes.len() - 2..]);
        let err = cmd_analyze(&patched, "runs/badtag.bin", &plain).unwrap_err();
        assert_eq!(err.exit_code(), exit_code::USAGE);
        assert!(err.message().contains("frame"), "{err}");

        // Magic alone is not an artifact.
        let err = cmd_analyze(&bytes[..4], "runs/magic.bin", &plain).unwrap_err();
        assert_eq!(err.exit_code(), exit_code::USAGE);
    }

    #[test]
    fn degenerate_spill_settings_are_usage_errors() {
        let opts = CliOptions {
            spill: SpillConfig::default().with_batch_bytes(0),
            ..CliOptions::default()
        };
        let err = cmd_phase1("figure1", &opts).unwrap_err();
        assert_eq!(err.exit_code(), exit_code::USAGE);
        assert!(err.message().contains("batch_bytes"), "{err}");
        let opts = CliOptions {
            spill: SpillConfig::default().with_flush_interval(std::time::Duration::ZERO),
            ..CliOptions::default()
        };
        let err = cmd_phase1("figure1", &opts).unwrap_err();
        assert_eq!(err.exit_code(), exit_code::USAGE);
        assert!(err.message().contains("flush_interval"), "{err}");
    }

    #[test]
    fn analyze_rejects_hb_over_relation_artifacts() {
        let relation_path = TempPath::new("hb-relation.json");
        let opts = CliOptions {
            relation_out: Some(relation_path.0.clone()),
            ..CliOptions::default()
        };
        cmd_record("figure1", &opts).unwrap();
        let content = std::fs::read(&relation_path.0).unwrap();
        let err = cmd_analyze(
            &content,
            "hb-relation.json",
            &CliOptions {
                hb: true,
                ..CliOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), exit_code::USAGE);
        assert!(err.message().contains("--hb"), "{err}");
    }

    #[test]
    fn analyze_relation_writes_join_timing_metrics() {
        let relation_path = TempPath::new("timed-relation.json");
        let metrics_path = TempPath::new("relation-metrics.json");
        let record_opts = CliOptions {
            relation_out: Some(relation_path.0.clone()),
            ..CliOptions::default()
        };
        cmd_record("figure1", &record_opts).unwrap();
        let content = std::fs::read(&relation_path.0).unwrap();
        let opts = CliOptions {
            metrics_out: Some(metrics_path.0.clone()),
            ..CliOptions::default()
        };
        let out = cmd_analyze(&content, "timed-relation.json", &opts).unwrap();
        assert!(out.text.contains("1 potential cycle"), "{}", out.text);
        let metrics =
            df_obs::Metrics::from_json(&std::fs::read_to_string(&metrics_path.0).unwrap()).unwrap();
        assert_eq!(metrics.program, "analyze-relation");
        assert!(metrics.extra.contains_key("phase1_join_ms"), "{metrics:?}");
        assert!(
            metrics.phases.iter().any(|s| s.name == "phase1_join"),
            "{metrics:?}"
        );
        assert_eq!(metrics.counters.cycles_found, 1);
        assert!(metrics.counters.dependency_edges > 0);
    }

    #[test]
    fn analyze_names_path_and_line_for_corrupt_artifacts() {
        let trace_path = TempPath::new("corrupt.jsonl");
        let opts = CliOptions {
            out: Some(trace_path.0.clone()),
            ..CliOptions::default()
        };
        cmd_record("figure1", &opts).unwrap();
        let content = std::fs::read_to_string(&trace_path.0).unwrap();

        // Corrupt the fourth line mid-JSON, as a crashed writer would.
        let mut lines: Vec<String> = content.lines().map(str::to_string).collect();
        let half = lines[3].len() / 2;
        lines[3].truncate(half);
        let corrupt: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let err = cmd_analyze(
            corrupt.as_bytes(),
            "runs/corrupt.jsonl",
            &CliOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), exit_code::USAGE);
        assert!(err.message().contains("runs/corrupt.jsonl"), "{err}");
        assert!(err.message().contains("line 4"), "{err}");

        // A truncated artifact (no footer) is also a usage error naming
        // the file.
        let truncated: String = content
            .lines()
            .filter(|l| !l.starts_with("{\"Footer\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = cmd_analyze(
            truncated.as_bytes(),
            "runs/truncated.jsonl",
            &CliOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), exit_code::USAGE);
        assert!(err.message().contains("runs/truncated.jsonl"), "{err}");
        assert!(err.message().contains("truncated"), "{err}");
    }
}
