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
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::io::{BufRead, Read};

use deadlock_fuzzer::{analyze_relation, Config, DeadlockFuzzer, ProgramRef, Report, Variant};
use df_events::{decode_trace, ObjectTable, SpillConfig, TraceFormat};
use df_igoodlock::{LockDependencyRelation, RelationBuilder};

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
pub const BENCHMARKS: [&str; 18] = [
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
    /// Enable the happens-before false-positive filter (it prunes under
    /// the `Infeasible` verdict's precondition; see
    /// [`Config::hb_filter`]).
    pub hb: bool,
    /// Score each predicted cycle's feasibility from the Phase I relation
    /// (the precision layer); verdicts ride the reports and
    /// `--metrics-out` gauges.
    pub feasibility: bool,
    /// Replace the uniform per-cycle campaign with the deterministic
    /// adaptive trial allocator (probes high-scoring cycles first, defers
    /// `Infeasible` ones until every other is done, stops each cycle at
    /// its first match).
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
    /// `dfz record`: write the event stream as a `df-trace` artifact to
    /// this file.
    pub out: Option<std::path::PathBuf>,
    /// `dfz record`: write the lock dependency relation as a
    /// `df-relation` artifact to this file.
    pub relation_out: Option<std::path::PathBuf>,
    /// `dfz record`: how the trace artifact is encoded (`--format`;
    /// `dfz analyze` sniffs the encoding, so it only matters when
    /// writing). The same struct configures
    /// `df_lock::TrackerConfig::with_spill`.
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
            out: None,
            relation_out: None,
            spill: SpillConfig::default(),
        }
    }
}

/// Builds the pipeline [`Config`] the options describe and validates it,
/// so nonsense values (`--trials 0`, `--trial-budget 0`,
/// fault probabilities outside `[0, 1]`) die at the front door with exit
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
        .with_jobs(opts.jobs);
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

/// Output of a `--json` command: its serialized document.
fn json_output(json: Result<String, serde_json::Error>) -> Result<CmdOutput, CliError> {
    json.map(CmdOutput::ok)
        .map_err(|e| CliError::internal(e.to_string()))
}

/// `dfz phase1 <benchmark>` — predict potential deadlock cycles.
pub fn cmd_phase1(name: &str, opts: &CliOptions) -> Result<CmdOutput, CliError> {
    let program = resolve_program(name)?;
    let fuzzer = DeadlockFuzzer::from_ref(program, config_of(opts)?);
    let report = fuzzer.phase1();
    if opts.json {
        return json_output(serde_json::to_string_pretty(&report.abstract_cycles));
    }
    Ok(CmdOutput::ok(format!("{report}")))
}

/// Buffer between `dfz record`'s spill sink and the trace file. The
/// sink encodes and writes on the recording thread, so a larger buffer
/// means fewer, larger writes on a slow disk.
const RECORD_BUFFER_BYTES: usize = 64 * 1024;

/// `dfz record <benchmark>` — run Phase I once and persist it as durable
/// artifacts: the event stream (`--out`, `df-trace` JSONL) and/or the
/// lock dependency relation (`--relation-out`, `df-relation` JSON). The
/// run never materializes the event vector — events flow straight from
/// the scheduler into the attached sinks.
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
    let format = opts.spill.format;
    let fuzzer = DeadlockFuzzer::from_ref(program, config.with_obs(obs.clone()));

    let mut handle = df_events::SinkHandle::none();
    let spill = match &opts.out {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| {
                CliError::internal(format!("cannot create {}: {e}", path.display()))
            })?;
            let out = std::io::BufWriter::with_capacity(RECORD_BUFFER_BYTES, file);
            let sink = df_events::SpillSink::with_format(out, format)
                .map_err(|e| CliError::internal(format!("cannot start {}: {e}", path.display())))?;
            let sink = Arc::new(Mutex::new(sink));
            handle = handle.with(sink.clone());
            Some(sink)
        }
        None => None,
    };
    let builder = match &opts.relation_out {
        Some(_) => {
            let b = Arc::new(Mutex::new(RelationBuilder::new()));
            handle = handle.with(b.clone());
            Some(b)
        }
        None => None,
    };

    let result = fuzzer.observe(handle, false);

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
        let (events, bytes) = sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .close()
            .map_err(|e| CliError::internal(format!("sealing {}: {e}", path.display())))?;
        let _ = writeln!(
            out,
            "  trace artifact: {} ({events} events, {bytes} bytes)",
            path.display()
        );
        let _ = writeln!(out, "  trace format: {format}");
    }
    if let (Some(b), Some(path)) = (builder, &opts.relation_out) {
        let relation = b
            .lock()
            .expect("relation builder sink")
            .take()
            .map_err(|e| CliError::internal(format!("building {}: {e}", path.display())))?;
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

/// Offline Phase I for [`cmd_analyze`] over the relation of a recorded
/// artifact — built from a decoded trace or read from a `df-relation`
/// envelope — through the same [`analyze_relation`] step as
/// [`DeadlockFuzzer::phase1`], so `--hb` and `--feasibility` read the
/// relation alone. `objects` is the trace's object table: with it the
/// cycles are abstracted, and `--json` prints the same pretty-printed
/// abstract-cycle array [`cmd_phase1`] prints, so a recorded run can be
/// diffed byte-for-byte against a live one; a relation artifact has
/// none, so its cycles are reported concretely. With `--metrics-out`,
/// the analysis's wall-clock span (cyclic-core pass and join included)
/// is recorded through [`df_obs::PhaseTimings`] and lands both as a
/// `phase1_join` phase and as a `phase1_join_ms` extra gauge in the
/// metrics document, next to the `igoodlock_core_size` gauge.
fn analyze(
    relation: &LockDependencyRelation,
    objects: Option<&ObjectTable>,
    opts: &CliOptions,
) -> Result<CmdOutput, CliError> {
    // The join bounds and abstraction Phase I uses for the variant.
    let config = Config::default()
        .with_variant(opts.variant)
        .with_hb_filter(opts.hb)
        .with_feasibility(opts.feasibility);
    let timings = df_obs::PhaseTimings::new();
    let analysis = timings.time("phase1_join", || {
        analyze_relation(relation, objects, &config)
    });
    let mut metrics = df_obs::Metrics::new("analyze-relation");
    metrics.counters.dependency_edges = relation.len() as u64;
    metrics.counters.cycles_found = analysis.cycles.len() as u64;
    metrics.counters.join_candidates_examined = analysis.stats.join_candidates_examined;
    metrics.counters.join_chains_built = analysis.stats.chains_built;
    metrics.phases = timings.snapshot();
    if let Some(span) = metrics.phases.iter().find(|s| s.name == "phase1_join") {
        metrics
            .extra
            .insert("phase1_join_ms".to_string(), span.micros as f64 / 1000.0);
    }
    metrics
        .extra
        .insert("igoodlock_core_size".to_string(), analysis.core_size as f64);
    write_metrics(opts, &metrics)?;
    let (label, rendered): (&str, Vec<String>) = match objects {
        Some(_) => {
            if opts.json {
                return json_output(serde_json::to_string_pretty(&analysis.abstract_cycles));
            }
            let rendered = analysis.abstract_cycles.iter().map(ToString::to_string);
            ("offline analysis", rendered.collect())
        }
        None => {
            if opts.json {
                return json_output(serde_json::to_string_pretty(&analysis.cycles));
            }
            let rendered = analysis.cycles.iter().map(ToString::to_string);
            ("offline analysis (relation artifact)", rendered.collect())
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{label}: {} dependency tuple(s), {} in the cyclic core, {} potential cycle(s){}",
        relation.len(),
        analysis.core_size,
        analysis.cycles.len(),
        if analysis.stats.pruned_by_hb > 0 {
            format!(
                " ({} pruned by happens-before)",
                analysis.stats.pruned_by_hb
            )
        } else {
            String::new()
        }
    );
    for (i, c) in rendered.iter().enumerate() {
        let _ = match analysis.feasibility.get(i) {
            Some(judgement) => writeln!(out, "  cycle {}: {c} — {judgement}", i + 1),
            None => writeln!(out, "  cycle {}: {c}", i + 1),
        };
    }
    Ok(CmdOutput::ok(out))
}

/// `dfz analyze <artifact>` — offline iGoodlock over a recorded
/// artifact, read from `input` and sniffed once from its first buffered
/// bytes: `df-trace` binary (from `dfz record --format binary`),
/// `df-trace` JSONL (from `dfz record --out` or a sealed `df-lock`
/// spill), or `df-relation` JSON (from `dfz record --relation-out`). A
/// trace decodes straight into a [`RelationBuilder`], keeping only the
/// object table — never the file's bytes or its events — and both
/// encodings build the same relation, so `--json` output is
/// byte-identical regardless of which one was recorded. Every input goes
/// through the same relation analysis, so `--hb`, `--feasibility` and
/// `--metrics-out` work on all three. `source` is the artifact's path
/// (or other provenance string), used verbatim in error messages.
///
/// # Errors
///
/// Returns a [`CliError::Usage`] for a truncated, corrupt or
/// other-version artifact, or one whose footer leaves a thread that
/// nests locks unbound — the message names `source` and, when the
/// failure is tied to one line (JSONL) or frame (binary), its 1-based
/// index. Returns a [`CliError::Internal`] naming `source` if the input
/// cannot be read (a JSONL trace with invalid UTF-8 included) or its
/// content matches none of the formats.
pub fn cmd_analyze<R: BufRead>(
    mut input: R,
    source: &str,
    opts: &CliOptions,
) -> Result<CmdOutput, CliError> {
    let unreadable = |e: std::io::Error| CliError::internal(format!("cannot read {source}: {e}"));
    let head = read_head(&mut input, RELATION_PREFIX.len()).map_err(unreadable)?;
    let format = TraceFormat::sniff(&head);
    let text = head.trim_ascii_start();
    let input = head.as_slice().chain(input);
    if format == TraceFormat::Jsonl && text.starts_with(RELATION_PREFIX) {
        let relation = df_igoodlock::read_relation(input)
            .map_err(|e| CliError::usage(format!("bad relation artifact {source}: {e}")))?;
        return analyze(&relation, None, opts);
    }
    if format == TraceFormat::Jsonl && !text.starts_with(b"{\"Header\"") {
        return Err(CliError::internal(format!(
            "{source} is not a df-trace or df-relation artifact"
        )));
    }
    // A failed read (invalid UTF-8 in a JSONL line included) stays an
    // internal error, as when the whole file was read up front.
    let bad_trace = |e| match e {
        df_events::SpillError::Io(e) => unreadable(e),
        e => CliError::usage(format!("bad trace artifact {source}: {e}")),
    };
    let mut builder = RelationBuilder::new();
    let footer = decode_trace(input, format, &mut builder).map_err(bad_trace)?;
    let relation = builder.finish().map_err(bad_trace)?;
    analyze(&relation, Some(footer.objects()), opts)
}

/// How a df-relation artifact starts, after any leading whitespace: the
/// longest prefix [`cmd_analyze`] tells formats apart by.
const RELATION_PREFIX: &[u8] = b"{\"format\":\"df-relation\"";

/// Reads from `input` until the bytes read hold `len` bytes after their
/// leading ASCII whitespace, or to its end. A reader's first fill may be
/// shorter than that, so a format cannot be sniffed from it alone.
fn read_head<R: BufRead>(input: &mut R, len: usize) -> std::io::Result<Vec<u8>> {
    let mut head = Vec::with_capacity(len);
    loop {
        let short = len.saturating_sub(head.trim_ascii_start().len());
        if short == 0 {
            return Ok(head);
        }
        let buf = input.fill_buf()?;
        if buf.is_empty() {
            return Ok(head);
        }
        let take = short.min(buf.len());
        head.extend_from_slice(&buf[..take]);
        input.consume(take);
    }
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
                let _ = write!(out, "cycle {:>2}: ", c.cycle_index + 1);
                if let Some(e) = &c.error {
                    failed = true;
                    let _ = write!(out, "FAILED — {e}");
                } else if c.cut_while_deferred() {
                    let _ = write!(
                        out,
                        "deferred, then cut by the trial budget — no trials spent"
                    );
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
        // Neither format's header, in UTF-8 text and in raw bytes, or a
        // JSONL trace that is not UTF-8 after its header: an internal
        // error that names the source.
        for (content, source) in [
            (&b"{not json"[..], "runs/garbage.json"),
            (&[0xff, 0xfe, 0x00][..], "runs/garbage.bin"),
            (
                &b"{\"Header\":{\"format\":\"df-trace\",\"version\":2}}\n\xff\n"[..],
                "runs/latin1.jsonl",
            ),
        ] {
            let err = cmd_analyze(content, source, &CliOptions::default()).unwrap_err();
            assert_eq!(err.exit_code(), exit_code::INTERNAL_ERROR, "{err}");
            assert!(err.message().contains(source), "{err}");
        }
    }

    #[test]
    fn analyze_names_the_thread_a_footer_leaves_unbound() {
        // The figure1 goldens with T1's binding deleted from the footer.
        for (content, source) in [
            (
                &include_bytes!("../../../tests/golden/unbound_thread.jsonl")[..],
                "unbound_thread.jsonl",
            ),
            (
                &include_bytes!("../../../tests/golden/unbound_thread.bin")[..],
                "unbound_thread.bin",
            ),
        ] {
            let err = cmd_analyze(content, source, &CliOptions::default()).unwrap_err();
            assert_eq!(err.exit_code(), exit_code::USAGE, "{err}");
            assert!(err.message().contains(source), "{err}");
            assert!(err.message().contains("thread T1"), "{err}");
        }
    }

    #[test]
    fn analyze_names_an_object_the_footer_lacks() {
        // The figure1 goldens with the footer's object table emptied, as
        // an unsealed spill writes it.
        for (content, source) in [
            (
                &include_bytes!("../../../tests/golden/empty_objects.jsonl")[..],
                "empty_objects.jsonl",
            ),
            (
                &include_bytes!("../../../tests/golden/empty_objects.bin")[..],
                "empty_objects.bin",
            ),
        ] {
            let err = cmd_analyze(content, source, &CliOptions::default()).unwrap_err();
            assert_eq!(err.exit_code(), exit_code::USAGE, "{err}");
            assert!(err.message().contains(source), "{err}");
            assert!(err.message().contains("object O2"), "{err}");
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
            let plain = cmd_analyze(&content[..], tag, &CliOptions::default())
                .unwrap()
                .text;
            let hb_opts = CliOptions {
                hb: true,
                ..CliOptions::default()
            };
            let filtered = cmd_analyze(&content[..], tag, &hb_opts).unwrap().text;
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
        let offline = cmd_analyze(&content[..], "trace.jsonl", &opts).unwrap();
        assert_eq!(offline.text, live.text, "recorded analysis must match live");

        let relation_content = std::fs::read(&relation_path.0).unwrap();
        let from_relation = cmd_analyze(&relation_content[..], "relation.json", &opts).unwrap();
        let cycles: Vec<df_igoodlock::Cycle> = serde_json::from_str(&from_relation.text).unwrap();
        assert_eq!(cycles.len(), 1, "{}", from_relation.text);
    }

    #[test]
    fn streamed_record_keeps_peak_at_zero() {
        let trace_path = TempPath::new("streamed.jsonl");
        let opts = CliOptions {
            out: Some(trace_path.0.clone()),
            ..CliOptions::default()
        };
        let out = cmd_record("figure1", &opts).unwrap();
        assert!(out.text.contains("peak trace bytes: 0"), "{}", out.text);
        assert!(!out.text.contains("events streamed: 0"), "{}", out.text);

        // The streamed artifact still analyzes like a recorded one.
        let content = std::fs::read(&trace_path.0).unwrap();
        let offline = cmd_analyze(&content[..], "streamed.jsonl", &CliOptions::default()).unwrap();
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
            spill: SpillConfig::with_format(TraceFormat::Binary),
            json: true,
            ..CliOptions::default()
        };
        let v1 = cmd_record("figure1", &jsonl_opts).unwrap();
        assert!(v1.text.contains("trace format: jsonl"), "{}", v1.text);
        let v2 = cmd_record("figure1", &bin_opts).unwrap();
        assert!(v2.text.contains("trace format: binary"), "{}", v2.text);

        let jsonl_bytes = std::fs::read(&jsonl_path.0).unwrap();
        let bin_bytes = std::fs::read(&bin_path.0).unwrap();
        assert!(bin_bytes.starts_with(&df_events::TRACE_BINARY_MAGIC));
        assert!(
            bin_bytes.len() < jsonl_bytes.len(),
            "binary ({}) must be denser than JSONL ({})",
            bin_bytes.len(),
            jsonl_bytes.len()
        );

        // Same run, either encoding: the --json analysis must be
        // byte-identical.
        let from_jsonl = cmd_analyze(&jsonl_bytes[..], "v1", &jsonl_opts).unwrap();
        let from_bin = cmd_analyze(&bin_bytes[..], "v2", &bin_opts).unwrap();
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
        let err = cmd_analyze(&patched[..], "runs/badtag.bin", &plain).unwrap_err();
        assert_eq!(err.exit_code(), exit_code::USAGE);
        assert!(err.message().contains("frame"), "{err}");

        // Magic alone is not an artifact.
        let err = cmd_analyze(&bytes[..4], "runs/magic.bin", &plain).unwrap_err();
        assert_eq!(err.exit_code(), exit_code::USAGE);
    }

    /// Records `name` at `seed` into a trace and a relation artifact and
    /// returns their bytes.
    fn record_both(name: &str, seed: u64, tag: &str) -> (Vec<u8>, Vec<u8>) {
        let trace_path = TempPath::new(&format!("{tag}.jsonl"));
        let relation_path = TempPath::new(&format!("{tag}.relation.json"));
        let opts = CliOptions {
            seed,
            out: Some(trace_path.0.clone()),
            relation_out: Some(relation_path.0.clone()),
            ..CliOptions::default()
        };
        cmd_record(name, &opts).unwrap();
        (
            std::fs::read(&trace_path.0).unwrap(),
            std::fs::read(&relation_path.0).unwrap(),
        )
    }

    /// The first line of an analysis, from its cycle count on.
    fn cycle_summary(text: &str) -> &str {
        let head = text.lines().next().unwrap_or("");
        &head[head.find("in the cyclic core").unwrap_or(0)..]
    }

    #[test]
    fn analyze_prunes_relation_artifacts_under_hb() {
        let (trace, relation) = record_both("jigsaw", 0, "hb-both");
        let hb = CliOptions {
            hb: true,
            ..CliOptions::default()
        };
        let from_trace = cmd_analyze(&trace[..], "hb-both.jsonl", &hb).unwrap().text;
        let from_relation = cmd_analyze(&relation[..], "hb-both.relation.json", &hb)
            .unwrap()
            .text;
        assert!(
            from_relation.contains("pruned by happens-before"),
            "{from_relation}"
        );
        assert_eq!(cycle_summary(&from_trace), cycle_summary(&from_relation));
        assert!(!from_relation.contains("waitForRunner"), "{from_relation}");
    }

    #[test]
    fn analyze_scores_feasibility_like_live_phase1() {
        let opts = CliOptions {
            seed: 7,
            feasibility: true,
            ..CliOptions::default()
        };
        let (trace, relation) = record_both("jigsaw", 7, "feasibility");
        let cycle_lines = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.starts_with("  cycle "))
                .map(str::to_string)
                .collect()
        };
        let verdicts = |text: &str| -> Vec<String> {
            cycle_lines(text)
                .iter()
                .map(|l| l.rsplit(" — ").next().unwrap_or("").to_string())
                .collect()
        };
        let live = cmd_phase1("jigsaw", &opts).unwrap().text;
        let from_trace = cmd_analyze(&trace[..], "feasibility.jsonl", &opts)
            .unwrap()
            .text;
        let from_relation = cmd_analyze(&relation[..], "feasibility.relation.json", &opts)
            .unwrap()
            .text;
        assert_eq!(cycle_lines(&from_trace), cycle_lines(&live));
        assert_eq!(verdicts(&from_relation), verdicts(&live));
        assert_eq!(verdicts(&live)[0], "Infeasible (score 0.00)", "{live}");
    }

    #[test]
    fn analyze_writes_the_same_metrics_for_every_input() {
        let (jsonl, relation) = record_both("figure1", 0, "metrics-inputs");
        let bin_path = TempPath::new("metrics-inputs.bin");
        cmd_record(
            "figure1",
            &CliOptions {
                out: Some(bin_path.0.clone()),
                spill: SpillConfig::with_format(TraceFormat::Binary),
                ..CliOptions::default()
            },
        )
        .unwrap();
        let binary = std::fs::read(&bin_path.0).unwrap();
        let metrics_of = |content: &[u8], tag: &str| {
            let path = TempPath::new(&format!("metrics-of-{tag}.json"));
            let opts = CliOptions {
                metrics_out: Some(path.0.clone()),
                ..CliOptions::default()
            };
            cmd_analyze(content, tag, &opts).unwrap();
            let mut m =
                df_obs::Metrics::from_json(&std::fs::read_to_string(&path.0).unwrap()).unwrap();
            assert!(m.extra.remove("phase1_join_ms").is_some(), "{tag}: {m:?}");
            assert!(m.phases.iter().any(|s| s.name == "phase1_join"), "{tag}");
            m.phases.clear();
            m
        };
        let from_relation = metrics_of(&relation, "relation");
        assert_eq!(from_relation.extra.get("igoodlock_core_size"), Some(&2.0));
        assert_eq!(from_relation.counters.cycles_found, 1);
        assert_eq!(metrics_of(&jsonl, "jsonl"), from_relation);
        assert_eq!(metrics_of(&binary, "binary"), from_relation);
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
        let out = cmd_analyze(&content[..], "timed-relation.json", &opts).unwrap();
        assert!(out.text.contains("1 potential cycle"), "{}", out.text);
        let metrics =
            df_obs::Metrics::from_json(&std::fs::read_to_string(&metrics_path.0).unwrap()).unwrap();
        assert_eq!(metrics.program, "analyze-relation");
        assert!(metrics.extra.contains_key("phase1_join_ms"), "{metrics:?}");
        assert_eq!(metrics.extra.get("igoodlock_core_size"), Some(&2.0));
        assert!(out.text.contains("2 in the cyclic core"), "{}", out.text);
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
