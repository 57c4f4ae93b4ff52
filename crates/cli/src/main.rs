//! `dfz` — DeadlockFuzzer command line.
//!
//! ```text
//! dfz list
//! dfz phase1  <benchmark> [--seed N] [--hb] [--feasibility] [--json] [--variant V]
//! dfz record  <benchmark> [--seed N] --out F [--relation-out F.json]
//!             [--format jsonl|binary]
//! dfz analyze <artifact>  [--hb] [--feasibility] [--variant V] [--json]
//!             [--metrics-out F]                 # offline iGoodlock
//! dfz confirm <benchmark> [--cycle I] [--trials N] [--variant V] [--jobs N]
//!             [--feasibility] [--adaptive] [--trial-budget N]
//! dfz run     <benchmark> [--trials N] [--variant V] [--hb] [--jobs N]
//!             [--feasibility] [--adaptive] [--trial-budget N]
//!             [--metrics-out F] [--trace-out F] [--fault-panic P] [--fault-seed N]
//! ```
//!
//! `analyze` accepts any recorded artifact: a `df-trace` binary stream
//! (`record --format binary`), a `df-trace` JSONL stream (`record
//! --out`), or a `df-relation` JSON envelope (`record --relation-out`),
//! and `--hb`, `--feasibility` and `--metrics-out` work on each. Phase I
//! always streams its events into the relation builder; the retired
//! `--stream` flag is a usage error. `--jobs` sizes the Phase II trial
//! pool of `confirm` and `run`; Phase I is sequential. A leading flag implies
//! `run`, so `dfz --benchmark figure1 --metrics-out m.json` is the
//! observability one-liner. `record` writes its trace on the recording
//! thread through a 64 KiB buffer; the flags of the retired ring writer
//! are usage errors.

use df_cli::{
    cmd_analyze, cmd_confirm, cmd_list, cmd_phase1, cmd_record, cmd_run, resolve_variant, CliError,
    CliOptions, CmdOutput,
};

fn usage() -> ! {
    eprintln!(
        "usage: dfz <list | phase1 | record | analyze | confirm | run> [args]\n\
         a leading flag implies `run` (e.g. dfz --benchmark figure1 --metrics-out m.json)\n\
         parallelism: --jobs <n> (0 = one worker per core, 1 = sequential;\n\
         \x20    drives the Phase II trial workers of confirm and run)\n\
         observability: --metrics-out <file> --trace-out <file.jsonl>\n\
         recording: --out <trace file> --relation-out <relation.json>\n\
         \x20    --format <jsonl|binary>\n\
         precision: --feasibility (score cycles from the Phase I relation)\n\
         \x20    --adaptive (feasibility-seeded adaptive trial allocation)\n\
         \x20    --trial-budget <n> (campaign-wide cap on adaptive trials)\n\
         fault injection: --fault-panic <prob> --fault-seed <n>\n\
         run `dfz list` for benchmark names\n\
         exit codes: 0 cycle confirmed / success, 1 no cycle found,\n\
         2 usage, 3 program under test panicked, 4 internal error,\n\
         5 live deadlock detected (df-lock SealAndExit handler)"
    );
    std::process::exit(df_cli::exit_code::USAGE);
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        usage();
    }
    // Flags-first invocation implies the full pipeline.
    if raw[0].starts_with('-') {
        raw.insert(0, "run".to_string());
    }
    let mut args = raw.into_iter();
    let Some(command) = args.next() else { usage() };
    let mut positional: Vec<String> = Vec::new();
    let mut opts = CliOptions::default();
    let mut cycle: Option<usize> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--trials" => {
                opts.trials = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--cycle" => {
                cycle = args.next().and_then(|v| v.parse().ok());
                if cycle.is_none() {
                    usage();
                }
            }
            "--variant" => {
                let name = args.next().unwrap_or_else(|| usage());
                match resolve_variant(&name) {
                    Ok(v) => opts.variant = v,
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(e.exit_code());
                    }
                }
            }
            "--jobs" => {
                opts.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--benchmark" => {
                positional.push(args.next().unwrap_or_else(|| usage()));
            }
            "--metrics-out" => {
                opts.metrics_out = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--trace-out" => {
                opts.trace_out = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--fault-panic" => {
                let p: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                if !(0.0..=1.0).contains(&p) {
                    usage();
                }
                opts.fault_panic = Some(p);
            }
            "--fault-seed" => {
                opts.fault_seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                opts.out = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--relation-out" => {
                opts.relation_out = Some(args.next().unwrap_or_else(|| usage()).into());
            }
            "--format" => {
                let v = args.next().unwrap_or_else(|| usage());
                match v.parse::<df_events::TraceFormat>() {
                    Ok(f) => opts.spill.format = f,
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(df_cli::exit_code::USAGE);
                    }
                }
            }
            "--trial-budget" => {
                let budget: u32 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                opts.trial_budget = Some(budget);
            }
            "--hb" => opts.hb = true,
            "--feasibility" => opts.feasibility = true,
            "--adaptive" => opts.adaptive = true,
            "--json" => opts.json = true,
            other if !other.starts_with('-') => positional.push(other.to_string()),
            _ => usage(),
        }
    }

    // Every command funnels into one Result<CmdOutput, CliError>, so
    // printing and exit-coding happen in exactly one place below.
    let result: Result<CmdOutput, CliError> = match command.as_str() {
        "list" => Ok(CmdOutput::ok(cmd_list())),
        "phase1" => match positional.first() {
            Some(name) => cmd_phase1(name, &opts),
            None => usage(),
        },
        "record" => match positional.first() {
            Some(name) => cmd_record(name, &opts),
            None => usage(),
        },
        "analyze" => match positional.first() {
            Some(path) => std::fs::read(path)
                .map_err(|e| CliError::internal(format!("cannot read {path}: {e}")))
                .and_then(|content| cmd_analyze(&content, path, &opts)),
            None => usage(),
        },
        "confirm" => match positional.first() {
            Some(name) => cmd_confirm(name, cycle.map(|c| c.saturating_sub(1)), &opts),
            None => usage(),
        },
        "run" => match positional.first() {
            Some(name) => cmd_run(name, &opts),
            None => usage(),
        },
        _ => usage(),
    };
    match result {
        Ok(out) => {
            print!("{}", out.text);
            std::process::exit(out.code);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}
