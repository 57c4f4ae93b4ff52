//! `campaign_bench --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--out DIR]`
//! runs one workload and prints one `workload metric value unit
//! samples=N` line per metric, then the JSON result line.
//!
//! `campaign_bench --compare A.jsonl B.jsonl` compares two sets of runs
//! recorded with `--out` and exits 1 on an end-to-end regression.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use campaign_bench::{compare, report, result_line, BenchSpec, RunOptions, Scale, Workload};

/// Campaigns per run at least, whatever `--seconds` says, so a median
/// always has several samples behind it.
const MIN_REPS: u32 = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: u32 = 3;

const USAGE: &str = "usage: campaign_bench --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--out DIR]\n       campaign_bench --compare A.jsonl B.jsonl";

fn main() -> ExitCode {
    match parse(std::env::args().skip(1).collect()) {
        Ok(Command::Compare(a, b)) => run_compare(&a, &b),
        Ok(Command::Run {
            workload,
            opts,
            out,
        }) => run_workload(workload, &opts, out),
        Err(e) => {
            eprintln!("campaign_bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

enum Command {
    Run {
        workload: Workload,
        opts: RunOptions,
        out: Option<PathBuf>,
    },
    Compare(PathBuf, PathBuf),
}

fn parse(args: Vec<String>) -> Result<Command, String> {
    let spec = BenchSpec::load();
    let mut workload = None;
    let mut opts = RunOptions {
        seed: 0,
        seconds: spec.run_seconds as f64,
        min_reps: MIN_REPS,
        setups: SETUPS,
        trace: false,
    };
    let mut out = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--compare" {
            let (Some(a), Some(b)) = (args.next(), args.next()) else {
                return Err("--compare needs two files".into());
            };
            return Ok(Command::Compare(a.into(), b.into()));
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run {
        workload,
        opts,
        out,
    })
}

fn run_workload(workload: Workload, opts: &RunOptions, out: Option<PathBuf>) -> ExitCode {
    let report = campaign_bench::run(workload, &Scale::full(), opts);
    for (name, m) in &report.metrics {
        println!(
            "{} {name} {} {} samples={}",
            workload.name(),
            m.value,
            m.unit,
            m.samples
        );
    }
    for failure in &report.gate_failures {
        eprintln!("gate failed: {} {failure}", workload.name());
    }
    if let Some(dir) = out {
        if let Err(e) = report::write_out(&dir, &report) {
            eprintln!("campaign_bench: writing {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    match result_line(&report, &BenchSpec::load()) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("campaign_bench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(a: &Path, b: &Path) -> ExitCode {
    let (ra, rb) = match (report::read_records(a), report::read_records(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("campaign_bench: {e}");
            return ExitCode::from(2);
        }
    };
    let (table, ok) = compare(&ra, &rb, &BenchSpec::load());
    print!("{table}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
