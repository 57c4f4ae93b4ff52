//! `BENCHMARK.json`, the result line, run records, span files and the
//! `--compare` rule.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::campaign::RunReport;
use crate::stats::{quartiles, spread};

/// The repository's benchmark definition, as this build saw it.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The parts of `BENCHMARK.json` a run and `--compare` read.
#[derive(Deserialize)]
pub struct BenchSpec {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<WorkloadSpec>,
    /// Metrics a user sees, each with its regression bound.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of single layers.
    pub per_layer: Vec<MetricSpec>,
}

/// One workload of `BENCHMARK.json`.
#[derive(Deserialize)]
pub struct WorkloadSpec {
    /// Its name.
    pub name: String,
}

/// One metric of `BENCHMARK.json`.
#[derive(Deserialize)]
pub struct MetricSpec {
    /// Its name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

impl BenchSpec {
    /// The embedded `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// Panics when the file does not parse: the build is broken.
    pub fn load() -> BenchSpec {
        serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    /// The metrics a run prints on its result line.
    pub fn reported(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    fn end_to_end(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, ValueUnit>,
}

#[derive(Serialize)]
struct ValueUnit {
    value: f64,
    unit: String,
}

/// The last line a run prints: correctness, operation counts, and the
/// metrics `BENCHMARK.json` lists for the mode.
///
/// # Errors
///
/// Names a listed metric the run did not produce.
pub fn result_line(report: &RunReport, spec: &BenchSpec) -> Result<String, String> {
    let mut metrics = BTreeMap::new();
    for m in spec.reported(report.trace) {
        let measured = report
            .metrics
            .get(&m.name)
            .ok_or_else(|| format!("{} produced no {}", report.workload.name(), m.name))?;
        let value_unit = ValueUnit {
            value: measured.value,
            unit: m.unit.clone(),
        };
        metrics.insert(m.name.clone(), value_unit);
    }
    let line = ResultLine {
        correct: report.correct(),
        attempted: report.attempted.max(1),
        failed: report.failed,
        metrics,
    };
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

/// One run, as appended to `results.jsonl` by `--out`.
#[derive(Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether the run traced.
    pub trace: bool,
    /// Whether every gate passed.
    pub correct: bool,
    /// Executions started.
    pub attempted: u64,
    /// Executions that failed.
    pub failed: u64,
    /// Every metric the run produced.
    pub metrics: BTreeMap<String, MetricRecord>,
}

/// One metric of a [`RunRecord`].
#[derive(Serialize, Deserialize)]
pub struct MetricRecord {
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Measurements behind the value.
    pub samples: u64,
}

impl RunRecord {
    /// The record of `report`.
    pub fn of(report: &RunReport) -> RunRecord {
        let metrics = report
            .metrics
            .iter()
            .map(|(name, m)| {
                let record = MetricRecord {
                    value: m.value,
                    unit: m.unit.to_string(),
                    samples: m.samples as u64,
                };
                (name.clone(), record)
            })
            .collect();
        RunRecord {
            workload: report.workload.name().to_string(),
            seed: report.seed,
            trace: report.trace,
            correct: report.correct(),
            attempted: report.attempted,
            failed: report.failed,
            metrics,
        }
    }
}

#[derive(Serialize)]
struct SpanLine {
    id: u32,
    parent: Option<u32>,
    name: String,
    workload: String,
    campaign: u32,
    start_us: f64,
    end_us: f64,
}

/// Appends the run to `dir/results.jsonl` and, for a traced run, writes
/// its spans to `dir/<workload>.spans.jsonl`.
///
/// # Errors
///
/// Returns the I/O error.
pub fn write_out(dir: &Path, report: &RunReport) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let record = serde_json::to_string(&RunRecord::of(report)).map_err(std::io::Error::other)?;
    let mut results = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("results.jsonl"))?;
    writeln!(results, "{record}")?;
    results.flush()?;
    if report.trace {
        let workload = report.workload.name();
        let mut out = String::new();
        for (campaign, s) in &report.spans {
            let line = SpanLine {
                id: s.id,
                parent: s.parent,
                name: s.name.clone(),
                workload: workload.to_string(),
                campaign: *campaign,
                start_us: s.start_us,
                end_us: s.end_us,
            };
            let json = serde_json::to_string(&line).map_err(std::io::Error::other)?;
            out.push_str(&json);
            out.push('\n');
        }
        std::fs::write(dir.join(format!("{workload}.spans.jsonl")), out)?;
    }
    Ok(())
}

/// Reads a `results.jsonl`.
///
/// # Errors
///
/// Names the file and line that does not parse.
pub fn read_records(path: &Path) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            serde_json::from_str(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

/// How one metric compares between two sets of runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// Not worse by more than the bound.
    Within,
    /// Worse by more than the bound, with both spreads inside it.
    Regression,
    /// A set's spread (quartile distance over median) exceeds the bound,
    /// so no conclusion either way.
    Unresolved,
    /// A per-layer metric: no bound, reported for attribution only.
    Info,
}

/// Compares set `b` against set `a`: the share by which `b`'s median is
/// worse than `a`'s (negative when better), and the verdict under
/// `bound`.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: Option<f64>) -> (f64, Verdict) {
    let (ma, mb) = (quartiles(a).1, quartiles(b).1);
    let change = if ma == 0.0 {
        if mb == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(mb)
        }
    } else {
        (mb - ma) / ma.abs()
    };
    let worse = if lower_is_better { change } else { -change };
    let verdict = match bound {
        None => Verdict::Info,
        Some(bound) if spread(a) > bound || spread(b) > bound => Verdict::Unresolved,
        Some(bound) if worse > bound => Verdict::Regression,
        Some(_) => Verdict::Within,
    };
    (worse, verdict)
}

/// Compares two sets of runs metric by metric, per workload. Returns the
/// printed table and whether `b` passes: every run correct, no rise in
/// the failed fraction, and no end-to-end regression.
pub fn compare(a: &[RunRecord], b: &[RunRecord], spec: &BenchSpec) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    for w in &spec.workloads {
        let (ra, rb): (Vec<&RunRecord>, Vec<&RunRecord>) = (
            a.iter().filter(|r| r.workload == w.name).collect(),
            b.iter().filter(|r| r.workload == w.name).collect(),
        );
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        let failed_frac = |rs: &[&RunRecord]| {
            let failed: u64 = rs.iter().map(|r| r.failed).sum();
            failed as f64 / rs.iter().map(|r| r.attempted).sum::<u64>().max(1) as f64
        };
        if rb.iter().any(|r| !r.correct) {
            ok = false;
            let _ = writeln!(out, "{} INCORRECT: a run of B failed its gates", w.name);
        }
        if failed_frac(&rb) > failed_frac(&ra) {
            ok = false;
            let _ = writeln!(out, "{} FAILED: failed fraction rose", w.name);
        }
        let mut vb_all = values(&rb, spec);
        for (name, (unit, va)) in values(&ra, spec) {
            let Some((_, vb)) = vb_all.remove(&name) else {
                continue;
            };
            let e2e = spec.end_to_end(&name);
            let better = spec
                .end_to_end
                .iter()
                .chain(&spec.per_layer)
                .find(|m| m.name == name)
                .map_or("lower", |m| m.better.as_str());
            let (worse, verdict) = judge(&va, &vb, better == "lower", e2e.and_then(|m| m.bound));
            if verdict == Verdict::Regression {
                ok = false;
            }
            let summary = |v: &[f64]| {
                let (q1, q2, q3) = quartiles(v);
                let spread = spread(v) * 100.0;
                format!(
                    "{q2:.6} [{q1:.6}, {q3:.6}] spread {spread:.1}% n={}",
                    v.len()
                )
            };
            let bound = e2e
                .and_then(|m| m.bound)
                .map_or(String::new(), |b| format!(" (bound {:.0}%)", b * 100.0));
            let _ = writeln!(
                out,
                "{} {name} {unit}: A {}  B {}  worse {:+.1}%{bound}  {verdict:?}",
                w.name,
                summary(&va),
                summary(&vb),
                worse * 100.0,
            );
        }
    }
    (out, ok)
}

/// Each metric's values across `runs`. End-to-end metrics come from
/// untraced runs only: a traced run interleaves traced campaigns with its
/// timed ones.
fn values(runs: &[&RunRecord], spec: &BenchSpec) -> BTreeMap<String, (String, Vec<f64>)> {
    let mut out: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    for r in runs {
        for (name, m) in &r.metrics {
            if r.trace && spec.end_to_end(name).is_some() {
                continue;
            }
            let entry = out
                .entry(name.clone())
                .or_insert((m.unit.clone(), Vec::new()));
            entry.1.push(m.value);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        // 20% slower with tight spreads: a regression under a 10% bound.
        let slower: Vec<f64> = a.iter().map(|v| v * 1.2).collect();
        let (worse, verdict) = judge(&a, &slower, true, Some(0.1));
        assert!((worse - 0.2).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Regression);
        // The same change on a higher-is-better metric is an improvement.
        let (worse, verdict) = judge(&a, &slower, false, Some(0.1));
        assert!(worse < 0.0);
        assert_eq!(verdict, Verdict::Within);
        // 5% slower stays within a 10% bound.
        let near: Vec<f64> = a.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(&a, &near, true, Some(0.1)).1, Verdict::Within);
        // A set whose spread exceeds the bound decides nothing.
        let noisy = [0.5, 1.0, 1.5, 2.0, 2.5];
        assert_eq!(judge(&a, &noisy, true, Some(0.1)).1, Verdict::Unresolved);
        // Per-layer metrics carry no bound.
        assert_eq!(judge(&a, &slower, true, None).1, Verdict::Info);
    }

    #[test]
    fn benchmark_json_lists_every_workload_and_a_setup_metric() {
        let spec = BenchSpec::load();
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        let expected: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, expected);
        let setup = spec.end_to_end("setup_s").expect("setup_s is listed");
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
