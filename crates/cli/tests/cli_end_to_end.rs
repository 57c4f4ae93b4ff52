//! End-to-end tests of the `dfz` binary: the exit-code taxonomy and the
//! observability flags, exercised through a real process spawn.

use std::path::PathBuf;
use std::process::{Command, Output};

fn dfz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dfz"))
        .args(args)
        .output()
        .expect("dfz spawns")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dfz-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

#[test]
fn confirmed_cycle_exits_zero_and_emits_schema_valid_metrics() {
    let metrics = scratch("figure1-metrics.json");
    let trace = scratch("figure1-trace.jsonl");
    let out = dfz(&[
        "--benchmark",
        "figure1",
        "--trials",
        "3",
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("CONFIRMED"), "{stdout}");

    let m = df_obs::Metrics::from_json(&std::fs::read_to_string(&metrics).expect("metrics file"))
        .expect("schema-valid metrics");
    assert_eq!(m.schema, df_obs::METRICS_SCHEMA);
    assert!(m.counters.acquires_observed > 0);
    assert!(m.counters.threads_paused > 0);
    assert!(m.phases.iter().any(|p| p.name == "phase1"));
    assert!(m.phases.iter().any(|p| p.name == "phase2"));

    let t = std::fs::read_to_string(&trace).expect("trace file");
    let first = t.lines().next().expect("nonempty trace");
    assert!(first.contains("PhaseStart"), "{first}");
    assert!(t.contains("CheckRealDeadlock"), "trace records verdicts");
}

#[test]
fn deadlock_free_benchmark_exits_one() {
    let out = dfz(&["run", "sor"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(dfz(&["frobnicate", "figure1"]).status.code(), Some(2));
    assert_eq!(dfz(&[]).status.code(), Some(2));
    // Out-of-range fault probability is a usage error, not a crash.
    assert_eq!(
        dfz(&["run", "figure1", "--fault-panic", "2.0"])
            .status
            .code(),
        Some(2)
    );
    // Phase I always streams: the retired --stream flag is rejected, not
    // ignored, and a rejected record writes nothing.
    assert_eq!(
        dfz(&["phase1", "figure1", "--stream"]).status.code(),
        Some(2)
    );
    let trace = scratch("retired-stream.jsonl");
    let trace = trace.to_str().unwrap();
    assert_eq!(
        dfz(&["record", "figure1", "--stream", "--out", trace])
            .status
            .code(),
        Some(2)
    );
    assert!(!std::path::Path::new(trace).exists());
}

#[test]
fn retired_spill_ring_flags_are_usage_errors() {
    // The spill is written on the recording thread; the flags that
    // sized the old writer thread's ring are rejected, not ignored.
    let out = scratch("retired-ring.bin");
    let out = out.to_str().unwrap();
    for flag in ["--spill-ring", "--spill-batch-bytes", "--spill-flush-ms"] {
        let code = dfz(&["record", "figure1", flag, "4096", "--out", out])
            .status
            .code();
        assert_eq!(code, Some(2), "{flag}");
    }
    assert!(
        !std::path::Path::new(out).exists(),
        "a usage error records nothing"
    );
}

#[test]
fn retired_event_vocabulary_is_rejected_with_a_position() {
    // Artifacts recorded before shared-variable accesses and atomic
    // blocks left the event vocabulary: rejected, never skipped.
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    for (file, position) in [
        ("retired_access.jsonl", "line 11"),
        ("retired_access.bin", "frame 12"),
    ] {
        let path = format!("{golden}/{file}");
        let out = dfz(&["analyze", &path]);
        assert_eq!(out.status.code(), Some(2), "{file}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(file), "{stderr}");
        assert!(stderr.contains(position), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    assert_eq!(dfz(&["races", "account"]).status.code(), Some(2));
}

#[test]
fn version_one_relation_artifacts_are_usage_errors() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/relation.v1.json"
    );
    let out = dfz(&["analyze", path]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("relation.v1.json"), "{stderr}");
    assert!(stderr.contains("version 1"), "{stderr}");
}

#[test]
fn unknown_names_are_usage_errors_not_internal() {
    let out = dfz(&["run", "no-such-benchmark"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown benchmark"), "{stderr}");
    assert_eq!(
        dfz(&["run", "figure1", "--variant", "bogus"]).status.code(),
        Some(2)
    );
    assert_eq!(
        dfz(&["confirm", "figure1", "--cycle", "99"]).status.code(),
        Some(2)
    );
}

#[test]
fn parallel_jobs_reproduce_the_sequential_run() {
    let run = |jobs: &str, tag: &str| {
        let metrics = scratch(&format!("jobs{tag}-metrics.json"));
        let trace = scratch(&format!("jobs{tag}-trace.jsonl"));
        let out = dfz(&[
            "run",
            "figure1",
            "--trials",
            "4",
            "--jobs",
            jobs,
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            out.stdout,
            std::fs::read_to_string(&trace).expect("trace file"),
            df_obs::Metrics::from_json(&std::fs::read_to_string(&metrics).expect("metrics file"))
                .expect("schema-valid metrics"),
        )
    };
    let (stdout1, trace1, m1) = run("1", "1");
    let (stdout4, trace4, m4) = run("4", "4");
    // The verdicts, the logical trace bytes, and every campaign counter
    // must be identical — only wall-clock fields may differ (the
    // iGoodlock summary line ends with its elapsed time, so that suffix
    // is normalized away before comparing).
    let verdicts = |bytes: &[u8]| {
        String::from_utf8_lossy(bytes)
            .lines()
            .map(|l| l.split(" in ").next().unwrap_or(l).to_string())
            .collect::<Vec<_>>()
    };
    assert_eq!(verdicts(&stdout1), verdicts(&stdout4));
    assert_eq!(trace1, trace4);
    assert_eq!(m1.counters, m4.counters);
}

#[test]
fn injected_program_panic_exits_three() {
    let out = dfz(&[
        "--benchmark",
        "figure1",
        "--trials",
        "2",
        "--fault-panic",
        "1.0",
        "--fault-seed",
        "7",
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
