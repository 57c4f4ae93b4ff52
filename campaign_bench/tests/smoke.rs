//! Every workload through the benchmark's own entry point at a
//! test-only scale: the gates pass and every metric `BENCHMARK.json`
//! lists is produced, untraced and traced.

use campaign_bench::{result_line, run, BenchSpec, RunOptions, Scale, Workload};

fn tiny() -> Scale {
    Scale {
        ring_seats: 4,
        // Java Logging, Java Swing, DBCP: six predicted cycles.
        table1_models: 5..8,
        synth_ops: 10,
        synth_pairs: 1,
        native_pairs: 5_000,
        confirm_trials: 2,
    }
}

#[test]
fn every_workload_passes_its_gates_and_emits_every_listed_metric() {
    let spec = BenchSpec::load();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = RunOptions {
                seed: 1,
                seconds: 0.0,
                min_reps: 1,
                setups: 1,
                trace,
            };
            let report = run(workload, &tiny(), &opts);
            let name = workload.name();
            assert!(
                report.correct(),
                "{name} trace={trace}: {:?}",
                report.gate_failures
            );
            assert!(report.attempted > 0, "{name}");
            assert_eq!(report.failed, 0, "{name}");
            for m in spec.reported(trace) {
                assert!(
                    report.metrics.contains_key(&m.name),
                    "{name} trace={trace} lacks {}",
                    m.name
                );
            }
            let line = result_line(&report, &spec).expect("every listed metric present");
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":"),
                "{line}"
            );
            assert_eq!(report.spans.is_empty(), !trace, "{name}");
        }
    }
}
