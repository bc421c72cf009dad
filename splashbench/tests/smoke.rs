//! The benchmark's own tests: every workload at a tiny size, with its
//! correctness checks and its printed names and units checked against
//! `BENCHMARK.json`, plus the argument errors.

use std::process::Command;

fn splashbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_splashbench"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn smoke_runs_every_workload_and_matches_benchmark_json() {
    for workload in ["wire_stream", "engine_bulk", "durable_online"] {
        let out = splashbench(&["--smoke", "--workload", workload]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{workload}: {}\n{stdout}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("smoke ok"), "{stdout}");
    }
}

#[test]
fn bad_arguments_fail_without_a_result_line() {
    for args in [
        &[][..],
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "wire_stream",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &[
            "--workload",
            "wire_stream",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    ] {
        let out = splashbench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed {:?}", out.stdout);
    }
}
