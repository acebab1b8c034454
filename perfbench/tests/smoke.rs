//! Runs the built benchmark binary on tiny inputs: every workload in both
//! modes, the metric list against `BENCHMARK.json`, and a corrupted
//! reference that must fail the run.

use std::path::Path;
use std::process::{Command, Output};

use mdf_trace::json::{parse, Json};

const WORKLOADS: &[&str] = &["exec-rows", "exec-wavefront", "service", "fleet"];

fn perfbench(workload: &str, trace: u8, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--shape", "16x96"])
        .args(extra)
        .output()
        .expect("run perfbench")
}

/// The result object: the last line of standard output.
fn result(out: &Output) -> Json {
    assert!(
        out.status.success(),
        "exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"))
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn contract(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let doc = parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(list)
        .and_then(Json::arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::str_val).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_metrics(workload: &str, trace: u8, list: &str) {
    let res = result(&perfbench(workload, trace, &[]));
    assert_eq!(res.get("correct").and_then(Json::bool_val), Some(true));
    assert_eq!(res.get("failed").and_then(Json::num), Some(0.0));
    assert!(res.get("attempted").and_then(Json::num).unwrap_or(0.0) >= 1.0);
    let metrics = res
        .get("metrics")
        .and_then(Json::obj)
        .expect("metrics object");
    let wanted = contract(list);
    assert_eq!(metrics.len(), wanted.len(), "{workload}: {list} count");
    for (name, unit) in wanted {
        let m = res
            .get("metrics")
            .and_then(|ms| ms.get(&name))
            .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
        assert_eq!(
            m.get("unit").and_then(Json::str_val),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            m.get("value")
                .and_then(Json::num)
                .is_some_and(f64::is_finite),
            "{name}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in WORKLOADS {
        check_metrics(w, 0, "end_to_end");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for w in WORKLOADS {
        check_metrics(w, 1, "per_layer");
    }
}

#[test]
fn a_corrupted_reference_fails_the_run() {
    for w in ["exec-rows", "service"] {
        let out = perfbench(w, 0, &["--corrupt-reference"]);
        assert!(!out.status.success(), "{w}: a wrong reference passed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !stdout.contains("\"correct\""),
            "{w}: printed a result: {stdout}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("reference"), "{w}: {stderr}");
    }
}

#[test]
fn bad_arguments_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn kept_traces_pass_the_profile_validator() {
    let out = perfbench("service", 1, &["--keep-trace"]);
    result(&out);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let facts = parse(stdout.lines().next().expect("facts line")).expect("facts JSON");
    let dir = facts
        .get("perfbench")
        .and_then(|f| f.get("trace_dir"))
        .and_then(Json::str_val)
        .expect("trace_dir fact")
        .to_string();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files = 0;
    for entry in std::fs::read_dir(&dir).expect("trace dir") {
        let path = entry.expect("entry").path();
        let text = std::fs::read_to_string(&path).expect("read trace");
        let summary =
            mdf_trace::validate_trace(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(summary.spans > 0);
        files += 1;
    }
    assert_eq!(files, 3, "two client traces and the replay trace");
    std::fs::remove_dir_all(&dir).expect("remove kept traces");
}
