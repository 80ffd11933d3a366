//! Self-test of the benchmark: every workload of `BENCHMARK.json` runs at
//! toy scale, prints every metric it names with its unit, and fails when
//! a reference answer is corrupted.

use std::path::PathBuf;
use std::process::Command;

use fis_types::json::Json;

fn benchmark() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn list<'a>(benchmark: &'a Json, key: &str) -> &'a [Json] {
    benchmark
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
}

fn str_field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without `{key}`: {entry}"))
}

/// Runs one toy workload in its own working directory; returns the exit
/// code, the result object (the last stdout line) and the whole stdout.
fn run(workload: &str, trace: u8, extra: &[&str]) -> (Option<i32>, Json, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("selftest-{workload}-{trace}-{}", extra.len()));
    std::fs::create_dir_all(&dir).expect("test directory");
    let output = Command::new(env!("CARGO_BIN_EXE_fisbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--toy"])
        .args(extra)
        .current_dir(&dir)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).unwrap_or_else(|e| {
        panic!(
            "{workload}: last line is not a result ({e}): {last}\nstderr: {}",
            String::from_utf8_lossy(&output.stderr)
        )
    });
    (output.status.code(), result, stdout)
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let benchmark = benchmark();
    for workload in list(&benchmark, "workloads") {
        let workload = str_field(workload, "name");
        for (trace, key) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let (code, result, stdout) = run(workload, trace, &[]);
            assert_eq!(code, Some(0), "{workload} trace {trace} failed:\n{stdout}");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
            assert_eq!(result.get("failed").and_then(Json::as_usize), Some(0));
            assert!(result.get("attempted").and_then(Json::as_usize) >= Some(1));
            for field in [
                "meta nproc",
                "meta cpu",
                "meta rustc",
                "meta commit",
                "meta seed",
                "config: dim=16",
            ] {
                assert!(
                    stdout.contains(field),
                    "{workload}: no `{field}` line:\n{stdout}"
                );
            }
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: result without metrics: {result}");
            };
            let expected = list(&benchmark, key);
            assert_eq!(metrics.len(), expected.len(), "{workload} {key}: {result}");
            for metric in expected {
                let (name, unit) = (str_field(metric, "name"), str_field(metric, "unit"));
                let printed = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: `{name}` not printed"));
                assert_eq!(
                    printed.get("unit").and_then(Json::as_str),
                    Some(unit),
                    "{name}"
                );
                let value = printed.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {printed}"
                );
            }
        }
    }
}

#[test]
fn a_corrupted_reference_answer_fails_the_run() {
    let benchmark = benchmark();
    for workload in list(&benchmark, "workloads") {
        let workload = str_field(workload, "name");
        let (code, result, stdout) = run(workload, 0, &["--corrupt-reference"]);
        assert_ne!(
            code,
            Some(0),
            "{workload} passed with a corrupted reference:\n{stdout}"
        );
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)), "{stdout}");
        assert!(
            result.get("failed").and_then(Json::as_usize) >= Some(1),
            "{workload}: the corrupted answer was not counted: {result}"
        );
        assert!(stdout.contains("FAILED:"), "{stdout}");
    }
}
