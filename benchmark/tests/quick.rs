//! `bench --quick`: all five workloads end to end, untraced and traced,
//! on small inputs — every metric present, every oracle check passing,
//! inside a minute.

use std::process::Command;
use std::time::Instant;

use graphct::trace::json::{self, Json};

#[test]
fn quick_suite_runs_every_workload_and_reports_every_metric() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick");
    let started = Instant::now();
    let run = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--quick", "--seconds", "2", "--seed", "3", "--out"])
        .arg(&out)
        .output()
        .expect("run the suite");
    let elapsed = started.elapsed();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "suite failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(elapsed.as_secs() < 60, "quick suite took {elapsed:?}");

    let result = json::parse(&std::fs::read_to_string(out.join("result.json")).unwrap()).unwrap();
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(spec_path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<String> {
        spec.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect()
    };
    for workload in names("workloads") {
        let entry = result
            .get("workloads")
            .and_then(|w| w.get(&workload))
            .unwrap_or_else(|| panic!("no {workload} in the result"));
        assert!(
            matches!(entry.get("correct"), Some(Json::Bool(true))),
            "{workload}"
        );
        assert_eq!(
            entry.get("failed").and_then(Json::as_u64),
            Some(0),
            "{workload}"
        );
        assert!(
            entry.get("attempted").and_then(Json::as_u64).unwrap() >= 1,
            "{workload}"
        );
        for metric in names("end_to_end") {
            let values = entry
                .get("end_to_end")
                .and_then(|m| m.get(&metric))
                .and_then(|m| m.get("values"))
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{workload} lacks {metric}"));
            assert_eq!(values.len(), 3, "{workload} {metric}: one value per run");
            for value in values.iter().map(|v| v.as_f64().unwrap()) {
                assert!(
                    value > 0.0 && value.is_finite(),
                    "{workload} {metric} = {value}"
                );
            }
        }
        // Every per-layer metric has a row: a number, or `null` where the
        // workload does not run that layer.
        let layers = entry.get("per_layer").unwrap();
        let mut ran = 0;
        for metric in names("per_layer") {
            let value = layers
                .get(&metric)
                .and_then(|m| m.get("value"))
                .unwrap_or_else(|| panic!("{workload} lacks {metric}"));
            match value {
                Json::Null => {}
                Json::Num(v) => {
                    assert!(*v >= 0.0 && v.is_finite(), "{workload} {metric} = {v}");
                    ran += 1;
                }
                other => panic!("{workload} {metric} = {other:?}"),
            }
        }
        assert!(ran >= 8, "{workload} reports only {ran} layer metrics");
        // The traced run left its span dump next to the result.
        let dump = std::fs::read_to_string(out.join(format!("trace-{workload}.jsonl"))).unwrap();
        let first = json::parse(dump.lines().next().expect("a span")).unwrap();
        assert_eq!(
            first.get("workload").and_then(Json::as_str),
            Some(workload.as_str())
        );
        for field in ["span", "name", "id", "start_ns", "end_ns", "self_ns"] {
            assert!(first.get(field).is_some(), "{workload} span lacks {field}");
        }
    }
}
