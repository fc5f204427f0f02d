//! Suite mode: every workload in fresh child processes — `UNTRACED_RUNS`
//! untraced runs on consecutive seeds for the end-to-end numbers, then
//! one traced run for the per-layer numbers and the tracing overhead —
//! and the result file `compare` reads.

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use graphct::trace::json::{self, Json};

use crate::metrics::spec;
use crate::Flags;

/// Untraced runs per workload, on seeds `N, N+1, …`: the fewest that
/// give `compare` a quartile spread to judge "unchanged" by.
pub const UNTRACED_RUNS: u64 = 3;

/// What one child run printed.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The `name value unit` lines: the metrics the run measured.
    metrics: Vec<(String, f64)>,
    /// The `# threads N` line of the offline workloads.
    threads: Option<u64>,
}

impl ChildResult {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Run one workload once in a child; echo what it prints.
fn run_child(flags: &Flags, workload: &str, seed: u64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &flags.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&flags.out);
    if flags.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    let parsed = json::parse(last).map_err(|e| {
        format!(
            "{workload} (seed {seed}, trace {}) printed no result: {e}\n{}",
            trace as u8,
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let known = |name: &str| {
        let spec = spec();
        spec.end_to_end
            .iter()
            .chain(&spec.per_layer)
            .any(|m| m.name == name)
    };
    let mut result = ChildResult {
        correct: matches!(parsed.get("correct"), Some(Json::Bool(true))),
        attempted: parsed.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: parsed.get("failed").and_then(Json::as_u64).unwrap_or(0),
        metrics: Vec::new(),
        threads: None,
    };
    for line in report.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["#", "threads", n] => result.threads = n.parse().ok(),
            [name, value, _unit] if known(name) => {
                if let Ok(value) = value.parse() {
                    result.metrics.push(((*name).to_owned(), value));
                }
            }
            _ => {}
        }
    }
    Ok(result)
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_owned(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_owned()
        })
}

/// A number for the result file; `null` when there is none to give.
fn json_number(value: Option<f64>) -> String {
    value
        .filter(|v| v.is_finite())
        .map_or("null".to_owned(), |v| v.to_string())
}

pub fn main(flags: &Flags) -> ExitCode {
    match run(flags) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench: at least one answer was wrong");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Run the suite and write the result file; `Ok(false)` when every run
/// completed but some answer was wrong.
fn run(flags: &Flags) -> Result<bool, String> {
    let spec = spec();
    let workloads: Vec<&str> = match &flags.workload {
        Some(w) => vec![w.as_str()],
        None => spec.workloads.iter().map(String::as_str).collect(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut all_correct = true;
    let mut entries = Vec::new();
    for workload in workloads {
        let untraced = (0..UNTRACED_RUNS)
            .map(|run| run_child(flags, workload, flags.seed + run, false))
            .collect::<Result<Vec<_>, _>>()?;
        let traced = run_child(flags, workload, flags.seed, true)?;

        // The first untraced run had the traced run's seed, so the same
        // inputs: what differs between the two is the tracing.
        let same_seed = |name: &str| untraced[0].value(name);
        let overhead = traced
            .value("bench.traced_heavy_p50_ms")
            .zip(same_seed("heavy_p50_ms"))
            .map(|(traced, untraced)| traced / untraced - 1.0);
        println!(
            "tracing_overhead_frac {} ratio ({workload})",
            json_number(overhead)
        );
        // One rep of `rmat_backends` is both halves, the light class and
        // the heavy one; elsewhere the heavy class is the whole rep.
        let rep_ms = match workload {
            "rmat_backends" => same_seed("light_p50_ms")
                .zip(same_seed("heavy_p50_ms"))
                .map(|(light, heavy)| light + heavy),
            _ => same_seed("heavy_p50_ms"),
        };
        if let Some((layer_sum_s, rep_ms)) = traced.value("bench.layer_sum_s").zip(rep_ms) {
            println!(
                "layer_sum_over_untraced_rep {} ratio ({workload})",
                json_number(Some(layer_sum_s * 1e3 / rep_ms))
            );
        }
        println!();

        let runs = || untraced.iter().chain([&traced]);
        let (attempted, failed) = runs().fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
        let correct = runs().all(|r| r.correct);
        all_correct &= correct;

        let mut entry = format!(
            "    \"{workload}\": {{\n      \"correct\": {correct}, \"attempted\": {attempted}, \
             \"failed\": {failed}, \"ops_failed_frac\": {}, \"tracing_overhead_frac\": {}, \
             \"threads\": {},\n      \"end_to_end\": {{\n",
            failed as f64 / attempted.max(1) as f64,
            json_number(overhead),
            json_number(traced.threads.map(|t| t as f64)),
        );
        let rows: Vec<String> = spec
            .end_to_end
            .iter()
            .map(|m| {
                let values: Vec<String> = untraced
                    .iter()
                    .filter_map(|r| r.value(&m.name))
                    .map(|v| v.to_string())
                    .collect();
                format!(
                    "        \"{}\": {{\"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}, \"values\": [{}]}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    json_number(m.bound),
                    values.join(", ")
                )
            })
            .collect();
        let _ = write!(
            entry,
            "{}\n      }},\n      \"per_layer\": {{\n",
            rows.join(",\n")
        );
        // `null`: this workload does not run that layer.
        let rows: Vec<String> = spec
            .per_layer
            .iter()
            .map(|m| {
                format!(
                    "        \"{}\": {{\"unit\": \"{}\", \"better\": \"{}\", \"value\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    json_number(traced.value(&m.name))
                )
            })
            .collect();
        let _ = write!(entry, "{}\n      }}\n    }}", rows.join(",\n"));
        entries.push(entry);
    }

    let result = format!(
        "{{\n  \"commit\": \"{}\",\n  \"nproc\": {nproc},\n  \"seed\": {},\n  \"seconds\": {},\n  \
         \"quick\": {},\n  \"untraced_runs\": {UNTRACED_RUNS},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        commit(),
        flags.seed,
        flags.seconds,
        flags.quick,
        entries.join(",\n")
    );
    let path = flags.out.join("result.json");
    std::fs::create_dir_all(&flags.out)
        .and_then(|()| std::fs::write(&path, result))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}
