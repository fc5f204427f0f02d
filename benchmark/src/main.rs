//! `bench` — the committed benchmark of GraphCT-rs (see README.md).
//!
//! * `bench --workload W --seed N --seconds S --trace 0|1` runs one
//!   workload in this process and prints every metric by name, then one
//!   JSON object on the last line (the contract `BENCHMARK.json` states).
//! * `bench [--seed N] [--workload W] ...` without `--trace` runs the
//!   suite: each workload in fresh child processes, untraced and traced,
//!   and writes `benchmark/out/result.json`.
//! * `bench compare A.json B.json` compares two suite results.

mod common;
mod compare;
mod layers;
mod loadgen;
mod metrics;
mod offline;
mod oracle;
mod serve;
mod span;
mod stats;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use common::{Checks, Measured, RunArgs};
use metrics::spec;
use span::Tracer;
use stats::Summary;

/// The end-to-end tail of every class of answers is its upper quartile
/// (nearest rank): the highest percentile whose spread over ten seeds
/// stays a third inside any bound the contract allows (README.md,
/// "Steadiness").  Higher percentiles are printed, not bounded.
const UPPER_QUARTILE: f64 = 75.0;

/// How long every run loads all processors before it sets anything up
/// (see `common::warm_machine`).
const WARM_UP: std::time::Duration = std::time::Duration::from_secs(3);

/// Flags of the single-workload and suite modes.
#[derive(Debug, Clone)]
pub struct Flags {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: Option<bool>,
    pub quick: bool,
    pub out: PathBuf,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 42,
        seconds: spec().run_seconds,
        trace: None,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !spec().workloads.iter().any(|known| known == w) {
                    return Err(format!(
                        "unknown workload {w}; one of {:?}",
                        spec().workloads
                    ));
                }
                flags.workload = Some(w.to_owned());
            }
            "--seed" => {
                let v = value()?;
                flags.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not a whole number: {v}"))?;
            }
            "--seconds" => {
                let s = number(value()?)?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                flags.seconds = s;
            }
            "--trace" => {
                flags.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                });
            }
            "--out" => flags.out = PathBuf::from(value()?),
            "--quick" => flags.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(flags)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        // Internal: set-up of the R-MAT workloads, run as a child.
        Some("prepare-rmat") => {
            let [_, scale, seed, path] = args.as_slice() else {
                eprintln!("usage: bench prepare-rmat SCALE SEED PATH");
                return ExitCode::from(2);
            };
            let (Ok(scale), Ok(seed)) = (scale.parse(), seed.parse()) else {
                eprintln!("prepare-rmat: SCALE and SEED must be whole numbers");
                return ExitCode::from(2);
            };
            offline::prepare_rmat(scale, seed, std::path::Path::new(path));
            ExitCode::SUCCESS
        }
        // Internal: BC and BFS on one thread, for the speed-up columns.
        Some("one-thread") => offline::one_thread_child(&args[1..]),
        // Internal: one timed set-up of a workload, run as a child.
        Some("setup-probe") => {
            let [_, workload, seed, quick] = args.as_slice() else {
                eprintln!("usage: bench setup-probe WORKLOAD SEED 0|1");
                return ExitCode::from(2);
            };
            let Ok(seed) = seed.parse() else {
                eprintln!("setup-probe: SEED must be a whole number");
                return ExitCode::from(2);
            };
            let args = RunArgs {
                workload: workload.clone(),
                seed,
                seconds: 0.0,
                trace: false,
                quick: quick == "1",
                out_dir: PathBuf::new(),
            };
            let seconds = match workload.as_str() {
                "tweets_pipeline" => offline::tweets_setup(&args).1,
                "serve_query" | "serve_ingest" => serve::setup_probe(&args),
                other => {
                    eprintln!("setup-probe: no in-process set-up for {other}");
                    return ExitCode::from(2);
                }
            };
            println!("{seconds}");
            ExitCode::SUCCESS
        }
        Some("compare") => compare::main(&args[1..]),
        _ => match parse_flags(&args) {
            Err(message) => {
                eprintln!("bench: {message}");
                ExitCode::from(2)
            }
            Ok(flags) if flags.trace.is_some() && flags.workload.is_some() => single(&flags),
            Ok(flags) if flags.trace.is_some() => {
                eprintln!("bench: --trace needs --workload");
                ExitCode::from(2)
            }
            Ok(flags) => suite::main(&flags),
        },
    }
}

/// Run one workload in this process and print its metrics.
fn single(flags: &Flags) -> ExitCode {
    let workload = flags.workload.clone().expect("checked by the caller");
    let trace = flags.trace.expect("checked by the caller");
    let args = RunArgs {
        workload: workload.clone(),
        seed: flags.seed,
        seconds: flags.seconds,
        trace,
        quick: flags.quick,
        out_dir: flags.out.clone(),
    };
    std::fs::create_dir_all(&args.out_dir).expect("create output directory");
    let started = Instant::now();
    // `--quick` is for tests: whether the numbers repeat is not its
    // concern, its running time is.
    if !args.quick {
        common::warm_machine(WARM_UP);
    }
    let tracer = Tracer::new(trace);
    let mut checks = Checks::default();
    let mut measured: Measured = match workload.as_str() {
        "rmat_kernels" => offline::rmat_kernels(&args, &tracer, &mut checks),
        "rmat_backends" => offline::rmat_backends(&args, &tracer, &mut checks),
        "tweets_pipeline" => offline::tweets_pipeline(&args, &tracer, &mut checks),
        "serve_query" => serve::serve_query(&args, &tracer, &mut checks),
        "serve_ingest" => serve::serve_ingest(&args, &tracer, &mut checks),
        other => unreachable!("parse_flags admitted workload {other}"),
    };
    if trace {
        let path = args.out_dir.join(format!("trace-{workload}.jsonl"));
        tracer.dump(&path, &workload).expect("write the span dump");
        measured
            .notes
            .push(("trace_file".into(), path.display().to_string()));
    }
    report(&args, &measured, &checks, started.elapsed().as_secs_f64());
    if checks.wrong == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print the run's facts, every metric by name with its unit, and — last
/// — the one-line JSON result.
fn report(args: &RunArgs, measured: &Measured, checks: &Checks, wall_s: f64) {
    let setup = Summary::of(&measured.setup_s);
    let light = Summary::with_tail(&measured.light_ms, Some(UPPER_QUARTILE));
    let heavy = Summary::with_tail(&measured.heavy_ms, Some(UPPER_QUARTILE));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload {} seed {} seconds {} trace {} wall {:.1}s nproc {nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8, wall_s
    );
    for (key, value) in &measured.notes {
        println!("# {key} {value}");
    }
    for (class, ms, s) in [
        ("light", &measured.light_ms, &light),
        ("heavy", &measured.heavy_ms, &heavy),
    ] {
        // Beside the upper quartile the metrics use, the highest
        // percentile that leaves ten samples beyond it (the maximum when
        // none does).
        let highest = Summary::of(ms);
        println!(
            "# {class} answers n={} q1={:.4} median={:.4} q3={:.4} p75={:.4} p{}={:.4} ms",
            s.n, s.q1, s.median, s.q3, s.tail, highest.tail_pct, highest.tail
        );
    }
    println!("# setups n={}", setup.n);
    println!(
        "# ops_failed_frac {} ({} failed, {} of them wrong, of {} attempted)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.wrong,
        checks.attempted
    );
    for message in &checks.messages {
        println!("# FAILED {message}");
    }

    // The result line carries every metric of the run's kind, as the
    // contract asks; a layer this workload did not run reads 0 there and
    // is left out of the by-name listing above it.
    let mut values: Vec<(&str, &str, Option<f64>)> = Vec::new();
    if args.trace {
        for name in measured.layers.keys() {
            assert!(
                spec().per_layer.iter().any(|m| m.name == *name),
                "{name} is not in BENCHMARK.json"
            );
        }
        for m in &spec().per_layer {
            let value = match m.name.as_str() {
                "bench.traced_light_p50_ms" => Some(light.median),
                "bench.traced_heavy_p50_ms" => Some(heavy.median),
                name => measured.layers.get(name).copied(),
            };
            // A rate over a time too short to read is not a measurement.
            values.push((&m.name, &m.unit, value.filter(|v| v.is_finite())));
        }
    } else {
        for m in &spec().end_to_end {
            let value = match m.name.as_str() {
                "setup_s" => setup.median,
                "light_p50_ms" => light.median,
                "light_p75_ms" => light.tail,
                "heavy_p50_ms" => heavy.median,
                "heavy_p75_ms" => heavy.tail,
                "throughput_per_s" => measured.throughput_per_s,
                "peak_rss_mib" => common::peak_rss_mib(),
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            values.push((&m.name, &m.unit, Some(value)));
        }
    }
    for (name, unit, value) in &values {
        if let Some(value) = value {
            println!("{name} {value} {unit}");
        }
    }
    let fields: Vec<String> = values
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                value.unwrap_or(0.0)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.wrong == 0,
        checks.attempted.max(1),
        checks.failed,
        fields.join(", ")
    );
}
