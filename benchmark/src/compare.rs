//! `bench compare A.json B.json`: one row per (end-to-end metric,
//! workload) of two suite results — medians, quartiles, the ratio with
//! its base, and a verdict against the metric's bound.

use std::fmt::Write as _;
use std::process::ExitCode;

use graphct::trace::json::{self, Json};

use crate::metrics::{spec, Better, Metric};
use crate::stats::Summary;

/// With fewer runs than this on a side its quartiles say nothing about
/// how far repeats of the same commit lie apart.
const MIN_RUNS: usize = 3;

/// How B stands to A on one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Within the bound, and both sides' spreads are too.
    Unchanged,
    /// Not worse, but a side's quartiles lie further apart than the
    /// bound (or it has too few runs to have quartiles, or A's median is
    /// 0 and there is no ratio), so "unchanged" cannot be told from a
    /// regression that size.
    Unresolved,
    /// B's median is better than A's by more than the bound (a gain
    /// still has to be shown by paired runs; this only flags the row).
    Better,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Better => "better",
        }
    }
}

pub fn verdict(metric: &Metric, a: &Summary, b: &Summary) -> Verdict {
    let bound = metric.bound.expect("an end-to-end metric");
    if a.median == 0.0 {
        return Verdict::Unresolved;
    }
    // Change in the direction that hurts, as a share of A's median.
    let worsening = match metric.better {
        Better::Lower => b.median / a.median - 1.0,
        Better::Higher => 1.0 - b.median / a.median,
    };
    if worsening > bound {
        Verdict::Worse
    } else if a.n.min(b.n) < MIN_RUNS || a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The values of one metric on one workload, if the file has them.
fn values(result: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let list = result
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?;
    let values: Vec<f64> = list.iter().filter_map(Json::as_f64).collect();
    (!values.is_empty()).then_some(values)
}

/// The comparison table of two results, and how many of its rows are
/// worse than their bound or present in one result only.
fn table(a: &Json, b: &Json) -> (String, usize, usize) {
    let mut out = format!(
        "{:<16} {:<17} {:>5} {:>34} {:>34} {:>21}  verdict\n",
        "workload", "metric", "bound", "A median [q1, q3] n", "B median [q1, q3] n", "B/A (base A)"
    );
    let show = |s: &Summary| format!("{:.5} [{:.5}, {:.5}] {}", s.median, s.q1, s.q3, s.n);
    let (mut worse, mut missing) = (0, 0);
    for workload in &spec().workloads {
        for metric in &spec().end_to_end {
            let bound = metric.bound.expect("an end-to-end metric") * 100.0;
            let (va, vb) = match (
                values(a, workload, &metric.name),
                values(b, workload, &metric.name),
            ) {
                (Some(va), Some(vb)) => (va, vb),
                // Neither result ran this workload.
                (None, None) => continue,
                (va, _) => {
                    missing += 1;
                    let side = |present: bool| if present { "present" } else { "-" };
                    let _ = writeln!(
                        out,
                        "{:<16} {:<17} {:>4.0}% {:>34} {:>34} {:>21}  missing",
                        workload,
                        metric.name,
                        bound,
                        side(va.is_some()),
                        side(va.is_none()),
                        "-"
                    );
                    continue;
                }
            };
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let v = verdict(metric, &sa, &sb);
            worse += (v == Verdict::Worse) as usize;
            let ratio = if sa.median == 0.0 {
                "n/a".to_owned()
            } else {
                format!("{:.4}", sb.median / sa.median)
            };
            let _ = writeln!(
                out,
                "{:<16} {:<17} {:>4.0}% {:>34} {:>34} {:>9} of {:<8.5}  {}",
                workload,
                metric.name,
                bound,
                show(&sa),
                show(&sb),
                ratio,
                sa.median,
                v.as_str()
            );
        }
    }
    (out, worse, missing)
}

pub fn main(args: &[String]) -> ExitCode {
    let [a_path, b_path] = args else {
        eprintln!("usage: bench compare A.json B.json");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench compare: {e}");
            return ExitCode::from(2);
        }
    };
    let commit = |r: &Json| {
        r.get("commit")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned()
    };
    println!(
        "A = {a_path} (commit {})\nB = {b_path} (commit {})",
        commit(&a),
        commit(&b)
    );
    let (rows, worse, missing) = table(&a, &b);
    print!("{rows}");
    if worse + missing > 0 {
        eprintln!(
            "bench compare: {worse} row(s) worse than their bound, {missing} in one file only"
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better) -> Metric {
        Metric {
            name: "m".into(),
            unit: "u".into(),
            better,
            bound: Some(0.10),
        }
    }

    fn steady(around: f64) -> Summary {
        Summary::of(&[around * 0.99, around, around * 1.01, around, around])
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        assert_eq!(
            verdict(&metric(Better::Lower), &steady(100.0), &steady(105.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&metric(Better::Lower), &steady(100.0), &steady(111.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&metric(Better::Lower), &steady(100.0), &steady(80.0)),
            Verdict::Better
        );
        assert_eq!(
            verdict(&metric(Better::Higher), &steady(100.0), &steady(111.0)),
            Verdict::Better
        );
        assert_eq!(
            verdict(&metric(Better::Higher), &steady(100.0), &steady(89.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&metric(Better::Higher), &steady(100.0), &steady(95.0)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = Summary::of(&[80.0, 90.0, 100.0, 110.0, 120.0]);
        assert!(noisy.spread() > 0.10);
        assert_eq!(
            verdict(&metric(Better::Lower), &noisy, &steady(100.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&metric(Better::Lower), &steady(100.0), &noisy),
            Verdict::Unresolved
        );
        // Two runs have no quartiles to speak of; no ratio without a base.
        assert_eq!(
            verdict(
                &metric(Better::Lower),
                &steady(100.0),
                &Summary::of(&[100.0, 100.5])
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(
                &metric(Better::Lower),
                &Summary::of(&[0.0, 0.0, 0.0]),
                &steady(1.0)
            ),
            Verdict::Unresolved
        );
        // A regression is a regression however noisy the sides are.
        assert_eq!(
            verdict(
                &metric(Better::Lower),
                &steady(100.0),
                &Summary::of(&[100.0, 120.0, 140.0])
            ),
            Verdict::Worse
        );
    }

    #[test]
    fn a_row_in_one_result_only_is_missing_not_skipped() {
        let both = json::parse(
            r#"{"workloads": {
                "serve_query": {"end_to_end": {"setup_s": {"values": [0.3, 0.31, 0.3]}}},
                "serve_ingest": {"end_to_end": {"setup_s": {"values": [0.3, 0.31, 0.3]}}}}}"#,
        )
        .unwrap();
        let one = json::parse(
            r#"{"workloads": {
                "serve_query": {"end_to_end": {"setup_s": {"values": [0.3, 0.3, 0.31]}}}}}"#,
        )
        .unwrap();
        let (rows, worse, missing) = table(&both, &both);
        assert_eq!((worse, missing), (0, 0), "{rows}");
        assert_eq!(rows.matches("unchanged").count(), 2, "{rows}");
        let (rows, worse, missing) = table(&both, &one);
        assert_eq!((worse, missing), (0, 1), "{rows}");
        assert!(rows.contains("missing"), "{rows}");
        assert_eq!(table(&one, &both).2, 1);
    }

    #[test]
    fn reads_the_values_the_suite_writes() {
        let result = json::parse(
            r#"{"workloads": {"serve_query": {"end_to_end": {"setup_s": {"unit": "s", "values": [0.3, 0.31]}}}}}"#,
        )
        .unwrap();
        assert_eq!(
            values(&result, "serve_query", "setup_s"),
            Some(vec![0.3, 0.31])
        );
        assert_eq!(values(&result, "serve_query", "light_p50_ms"), None);
        assert_eq!(values(&result, "rmat_kernels", "setup_s"), None);
    }
}
