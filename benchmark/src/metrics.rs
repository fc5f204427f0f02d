//! The named workloads and metrics.  `BENCHMARK.json` is the only place
//! they are listed: it is compiled in and read here, so what the program
//! prints and what the driver expects cannot drift apart.

use std::sync::OnceLock;

use graphct::trace::json::{self, Json};

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline's median by
    /// which the metric may worsen before a change counts as a
    /// regression.  Per-layer metrics carry no bound.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `BENCHMARK.json`, parsed once.  Malformed is a build defect, so it
/// panics.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(BENCHMARK_JSON).expect("BENCHMARK.json"))
}

fn parse(text: &str) -> Result<Spec, String> {
    let root = json::parse(text)?;
    let list = |key: &str| {
        root.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("no {key} list"))
    };
    let name_of = |entry: &Json| {
        entry
            .get("name")
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| "an entry without a name".to_owned())
    };
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        list(key)?
            .iter()
            .map(|entry| {
                let name = name_of(entry)?;
                let better = match entry.get("better").and_then(Json::as_str) {
                    Some("lower") => Better::Lower,
                    Some("higher") => Better::Higher,
                    other => return Err(format!("{name}: better = {other:?}")),
                };
                Ok(Metric {
                    unit: entry
                        .get("unit")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("{name}: no unit"))?
                        .to_owned(),
                    better,
                    bound: entry.get("bound").and_then(Json::as_f64),
                    name,
                })
            })
            .collect()
    };
    let spec = Spec {
        run_seconds: root
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("no run_seconds")?,
        workloads: list("workloads")?
            .iter()
            .map(name_of)
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    };
    if let Some(m) = spec.end_to_end.iter().find(|m| m.bound.is_none()) {
        return Err(format!("end-to-end metric {} has no bound", m.name));
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_parses_and_its_names_are_unique() {
        let spec = spec();
        assert_eq!(spec.workloads.len(), 5);
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && m.better == Better::Lower));
        let mut names: Vec<&String> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| &m.name)
            .chain(&spec.workloads)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn a_spec_without_a_bound_or_direction_is_refused() {
        let without_bound = r#"{"run_seconds": 1, "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "m", "unit": "s", "better": "lower"}], "per_layer": []}"#;
        assert!(parse(without_bound).is_err());
        let sideways = r#"{"run_seconds": 1, "workloads": [],
            "end_to_end": [{"name": "m", "unit": "s", "better": "sideways", "bound": 0.1}],
            "per_layer": []}"#;
        assert!(parse(sideways).is_err());
    }
}
