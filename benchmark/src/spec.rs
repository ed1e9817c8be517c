//! `BENCHMARK.json` and `golden.json`, compiled in: the metric names,
//! units, directions and bounds live only in the former, the default
//! seed's exact outcome only in the latter.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const GOLDEN_JSON: &str = include_str!("../golden.json");

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `true` when higher is better.
    pub higher: bool,
    /// Share of the base median the metric may worsen by; end-to-end only.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub run_seconds: u64,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<Metric>, String> {
    let bad = || format!("BENCHMARK.json: malformed {key}");
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(bad)?
        .iter()
        .map(|m| {
            Ok(Metric {
                name: m.get("name").and_then(Json::as_str).ok_or_else(bad)?.into(),
                unit: m.get("unit").and_then(Json::as_str).ok_or_else(bad)?.into(),
                higher: match m.get("better").and_then(Json::as_str) {
                    Some("higher") => true,
                    Some("lower") => false,
                    _ => return Err(bad()),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let doc = Json::parse(BENCHMARK_JSON)?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: no workloads")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(String::from))
            .collect();
        Ok(Spec {
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")? as u64,
        })
    }
}

/// The default seed's exact outcome of one workload.
pub struct Golden {
    pub digest: u64,
    pub facts: Vec<(String, u64)>,
}

impl Golden {
    pub fn fact(&self, name: &str) -> Option<u64> {
        self.facts.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Whether an outcome is the golden one: same digest, and every golden
    /// count present with the same value.
    pub fn matches(&self, digest: u64, facts: &[(&'static str, u64)]) -> bool {
        self.digest == digest
            && self
                .facts
                .iter()
                .all(|(k, v)| facts.iter().any(|(n, x)| n == k && x == v))
    }
}

/// `(golden seed, golden outcome of `workload`)`; `None` when the file has
/// no entry (a workload added before its golden was regenerated).
pub fn golden(workload: &str) -> Result<(u64, Option<Golden>), String> {
    let doc = Json::parse(GOLDEN_JSON)?;
    let seed = doc
        .get("seed")
        .and_then(Json::as_f64)
        .ok_or("golden.json: no seed")? as u64;
    let Some(entry) = doc.get("workloads").and_then(|w| w.get(workload)) else {
        return Ok((seed, None));
    };
    let bad = || format!("golden.json: malformed entry for {workload}");
    let digest = entry
        .get("digest")
        .and_then(Json::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(bad)?;
    let facts = entry
        .get("facts")
        .and_then(Json::as_obj)
        .ok_or_else(bad)?
        .iter()
        .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or_else(bad)? as u64)))
        .collect::<Result<_, String>>()?;
    Ok((seed, Some(Golden { digest, facts })))
}

/// Renders one workload's golden entry.
pub fn golden_entry(digest: u64, facts: &[(&'static str, u64)]) -> Json {
    Json::obj([
        ("digest", Json::str(format!("{digest:016x}"))),
        (
            "facts",
            Json::obj(facts.iter().map(|&(k, v)| (k, Json::Num(v as f64)))),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_what_the_contract_needs() {
        let spec = Spec::load().unwrap();
        assert_eq!(spec.workloads, crate::workloads::NAMES);
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(!setup.higher && setup.unit == "s");
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are used once");
        assert!((1..=60).contains(&spec.run_seconds));
    }

    #[test]
    fn golden_holds_every_workload_at_the_default_seed() {
        for w in crate::workloads::NAMES {
            let (seed, g) = golden(w).unwrap();
            assert_eq!(seed, crate::inputs::DEFAULT_SEED);
            let g = g.unwrap_or_else(|| panic!("no golden for {w}"));
            assert!(!g.facts.is_empty());
        }
    }
}
