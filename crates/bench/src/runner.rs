//! Scenario execution: every point of a [`ScenarioSpec`] through the
//! harness, rendered as an aligned table plus a CSV.
//!
//! Scenario runs are deterministic functions of `(scenario, seed, smoke
//! flag)` — two invocations with the same context emit byte-identical
//! tables (see `workload::scenarios`).
//!
//! Points run under per-point panic isolation
//! ([`crate::harness::run_parallel_isolated_with`]): a poisoned point becomes an
//! error row (`!error` in the CSV) while every other point's row stays
//! byte-identical to a clean run.

use std::borrow::Cow;

use workload::{ScenarioCtx, ScenarioSpec};

use crate::harness::{run_parallel_isolated_with, thread_count};

/// Outcome of [`run_scenario`]: the rendered table and its CSV.
pub struct ScenarioOutcome {
    /// Aligned human-readable table.
    pub text: String,
    /// Machine-readable CSV of the same rows.
    pub csv: String,
}

/// Runs every point of a scenario through the harness at the ambient
/// [`thread_count`] and renders the rows.
pub fn run_scenario(spec: &ScenarioSpec, ctx: &ScenarioCtx) -> ScenarioOutcome {
    run_scenario_with(spec, ctx, thread_count())
}

/// [`run_scenario`] at an explicit harness thread count — the determinism
/// tests compare 1 against 4 threads without touching the environment.
pub fn run_scenario_with(
    spec: &ScenarioSpec,
    ctx: &ScenarioCtx,
    threads: usize,
) -> ScenarioOutcome {
    let points = (spec.points)(ctx);
    let results = run_parallel_isolated_with(&points, threads, |_, p| (p.run)());
    let rows: Vec<ScenarioRow> = points.into_iter().map(|p| p.label).zip(results).collect();
    let (text, csv) = render(spec, &rows);
    ScenarioOutcome { text, csv }
}

/// One executed scenario row: the point's fields, or the message of the
/// panic that killed it.
pub type ScenarioRow = (String, Result<Vec<(&'static str, f64)>, String>);

/// One CSV field per RFC 4180: a field holding a comma, a double quote or
/// a line break is wrapped in double quotes, its quotes doubled; any other
/// field is written as it is.
pub fn csv_field(s: &str) -> Cow<'_, str> {
    if s.contains([',', '"', '\n', '\r']) {
        Cow::Owned(format!("\"{}\"", s.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(s)
    }
}

/// Renders rows of `(label, fields-or-error)` as an aligned table plus a
/// CSV; field names come from the first succeeding row (every point of a
/// scenario reports the same fields). A failed point renders as an `!error`
/// row carrying its panic message instead of silently vanishing.
pub fn render(spec: &ScenarioSpec, rows: &[ScenarioRow]) -> (String, String) {
    let headers: Vec<&str> = rows
        .iter()
        .find_map(|(_, r)| {
            r.as_ref()
                .ok()
                .map(|fields| fields.iter().map(|(k, _)| *k).collect())
        })
        .unwrap_or_default();
    let label_w = rows
        .iter()
        .map(|(l, _)| l.len())
        .chain(std::iter::once(spec.name.len()))
        .max()
        .unwrap_or(0);

    let mut text = format!("{} — {}\n", spec.name, spec.summary);
    let mut csv = String::from("label");
    text.push_str(&format!("{:label_w$}", ""));
    for h in &headers {
        text.push_str(&format!("  {h:>24}"));
        csv.push(',');
        csv.push_str(h);
    }
    text.push('\n');
    csv.push('\n');
    for (label, row) in rows {
        text.push_str(&format!("{label:label_w$}"));
        csv.push_str(&csv_field(label));
        match row {
            Ok(fields) => {
                for (key, value) in fields {
                    debug_assert!(headers.contains(key));
                    text.push_str(&format!("  {value:>24.4}"));
                    csv.push_str(&format!(",{value}"));
                }
            }
            Err(msg) => {
                text.push_str(&format!("  !error: {msg}"));
                csv.push_str(&format!(",!error,{}", csv_field(msg)));
            }
        }
        text.push('\n');
        csv.push('\n');
    }
    (text, csv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::ScenarioPoint;

    fn toy_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "toy",
            summary: "toy scenario for runner tests",
            points: |ctx| {
                let seed = ctx.seed;
                vec![ScenarioPoint::new("only", move || {
                    vec![("seed", seed as f64), ("answer", 42.0)]
                })]
            },
        }
    }

    #[test]
    fn render_emits_headers_and_rows() {
        let spec = toy_spec();
        let rows = vec![(
            "only".to_string(),
            Ok(vec![("seed", 1.0), ("answer", 42.0)]),
        )];
        let (text, csv) = render(&spec, &rows);
        assert!(text.contains("toy — toy scenario"));
        assert!(text.contains("answer"));
        assert!(csv.starts_with("label,seed,answer\n"));
        assert!(csv.contains("only,1,42"));
    }

    #[test]
    fn render_keeps_error_rows_and_headers_from_first_ok_row() {
        let spec = toy_spec();
        let rows = vec![
            ("dead".to_string(), Err("boom, with a comma".to_string())),
            ("live".to_string(), Ok(vec![("answer", 42.0)])),
        ];
        let (text, csv) = render(&spec, &rows);
        assert!(csv.starts_with("label,answer\n"), "csv: {csv}");
        assert!(csv.contains("dead,!error,\"boom, with a comma\"\n"));
        assert!(csv.contains("live,42\n"));
        assert!(text.contains("!error: boom, with a comma"));
    }

    /// Splits one CSV record per RFC 4180 (quoted fields, doubled quotes).
    fn parse_record(line: &str) -> Vec<String> {
        let (mut fields, mut cur, mut quoted) = (Vec::new(), String::new(), false);
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match (c, quoted) {
                ('"', true) if chars.peek() == Some(&'"') => {
                    chars.next();
                    cur.push('"');
                }
                ('"', _) => quoted = !quoted,
                (',', false) => fields.push(std::mem::take(&mut cur)),
                _ => cur.push(c),
            }
        }
        fields.push(cur);
        fields
    }

    #[test]
    fn comma_and_quote_labels_parse_back_as_one_field() {
        let spec = toy_spec();
        let labels = ["8 nodes, kill 4 after it. 1", "a \"quoted\" label", "plain"];
        let rows: Vec<ScenarioRow> = labels
            .iter()
            .map(|l| (l.to_string(), Ok(vec![("seed", 1.0), ("answer", 42.0)])))
            .collect();
        let (_, csv) = render(&spec, &rows);
        let mut lines = csv.lines();
        assert_eq!(
            parse_record(lines.next().unwrap()),
            ["label", "seed", "answer"]
        );
        for (line, label) in lines.zip(labels) {
            assert_eq!(parse_record(line), [label, "1", "42"], "line: {line}");
        }
    }
}
