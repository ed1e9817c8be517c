//! `compare A.json B.json`: two `run` result files, metric by metric.
//!
//! A is the base, B the candidate. Every end-to-end metric of every
//! workload gets both medians with their quartiles, the ratio B ÷ A, and a
//! verdict against the metric's bound in `BENCHMARK.json`:
//!
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `unresolved` — either side's median is known no better than the
//!   bound, so the two cannot be told apart — unless every sample of B is
//!   better than every sample of A;
//! * `ok` — otherwise.
//!
//! How well a median is known: the quartile distance of its n samples ÷
//! √n, as a share of the median (the median of n independent samples
//! scatters about that much). Repetitions of one run on a drifting host
//! are not independent, so this is optimistic: a claimed gain still needs
//! the alternating pairs of the `choosing-metrics` guide, with `compare`
//! run on each pair.
//!
//! Exact results (virtual-time outcomes, `fail_share`) must be bit-equal:
//! `same` or `differs`.

use crate::json::Json;
use crate::spec::{Metric, Spec};
use crate::stats::{median, quartiles, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if m.higher {
        -change
    } else {
        change
    }
}

/// Spread of the median of `v` (see the module docs).
fn median_spread(v: &[f64]) -> f64 {
    spread(v) / (v.len().max(1) as f64).sqrt()
}

pub fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = m.bound.unwrap_or(0.0);
    if median_spread(a).max(median_spread(b)) > bound {
        let all_better = a
            .iter()
            .all(|&x| b.iter().all(|&y| worsening(m, x, y) < 0.0));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(m, median(a), median(b)) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn samples(record: &Json, metric: &str) -> Option<Vec<f64>> {
    record
        .get("metrics")?
        .get(metric)?
        .get("samples")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("kind").and_then(Json::as_str) != Some("run") {
        return Err(format!("{path}: not a `run` result file"));
    }
    Ok(doc)
}

/// Prints the comparison. `Ok(0)` all fine, `Ok(1)` something regressed or
/// an exact result differs, `Ok(2)` nothing regressed but something is
/// unresolved.
pub fn compare(spec: &Spec, a_path: &str, b_path: &str) -> Result<u8, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let describe = |d: &Json| {
        format!(
            "seed {} commit {}",
            d.get("seed").and_then(Json::as_f64).unwrap_or(-1.0),
            d.get("host")
                .and_then(|h| h.get("git_commit"))
                .and_then(Json::as_str)
                .unwrap_or("unknown")
        )
    };
    println!("base A: {a_path} ({})", describe(&a));
    println!("cand B: {b_path} ({})", describe(&b));
    if a.get("quick") != b.get("quick") || a.get("seed") != b.get("seed") {
        println!("note: A and B differ in seed or size; exact results are expected to differ");
    }
    let (mut regressed, mut unresolved) = (0, 0);
    let a_workloads = a.get("workloads").and_then(Json::as_obj).unwrap_or(&[]);
    for (name, ra) in a_workloads {
        let Some(rb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name}: missing from B");
            regressed += 1;
            continue;
        };
        println!("{name}");
        for m in &spec.end_to_end {
            let (Some(sa), Some(sb)) = (samples(ra, &m.name), samples(rb, &m.name)) else {
                println!("  {:<14} missing", m.name);
                regressed += 1;
                continue;
            };
            let v = verdict(m, &sa, &sb);
            match v {
                Verdict::Ok => {}
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
            }
            let (ma, mb) = (median(&sa), median(&sb));
            let ((a1, a3), (b1, b3)) = (quartiles(&sa), quartiles(&sb));
            println!(
                "  {:<14} A {ma:>14.6} [{a1:.6} .. {a3:.6}] n={}   B {mb:>14.6} [{b1:.6} .. {b3:.6}] n={}   \
                 B/A {:.4} (base A = {ma:.6} {})   bound {:.0} % {}   {}",
                m.name,
                sa.len(),
                sb.len(),
                if ma == 0.0 { 0.0 } else { mb / ma },
                m.unit,
                m.bound.unwrap_or(0.0) * 100.0,
                if m.higher { "higher is better" } else { "lower is better" },
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for (key, va) in ra.get("exact").and_then(Json::as_obj).unwrap_or(&[]) {
            let vb = rb.get("exact").and_then(|e| e.get(key));
            let same = vb.and_then(Json::as_f64).map(f64::to_bits) == va.as_f64().map(f64::to_bits);
            if !same {
                regressed += 1;
            }
            println!(
                "  {:<14} A {:>14} B {:>14}   exact   {}",
                key,
                va.line(),
                vb.map_or("missing".into(), Json::line),
                if same { "same" } else { "differs" }
            );
        }
    }
    println!("{regressed} regressed or differing, {unresolved} unresolved");
    Ok(match (regressed, unresolved) {
        (0, 0) => 0,
        (0, _) => 2,
        _ => 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> Metric {
        Metric {
            name: "m".into(),
            unit: "u".into(),
            higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = |c: f64| vec![c * 0.99, c, c * 1.01, c, c * 1.005];
        let rate = metric(true, 0.10);
        assert_eq!(verdict(&rate, &steady(100.0), &steady(95.0)), Verdict::Ok);
        assert_eq!(
            verdict(&rate, &steady(100.0), &steady(85.0)),
            Verdict::Regressed
        );
        assert_eq!(verdict(&rate, &steady(100.0), &steady(150.0)), Verdict::Ok);
        let time = metric(false, 0.10);
        assert_eq!(
            verdict(&time, &steady(1.0), &steady(1.2)),
            Verdict::Regressed
        );
        assert_eq!(verdict(&time, &steady(1.0), &steady(0.5)), Verdict::Ok);

        // A median known no better than the bound: unresolved, whatever
        // the medians...
        let noisy = vec![40.0, 100.0, 160.0, 70.0, 130.0];
        assert_eq!(verdict(&rate, &noisy, &steady(100.0)), Verdict::Unresolved);
        // ...unless every sample of B beats every sample of A.
        assert_eq!(verdict(&rate, &noisy, &steady(200.0)), Verdict::Ok);
        assert_eq!(verdict(&time, &noisy, &steady(200.0)), Verdict::Unresolved);
    }

    #[test]
    fn single_samples_compare_by_value() {
        let rss = metric(false, 0.10);
        assert_eq!(verdict(&rss, &[100.0], &[105.0]), Verdict::Ok);
        assert_eq!(verdict(&rss, &[100.0], &[120.0]), Verdict::Regressed);
    }
}
