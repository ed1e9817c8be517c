//! The repo benchmark: four workloads, end-to-end metrics and an
//! outside-in layer trace. See `README.md` beside this package.

mod compare;
mod hygiene;
mod inputs;
mod json;
mod layers;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  dvns-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload, in this process
  dvns-benchmark run   [--seed N] [--workload NAME] [--seconds S] [--out FILE] [--quick]
  dvns-benchmark trace [--seed N] [--workload NAME] [--seconds S] [--out FILE] [--quick]
  dvns-benchmark compare A.json B.json
  dvns-benchmark golden";

/// Arguments of one measurement (the driver's interface).
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scaled-down sizes: checks the code paths, never for the record.
    pub quick: bool,
    /// Also write the full record (samples, exact results) here.
    pub record: Option<PathBuf>,
    /// `run` / `trace`: where the merged result file goes.
    pub out: Option<PathBuf>,
}

impl Args {
    pub fn sizes(&self) -> inputs::Sizes {
        if self.quick {
            inputs::Sizes::quick()
        } else {
            inputs::Sizes::full()
        }
    }
}

fn parse(argv: &[String], spec: &spec::Spec) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: spec.run_seconds as f64,
        trace: false,
        quick: false,
        record: None,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => a.quick = true,
            "--record" => a.record = Some(PathBuf::from(value()?)),
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(a)
}

/// `Ok(code)`: 0 = measured and correct, 1 = ran but something failed.
fn real_main() -> Result<u8, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec = spec::Spec::load()?;
    let code = |ok: bool| u8::from(!ok);
    match argv.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            Ok(if argv.is_empty() { 2 } else { 0 })
        }
        Some("compare") => match &argv[1..] {
            [a, b] => compare::compare(&spec, a, b),
            _ => Err(format!("compare takes two result files\n{USAGE}")),
        },
        Some("golden") => {
            hygiene::refuse_forbidden_env()?;
            suite::golden().map(code)
        }
        Some(sub @ ("run" | "trace")) => {
            hygiene::refuse_forbidden_env()?;
            let mut args = parse(&argv[1..], &spec)?;
            args.trace = sub == "trace";
            suite::suite(&spec, &args).map(code)
        }
        Some(_) => {
            hygiene::refuse_forbidden_env()?;
            let args = parse(&argv, &spec)?;
            if args.workload.is_empty() {
                return Err(format!("--workload is required\n{USAGE}"));
            }
            let outcome = if args.trace {
                trace::trace(&args, &spec)?
            } else {
                run::end_to_end(&args, &spec)?
            };
            // Last line of standard output: what the driver reads.
            println!("{}", outcome.line.line());
            Ok(code(outcome.ok))
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("dvns-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod quick_pass {
    use std::collections::BTreeSet;

    use super::*;
    use crate::json::Json;

    fn value(line: &Json, metric: &str) -> f64 {
        line.get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{metric} missing from the result line"))
    }

    /// The whole benchmark at scaled-down sizes: every workload, both
    /// modes. Checks the driver's contract (keys, names, units) and the
    /// cross-workload separation the layer metrics exist to show.
    #[test]
    fn every_declared_metric_is_emitted_once_per_workload() {
        let spec = spec::Spec::load().unwrap();
        let mut layers_reported = BTreeSet::new();
        for name in workloads::NAMES {
            for trace in [false, true] {
                let args = Args {
                    workload: name.to_string(),
                    seed: 5,
                    seconds: 0.05,
                    trace,
                    quick: true,
                    record: None,
                    out: None,
                };
                let (out, declared) = if trace {
                    (trace::trace(&args, &spec).unwrap(), &spec.per_layer)
                } else {
                    (run::end_to_end(&args, &spec).unwrap(), &spec.end_to_end)
                };
                assert!(out.ok, "{name} trace={trace}");
                let keys: Vec<&str> = out
                    .line
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(out.line.get("correct"), Some(&Json::Bool(true)));
                assert!(out.line.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
                assert_eq!(out.line.get("failed").unwrap().as_f64(), Some(0.0));

                let metrics = out.line.get("metrics").unwrap().as_obj().unwrap();
                let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                let names: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(
                    emitted, names,
                    "{name}: declared metrics, each once, in order"
                );
                for (m, d) in metrics.iter().zip(declared) {
                    assert_eq!(
                        m.1.get("unit").and_then(Json::as_str),
                        Some(d.unit.as_str())
                    );
                }
                if trace {
                    layers_reported.extend(out.reported);
                } else {
                    for d in declared {
                        assert!(
                            out.reported.contains(&d.name),
                            "{name}: {} defaulted",
                            d.name
                        );
                        assert!(
                            value(&out.line, &d.name) > 0.0,
                            "{name}: {} is zero",
                            d.name
                        );
                    }
                }

                if trace {
                    let zero = |m: &str| assert_eq!(value(&out.line, m), 0.0, "{name}: {m}");
                    let positive = |m: &str| assert!(value(&out.line, m) > 0.0, "{name}: {m}");
                    match name {
                        "lu_predict" => {
                            zero("cluster-svc.events");
                            zero("desim.queue.ops");
                            positive("dps-sim.steps");
                            positive("netmodel.flows");
                            positive("desim.share.ops");
                            positive("testbed.pred_err_pct");
                        }
                        "server_scale" | "durable_recover" => {
                            zero("netmodel.flows");
                            zero("desim.share.ops");
                            zero("dps-sim.steps");
                            zero("cluster.whatif.fork_scored");
                            positive("cluster-svc.events");
                            positive("desim.queue.ops");
                        }
                        _ => {
                            positive("cluster.whatif.fork_scored");
                            positive("cluster.whatif.sim_share");
                            positive("dps-sim.fork_vs_fresh");
                        }
                    }
                    if name == "durable_recover" {
                        positive("cluster-svc.wal.scan_mb_per_s");
                        positive("desim.journal.encode_ns_per_entry");
                    } else {
                        zero("cluster-svc.wal.bytes_per_entry");
                        zero("desim.journal.bytes_per_entry");
                    }
                }
            }
        }
        for d in &spec.per_layer {
            assert!(
                layers_reported.contains(&d.name),
                "{} is declared but no workload reports it",
                d.name
            );
        }
    }
}
