//! One workload, measured in this process: set-up (inputs built and a
//! first repetition run) several times, then timed repetitions for the run
//! length.
//! The end-to-end metrics come from here; the layer trace builds on the
//! same measurement as its untraced base.

use std::time::{Duration, Instant};

use crate::inputs::Sizes;
use crate::json::Json;
use crate::spec::{self, Spec};
use crate::stats::{highest_valid_percentile, median, quartiles};
use crate::workloads::{build, Mode, RepOut, Workload};
use crate::{hygiene, Args};

/// Set-up is repeated at least this often, and until it has taken this
/// long in total (or the run length, if that is shorter), so that its
/// median is not one cold start's noise.
const SETUP_MIN_SAMPLES: usize = 3;
const SETUP_MIN_TIME: Duration = Duration::from_millis(1500);
const SETUP_MAX_SAMPLES: usize = 15;

/// Fewest timed repetitions, however short the run length.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 100_000;

/// `(name, value, per-sample values)` of one end-to-end metric.
pub type EndToEnd = (&'static str, f64, Vec<f64>);

pub struct Measured {
    pub w: Box<dyn Workload>,
    pub setup_s: Vec<f64>,
    /// The warm-up repetition: every later one must reproduce it.
    pub reference: RepOut,
    pub once: Vec<(&'static str, f64)>,
    /// Per timed repetition: host seconds behind `work_per_s`,
    /// `aux_per_s`, and of the whole repetition.
    pub work_s: Vec<f64>,
    pub aux_s: Vec<f64>,
    pub rep_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Fixed numerators of the two rates.
    pub numerators: [u64; 2],
    /// Whether the outcome equals `golden.json`; `None` when this seed and
    /// size have no golden.
    pub golden_match: Option<bool>,
}

/// Why a repetition does not reproduce the reference, if it does not.
fn differs(out: &RepOut, reference: &RepOut) -> Option<String> {
    if out.digest != reference.digest {
        return Some(format!(
            "outcome digest {:016x} differs from repetition 1's {:016x}",
            out.digest, reference.digest
        ));
    }
    (out.facts != reference.facts).then(|| "counts differ from repetition 1's".to_string())
}

pub fn measure(name: &str, sz: &Sizes, seed: u64, budget: Duration) -> Result<Measured, String> {
    // One set-up builds the inputs (configs, loads, fault plans, the
    // service) and runs the first, untimed repetition: the time to a first
    // result, which is where work moved out of the steady state shows.
    let mut setup_s = Vec::new();
    let mut errors = Vec::new();
    let mut warm: Option<(Box<dyn Workload>, RepOut)> = None;
    let started = Instant::now();
    let min_time = SETUP_MIN_TIME.min(budget);
    while setup_s.len() < SETUP_MIN_SAMPLES
        || (started.elapsed() < min_time && setup_s.len() < SETUP_MAX_SAMPLES)
    {
        let t = Instant::now();
        let w = std::hint::black_box(build(name, sz, std::hint::black_box(seed)))?;
        let mut out = w
            .rep(Mode::Timed)
            .map_err(|e| format!("{name}: warm-up repetition failed: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        // Only traced repetitions need what a repetition leaves behind;
        // keeping it here would double the next set-up's memory.
        out.art = None;
        if let Some(p) = warm.as_ref().and_then(|(_, first)| differs(&out, first)) {
            errors.push(format!("warm-up {}: {p}", setup_s.len()));
        }
        warm = Some((w, out));
    }
    let (w, reference) = warm.expect("at least one set-up ran");
    let once = w.once().map_err(|e| format!("{name}: {e}"))?;

    // Numerators are fixed counts, so a change that coalesces events still
    // reads as faster: golden where the golden applies, else the warm-up's.
    let (golden_seed, golden) = spec::golden(name)?;
    let full = *sz == Sizes::full();
    let golden_match = golden
        .as_ref()
        .filter(|_| full && seed == golden_seed)
        .map(|g| g.matches(reference.digest, &reference.facts));
    let numerators = w.rates().map(|r| {
        golden
            .as_ref()
            .filter(|_| full && (seed == golden_seed || w.facts_ignore_seed()))
            .and_then(|g| g.fact(r.fact))
            .unwrap_or_else(|| reference.fact(r.fact))
    });

    let mut m = Measured {
        attempted: w.ops() * setup_s.len() as u64,
        failed: w.ops() * errors.len() as u64,
        errors,
        w,
        setup_s,
        reference,
        once,
        work_s: Vec::new(),
        aux_s: Vec::new(),
        rep_s: Vec::new(),
        numerators,
        golden_match,
    };
    let loop_start = Instant::now();
    while m.rep_s.len() < MIN_REPS || (loop_start.elapsed() < budget && m.rep_s.len() < MAX_REPS) {
        m.attempted += m.w.ops();
        let problem = match m.w.rep(Mode::Timed) {
            Ok(out) => {
                m.work_s.push(out.work_s);
                m.aux_s.push(out.aux_s);
                m.rep_s.push(out.phases.iter().map(|p| p.secs()).sum());
                differs(&out, &m.reference)
            }
            Err(e) => Some(e),
        };
        if let Some(p) = problem {
            m.failed += m.w.ops();
            m.errors
                .push(format!("repetition {}: {p}", m.rep_s.len() + 1));
            if m.errors.len() >= MIN_REPS {
                break; // a broken program is not worth the full run length
            }
        }
    }
    if m.work_s.is_empty() {
        return Err(format!("{name}: no repetition completed: {:?}", m.errors));
    }
    Ok(m)
}

impl Measured {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The two rates, from the fixed numerators and the median phase time.
    pub fn rates(&self) -> [f64; 2] {
        [
            self.numerators[0] as f64 / median(&self.work_s),
            self.numerators[1] as f64 / median(&self.aux_s),
        ]
    }

    /// Each end-to-end metric: name, value, and the per-sample values the
    /// value summarises.
    pub fn end_to_end(&self) -> Result<Vec<EndToEnd>, String> {
        let rss = hygiene::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
        let [work, aux] = self.rates();
        let per = |n: u64, s: &[f64]| s.iter().map(|t| n as f64 / t).collect::<Vec<f64>>();
        Ok(vec![
            ("setup_s", median(&self.setup_s), self.setup_s.clone()),
            ("peak_rss_mb", rss, vec![rss]),
            ("work_per_s", work, per(self.numerators[0], &self.work_s)),
            ("aux_per_s", aux, per(self.numerators[1], &self.aux_s)),
        ])
    }

    /// Exact virtual-time results of the outcome, plus the run-once ones.
    pub fn exact(&self) -> Vec<(&'static str, f64)> {
        let mut e = self.reference.exact.clone();
        e.extend(self.once.iter().filter(|(n, _)| !n.starts_with("testbed_")));
        e.push(("fail_share", self.failed as f64 / self.attempted as f64));
        e
    }

    /// `(percentile, value)` of the repetition time's tail; the median at
    /// percentile 50 when too few repetitions ran for any tail percentile.
    pub fn run_hi(&self) -> (f64, f64) {
        highest_valid_percentile(&self.rep_s).unwrap_or((50.0, median(&self.rep_s)))
    }
}

pub fn declared_json(
    spec_metrics: &[spec::Metric],
    values: &[(String, f64)],
) -> Result<Json, String> {
    for (name, _) in values {
        if !spec_metrics.iter().any(|m| &m.name == name) {
            return Err(format!(
                "metric {name} is measured but not declared in BENCHMARK.json"
            ));
        }
    }
    Ok(Json::obj(spec_metrics.iter().map(|m| {
        // A declared layer metric the workload never reports is a layer it
        // bypasses: zero work there.
        let v = values
            .iter()
            .find(|(n, _)| n == &m.name)
            .map_or(0.0, |&(_, v)| v);
        (
            m.name.clone(),
            Json::obj([("value", Json::Num(v)), ("unit", Json::str(&m.unit))]),
        )
    })))
}

/// The result line the driver reads: exactly these four keys.
pub fn result_line(attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
}

fn print_metric(name: &str, value: f64, unit: &str, note: &str) {
    println!("  {name:<44} {value:>18.6} {unit:<6} {note}");
}

/// Prints every layer or end-to-end metric the spec declares, in order.
pub fn print_declared(spec_metrics: &[spec::Metric], values: &[(String, f64)]) {
    for m in spec_metrics {
        let v = values
            .iter()
            .find(|(n, _)| n == &m.name)
            .map_or(0.0, |&(_, v)| v);
        print_metric(&m.name, v, &m.unit, "");
    }
}

/// What one measurement produced.
pub struct Outcome {
    /// No operation failed.
    pub ok: bool,
    /// Names of the metrics the code reported (the rest of the declared
    /// ones defaulted to zero). Read by the quick-pass test only.
    #[cfg_attr(not(test), allow(dead_code))]
    pub reported: Vec<String>,
    /// The driver's result line.
    pub line: Json,
}

/// `--trace 0`: the end-to-end measurement of one workload.
pub fn end_to_end(args: &Args, spec: &Spec) -> Result<Outcome, String> {
    let m = measure(
        &args.workload,
        &args.sizes(),
        args.seed,
        Duration::from_secs_f64(args.seconds),
    )?;
    let e2e = m.end_to_end()?;
    let rates = m.w.rates();

    println!(
        "workload {}  seed {}  {} timed repetitions after {} set-ups with warm-up{}",
        m.w.name(),
        args.seed,
        m.rep_s.len(),
        m.setup_s.len(),
        if args.quick {
            "  [quick sizes: not for the record]"
        } else {
            ""
        }
    );
    for (name, value, samples) in &e2e {
        let unit = spec
            .end_to_end
            .iter()
            .find(|d| d.name == *name)
            .map_or("", |d| d.unit.as_str());
        let (q1, q3) = quartiles(samples);
        let note = match *name {
            "work_per_s" => format!(
                "= {}: {} ÷ median host s; per repetition q1 {q1:.1} q3 {q3:.1}",
                rates[0].alias, m.numerators[0]
            ),
            "aux_per_s" => format!(
                "= {}: {} ÷ median host s; per repetition q1 {q1:.1} q3 {q3:.1}",
                rates[1].alias, m.numerators[1]
            ),
            "setup_s" => format!("median of {}; q1 {q1:.3e} q3 {q3:.3e}", samples.len()),
            _ => String::new(),
        };
        print_metric(name, *value, unit, &note);
    }
    for (name, value) in m.exact() {
        let note = if name == "fail_share" {
            format!("{} of {} operations failed", m.failed, m.attempted)
        } else {
            "exact".to_string()
        };
        print_metric(
            name,
            value,
            if name == "fail_share" { "share" } else { "%" },
            &note,
        );
    }
    let (pct, hi) = m.run_hi();
    print_metric(
        "bench.run_hi_s",
        hi,
        "s",
        &format!(
            "p{pct:.1} of {} repetition times, median {:.6}",
            m.rep_s.len(),
            median(&m.rep_s)
        ),
    );
    match m.golden_match {
        Some(ok) => print_metric(
            "bench.sim_digest_match",
            f64::from(u8::from(ok)),
            "bool",
            "",
        ),
        None => {
            println!("  bench.sim_digest_match: no golden for this seed and size (run `trace`)")
        }
    }
    for e in &m.errors {
        println!("  FAILED {e}");
    }

    let values: Vec<(String, f64)> = e2e.iter().map(|(n, v, _)| (n.to_string(), *v)).collect();
    if let Some(path) = &args.record {
        let record = Json::obj([
            ("workload", Json::str(m.w.name())),
            ("seed", Json::Num(args.seed as f64)),
            ("quick", Json::Bool(args.quick)),
            ("seconds", Json::Num(args.seconds)),
            ("reps", Json::Num(m.rep_s.len() as f64)),
            ("correct", Json::Bool(m.correct())),
            ("attempted", Json::Num(m.attempted as f64)),
            ("failed", Json::Num(m.failed as f64)),
            ("digest", Json::str(format!("{:016x}", m.reference.digest))),
            (
                "sim_digest_match",
                m.golden_match.map_or(Json::Null, Json::Bool),
            ),
            (
                "metrics",
                Json::obj(e2e.iter().map(|(n, v, s)| {
                    (
                        *n,
                        Json::obj([("value", Json::Num(*v)), ("samples", Json::nums(s))]),
                    )
                })),
            ),
            (
                "exact",
                Json::obj(m.exact().into_iter().map(|(n, v)| (n, Json::Num(v)))),
            ),
            (
                "facts",
                Json::obj(
                    m.reference
                        .facts
                        .iter()
                        .map(|&(n, v)| (n, Json::Num(v as f64))),
                ),
            ),
            ("rep_s", Json::nums(&m.rep_s)),
        ]);
        std::fs::write(path, record.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let line = result_line(
        m.attempted,
        m.failed,
        declared_json(&spec.end_to_end, &values)?,
    );
    Ok(Outcome {
        ok: m.correct(),
        reported: values.into_iter().map(|(n, _)| n).collect(),
        line,
    })
}
