//! The four workloads: what one repetition does, how it is timed (from
//! outside, around public calls only) and what makes it correct.

use std::hash::Hasher;
use std::hint::black_box;
use std::time::Instant;

use cluster_svc::{
    ClusterService, CrashPlan, CrashReport, DurabilitySpec, JobSpec, ServeOptions, ServiceOutcome,
    ServiceReport, WriteAheadLog,
};
use desim::FxHasher;
use lu_app::LuRun;
use workload::SimEnv;

use crate::inputs::{self, LuInputs, ServiceInputs, Sizes};
use crate::trace::{self, TraceCtx};

/// The workload names, in the order they run and print.
pub const NAMES: [&str; 4] = [
    "lu_predict",
    "server_scale",
    "server_whatif",
    "durable_recover",
];

/// What a repetition records besides its result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Journals and decision timing off: the end-to-end measurement.
    Timed,
    /// Journal on, nothing else (prices the journal tap by itself).
    Journal,
    /// Journal and per-decision timing on: the traced repetition.
    Traced,
}

/// One timed public call inside a repetition.
pub struct Phase {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Phase {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// What a repetition leaves behind for the layer trace.
pub enum Artifacts {
    Lu(Vec<LuRun>),
    Service(Box<ServiceOutcome>),
    Durable(Box<DurableArtifacts>),
}

pub struct DurableArtifacts {
    pub outcome: ServiceOutcome,
    pub crashed: Vec<u8>,
    pub recovered: ServiceOutcome,
    pub crash: CrashReport,
}

pub struct RepOut {
    /// The timed calls, in order.
    pub phases: Vec<Phase>,
    /// Host seconds the headline rate divides by.
    pub work_s: f64,
    /// Host seconds the second rate divides by.
    pub aux_s: f64,
    /// FxHash of the simulated outcome; every repetition must reproduce
    /// the first one's, and `golden.json` holds the default seed's.
    pub digest: u64,
    /// Exact counts of the outcome (rate numerators, golden counts).
    pub facts: Vec<(&'static str, u64)>,
    /// Exact virtual-time results.
    pub exact: Vec<(&'static str, f64)>,
    /// `Some` as returned; the holder may drop it early.
    pub art: Option<Artifacts>,
}

/// The value listed under `key`; zero when it is not listed.
pub fn lookup<K: AsRef<str>, V: Copy + Default>(list: &[(K, V)], key: &str) -> V {
    list.iter()
        .find(|(k, _)| k.as_ref() == key)
        .map_or(V::default(), |&(_, v)| v)
}

impl RepOut {
    pub fn fact(&self, name: &str) -> u64 {
        lookup(&self.facts, name)
    }
}

/// A rate metric: which exact count is divided by which phase's time, and
/// the name the quantity goes by in the repo's roadmap.
#[derive(Clone, Copy)]
pub struct Rate {
    pub fact: &'static str,
    pub alias: &'static str,
}

pub trait Workload {
    fn name(&self) -> &'static str;

    /// Operations one repetition attempts: predictions, or submitted jobs.
    fn ops(&self) -> u64;

    /// Numerators of `work_per_s` and `aux_per_s`.
    fn rates(&self) -> [Rate; 2];

    /// Whether the counts are the same at every seed, so the golden ones
    /// can serve as fixed numerators whatever the seed.
    fn facts_ignore_seed(&self) -> bool {
        false
    }

    /// One repetition. `Err` is a hard failure: all its operations failed.
    fn rep(&self, mode: Mode) -> Result<RepOut, String>;

    /// Untimed exact results that need no repetition (prediction error
    /// against the testbed); computed once per run.
    fn once(&self) -> Result<Vec<(&'static str, f64)>, String> {
        Ok(Vec::new())
    }

    /// The layer pass of a traced run (see `trace`).
    fn layers(&self, cx: &mut TraceCtx) -> Result<(), String>;
}

/// Builds a workload from its seed; this is what `setup_s` times.
pub fn build(name: &str, sz: &Sizes, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "lu_predict" => Box::new(LuPredict::new(sz, seed)),
        "server_scale" => Box::new(ServiceRun::scale(sz, seed)?),
        "server_whatif" => Box::new(ServiceRun::whatif(sz, seed)?),
        "durable_recover" => Box::new(DurableRecover::new(sz, seed)?),
        other => {
            return Err(format!(
                "unknown workload {other:?} (one of {})",
                NAMES.join(", ")
            ))
        }
    })
}

fn fx(parts: &[&[u8]]) -> u64 {
    let mut h = FxHasher::default();
    for p in parts {
        h.write(p);
        h.write_u8(0xff);
    }
    h.finish()
}

// ----- lu_predict -----------------------------------------------------------

pub struct LuPredict {
    pub inp: LuInputs,
    /// The same environment with `SimConfig::record_journal` on.
    journaled: SimEnv,
}

const LU_PHASES: [&str; 3] = ["predict:fine", "predict:pipelined", "predict:removal"];

impl LuPredict {
    pub fn new(sz: &Sizes, seed: u64) -> LuPredict {
        let mut journaled = inputs::env();
        journaled.simcfg.record_journal = true;
        LuPredict {
            inp: inputs::lu_inputs(sz, seed),
            journaled,
        }
    }
}

impl Workload for LuPredict {
    fn name(&self) -> &'static str {
        "lu_predict"
    }

    fn ops(&self) -> u64 {
        self.inp.cases.len() as u64
    }

    fn rates(&self) -> [Rate; 2] {
        [
            Rate {
                fact: "steps",
                alias: "lu_events_per_s",
            },
            Rate {
                fact: "steps_removal",
                alias: "removal_events_per_s",
            },
        ]
    }

    fn facts_ignore_seed(&self) -> bool {
        // The removal iteration moves work between nodes, not its amount.
        true
    }

    fn rep(&self, mode: Mode) -> Result<RepOut, String> {
        let env = if mode == Mode::Timed {
            &self.inp.env
        } else {
            &self.journaled
        };
        let mut phases = Vec::new();
        let mut runs = Vec::new();
        for (case, name) in self.inp.cases.iter().zip(LU_PHASES) {
            let start = Instant::now();
            let run = black_box(env.predict(black_box(case)));
            let end = Instant::now();
            let run = run.map_err(|e| format!("{name}: {e}"))?;
            if !run.report.terminated {
                return Err(format!("{name}: prediction did not terminate"));
            }
            phases.push(Phase { name, start, end });
            runs.push(run);
        }
        let outcome: String = runs
            .iter()
            .map(|r| format!("{:?} {:?};", r.report.completion, r.report.marks))
            .collect();
        let steps: u64 = runs.iter().map(|r| r.report.steps).sum();
        let removal = &runs[2].report;
        Ok(RepOut {
            work_s: phases.iter().map(Phase::secs).sum(),
            aux_s: phases[2].secs(),
            phases,
            digest: fx(&[outcome.as_bytes()]),
            facts: vec![
                ("steps", steps),
                ("steps_removal", removal.steps),
                (
                    "flows",
                    runs.iter().map(|r| r.report.net.flows_completed).sum(),
                ),
                (
                    "max_queue_len",
                    runs.iter()
                        .map(|r| r.report.max_queue_len as u64)
                        .max()
                        .unwrap_or(0),
                ),
            ],
            exact: vec![("dyn_eff_pct", removal.overall_efficiency() * 100.0)],
            art: Some(Artifacts::Lu(runs)),
        })
    }

    /// |predicted − mean measured| ÷ mean measured factorization time on
    /// the reference shape, plus what the testbed cost on the host.
    fn once(&self) -> Result<Vec<(&'static str, f64)>, String> {
        let env = &self.inp.env;
        let case = &self.inp.err_case;
        let predicted = env
            .predict(case)
            .map_err(|e| e.to_string())?
            .factorization_time
            .as_secs_f64();
        let start = Instant::now();
        let mut measured = 0.0;
        let mut steps = 0u64;
        for seed in 0..self.inp.err_seeds {
            let run = black_box(env.measure(black_box(case), seed)).map_err(|e| e.to_string())?;
            measured += run.factorization_time.as_secs_f64();
            steps += run.report.steps;
        }
        let host = start.elapsed().as_secs_f64();
        let mean = measured / self.inp.err_seeds as f64;
        Ok(vec![
            ("pred_err_pct", (predicted - mean).abs() / mean * 100.0),
            ("testbed_measure_s", host),
            ("testbed_steps", steps as f64),
        ])
    }

    fn layers(&self, cx: &mut TraceCtx) -> Result<(), String> {
        trace::lu_layers(self, cx)
    }
}

// ----- server_scale and server_whatif ---------------------------------------

/// `submitted = completed + failed + rejected + cancelled`, and the whole
/// stream was submitted.
fn check_conservation(r: &ServiceReport, jobs: u64) -> Result<(), String> {
    let settled = r.completed_jobs() + r.failed_jobs() + r.rejected_jobs() + r.cancelled_jobs();
    if r.submitted != jobs || settled != r.submitted {
        return Err(format!(
            "job conservation broken: stream {jobs}, submitted {}, settled {settled}",
            r.submitted
        ));
    }
    Ok(())
}

fn service_facts(r: &ServiceReport) -> Vec<(&'static str, u64)> {
    vec![
        ("jobs", r.submitted),
        ("events", r.events),
        ("completed", r.completed_jobs()),
        ("rejected", r.rejected_jobs()),
        ("restarts", r.total_restarts()),
        ("decisions", r.whatif.decisions),
        ("candidates", r.whatif.candidates),
        ("fork_scored", r.whatif.fork_scored),
    ]
}

fn service_exact(r: &ServiceReport) -> Vec<(&'static str, f64)> {
    vec![("alloc_eff_pct", r.allocation_efficiency() * 100.0)]
}

/// One `ClusterService::serve` of a prepared stream.
pub struct ServiceRun<S> {
    name: &'static str,
    aux: Rate,
    /// The workload's layer pass (the two streams trace differently).
    layers: fn(&ServiceRun<S>, &mut TraceCtx) -> Result<(), String>,
    pub svc: ClusterService,
    pub inp: ServiceInputs<S>,
}

impl ServiceRun<cluster_svc::SyntheticLoad> {
    pub fn scale(sz: &Sizes, seed: u64) -> Result<Self, String> {
        let inp = inputs::scale_inputs(sz, seed);
        Ok(ServiceRun {
            name: "server_scale",
            aux: Rate {
                fact: "events",
                alias: "svc_events_per_s",
            },
            layers: trace::scale_layers,
            svc: ClusterService::new(inp.cfg.clone()).map_err(|e| e.to_string())?,
            inp,
        })
    }
}

impl ServiceRun<Vec<JobSpec>> {
    pub fn whatif(sz: &Sizes, seed: u64) -> Result<Self, String> {
        let inp = inputs::whatif_inputs(sz, seed);
        Ok(ServiceRun {
            name: "server_whatif",
            aux: Rate {
                fact: "decisions",
                alias: "decisions_per_s",
            },
            layers: trace::whatif_layers,
            svc: ClusterService::new(inp.cfg.clone()).map_err(|e| e.to_string())?,
            inp,
        })
    }
}

impl<S: Clone + IntoIterator<Item = JobSpec>> Workload for ServiceRun<S> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn ops(&self) -> u64 {
        self.inp.jobs
    }

    fn rates(&self) -> [Rate; 2] {
        [
            Rate {
                fact: "jobs",
                alias: "jobs_per_s",
            },
            self.aux,
        ]
    }

    fn rep(&self, mode: Mode) -> Result<RepOut, String> {
        let opts = ServeOptions {
            journal: mode != Mode::Timed,
            measure_decisions: mode == Mode::Traced,
            ..ServeOptions::default()
        };
        let stream = self.inp.stream.clone();
        let start = Instant::now();
        let out = black_box(
            self.svc
                .serve(black_box(stream), &self.inp.plan, black_box(&opts)),
        );
        let end = Instant::now();
        let out = out.map_err(|e| format!("serve: {e}"))?;
        check_conservation(&out.report, self.inp.jobs)?;
        let phase = Phase {
            name: "serve",
            start,
            end,
        };
        Ok(RepOut {
            work_s: phase.secs(),
            aux_s: phase.secs(),
            phases: vec![phase],
            digest: fx(&[out.report.canonical_string().as_bytes()]),
            facts: service_facts(&out.report),
            exact: service_exact(&out.report),
            art: Some(Artifacts::Service(Box::new(out))),
        })
    }

    fn layers(&self, cx: &mut TraceCtx) -> Result<(), String> {
        (self.layers)(self, cx)
    }
}

// ----- durable_recover ------------------------------------------------------

/// Write side: one `serve_durable`. Read side: the WAL loses its last
/// frame to a torn write and `recover` re-executes against the rest.
pub struct DurableRecover {
    pub svc: ClusterService,
    pub inp: ServiceInputs<cluster_svc::SyntheticLoad>,
    pub spec: DurabilitySpec,
}

impl DurableRecover {
    pub fn new(sz: &Sizes, seed: u64) -> Result<Self, String> {
        let inp = inputs::durable_inputs(sz, seed);
        Ok(DurableRecover {
            svc: ClusterService::new(inp.cfg.clone()).map_err(|e| e.to_string())?,
            inp,
            spec: DurabilitySpec::group_commit(sz.group_events),
        })
    }
}

/// The crash that keeps every sealed frame but the last and tears the
/// last one. `CrashPlan` picks its boundary from a seed, so search for
/// the seed that lands there.
fn tear_last_frame(wal: &WriteAheadLog) -> Result<Vec<u8>, String> {
    let want = wal.frames().saturating_sub(1);
    if want < 1 {
        return Err("WAL has no entry frame to tear".into());
    }
    (0..1u64 << 20)
        .map(CrashPlan::new)
        .find(|p| p.keep_frames(wal) == want)
        .map(|p| p.crashed_bytes(wal))
        .ok_or_else(|| "no crash seed keeps all frames but the last".into())
}

impl Workload for DurableRecover {
    fn name(&self) -> &'static str {
        "durable_recover"
    }

    fn ops(&self) -> u64 {
        self.inp.jobs
    }

    fn rates(&self) -> [Rate; 2] {
        [
            Rate {
                fact: "jobs",
                alias: "jobs_per_s",
            },
            Rate {
                fact: "recovered_entries",
                alias: "recovery_entries_per_s",
            },
        ]
    }

    fn rep(&self, mode: Mode) -> Result<RepOut, String> {
        let opts = ServeOptions {
            measure_decisions: mode == Mode::Traced,
            ..ServeOptions::default()
        };
        let plan = &self.inp.plan;

        let stream = self.inp.stream.clone();
        let start = Instant::now();
        let durable = black_box(self.svc.serve_durable(
            black_box(stream),
            plan,
            black_box(&opts),
            &self.spec,
        ));
        let end = Instant::now();
        let (outcome, wal) = durable.map_err(|e| format!("serve_durable: {e}"))?;
        check_conservation(&outcome.report, self.inp.jobs)?;
        let write = Phase {
            name: "serve_durable",
            start,
            end,
        };

        let crashed = tear_last_frame(&wal)?;
        let stream = self.inp.stream.clone();
        let start = Instant::now();
        let rec = black_box(self.svc.recover(
            black_box(stream),
            plan,
            black_box(&opts),
            black_box(&crashed),
        ));
        let end = Instant::now();
        let (recovered, crash) = rec.map_err(|e| format!("recover: {e}"))?;
        let read = Phase {
            name: "recover",
            start,
            end,
        };

        let report = outcome.report.canonical_string();
        if recovered.report.canonical_string() != report {
            return Err("recovered report differs from the uninterrupted run".into());
        }
        let journal = outcome.journal.as_ref().map(desim::Journal::encode);
        if journal.is_none() || recovered.journal.as_ref().map(desim::Journal::encode) != journal {
            return Err("recovered journal differs from the uninterrupted run".into());
        }
        let kept = wal.entries_through(wal.frames() - 1);
        if crash.torn.is_none() || crash.recovered_entries != kept {
            return Err(format!(
                "crash did not tear exactly the last frame: recovered {} of {kept} entries, torn {}",
                crash.recovered_entries,
                crash.torn.is_some()
            ));
        }

        let mut facts = service_facts(&outcome.report);
        facts.extend([
            ("wal_entries", wal.entries()),
            ("wal_frames", wal.frames() as u64),
            ("wal_bytes", wal.bytes().len() as u64),
            ("recovered_entries", crash.recovered_entries),
        ]);
        Ok(RepOut {
            work_s: write.secs(),
            aux_s: read.secs(),
            phases: vec![write, read],
            digest: fx(&[report.as_bytes(), &journal.unwrap_or_default()]),
            facts,
            exact: service_exact(&outcome.report),
            art: Some(Artifacts::Durable(Box::new(DurableArtifacts {
                outcome,
                crashed,
                recovered,
                crash,
            }))),
        })
    }

    fn layers(&self, cx: &mut TraceCtx) -> Result<(), String> {
        trace::durable_layers(self, cx)
    }
}
