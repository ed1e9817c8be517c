//! `--trace 1`: the per-layer numbers of one workload.
//!
//! The run first measures the workload untraced (the base), then repeats
//! the repetition with journals and decision timing on, derives each
//! layer's operation stream from what that repetition recorded and replays
//! it against the layer alone (`layers`). Spans — the timed public calls,
//! and under each the replays that stand in for its children — are kept in
//! memory and written to `out/trace-<workload>.json` at exit.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cluster_svc::{decision, JobPayload, JobSpec, ServeOptions, ServiceOutcome, WriteAheadLog};
use desim::Journal;

use crate::inputs::{self, Sizes};
use crate::json::Json;
use crate::layers::{self, timed_median, Replay};
use crate::run::{self, Measured};
use crate::spec::{self, Spec};
use crate::stats::median;
use crate::workloads::{
    build, lookup, Artifacts, DurableRecover, LuPredict, Mode, RepOut, ServiceRun, Workload,
};
use crate::{hygiene, Args};

/// Share of the run length spent on the untraced base.
const BASE_SHARE: f64 = 0.4;
/// Traced repetitions (and journal-only ones); medians are reported.
const TRACED_REPS: usize = 3;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Traced repetition the span belongs to (1-based).
    pub rep: u32,
    /// A replay standing in for work inside its parent, not a timed call.
    pub replayed: bool,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Spans, layer metric values and notes of one traced run.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    pub values: Vec<(String, f64)>,
    pub notes: Vec<String>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            values: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A timed call.
    fn span(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        rep: u32,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            rep,
            replayed: false,
        });
        self.spans.len() - 1
    }

    /// A replayed child of `parent`, laid out after its earlier children.
    pub fn stand_in(&mut self, name: &str, secs: f64, parent: usize) -> usize {
        let start_ns = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + (secs * 1e9) as u64,
            parent: Some(parent),
            rep: self.spans[parent].rep,
            replayed: true,
        });
        self.spans.len() - 1
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    /// The latest span of that name.
    pub fn find(&self, name: &str) -> usize {
        self.spans
            .iter()
            .rposition(|s| s.name == name)
            .unwrap_or_else(|| panic!("no span named {name}"))
    }

    /// `(span, seconds in children, self seconds)` of every span that has
    /// children. Self time is negative when the replays exceed the parent:
    /// such a replay is not faithful.
    pub fn self_times(&self) -> Vec<(usize, f64, f64)> {
        (0..self.spans.len())
            .filter_map(|i| {
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|s| s.parent == Some(i))
                    .map(Span::secs)
                    .sum();
                (children > 0.0).then(|| (i, children, self.spans[i].secs() - children))
            })
            .collect()
    }

    fn spans_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(&s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("rep", Json::Num(f64::from(s.rep))),
                        ("replayed", Json::Bool(s.replayed)),
                    ])
                })
                .collect(),
        )
    }
}

/// What a workload's layer pass can see.
pub struct TraceCtx<'a> {
    pub t: &'a mut Tracer,
    /// The untraced base measurement.
    pub base: &'a Measured,
    /// The last traced repetition.
    pub traced: &'a RepOut,
    /// Host time the traced repetitions took over untraced ones run in
    /// alternation with them, percent.
    pub overhead_pct: f64,
    pub sizes: Sizes,
    pub seed: u64,
}

fn pct_over(x: f64, base: f64) -> f64 {
    if base > 0.0 {
        (x - base) / base * 100.0
    } else {
        0.0
    }
}

// ----- lu_predict -----------------------------------------------------------

pub fn lu_layers(w: &LuPredict, cx: &mut TraceCtx) -> Result<(), String> {
    let Some(Artifacts::Lu(runs)) = &cx.traced.art else {
        return Err("lu_predict left no runs to trace".into());
    };
    let net_params = w.inp.env.net;
    let (mut share, mut net) = (Replay::default(), Replay::default());
    let (mut flows, mut wire_bytes) = (0u64, 0u64);
    for (run, phase) in runs.iter().zip(&cx.traced.phases) {
        let journal = run
            .report
            .journal
            .as_ref()
            .ok_or("traced prediction recorded no journal")?;
        let parent = cx.t.find(phase.name);

        let (ops, _) = layers::derive_share_ops(journal);
        let r = layers::replay_share(&ops);
        drop(ops);
        cx.t.stand_in("desim.share", r.secs, parent);
        share += r;

        let (ops, counts) = layers::derive_net_ops(journal, net_params);
        if !counts.exact {
            cx.t.notes.push(format!(
                "{}: the replayed network did not deliver at the journal's Arrive instants",
                phase.name
            ));
        }
        let r = layers::replay_net(&ops, net_params);
        cx.t.stand_in("netmodel", r.secs, parent);
        cx.t.notes.push(format!(
            "{}: {} steps, {} flows, {:.1} MB on the wire",
            phase.name,
            run.report.steps,
            counts.flows,
            counts.wire_bytes as f64 / 1e6
        ));
        net += r;
        flows += counts.flows;
        wire_bytes += counts.wire_bytes;
    }

    let base_s = median(&cx.base.work_s);
    let t = &mut *cx.t;
    t.set("desim.share.ops", share.ops as f64);
    t.set("desim.share.ns_per_op", share.ns_per_op());
    t.set("netmodel.flows", flows as f64);
    t.set("netmodel.wire_mb", wire_bytes as f64 / 1e6);
    t.set(
        "netmodel.ns_per_flow",
        if flows == 0 {
            0.0
        } else {
            net.secs * 1e9 / flows as f64
        },
    );
    t.set("dps-sim.steps", cx.traced.fact("steps") as f64);
    t.set(
        "dps-sim.max_queue_len",
        cx.traced.fact("max_queue_len") as f64,
    );
    t.set("dps-sim.predict_s", base_s);
    // Everything under `predict` that is neither resource model: the
    // engine proper with lu-app, perfmodel and dps inside it.
    t.set(
        "dps-sim.self_share",
        (base_s - share.secs - net.secs) / base_s,
    );
    t.set("dps-sim.journal_overhead_pct", cx.overhead_pct);
    t.set(
        "dps-sim.dyn_eff_pct",
        lookup(&cx.traced.exact, "dyn_eff_pct"),
    );
    t.set(
        "testbed.pred_err_pct",
        lookup(&cx.base.once, "pred_err_pct"),
    );
    let measure_s = lookup(&cx.base.once, "testbed_measure_s");
    t.set("testbed.measure_s", measure_s);
    if measure_s > 0.0 {
        t.set(
            "testbed.events_per_s",
            lookup(&cx.base.once, "testbed_steps") / measure_s,
        );
    }
    t.notes.push(format!(
        "where the repetition went (untraced median {base_s:.4} s): dps-sim self {:.1} %, \
         netmodel {:.1} %, desim.share {:.1} %; recording the journal adds {:.1} % on top",
        (base_s - share.secs - net.secs) / base_s * 100.0,
        net.secs / base_s * 100.0,
        share.secs / base_s * 100.0,
        cx.overhead_pct,
    ));
    Ok(())
}

// ----- the service workloads ------------------------------------------------

/// Layer numbers every service run has: the engine's own counters, the
/// decision journal by code, and the queue stream replayed.
fn service_common(
    t: &mut Tracer,
    out: &ServiceOutcome,
    serve_span: usize,
    serve_s: f64,
    total_nodes: u32,
) -> Result<(), String> {
    let r = &out.report;
    let journal = out
        .journal
        .as_ref()
        .ok_or("traced serve recorded no journal")?;
    t.set("cluster-svc.events", r.events as f64);
    t.set(
        "cluster-svc.ns_per_event",
        serve_s * 1e9 / r.events.max(1) as f64,
    );
    let counts = layers::decision_counts(journal);
    for (name, code) in [
        ("admit", decision::ADMIT),
        ("place", decision::PLACE),
        ("shrink", decision::SHRINK),
        ("requeue", decision::REQUEUE),
        ("complete", decision::COMPLETE),
    ] {
        t.set(
            &format!("cluster-svc.decisions.{name}"),
            counts[code as usize] as f64,
        );
    }
    t.set("cluster-svc.p99_wait_vs", r.p99_wait().as_secs_f64());
    t.set("cluster-svc.restarts", r.total_restarts() as f64);
    t.set("cluster-svc.rejected", r.rejected_jobs() as f64);
    t.set(
        "cluster-svc.alloc_eff_pct",
        r.allocation_efficiency() * 100.0,
    );

    let q = layers::replay_queue(&layers::derive_queue_ops(journal, total_nodes));
    t.stand_in("desim.queue", q.secs, serve_span);
    t.set("desim.queue.ops", q.ops as f64);
    t.set("desim.queue.ns_per_op", q.ns_per_op());
    Ok(())
}

/// The synthetic generator drained alone.
fn synth_ns_per_job(t: &mut Tracer, jobs: u64, seed: u64, serve_span: usize) {
    if jobs == 0 {
        return;
    }
    let (secs, drained) = timed_median(|| {
        workload::server_scale_load(black_box(jobs), black_box(seed))
            .map(|s| black_box(s).requested_nodes as u64)
            .sum::<u64>()
    });
    black_box(drained);
    t.stand_in("workload.synth", secs, serve_span);
    t.set("workload.synth.ns_per_job", secs * 1e9 / jobs as f64);
}

fn whatif_counters(t: &mut Tracer, out: &ServiceOutcome) {
    let r = &out.report;
    let wi = &r.whatif;
    t.set("cluster.whatif.candidates", wi.candidates as f64);
    t.set("cluster.whatif.fork_scored", wi.fork_scored as f64);
    t.set("cluster.whatif.memo_scored", wi.memo_scored as f64);
    t.set("cluster.whatif.profile_scored", wi.profile_scored as f64);
    t.set("cluster.whatif.analytic_scored", wi.analytic_scored as f64);
    let lookups = r.cache_hits + r.cache_misses;
    t.set(
        "cluster.cache.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            r.cache_hits as f64 / lookups as f64
        },
    );
    t.set("cluster.cache.evictions", r.cache_evictions as f64);
    t.set("cluster.breaker.trips", r.breaker.trips as f64);
    t.set("workload.whatif.sessions_opened", wi.sessions_opened as f64);
    if r.decision_hist.count() > 0 {
        t.set(
            "cluster.whatif.decision_p50_us",
            r.decision_hist.quantile(0.5).as_secs_f64() * 1e6,
        );
        t.set(
            "cluster.whatif.decision_p99_us",
            r.decision_hist.quantile(0.99).as_secs_f64() * 1e6,
        );
    }
}

/// What the decision-journal tap costs `serve`: journal-only repetitions
/// against untraced ones, alternated so both see the same host.
fn journal_tap_pct(w: &dyn Workload) -> Result<f64, String> {
    let (mut plain, mut tapped) = (Vec::new(), Vec::new());
    for _ in 0..TRACED_REPS {
        plain.push(w.rep(Mode::Timed)?.work_s);
        tapped.push(w.rep(Mode::Journal)?.work_s);
    }
    Ok(pct_over(median(&tapped), median(&plain)))
}

pub fn scale_layers(
    w: &ServiceRun<cluster_svc::SyntheticLoad>,
    cx: &mut TraceCtx,
) -> Result<(), String> {
    let Some(Artifacts::Service(out)) = &cx.traced.art else {
        return Err("server_scale left no outcome to trace".into());
    };
    let serve = cx.t.find("serve");
    let base_s = median(&cx.base.work_s);
    service_common(cx.t, out, serve, base_s, w.inp.cfg.total_nodes())?;
    whatif_counters(cx.t, out);
    synth_ns_per_job(cx.t, w.inp.jobs, cx.seed, serve);
    let tap = journal_tap_pct(w)?;
    cx.t.set("cluster-svc.journal_tap_pct", tap);
    Ok(())
}

pub fn whatif_layers(w: &ServiceRun<Vec<JobSpec>>, cx: &mut TraceCtx) -> Result<(), String> {
    let Some(Artifacts::Service(out)) = &cx.traced.art else {
        return Err("server_whatif left no outcome to trace".into());
    };
    let serve = cx.t.find("serve");
    let base_s = median(&cx.base.work_s);
    service_common(cx.t, out, serve, base_s, w.inp.cfg.total_nodes())?;
    whatif_counters(cx.t, out);
    synth_ns_per_job(cx.t, cx.sizes.whatif_synthetic, cx.seed, serve);
    let tap = journal_tap_pct(w)?;
    cx.t.set("cluster-svc.journal_tap_pct", tap);

    // The same run without its simulator-backed jobs: what is left is the
    // service engine, so the difference is simulator-backed scoring.
    let analytic: Vec<JobSpec> = w
        .inp
        .stream
        .iter()
        .filter(|s| matches!(s.payload, JobPayload::Analytic(_)))
        .cloned()
        .collect();
    let (analytic_s, served) = timed_median(|| {
        w.svc.serve(
            black_box(analytic.clone()),
            &w.inp.plan,
            &ServeOptions::default(),
        )
    });
    served.map_err(|e| format!("analytic-only serve: {e}"))?;
    cx.t.set(
        "cluster.whatif.sim_share",
        ((base_s - analytic_s) / base_s).max(0.0),
    );

    // One fresh prediction per distinct shape at its full allocation: the
    // floor of what the profile-cache misses cost.
    let env = inputs::env();
    let mut steps = 0u64;
    let started = Instant::now();
    for &(n, r) in &cx.sizes.whatif_shapes {
        let mut cfg = env.lu_sized(n, r, 8);
        cfg.workers = 8;
        steps += black_box(env.predict(black_box(&cfg)))
            .map_err(|e| e.to_string())?
            .report
            .steps;
    }
    let predict_s = started.elapsed().as_secs_f64();
    cx.t.stand_in("dps-sim.predict", predict_s, serve);
    cx.t.set("dps-sim.steps", steps as f64);
    cx.t.set("dps-sim.predict_s", predict_s);

    // Fork-scored candidates against fresh runs of the same futures, on
    // the largest shape.
    let (n, r) = cx.sizes.whatif_shapes[cx.sizes.whatif_shapes.len() - 1];
    let mut cfg = env.lu_sized(n, r, 8);
    cfg.workers = 8;
    let barriers: Vec<usize> = (1..cfg.k_blocks()).collect();
    let fvf = workload::fork_vs_fresh_bench(&cfg, env.net, &env.simcfg, &barriers)
        .map_err(|e| e.to_string())?;
    if fvf.candidates > 0 {
        cx.t.set(
            "dps-sim.fork_us",
            fvf.forked_secs * 1e6 / fvf.candidates as f64,
        );
        cx.t.set("dps-sim.fork_vs_fresh", fvf.speedup());
    }
    Ok(())
}

// ----- durable_recover ------------------------------------------------------

pub fn durable_layers(w: &DurableRecover, cx: &mut TraceCtx) -> Result<(), String> {
    let Some(Artifacts::Durable(art)) = &cx.traced.art else {
        return Err("durable_recover left nothing to trace".into());
    };
    let (write, read) = (cx.t.find("serve_durable"), cx.t.find("recover"));
    let (write_s, read_s) = (median(&cx.base.work_s), median(&cx.base.aux_s));
    let journal: &Journal = art
        .outcome
        .journal
        .as_ref()
        .ok_or("durable run recorded no journal")?;
    let entries = journal.len().max(1) as f64;

    // Write side: the WAL is built from the finished journal, so
    // `serve_durable` is a journaled `serve` plus `WriteAheadLog::build`,
    // and a build is entry encoding plus a checksum per frame.
    let (build_s, wal) = timed_median(|| WriteAheadLog::build(black_box(journal), &w.spec));
    let wal_build = cx.t.stand_in("cluster-svc.wal.build", build_s, write);
    cx.t.set(
        "cluster-svc.wal.build_ns_per_entry",
        build_s * 1e9 / entries,
    );
    cx.t.set(
        "cluster-svc.wal.bytes_per_entry",
        wal.bytes().len() as f64 / entries,
    );
    let serve_s = write_s - build_s;
    service_common(cx.t, &art.outcome, write, serve_s, w.inp.cfg.total_nodes())?;
    synth_ns_per_job(cx.t, w.inp.jobs, cx.seed, write);

    let (encode_s, bytes) = timed_median(|| black_box(journal).encode());
    cx.t.stand_in("desim.journal.encode", encode_s, wal_build);
    cx.t.set(
        "desim.journal.encode_ns_per_entry",
        encode_s * 1e9 / entries,
    );
    cx.t.set(
        "desim.journal.bytes_per_entry",
        bytes.len() as f64 / entries,
    );
    let (decode_s, decoded) = timed_median(|| Journal::decode(black_box(&bytes)));
    if decoded.map_err(|e| e.to_string())?.len() != journal.len() {
        return Err("journal does not survive encode/decode".into());
    }
    cx.t.set(
        "desim.journal.decode_ns_per_entry",
        decode_s * 1e9 / entries,
    );
    let (crc_s, crc) = timed_median(|| desim::crc32(black_box(wal.bytes())));
    black_box(crc);
    cx.t.set(
        "desim.journal.crc32_mb_per_s",
        wal.bytes().len() as f64 / 1e6 / crc_s,
    );

    // The tap: the same stream served with the journal off and on,
    // alternated so both see the same host.
    let serve = |journal: bool| {
        let opts = ServeOptions {
            journal,
            ..ServeOptions::default()
        };
        let stream = w.inp.stream.clone();
        let t = Instant::now();
        let out = black_box(w.svc.serve(black_box(stream), &w.inp.plan, &opts));
        let secs = t.elapsed().as_secs_f64();
        out.map(|_| secs).map_err(|e| format!("serve: {e}"))
    };
    let (mut plain, mut tapped) = (Vec::new(), Vec::new());
    for _ in 0..TRACED_REPS {
        plain.push(serve(false)?);
        tapped.push(serve(true)?);
    }
    cx.t.set(
        "cluster-svc.journal_tap_pct",
        pct_over(median(&tapped), median(&plain)),
    );

    // Read side: `recover` is a scan of the surviving bytes plus a
    // validated re-execution of the whole stream.
    let (scan_s, scanned) = timed_median(|| WriteAheadLog::scan(black_box(&art.crashed)));
    let scanned = scanned.map_err(|e| e.to_string())?;
    if scanned.journal.len() as u64 != art.crash.recovered_entries {
        return Err("scan and recover disagree on the surviving entries".into());
    }
    let scan = cx.t.stand_in("cluster-svc.wal.scan", scan_s, read);
    cx.t.stand_in("desim.journal.decode", decode_s, scan);
    cx.t.set(
        "cluster-svc.wal.scan_mb_per_s",
        art.crashed.len() as f64 / 1e6 / scan_s,
    );
    cx.t.set(
        "cluster-svc.recover.validate_ns_per_entry",
        (read_s - scan_s) * 1e9 / art.crash.recovered_entries.max(1) as f64,
    );
    if art.recovered.replay.is_none() {
        cx.t.notes
            .push("recover reported no replay statistics".into());
    }
    Ok(())
}

// ----- the traced run -------------------------------------------------------

/// `1` when the golden seed's outcome equals `golden.json`. A run at
/// another seed checks one extra repetition at the golden seed.
fn sim_digest_match(args: &Args, base: &Measured, sz: &Sizes) -> Result<Option<bool>, String> {
    if base.golden_match.is_some() || args.quick {
        return Ok(base.golden_match);
    }
    let (seed, Some(golden)) = spec::golden(&args.workload)? else {
        return Ok(None);
    };
    let out = build(&args.workload, sz, seed)?.rep(Mode::Timed)?;
    Ok(Some(golden.matches(out.digest, &out.facts)))
}

pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn trace(args: &Args, spec: &Spec) -> Result<run::Outcome, String> {
    let sz = args.sizes();
    let base = run::measure(
        &args.workload,
        &sz,
        args.seed,
        Duration::from_secs_f64(args.seconds * BASE_SHARE),
    )?;
    let mut t = Tracer::new();
    let mut failed = base.failed;
    let mut attempted = base.attempted;

    // Untraced and traced repetitions alternate, so the overhead compares
    // two medians taken on the same host at the same time.
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for rep in 1..=TRACED_REPS as u32 {
        attempted += 2 * base.w.ops();
        match base.w.rep(Mode::Timed) {
            Ok(out) if out.digest == base.reference.digest => {
                plain_s.push(out.phases.iter().map(|p| p.secs()).sum::<f64>());
            }
            other => {
                failed += base.w.ops();
                t.notes.push(format!(
                    "untraced repetition {rep} beside the traced ones failed: {}",
                    other.err().unwrap_or_else(|| "outcome changed".into())
                ));
            }
        }
        // The previous traced outcome holds a whole journal: free it
        // first, so two of them never share the host's memory.
        drop(last.take());
        let start = Instant::now();
        let out = base.w.rep(Mode::Traced);
        let end = Instant::now();
        let out = match out {
            Ok(out) if out.digest == base.reference.digest => out,
            other => {
                failed += base.w.ops();
                t.notes.push(format!(
                    "traced repetition {rep} failed: {}",
                    other
                        .err()
                        .unwrap_or_else(|| "tracing changed the outcome".into())
                ));
                continue;
            }
        };
        let parent = t.span("rep", start, end, None, rep);
        for p in &out.phases {
            t.span(p.name, p.start, p.end, Some(parent), rep);
        }
        traced_s.push(out.phases.iter().map(|p| p.secs()).sum::<f64>());
        last = Some(out);
    }
    let traced = last.ok_or_else(|| format!("no traced repetition succeeded: {:?}", t.notes))?;

    let overhead_pct = pct_over(median(&traced_s), median(&plain_s));
    base.w.layers(&mut TraceCtx {
        t: &mut t,
        base: &base,
        traced: &traced,
        overhead_pct,
        sizes: sz,
        seed: args.seed,
    })?;

    let (pct, hi) = base.run_hi();
    t.set("bench.run_hi_s", hi);
    t.set("bench.run_hi_pct", pct);
    t.set("bench.run_n", base.rep_s.len() as f64);
    t.set("bench.trace_overhead_pct", overhead_pct);
    let golden = sim_digest_match(args, &base, &sz)?;
    t.set(
        "bench.sim_digest_match",
        f64::from(u8::from(golden == Some(true))),
    );
    if golden.is_none() {
        t.notes.push(
            "bench.sim_digest_match: no golden for these sizes or this workload, reported as 0"
                .into(),
        );
    }

    println!(
        "trace {}  seed {}  base: {} untraced repetitions, median {:.6} s; {} traced{}",
        base.w.name(),
        args.seed,
        base.rep_s.len(),
        median(&base.rep_s),
        traced_s.len(),
        if args.quick {
            "  [quick sizes: not for the record]"
        } else {
            ""
        }
    );
    run::print_declared(&spec.per_layer, &t.values);
    println!("  self time = span − children (replayed children stand in for work inside a call):");
    let mut faithful = true;
    for (i, children, own) in t.self_times() {
        let s = &t.spans[i];
        if s.rep != TRACED_REPS as u32 {
            continue; // replays hang under the last traced repetition
        }
        println!(
            "    {:<28} {:>10.6} s  children {:>10.6} s  self {:>10.6} s ({:.1} %)",
            s.name,
            s.secs(),
            children,
            own,
            own / s.secs() * 100.0
        );
        if own < 0.0 {
            faithful = false;
            t.notes.push(format!(
                "replayed children of {} exceed it: not a faithful replay",
                s.name
            ));
        }
    }
    for n in &t.notes {
        println!("  note: {n}");
    }

    let metrics = run::declared_json(&spec.per_layer, &t.values)?;
    let dir = out_dir();
    let path = dir.join(format!("trace-{}.json", base.w.name()));
    let doc = Json::obj([
        ("workload", Json::str(base.w.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("quick", Json::Bool(args.quick)),
        ("host", hygiene::host()),
        ("children_within_parents", Json::Bool(faithful)),
        ("notes", Json::Arr(t.notes.iter().map(Json::str).collect())),
        ("metrics", metrics.clone()),
        ("spans", t.spans_json()),
    ]);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.pretty())) {
        Ok(()) => println!("  spans: {}", path.display()),
        // The numbers stand without it; only the span file is lost.
        Err(e) => eprintln!("dvns-benchmark: cannot write {}: {e}", path.display()),
    }
    if let Some(record) = &args.record {
        std::fs::write(record, doc.pretty()).map_err(|e| format!("{}: {e}", record.display()))?;
    }

    let line = run::result_line(attempted, failed, metrics);
    Ok(run::Outcome {
        ok: failed == 0,
        reported: t.values.into_iter().map(|(n, _)| n).collect(),
        line,
    })
}
