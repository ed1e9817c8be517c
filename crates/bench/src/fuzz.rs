//! Determinism fuzzing harness: randomized schedules, one invariant.
//!
//! Under a root seed, each case draws a random small workload (LU or
//! stencil, random sizes and worker→node routing) on node ids that are
//! dense, gappy, or spread up to the engine's node-id limit, and an
//! optional seeded fault plan, then asserts the engine's core invariant
//! two ways:
//!
//! 1. **Rerun**: a second fresh run is equivalent to the baseline
//!    (`dps_sim::check_equivalent`: committed-event journal, metadata
//!    excluded, then canonical report);
//! 2. **Fork**: a run paused at a random instant and forked — fault plan
//!    and all — finishes equivalent to the baseline, and so does the
//!    paused original.
//!
//! Every run also checks two regression cases first: a workload with a
//! node at `u32::MAX` and one at 50 000 000 must come back from every
//! engine entry point as a typed protocol error, quickly.
//!
//! Failures come back as pinpointed one-line diagnostics
//! ([`dps_sim::Divergence`]), not CSV diffs. The `fuzz` binary drives this
//! under `--seed` / `--cases` / `--budget-secs`.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use cluster_svc::{DurabilitySpec, WriteAheadLog};
use desim::{Journal, JournalEvent, SimDuration, SimTime};
use dps::Application;
use dps_sim::{
    check_equivalent, SimCheckpoint, SimConfig, SimErrorKind, SimFabric, SimResult, TimingMode,
    NODE_ID_LIMIT,
};
use faults::{FaultGenConfig, FaultPlan};
use lu_app::{build_lu_app, DataMode, LuConfig};
use netmodel::{NetParams, NodeId};
use perfmodel::{LuCost, PlatformProfile};
use simrng::{Rng, Xoshiro256};
use stencil_app::{build_stencil_app, StencilConfig};

/// Fuzzer parameters (see the `fuzz` binary for the CLI).
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Root seed every case derives from.
    pub seed: u64,
    /// Cases to run (the binary may stop earlier on a time budget).
    pub cases: usize,
}

/// What one fuzz case exercised, for the run log.
#[derive(Debug)]
pub struct CaseReport {
    /// Case index under the root seed.
    pub index: usize,
    /// Human description of the drawn configuration.
    pub what: String,
    /// Journal length of the baseline run.
    pub journal_len: usize,
}

/// Outcome of a fuzz run: per-case logs and pinpointed failures.
#[derive(Debug, Default)]
pub struct FuzzOutcome {
    /// Out-of-range node ids every entry point turned down, as expected.
    pub rejected_nodes: Vec<u32>,
    /// Successfully checked cases.
    pub cases: Vec<CaseReport>,
    /// One message per failed case — each carries the case description and
    /// the first-diverging-event diagnostic.
    pub failures: Vec<String>,
}

/// One randomly drawn workload.
enum CaseApp {
    Lu(LuConfig),
    Stencil(StencilConfig),
}

impl CaseApp {
    /// The workload with node `i` of its config renamed `ids[i]`.
    fn build(&self, ids: &[u32]) -> Application {
        let app = match self {
            CaseApp::Lu(cfg) => build_lu_app(cfg.clone()).0,
            CaseApp::Stencil(cfg) => build_stencil_app(cfg.clone()).0,
        };
        app.with_nodes_renamed(|n| NodeId(ids[n.0 as usize]))
    }

    fn describe(&self) -> String {
        match self {
            CaseApp::Lu(c) => format!(
                "lu n={} r={} nodes={} workers={}",
                c.n, c.r, c.nodes, c.workers
            ),
            CaseApp::Stencil(c) => format!(
                "stencil n={} iters={} nodes={} workers={} sync={}",
                c.n, c.iters, c.nodes, c.workers, c.synchronized
            ),
        }
    }

    fn nodes(&self) -> u32 {
        match self {
            CaseApp::Lu(c) => c.nodes,
            CaseApp::Stencil(c) => c.nodes,
        }
    }
}

fn draw_app(rng: &mut Xoshiro256) -> CaseApp {
    if rng.gen_range_u64(0, 2) == 0 {
        let r = [48usize, 64, 96][rng.gen_range_u64(0, 3) as usize];
        let k = 3 + rng.gen_range_u64(0, 3) as usize;
        let nodes = 2 + rng.gen_range_u64(0, 3) as u32;
        let mut cfg = LuConfig::new(r * k, r, nodes);
        // Routing permutation: vary the worker→node mapping by drawing
        // more workers than nodes (threads wrap around the ring).
        cfg.workers = nodes * (1 + rng.gen_range_u64(0, 2) as u32);
        cfg.mode = DataMode::Ghost;
        cfg.cost = Some(LuCost::new(PlatformProfile::ultrasparc_ii_440()));
        cfg.validate().expect("drawn LU config is valid");
        CaseApp::Lu(cfg)
    } else {
        let n = [128usize, 192, 256][rng.gen_range_u64(0, 3) as usize];
        let iters = 3 + rng.gen_range_u64(0, 3) as usize;
        let nodes = [2u32, 4][rng.gen_range_u64(0, 2) as usize];
        let mut cfg = StencilConfig::new(n, iters, nodes);
        cfg.workers = nodes * (1 + rng.gen_range_u64(0, 2) as u32);
        cfg.synchronized = rng.gen_range_u64(0, 2) == 0;
        cfg.mode = DataMode::Ghost;
        cfg.validate().expect("drawn stencil config is valid");
        CaseApp::Stencil(cfg)
    }
}

/// Node ids for a case's `nodes` nodes, in increasing order: `0..nodes` in
/// a third of the cases, else distinct ids below 64 (gaps, every pair
/// still array-indexed) or below the engine's limit (most groups hashed).
fn draw_node_ids(rng: &mut Xoshiro256, nodes: u32) -> Vec<u32> {
    let span = match rng.gen_range_u64(0, 3) {
        0 => return (0..nodes).collect(),
        1 => 64,
        _ => NODE_ID_LIMIT,
    };
    let mut ids = BTreeSet::new();
    while ids.len() < nodes as usize {
        ids.insert(rng.gen_range_u64(0, span) as u32);
    }
    ids.into_iter().collect()
}

fn draw_plan(rng: &mut Xoshiro256, nodes: u32) -> Option<FaultPlan> {
    if rng.gen_range_u64(0, 2) == 0 {
        return None;
    }
    // The drawn runs take 15-400 ms of virtual time; windows drawn over
    // the same span overlap them.
    let mut gen = FaultGenConfig::quiet(nodes, SimDuration::from_millis(400));
    gen.slowdowns = rng.gen_range_u64(0, 4) as usize;
    gen.degrades = rng.gen_range_u64(0, 3) as usize;
    Some(gen.generate(rng.next_u64()))
}

/// `plan` with node `i` renamed `ids[i]`, as the case's application is.
fn rename_plan_nodes(plan: Option<FaultPlan>, ids: &[u32]) -> Option<FaultPlan> {
    plan.map(|mut plan| {
        plan.events
            .iter_mut()
            .for_each(|e| e.node = ids[e.node as usize]);
        plan
    })
}

fn fabric_for(plan: &Option<FaultPlan>, net: NetParams) -> SimFabric {
    match plan {
        Some(p) => SimFabric::with_plan(net, p).expect("generated plans validate"),
        None => SimFabric::new(net),
    }
}

fn base_cfg() -> SimConfig {
    SimConfig {
        timing: TimingMode::ChargedOnly,
        step_overhead: SimDuration::from_micros(50),
        record_journal: true,
        ..SimConfig::default()
    }
}

fn run_case_app(
    app: &Application,
    plan: &Option<FaultPlan>,
    net: NetParams,
    cfg: &SimConfig,
) -> SimResult<dps_sim::RunReport> {
    dps_sim::simulate_with_fabric(app, &mut fabric_for(plan, net), cfg)
}

/// Runs one fuzz case; `Err` carries the pinpointed diagnostic.
fn run_case(index: usize, root_seed: u64) -> Result<CaseReport, String> {
    let mut rng =
        Xoshiro256::seed_from_u64(root_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let net = NetParams::fast_ethernet();
    let case = draw_app(&mut rng);
    let ids = draw_node_ids(&mut rng, case.nodes());
    let plan = rename_plan_nodes(draw_plan(&mut rng, case.nodes()), &ids);
    let what = format!(
        "{} node_ids={ids:?} plan={} seed={root_seed} case={index}",
        case.describe(),
        plan.is_some()
    );
    let app = case.build(&ids);
    let fail = |stage: &str, detail: String| format!("[{what}] {stage}: {detail}");

    let baseline = run_case_app(&app, &plan, net, &base_cfg())
        .map_err(|e| fail("baseline run", e.to_string()))?;

    // 1. A second fresh run commits the same stream.
    let rerun = run_case_app(&app, &plan, net, &base_cfg())
        .map_err(|e| fail("second run", e.to_string()))?;
    check_equivalent(&rerun, &baseline).map_err(|d| fail("rerun≡baseline", d))?;

    // 2. Pause at a random instant, fork, and finish both copies.
    let t = SimTime(rng.gen_range_u64(0, baseline.completion.as_nanos() + 1));
    let mut paused = SimCheckpoint::new(
        Arc::new(case.build(&ids)),
        fabric_for(&plan, net),
        &base_cfg(),
    );
    paused
        .advance_until(t)
        .map_err(|e| fail("paused run", e.to_string()))?;
    let fork = paused.fork().map_err(|e| fail("fork", e.to_string()))?;
    for (name, ck) in [("fork", fork), ("original", paused)] {
        let report = ck
            .finish()
            .map_err(|e| fail(&format!("{name} run"), e.to_string()))?;
        check_equivalent(&report, &baseline).map_err(|d| fail(&format!("{name} at {t}"), d))?;
    }

    Ok(CaseReport {
        index,
        what,
        journal_len: baseline.journal.as_ref().map_or(0, Journal::len),
    })
}

/// Node ids past every engine table: each regression case must come back
/// as a typed protocol error from every entry point, before anything sized
/// by the id is allocated.
pub const OUT_OF_RANGE_NODES: [u32; 2] = [u32::MAX, 50_000_000];

/// Runs a small LU workload whose last node is renamed `node` through every
/// entry point the cases use; each must fail with a protocol error.
fn run_out_of_range_case(node: u32) -> Result<(), String> {
    let mut cfg = LuConfig::new(96, 48, 2);
    cfg.mode = DataMode::Ghost;
    cfg.cost = Some(LuCost::new(PlatformProfile::ultrasparc_ii_440()));
    let ids = [0, node];
    let app = CaseApp::Lu(cfg).build(&ids);
    let net = NetParams::fast_ethernet();
    let checks = [
        ("run", run_case_app(&app, &None, net, &base_cfg()).err()),
        (
            "checkpoint",
            SimCheckpoint::new(Arc::new(app), SimFabric::new(net), &base_cfg())
                .finish()
                .err(),
        ),
    ];
    for (stage, err) in checks {
        match err.map(|e| e.kind) {
            Some(SimErrorKind::Protocol { .. }) => {}
            other => {
                return Err(format!(
                    "[node id {node}] {stage}: want a protocol error, got {other:?}"
                ))
            }
        }
    }
    Ok(())
}

/// Runs the [`OUT_OF_RANGE_NODES`] regression cases, then up to
/// `cfg.cases` fuzz cases, invoking `progress` after each of those (the
/// binary uses it to log and to enforce a wall-clock budget — returning
/// `false` stops early).
pub fn fuzz_with(cfg: &FuzzConfig, mut progress: impl FnMut(&FuzzOutcome) -> bool) -> FuzzOutcome {
    let mut out = FuzzOutcome::default();
    for node in OUT_OF_RANGE_NODES {
        match run_out_of_range_case(node) {
            Ok(()) => out.rejected_nodes.push(node),
            Err(msg) => out.failures.push(msg),
        }
    }
    for index in 0..cfg.cases {
        match run_case(index, cfg.seed) {
            Ok(report) => out.cases.push(report),
            Err(msg) => out.failures.push(msg),
        }
        if !progress(&out) {
            break;
        }
    }
    out
}

/// [`fuzz_with`] without a progress hook.
pub fn fuzz(cfg: &FuzzConfig) -> FuzzOutcome {
    fuzz_with(cfg, |_| true)
}

// ----- journal-decoder robustness fuzzing -----------------------------------

/// What [`fuzz_journal_decode`] exercised.
#[derive(Clone, Copy, Debug, Default)]
pub struct JournalFuzzReport {
    /// Bytes of the encoded reference journal.
    pub bytes: usize,
    /// Strict prefixes checked (every truncation point).
    pub truncations: usize,
    /// Seeded single-bit corruptions checked.
    pub flips: usize,
    /// Truncated entry batches checked against `append_entry_batch`.
    pub batch_truncations: usize,
    /// Truncated prefixes of the journal's WAL checked against `scan`.
    pub wal_truncations: usize,
    /// Seeded single-bit corruptions of the WAL checked against `scan`.
    pub wal_flips: usize,
}

/// Draws a seeded reference journal covering every event kind, labels and
/// metadata included.
fn draw_journal(seed: u64, entries: usize) -> Journal {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut j = Journal::new();
    j.set_meta("app", "journal-fuzz");
    j.set_meta("seed", seed.to_string());
    let labels: Vec<u32> = ["alpha", "beta", "gamma"]
        .iter()
        .map(|l| j.intern_label(l))
        .collect();
    let mut vt = 0u64;
    for i in 0..entries {
        vt += rng.gen_range_u64(0, 1 << 20);
        let ev = match rng.gen_range_u64(0, 10) {
            0 => JournalEvent::RateWindow {
                node: rng.gen_range_u64(0, 8) as u32,
                up_bits: rng.next_u64(),
                down_bits: rng.next_u64(),
                from: vt,
                to: vt + rng.gen_range_u64(1, 1 << 30),
            },
            1 => JournalEvent::Invoke {
                ticket: i as u64,
                op: rng.gen_range_u64(0, 64) as u32,
                thread: rng.gen_range_u64(0, 64) as u32,
                obj_bytes: rng.next_u64() >> 40,
            },
            2 => JournalEvent::Step {
                job: i as u64,
                op: rng.gen_range_u64(0, 64) as u32,
                thread: rng.gen_range_u64(0, 64) as u32,
                node: rng.gen_range_u64(0, 8) as u32,
                start: vt.saturating_sub(1000),
                work: rng.gen_range_u64(0, 1 << 30),
            },
            3 => JournalEvent::Post {
                op: rng.gen_range_u64(0, 64) as u32,
                thread: rng.gen_range_u64(0, 64) as u32,
                to: rng.gen_range_u64(0, 64) as u32,
                dst_thread: rng.gen_range_u64(0, 64) as u32,
                wire_bytes: rng.next_u64() >> 40,
                local: rng.gen_range_u64(0, 2) as u32,
            },
            4 => JournalEvent::Arrive {
                to: rng.gen_range_u64(0, 64) as u32,
                thread: rng.gen_range_u64(0, 64) as u32,
                src: rng.gen_range_u64(0, 8) as u32,
                dst: rng.gen_range_u64(0, 8) as u32,
                wire_bytes: rng.next_u64() >> 40,
                start: vt.saturating_sub(500),
            },
            5 => JournalEvent::Mark {
                label: labels[rng.gen_range_u64(0, labels.len() as u64) as usize],
            },
            6 => JournalEvent::Deactivate {
                thread: rng.gen_range_u64(0, 64) as u32,
            },
            7 => JournalEvent::Release {
                op: rng.gen_range_u64(0, 64) as u32,
            },
            8 => JournalEvent::Account {
                delta: rng.next_u64() as i64 >> 20,
            },
            _ => JournalEvent::Terminate,
        };
        j.push(SimTime(vt), ev);
    }
    j
}

/// A decode attempt must return, not panic.
fn decode_no_panic(bytes: &[u8], what: &str) -> Result<Result<Journal, String>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        Journal::decode(bytes).map_err(|e| e.to_string())
    }))
    .map_err(|_| format!("{what}: decoder panicked"))
}

/// Robustness fuzz of the `desim` journal codec: the decoder must map
/// *every* truncated prefix of an encoded journal to a typed
/// [`desim::JournalDecodeError`], survive seeded single-bit corruptions
/// without panicking, and reject every truncated entry batch fed to
/// `append_entry_batch`. The same journal framed as a WAL must scan, at
/// every truncation point, to its whole frames plus at most one torn tail
/// (or to a typed `WalError` while the header frame is incomplete), and
/// never recover anything but a prefix of the source, bit flips included.
/// Returns pinpointed diagnostics on violation.
pub fn fuzz_journal_decode(seed: u64, flips: usize) -> Result<JournalFuzzReport, Vec<String>> {
    let journal = draw_journal(seed, 200);
    let bytes = journal.encode();
    let mut report = JournalFuzzReport {
        bytes: bytes.len(),
        ..JournalFuzzReport::default()
    };
    let mut failures = Vec::new();

    // Round trip sanity: the untouched encoding decodes back.
    match decode_no_panic(&bytes, "full encoding") {
        Ok(Ok(back)) => {
            if let Some(d) = back.first_divergence(&journal) {
                failures.push(format!("round trip diverged: {d}"));
            }
        }
        Ok(Err(e)) => failures.push(format!("full encoding rejected: {e}")),
        Err(msg) => failures.push(msg),
    }

    // 1. Every strict prefix is a truncation and must fail *typed*.
    for cut in 0..bytes.len() {
        report.truncations += 1;
        match decode_no_panic(&bytes[..cut], &format!("truncation at byte {cut}")) {
            Ok(Ok(_)) => failures.push(format!(
                "truncation at byte {cut} of {} decoded successfully",
                bytes.len()
            )),
            Ok(Err(_)) => {}
            Err(msg) => failures.push(msg),
        }
    }

    // 2. Seeded single-bit corruptions: a typed error or a (different)
    //    journal are both acceptable; a panic never is.
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xD6E8_FEB8_6659_FD93);
    for _ in 0..flips {
        report.flips += 1;
        let i = rng.gen_range_u64(0, bytes.len() as u64) as usize;
        let bit = rng.gen_range_u64(0, 8) as u8;
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 1 << bit;
        if let Err(msg) = decode_no_panic(&corrupt, &format!("bit flip at byte {i} bit {bit}")) {
            failures.push(msg);
        }
    }

    // 3. Truncated entry batches against the incremental appender.
    let header = journal.encode_header();
    let batch = journal.encode_entry_batch(0, journal.len());
    for cut in 0..batch.len() {
        report.batch_truncations += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut j = Journal::decode(&header).expect("header decodes");
            j.append_entry_batch(&batch[..cut]).map(|_| j.len())
        }));
        match outcome {
            Ok(Ok(n)) if cut < batch.len() => {
                // A truncated batch may decode only if it is itself a
                // complete shorter batch — which the varint framing
                // forbids; reaching here with entries appended is a bug.
                if n > 0 {
                    failures.push(format!(
                        "batch truncated at byte {cut} appended {n} entries"
                    ));
                }
            }
            Ok(_) => {}
            Err(_) => failures.push(format!("batch truncation at byte {cut}: appender panicked")),
        }
    }

    // 4. The journal as WAL frames, cut at every byte and bit-flipped.
    let wal = WriteAheadLog::build(&journal, &DurabilitySpec::group_commit(16));
    let log = wal.bytes();
    // `whole` = how many frames must survive, where the damage says so
    // (none surviving means the header frame is gone: a typed error).
    let mut scan = |bytes: &[u8], whole: Option<usize>, what: &str| {
        let rec = match catch_unwind(AssertUnwindSafe(|| WriteAheadLog::scan(bytes))) {
            Err(_) => return failures.push(format!("{what}: WAL scan panicked")),
            Ok(Err(_)) if whole.is_none_or(|k| k == 0) => return,
            Ok(Err(e)) => return failures.push(format!("{what}: {e}")),
            Ok(Ok(rec)) => rec,
        };
        let kept = wal.frame_prefix(rec.frames).len();
        if whole.is_some_and(|k| k != rec.frames) || rec.torn.is_some() != (kept < bytes.len()) {
            failures.push(format!(
                "{what}: scanned {} frames (torn tail: {:?}), want {whole:?}",
                rec.frames, rec.torn
            ));
        }
        if rec.journal.len() as u64 != wal.entries_through(rec.frames)
            || rec.journal.entries[..] != journal.entries[..rec.journal.len()]
        {
            failures.push(format!("{what}: recovered entries are not a source prefix"));
        }
    };
    for cut in 0..=log.len() {
        report.wal_truncations += 1;
        let whole = (1..=wal.frames())
            .rev()
            .find(|&k| wal.frame_prefix(k).len() <= cut)
            .unwrap_or(0);
        scan(
            &log[..cut],
            Some(whole),
            &format!("WAL truncated at byte {cut}"),
        );
    }
    for _ in 0..flips {
        report.wal_flips += 1;
        let i = rng.gen_range_u64(0, log.len() as u64) as usize;
        let bit = rng.gen_range_u64(0, 8) as u8;
        let mut corrupt = log.to_vec();
        corrupt[i] ^= 1 << bit;
        scan(
            &corrupt,
            None,
            &format!("WAL bit flip at byte {i} bit {bit}"),
        );
    }

    if failures.is_empty() {
        Ok(report)
    } else {
        Err(failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The journal codec survives truncation and corruption with typed
    /// errors — the decoder-robustness satellite, seeded and quick.
    #[test]
    fn journal_codec_survives_truncation_and_bit_flips() {
        let report = fuzz_journal_decode(42, 64).unwrap_or_else(|f| panic!("{f:?}"));
        assert!(report.bytes > 500, "reference journal is non-trivial");
        assert_eq!(report.truncations, report.bytes);
        assert_eq!(report.flips, 64);
        assert!(report.batch_truncations > 0);
        assert!(report.wal_truncations > report.bytes, "frames add bytes");
        assert_eq!(report.wal_flips, 64);
    }

    /// One seeded case end-to-end: the invariant holds on a real workload,
    /// and both out-of-range node ids are turned down.
    #[test]
    fn single_fuzz_case_passes() {
        let out = fuzz(&FuzzConfig { seed: 7, cases: 1 });
        assert!(out.failures.is_empty(), "{:?}", out.failures);
        assert_eq!(out.rejected_nodes, OUT_OF_RANGE_NODES);
        assert_eq!(out.cases.len(), 1);
        assert!(out.cases[0].journal_len > 0);
    }

    /// The drawn node ids cover all three spreads, stay distinct, ordered
    /// and below the engine's limit.
    #[test]
    fn drawn_node_ids_are_distinct_and_in_range() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let mut spread = BTreeSet::new();
        for _ in 0..200 {
            let ids = draw_node_ids(&mut rng, 4);
            assert_eq!(ids.len(), 4);
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
            assert!(u64::from(ids[3]) < NODE_ID_LIMIT, "{ids:?}");
            spread.insert(match ids[3] {
                3 if ids[0] == 0 => 0,
                0..64 => 1,
                _ => 2,
            });
        }
        assert_eq!(spread.len(), 3, "every spread drawn");
    }
}
