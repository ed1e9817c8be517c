//! Hardened-execution tests: mis-wired flow graphs must come back as
//! typed `DeadlockDetected` errors naming the blocked operations (never
//! a hang or a panic), invalid network parameters as typed `Protocol`
//! errors, the step budget must fail runs cleanly, and a killed run must
//! leave the application reusable. Node ids past the engine's
//! per-node tables and a fabric whose transfer handles go backwards are
//! typed `Protocol` errors too.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use desim::{SimDuration, SimTime};
use dps::prelude::*;
use dps::wire_size_fixed;
use dps_sim::{
    check_equivalent, simulate, simulate_with_fabric, Fabric, SimCheckpoint, SimConfig,
    SimErrorKind, SimFabric, TimingMode, NODE_ID_LIMIT,
};
use faults::FaultPlan;
use netmodel::network::NetStats;
use netmodel::{NetParams, NodeId};

struct Token(#[allow(dead_code)] u64);
wire_size_fixed!(Token, 8);

const US: SimDuration = SimDuration(1_000);
const MS: SimDuration = SimDuration(1_000_000);

fn cfg() -> SimConfig {
    SimConfig {
        timing: TimingMode::ChargedOnly,
        step_overhead: SimDuration::ZERO,
        ..SimConfig::default()
    }
}

/// A split that posts `n` tokens to a leaf which never releases credits.
fn non_draining_app(n: u64, window: usize) -> Application {
    let mut b = AppBuilder::new("nondraining");
    b.thread_group("workers", 1);
    let main = b.thread_on_node("main", 1);
    let split = b.declare("split", OpKind::Split);
    let leaf = b.declare("leaf", OpKind::Leaf);
    b.body(split, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            for i in 0..n {
                ctx.charge(US);
                ctx.post(leaf, Box::new(Token(i)));
            }
        })
    });
    b.body(leaf, |_, _| op_fn(|_obj, _ctx| {}));
    b.edge(split, leaf, round_robin("workers"));
    b.flow_control(split, window);
    b.start(split, main, || Box::new(Token(0)));
    b.build().unwrap()
}

#[test]
fn window_of_zero_deadlocks_with_named_blocked_op() {
    // A zero-size window can never admit a post: the very first one parks
    // the split forever. The engine must return a diagnostic naming the
    // split and its target, not hang.
    let err = simulate(&non_draining_app(1, 0), NetParams::ideal(), &cfg())
        .expect_err("a zero window must deadlock");
    let diag = err.deadlock_diag().expect("deadlock diagnostic");
    let b = diag
        .blocked
        .iter()
        .find(|b| b.op == "split")
        .expect("split must be reported blocked");
    assert_eq!(b.window, 0);
    assert_eq!(b.in_flight, 0);
    assert_eq!(b.waiting_on, "leaf");
}

#[test]
fn window_of_one_with_non_draining_consumer_deadlocks() {
    // Window 1, two posts, no releases: the second post parks the split
    // with one credit in flight and one object stranded at the leaf.
    let err = simulate(&non_draining_app(2, 1), NetParams::ideal(), &cfg())
        .expect_err("a non-draining window must deadlock");
    let diag = err.deadlock_diag().expect("deadlock diagnostic");
    let b = diag
        .blocked
        .iter()
        .find(|b| b.op == "split")
        .expect("split must be reported blocked");
    assert_eq!((b.window, b.in_flight), (1, 1));
    assert_eq!(b.waiting_on, "leaf");
    assert!(diag.busy_servers >= 1, "{diag:?}");
    // The rendered error names both ends of the stuck edge.
    let msg = err.to_string();
    assert!(msg.contains("split") && msg.contains("leaf"), "{msg}");
}

#[test]
fn cyclic_credit_wait_names_the_cycle() {
    // Two windowed ops posting to each other: each one's second post parks
    // behind its own window while the peer — the only op that could drain
    // it — is parked the same way. The wait-for graph has the cycle
    // ping -> pong -> ping and the diagnostic must name it.
    let mut b = AppBuilder::new("cycle");
    let t0 = b.thread_on_node("a", 0);
    let t1 = b.thread_on_node("b", 1);
    let main = b.thread_on_node("main", 2);
    let ping = b.declare("ping", OpKind::Split);
    let pong = b.declare("pong", OpKind::Split);
    for (me, peer) in [(ping, pong), (pong, ping)] {
        b.body(me, move |_, _| {
            let mut fired = false;
            op_fn(move |_obj, ctx: &mut dyn OpCtx| {
                if !fired {
                    fired = true;
                    ctx.charge(US);
                    ctx.post(peer, Box::new(Token(0)));
                    ctx.post(peer, Box::new(Token(1)));
                }
            })
        });
    }
    b.edge(ping, pong, to_thread(t1));
    b.edge(pong, ping, to_thread(t0));
    b.flow_control(ping, 1);
    b.flow_control(pong, 1);
    b.start(ping, main, || Box::new(Token(0)));
    b.start(pong, main, || Box::new(Token(0)));
    let app = b.build().unwrap();

    let err = simulate(&app, NetParams::ideal(), &cfg()).expect_err("a credit cycle must deadlock");
    let diag = err.deadlock_diag().expect("deadlock diagnostic");
    assert!(
        diag.cycle.contains(&"ping".to_string()) && diag.cycle.contains(&"pong".to_string()),
        "cycle must name both ops: {:?}",
        diag.cycle
    );
    let msg = err.to_string();
    assert!(msg.contains("cycle"), "{msg}");
}

/// A well-formed two-stage pipeline that terminates after `n` results.
fn good_app(n: u64) -> Application {
    poisonable_app(n, Arc::new(AtomicBool::new(false)))
}

/// [`good_app`] whose next leaf invocation panics once `poison` is set.
fn poisonable_app(n: u64, poison: Arc<AtomicBool>) -> Application {
    let mut b = AppBuilder::new("good");
    b.thread_group("workers", 2);
    let main = b.thread_on_node("main", 2);
    let split = b.declare("split", OpKind::Split);
    let leaf = b.declare("leaf", OpKind::Leaf);
    let merge = b.declare("merge", OpKind::Merge);
    b.body(split, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            for i in 0..n {
                ctx.charge(US);
                ctx.post(leaf, Box::new(Token(i)));
            }
        })
    });
    b.body(leaf, move |_, _| {
        let poison = Arc::clone(&poison);
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            assert!(
                !poison.swap(false, Ordering::SeqCst),
                "poisoned leaf invocation"
            );
            ctx.charge(MS);
            ctx.post(merge, Box::new(Token(0)));
        })
    });
    b.body(merge, move |_, _| {
        let mut seen = 0;
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            seen += 1;
            if seen == n {
                ctx.terminate();
            }
        })
    });
    b.edge(split, leaf, round_robin("workers"));
    b.edge(leaf, merge, to_thread(main));
    b.start(split, main, || Box::new(Token(0)));
    b.build().unwrap()
}

#[test]
fn step_budget_fails_runs_instead_of_looping() {
    let mut c = cfg();
    c.max_steps = 5;
    let err = simulate(&good_app(64), NetParams::ideal(), &c)
        .expect_err("5 steps cannot finish 64 pieces");
    match err.kind {
        SimErrorKind::BudgetExceeded { at, steps } => {
            assert!(steps > 5, "budget fired after {steps} steps");
            assert_eq!(
                err.kind.to_string(),
                format!("step budget exceeded at {at} after {steps} steps")
            );
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn budget_killed_run_leaves_the_application_reusable() {
    // Killing a run (budget or deadlock) must not poison the application
    // value: a fresh simulation of the same app completes and matches a
    // run that was never interrupted.
    let app = good_app(8);
    let clean = simulate(&app, NetParams::ideal(), &cfg()).unwrap();
    assert!(clean.terminated);

    let mut tight = cfg();
    tight.max_steps = 3;
    let err = simulate(&app, NetParams::ideal(), &tight).expect_err("budget kill");
    assert!(matches!(err.kind, SimErrorKind::BudgetExceeded { .. }));

    let again = simulate(&app, NetParams::ideal(), &cfg()).unwrap();
    assert!(again.terminated);
    assert_eq!(
        again.canonical_string(),
        clean.canonical_string(),
        "a killed run must not perturb later runs"
    );

    // Same property across a deadlock: the failing app fails, the good one
    // still runs byte-identically.
    let bad = non_draining_app(2, 1);
    assert!(simulate(&bad, NetParams::ideal(), &cfg()).is_err());
    let after = simulate(&app, NetParams::ideal(), &cfg()).unwrap();
    assert_eq!(after.canonical_string(), clean.canonical_string());
}

#[test]
fn operation_panic_propagates_and_leaves_the_application_reusable() {
    // A panic in application code is not a simulator error: it unwinds to
    // the caller with its message intact, and the application value runs
    // again afterwards exactly as if the panicked run never happened.
    let poison = Arc::new(AtomicBool::new(false));
    let app = poisonable_app(8, Arc::clone(&poison));
    let clean = simulate(&app, NetParams::ideal(), &cfg()).unwrap();

    poison.store(true, Ordering::SeqCst);
    let payload = catch_unwind(AssertUnwindSafe(|| {
        simulate(&app, NetParams::ideal(), &cfg())
    }))
    .expect_err("the poisoned invocation must panic");
    let msg = payload
        .downcast_ref::<&str>()
        .expect("panic carries its message");
    assert!(msg.contains("poisoned leaf invocation"), "{msg}");

    let again = simulate(&app, NetParams::ideal(), &cfg()).unwrap();
    assert_eq!(again.canonical_string(), clean.canonical_string());
}

#[test]
fn deadlock_detection_is_deterministic() {
    // The same mis-wired graph yields the same diagnostic every time —
    // error paths obey the same determinism contract as successful runs.
    let a = simulate(&non_draining_app(2, 1), NetParams::ideal(), &cfg()).unwrap_err();
    let b = simulate(&non_draining_app(2, 1), NetParams::ideal(), &cfg()).unwrap_err();
    assert_eq!(a, b);
}

/// Every entry point that builds the paper's machine model from `params`
/// must return a protocol error carrying `NetParams::validate`'s message.
#[track_caller]
fn assert_params_rejected(params: NetParams, want: &str) {
    let app = good_app(1);
    let errs = [
        simulate(&app, params, &cfg()).err(),
        SimFabric::with_plan(params, &FaultPlan::none()).err(),
    ];
    for err in errs {
        let err = err.expect("invalid parameters are rejected");
        assert!(
            matches!(&err.kind, SimErrorKind::Protocol { detail } if detail.contains(want)),
            "{err}"
        );
    }
}

#[test]
fn zero_bandwidth_is_a_typed_error() {
    let mut params = NetParams::ideal();
    params.up_bytes_per_sec = 0.0;
    assert_params_rejected(params, "bandwidth must be positive");
}

#[test]
fn nan_cpu_cost_is_a_typed_error() {
    let mut params = NetParams::ideal();
    params.cpu_in_cost = f64::NAN;
    assert_params_rejected(params, "cpu comm costs must be in [0,1)");
}

/// One thread on `node` running a split that charges `steps` steps.
fn one_node_app(node: u32, steps: u64) -> Application {
    let mut b = AppBuilder::new("one-node");
    let main = b.thread_on_node("main", node);
    let split = b.declare("split", OpKind::Split);
    let leaf = b.declare("leaf", OpKind::Leaf);
    b.body(split, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            for i in 0..steps {
                ctx.charge(US);
                ctx.post(leaf, Box::new(Token(i)));
            }
            ctx.terminate();
        })
    });
    b.body(leaf, |_, _| op_fn(|_obj, _ctx| {}));
    b.edge(split, leaf, to_thread(main));
    b.start(split, main, || Box::new(Token(0)));
    b.build().unwrap()
}

/// Every engine entry point turns `app` down with a protocol error naming
/// the node id, before allocating anything sized by it.
#[track_caller]
fn assert_node_rejected(app: Application) {
    let params = NetParams::ideal();
    let app = Arc::new(app);
    let fabric = SimFabric::new(params);
    let errs = [
        simulate(&app, params, &cfg()).err(),
        SimCheckpoint::new(Arc::clone(&app), SimFabric::new(params), &cfg())
            .advance_until(SimTime(1))
            .err(),
        SimCheckpoint::new(Arc::clone(&app), fabric, &cfg())
            .finish()
            .err(),
    ];
    for err in errs {
        let err = err.expect("an out-of-range node id is rejected");
        assert!(
            matches!(&err.kind, SimErrorKind::Protocol { detail } if detail.contains("out of range")),
            "{err}"
        );
    }
}

#[test]
fn node_id_at_u32_max_is_a_typed_error() {
    assert_node_rejected(one_node_app(u32::MAX, 1));
}

#[test]
fn node_id_far_past_the_tables_is_rejected_at_once() {
    assert_node_rejected(one_node_app(50_000_000, 2));
    assert_node_rejected(one_node_app(NODE_ID_LIMIT as u32, 2));
    // The last id below the limit still runs.
    let last = NODE_ID_LIMIT as u32 - 1;
    let report = simulate(&one_node_app(last, 2), NetParams::ideal(), &cfg()).unwrap();
    assert!(report.terminated);
}

/// A [`SimFabric`] that hands the engine its transfer handles renamed by
/// `to`.
struct Renamed {
    inner: SimFabric,
    to: fn(u64) -> u64,
}

impl Renamed {
    fn new(to: fn(u64) -> u64) -> Renamed {
        let inner = SimFabric::new(NetParams::ideal());
        Renamed { inner, to }
    }
}

impl Fabric for Renamed {
    fn start_transfer(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> u64 {
        (self.to)(self.inner.start_transfer(now, src, dst, bytes))
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.inner.next_event_time()
    }

    fn advance_into(&mut self, now: SimTime, out: &mut Vec<u64>) {
        let first = out.len();
        self.inner.advance_into(now, out);
        out[first..].iter_mut().for_each(|h| *h = (self.to)(*h));
    }

    fn cpu_available(&self, node: NodeId) -> f64 {
        self.inner.cpu_available(node)
    }

    fn comm_dirty_nodes(&mut self, out: &mut Vec<NodeId>) {
        self.inner.comm_dirty_nodes(out);
    }

    fn compute_time(&mut self, node: NodeId, nominal: SimDuration) -> SimDuration {
        self.inner.compute_time(node, nominal)
    }

    fn net_stats(&self) -> NetStats {
        self.inner.net_stats()
    }
}

#[test]
fn decreasing_transfer_handles_are_a_typed_error() {
    // The split posts to two workers on other nodes: two transfers, the
    // second with the smaller handle.
    let mut fabric = Renamed::new(|h| u64::MAX - h);
    let err = simulate_with_fabric(&good_app(2), &mut fabric, &cfg())
        .expect_err("a decreasing handle is rejected");
    assert!(
        matches!(&err.kind, SimErrorKind::Protocol { detail } if detail.contains("handles must increase")),
        "{err}"
    );
}

#[test]
fn increasing_handles_with_gaps_run_like_consecutive_ones() {
    // Handles 5, 8, 11, …: none sits at its offset from the front.
    let mut fabric = Renamed::new(|h| 3 * h + 5);
    let app = good_app(16);
    let gapped = simulate_with_fabric(&app, &mut fabric, &cfg()).unwrap();
    let plain = simulate(&app, NetParams::ideal(), &cfg()).unwrap();
    assert!(plain.net.flows_completed >= 16);
    check_equivalent(&gapped, &plain).unwrap();
}
