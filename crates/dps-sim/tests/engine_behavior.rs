//! Behavioural tests of the virtual-time engine: atomic-step timing,
//! pipelining, CPU sharing, network contention, flow control, dynamic
//! allocation, memory accounting and determinism.

use desim::{SimDuration, SimTime};
use dps::prelude::*;
use dps::wire_size_fixed;
use dps_sim::{simulate, trace_from_journal, JournalEvent, SimConfig, TimingMode};
use netmodel::NetParams;

struct Work(u64);
struct Piece {
    #[allow(dead_code)]
    idx: u64,
    bytes: u64,
    heap: u64,
}
struct Result_ {
    bytes: u64,
}

wire_size_fixed!(Work, 8);

impl DataObject for Piece {
    fn wire_size(&self) -> u64 {
        self.bytes
    }
    fn heap_bytes(&self) -> u64 {
        self.heap
    }
}
impl DataObject for Result_ {
    fn wire_size(&self) -> u64 {
        self.bytes
    }
}

/// Zero-overhead config so arithmetic in tests is exact.
fn cfg() -> SimConfig {
    SimConfig {
        timing: TimingMode::ChargedOnly,
        step_overhead: SimDuration::ZERO,
        record_journal: true,
        ..SimConfig::default()
    }
}

const MS: SimDuration = SimDuration(1_000_000);
const US: SimDuration = SimDuration(1_000);

/// Figure 1 pipeline: split on main, `n` pieces round-robined over
/// `workers` worker threads, results merged on main.
fn pipeline_app(
    workers: u32,
    n: u64,
    gen_cost: SimDuration,
    work_cost: SimDuration,
    piece_bytes: u64,
) -> Application {
    let mut b = AppBuilder::new("pipeline");
    b.thread_group("workers", workers);
    let main = b.thread_on_node("main", workers);
    let split = b.declare("split", OpKind::Split);
    let leaf = b.declare("compute", OpKind::Leaf);
    let merge = b.declare("merge", OpKind::Merge);

    b.body(split, move |_, _| {
        op_fn(move |obj: DataObj, ctx: &mut dyn OpCtx| {
            let w: Work = downcast(obj);
            for i in 0..w.0 {
                ctx.charge(gen_cost);
                ctx.post(
                    leaf,
                    Box::new(Piece {
                        idx: i,
                        bytes: piece_bytes,
                        heap: 0,
                    }),
                );
            }
        })
    });
    b.body(leaf, move |_, _| {
        op_fn(move |obj: DataObj, ctx: &mut dyn OpCtx| {
            let _p: Piece = downcast(obj);
            ctx.charge(work_cost);
            ctx.post(merge, Box::new(Result_ { bytes: 8 }));
        })
    });
    b.body(merge, move |_, _| {
        let mut seen = 0u64;
        op_fn(move |_obj: DataObj, ctx: &mut dyn OpCtx| {
            seen += 1;
            if seen == n {
                ctx.terminate();
            }
        })
    });
    b.edge(split, leaf, round_robin("workers"));
    b.edge(leaf, merge, to_thread(main));
    b.start(split, main, || Box::new(Work(0)));
    // The Work token carries the piece count via a fresh closure per run.
    let mut b2 = b;
    b2.start(split, main, move || Box::new(Work(n)));
    b2.build().unwrap()
}

#[test]
fn charged_pipeline_has_exact_completion_time() {
    // 2 pieces, 10us generation each, 1ms compute, ideal network.
    // Piece 1 generated at 10us, computed on worker 0 during [10us, 1010us].
    // Piece 2 generated at 20us, computed on worker 1 during [20us, 1020us].
    // Completion when the merge sees the second result: 1020us.
    // (The extra Work(0) start token is absorbed by the split's zero loop.)
    let app = pipeline_app(2, 2, US * 10, MS, 100);
    let r = simulate(&app, NetParams::ideal(), &cfg()).unwrap();
    assert!(r.terminated);
    assert_eq!(r.completion, SimTime(1_020_000));
}

#[test]
fn single_worker_serializes_compute() {
    // Both pieces on one worker: second starts after first finishes.
    // gen: 10/20us; piece1 [10, 1010]us, piece2 [1010, 2010]us.
    let app = pipeline_app(1, 2, US * 10, MS, 100);
    let r = simulate(&app, NetParams::ideal(), &cfg()).unwrap();
    assert_eq!(r.completion, SimTime(2_010_000));
}

#[test]
fn free_split_leaves_merge_has_closed_form_makespan() {
    // Closed form, independent of the engine: a free split posts N equal
    // leaves of t at time zero, round-robin hands worker k the pieces
    // k, k + P, …, each worker runs its queue back to back, and free
    // communication adds nothing, so the last result lands at ⌈N/P⌉·t.
    // The report's efficiency divides the work done, N·t (the split and
    // merge steps cost nothing here), by the node-seconds of every
    // allocated node: the P workers and `main`'s node P, all held to the
    // end, so N·t / ((P + 1)·⌈N/P⌉·t).
    let t = MS * 3;
    for p in 1..=4u32 {
        let p64 = u64::from(p);
        for n in [1, p64, p64 + 1, 2 * p64 + 1, 7] {
            let app = pipeline_app(p, n, SimDuration::ZERO, t, 100);
            let r = simulate(&app, NetParams::ideal(), &cfg()).unwrap();
            assert!(r.terminated, "P={p} N={n}");
            let want = n.div_ceil(p64) * t.as_nanos();
            assert_eq!(r.completion, SimTime(want), "P={p} N={n}");
            let want_eff = (n * t.as_nanos()) as f64 / ((p64 + 1) * want) as f64;
            let eff = r.overall_efficiency();
            assert!(
                ((eff - want_eff) / want_eff).abs() < 1e-12,
                "P={p} N={n}: efficiency {eff}, closed form {want_eff}"
            );
        }
    }
}

#[test]
fn cpu_sharing_on_one_node_halves_progress() {
    // Two *different* leaf ops arriving simultaneously on the same node run
    // under processor sharing: each 1ms step takes 2ms wall.
    let mut b = AppBuilder::new("share");
    let t0 = b.thread_on_node("a", 0);
    let _t1 = b.thread_on_node("b", 0); // same node
    let main = b.thread_on_node("main", 1);
    let fan = b.declare("fan", OpKind::Split);
    let la = b.declare("la", OpKind::Leaf);
    let lb = b.declare("lb", OpKind::Leaf);
    let merge = b.declare("merge", OpKind::Merge);
    b.body(fan, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            ctx.post(la, Box::new(Work(0)));
            ctx.post(lb, Box::new(Work(0)));
        })
    });
    for (op, _name) in [(la, "la"), (lb, "lb")] {
        b.body(op, move |_, _| {
            op_fn(move |_obj, ctx: &mut dyn OpCtx| {
                ctx.charge(MS);
                ctx.post(merge, Box::new(Result_ { bytes: 8 }));
            })
        });
    }
    b.body(merge, move |_, _| {
        let mut seen = 0;
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            seen += 1;
            if seen == 2 {
                ctx.terminate();
            }
        })
    });
    b.edge(fan, la, to_thread(t0));
    b.edge(fan, lb, to_thread(ThreadId(1)));
    b.edge(la, merge, to_thread(main));
    b.edge(lb, merge, to_thread(main));
    b.start(fan, main, || Box::new(Work(0)));
    let app = b.build().unwrap();
    let r = simulate(&app, NetParams::ideal(), &cfg()).unwrap();
    // Posts happen in one zero-work segment at t=0; both leaves start at 0
    // on node 0 and share it: both finish at 2ms.
    assert_eq!(r.completion, SimTime(2_000_000));
}

#[test]
fn network_transfer_time_follows_formula() {
    // One piece of 1 MB at 1 MB/s with 100us latency, zero compute.
    let params = NetParams {
        latency: SimDuration::from_micros(100),
        up_bytes_per_sec: 1e6,
        down_bytes_per_sec: 1e6,
        cpu_in_cost: 0.0,
        cpu_out_cost: 0.0,
        per_message_overhead_bytes: 0,
    };
    let app = pipeline_app(1, 1, SimDuration::ZERO, SimDuration::ZERO, 1_000_000);
    let r = simulate(&app, params, &cfg()).unwrap();
    // split -> leaf transfer: 100us + 1s; result back: 100us + ~8 bytes.
    let expect = 1_000_100_000 + 100_000 + 8_000;
    assert_eq!(r.completion, SimTime(expect));
}

#[test]
fn concurrent_transfers_share_uplink() {
    // Two 0.5 MB pieces leave the main node simultaneously for different
    // workers at 1 MB/s: equal split -> both arrive at ~1s.
    let params = NetParams {
        latency: SimDuration::ZERO,
        up_bytes_per_sec: 1e6,
        down_bytes_per_sec: 1e6,
        cpu_in_cost: 0.0,
        cpu_out_cost: 0.0,
        per_message_overhead_bytes: 0,
    };
    let app = pipeline_app(2, 2, SimDuration::ZERO, SimDuration::ZERO, 500_000);
    let r = simulate(&app, params, &cfg()).unwrap();
    // Both transfers share 1MB/s: each runs at 0.5MB/s -> arrive at 1s.
    // Results (8 bytes) return in ~16us each.
    assert!(
        r.completion >= SimTime(1_000_000_000) && r.completion < SimTime(1_001_000_000),
        "completion = {}",
        r.completion
    );
}

#[test]
fn communication_cpu_cost_slows_computation() {
    // A long computation on node 0 overlaps an incoming bulk transfer; with
    // cpu_in_cost = 0.5 the step runs at half speed while receiving.
    let params = NetParams {
        latency: SimDuration::ZERO,
        up_bytes_per_sec: 1e6,
        down_bytes_per_sec: 1e6,
        cpu_in_cost: 0.5,
        cpu_out_cost: 0.0,
        per_message_overhead_bytes: 0,
    };
    let mut b = AppBuilder::new("commcost");
    let worker = b.thread_on_node("worker", 0);
    let main = b.thread_on_node("main", 1);
    let fan = b.declare("fan", OpKind::Split);
    let compute = b.declare("compute", OpKind::Leaf);
    let store = b.declare("store", OpKind::Leaf);
    let merge = b.declare("merge", OpKind::Merge);
    b.body(fan, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            // Tiny trigger for the compute leaf, then 1 MB of bulk data.
            ctx.post(compute, Box::new(Result_ { bytes: 1 }));
            ctx.post(
                store,
                Box::new(Piece {
                    idx: 0,
                    bytes: 1_000_000,
                    heap: 0,
                }),
            );
        })
    });
    b.body(compute, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            ctx.charge(MS * 2000); // 2s of work
            ctx.post(merge, Box::new(Result_ { bytes: 8 }));
        })
    });
    b.body(store, |_, _| op_fn(|_obj, _ctx| {}));
    b.body(merge, |_, _| {
        op_fn(|_obj, ctx: &mut dyn OpCtx| ctx.terminate())
    });
    b.edge(fan, compute, to_thread(worker));
    b.edge(fan, store, to_thread(worker));
    b.edge(compute, merge, to_thread(main));
    b.start(fan, main, || Box::new(Work(0)));
    let app = b.build().unwrap();
    let r = simulate(&app, params, &cfg()).unwrap();
    // Trigger (1 byte) arrives ~instantly; bulk transfer occupies [eps, 1s].
    // During that 1s the compute step gets 0.5 CPU -> does 0.5s of its 2s.
    // Remaining 1.5s at full speed: ends ~2.5s (+ result return ~8us).
    let secs = r.completion.as_secs_f64();
    assert!(
        (2.5..2.52).contains(&secs),
        "expected ~2.5s, got {secs} ({})",
        r.completion
    );
}

#[test]
fn flow_control_blocks_and_resumes() {
    // Split posts 3 pieces with window 1; the merge releases a credit per
    // result. Generation costs 1ms, compute 3ms, ideal network.
    let mut b = AppBuilder::new("fc");
    b.thread_group("workers", 1);
    let main = b.thread_on_node("main", 1);
    let split = b.declare("split", OpKind::Split);
    let leaf = b.declare("leaf", OpKind::Leaf);
    let merge = b.declare("merge", OpKind::Merge);
    b.body(split, move |_, _| {
        op_fn(move |obj: DataObj, ctx: &mut dyn OpCtx| {
            let w: Work = downcast(obj);
            for i in 0..w.0 {
                ctx.charge(MS);
                ctx.post(
                    leaf,
                    Box::new(Piece {
                        idx: i,
                        bytes: 8,
                        heap: 0,
                    }),
                );
            }
        })
    });
    b.body(leaf, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            ctx.charge(MS * 3);
            ctx.post(merge, Box::new(Result_ { bytes: 8 }));
        })
    });
    b.body(merge, move |_, _| {
        let mut seen = 0;
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            ctx.fc_release(split);
            seen += 1;
            if seen == 3 {
                ctx.terminate();
            }
        })
    });
    b.edge(split, leaf, round_robin("workers"));
    b.edge(leaf, merge, to_thread(main));
    b.flow_control(split, 1);
    b.start(split, main, || Box::new(Work(3)));
    let app = b.build().unwrap();
    let r = simulate(&app, NetParams::ideal(), &cfg()).unwrap();
    assert!(r.terminated);
    // Piece 1: gen [0,1], compute [1,4], release at 4.
    // Piece 2: gen [1,2] but post blocked until 4; compute [4,7], release 7.
    // Piece 3: gen [4,5] blocked until 7; compute [7,10]; terminate at 10ms.
    assert_eq!(r.completion, SimTime(10_000_000));
}

#[test]
fn leaf_released_window_serializes_every_commit_without_deadlock() {
    // Every commit conflicts with every other: all 48 posts go through the
    // split's one window, and each leaf invocation both releases a credit
    // into that window and posts to the one merge server. A misordered
    // credit release would deadlock or move the timeline.
    let (n, g, c) = (48u64, 1_000u64, 3_000u64); // pieces; generation and compute (ns)
    let app = |window: usize| {
        let mut b = AppBuilder::new("shared-window");
        b.thread_group("workers", 4);
        let main = b.thread_on_node("main", 4);
        let split = b.declare("split", OpKind::Split);
        let leaf = b.declare("leaf", OpKind::Leaf);
        let merge = b.declare("merge", OpKind::Merge);
        b.body(split, move |_, _| {
            op_fn(move |_obj, ctx: &mut dyn OpCtx| {
                for _ in 0..n {
                    ctx.charge(SimDuration(g));
                    ctx.post(leaf, Box::new(Result_ { bytes: 8 }));
                }
            })
        });
        b.body(leaf, move |_, _| {
            op_fn(move |_obj, ctx: &mut dyn OpCtx| {
                ctx.charge(SimDuration(c));
                ctx.fc_release(split);
                ctx.post(merge, Box::new(Result_ { bytes: 8 }));
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
        b.flow_control(split, window);
        b.start(split, main, || Box::new(Work(0)));
        (b.build().unwrap(), split)
    };
    // Closed form, with P = 4 workers. Piece k is posted at p_k and
    // computed over [e_k - c, e_k]; its leaf returns the credit at e_k. The
    // split generates the next piece only after a post went through, and a
    // post needs at most w - 1 credits out, so
    //     p_k = max(p_(k-1) + g, e_(k-w)),   p_k = k·g for k <= w.
    // For w <= P the w credited pieces sit on distinct workers, so nothing
    // queues and e_k = p_k + c. Write k = q·w + r with 1 <= r <= w:
    //  * w·g <= c: p_k = r·g + q·c. The e_(k-w) term gives it, and the
    //    p_(k-1) + g term stays below: at r = 1 it is (w + 1)·g + (q - 1)·c.
    //  * w·g >= c: p_k = k·g = r·g + q·w·g. The window never binds, since
    //    e_(k-w) = (k - w)·g + c <= k·g. Nor do the workers: P·g >= c, so a
    //    worker's previous piece ends at (k - P)·g + c <= k·g. This also
    //    covers w > P.
    // Both cases give p_k = r·g + q·max(c, w·g), and the run ends when the
    // last leaf does: completion = p_N + c. Window 1 gives 1 + 47·3 + 3 =
    // 145us (the computes run back to back); window 7 gives 6 + 6·7 + 3 =
    // 51us (the split's generation is the bottleneck from window 3 up).
    for w in 1..=8u64 {
        let (app, split) = app(w as usize);
        let r = simulate(&app, NetParams::ideal(), &cfg())
            .unwrap_or_else(|e| panic!("deadlocked at window {w}: {e}"));
        assert!(r.terminated);
        let (q, rem) = ((n - 1) / w, (n - 1) % w + 1);
        let want = rem * g + q * c.max(w * g) + c;
        assert_eq!(r.completion, SimTime(want), "window {w}");
        // The journal never shows more than w of the split's posts
        // without their credit back.
        let mut out = 0u64;
        for e in &r.journal.unwrap().entries {
            match e.event {
                JournalEvent::Post { op, .. } if op == split.0 => out += 1,
                JournalEvent::Release { op } if op == split.0 => out -= 1,
                _ => {}
            }
            assert!(out <= w, "window {w}: {out} credits out at {}", e.vtime);
        }
    }
}

#[test]
fn without_flow_control_pieces_pipeline_immediately() {
    // Same app without the window: computes back-to-back [1,4][4,7][7,10]
    // — same end here (single worker), but generation finishes at 3ms and
    // nothing blocks. Verify via no-stall and earlier first-compute overlap
    // using the step trace.
    let app = pipeline_app(1, 3, MS, MS * 3, 8);
    let r = simulate(&app, NetParams::ideal(), &cfg()).unwrap();
    assert_eq!(r.completion, SimTime(10_000_000));
    let trace = trace_from_journal(r.journal.as_ref().unwrap(), &app);
    // Split executed its three generation steps contiguously [0,3]ms.
    let split_steps: Vec<_> = trace
        .steps
        .iter()
        .filter(|s| s.op_name == "split")
        .collect();
    assert_eq!(split_steps.last().unwrap().end, SimTime(3_000_000));
}

#[test]
fn marks_and_intervals_capture_dynamic_efficiency() {
    // One worker, two phases of work with a mark in between.
    let mut b = AppBuilder::new("eff");
    let w = b.thread_on_node("worker", 0);
    let main = b.thread_on_node("main", 1);
    let driver = b.declare("driver", OpKind::Split);
    let leaf = b.declare("leaf", OpKind::Leaf);
    let merge = b.declare("merge", OpKind::Merge);
    b.body(driver, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            ctx.post(
                leaf,
                Box::new(Piece {
                    idx: 0,
                    bytes: 8,
                    heap: 0,
                }),
            );
        })
    });
    b.body(leaf, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            ctx.charge(MS * 100);
            ctx.post(merge, Box::new(Result_ { bytes: 8 }));
        })
    });
    b.body(merge, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            ctx.mark("phase1");
            ctx.terminate();
        })
    });
    b.edge(driver, leaf, to_thread(w));
    b.edge(leaf, merge, to_thread(main));
    b.start(driver, main, || Box::new(Work(0)));
    let app = b.build().unwrap();
    let r = simulate(&app, NetParams::ideal(), &cfg()).unwrap();
    assert_eq!(r.marks.len(), 1);
    let phase1 = &r.intervals[0];
    assert_eq!(phase1.label, "phase1");
    // 100ms of work over 2 nodes for 100ms -> efficiency 0.5.
    assert!(
        (phase1.efficiency() - 0.5).abs() < 1e-6,
        "{}",
        phase1.efficiency()
    );
}

#[test]
fn deactivation_redistributes_round_robin_work() {
    // 2 workers; the app deactivates worker 1 before fanning out; all pieces
    // land on worker 0 and the allocated-node count drops.
    let mut b = AppBuilder::new("deact");
    b.thread_group("workers", 2);
    let main = b.thread_on_node("main", 2);
    let driver = b.declare("driver", OpKind::Split);
    let leaf = b.declare("leaf", OpKind::Leaf);
    let merge = b.declare("merge", OpKind::Merge);
    b.body(driver, move |_, _| {
        op_fn(move |obj: DataObj, ctx: &mut dyn OpCtx| {
            let w: Work = downcast(obj);
            ctx.deactivate_thread(ThreadId(1));
            ctx.charge(US); // deactivation applies at this step's end...
            ctx.post(
                leaf,
                Box::new(Piece {
                    idx: 0,
                    bytes: 8,
                    heap: 0,
                }),
            );
            for i in 1..w.0 {
                ctx.charge(US);
                ctx.post(
                    leaf,
                    Box::new(Piece {
                        idx: i,
                        bytes: 8,
                        heap: 0,
                    }),
                );
            }
        })
    });
    b.body(leaf, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            ctx.charge(MS);
            ctx.post(merge, Box::new(Result_ { bytes: 8 }));
        })
    });
    b.body(merge, move |_, _| {
        let mut seen = 0;
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            seen += 1;
            if seen == 4 {
                ctx.terminate();
            }
        })
    });
    b.edge(driver, leaf, round_robin("workers"));
    b.edge(leaf, merge, to_thread(main));
    b.start(driver, main, || Box::new(Work(4)));
    let app = b.build().unwrap();
    let r = simulate(&app, NetParams::ideal(), &cfg()).unwrap();
    assert!(r.terminated);
    // All four leaf steps ran on thread 0 (serialized: 4ms of compute).
    let trace = trace_from_journal(r.journal.as_ref().unwrap(), &app);
    assert!(trace
        .steps
        .iter()
        .filter(|s| s.op_name == "leaf")
        .all(|s| s.thread == ThreadId(0)));
    // Allocation timeline: 3 nodes -> 2 nodes.
    assert_eq!(r.alloc_timeline.first().unwrap().1, 3);
    assert_eq!(r.alloc_timeline.last().unwrap().1, 2);
}

#[test]
fn memory_meter_tracks_heap_payloads() {
    // Pieces with 1 MB heap vs ghost pieces: peak differs accordingly.
    let build = |heap: u64| {
        let mut b = AppBuilder::new("mem");
        b.thread_group("workers", 1);
        let main = b.thread_on_node("main", 1);
        let driver = b.declare("driver", OpKind::Split);
        let leaf = b.declare("leaf", OpKind::Leaf);
        let merge = b.declare("merge", OpKind::Merge);
        b.body(driver, move |_, _| {
            op_fn(move |_obj, ctx: &mut dyn OpCtx| {
                for i in 0..4u64 {
                    ctx.charge(US);
                    ctx.post(
                        leaf,
                        Box::new(Piece {
                            idx: i,
                            bytes: 1_000_000,
                            heap,
                        }),
                    );
                }
            })
        });
        b.body(leaf, move |_, _| {
            op_fn(move |_obj, ctx: &mut dyn OpCtx| {
                ctx.charge(MS);
                ctx.post(merge, Box::new(Result_ { bytes: 8 }));
            })
        });
        b.body(merge, move |_, _| {
            let mut seen = 0;
            op_fn(move |_obj, ctx: &mut dyn OpCtx| {
                seen += 1;
                if seen == 4 {
                    ctx.terminate();
                }
            })
        });
        b.edge(driver, leaf, round_robin("workers"));
        b.edge(leaf, merge, to_thread(main));
        b.start(driver, main, || Box::new(Work(0)));
        b.build().unwrap()
    };
    let big = simulate(&build(1_000_000), NetParams::ideal(), &cfg()).unwrap();
    let ghost = simulate(&build(0), NetParams::ideal(), &cfg()).unwrap();
    assert_eq!(
        big.completion, ghost.completion,
        "NOALLOC must not change timing"
    );
    assert!(big.mem_peak_bytes >= ghost.mem_peak_bytes + 1_000_000);
}

#[test]
fn stall_without_terminate_is_reported() {
    // Merge waits for 5 results but only 2 arrive.
    let app = pipeline_app(2, 2, US, MS, 8);
    // pipeline_app terminates at n==2; build a custom non-terminating one:
    let mut b = AppBuilder::new("stall");
    let main = b.thread_on_node("main", 0);
    let op = b.declare("op", OpKind::Leaf);
    b.body(op, |_, _| op_fn(|_obj, _ctx| {})); // never terminates
    b.start(op, main, || Box::new(Work(0)));
    let app2 = b.build().unwrap();
    let r2 = simulate(&app2, NetParams::ideal(), &cfg()).expect("clean quiescence is not an error");
    assert!(!r2.terminated);
    // And the well-formed app does terminate.
    let r = simulate(&app, NetParams::ideal(), &cfg()).unwrap();
    assert!(r.terminated);
}

#[test]
fn flow_control_stall_is_diagnosed() {
    // Window 1, split posts 2, merge never releases: deadlock by design.
    let mut b = AppBuilder::new("fcstall");
    b.thread_group("workers", 1);
    let main = b.thread_on_node("main", 1);
    let split = b.declare("split", OpKind::Split);
    let leaf = b.declare("leaf", OpKind::Leaf);
    b.body(split, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            for i in 0..2u64 {
                ctx.charge(US);
                ctx.post(
                    leaf,
                    Box::new(Piece {
                        idx: i,
                        bytes: 8,
                        heap: 0,
                    }),
                );
            }
        })
    });
    b.body(leaf, |_, _| op_fn(|_obj, _ctx| {}));
    b.edge(split, leaf, round_robin("workers"));
    b.flow_control(split, 1);
    b.start(split, main, || Box::new(Work(0)));
    let app = b.build().unwrap();
    let err = match simulate(&app, NetParams::ideal(), &cfg()) {
        Ok(r) => panic!(
            "deadlocked run must not succeed (terminated={})",
            r.terminated
        ),
        Err(e) => e,
    };
    let diag = err.deadlock_diag().expect("deadlock diagnostic expected");
    assert!(
        diag.blocked
            .iter()
            .any(|b| b.op == "split" && b.waiting_on == "leaf"),
        "diagnostic must name the blocked split: {err}"
    );
}

#[test]
fn runs_are_deterministic() {
    let mk = || pipeline_app(3, 20, US * 7, MS, 10_000);
    let params = NetParams::fast_ethernet();
    let a = simulate(&mk(), params, &cfg()).unwrap();
    let b = simulate(&mk(), params, &cfg()).unwrap();
    assert_eq!(a.completion, b.completion);
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.net.wire_bytes, b.net.wire_bytes);
}

#[test]
fn direct_execution_measures_host_time() {
    // A leaf that really burns ~20ms of host CPU. In Measured mode the
    // predicted time should be within a loose band around that; a charge
    // replaces the measurement in either mode; ChargedOnly prices the
    // uncharged step at zero.
    let run = |timing: TimingMode, charge: Option<SimDuration>| {
        let mut b = AppBuilder::new("direct");
        let main = b.thread_on_node("main", 0);
        let op = b.declare("op", OpKind::Leaf);
        b.body(op, move |_, _| {
            op_fn(move |_obj, ctx: &mut dyn OpCtx| {
                let t0 = std::time::Instant::now();
                let mut x = 0u64;
                while t0.elapsed() < std::time::Duration::from_millis(20) {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                std::hint::black_box(x);
                if let Some(d) = charge {
                    ctx.charge(d);
                }
                ctx.terminate();
            })
        });
        b.start(op, main, || Box::new(Work(0)));
        let c = SimConfig { timing, ..cfg() };
        simulate(&b.build().unwrap(), NetParams::ideal(), &c)
            .unwrap()
            .completion
    };
    let secs = run(TimingMode::Measured, None).as_secs_f64();
    assert!(
        (0.015..0.5).contains(&secs),
        "direct-exec predicted {secs}s, expected ~0.02s"
    );
    for timing in [TimingMode::Measured, TimingMode::ChargedOnly] {
        assert_eq!(run(timing, Some(MS * 3)), SimTime(3_000_000), "{timing:?}");
    }
    assert_eq!(run(TimingMode::ChargedOnly, None), SimTime::ZERO);
}

#[test]
fn account_state_flows_into_memory_peak() {
    // An op that holds state must raise the modeled peak; releasing it
    // lowers live usage without touching the peak.
    let mut b = AppBuilder::new("acct");
    let main = b.thread_on_node("main", 0);
    let op = b.declare("op", OpKind::Leaf);
    b.body(op, |_, _| {
        let mut first = true;
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            if first {
                first = false;
                ctx.account_state(5_000_000);
            } else {
                ctx.account_state(-5_000_000);
                ctx.terminate();
            }
        })
    });
    b.edge(op, op, local_thread());
    // Two tokens: first stores, second releases. Self-post keeps it simple.
    b.start(op, main, || Box::new(Work(0)));
    b.start(op, main, || Box::new(Work(0)));
    let app = b.build().unwrap();
    let r = simulate(&app, NetParams::ideal(), &cfg()).unwrap();
    assert!(r.terminated);
    assert!(
        r.mem_peak_bytes >= 5_000_000,
        "peak {} must include accounted state",
        r.mem_peak_bytes
    );
}

#[test]
fn deactivation_does_not_drop_in_flight_work() {
    // Work already routed to a thread completes even if the thread is
    // deactivated meanwhile (removal happens at boundaries; in-flight data
    // objects are still owned by their destination).
    let mut b = AppBuilder::new("inflight");
    b.thread_group("workers", 2);
    let main = b.thread_on_node("main", 2);
    let fan = b.declare("fan", OpKind::Split);
    let leaf = b.declare("leaf", OpKind::Leaf);
    let merge = b.declare("merge", OpKind::Merge);
    b.body(fan, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            // Send one piece to each worker, then deactivate worker 1.
            ctx.post(
                leaf,
                Box::new(Piece {
                    idx: 0,
                    bytes: 100_000,
                    heap: 0,
                }),
            );
            ctx.post(
                leaf,
                Box::new(Piece {
                    idx: 1,
                    bytes: 100_000,
                    heap: 0,
                }),
            );
            ctx.deactivate_thread(ThreadId(1));
        })
    });
    b.body(leaf, move |_, _| {
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            ctx.charge(MS);
            ctx.post(merge, Box::new(Result_ { bytes: 8 }));
        })
    });
    b.body(merge, move |_, _| {
        let mut seen = 0;
        op_fn(move |_obj, ctx: &mut dyn OpCtx| {
            seen += 1;
            if seen == 2 {
                ctx.terminate();
            }
        })
    });
    b.edge(fan, leaf, round_robin("workers"));
    b.edge(leaf, merge, to_thread(main));
    b.start(fan, main, || Box::new(Work(0)));
    let app = b.build().unwrap();
    let r = simulate(&app, NetParams::fast_ethernet(), &cfg()).unwrap();
    assert!(r.terminated, "in-flight work must finish");
}

#[test]
fn marks_are_time_ordered() {
    let app = pipeline_app(2, 8, US * 5, MS, 1000);
    let r = simulate(&app, NetParams::fast_ethernet(), &cfg()).unwrap();
    let mut last = SimTime::ZERO;
    for (_, t) in &r.marks {
        assert!(*t >= last);
        last = *t;
    }
}
