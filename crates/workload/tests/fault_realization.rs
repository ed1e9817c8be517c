//! Property tests for fault realization: the involuntary path (a crash
//! played through `realize_under_faults`) must degenerate to the voluntary
//! path (`LuWorkload::realize` on a shrink schedule) exactly when the fault
//! model adds nothing — a crash *on* an iteration boundary, checkpoints
//! every iteration, and zero checkpoint/restart costs.

use cluster::Workload;
use desim::{SimDuration, SimTime};
use faults::{CheckpointSpec, FaultEvent, FaultKind, FaultPlan};
use workload::SimEnv;

#[test]
fn boundary_crash_with_free_checkpoints_equals_voluntary_shrink() {
    let env = SimEnv::paper();
    let w = env.lu_workload(env.lu_sized(144, 36, 4));
    assert_eq!(w.iterations(), 4);

    // Crash node 3 exactly when iteration 2 begins.
    let base = w.profile(4).unwrap();
    let boundary = SimTime::ZERO + base.points[0].span + base.points[1].span;
    let plan = FaultPlan::new(
        vec![FaultEvent {
            at: boundary,
            node: 3,
            kind: FaultKind::NodeCrash,
        }],
        CheckpointSpec::every(1, SimDuration::ZERO, SimDuration::ZERO),
    );

    let run = w
        .realize_under_faults(4, &plan)
        .unwrap()
        .expect("basic LU graphs realize fault schedules");
    assert_eq!(run.schedule, vec![4, 4, 3, 3]);
    assert_eq!(run.restarts, 1, "the crash still counts as an interruption");
    assert_eq!(
        run.lost_work,
        SimDuration::ZERO,
        "nothing was in flight and the checkpoint is one iteration old"
    );

    let voluntary = w
        .realize(&[4, 4, 3, 3])
        .unwrap()
        .expect("shrink-only schedules are realizable");
    assert_eq!(run.profile.points.len(), voluntary.points.len());
    for (a, b) in run.profile.points.iter().zip(&voluntary.points) {
        assert_eq!(a.span, b.span, "{}: span must match exactly", a.label);
        assert_eq!(a.cpu_work, b.cpu_work, "{}: work must match", a.label);
        assert_eq!(
            a.efficiency, b.efficiency,
            "{}: efficiency must match",
            a.label
        );
    }
}

#[test]
fn mid_iteration_crash_charges_replay_on_top_of_the_shrink() {
    let env = SimEnv::paper();
    let w = env.lu_workload(env.lu_sized(144, 36, 4));
    let base = w.profile(4).unwrap();
    // Strictly inside iteration 2, with no checkpoints: everything done so
    // far replays.
    let inside = SimTime::ZERO
        + base.points[0].span
        + base.points[1].span
        + base.points[2].span.mul_f64(0.5);
    let plan = FaultPlan::new(
        vec![FaultEvent {
            at: inside,
            node: 3,
            kind: FaultKind::NodeCrash,
        }],
        CheckpointSpec::none(),
    );
    let run = w
        .realize_under_faults(4, &plan)
        .unwrap()
        .expect("realizable");
    assert_eq!(run.schedule, vec![4, 4, 4, 3]);
    let voluntary = w.realize(&[4, 4, 4, 3]).unwrap().expect("realizable");
    // The restart iteration replays iterations 0..2 plus the lost half of
    // iteration 2; everything before it is untouched.
    let replay = base.points[0].span + base.points[1].span + base.points[2].span.mul_f64(0.5);
    assert_eq!(
        run.profile.points[3].span,
        voluntary.points[3].span + replay
    );
    for i in 0..3 {
        assert_eq!(run.profile.points[i].span, voluntary.points[i].span);
    }
    assert!(run.lost_work > SimDuration::ZERO);
}
