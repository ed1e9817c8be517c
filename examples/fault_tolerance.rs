//! Fault injection end to end: a deterministic, seeded fault schedule
//! played against both a single simulated application and the cluster
//! server, with checkpoint/restart costs and an elastic-recovery policy.
//!
//! Run with: `cargo run --release --example fault_tolerance`

use dvns::cluster_svc::SchedulePolicy;
use dvns::cluster_svc::{completions, ClusterService, ServeOptions, ServiceOutcome};
use dvns::desim::{SimDuration, SimTime};
use dvns::faults::{CheckpointSpec, FaultGenConfig, FaultPlan};
use dvns::workload::{fault_server_policies, one_cell_config, sim_job_set, SimEnv};

fn main() {
    let env = SimEnv::paper();

    // --- One application under a crash -----------------------------------
    // A node crash mid-run maps onto the DPS thread-removal machinery at
    // the next iteration boundary; the work since the last checkpoint is
    // replayed on the survivors.
    let w = env.lu_workload(env.lu_sized(288, 36, 8));
    let quiet_span = dvns::cluster::Workload::profile(&w, 8)
        .expect("quiet LU profile")
        .total_span();
    let app_plan = FaultGenConfig {
        crashes: 1,
        checkpoint: CheckpointSpec::every(
            3,
            SimDuration::from_millis(50),
            SimDuration::from_millis(200),
        ),
        ..FaultGenConfig::quiet(8, quiet_span.mul_f64(0.8))
    }
    .generate(env.seed);
    let run = w
        .realize_under_faults(8, &app_plan)
        .expect("faulted realization run")
        .expect("basic LU graphs realize fault schedules");
    println!("== LU under a seeded crash (seed {}) ==", env.seed);
    println!("  quiet span    {:>8.2}s", quiet_span.as_secs_f64());
    println!(
        "  faulted span  {:>8.2}s   restarts {}   lost work {:.2}s",
        run.profile.total_span().as_secs_f64(),
        run.restarts,
        run.lost_work.as_secs_f64()
    );
    println!("  node schedule {:?}\n", run.schedule);

    // --- The cluster server under the same kind of weather ----------------
    // Rigid restarts interrupted jobs from scratch; malleable does too but
    // reallocates; elastic recovery requeues with backoff and resumes from
    // the last checkpoint. The server is the cluster service on one cell of
    // 8 nodes.
    let opts = ServeOptions {
        journal: true,
        ..ServeOptions::default()
    };
    let serve = |policy, plan: &FaultPlan| -> ServiceOutcome {
        ClusterService::new(one_cell_config(8, policy))
            .expect("valid config")
            .serve(sim_job_set(&env), plan, &opts)
            .expect("sim-backed jobs serve")
    };
    let quiet = serve(SchedulePolicy::Rigid, &FaultPlan::none()).report;
    let server_plan = FaultGenConfig {
        crashes: 1,
        preempts: 1,
        checkpoint: CheckpointSpec::every(
            2,
            SimDuration::from_millis(50),
            SimDuration::from_millis(200),
        ),
        ..FaultGenConfig::quiet(8, (quiet.makespan - SimTime::ZERO).mul_f64(0.6))
    }
    .generate(env.seed);

    println!("== cluster server under crash + preemption ==");
    for (label, policy) in fault_server_policies() {
        let out = serve(policy, &server_plan);
        let done: Vec<f64> = completions(out.journal.as_ref().expect("journal requested"))
            .map(|(_, t)| t.as_secs_f64())
            .collect();
        let report = &out.report;
        println!(
            "  {label:<10} makespan {:>7.2}s   mean completion {:>7.2}s   \
             restarts {}   lost work {:.2}s   degraded {:.2}s",
            report.makespan.as_secs_f64(),
            done.iter().sum::<f64>() / done.len() as f64,
            report.total_restarts(),
            report.total_lost_work().as_secs_f64(),
            report.total_degraded().as_secs_f64()
        );
    }
    println!();
    println!("all three policies face the identical fault schedule. rigid and malleable");
    println!("restart interrupted jobs from scratch; elastic recovery resumes from the");
    println!("last checkpoint and pays a requeue backoff before rescheduling — a delay");
    println!("that dominates at this toy scale but amortizes on long jobs.");
}
