//! The paper's future work, runnable end to end: a cluster server
//! scheduling real simulated applications — two block LU factorizations
//! and a Jacobi stencil, side by side — whose node allocations vary
//! dynamically based on per-iteration efficiency profiles obtained from
//! dps-sim runs of each application.
//!
//! Run with: `cargo run --release --example cluster_server`

use dvns::cluster_svc::{completions, decision, ClusterService, ServeOptions, DECISION_LABELS};
use dvns::desim::JournalEvent;
use dvns::faults::FaultPlan;
use dvns::workload::{one_cell_config, server_policies, sim_job_set, SimEnv};

/// Names of `sim_job_set`'s jobs, by submission id.
const NAMES: [&str; 3] = ["lu-a", "stencil-b", "lu-c"];

fn main() {
    let env = SimEnv::paper();
    let opts = ServeOptions {
        journal: true,
        ..ServeOptions::default()
    };

    for (label, policy) in server_policies() {
        // One cell of 8 nodes, one tenant: the service as a batch server.
        let out = ClusterService::new(one_cell_config(8, policy))
            .expect("valid config")
            .serve(sim_job_set(&env), &FaultPlan::none(), &opts)
            .expect("sim-backed jobs serve");
        let journal = out.journal.expect("journal requested");
        println!("== {label} ==");
        // The decision journal is the per-job view: where each job was
        // placed, shrunk and completed, on how many nodes (growing back
        // into freed nodes is not a journaled decision).
        for e in &journal.entries {
            if let JournalEvent::Step { job, op, start, .. } = e.event {
                if op != decision::ADMIT {
                    println!(
                        "  {:>6.3}s  {:<8}  {:<10} {start} nodes",
                        e.vtime.as_secs_f64(),
                        DECISION_LABELS[op as usize],
                        NAMES[job as usize]
                    );
                }
            }
        }
        let done: Vec<f64> = completions(&journal)
            .map(|(_, t)| t.as_secs_f64())
            .collect();
        let r = &out.report;
        println!(
            "  makespan {:.2}s   mean completion {:.2}s   allocation efficiency {:.1}%   \
             {} profiles simulated\n",
            r.makespan.as_secs_f64(),
            done.iter().sum::<f64>() / done.len() as f64,
            r.allocation_efficiency() * 100.0,
            r.cache_misses
        );
    }
    println!("the malleable policy shrinks the LU jobs once their simulated efficiency");
    println!("drops below 50%, freeing nodes for the queued stencil — earlier completions");
    println!("and higher useful-work density, the paper's motivation for dynamic allocation.");
}
