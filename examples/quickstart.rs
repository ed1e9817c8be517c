//! Quickstart: the paper's Figure 1 flow graph — split, parallel compute,
//! merge — simulated on a 4-node cluster, with the reconstructed schedule
//! printed as a Gantt chart (the paper's Figure 2).
//!
//! Run with: `cargo run --example quickstart`

use dvns::desim::SimDuration;
use dvns::dps::prelude::*;
use dvns::netmodel::NetParams;
use dvns::sim::{simulate, trace_from_journal, SimConfig, TimingMode};

struct Work(u64);
struct Piece {
    bytes: u64,
}
struct Answer;

dvns::dps::wire_size_fixed!(Work, 8);
dvns::dps::wire_size_fixed!(Answer, 8);
impl DataObject for Piece {
    fn wire_size(&self) -> u64 {
        self.bytes
    }
}

fn main() {
    let mut b = AppBuilder::new("quickstart");
    b.thread_group("workers", 3); // leaf operations on nodes 0..3
    let main = b.thread_on_node("main", 3); // split + merge on node 3

    let split = b.declare("split", OpKind::Split);
    let compute = b.declare("compute", OpKind::Leaf);
    let merge = b.declare("merge", OpKind::Merge);

    b.body(split, move |_, _| {
        op_fn(move |obj: DataObj, ctx: &mut dyn OpCtx| {
            let w: Work = downcast(obj);
            for i in 0..w.0 {
                // Generating each subtask costs 2 ms; each carries 200 kB.
                ctx.charge(SimDuration::from_millis(2));
                ctx.post(compute, Box::new(Piece { bytes: 200_000 + i }));
            }
        })
    });
    b.body(compute, move |_, _| {
        op_fn(move |obj: DataObj, ctx: &mut dyn OpCtx| {
            let _p: Piece = downcast(obj);
            ctx.charge(SimDuration::from_millis(40)); // the real work
            ctx.post(merge, Box::new(Answer));
        })
    });
    b.body(merge, move |_, _| {
        let mut seen = 0;
        op_fn(move |_obj: DataObj, ctx: &mut dyn OpCtx| {
            ctx.charge(SimDuration::from_micros(200)); // aggregation
            seen += 1;
            if seen == 6 {
                ctx.terminate();
            }
        })
    });

    b.edge(split, compute, round_robin("workers"));
    b.edge(compute, merge, to_thread(main));
    b.start(split, main, || Box::new(Work(6)));
    let app = b.build().expect("valid application");

    let cfg = SimConfig {
        timing: TimingMode::ChargedOnly,
        record_journal: true,
        ..SimConfig::default()
    };
    let report = simulate(&app, NetParams::fast_ethernet(), &cfg).expect("simulation runs");

    println!("predicted running time: {}", report.completion);
    println!(
        "atomic steps executed: {}, transfers: {}",
        report.steps, report.net.flows_completed
    );
    println!(
        "overall efficiency: {:.1}%\n",
        report.overall_efficiency() * 100.0
    );
    println!("reconstructed schedule (first letter of each operation):");
    let journal = report.journal.expect("journal recorded");
    print!("{}", trace_from_journal(&journal, &app).gantt(72));
}
