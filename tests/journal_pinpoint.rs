//! The journal pinpointer names the exact event two runs part at: a
//! recorded LU stream with two same-instant atomic steps swapped (the
//! commit-order bug a broken tie-break would cause) yields a
//! first-diverging-event diagnostic naming the index, the ticket, the op
//! and the virtual time — not a whole-report diff.

use dvns::desim::SimDuration;
use dvns::lu_app::{build_lu_app, DataMode, LuConfig};
use dvns::netmodel::NetParams;
use dvns::perfmodel::{LuCost, PlatformProfile};
use dvns::sim::{JournalEvent, SimConfig, TimingMode};

fn simcfg() -> SimConfig {
    SimConfig {
        timing: TimingMode::ChargedOnly,
        step_overhead: SimDuration::from_micros(50),
        record_journal: true,
        ..SimConfig::default()
    }
}

#[test]
fn swapped_same_instant_steps_are_pinpointed() {
    let mut cfg = LuConfig::new(288, 36, 4);
    cfg.mode = DataMode::Ghost;
    cfg.cost = Some(LuCost::new(PlatformProfile::ultrasparc_ii_440()));
    let (app, _) = build_lu_app(cfg);
    let report = dvns::sim::simulate(&app, NetParams::fast_ethernet(), &simcfg()).unwrap();
    let recorded = report.journal.expect("journal recorded");

    // The first two `Step` entries committed at one virtual instant.
    let steps: Vec<usize> = (0..recorded.len())
        .filter(|&i| matches!(recorded.entries[i].event, JournalEvent::Step { .. }))
        .collect();
    let (i, j) = steps
        .windows(2)
        .map(|w| (w[0], w[1]))
        .find(|&(i, j)| recorded.entries[i].vtime == recorded.entries[j].vtime)
        .expect("two steps finish at one instant");

    let mut swapped = recorded.clone();
    swapped.entries.swap(i, j);
    let d = swapped
        .first_divergence(&recorded)
        .expect("a swap diverges");
    let JournalEvent::Step { job, op, .. } = swapped.entries[i].event else {
        unreachable!("entry {i} is a step");
    };
    assert_eq!(d.index, i as u64, "{d}");
    assert_eq!(d.ticket, Some(job), "{d}");
    assert_eq!(d.op, Some(op), "{d}");
    assert_eq!(d.vtime_ours, Some(recorded.entries[i].vtime), "{d}");
    assert_eq!(d.field, "Step.job", "{d}");
    // Visible under `--nocapture`; the README quotes this output.
    println!("pinpointed: {d}");
    let msg = d.to_string();
    for part in ["first diverging event #", "ticket", "op", "vtime"] {
        assert!(msg.contains(part), "{part}: {msg}");
    }
}
