//! Seeded random fault-schedule generation.
//!
//! [`FaultGenConfig`] describes the *shape* of a fault workload (how many
//! crashes, preemptions, slowdowns, degradations over what horizon on how
//! many nodes); [`FaultGenConfig::generate`] expands it into a concrete
//! [`FaultPlan`] from a single `u64` seed. Two calls with the same config
//! and seed produce identical plans, so every experiment is reproducible
//! from one number.

use desim::{SimDuration, SimTime};
use simrng::{Rng, Xoshiro256};

use crate::plan::{CheckpointSpec, FaultEvent, FaultKind, FaultPlan};

/// Shape of a randomly generated fault workload.
#[derive(Clone, Copy, Debug)]
pub struct FaultGenConfig {
    /// Number of nodes faults may strike (indices `0..nodes`).
    pub nodes: u32,
    /// Time horizon fault start times are drawn from.
    pub horizon: SimDuration,
    /// Number of `NodeCrash` events.
    pub crashes: usize,
    /// Number of `NodePreempt` events (return after 5–20% of the horizon).
    pub preempts: usize,
    /// Number of `NodeSlowdown` windows (factor 0.3–0.9, 5–25% of the
    /// horizon long).
    pub slowdowns: usize,
    /// Number of `LinkDegrade` windows (factor 0.2–0.8, 5–25% of the
    /// horizon long).
    pub degrades: usize,
    /// Checkpoint/restart model attached to the generated plan.
    pub checkpoint: CheckpointSpec,
}

impl FaultGenConfig {
    /// A quiet baseline over `nodes` and `horizon`: no faults, no
    /// checkpointing. Set the count fields to taste.
    pub fn quiet(nodes: u32, horizon: SimDuration) -> FaultGenConfig {
        FaultGenConfig {
            nodes,
            horizon,
            crashes: 0,
            preempts: 0,
            slowdowns: 0,
            degrades: 0,
            checkpoint: CheckpointSpec::none(),
        }
    }

    /// Expands the config into a concrete plan, deterministically from
    /// `seed`.
    pub fn generate(&self, seed: u64) -> FaultPlan {
        assert!(self.nodes > 0, "fault generation needs at least one node");
        assert!(!self.horizon.is_zero(), "fault generation needs a horizon");
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let h = self.horizon.as_nanos();
        let at = |rng: &mut Xoshiro256| SimTime(rng.gen_below(h));
        let node = |rng: &mut Xoshiro256| rng.gen_below(u64::from(self.nodes)) as u32;
        let frac = |rng: &mut Xoshiro256, lo: f64, hi: f64| {
            SimDuration::from_nanos((rng.gen_range_f64(lo, hi) * h as f64) as u64)
                .max(SimDuration(1))
        };

        let mut events =
            Vec::with_capacity(self.crashes + self.preempts + self.slowdowns + self.degrades);
        for _ in 0..self.crashes {
            events.push(FaultEvent {
                at: at(&mut rng),
                node: node(&mut rng),
                kind: FaultKind::NodeCrash,
            });
        }
        for _ in 0..self.preempts {
            events.push(FaultEvent {
                at: at(&mut rng),
                node: node(&mut rng),
                kind: FaultKind::NodePreempt {
                    return_after: frac(&mut rng, 0.05, 0.20),
                },
            });
        }
        for _ in 0..self.slowdowns {
            events.push(FaultEvent {
                at: at(&mut rng),
                node: node(&mut rng),
                kind: FaultKind::NodeSlowdown {
                    factor: rng.gen_range_f64(0.3, 0.9),
                    window: frac(&mut rng, 0.05, 0.25),
                },
            });
        }
        for _ in 0..self.degrades {
            events.push(FaultEvent {
                at: at(&mut rng),
                node: node(&mut rng),
                kind: FaultKind::LinkDegrade {
                    factor: rng.gen_range_f64(0.2, 0.8),
                    window: frac(&mut rng, 0.05, 0.25),
                },
            });
        }
        FaultPlan::new(events, self.checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FaultGenConfig {
        FaultGenConfig {
            crashes: 2,
            preempts: 2,
            slowdowns: 3,
            degrades: 3,
            checkpoint: CheckpointSpec::every(2, SimDuration(10), SimDuration(20)),
            ..FaultGenConfig::quiet(8, SimDuration::from_secs(100))
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = cfg().generate(7);
        let b = cfg().generate(7);
        let c = cfg().generate(8);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn generated_events_respect_the_config() {
        let p = cfg().generate(42);
        assert_eq!(p.events.len(), 10);
        assert_eq!(p.outages().len(), 4);
        assert_eq!(p.cpu_windows().len(), 3);
        assert_eq!(p.link_windows().len(), 3);
        let horizon = SimTime::ZERO + SimDuration::from_secs(100);
        for e in &p.events {
            assert!(e.node < 8);
            assert!(e.at < horizon);
        }
        for w in p.cpu_windows() {
            assert!(w.factor >= 0.3 && w.factor <= 0.9);
            assert!(w.to > w.from);
        }
        // Events come out time-sorted.
        for pair in p.events.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        assert_eq!(p.checkpoint.interval, 2);
    }

    #[test]
    fn quiet_config_generates_the_empty_plan() {
        let p = FaultGenConfig::quiet(4, SimDuration::from_secs(10)).generate(1);
        assert!(p.is_empty());
    }
}
