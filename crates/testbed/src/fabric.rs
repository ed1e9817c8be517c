//! The stochastic ground-truth machine model.
//!
//! Sources of divergence from the simulator's idealized flow model, each of
//! which exists on a real cluster and none of which the simulator is told
//! about:
//!
//! * **protocol efficiency** — each transfer's bytes are inflated by a
//!   sampled factor (headers beyond the modeled constant, retransmits,
//!   ack-clocking inefficiency);
//! * **latency jitter** — a lognormal extra delay added to every transfer;
//! * **TCP slow start** — every transfer pays the round trips an 8-KiB
//!   one spends while the congestion window opens;
//! * **computation noise** — kernel durations vary (cache state, TLB,
//!   daemons) by a sampled lognormal factor;
//! * **context-switch penalty** — processor sharing between k runnable
//!   operations is slightly worse than ideal;
//! * **parameter skew** — the testbed's *true* bandwidth/latency/CPU-cost
//!   values differ by a few percent from the values "measured" for the
//!   simulator (measurement error).
//!
//! Everything is driven by a seeded [`Xoshiro256`]; runs are reproducible.

use std::collections::BTreeMap;

use desim::{SimDuration, SimTime};
use dps_sim::Fabric;
use netmodel::network::NetStats;
use netmodel::{NetEvent, NetParams, Network, NodeId, Sharing};
use simrng::{Rng, Xoshiro256};

/// True machine parameters plus noise magnitudes.
#[derive(Clone, Copy, Debug)]
pub struct TestbedParams {
    /// The machine's *true* link/CPU parameters (the simulator gets a
    /// slightly different, "measured" copy).
    pub true_net: NetParams,
    /// Mean protocol efficiency (fraction of nominal goodput actually
    /// achieved), e.g. 0.94.
    pub proto_efficiency_mean: f64,
    /// Std-dev of the per-transfer efficiency sample.
    pub proto_efficiency_sd: f64,
    /// Std-dev of the multiplicative computation noise (lognormal σ).
    pub compute_noise_sd: f64,
    /// Std-dev of the per-transfer extra latency, in seconds.
    pub latency_jitter_sd: f64,
    /// Round-trip estimate used by the slow-start ramp model.
    pub rtt: SimDuration,
    /// Maximum segment size for the slow-start ramp model.
    pub mss_bytes: f64,
    /// Per-extra-runnable-step context switching penalty (fraction).
    pub ctx_switch_penalty: f64,
}

impl TestbedParams {
    /// The stand-in for the paper's Sun/Fast-Ethernet cluster. True values
    /// deliberately differ by a few percent from
    /// [`NetParams::fast_ethernet`], which is what the simulator is given.
    pub fn sun_cluster() -> TestbedParams {
        TestbedParams {
            true_net: NetParams {
                latency: SimDuration::from_micros(76),
                up_bytes_per_sec: 100e6 / 8.0 * 0.985,
                down_bytes_per_sec: 100e6 / 8.0 * 0.985,
                cpu_in_cost: 0.058,
                cpu_out_cost: 0.024,
                per_message_overhead_bytes: 78,
            },
            proto_efficiency_mean: 0.965,
            proto_efficiency_sd: 0.012,
            compute_noise_sd: 0.025,
            latency_jitter_sd: 18e-6,
            rtt: SimDuration::from_micros(170),
            mss_bytes: 1460.0,
            ctx_switch_penalty: 0.015,
        }
    }

    /// A nearly noise-free testbed whose true parameters match the measured
    /// ones — useful for tests that want the two engines to agree tightly.
    pub fn calm(net: NetParams) -> TestbedParams {
        TestbedParams {
            true_net: net,
            proto_efficiency_mean: 1.0,
            proto_efficiency_sd: 0.0,
            compute_noise_sd: 0.0,
            latency_jitter_sd: 0.0,
            rtt: SimDuration::ZERO,
            mss_bytes: 1460.0,
            ctx_switch_penalty: 0.0,
        }
    }
}

/// The stochastic fabric (see module docs). Implements [`Fabric`] so the
/// same engine that runs the simulator runs the testbed.
pub struct TestbedFabric {
    params: TestbedParams,
    net: Network,
    rng: Xoshiro256,
    /// Completed inner transfers held back for their sampled tail delay,
    /// keyed (release time, handle) for deterministic ordering.
    held: BTreeMap<(SimTime, u64), u64>,
}

impl TestbedFabric {
    /// Creates an empty instance. Panics on true parameters that fail
    /// [`NetParams::validate`]; [`crate::measure`] returns them as a typed
    /// error instead.
    pub fn new(params: TestbedParams, seed: u64) -> TestbedFabric {
        TestbedFabric {
            params,
            net: Network::new(params.true_net, Sharing::EqualSplit),
            rng: Xoshiro256::seed_from_u64(seed),
            held: BTreeMap::new(),
        }
    }

    /// Approximate standard normal (Irwin–Hall, see [`simrng::Rng`]).
    fn std_normal(&mut self) -> f64 {
        self.rng.std_normal()
    }

    fn lognormal(&mut self, sigma: f64) -> f64 {
        if sigma <= 0.0 {
            return 1.0;
        }
        (self.std_normal() * sigma).exp()
    }

    /// Extra tail delay for a completed transfer: a latency-jitter sample
    /// plus the slow-start ramp of an 8-KiB transfer. The inner network
    /// reports completions by id only, so every transfer is charged the
    /// same representative ramp; its size acts through the efficiency
    /// inflation applied at start.
    fn tail_delay(&mut self) -> SimDuration {
        if self.params.latency_jitter_sd <= 0.0 && self.params.rtt.is_zero() {
            return SimDuration::ZERO;
        }
        let jitter = (self.std_normal() * self.params.latency_jitter_sd).max(0.0);
        let segs = 8.0 * 1024.0 / self.params.mss_bytes;
        // Slow start doubles the window each RTT starting from ~2 segments;
        // a transfer of `segs` segments spends ~log2(segs/2) RTTs ramping.
        let ramp_rtts = if segs > 2.0 {
            (segs / 2.0).log2().min(6.0)
        } else {
            0.0
        };
        SimDuration::from_secs_f64(jitter) + self.params.rtt.mul_f64(ramp_rtts * 0.5)
    }
}

impl Fabric for TestbedFabric {
    fn start_transfer(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> u64 {
        let eff = (self.params.proto_efficiency_mean
            + self.std_normal() * self.params.proto_efficiency_sd)
            .clamp(0.75, 1.0);
        let wire = (bytes as f64 / eff).ceil() as u64;
        self.net.start_flow(now, src, dst, wire).0
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        let held = self.held.keys().next().map(|&(t, _)| t);
        SimTime::earlier(self.net.next_event_time(), held)
    }

    fn advance_into(&mut self, now: SimTime, out: &mut Vec<u64>) {
        // Inner completions are held for their sampled tail delay...
        for NetEvent::Completed(id) in self.net.advance(now) {
            let release = now + self.tail_delay();
            self.held.insert((release, id.0), id.0);
        }
        // ...and released once their time comes.
        while let Some(&(t, _)) = self.held.keys().next() {
            if t > now {
                break;
            }
            let ((_, _), h) = self.held.pop_first().expect("just peeked");
            out.push(h);
        }
    }

    fn cpu_available(&self, node: NodeId) -> f64 {
        // The same linear model as the simulator's, on the true parameters.
        self.net.cpu_available(node)
    }

    fn comm_dirty_nodes(&mut self, out: &mut Vec<NodeId>) {
        self.net.drain_comm_dirty(out);
    }

    fn compute_time(&mut self, _node: NodeId, nominal: SimDuration) -> SimDuration {
        if nominal.is_zero() {
            return nominal;
        }
        nominal.mul_f64(self.lognormal(self.params.compute_noise_sd))
    }

    fn sharing_penalty(&self, k: usize) -> f64 {
        1.0 + self.params.ctx_switch_penalty * (k.saturating_sub(1)) as f64
    }

    fn net_stats(&self) -> NetStats {
        self.net.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(f: &mut TestbedFabric) -> Vec<(SimTime, u64)> {
        let (mut out, mut done) = (Vec::new(), Vec::new());
        while let Some(t) = f.next_event_time() {
            f.advance_into(t, &mut done);
            out.extend(done.drain(..).map(|h| (t, h)));
        }
        out
    }

    #[test]
    fn calm_testbed_matches_ideal_formula() {
        let mut net = NetParams::fast_ethernet();
        net.per_message_overhead_bytes = 0;
        let mut f = TestbedFabric::new(TestbedParams::calm(net), 1);
        f.start_transfer(SimTime::ZERO, NodeId(0), NodeId(1), 1_250_000);
        let done = drain(&mut f);
        assert_eq!(done.len(), 1);
        // 1.25 MB at 12.5 MB/s = 100 ms + 70 us latency.
        let expect = net.uncontended_transfer_time(1_250_000);
        let got = done[0].0;
        assert_eq!(got, SimTime::ZERO + expect);
    }

    #[test]
    fn noisy_testbed_is_seeded_and_reproducible() {
        let p = TestbedParams::sun_cluster();
        let run = |seed| {
            let mut f = TestbedFabric::new(p, seed);
            for i in 0..5 {
                f.start_transfer(SimTime::ZERO, NodeId(0), NodeId(1 + i), 100_000);
            }
            drain(&mut f)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn transfers_are_slower_than_the_nominal_model() {
        // Protocol efficiency < 1 and slow start make the testbed strictly
        // slower than l + s/b on the true parameters.
        let p = TestbedParams::sun_cluster();
        let mut f = TestbedFabric::new(p, 3);
        f.start_transfer(SimTime::ZERO, NodeId(0), NodeId(1), 1_000_000);
        let done = drain(&mut f);
        let nominal = p.true_net.uncontended_transfer_time(1_000_000);
        assert!(done[0].0 > SimTime::ZERO + nominal);
        // ...but within ~15% of it.
        let ratio = done[0].0.as_secs_f64() / nominal.as_secs_f64();
        assert!(ratio < 1.15, "testbed {ratio}x slower than nominal");
    }

    #[test]
    fn compute_noise_averages_to_one() {
        let mut f = TestbedFabric::new(TestbedParams::sun_cluster(), 11);
        let nominal = SimDuration::from_millis(10);
        let n = 500;
        let mean: f64 = (0..n)
            .map(|_| f.compute_time(NodeId(0), nominal).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        let rel = mean / nominal.as_secs_f64();
        assert!((0.99..1.01).contains(&rel), "noise is biased: {rel}");
        // Zero stays zero.
        assert_eq!(
            f.compute_time(NodeId(0), SimDuration::ZERO),
            SimDuration::ZERO
        );
    }

    #[test]
    fn sharing_penalty_grows_with_load() {
        let f = TestbedFabric::new(TestbedParams::sun_cluster(), 0);
        assert_eq!(f.sharing_penalty(1), 1.0);
        assert!(f.sharing_penalty(4) > f.sharing_penalty(2));
        let calm = TestbedFabric::new(TestbedParams::calm(NetParams::ideal()), 0);
        assert_eq!(calm.sharing_penalty(8), 1.0);
    }
}
