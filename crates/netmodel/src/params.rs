//! Network platform parameters.
//!
//! These are the "small set of platform-specific parameters" the paper
//! requires to be measured once per target machine: link latency, link
//! bandwidth, and the CPU cost of handling communications.

use desim::SimDuration;

/// Identifies a (virtual) compute node attached to the star switch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Node ids are small and dense in practice: a progress set grouped by node
/// (or node pair) finds its groups by array index.
impl desim::GroupKey for NodeId {
    fn dense_index(self) -> Option<usize> {
        Some(self.0 as usize)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Per-platform communication parameters (uniform across nodes — the paper's
/// clusters are homogeneous; heterogeneity lives in the testbed emulator).
#[derive(Clone, Copy, Debug)]
pub struct NetParams {
    /// One-way latency added to every transfer (the `l` in `t = l + s/b`).
    pub latency: SimDuration,
    /// Uplink capacity of each node, in bytes per second.
    pub up_bytes_per_sec: f64,
    /// Downlink capacity of each node, in bytes per second.
    pub down_bytes_per_sec: f64,
    /// Fraction of a node's CPU consumed by each concurrent incoming
    /// transfer (receiving induces interrupts and memory copies).
    pub cpu_in_cost: f64,
    /// Fraction of a node's CPU consumed by each concurrent outgoing
    /// transfer; the paper notes this is cheaper than receiving.
    pub cpu_out_cost: f64,
    /// Fixed framing overhead added to every data object, in bytes
    /// (serialization header, TCP/IP framing). Zero disables it.
    pub per_message_overhead_bytes: u64,
}

/// Whether `v` is a usable link capacity in bytes/s: finite and positive.
fn is_bandwidth(v: f64) -> bool {
    v.is_finite() && v > 0.0
}

impl NetParams {
    /// Fast Ethernet parameters matching the paper's testbed (100 Mb/s full
    /// duplex, ~70 µs one-way latency as typical for the era's switches and
    /// stacks).
    pub fn fast_ethernet() -> NetParams {
        NetParams {
            latency: SimDuration::from_micros(70),
            up_bytes_per_sec: 100e6 / 8.0,
            down_bytes_per_sec: 100e6 / 8.0,
            cpu_in_cost: 0.055,
            cpu_out_cost: 0.025,
            per_message_overhead_bytes: 64,
        }
    }

    /// Gigabit Ethernet: the "faster network" scenario §4 proposes for
    /// parametric what-if studies.
    pub fn gigabit_ethernet() -> NetParams {
        NetParams {
            latency: SimDuration::from_micros(30),
            up_bytes_per_sec: 1e9 / 8.0,
            down_bytes_per_sec: 1e9 / 8.0,
            cpu_in_cost: 0.04,
            cpu_out_cost: 0.02,
            per_message_overhead_bytes: 64,
        }
    }

    /// An idealized free network: zero latency, (practically) infinite
    /// bandwidth, no CPU cost. Useful for tests isolating computation.
    pub fn ideal() -> NetParams {
        NetParams {
            latency: SimDuration::ZERO,
            up_bytes_per_sec: 1e18,
            down_bytes_per_sec: 1e18,
            cpu_in_cost: 0.0,
            cpu_out_cost: 0.0,
            per_message_overhead_bytes: 0,
        }
    }

    /// Transfer duration of a single uncontended transfer: `l + s/b`.
    pub fn uncontended_transfer_time(&self, bytes: u64) -> SimDuration {
        let b = self
            .up_bytes_per_sec
            .min(self.down_bytes_per_sec)
            .max(f64::MIN_POSITIVE);
        let s = (bytes + self.per_message_overhead_bytes) as f64;
        self.latency + SimDuration::from_secs_f64(s / b)
    }

    /// Checks bandwidths are positive and CPU costs are fractions.
    pub fn validate(&self) -> Result<(), String> {
        if !is_bandwidth(self.up_bytes_per_sec) || !is_bandwidth(self.down_bytes_per_sec) {
            return Err("bandwidth must be positive".into());
        }
        if !(0.0..1.0).contains(&self.cpu_in_cost) || !(0.0..1.0).contains(&self.cpu_out_cost) {
            return Err("cpu comm costs must be in [0,1)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        NetParams::fast_ethernet().validate().unwrap();
        NetParams::gigabit_ethernet().validate().unwrap();
        NetParams::ideal().validate().unwrap();
    }

    #[test]
    fn uncontended_time_matches_formula() {
        let p = NetParams {
            latency: SimDuration::from_micros(100),
            up_bytes_per_sec: 1e6,
            down_bytes_per_sec: 1e6,
            cpu_in_cost: 0.0,
            cpu_out_cost: 0.0,
            per_message_overhead_bytes: 0,
        };
        // 1 MB at 1 MB/s = 1 s, plus 100 us latency.
        let t = p.uncontended_transfer_time(1_000_000);
        assert_eq!(t, SimDuration::from_micros(100) + SimDuration::from_secs(1));
    }

    #[test]
    fn overhead_bytes_count() {
        let mut p = NetParams::ideal();
        p.up_bytes_per_sec = 1000.0;
        p.down_bytes_per_sec = 1000.0;
        p.per_message_overhead_bytes = 100;
        // 900 payload + 100 overhead = 1000 bytes at 1000 B/s = 1 s.
        assert_eq!(p.uncontended_transfer_time(900), SimDuration::from_secs(1));
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = NetParams::fast_ethernet();
        p.up_bytes_per_sec = 0.0;
        assert!(p.validate().is_err());
        let mut p = NetParams::fast_ethernet();
        p.cpu_in_cost = 1.5;
        assert!(p.validate().is_err());
    }
}
