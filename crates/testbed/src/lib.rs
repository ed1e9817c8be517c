//! Ground truth: the cluster stand-in that "measured" results come from.
//!
//! The paper validates its simulator against a real cluster of Sun
//! workstations on Fast Ethernet. This repository has no such cluster, so
//! the **testbed emulator** ([`fabric::TestbedFabric`]) plays its role: a
//! considerably more detailed, *stochastic* machine model — per-transfer
//! protocol efficiency, latency jitter, TCP slow-start ramp, computation
//! noise, context-switch penalties under processor sharing, and true
//! platform parameters that differ slightly from the values "measured" for
//! the simulator. Every run is seeded and reproducible.
//!
//! The simulator (`dps-sim` with [`dps_sim::SimFabric`]) never sees the
//! testbed's internals — only the published measured parameters — exactly
//! like the paper's simulator only saw measured latency/bandwidth/CPU
//! figures. Comparing the two reproduces the paper's measured-vs-predicted
//! methodology; the residual disagreement is the prediction error of
//! Figure 13.
//!
//! The crate also provides [`native::run_native`], which executes the same
//! unmodified DPS application on real OS threads with real kernels — the
//! "real application" wall-clock rows of Table 1.

#![warn(missing_docs)]

pub mod fabric;
pub mod native;

pub use fabric::{TestbedFabric, TestbedParams};
pub use native::{run_native, NativeReport};

use dps::Application;
use dps_sim::{Fabric, RunReport, SimConfig, SimError, SimResult};

/// Convenience: runs `app` against the testbed emulator — the repository's
/// equivalent of "measuring on the cluster". True parameters that fail
/// [`netmodel::NetParams::validate`] are a protocol error.
pub fn measure(
    app: &Application,
    params: TestbedParams,
    seed: u64,
    cfg: &SimConfig,
) -> SimResult<RunReport> {
    params
        .true_net
        .validate()
        .map_err(|e| SimError::protocol(format!("invalid network parameters: {e}")))?;
    let mut fabric = TestbedFabric::new(params, seed);
    // Through `dyn Fabric`, so this run shares the engine copy of every
    // other non-`SimFabric` caller instead of compiling its own.
    dps_sim::simulate_with_fabric(app, &mut fabric as &mut dyn Fabric, cfg)
}
