//! Seed → inputs. Everything the four workloads feed the program is built
//! here from `(Sizes, seed)`; the program never sees the seed itself.

use std::sync::Arc;

use cluster::Workload;
use cluster_svc::{JobSpec, ServiceConfig, SyntheticLoad};
use desim::SimTime;
use faults::FaultPlan;
use lu_app::LuConfig;
use workload::{
    server_scale_config, server_scale_load, server_scale_plan, server_whatif_config, LuWorkload,
    SimEnv,
};

/// Seed of `golden.json`, and the default of every subcommand.
pub const DEFAULT_SEED: u64 = 1;

/// Shard count of every service run (the count the repo's own scale
/// measurements use). One `serve` runs on one host thread at any count.
const SHARDS: u32 = 4;

/// Input sizes. `full` is what gets recorded; `quick` only checks that
/// every code path and metric name works and is never recorded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sizes {
    /// LU matrix order of the three timed predictions.
    pub lu_n: usize,
    /// Block size of the fine-grained basic case.
    pub lu_r_fine: usize,
    /// Block size of the pipelined and the removal case.
    pub lu_r_coarse: usize,
    /// `(n, r)` of the prediction-error reference (paper Fig. 13 setting).
    pub err_shape: (usize, usize),
    /// `measure` seeds averaged for the prediction error.
    pub err_seeds: u64,
    pub scale_jobs: u64,
    pub whatif_synthetic: u64,
    pub whatif_boxed: usize,
    /// The eight `(n, r)` LU shapes of the what-if stream.
    pub whatif_shapes: [(usize, usize); 8],
    pub durable_jobs: u64,
    /// Committed events per sealed WAL frame.
    pub group_events: u64,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            lu_n: 7776,
            lu_r_fine: 108,
            lu_r_coarse: 216,
            err_shape: (2592, 216),
            err_seeds: 8,
            scale_jobs: 1_050_000,
            whatif_synthetic: 5_000,
            whatif_boxed: 400,
            whatif_shapes: [
                (432, 54),
                (432, 36),
                (648, 81),
                (648, 54),
                (864, 108),
                (864, 72),
                (1296, 162),
                (1296, 108),
            ],
            durable_jobs: 200_000,
            group_events: 4096,
        }
    }

    pub fn quick() -> Sizes {
        Sizes {
            lu_n: 864,
            lu_r_fine: 54,
            lu_r_coarse: 72,
            err_shape: (432, 54),
            err_seeds: 2,
            scale_jobs: 4_000,
            whatif_synthetic: 400,
            whatif_boxed: 12,
            // Cost follows the block count n ÷ r, not n: 4 and 6 blocks.
            whatif_shapes: [
                (216, 54),
                (216, 36),
                (288, 72),
                (288, 48),
                (360, 90),
                (360, 60),
                (432, 108),
                (432, 72),
            ],
            durable_jobs: 3_000,
            group_events: 256,
        }
    }
}

/// SplitMix64: the benchmark's own generator, so inputs do not move when
/// the repo's generators do.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// The simulator environment every workload predicts with: the paper's
/// platform, serial engine pinned explicitly.
pub fn env() -> SimEnv {
    SimEnv::paper().with_engine_threads(1)
}

/// The three LU predictions of one `lu_predict` repetition.
pub struct LuInputs {
    pub env: SimEnv,
    /// Fine basic, coarse pipelined + flow control, coarse basic with a
    /// seeded removal of half the nodes.
    pub cases: [LuConfig; 3],
    /// The reference shape the prediction error is taken on.
    pub err_case: LuConfig,
    pub err_seeds: u64,
}

/// Iteration after which the removal case drops half its nodes: anywhere
/// in the middle two thirds of the run (6..=30 of 36 at full size).
pub fn removal_after(k_blocks: usize, seed: u64) -> usize {
    let lo = (k_blocks / 6).max(1) as u64;
    let hi = (k_blocks * 5 / 6).max(lo as usize) as u64;
    Rng::new(seed).range(lo, hi) as usize
}

pub fn lu_inputs(sz: &Sizes, seed: u64) -> LuInputs {
    let env = env();
    let fine = env.lu_sized(sz.lu_n, sz.lu_r_fine, 8);
    let mut piped = env.lu_sized(sz.lu_n, sz.lu_r_coarse, 8);
    piped.pipelined = true;
    piped.flow_control = Some(8);
    let mut removal = env.lu_sized(sz.lu_n, sz.lu_r_coarse, 8);
    removal.removal = vec![(removal_after(removal.k_blocks(), seed), 4)];
    let err_case = env.lu_sized(sz.err_shape.0, sz.err_shape.1, 8);
    LuInputs {
        env,
        cases: [fine, piped, removal],
        err_case,
        err_seeds: sz.err_seeds,
    }
}

/// One service run: topology, job stream and fault plan.
pub struct ServiceInputs<S> {
    pub cfg: ServiceConfig,
    pub stream: S,
    pub plan: FaultPlan,
    pub jobs: u64,
}

/// `server_scale`: the million-job analytic stream, quiet.
pub fn scale_inputs(sz: &Sizes, seed: u64) -> ServiceInputs<SyntheticLoad> {
    ServiceInputs {
        cfg: server_scale_config(SHARDS),
        stream: server_scale_load(sz.scale_jobs, seed),
        plan: FaultPlan::none(),
        jobs: sz.scale_jobs,
    }
}

/// `durable_recover`: a shorter stream of the same kind under the seeded
/// fault plan.
pub fn durable_inputs(sz: &Sizes, seed: u64) -> ServiceInputs<SyntheticLoad> {
    ServiceInputs {
        cfg: server_scale_config(SHARDS),
        stream: server_scale_load(sz.durable_jobs, seed),
        plan: server_scale_plan(sz.durable_jobs, seed),
        jobs: sz.durable_jobs,
    }
}

/// `server_whatif`: a short analytic stream with simulator-backed LU jobs
/// of eight shapes mixed in. Shapes are drawn from the seed, tenants go
/// round-robin, arrivals are spread evenly over the stream's span.
pub fn whatif_inputs(sz: &Sizes, seed: u64) -> ServiceInputs<Vec<JobSpec>> {
    let env = env();
    let shapes: Vec<Arc<dyn Workload>> = sz
        .whatif_shapes
        .iter()
        .map(|&(n, r)| {
            let mut cfg = env.lu_sized(n, r, 8);
            cfg.workers = 8;
            Arc::new(LuWorkload::new(cfg, env.net, env.simcfg.clone())) as Arc<dyn Workload>
        })
        .collect();
    let mut specs: Vec<JobSpec> = server_scale_load(sz.whatif_synthetic, seed).collect();
    let horizon = specs.last().map_or(0, |s| s.arrival.as_nanos());
    let tenants = server_whatif_config(SHARDS).tenants.len() as u32;
    let mut rng = Rng::new(seed ^ 0x5748_4154_4946); // "WHATIF"
    let boxed = sz.whatif_boxed as u64;
    for i in 0..boxed {
        let arrival = SimTime(horizon.saturating_mul(i + 1) / (boxed + 1));
        let shape = &shapes[rng.range(0, shapes.len() as u64 - 1) as usize];
        specs.push(JobSpec::boxed(
            i as u32 % tenants,
            arrival,
            8,
            Arc::clone(shape),
        ));
    }
    // Stable: equal arrivals keep synthetic-before-boxed submission order.
    specs.sort_by_key(|s| s.arrival);
    let jobs = specs.len() as u64;
    ServiceInputs {
        cfg: server_whatif_config(SHARDS),
        stream: specs,
        plan: server_scale_plan(sz.whatif_synthetic, seed),
        jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_svc::JobPayload;

    fn stream_print(specs: &[JobSpec]) -> Vec<(u32, u64, u32, String)> {
        specs
            .iter()
            .map(|s| {
                let what = match &s.payload {
                    JobPayload::Analytic(a) => format!("{a:?}"),
                    JobPayload::Boxed(w) => w.key(),
                };
                (s.tenant, s.arrival.as_nanos(), s.requested_nodes, what)
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        let sz = Sizes::quick();
        assert_eq!(
            lu_inputs(&sz, 7).cases[2].removal,
            lu_inputs(&sz, 7).cases[2].removal
        );
        assert_eq!(
            stream_print(&whatif_inputs(&sz, 7).stream),
            stream_print(&whatif_inputs(&sz, 7).stream)
        );
        let a: Vec<JobSpec> = scale_inputs(&sz, 7).stream.collect();
        let b: Vec<JobSpec> = scale_inputs(&sz, 7).stream.collect();
        assert_eq!(stream_print(&a), stream_print(&b));
        assert_eq!(
            format!("{:?}", durable_inputs(&sz, 7).plan.events),
            format!("{:?}", durable_inputs(&sz, 7).plan.events)
        );
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let full = Sizes::full();
        let k = full.lu_n / full.lu_r_coarse;
        let afters: std::collections::BTreeSet<usize> =
            (1..=32).map(|s| removal_after(k, s)).collect();
        assert!(afters.len() > 8, "removal iteration must follow the seed");
        assert!(afters.iter().all(|a| (6..=30).contains(a)));
        assert_ne!(removal_after(k, 1), removal_after(k, 2));

        let sz = Sizes::quick();
        let a: Vec<JobSpec> = scale_inputs(&sz, 1).stream.collect();
        let b: Vec<JobSpec> = scale_inputs(&sz, 2).stream.collect();
        assert_ne!(stream_print(&a), stream_print(&b));
        assert_ne!(
            stream_print(&whatif_inputs(&sz, 1).stream),
            stream_print(&whatif_inputs(&sz, 2).stream)
        );
    }

    #[test]
    fn whatif_stream_mixes_eight_shapes_round_robin_in_arrival_order() {
        let sz = Sizes::quick();
        let inp = whatif_inputs(&sz, 3);
        assert_eq!(
            inp.stream.len() as u64,
            sz.whatif_synthetic + sz.whatif_boxed as u64
        );
        assert!(inp.stream.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        let boxed: Vec<&JobSpec> = inp
            .stream
            .iter()
            .filter(|s| matches!(s.payload, JobPayload::Boxed(_)))
            .collect();
        assert_eq!(boxed.len(), sz.whatif_boxed);
        for (i, s) in boxed.iter().enumerate() {
            assert_eq!(s.tenant, i as u32 % 4);
        }
    }
}
