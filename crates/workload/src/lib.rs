//! Unified workload layer: real simulated applications behind the cluster
//! server's [`cluster::Workload`] trait, plus the shared experiment
//! environment and the scenario registry.
//!
//! The paper's stated future work — "a cluster server running concurrently
//! multiple, possibly different applications whose allocations of compute
//! nodes vary dynamically over time" — needs the server's scheduling
//! decisions to come from the simulator, not from an analytic stand-in.
//! This crate closes that loop:
//!
//! * [`LuWorkload`] / [`StencilWorkload`] ([`apps`]) wrap the two DPS
//!   evaluation applications as malleable workloads whose per-iteration
//!   dynamic-efficiency profiles are obtained from dps-sim runs; an LU
//!   allocation schedule can be *realized* as a single simulator run
//!   through the DPS thread-removal machinery ([`LuWorkload::realize`]);
//! * [`SimEnv`] ([`mod@env`]) is the one place where
//!   `NetParams`/`TestbedParams`/`SimConfig`/cost-model wiring lives — the
//!   bench scenarios, the examples and the tools all share it;
//! * [`faulted`] plays a deterministic [`faults::FaultPlan`] against those
//!   applications — crashes map onto the thread-removal machinery at
//!   iteration boundaries with checkpoint/restart replay costs, slowdown
//!   and link-degrade windows inject through `SimFabric::with_plan`;
//! * [`scenarios`] is a registry of named experiment setups
//!   ([`ScenarioSpec`]) the `scenarios` runner binary lists and executes
//!   through the bench harness;
//! * [`scale`] is the `server-scale` experiment: the sharded multi-tenant
//!   [`cluster_svc::ClusterService`] driven to a million-job synthetic
//!   stream, with shard-count-invariance rows.

#![warn(missing_docs)]

pub mod apps;
pub mod env;
pub mod faulted;
pub mod scale;
pub mod scenarios;
pub mod whatif;

pub use apps::{LuWorkload, StencilWorkload};
pub use env::{SimEnv, DEFAULT_SEED, N};
pub use faulted::FaultedRun;
pub use scale::{
    one_cell_config, run_server_scale, run_server_whatif, server_scale_config, server_scale_load,
    server_scale_plan, server_whatif_config, server_whatif_load, SCALE_JOBS, SCALE_SMOKE_JOBS,
    WHATIF_JOBS, WHATIF_SMOKE_JOBS,
};
pub use scenarios::{
    builtin_scenarios, fault_server_policies, find_scenario, lone_job_schedule, server_policies,
    shrink_schedule, sim_job_set, ScenarioCtx, ScenarioPoint, ScenarioSpec,
};
pub use whatif::{fork_vs_fresh_bench, ForkVsFresh, WhatIfEvaluator};
