//! Umbrella crate for the DVNS workspace — a reproduction of
//! *"A simulator for parallel applications with dynamically varying compute
//! node allocation"* (Schaeli, Gerlach, Hersch; IPDPS 2006).
//!
//! Re-exports every workspace crate under one roof so that examples and
//! integration tests can `use dvns::…`. See the individual crates for the
//! actual functionality:
//!
//! * [`desim`] — discrete-event core (virtual time, event queue, sharing).
//! * [`netmodel`] — flow-level star-topology network model.
//! * [`dps`] — the Dynamic Parallel Schedules framework.
//! * [`sim`] (`dps-sim`) — the paper's direct-execution simulator.
//! * [`testbed`] — ground-truth cluster emulator + native OS-thread runner.
//! * [`perfmodel`] — kernel cost models and platform profiles.
//! * [`linalg`] — dense matrix kernels for the LU evaluation application.
//! * [`lu_app`] — block LU factorization as a DPS application.
//! * [`stencil_app`] — Jacobi heat-diffusion stencil with neighborhood
//!   halo exchanges (second evaluation workload).
//! * [`faults`] — deterministic fault schedules ([`faults::FaultPlan`]),
//!   seeded generation and checkpoint/restart cost modeling, injected into
//!   the network, the engine and the cluster server.
//! * [`cluster`] — the workload contract: the [`cluster::Workload`] trait
//!   any malleable application implements, dynamic-efficiency analysis
//!   and the threshold removal policy.
//! * [`cluster_svc`] — the cluster server: one scheduler engine, run as a
//!   long-lived sharded multi-tenant job service (fair-share admission,
//!   cross-shard elastic recovery, million-job synthetic streams,
//!   byte-identical across shard counts) or, with one cell and one
//!   tenant, as a batch server. It owns the scheduling policies and
//!   rules.
//! * [`workload`] — simulator-backed workloads ([`workload::LuWorkload`],
//!   [`workload::StencilWorkload`]), the shared [`workload::SimEnv`]
//!   experiment wiring and the scenario registry.
//!
//! [`fxhash`] (from `desim`) is also re-exported directly: the event
//! queue, the cluster server's profile cache and the workload keys all
//! hash through the same deterministic `FxHasher`.

pub use cluster;
pub use cluster_svc;
pub use desim;
pub use desim::fxhash;
pub use dps;
pub use dps_sim as sim;
pub use faults;
pub use linalg;
pub use lu_app;
pub use netmodel;
pub use perfmodel;
pub use stencil_app;
pub use testbed;
pub use workload;
