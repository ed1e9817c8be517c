//! Dynamic node allocation: efficiency analysis, allocation policies, and
//! the scheduling rules of a malleable cluster server.
//!
//! The paper introduces **dynamic efficiency** — resource-utilization
//! efficiency as a function of time — as the quantity a cluster scheduler
//! needs in order to deallocate nodes from a running application when they
//! stop paying off. This crate turns the simulator's per-interval reports
//! into that analysis; the `cluster-svc` crate runs the server itself (the
//! paper's stated future work: "a cluster server running concurrently
//! multiple, possibly different applications whose allocations of compute
//! nodes vary dynamically over time"):
//!
//! * [`efficiency`] extracts per-iteration dynamic-efficiency profiles from
//!   run reports (the data behind the paper's Figure 11);
//! * [`policy`] derives thread-removal plans from predicted profiles (when
//!   should "kill 4 after iteration 1" fire?) and defines the server's
//!   [`SchedulePolicy`];
//! * [`workload`] defines the [`Workload`] trait — the contract between the
//!   server and any malleable application backend (simulator-backed DPS
//!   applications in the `workload` crate, or the analytic
//!   [`PhaseWorkload`]) — plus the memoizing [`ProfileCache`];
//! * [`rules`] holds the scheduling rules the `cluster-svc` engine applies:
//!   the node pool, fault-window span pricing, capped backoff and the
//!   efficiency-target scan;
//! * [`whatif`] turns the analysis into an *online* policy: candidate
//!   futures (keep / shrink / grow / migrate / checkpoint-now) scored by
//!   predicted dynamic efficiency, forked from a live simulation via the
//!   [`WhatIfSession`] contract and memoized in the [`ProfileCache`].

#![warn(missing_docs)]

pub mod efficiency;
pub mod policy;
pub mod rules;
pub mod whatif;
pub mod workload;

pub use efficiency::{profile_from_report, EfficiencyProfile, IterationPoint};
pub use policy::{
    recommend_removal, BreakerSpec, BreakerState, BreakerStats, CircuitBreaker, SchedulePolicy,
    ThresholdPolicy,
};
pub use rules::{capped_backoff, efficiency_target, FaultPricing, NodePool, Strike};
pub use whatif::{
    realized_suffix, score_fingerprint, CandidateKind, CandidateScore, WhatIfSession,
};
pub use workload::{lu_like_job, Phase, PhaseWorkload, ProfileCache, Workload};
