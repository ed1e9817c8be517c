//! The workload contract: what a malleable application gives a cluster
//! server, and the dynamic-efficiency analysis behind it.
//!
//! The paper introduces **dynamic efficiency** — resource-utilization
//! efficiency as a function of time — as the quantity a cluster scheduler
//! needs in order to deallocate nodes from a running application when they
//! stop paying off. This crate turns the simulator's per-interval reports
//! into that analysis and defines what an application must answer; the
//! `cluster-svc` crate runs the server itself (the paper's stated future
//! work: "a cluster server running concurrently multiple, possibly
//! different applications whose allocations of compute nodes vary
//! dynamically over time") and owns every scheduling rule:
//!
//! * [`efficiency`] extracts per-iteration dynamic-efficiency profiles from
//!   run reports (the data behind the paper's Figure 11);
//! * [`policy`] derives thread-removal plans from predicted profiles (when
//!   should "kill 4 after iteration 1" fire?);
//! * [`workload`] defines the [`Workload`] trait — the contract between the
//!   server and any malleable application backend (simulator-backed DPS
//!   applications in the `workload` crate, or the analytic
//!   [`PhaseWorkload`]) — its optional live [`WhatIfSession`], and the
//!   memoizing [`ProfileCache`].

#![warn(missing_docs)]

pub mod efficiency;
pub mod policy;
pub mod workload;

pub use efficiency::{profile_from_report, EfficiencyProfile, IterationPoint};
pub use policy::{recommend_removal, ThresholdPolicy};
pub use workload::{lu_like_job, Phase, PhaseWorkload, ProfileCache, WhatIfSession, Workload};
