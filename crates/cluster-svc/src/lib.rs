//! Long-lived multi-tenant cluster job service: the repo's one scheduler
//! engine.
//!
//! A [`ClusterService`] schedules an arbitrarily long stream of
//! [`JobSpec`]s — millions per run, each an analytic job or any
//! [`cluster::Workload`] — submitted by competing tenants against a
//! partitioned node pool, under a [`faults::FaultPlan`], deterministically
//! per seed. A batch experiment is a one-cell, one-tenant configuration of
//! it: per-job completion times come from the decision journal
//! ([`completions`]). This crate owns every scheduling rule: the
//! [`SchedulePolicy`], the node pool, fault pricing, backoff, the
//! [`efficiency_target`] scan and candidate scoring.
//!
//! The moving parts:
//!
//! * **Cells** — the node pool is split into fixed cells
//!   (`nodes_per_cell` each). The configured shard count is an echo that
//!   changes nothing: reports and decision journals are byte-identical
//!   across shard counts (see `service` module docs for the determinism
//!   contract and the component map).
//! * **Fair-share admission** — per-tenant FIFO queues scheduled by
//!   deterministic stride scheduling over the tenants' weights, with
//!   `max_pending` backpressure (reject at admission) and `max_inflight`
//!   quotas.
//! * **Elastic recovery** — faults interrupt placed jobs, refund their
//!   unused allocation, charge lost work, and re-queue them; the re-placed
//!   job may land in any surviving cell, so recovery crosses cells.
//! * **Per-job cancellation** — a submission's `cancel_at` cancels it at
//!   that virtual time; a serve itself ends when its stream drains.
//! * **Decision journal** — every admit/place/shrink/requeue/recover/
//!   reject/complete/fail/cancel decision can be committed to a
//!   [`desim::Journal`]; [`check_equivalent`] compares two runs and names
//!   the first decision where they part.
//!
//! ```
//! use cluster_svc::{
//!     ClusterService, SchedulePolicy, ServeOptions, ServiceConfig, SyntheticLoad, TenantSpec,
//! };
//! use desim::SimDuration;
//! use faults::FaultPlan;
//!
//! let cfg = ServiceConfig::new(8, 4, 2, SchedulePolicy::Malleable { min_efficiency: 0.5 })
//!     .with_tenant(TenantSpec::new("batch", 3))
//!     .with_tenant(TenantSpec::new("interactive", 1));
//! let svc = ClusterService::new(cfg).unwrap();
//! let load = SyntheticLoad::new(
//!     1_000, 2, 8,
//!     SimDuration::from_millis(20), SimDuration::from_millis(200), 42,
//! );
//! let out = svc.serve(load, &FaultPlan::none(), &ServeOptions::default()).unwrap();
//! assert_eq!(out.report.completed_jobs() + out.report.failed_jobs()
//!     + out.report.rejected_jobs(), 1_000);
//! ```

#![warn(missing_docs)]

mod candidate;
mod cells;
mod config;
mod fairshare;
mod job;
mod journal;
mod live;
mod recovery;
mod report;
mod rules;
mod scorer;
mod service;

pub use config::{SchedulePolicy, ServiceConfig, TenantSpec};
pub use job::{random_jobs, AnalyticJob, JobPayload, JobSpec, SyntheticLoad};
pub use journal::{check_equivalent, completions, decision, ReplayStats, DECISION_LABELS, NO_CELL};
pub use recovery::{
    CrashPlan, CrashReport, DurabilitySpec, RecoveredPrefix, TornTail, WalError, WriteAheadLog,
};
pub use report::{BreakerStats, CellReport, LatencyHist, ServiceReport, TenantReport};
pub use rules::efficiency_target;
pub use service::{ClusterService, ServeOptions, ServiceOutcome};
