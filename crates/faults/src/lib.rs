//! Deterministic fault injection for the DVNS workspace.
//!
//! The paper simulates applications whose node allocation varies
//! *voluntarily*; real clusters also vary it *involuntarily* — nodes crash,
//! get preempted, slow down, and links degrade. This crate models those
//! perturbations as plain data, so every layer of the stack can inject the
//! projection it understands:
//!
//! * [`FaultPlan`] ([`plan`]) — a deterministic schedule of
//!   [`FaultEvent`]s (`NodeCrash`, `NodeSlowdown`, `LinkDegrade`,
//!   `NodePreempt`) plus a [`CheckpointSpec`] describing checkpoint/restart
//!   costs;
//! * [`FaultGenConfig`] ([`mod@gen`]) — seeded random generation of plans
//!   (`simrng`-backed, reproducible from one `u64`);
//! * [`RateTimeline`] (defined in `desim`, re-exported here) — time-indexed
//!   queries over the plan's CPU and link [`RateWindow`]s, used by
//!   `dps-sim`'s `SimFabric::with_plan`, `netmodel`'s capacity windows and
//!   `cluster-svc`'s fault pricing.
//!
//! The empty plan ([`FaultPlan::none`]) is guaranteed to be a strict no-op
//! in every consumer: injecting it produces bit-identical results to the
//! fault-free code path.

#![warn(missing_docs)]

pub mod gen;
pub mod plan;

pub use desim::{RateTimeline, RateWindow};
pub use gen::FaultGenConfig;
pub use plan::{CheckpointSpec, FaultEvent, FaultKind, FaultPlan, Outage};
