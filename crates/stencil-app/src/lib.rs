//! Jacobi heat-diffusion stencil as a DPS application.
//!
//! A second evaluation workload beside the LU factorization, exercising the
//! DPS feature the paper highlights for neighborhood communication:
//! "communication patterns such as neighborhood exchanges can easily be
//! specified by using relative thread indices" (§2). The `N × N` grid is
//! decomposed into horizontal bands, one per worker; every iteration each
//! worker exchanges halo rows with its neighbours (edges routed with
//! [`dps::relative`]) and applies the 5-point Jacobi update.
//!
//! Two flow-graph variants mirror the paper's basic/pipelined distinction:
//!
//! * **synchronized** — a driver barrier between iterations (merge/split
//!   pair);
//! * **asynchronous** — workers advance as soon as their own halos arrive,
//!   so loosely coupled bands drift apart (stream-style pipelining).
//!
//! The stencil's dynamic efficiency is *flat* across iterations — the
//! counterpoint to LU's decay: the removal policy of `cluster` correctly
//! recommends releasing nodes for LU and keeping them for the stencil.

#![warn(missing_docs)]

pub mod builder;
pub mod config;
pub mod ops;
pub mod payload;
pub mod reference;
pub mod run;

pub use builder::build_stencil_app;
pub use config::StencilConfig;
pub use run::{measure_stencil, predict_stencil, predict_stencil_with_fabric, StencilRun};
