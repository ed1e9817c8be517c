//! The paper's contribution: a direct-execution simulator for DPS
//! applications with dynamically varying compute node allocation.
//!
//! Given a [`dps::Application`], [`engine::simulate`] reconstructs its
//! parallel execution in virtual time and predicts:
//!
//! * the **running time** of the application on a target cluster described
//!   by a handful of platform parameters ([`netmodel::NetParams`] plus the
//!   kernel cost models of `perfmodel`),
//! * its **dynamic efficiency** — resource-utilization efficiency as a
//!   function of time ([`report::Interval::efficiency`]), the quantity that
//!   tells a scheduler when nodes can be deallocated almost for free.
//!
//! Two timing sources are supported and can be mixed per atomic step
//! (see [`TimingMode`]): direct execution (host wall-clock measurement of
//! the application's real code) and partial direct execution (modeled
//! charges; the application posts ghost payloads and skips the kernels —
//! fast, small, portable).
//!
//! The machine model lives behind the [`fabric::Fabric`] trait so the same
//! engine executes applications against the paper's flow-level model
//! ([`fabric::SimFabric`], optionally under a fault plan's slowdown and
//! degrade windows) or the detailed stochastic testbed emulator from the
//! `testbed` crate — the pair whose agreement reproduces the paper's
//! validation experiments. Checkpoints run on a [`fabric::SimFabric`], the
//! one fabric that can be cloned into a fork.

#![warn(missing_docs)]

mod accounting;
pub mod checkpoint;
mod collect;
mod config;
mod control;
mod cpu;
pub mod engine;
pub mod error;
pub mod fabric;
pub mod journal;
mod memory;
pub mod report;
mod timing;
pub mod trace;

pub use checkpoint::SimCheckpoint;
pub use engine::{simulate, simulate_with_fabric, PausePoint, PausePred, SimConfig, NODE_ID_LIMIT};
pub use error::{BlockedOp, DeadlockDiag, SimError, SimErrorKind, SimResult};
pub use fabric::{Fabric, SimFabric};
pub use journal::{
    check_equivalent, trace_from_journal, Divergence, Journal, JournalEntry, JournalEvent,
};
pub use report::{Interval, RunReport};
pub use timing::TimingMode;
pub use trace::{StepRecord, Trace, TransferRecord};
