//! Discrete-event simulation core.
//!
//! This crate provides the four primitives every virtual-time engine in this
//! workspace is built from:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time,
//! * [`EventQueue`] — a deterministic pending-event set with stable
//!   tie-breaking,
//! * [`ProgressSet`] — a *progress-sharing resource*: a set of jobs that each
//!   carry an amount of remaining work and drain at externally assigned
//!   rates, one rate per group of jobs. Both the flow-level network model
//!   (bytes over shared links, grouped by node pair) and the CPU model
//!   (cpu-seconds under processor sharing, grouped by node) of the
//!   simulator are instances of this abstraction,
//! * [`RateTimeline`] — time-windowed per-node rate multipliers
//!   ([`RateWindow`]s): degraded links, slowed-down processors.
//!
//! The crate is deliberately free of any application or platform knowledge;
//! it is reused by `netmodel`, `dps-sim` and `testbed`.

#![warn(missing_docs)]

pub mod fxhash;
pub mod journal;
pub mod queue;
pub mod share;
pub mod time;
pub mod timeline;

pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use journal::{crc32, Divergence, Journal, JournalDecodeError, JournalEntry, JournalEvent};
pub use queue::EventQueue;
pub use share::{GroupKey, ProgressSet};
pub use time::{SimDuration, SimTime};
pub use timeline::{RateTimeline, RateWindow};
