//! Service topology, scheduling policy and tenant configuration.
//!
//! The semantic unit of partitioning is the **cell**: a fixed slice of
//! `nodes_per_cell` compute nodes with its own free set and totals. A job
//! runs entirely inside one cell; the placement layer balances work across
//! cells. The **shard** count is validated and echoed (report, journal
//! meta) but the event loop never reads it, so reports are byte-identical
//! across shard counts.

use desim::SimDuration;
use dps_sim::{SimError, SimResult};

use crate::breaker::BreakerSpec;

/// Scheduling policy of a cluster server.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SchedulePolicy {
    /// Fixed allocation from start to finish.
    Rigid,
    /// Resize before any iteration to the largest allocation whose
    /// predicted efficiency clears `min_efficiency`.
    Malleable {
        /// Efficiency floor an iteration's allocation must clear.
        min_efficiency: f64,
    },
    /// Malleable scheduling plus fault-aware recovery: interrupted jobs
    /// resume from their last checkpoint after a capped exponential
    /// backoff instead of restarting from scratch.
    ElasticRecovery {
        /// Efficiency floor an iteration's allocation must clear.
        min_efficiency: f64,
        /// Requeue delay after a job's first interruption.
        base_backoff: SimDuration,
        /// Ceiling on the exponentially growing backoff.
        max_backoff: SimDuration,
    },
    /// Simulation-backed what-if scheduling: at every decision boundary
    /// the scheduler scores candidate futures (keep / shrink / grow /
    /// migrate / checkpoint-now) by predicted dynamic efficiency — forked
    /// from the job's live simulation where the backend supports it — and
    /// commits the winner. Recovery behaves like
    /// [`SchedulePolicy::ElasticRecovery`].
    WhatIf {
        /// Efficiency floor a candidate must clear to be preferred.
        min_efficiency: f64,
        /// Requeue delay after a job's first interruption.
        base_backoff: SimDuration,
        /// Ceiling on the exponentially growing backoff.
        max_backoff: SimDuration,
    },
}

impl SchedulePolicy {
    /// The efficiency floor allocations are resized against (`None` under
    /// [`SchedulePolicy::Rigid`], which never resizes).
    pub fn min_efficiency(&self) -> Option<f64> {
        match *self {
            SchedulePolicy::Rigid => None,
            SchedulePolicy::Malleable { min_efficiency }
            | SchedulePolicy::ElasticRecovery { min_efficiency, .. }
            | SchedulePolicy::WhatIf { min_efficiency, .. } => Some(min_efficiency),
        }
    }

    /// Smallest allocation a job requesting `request` nodes may start on.
    /// Under every policy but rigid jobs are *moldable*: they start on as
    /// little as half the request rather than wait for all of it.
    pub fn min_start(&self, request: u32) -> u32 {
        match self {
            SchedulePolicy::Rigid => request,
            _ => request.div_ceil(2),
        }
    }

    /// `(base, max)` of the requeue backoff under the policies that
    /// recover elastically — resuming from the last checkpoint instead of
    /// restarting from scratch; `None` otherwise.
    pub fn backoff(&self) -> Option<(SimDuration, SimDuration)> {
        match *self {
            SchedulePolicy::ElasticRecovery {
                base_backoff,
                max_backoff,
                ..
            }
            | SchedulePolicy::WhatIf {
                base_backoff,
                max_backoff,
                ..
            } => Some((base_backoff, max_backoff)),
            _ => None,
        }
    }
}

/// Per-tenant admission-control parameters.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Display name (unique within a service).
    pub name: String,
    /// Fair-share weight: serving the tenant `n` nodes advances its stride
    /// pass by `n / weight`, so contended capacity splits in proportion to
    /// the weights. Must be at least 1.
    pub weight: u32,
    /// Backpressure bound: arrivals beyond this many queued jobs are
    /// rejected at admission. `0` means unbounded.
    pub max_pending: usize,
    /// Quota on concurrently running jobs. `0` means unbounded.
    pub max_inflight: usize,
}

impl TenantSpec {
    /// A tenant with the given weight and no quotas.
    pub fn new(name: impl Into<String>, weight: u32) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            weight,
            max_pending: 0,
            max_inflight: 0,
        }
    }

    /// Sets the pending-queue backpressure bound (`0` = unbounded).
    pub fn with_max_pending(mut self, max_pending: usize) -> TenantSpec {
        self.max_pending = max_pending;
        self
    }

    /// Sets the running-jobs quota (`0` = unbounded).
    pub fn with_max_inflight(mut self, max_inflight: usize) -> TenantSpec {
        self.max_inflight = max_inflight;
        self
    }
}

/// Topology and policy of one service instance.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Nodes per cell. A job runs inside one cell, so this also caps the
    /// admissible per-job node request.
    pub nodes_per_cell: u32,
    /// Number of cells (fixed node-pool slices).
    pub cells: u32,
    /// Shard count, in `1..=cells`. Validated and echoed only: the event
    /// loop never reads it, so results do not depend on it.
    pub shards: u32,
    /// Scheduling policy shared by every cell (rigid / malleable / elastic
    /// recovery / what-if). Its efficiency floor, where it has one, must
    /// lie in `[0, 1]`.
    pub policy: SchedulePolicy,
    /// Registered tenants; a `JobSpec.tenant` indexes this list.
    pub tenants: Vec<TenantSpec>,
    /// Optional circuit breaker around fork-based what-if scoring: when
    /// set, decisions whose session cost exceeds the budget count as
    /// breaches, and a tripped breaker falls back to profile-priced
    /// scoring until its deterministic cooldown elapses. `None` (the
    /// default) disables the breaker entirely.
    pub breaker: Option<BreakerSpec>,
}

impl ServiceConfig {
    /// A config with the given topology and policy and no tenants yet.
    pub fn new(nodes_per_cell: u32, cells: u32, shards: u32, policy: SchedulePolicy) -> Self {
        ServiceConfig {
            nodes_per_cell,
            cells,
            shards,
            policy,
            tenants: Vec::new(),
            breaker: None,
        }
    }

    /// Adds a tenant (builder style).
    pub fn with_tenant(mut self, tenant: TenantSpec) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// Enables the what-if circuit breaker (builder style).
    pub fn with_breaker(mut self, spec: BreakerSpec) -> Self {
        self.breaker = Some(spec);
        self
    }

    /// Total nodes across all cells ([`ServiceConfig::validate`] rejects
    /// topologies where this would overflow).
    pub fn total_nodes(&self) -> u32 {
        self.nodes_per_cell * self.cells
    }

    /// Validates the topology; every violation is a typed protocol error.
    pub fn validate(&self) -> SimResult<()> {
        if self.nodes_per_cell == 0 {
            return Err(SimError::protocol(
                "service needs at least one node per cell",
            ));
        }
        if self.cells == 0 {
            return Err(SimError::protocol("service needs at least one cell"));
        }
        if self.nodes_per_cell.checked_mul(self.cells).is_none() {
            return Err(SimError::protocol(format!(
                "{} cells of {} nodes exceed the {} nodes a service can address",
                self.cells,
                self.nodes_per_cell,
                u32::MAX
            )));
        }
        if self.shards == 0 || self.shards > self.cells {
            return Err(SimError::protocol(format!(
                "shard count must be in 1..={} (cells), got {}",
                self.cells, self.shards
            )));
        }
        if let Some(e) = self.policy.min_efficiency() {
            // A NaN floor would make every efficiency target 1 node.
            if !(0.0..=1.0).contains(&e) {
                return Err(SimError::protocol(format!(
                    "policy min_efficiency must lie in [0, 1], got {e}"
                )));
            }
        }
        if self.tenants.is_empty() {
            return Err(SimError::protocol("service needs at least one tenant"));
        }
        for t in &self.tenants {
            if t.weight == 0 {
                return Err(SimError::protocol(format!(
                    "tenant '{}' needs a fair-share weight of at least 1",
                    t.name
                )));
            }
        }
        for (i, a) in self.tenants.iter().enumerate() {
            if self.tenants[..i].iter().any(|b| b.name == a.name) {
                return Err(SimError::protocol(format!(
                    "duplicate tenant name '{}'",
                    a.name
                )));
            }
        }
        if let Some(b) = &self.breaker {
            if b.trip_after == 0 {
                return Err(SimError::protocol("breaker trip_after must be at least 1"));
            }
            if b.max_steps_per_decision == 0 {
                return Err(SimError::protocol("breaker step budget must be at least 1"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(cells: u32, shards: u32) -> ServiceConfig {
        ServiceConfig::new(4, cells, shards, SchedulePolicy::Rigid)
            .with_tenant(TenantSpec::new("t0", 1))
    }

    #[test]
    fn validation_rejects_a_node_count_that_overflows() {
        let huge = ServiceConfig::new(65_536, 65_536, 1, SchedulePolicy::Rigid)
            .with_tenant(TenantSpec::new("t0", 1));
        let err = huge.validate().unwrap_err();
        assert!(matches!(err.kind, dps_sim::SimErrorKind::Protocol { .. }));
        let fits = ServiceConfig::new(65_535, 65_537, 1, SchedulePolicy::Rigid)
            .with_tenant(TenantSpec::new("t0", 1));
        assert_eq!(fits.total_nodes(), u32::MAX);
        assert!(fits.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_topologies() {
        assert!(cfg(4, 2).validate().is_ok());
        assert!(cfg(4, 0).validate().is_err());
        assert!(cfg(4, 5).validate().is_err());
        let mut no_tenants = cfg(4, 2);
        no_tenants.tenants.clear();
        assert!(no_tenants.validate().is_err());
        let zero_weight = cfg(4, 1).with_tenant(TenantSpec::new("z", 0));
        assert!(zero_weight.validate().is_err());
        let dup = cfg(4, 1).with_tenant(TenantSpec::new("t0", 2));
        assert!(dup.validate().is_err());
    }

    #[test]
    fn validation_rejects_an_efficiency_floor_outside_the_unit_interval() {
        let with_floor = |min_efficiency| {
            let mut c = cfg(4, 1);
            c.policy = SchedulePolicy::Malleable { min_efficiency };
            c.validate()
        };
        for bad in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            let err = with_floor(bad).unwrap_err();
            assert!(
                matches!(err.kind, dps_sim::SimErrorKind::Protocol { .. }),
                "{bad}"
            );
        }
        for ok in [0.0, 0.3, 0.99, 1.0] {
            assert!(with_floor(ok).is_ok(), "{ok}");
        }
        let mut elastic = cfg(4, 1);
        elastic.policy = SchedulePolicy::ElasticRecovery {
            min_efficiency: f64::NAN,
            base_backoff: desim::SimDuration::from_secs(2),
            max_backoff: desim::SimDuration::from_secs(60),
        };
        assert!(elastic.validate().is_err());
    }
}
