//! Aggregate-only service reporting, built for byte-identical comparison.
//!
//! A million-job run cannot afford per-job records, so the service
//! accounts into fixed-size structures: one [`CellReport`] per cell, one
//! [`TenantReport`] per tenant, and a global integer log-bucket
//! scheduling-latency histogram. Every counter is an integer (`u64`/`u128`
//! nanoseconds and node-nanoseconds) and every mutation happens in the
//! deterministic global event order, so sums do not depend on the order
//! cells are added in — `f64` only appears in derived accessor values
//! computed once from the final integers.
//!
//! [`ServiceReport::canonical_string`] renders the full report (shard
//! count excluded — it is an execution detail) for the byte-compare
//! determinism tests and the CI smoke diff.

use desim::{SimDuration, SimTime};

/// Quarter-octave integer histogram of scheduling latencies (arrival →
/// first start), exact below 4 ns and within ~12% above. Buckets, counts
/// and the quantile scan are all integer arithmetic, so quantiles are
/// byte-stable across shard counts and host thread counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHist {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

/// Bucket count: 4 sub-buckets per power of two over the full u64 range.
const HIST_BUCKETS: usize = 256;

fn bucket_of(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (msb - 2)) & 3) as usize;
    (4 * msb + sub).min(HIST_BUCKETS - 1)
}

/// Upper bound of a bucket (the quantile's reported value).
fn bucket_upper(idx: usize) -> u64 {
    if idx < 4 {
        return idx as u64;
    }
    let msb = (idx / 4) as u32;
    let sub = (idx % 4) as u64;
    if msb >= 62 {
        return u64::MAX;
    }
    // In u128: `(5 + 3) << 61` is 2^64, one past u64.
    ((u128::from(5 + sub) << msb) / 4) as u64
}

impl Default for LatencyHist {
    fn default() -> LatencyHist {
        LatencyHist::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> LatencyHist {
        LatencyHist {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded sample.
    pub fn max(&self) -> SimDuration {
        SimDuration(self.max_ns)
    }

    /// Integer mean of the samples (zero when empty).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration((self.sum_ns / u128::from(self.count)) as u64)
        }
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as the matched bucket's upper bound,
    /// capped at the recorded maximum. Zero when empty.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return SimDuration(bucket_upper(i).min(self.max_ns));
            }
        }
        SimDuration(self.max_ns)
    }
}

/// Per-cell totals. Every field is monotone or strictly cell-local
/// (allocation refunds land in the cell that granted them), so summing any
/// grouping of cells yields identical totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellReport {
    /// Jobs that completed in this cell.
    pub completed: u64,
    /// Jobs that terminally failed while placed in this cell.
    pub failed: u64,
    /// Running jobs cancelled while placed in this cell.
    pub cancelled: u64,
    /// Iterations committed in this cell.
    pub iterations: u64,
    /// Fault interruptions suffered by jobs placed in this cell.
    pub restarts: u64,
    /// Node-ns allocated by this cell (spans scheduled minus the
    /// unfinished remainder refunded on interruption — same-cell only).
    pub allocated_node_ns: u128,
    /// Serial work (ns) of iterations committed in this cell.
    pub committed_work_ns: u128,
    /// Work (ns) that will replay because an interruption here discarded
    /// it; useful work = committed − replayed, aggregated service-wide.
    pub replayed_work_ns: u128,
    /// Work lost to interruptions here (replay + in-flight fraction).
    pub lost_work_ns: u128,
    /// Extra wall time (ns) slowdown/degrade windows cost iterations here.
    pub degraded_ns: u128,
}

impl CellReport {
    /// Accumulates `other` into `self` (service totals).
    pub fn absorb(&mut self, other: &CellReport) {
        self.completed += other.completed;
        self.failed += other.failed;
        self.cancelled += other.cancelled;
        self.iterations += other.iterations;
        self.restarts += other.restarts;
        self.allocated_node_ns += other.allocated_node_ns;
        self.committed_work_ns += other.committed_work_ns;
        self.replayed_work_ns += other.replayed_work_ns;
        self.lost_work_ns += other.lost_work_ns;
        self.degraded_ns += other.degraded_ns;
    }
}

/// Per-tenant admission and outcome totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantReport {
    /// Tenant name (from the config).
    pub name: String,
    /// Jobs submitted (admitted + rejected).
    pub submitted: u64,
    /// Jobs rejected at admission (bad request, backpressure).
    pub rejected: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs terminally failed after admission.
    pub failed: u64,
    /// Jobs cancelled after admission.
    pub cancelled: u64,
    /// Jobs that started at least once.
    pub started: u64,
    /// Sum of scheduling latencies (ns) over started jobs.
    pub wait_ns_sum: u128,
    /// Largest scheduling latency (ns).
    pub max_wait_ns: u64,
}

/// Deterministic counters of the what-if decision machinery. Every field
/// is incremented in the fixed global event order, so the whole struct is
/// byte-identical across shard counts and engine thread counts (and is
/// part of [`ServiceReport::canonical_string`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WhatIfStats {
    /// What-if decisions taken (placements and iteration boundaries).
    pub decisions: u64,
    /// Candidate futures enumerated across all decisions.
    pub candidates: u64,
    /// Candidates scored by forking the job's live simulation.
    pub fork_scored: u64,
    /// Candidates served from the fingerprint score memo.
    pub memo_scored: u64,
    /// Candidates scored from a memoized fixed-allocation profile.
    pub profile_scored: u64,
    /// Candidates scored by the closed-form analytic model.
    pub analytic_scored: u64,
    /// Live what-if sessions opened (warm forked bases).
    pub sessions_opened: u64,
    /// Committed migrate-to-another-cell decisions.
    pub migrations: u64,
    /// Committed checkpoint-now decisions.
    pub extra_checkpoints: u64,
}

/// Counters of a what-if circuit breaker the service does not have, so
/// always zero. The canonical report's `breaker` line and the benchmark's
/// `cluster.breaker.trips` still read them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Fork-scored decisions over budget.
    pub breaches: u64,
    /// Closed→open transitions.
    pub trips: u64,
    /// Open→half-open probe grants.
    pub probes: u64,
    /// Half-open→closed recoveries.
    pub recloses: u64,
    /// Decisions priced from profiles while open.
    pub fallback_decisions: u64,
}

/// The aggregate outcome of one `serve` call.
#[derive(Clone, Debug, Default)]
pub struct ServiceReport {
    /// Nodes per cell (config echo).
    pub nodes_per_cell: u32,
    /// Shard count the run executed with. Excluded from
    /// [`ServiceReport::canonical_string`]: it must not affect results.
    pub shards: u32,
    /// Per-cell totals, in cell order.
    pub cells: Vec<CellReport>,
    /// Per-tenant totals, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Jobs submitted across all tenants.
    pub submitted: u64,
    /// Events processed (arrivals, phase ends, faults, returns, requeues,
    /// cancellations).
    pub events: u64,
    /// Latest completion/failure/cancellation instant.
    pub makespan: SimTime,
    /// Scheduling-latency histogram over first starts.
    pub wait_hist: LatencyHist,
    /// Lookups served from the [`cluster::ProfileCache`] or the scorer's
    /// score memo.
    pub cache_hits: u64,
    /// Lookups that computed fresh profiles or candidate scores.
    pub cache_misses: u64,
    /// Profiles + memoized scores held when the run finished.
    pub cache_entries: u64,
    /// Cache entries evicted to stay within the fixed capacity.
    pub cache_evictions: u64,
    /// What-if decision counters (all deterministic).
    pub whatif: WhatIfStats,
    /// Always zero (see [`BreakerStats`]).
    pub breaker: BreakerStats,
    /// Profiling retries granted after a workload panic (bounded
    /// exponential backoff; a job only fails once its retries run out).
    pub profile_retries: u64,
    /// **Host-measured** per-decision latency histogram, recorded only
    /// under [`crate::ServeOptions::measure_decisions`]. Wall-clock data:
    /// excluded from [`ServiceReport::canonical_string`] by design.
    pub decision_hist: LatencyHist,
}

impl ServiceReport {
    /// Sum of all per-cell totals; this accessor is the only place they
    /// are combined, in ascending cell order.
    pub fn cell_totals(&self) -> CellReport {
        let mut total = CellReport::default();
        for c in &self.cells {
            total.absorb(c);
        }
        total
    }

    /// Completed jobs.
    pub fn completed_jobs(&self) -> u64 {
        self.cell_totals().completed
    }

    /// Terminally failed jobs (after admission).
    pub fn failed_jobs(&self) -> u64 {
        self.tenants.iter().map(|t| t.failed).sum()
    }

    /// Jobs rejected at admission.
    pub fn rejected_jobs(&self) -> u64 {
        self.tenants.iter().map(|t| t.rejected).sum()
    }

    /// Cancelled jobs.
    pub fn cancelled_jobs(&self) -> u64 {
        self.tenants.iter().map(|t| t.cancelled).sum()
    }

    /// Total fault interruptions.
    pub fn total_restarts(&self) -> u64 {
        self.cell_totals().restarts
    }

    /// Total work lost to interruptions.
    pub fn total_lost_work(&self) -> SimDuration {
        SimDuration(u64::try_from(self.cell_totals().lost_work_ns).unwrap_or(u64::MAX))
    }

    /// Total slowdown/degrade stretch.
    pub fn total_degraded(&self) -> SimDuration {
        SimDuration(u64::try_from(self.cell_totals().degraded_ns).unwrap_or(u64::MAX))
    }

    /// Useful (non-replayed) serial work served, in node-seconds.
    pub fn useful_work_node_secs(&self) -> f64 {
        let t = self.cell_totals();
        (t.committed_work_ns.saturating_sub(t.replayed_work_ns)) as f64 / 1e9
    }

    /// Node-seconds allocated.
    pub fn allocated_node_secs(&self) -> f64 {
        self.cell_totals().allocated_node_ns as f64 / 1e9
    }

    /// Useful work per allocated node-second (the paper's allocation
    /// efficiency, service-wide).
    pub fn allocation_efficiency(&self) -> f64 {
        let alloc = self.allocated_node_secs();
        if alloc == 0.0 {
            0.0
        } else {
            self.useful_work_node_secs() / alloc
        }
    }

    /// Allocated node-time over total node-time to the makespan.
    pub fn utilization(&self) -> f64 {
        let total = self.nodes_per_cell as f64 * self.cells.len() as f64;
        let horizon = self.makespan.as_secs_f64();
        if total == 0.0 || horizon == 0.0 {
            0.0
        } else {
            self.allocated_node_secs() / (total * horizon)
        }
    }

    /// Completed jobs per virtual second.
    pub fn jobs_per_virtual_sec(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.completed_jobs() as f64 / secs
        }
    }

    /// P99 scheduling latency (arrival → first start).
    pub fn p99_wait(&self) -> SimDuration {
        self.wait_hist.quantile(0.99)
    }

    /// Mean scheduling latency.
    pub fn mean_wait(&self) -> SimDuration {
        self.wait_hist.mean()
    }

    /// Deterministic full rendering: every integer counter, per tenant and
    /// per cell, plus histogram quantiles. Excludes the shard count (an
    /// execution grouping) and anything host-derived, so two runs of the
    /// same configuration compare byte-for-byte at any shard or engine
    /// thread count.
    pub fn canonical_string(&self) -> String {
        use std::fmt::Write as _;
        let t = self.cell_totals();
        let mut out = String::with_capacity(1024);
        let _ = writeln!(
            out,
            "cluster-svc report nodes={} cells={} tenants={}",
            self.nodes_per_cell as usize * self.cells.len(),
            self.cells.len(),
            self.tenants.len()
        );
        let _ = writeln!(
            out,
            "jobs submitted={} completed={} failed={} cancelled={} rejected={}",
            self.submitted,
            t.completed,
            self.failed_jobs(),
            self.cancelled_jobs(),
            self.rejected_jobs()
        );
        let _ = writeln!(
            out,
            "faults restarts={} lost_work_ns={} degraded_ns={} replayed_ns={} profile_retries={}",
            t.restarts, t.lost_work_ns, t.degraded_ns, t.replayed_work_ns, self.profile_retries
        );
        let _ = writeln!(
            out,
            "account allocated_node_ns={} committed_work_ns={} iterations={}",
            t.allocated_node_ns, t.committed_work_ns, t.iterations
        );
        let _ = writeln!(
            out,
            "clock makespan_ns={} events={}",
            self.makespan.as_nanos(),
            self.events
        );
        let _ = writeln!(
            out,
            "wait count={} p50_ns={} p90_ns={} p99_ns={} max_ns={} mean_ns={}",
            self.wait_hist.count(),
            self.wait_hist.quantile(0.50).as_nanos(),
            self.wait_hist.quantile(0.90).as_nanos(),
            self.wait_hist.quantile(0.99).as_nanos(),
            self.wait_hist.max().as_nanos(),
            self.wait_hist.mean().as_nanos()
        );
        let _ = writeln!(
            out,
            "cache hits={} misses={} entries={} evictions={}",
            self.cache_hits, self.cache_misses, self.cache_entries, self.cache_evictions
        );
        let w = &self.whatif;
        // decision_hist (host wall-clock) is deliberately absent here.
        let _ = writeln!(
            out,
            "whatif decisions={} candidates={} fork={} memo={} profile={} analytic={} \
             sessions={} migrations={} extra_ckpts={}",
            w.decisions,
            w.candidates,
            w.fork_scored,
            w.memo_scored,
            w.profile_scored,
            w.analytic_scored,
            w.sessions_opened,
            w.migrations,
            w.extra_checkpoints
        );
        let b = &self.breaker;
        let _ = writeln!(
            out,
            "breaker breaches={} trips={} probes={} recloses={} fallbacks={}",
            b.breaches, b.trips, b.probes, b.recloses, b.fallback_decisions
        );
        for tn in &self.tenants {
            let _ = writeln!(
                out,
                "tenant {} submitted={} completed={} failed={} cancelled={} rejected={} \
                 started={} wait_sum_ns={} wait_max_ns={}",
                tn.name,
                tn.submitted,
                tn.completed,
                tn.failed,
                tn.cancelled,
                tn.rejected,
                tn.started,
                tn.wait_ns_sum,
                tn.max_wait_ns
            );
        }
        for (i, c) in self.cells.iter().enumerate() {
            let _ = writeln!(
                out,
                "cell {i} completed={} failed={} cancelled={} iterations={} restarts={} \
                 allocated_node_ns={} committed_work_ns={} replayed_ns={} lost_ns={} degraded_ns={}",
                c.completed,
                c.failed,
                c.cancelled,
                c.iterations,
                c.restarts,
                c.allocated_node_ns,
                c.committed_work_ns,
                c.replayed_work_ns,
                c.lost_work_ns,
                c.degraded_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_monotone_and_tight() {
        for v in [0u64, 1, 2, 3, 4, 5, 7, 8, 100, 1_000, 1 << 40, u64::MAX] {
            let b = bucket_of(v);
            assert!(b < HIST_BUCKETS);
            assert!(bucket_upper(b) >= v, "upper({b}) >= {v}");
            if (4..(1u64 << 60)).contains(&v) {
                // Quarter-octave resolution: upper bound within 25%.
                assert!(bucket_upper(b) <= v + v / 4 + 1, "{v}");
            }
        }
        for v in 1..10_000u64 {
            assert!(bucket_of(v) >= bucket_of(v - 1));
        }
        // Strictly rising up to the saturated buckets (msb >= 62).
        for b in 8..248 {
            assert!(bucket_upper(b) > bucket_upper(b - 1), "upper({b})");
        }
    }

    #[test]
    fn the_top_quarter_below_2_pow_62_reports_its_value_not_zero() {
        // Bucket 247 (msb 61, sub 3): its bound is 2^62, whose shifted
        // numerator is 2^64.
        let mut h = LatencyHist::new();
        h.record((1 << 62) - 1);
        assert_eq!(bucket_of((1 << 62) - 1), 247);
        assert_eq!(h.quantile(0.99), h.max());
    }

    #[test]
    fn quantiles_scan_deterministically() {
        let mut h = LatencyHist::new();
        for v in [10u64, 20, 30, 40, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), SimDuration(1_000_000));
        assert!(h.quantile(0.5).as_nanos() >= 20);
        assert_eq!(h.quantile(1.0), SimDuration(1_000_000));
        assert!(h.mean().as_nanos() > 0);
        assert_eq!(LatencyHist::new().quantile(0.99), SimDuration::ZERO);
    }

    #[test]
    fn totals_sum_every_cell() {
        let mut report = ServiceReport::default();
        for i in 0..8u64 {
            report.cells.push(CellReport {
                completed: i + 1,
                restarts: i,
                lost_work_ns: u128::from(i) * 77,
                degraded_ns: u128::from(i) * 13,
                ..CellReport::default()
            });
        }
        assert_eq!(report.completed_jobs(), 36);
        assert_eq!(report.total_restarts(), 28);
        assert_eq!(report.total_lost_work(), SimDuration(28 * 77));
        assert_eq!(report.total_degraded(), SimDuration(28 * 13));
    }

    #[test]
    fn canonical_string_excludes_the_shard_count() {
        let mut a = ServiceReport {
            nodes_per_cell: 4,
            shards: 1,
            cells: vec![CellReport::default(); 4],
            ..ServiceReport::default()
        };
        a.tenants.push(TenantReport {
            name: "t0".into(),
            ..TenantReport::default()
        });
        let mut b = a.clone();
        b.shards = 4;
        assert_eq!(a.canonical_string(), b.canonical_string());
        assert!(a.canonical_string().contains("cluster-svc report"));
    }

    #[test]
    fn canonical_string_has_whatif_but_not_decision_wallclock() {
        let a = ServiceReport {
            whatif: WhatIfStats {
                decisions: 3,
                candidates: 9,
                ..WhatIfStats::default()
            },
            cache_hits: 5,
            ..ServiceReport::default()
        };
        let mut b = a.clone();
        // Host-measured decision latency must never affect the canonical
        // rendering (it differs run to run by nature).
        b.decision_hist.record(123_456);
        assert_eq!(a.canonical_string(), b.canonical_string());
        assert!(a
            .canonical_string()
            .contains("whatif decisions=3 candidates=9"));
        assert!(a.canonical_string().contains("cache hits=5"));
    }

    #[test]
    fn canonical_string_carries_breaker_and_retry_counters() {
        let a = ServiceReport {
            breaker: BreakerStats {
                breaches: 4,
                trips: 1,
                probes: 1,
                recloses: 1,
                fallback_decisions: 7,
            },
            profile_retries: 2,
            ..ServiceReport::default()
        };
        let s = a.canonical_string();
        assert!(
            s.contains("breaker breaches=4 trips=1 probes=1 recloses=1 fallbacks=7"),
            "{s}"
        );
        assert!(s.contains("profile_retries=2"), "{s}");
    }
}
