//! Seeded chaos driver: crash the durable sharded cluster service at
//! random commit boundaries and verify byte-identical recovery.
//!
//! This is the bench-side wrapper around `workload`'s chaos harness
//! ([`workload::chaos_baseline`] / [`workload::chaos_sweep`]): it sizes
//! the run (smoke vs full), logs one line per crash point and collects
//! divergence diagnostics. The `chaos` binary drives it.

use workload::{chaos_baseline, chaos_sweep, ChaosSummary, SCALE_JOBS, SCALE_SMOKE_JOBS};

/// Shard count chaos runs at: crashes and recoveries must cross shards.
pub const CHAOS_SHARDS: u32 = 2;

/// What one chaos sweep is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seeded crash points to exercise.
    pub points: u64,
    /// Root seed: the workload seed, and the base of every crash seed.
    pub seed: u64,
    /// Run the baseline under the seeded cross-shard fault plan.
    pub faulted: bool,
    /// CI sizing ([`SCALE_SMOKE_JOBS`] instead of [`SCALE_JOBS`]).
    pub smoke: bool,
}

/// What a chaos sweep produced: the aggregate, the per-point failure
/// diagnostics (empty = all crash points recovered byte-identically).
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Sweep aggregate (pass counts, catch-up latency).
    pub summary: ChaosSummary,
    /// One pinpointed diagnostic per diverging crash point.
    pub failures: Vec<String>,
}

impl ChaosOutcome {
    /// Whether every crash point recovered byte-identically.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs one chaos sweep, invoking `line` with a log line per crash
/// point. Derives crash seeds from `cfg.seed` so reruns are exact.
pub fn run_chaos(cfg: &ChaosConfig, mut line: impl FnMut(&str)) -> ChaosOutcome {
    let jobs = if cfg.smoke {
        SCALE_SMOKE_JOBS
    } else {
        SCALE_JOBS
    };
    let base = chaos_baseline(CHAOS_SHARDS, jobs, cfg.seed, cfg.faulted);
    line(&format!(
        "chaos: baseline {} jobs, {} shards, faulted={} — {} WAL frames, {} committed entries",
        jobs,
        CHAOS_SHARDS,
        cfg.faulted,
        base.wal().frames(),
        base.wal().entries(),
    ));
    let mut failures = Vec::new();
    let crash_base = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let summary = chaos_sweep(&base, cfg.points, crash_base, |run| {
        let verdict = match &run.divergence {
            None => "ok".to_string(),
            Some(d) => {
                failures.push(format!("crash seed {}: {d}", run.crash_seed));
                format!("DIVERGED: {d}")
            }
        };
        line(&format!(
                "  crash seed {}: kept {}/{} frames, recovered {}/{} entries{}, caught up in {:.2}s — {verdict}",
                run.crash_seed,
                run.kept_frames,
                run.frames,
                run.recovered_entries,
                run.total_entries,
                if run.torn { " (torn tail truncated)" } else { "" },
                run.catch_up_secs,
            ));
    });
    ChaosOutcome { summary, failures }
}
