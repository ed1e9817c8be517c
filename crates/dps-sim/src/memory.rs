//! Modeled memory accounting.
//!
//! Table 1 of the paper contrasts the memory consumption of direct-execution
//! simulation (the whole problem in one address space) with PDEXEC+NOALLOC
//! (ghost payloads, ~14 MB). The engine reproduces this with a byte meter:
//! every in-flight data object contributes its `heap_bytes`, and operations
//! report state they hold (stored matrix blocks) via `OpCtx::account_state`.

/// Fixed modeled memory of the DPS runtime's own structures (thread
/// managers, queues), counted from the start of every run so that NOALLOC
/// numbers are not absurdly zero.
const BASELINE_BYTES: i64 = 2 << 20;

/// Tracks live and peak modeled bytes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MemoryMeter {
    live: i64,
    peak: i64,
}

impl MemoryMeter {
    /// A meter holding only the runtime baseline.
    pub(crate) fn new() -> MemoryMeter {
        MemoryMeter {
            live: BASELINE_BYTES,
            peak: BASELINE_BYTES,
        }
    }

    /// Accounts an allocation.
    pub(crate) fn alloc(&mut self, bytes: u64) {
        self.live += bytes as i64;
        self.peak = self.peak.max(self.live);
    }

    /// Accounts a release.
    pub(crate) fn free(&mut self, bytes: u64) {
        self.live -= bytes as i64;
        debug_assert!(
            self.live >= 0,
            "memory meter went negative: more frees than allocs"
        );
    }

    /// Signed adjustment from `OpCtx::account_state`.
    pub(crate) fn adjust(&mut self, delta: i64) {
        self.live += delta;
        self.peak = self.peak.max(self.live);
        debug_assert!(self.live >= 0, "memory meter went negative");
    }

    /// High-water mark of live bytes.
    pub(crate) fn peak_bytes(&self) -> u64 {
        self.peak.max(0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut m = MemoryMeter::new();
        m.alloc(1000);
        m.alloc(500);
        m.free(1200);
        m.alloc(50);
        assert_eq!(m.live, BASELINE_BYTES + 350);
        assert_eq!(m.peak_bytes(), BASELINE_BYTES as u64 + 1500);
    }

    #[test]
    fn adjust_moves_both_ways() {
        let mut m = MemoryMeter::new();
        m.adjust(700);
        m.adjust(-200);
        assert_eq!(m.live, BASELINE_BYTES + 500);
        assert_eq!(m.peak_bytes(), BASELINE_BYTES as u64 + 700);
    }
}
