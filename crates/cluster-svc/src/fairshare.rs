//! Weighted fair-share queues via deterministic stride scheduling.
//!
//! Each tenant owns a FIFO of pending job slots and an integer virtual
//! "pass". Whenever the service can place a job it serves the startable
//! tenant with the lowest pass (ties to the lowest tenant index), then
//! advances that tenant's pass by `nodes × STRIDE_SCALE / weight` — so
//! over any contended interval tenants receive node allocations in
//! proportion to their weights, exactly and in integers. A tenant waking
//! from an empty queue joins at the minimum pass of the currently
//! backlogged tenants, which prevents banking unbounded credit while
//! idle (and, symmetrically, being starved after a long busy period).
//!
//! The structure is global (not per cell): admission order and the pass
//! counters evolve in the one global event order, which is what keeps
//! placement — and therefore every downstream report byte — shard-count
//! invariant.

use std::collections::VecDeque;

use crate::config::TenantSpec;

/// Pass resolution: one node of service for a weight-`STRIDE_SCALE`
/// tenant. Large enough that integer division keeps weights exact for any
/// realistic weight.
const STRIDE_SCALE: u128 = 1 << 32;

/// One tenant's scheduling state.
pub(crate) struct TenantQueue {
    pub spec: TenantSpec,
    /// Pending job slots, head = next to place. Interrupted jobs re-enter
    /// at the head (they already waited their turn).
    pub pending: VecDeque<u32>,
    /// Virtual service received, in scaled node units.
    pub pass: u128,
    /// Currently running jobs (quota `max_inflight` applies here).
    pub inflight: usize,
}

impl TenantQueue {
    /// Whether the tenant could start another job right now.
    pub fn can_start(&self) -> bool {
        !self.pending.is_empty()
            && (self.spec.max_inflight == 0 || self.inflight < self.spec.max_inflight)
    }

    /// Whether an arrival must be rejected for backpressure.
    pub fn over_pressure(&self) -> bool {
        self.spec.max_pending != 0 && self.pending.len() >= self.spec.max_pending
    }
}

/// The fair-share scheduler state shared by all cells.
pub(crate) struct FairShare {
    pub tenants: Vec<TenantQueue>,
    /// Total pending jobs across tenants (fast emptiness check).
    pending_total: usize,
}

impl FairShare {
    pub fn new(specs: &[TenantSpec]) -> FairShare {
        FairShare {
            tenants: specs
                .iter()
                .map(|spec| TenantQueue {
                    spec: spec.clone(),
                    pending: VecDeque::new(),
                    pass: 0,
                    inflight: 0,
                })
                .collect(),
            pending_total: 0,
        }
    }

    pub fn pending_total(&self) -> usize {
        self.pending_total
    }

    /// Minimum pass among backlogged tenants other than `except` — the
    /// join point for a tenant waking from idle.
    fn min_backlogged_pass(&self, except: usize) -> Option<u128> {
        self.tenants
            .iter()
            .enumerate()
            .filter(|(i, t)| *i != except && !t.pending.is_empty())
            .map(|(_, t)| t.pass)
            .min()
    }

    /// Lifts an idle tenant's pass to the current virtual time when its
    /// queue goes from empty to non-empty.
    fn join(&mut self, tenant: usize) {
        if self.tenants[tenant].pending.is_empty() {
            if let Some(min) = self.min_backlogged_pass(tenant) {
                let t = &mut self.tenants[tenant];
                t.pass = t.pass.max(min);
            }
        }
    }

    /// Enqueues a newly admitted job at the tail.
    pub fn push_back(&mut self, tenant: u32, slot: u32) {
        self.join(tenant as usize);
        self.tenants[tenant as usize].pending.push_back(slot);
        self.pending_total += 1;
    }

    /// Re-enqueues an interrupted/requeued job at the head.
    pub fn push_front(&mut self, tenant: u32, slot: u32) {
        self.join(tenant as usize);
        self.tenants[tenant as usize].pending.push_front(slot);
        self.pending_total += 1;
    }

    /// Removes the head of `tenant`'s queue (it was placed or failed).
    pub fn pop_head(&mut self, tenant: u32) -> Option<u32> {
        let slot = self.tenants[tenant as usize].pending.pop_front()?;
        self.pending_total -= 1;
        Some(slot)
    }

    /// Removes an arbitrary queued slot (job cancellation); returns whether
    /// it was present.
    pub fn remove(&mut self, tenant: u32, slot: u32) -> bool {
        let q = &mut self.tenants[tenant as usize].pending;
        if let Some(i) = q.iter().position(|&s| s == slot) {
            q.remove(i);
            self.pending_total -= 1;
            true
        } else {
            false
        }
    }

    /// The startable tenant with the lowest `(pass, index)` among those
    /// not marked in `blocked`, if any: one pass that keeps the first
    /// strictly lower pass, so ties go to the lowest index.
    pub fn next_candidate(&self, blocked: &[bool]) -> Option<usize> {
        let mut best: Option<(usize, u128)> = None;
        for (i, (t, &b)) in self.tenants.iter().zip(blocked).enumerate() {
            if !b && t.can_start() && best.is_none_or(|(_, pass)| t.pass < pass) {
                best = Some((i, t.pass));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Charges a placement of `nodes` nodes against the tenant's pass.
    pub fn charge(&mut self, tenant: usize, nodes: u32) {
        let t = &mut self.tenants[tenant];
        t.pass += u128::from(nodes) * STRIDE_SCALE / u128::from(t.spec.weight.max(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn share(weights: &[u32]) -> FairShare {
        let specs: Vec<TenantSpec> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| TenantSpec::new(format!("t{i}"), w))
            .collect();
        FairShare::new(&specs)
    }

    #[test]
    fn service_is_weight_proportional_under_contention() {
        // Two backlogged tenants, 4:1 weights, identical 4-node jobs:
        // serving the lowest pass repeatedly gives tenant 0 four
        // placements for each placement of tenant 1.
        let mut fs = share(&[4, 1]);
        for slot in 0..40 {
            fs.push_back(0, slot);
            fs.push_back(1, 100 + slot);
        }
        let mut served = [0u32; 2];
        for _ in 0..30 {
            let ti = fs.next_candidate(&[false, false]).unwrap();
            fs.pop_head(ti as u32);
            fs.charge(ti, 4);
            served[ti] += 1;
        }
        assert_eq!(served, [24, 6], "exact 4:1 split");
    }

    #[test]
    fn waking_tenant_joins_at_the_backlogged_virtual_time() {
        let mut fs = share(&[1, 1]);
        // Tenant 0 runs alone for a while, building up pass.
        for slot in 0..10 {
            fs.push_back(0, slot);
        }
        for _ in 0..8 {
            let ti = fs.next_candidate(&[false, false]).unwrap();
            assert_eq!(ti, 0);
            fs.pop_head(0);
            fs.charge(0, 8);
        }
        // Tenant 1 wakes: it must not replay tenant 0's whole history as
        // credit — it joins at tenant 0's pass and they alternate.
        fs.push_back(1, 100);
        fs.push_back(1, 101);
        assert_eq!(fs.tenants[1].pass, fs.tenants[0].pass);
        let first = fs.next_candidate(&[false, false]).unwrap();
        assert_eq!(first, 0, "equal pass ties to the lower index");
    }

    #[test]
    fn blocked_and_quota_tenants_are_skipped() {
        let mut fs = share(&[2, 1]);
        fs.push_back(0, 1);
        fs.push_back(1, 2);
        assert_eq!(fs.next_candidate(&[true, false]), Some(1));
        assert_eq!(fs.next_candidate(&[true, true]), None);
        fs.tenants[0].spec.max_inflight = 1;
        fs.tenants[0].inflight = 1;
        assert_eq!(fs.next_candidate(&[false, false]), Some(1));
    }

    /// `next_candidate` as an iterator chain: the oracle for the one-pass
    /// loop.
    fn chained_candidate(fs: &FairShare, blocked: &[bool]) -> Option<usize> {
        fs.tenants
            .iter()
            .enumerate()
            .filter(|(i, t)| !blocked[*i] && t.can_start())
            .min_by_key(|(i, t)| (t.pass, *i))
            .map(|(i, _)| i)
    }

    #[test]
    fn one_pass_candidate_matches_the_iterator_chain() {
        // Random passes from a handful of values (so equal passes are
        // common), random blocked flags, empty queues and quotas at,
        // below and without their limit.
        let mut x: u64 = 0xFA1E_5EED_0001;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let passes = [0, 1, 2, 1 << 40, u128::MAX - 1, u128::MAX];
        let (mut ties, mut found) = (0, 0);
        for case in 0..20_000 {
            let nt = 1 + (next() % 7) as usize;
            let mut fs = share(&vec![1; nt]);
            let mut blocked = vec![false; nt];
            for (i, t) in fs.tenants.iter_mut().enumerate() {
                t.pass = passes[(next() % passes.len() as u64) as usize];
                if next() % 4 != 0 {
                    t.pending.push_back(i as u32);
                }
                t.spec.max_inflight = (next() % 3) as usize;
                t.inflight = (next() % 3) as usize;
                blocked[i] = next() % 4 == 0;
            }
            let want = chained_candidate(&fs, &blocked);
            assert_eq!(fs.next_candidate(&blocked), want, "case {case}");
            if let Some(w) = want {
                found += 1;
                let tied = |(i, t): (usize, &TenantQueue)| {
                    i != w && t.pass == fs.tenants[w].pass && !blocked[i] && t.can_start()
                };
                ties += usize::from(fs.tenants.iter().enumerate().any(tied));
            }
        }
        assert!(found > 10_000 && ties > 1_000, "{found} found, {ties} tied");
    }

    #[test]
    fn remove_and_pop_keep_the_total_consistent() {
        let mut fs = share(&[1]);
        fs.push_back(0, 1);
        fs.push_back(0, 2);
        fs.push_front(0, 3);
        assert_eq!(fs.pending_total(), 3);
        assert_eq!(fs.pop_head(0), Some(3));
        assert!(fs.remove(0, 2));
        assert!(!fs.remove(0, 99));
        assert_eq!(fs.pending_total(), 1);
        assert_eq!(fs.pop_head(0), Some(1));
        assert_eq!(fs.pop_head(0), None);
    }
}
