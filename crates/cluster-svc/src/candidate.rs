//! What a what-if candidate is and how its score is computed and
//! compared: integer suffix sums over a profile, compared in a strict
//! deterministic order and fingerprinted for the score memo.

use std::hash::Hasher;

use cluster::EfficiencyProfile;
use desim::fxhash::FxHasher;
use desim::SimDuration;

/// The kinds of candidate future a what-if decision considers. The `u32`
/// value doubles as the journal tag and the fingerprint discriminant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CandidateKind {
    /// Keep the current allocation.
    Keep = 0,
    /// Shrink to the efficiency-floor target.
    ShrinkTarget = 1,
    /// Shrink to half the current allocation.
    ShrinkHalf = 2,
    /// Grow into the cell's free nodes.
    Grow = 3,
    /// Move to another cell (pays a checkpoint + restart).
    Migrate = 4,
    /// Keep the allocation but take an extra checkpoint now.
    CheckpointNow = 5,
}

/// Integer score of one candidate future over a job's remaining
/// iterations. All fields are exact sums of profile integers, so scores —
/// and every comparison between them — are byte-deterministic across
/// shard counts and engine thread counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CandidateScore {
    /// Predicted remaining wall time (ns).
    pub span_ns: u64,
    /// Serial work remaining (ns).
    pub work_ns: u64,
    /// Node·ns the candidate would allocate for that span.
    pub alloc_node_ns: u128,
}

impl CandidateScore {
    /// Adds one iteration of `span` and `work` on `nodes` nodes: the one
    /// accumulator of every suffix score, analytic or profiled.
    pub fn add(&mut self, nodes: u32, span: SimDuration, work: SimDuration) {
        let span = span.as_nanos();
        self.span_ns = self.span_ns.saturating_add(span);
        self.work_ns = self.work_ns.saturating_add(work.as_nanos());
        self.alloc_node_ns += u128::from(nodes) * u128::from(span);
    }

    /// Whether the predicted dynamic efficiency — remaining work over
    /// allocated node-time, `1.0` for an empty suffix (nothing left to
    /// waste) — clears the policy's floor.
    pub fn clears(&self, min_eff: f64) -> bool {
        let eff = match self.alloc_node_ns {
            0 => 1.0,
            alloc => self.work_ns as f64 / alloc as f64,
        };
        eff >= min_eff
    }

    /// Strict deterministic preference order: a floor-clearing candidate
    /// beats one below the floor; among floor-clearing candidates the
    /// shorter predicted span wins (finish sooner), ties to the cheaper
    /// allocation (free more nodes); among below-floor candidates the
    /// higher efficiency wins (waste less), ties to the shorter span.
    /// Exact ties return `false`, so the scan keeps the *first* candidate
    /// in enumeration order — enumeration order is part of the contract.
    pub fn beats(&self, other: &CandidateScore, min_eff: f64) -> bool {
        let (a, b) = (self.clears(min_eff), other.clears(min_eff));
        if a != b {
            return a;
        }
        if a {
            if self.span_ns != other.span_ns {
                return self.span_ns < other.span_ns;
            }
            self.alloc_node_ns < other.alloc_node_ns
        } else {
            // Integer cross-comparison of work/alloc ratios: exact, no f64.
            let lhs = u128::from(self.work_ns) * other.alloc_node_ns;
            let rhs = u128::from(other.work_ns) * self.alloc_node_ns;
            if lhs != rhs {
                return lhs > rhs;
            }
            self.span_ns < other.span_ns
        }
    }
}

/// Scores the suffix `points[from..]` of a profile, pricing each iteration
/// at the allocation the removal plan leaves it: iteration `k` runs on
/// `start_nodes` minus every plan entry `(after, count)` with `after <= k`
/// (the plan's 1-based "kill `count` workers after iteration `after`"
/// convention), never below one node. A fork-realized profile is priced
/// under its plan; a fixed-allocation profile under the empty plan — what
/// the remaining iterations cost if the job runs them all at `start_nodes`.
pub(crate) fn realized_suffix(
    profile: &EfficiencyProfile,
    start_nodes: u32,
    plan: &[(usize, u32)],
    from: usize,
) -> CandidateScore {
    let mut s = CandidateScore::default();
    for (k, pt) in profile.points.iter().enumerate().skip(from) {
        let removed: u32 = plan
            .iter()
            .filter(|&&(after, _)| after <= k)
            .map(|&(_, count)| count)
            .sum();
        s.add(
            start_nodes.saturating_sub(removed).max(1),
            pt.span,
            pt.cpu_work,
        );
    }
    s
}

/// Fingerprint of one candidate evaluation for the score memo: workload
/// identity, start allocation, committed removal plan, decision barrier,
/// candidate allocation and a discriminant separating fork-realized from
/// profile-suffix semantics. Same fingerprint ⇒ same score by
/// construction, so hits can skip the simulator entirely.
pub(crate) fn score_fingerprint(
    workload_key: &str,
    start_nodes: u32,
    plan: &[(usize, u32)],
    barrier: usize,
    candidate_nodes: u32,
    tag: u32,
) -> u64 {
    let mut h = FxHasher::default();
    h.write(workload_key.as_bytes());
    h.write_u32(start_nodes);
    h.write_usize(plan.len());
    for &(after, count) in plan {
        h.write_usize(after);
        h.write_u32(count);
    }
    h.write_usize(barrier);
    h.write_u32(candidate_nodes);
    h.write_u32(tag);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::IterationPoint;

    fn profile_of(spans: &[(u64, u64)]) -> EfficiencyProfile {
        EfficiencyProfile {
            points: spans
                .iter()
                .enumerate()
                .map(|(k, &(span, work))| IterationPoint {
                    label: format!("iter:{}", k + 1),
                    span: SimDuration(span),
                    cpu_work: SimDuration(work),
                    efficiency: 0.0,
                })
                .collect(),
        }
    }

    #[test]
    fn suffix_scores_sum_the_tail() {
        let p = profile_of(&[(100, 80), (50, 40), (25, 20)]);
        let s = realized_suffix(&p, 4, &[], 1);
        assert_eq!(s.span_ns, 75);
        assert_eq!(s.work_ns, 60);
        assert_eq!(s.alloc_node_ns, 4 * 75);
        let empty = realized_suffix(&p, 4, &[], 3);
        assert_eq!(empty, CandidateScore::default());
        assert!(empty.clears(1.0));
    }

    #[test]
    fn realized_suffix_prices_the_removal_plan() {
        // 8 nodes, plan kills 4 after iteration 1: iterations 0 at 8,
        // 1 and 2 at 4 (0-based index >= after).
        let p = profile_of(&[(100, 80), (100, 80), (100, 80)]);
        let s = realized_suffix(&p, 8, &[(1, 4)], 0);
        assert_eq!(s.alloc_node_ns, 8 * 100 + 4 * 100 + 4 * 100);
        // From iteration 2 only the shrunk tail remains.
        let tail = realized_suffix(&p, 8, &[(1, 4)], 2);
        assert_eq!(tail.alloc_node_ns, 4 * 100);
        // Removals can never price below one node.
        let floor = realized_suffix(&p, 2, &[(1, 5)], 2);
        assert_eq!(floor.alloc_node_ns, 100);
    }

    #[test]
    fn beats_is_a_strict_deterministic_order() {
        let fast_cheap = CandidateScore {
            span_ns: 100,
            work_ns: 90,
            alloc_node_ns: 100,
        };
        let fast_rich = CandidateScore {
            span_ns: 100,
            work_ns: 90,
            alloc_node_ns: 400,
        };
        let slow = CandidateScore {
            span_ns: 300,
            work_ns: 90,
            alloc_node_ns: 310,
        };
        // All clear a 0.1 floor: span first, then allocation.
        assert!(fast_cheap.beats(&slow, 0.1));
        assert!(fast_cheap.beats(&fast_rich, 0.1));
        assert!(!fast_rich.beats(&fast_cheap, 0.1));
        // A clearing candidate beats a non-clearing one regardless of span.
        let wasteful = CandidateScore {
            span_ns: 1,
            work_ns: 1,
            alloc_node_ns: 1000,
        };
        assert!(slow.beats(&wasteful, 0.25));
        assert!(!wasteful.beats(&slow, 0.25));
        // Below the floor, higher efficiency wins.
        let bad = CandidateScore {
            span_ns: 100,
            work_ns: 10,
            alloc_node_ns: 1000,
        };
        let worse = CandidateScore {
            span_ns: 50,
            work_ns: 10,
            alloc_node_ns: 4000,
        };
        assert!(bad.beats(&worse, 0.9));
        // Ties are not "beats": the first enumerated candidate stays.
        assert!(!fast_cheap.beats(&fast_cheap, 0.1));
    }

    #[test]
    fn fingerprints_separate_every_key_component() {
        let base = score_fingerprint("w", 8, &[(2, 4)], 3, 4, 0);
        assert_eq!(base, score_fingerprint("w", 8, &[(2, 4)], 3, 4, 0));
        assert_ne!(base, score_fingerprint("x", 8, &[(2, 4)], 3, 4, 0));
        assert_ne!(base, score_fingerprint("w", 7, &[(2, 4)], 3, 4, 0));
        assert_ne!(base, score_fingerprint("w", 8, &[(2, 3)], 3, 4, 0));
        assert_ne!(base, score_fingerprint("w", 8, &[], 3, 4, 0));
        assert_ne!(base, score_fingerprint("w", 8, &[(2, 4)], 2, 4, 0));
        assert_ne!(base, score_fingerprint("w", 8, &[(2, 4)], 3, 5, 0));
        assert_ne!(base, score_fingerprint("w", 8, &[(2, 4)], 3, 4, 2));
    }
}
