//! Time-windowed rate multipliers.
//!
//! A [`RateWindow`] scales one node's rate (CPU speed, link bandwidth) by a
//! factor on `[from, to)`. [`RateTimeline`] answers the questions injection
//! layers ask about a set of them: what is the effective multiplier of a
//! node at an instant, when does the next window boundary fall, and which
//! nodes' multipliers changed across a time interval. It is the workspace's
//! only window mechanism: `netmodel`'s link capacity windows, the CPU
//! slowdowns of `dps-sim`'s `SimFabric` under a fault plan and
//! `cluster-svc`'s fault pricing all query one.

use crate::time::SimTime;

/// A time-windowed per-node rate multiplier (CPU speed or link bandwidth),
/// active on `[from, to)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateWindow {
    /// Affected node.
    pub node: u32,
    /// Remaining fraction of the nominal rate, in `(0, 1]`.
    pub factor: f64,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub to: SimTime,
}

impl RateWindow {
    fn check(&self) {
        assert!(self.to > self.from, "empty rate window");
        assert!(
            self.factor > 0.0 && self.factor <= 1.0,
            "rate window factor {} outside (0, 1]",
            self.factor
        );
    }
}

/// A queryable set of per-node rate windows.
#[derive(Clone, Debug, Default)]
pub struct RateTimeline {
    windows: Vec<RateWindow>,
}

impl RateTimeline {
    /// A timeline over the given windows. Panics on an empty window or a
    /// factor outside `(0, 1]`.
    pub fn new(windows: Vec<RateWindow>) -> RateTimeline {
        windows.iter().for_each(RateWindow::check);
        RateTimeline { windows }
    }

    /// Schedules one more window, under the same checks.
    pub fn push(&mut self, w: RateWindow) {
        w.check();
        self.windows.push(w);
    }

    /// Whether the timeline has no windows (every factor is exactly 1).
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The windows, in scheduling order.
    pub fn windows(&self) -> &[RateWindow] {
        &self.windows
    }

    /// Effective multiplier of `node` at time `t`: the product, in
    /// scheduling order, of every window active at `t` (windows are active
    /// on `[from, to)`). Exactly `1.0` when no window applies, so
    /// fault-free nodes keep bit-identical rates.
    pub fn factor_at(&self, node: u32, t: SimTime) -> f64 {
        let mut f = 1.0;
        for w in &self.windows {
            if w.node == node && w.from <= t && t < w.to {
                f *= w.factor;
            }
        }
        f
    }

    /// The earliest window boundary strictly after `t`, if any — the next
    /// instant at which some node's multiplier changes.
    pub fn next_boundary_after(&self, t: SimTime) -> Option<SimTime> {
        self.windows
            .iter()
            .flat_map(|w| [w.from, w.to])
            .filter(|&b| b > t)
            .min()
    }

    /// Appends to `out` every node whose multiplier changes somewhere in
    /// `(prev, now]` (nodes may repeat).
    pub fn changed_nodes(&self, prev: SimTime, now: SimTime, out: &mut Vec<u32>) {
        for w in &self.windows {
            if (w.from > prev && w.from <= now) || (w.to > prev && w.to <= now) {
                out.push(w.node);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl() -> RateTimeline {
        RateTimeline::new(vec![
            RateWindow {
                node: 1,
                factor: 0.5,
                from: SimTime(10),
                to: SimTime(20),
            },
            RateWindow {
                node: 1,
                factor: 0.5,
                from: SimTime(15),
                to: SimTime(30),
            },
            RateWindow {
                node: 2,
                factor: 0.25,
                from: SimTime(5),
                to: SimTime(25),
            },
        ])
    }

    #[test]
    fn factors_multiply_inside_overlaps() {
        let t = tl();
        assert_eq!(t.factor_at(1, SimTime(0)), 1.0);
        assert_eq!(t.factor_at(1, SimTime(10)), 0.5); // from is inclusive
        assert_eq!(t.factor_at(1, SimTime(17)), 0.25); // overlap multiplies
        assert_eq!(t.factor_at(1, SimTime(20)), 0.5); // to is exclusive
        assert_eq!(t.factor_at(1, SimTime(30)), 1.0);
        assert_eq!(t.factor_at(2, SimTime(10)), 0.25);
        assert_eq!(t.factor_at(7, SimTime(10)), 1.0, "untouched node");
    }

    #[test]
    fn boundaries_walk_forward() {
        let t = tl();
        assert_eq!(t.next_boundary_after(SimTime(0)), Some(SimTime(5)));
        assert_eq!(t.next_boundary_after(SimTime(5)), Some(SimTime(10)));
        assert_eq!(t.next_boundary_after(SimTime(20)), Some(SimTime(25)));
        assert_eq!(t.next_boundary_after(SimTime(30)), None);
        assert_eq!(
            RateTimeline::default().next_boundary_after(SimTime(0)),
            None
        );
    }

    #[test]
    fn changed_nodes_cover_the_interval() {
        let t = tl();
        let mut out = Vec::new();
        t.changed_nodes(SimTime(0), SimTime(10), &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
        out.clear();
        t.changed_nodes(SimTime(25), SimTime(30), &mut out);
        assert_eq!(out, vec![1]);
        out.clear();
        t.changed_nodes(SimTime(30), SimTime(99), &mut out);
        assert!(out.is_empty());
    }
}
