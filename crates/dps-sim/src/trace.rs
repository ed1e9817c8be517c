//! Execution traces: the simulator's reconstruction of the parallel
//! schedule (the paper's Figure 2 timing diagrams).

use desim::SimTime;
use dps::{OpId, ThreadId};
use netmodel::NodeId;

/// One executed atomic step (computation part of an operation).
#[derive(Clone, Debug)]
pub struct StepRecord {
    /// Thread the step ran on.
    pub thread: ThreadId,
    /// Node hosting the thread.
    pub node: NodeId,
    /// Target operation.
    pub op: OpId,
    /// Operation name.
    pub op_name: String,
    /// Step start (virtual time).
    pub start: SimTime,
    /// Step end (virtual time).
    pub end: SimTime,
}

/// One data-object transfer over the network.
#[derive(Clone, Debug)]
pub struct TransferRecord {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Wire bytes transferred.
    pub bytes: u64,
    /// Step start (virtual time).
    pub start: SimTime,
    /// Step end (virtual time).
    pub end: SimTime,
}

/// Full trace of a simulated run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Executed atomic steps.
    pub steps: Vec<StepRecord>,
    /// Completed transfers.
    pub transfers: Vec<TransferRecord>,
}

impl Trace {
    /// Renders a coarse textual Gantt chart: one row per thread, `width`
    /// character columns spanning the run. Each cell shows the first letter
    /// of the operation that was computing there (or '.' for idle).
    pub fn gantt(&self, width: usize) -> String {
        let horizon = self
            .steps
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(SimTime::ZERO)
            .as_nanos()
            .max(1);
        let mut threads: Vec<ThreadId> = self.steps.iter().map(|s| s.thread).collect();
        threads.sort_unstable();
        threads.dedup();

        let mut out = String::new();
        for t in threads {
            let mut row = vec!['.'; width];
            for s in self.steps.iter().filter(|s| s.thread == t) {
                let a = (s.start.as_nanos() as u128 * width as u128 / horizon as u128) as usize;
                let b = (s.end.as_nanos() as u128 * width as u128 / horizon as u128) as usize;
                let ch = s.op_name.chars().next().unwrap_or('#');
                for cell in row
                    .iter_mut()
                    .take(b.max(a + 1).min(width))
                    .skip(a.min(width - 1))
                {
                    *cell = ch;
                }
            }
            out.push_str(&format!("{:>4} |", format!("T{}", t.0)));
            out.extend(row);
            out.push('\n');
        }
        out
    }

    /// Exports the trace in Chrome's trace-event JSON format (load in
    /// `chrome://tracing` or Perfetto): one track per DPS thread for the
    /// atomic steps, async begin/end pairs on a per-node-pair track for
    /// transfers (so overlapping transfers on the same pair nest instead of
    /// occluding), and one counter track per node showing how many steps
    /// were running there over time.
    pub fn to_chrome_trace(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        fn us(t: SimTime) -> f64 {
            t.as_nanos() as f64 / 1e3
        }
        let mut out = String::from("[");
        let mut first = true;
        let mut push = |ev: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
            out.push_str(&ev);
        };
        for s in &self.steps {
            let dur_us = (s.end.as_nanos() - s.start.as_nanos()) as f64 / 1e3;
            push(
                format!(
                    r#"{{"name":"{}","cat":"step","ph":"X","ts":{:.3},"dur":{:.3},"pid":{},"tid":{}}}"#,
                    esc(&s.op_name),
                    us(s.start),
                    dur_us,
                    s.node.0,
                    s.thread.0
                ),
                &mut first,
            );
        }
        // Transfers as async (flow) events: matched "b"/"e" pairs keyed by a
        // per-transfer id, carrying payload metadata in args.
        for (i, t) in self.transfers.iter().enumerate() {
            let tid = u64::from(t.src.0) * 1000 + u64::from(t.dst.0);
            let name = format!("xfer {}B", t.bytes);
            push(
                format!(
                    r#"{{"name":"{name}","cat":"net","ph":"b","id":{i},"ts":{:.3},"pid":1000,"tid":{tid},"args":{{"bytes":{},"src":{},"dst":{}}}}}"#,
                    us(t.start),
                    t.bytes,
                    t.src.0,
                    t.dst.0
                ),
                &mut first,
            );
            push(
                format!(
                    r#"{{"name":"{name}","cat":"net","ph":"e","id":{i},"ts":{:.3},"pid":1000,"tid":{tid}}}"#,
                    us(t.end)
                ),
                &mut first,
            );
        }
        // Per-node utilization: a counter track sampling the number of
        // concurrently running steps at every start/end boundary.
        let mut deltas: std::collections::BTreeMap<(u32, SimTime), i64> =
            std::collections::BTreeMap::new();
        for s in &self.steps {
            *deltas.entry((s.node.0, s.start)).or_default() += 1;
            *deltas.entry((s.node.0, s.end)).or_default() -= 1;
        }
        let mut running = 0i64;
        let mut cur_node = None;
        for ((node, at), delta) in deltas {
            if cur_node != Some(node) {
                cur_node = Some(node);
                running = 0;
            }
            running += delta;
            push(
                format!(
                    r#"{{"name":"running steps","cat":"util","ph":"C","ts":{:.3},"pid":{node},"args":{{"running":{running}}}}}"#,
                    us(at)
                ),
                &mut first,
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(t: u32, name: &str, a: u64, b: u64) -> StepRecord {
        StepRecord {
            thread: ThreadId(t),
            node: NodeId(t),
            op: OpId(0),
            op_name: name.to_string(),
            start: SimTime(a),
            end: SimTime(b),
        }
    }

    #[test]
    fn gantt_renders_rows_per_thread() {
        let tr = Trace {
            steps: vec![step(0, "split", 0, 50), step(1, "op", 50, 100)],
            transfers: vec![],
        };
        let g = tr.gantt(20);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('s'));
        assert!(lines[1].contains('o'));
        assert!(lines[0].starts_with("  T0 |"));
    }

    #[test]
    fn empty_trace_gantt_is_empty() {
        assert_eq!(Trace::default().gantt(10), "");
    }

    #[test]
    fn chrome_trace_is_wellformed_json() {
        let tr = Trace {
            steps: vec![step(0, "split \"odd\"", 1000, 51000)],
            transfers: vec![TransferRecord {
                src: NodeId(0),
                dst: NodeId(1),
                bytes: 1234,
                start: SimTime(0),
                end: SimTime(2000),
            }],
        };
        let json = tr.to_chrome_trace();
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        // Steps are complete events; transfers are async begin/end pairs.
        assert!(json.contains(r#""ph":"X""#));
        assert_eq!(json.matches(r#""ph":"b""#).count(), 1);
        assert_eq!(json.matches(r#""ph":"e""#).count(), 1);
        assert!(json.contains("xfer 1234B"));
        assert!(json.contains(r#""args":{"bytes":1234,"src":0,"dst":1}"#));
        // One utilization counter sample per step boundary.
        assert_eq!(json.matches(r#""ph":"C""#).count(), 2);
        assert!(json.contains(r#""args":{"running":1}"#));
        assert!(json.contains(r#""args":{"running":0}"#));
        // The quote in the op name is escaped.
        assert!(json.contains("split \\\"odd\\\""));
        // Rough JSON sanity: balanced braces.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn chrome_trace_counter_tracks_concurrency() {
        // Two overlapping steps on one node: counter goes 1, 2, 1, 0.
        let tr = Trace {
            steps: vec![step(0, "a", 0, 100), {
                let mut s = step(1, "b", 50, 150);
                s.node = NodeId(0);
                s
            }],
            transfers: vec![],
        };
        let json = tr.to_chrome_trace();
        assert!(json.contains(r#""args":{"running":2}"#));
        let zeros = json.matches(r#""args":{"running":0}"#).count();
        assert_eq!(zeros, 1, "count returns to zero once, at the end");
    }
}
