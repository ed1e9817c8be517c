//! Typed failure semantics for the execution layer.
//!
//! Every way a simulation can fail — a mis-wired flow graph, a deadlocked
//! window, a blown step budget, a fork the data model refuses — is a
//! [`SimError`] variant instead of a
//! panic or a post-hoc stall string. Callers at each layer attach context
//! with [`SimError::context`], so an error surfacing from a cluster run
//! still names the simulation-level cause.

use std::collections::BTreeMap;
use std::fmt;

use desim::SimTime;
use dps::OpId;

/// Result alias used throughout the simulation stack.
pub type SimResult<T> = Result<T, SimError>;

/// One flow-control-blocked server in a deadlock diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockedOp {
    /// Name of the blocked (posting) operation.
    pub op: String,
    /// Thread the blocked server runs on.
    pub thread: u32,
    /// The operation's flow-control window size.
    pub window: usize,
    /// Credits currently held (in flight) against that window.
    pub in_flight: usize,
    /// Name of the operation the parked post targets.
    pub waiting_on: String,
    /// Objects queued at the target operation across all threads.
    pub dest_queued: usize,
}

impl fmt::Display for BlockedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@t{} (window {} with {} in flight) -> {} ({} queued)",
            self.op, self.thread, self.window, self.in_flight, self.waiting_on, self.dest_queued
        )
    }
}

/// What the engine saw when the event queue drained with pending work: the
/// wait-for graph over flow-control windows plus the residual queue state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockDiag {
    /// Virtual time at which progress stopped.
    pub at: SimTime,
    /// Flow-control-blocked servers, each with its parked post.
    pub blocked: Vec<BlockedOp>,
    /// A wait-for cycle among the blocked operations (op names, in order),
    /// when one exists. Empty when the blockage is acyclic (e.g. a window
    /// whose consumer simply never releases credits).
    pub cycle: Vec<String>,
    /// Data objects queued at servers that will never run again.
    pub queued_objects: usize,
    /// Servers with an invocation in progress.
    pub busy_servers: usize,
    /// Network transfers still in flight.
    pub inflight_transfers: usize,
}

/// Finds a directed cycle in the wait-for graph over flow-control windows
/// (edge `blocked op -> target of its parked post`) by DFS three-colouring;
/// only ops that are themselves blocked can extend a cycle.
pub(crate) fn find_wait_cycle(edges: &BTreeMap<OpId, Vec<OpId>>) -> Option<Vec<OpId>> {
    fn dfs(
        op: OpId,
        edges: &BTreeMap<OpId, Vec<OpId>>,
        state: &mut BTreeMap<OpId, u8>, // 1 = on stack, 2 = done
        stack: &mut Vec<OpId>,
    ) -> Option<Vec<OpId>> {
        state.insert(op, 1);
        stack.push(op);
        if let Some(nexts) = edges.get(&op) {
            for &next in nexts {
                match state.get(&next) {
                    Some(1) => {
                        let start = stack.iter().position(|&o| o == next).unwrap_or(0);
                        return Some(stack[start..].to_vec());
                    }
                    Some(_) => {}
                    None => {
                        if edges.contains_key(&next) {
                            if let Some(c) = dfs(next, edges, state, stack) {
                                return Some(c);
                            }
                        }
                    }
                }
            }
        }
        stack.pop();
        state.insert(op, 2);
        None
    }
    let mut state = BTreeMap::new();
    let mut stack = Vec::new();
    for &op in edges.keys() {
        if !state.contains_key(&op) {
            if let Some(c) = dfs(op, edges, &mut state, &mut stack) {
                return Some(c);
            }
            stack.clear();
        }
    }
    None
}

impl fmt::Display for DeadlockDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deadlock at {}: ", self.at)?;
        if !self.cycle.is_empty() {
            write!(f, "wait-for cycle [{}]; ", self.cycle.join(" -> "))?;
        }
        if self.blocked.is_empty() {
            write!(f, "no flow-control-blocked servers")?;
        } else {
            write!(f, "blocked: ")?;
            for (i, b) in self.blocked.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{b}")?;
            }
        }
        write!(
            f,
            "; {} queued objects, {} busy servers, {} transfers in flight",
            self.queued_objects, self.busy_servers, self.inflight_transfers
        )
    }
}

/// The failure taxonomy of the execution layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimErrorKind {
    /// The event queue drained while work was still pending — a wiring or
    /// flow-control deadlock. Carries the wait-for diagnostic.
    DeadlockDetected(DeadlockDiag),
    /// The atomic-step budget (`SimConfig::max_steps`) was exhausted before
    /// the application terminated.
    BudgetExceeded {
        /// Virtual time when the budget fired.
        at: SimTime,
        /// Engine steps taken so far.
        steps: u64,
    },
    /// The application used the flow graph in a way it does not support
    /// (posting along a missing edge, releasing a credit for an unwindowed
    /// operation).
    WiringError {
        /// Name of the operation at fault.
        op: String,
        /// What the operation attempted.
        detail: String,
    },
    /// A checkpoint fork was refused (uncloneable payload or state, a
    /// fabric that cannot fork, or a run already finished).
    ForkRefused {
        /// Why the fork could not be produced.
        reason: String,
    },
    /// The application violated its own protocol: the run completed without
    /// errors but did not produce what the caller's contract requires
    /// (termination, an expected mark, a valid configuration).
    Protocol {
        /// What was expected but missing.
        detail: String,
    },
}

impl fmt::Display for SimErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimErrorKind::DeadlockDetected(d) => write!(f, "{d}"),
            SimErrorKind::BudgetExceeded { at, steps } => {
                write!(f, "step budget exceeded at {at} after {steps} steps")
            }
            SimErrorKind::WiringError { op, detail } => {
                write!(f, "wiring error at operation '{op}': {detail}")
            }
            SimErrorKind::ForkRefused { reason } => write!(f, "fork refused: {reason}"),
            SimErrorKind::Protocol { detail } => write!(f, "protocol violation: {detail}"),
        }
    }
}

/// A typed simulation failure plus the context trail accumulated while it
/// propagated (innermost hop first).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimError {
    /// What went wrong.
    pub kind: SimErrorKind,
    /// Caller-attached context, innermost first.
    pub trail: Vec<String>,
}

impl SimError {
    /// Wraps a kind with an empty context trail.
    pub fn new(kind: SimErrorKind) -> SimError {
        SimError {
            kind,
            trail: Vec::new(),
        }
    }

    /// A deadlock error from a diagnostic.
    pub fn deadlock(diag: DeadlockDiag) -> SimError {
        SimError::new(SimErrorKind::DeadlockDetected(diag))
    }

    /// A wiring error naming the faulting operation.
    pub fn wiring(op: impl Into<String>, detail: impl Into<String>) -> SimError {
        SimError::new(SimErrorKind::WiringError {
            op: op.into(),
            detail: detail.into(),
        })
    }

    /// A refused fork.
    pub fn fork_refused(reason: impl Into<String>) -> SimError {
        SimError::new(SimErrorKind::ForkRefused {
            reason: reason.into(),
        })
    }

    /// An application-contract violation.
    pub fn protocol(detail: impl Into<String>) -> SimError {
        SimError::new(SimErrorKind::Protocol {
            detail: detail.into(),
        })
    }

    /// Appends one hop of context (e.g. `"predicting LU n=2592 on 8
    /// nodes"`); hops render innermost-first in [`fmt::Display`].
    #[must_use]
    pub fn context(mut self, hop: impl Into<String>) -> SimError {
        self.trail.push(hop.into());
        self
    }

    /// The deadlock diagnostic, when this is a deadlock.
    pub fn deadlock_diag(&self) -> Option<&DeadlockDiag> {
        match &self.kind {
            SimErrorKind::DeadlockDetected(d) => Some(d),
            _ => None,
        }
    }

    /// `true` for [`SimErrorKind::ForkRefused`] — the one error callers
    /// routinely recover from by falling back to a fresh run.
    pub fn is_fork_refused(&self) -> bool {
        matches!(self.kind, SimErrorKind::ForkRefused { .. })
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        for hop in &self.trail {
            write!(f, "; while {hop}")?;
        }
        Ok(())
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_trail_renders_innermost_first() {
        let e = SimError::wiring("split", "posted along a missing edge")
            .context("predicting LU")
            .context("scheduling job j3");
        let s = e.to_string();
        assert!(s.contains("wiring error at operation 'split'"));
        let lu = s.find("predicting LU").unwrap();
        let job = s.find("scheduling job j3").unwrap();
        assert!(lu < job, "inner hop first: {s}");
    }

    #[test]
    fn deadlock_display_names_cycle_and_blocked_ops() {
        let d = DeadlockDiag {
            at: SimTime(17),
            blocked: vec![BlockedOp {
                op: "split".into(),
                thread: 0,
                window: 1,
                in_flight: 1,
                waiting_on: "merge".into(),
                dest_queued: 1,
            }],
            cycle: vec!["split".into(), "merge".into()],
            queued_objects: 1,
            busy_servers: 0,
            inflight_transfers: 0,
        };
        let s = SimError::deadlock(d).to_string();
        assert!(s.contains("split"));
        assert!(s.contains("merge"));
        assert!(s.contains("cycle"));
        assert!(s.contains("window 1"));
    }
}
