//! Deployment: mapping DPS threads onto compute nodes.
//!
//! A DPS thread is a logical construct — an execution environment for a set
//! of operations. Threads are grouped into named **thread groups** (e.g.
//! `"workers"`) that routing functions index into. Several threads may map
//! onto the same node (the paper's 8-column-blocks-on-4-nodes setups), and
//! the mapping can shrink at runtime: deactivating threads is how dynamic
//! node deallocation is expressed. The static description lives here; the
//! dynamic active set is engine state (see [`ActiveSet`]).

use std::collections::BTreeMap;
use std::fmt;

use netmodel::NodeId;

/// Identifies a logical DPS thread.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ThreadId(pub u32);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Static thread-to-node mapping and named groups.
#[derive(Clone, Debug, Default)]
pub struct Deployment {
    /// `threads[t]` is the node hosting thread `t`.
    threads: Vec<NodeId>,
    groups: BTreeMap<String, Vec<ThreadId>>,
}

impl Deployment {
    /// Creates an empty instance.
    pub fn new() -> Deployment {
        Deployment::default()
    }

    /// Adds one thread on `node`, returning its id.
    pub fn add_thread(&mut self, node: NodeId) -> ThreadId {
        let id = ThreadId(self.threads.len() as u32);
        self.threads.push(node);
        id
    }

    /// Adds a named group of existing threads. Groups may overlap.
    pub fn add_group(&mut self, name: &str, threads: Vec<ThreadId>) {
        assert!(
            self.groups.insert(name.to_string(), threads).is_none(),
            "duplicate thread group {name:?}"
        );
    }

    /// Moves every thread from its node `n` to `f(n)`.
    pub(crate) fn rename_nodes(&mut self, mut f: impl FnMut(NodeId) -> NodeId) {
        self.threads.iter_mut().for_each(|n| *n = f(*n));
    }

    /// Node hosting a thread.
    pub fn node_of(&self, t: ThreadId) -> NodeId {
        self.threads[t.0 as usize]
    }

    /// Number of logical threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// All threads of a group, active or not, in declaration order.
    pub fn group(&self, name: &str) -> &[ThreadId] {
        self.groups
            .get(name)
            .unwrap_or_else(|| panic!("unknown thread group {name:?}"))
            .as_slice()
    }

    /// Whether a group with this name exists.
    pub fn has_group(&self, name: &str) -> bool {
        self.groups.contains_key(name)
    }

    /// Number of distinct nodes referenced by the deployment.
    pub fn node_count(&self) -> usize {
        let mut nodes: Vec<NodeId> = self.threads.clone();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }

    /// Highest node index + 1 (nodes are dense 0..n in practice); wide
    /// enough that `NodeId(u32::MAX)` does not overflow it.
    pub fn max_node_plus_one(&self) -> u64 {
        let plus_one = |n: &NodeId| u64::from(n.0) + 1;
        self.threads.iter().map(plus_one).max().unwrap_or(0)
    }
}

/// Runtime activity state of threads — the dynamic part of the allocation.
///
/// A deactivated thread stops being selected by routing helpers that consult
/// the active set; in-flight work addressed to it still completes (the
/// paper's removal happens at iteration boundaries where the application
/// redistributes responsibility first).
#[derive(Clone, Debug)]
pub struct ActiveSet {
    active: Vec<bool>,
}

impl ActiveSet {
    /// All threads active (the initial allocation).
    pub fn all_active(thread_count: usize) -> ActiveSet {
        ActiveSet {
            active: vec![true; thread_count],
        }
    }

    /// Whether the thread is active.
    pub fn is_active(&self, t: ThreadId) -> bool {
        self.active[t.0 as usize]
    }

    /// Marks a thread inactive.
    pub fn deactivate(&mut self, t: ThreadId) {
        self.active[t.0 as usize] = false;
    }

    /// Marks a thread active.
    pub fn activate(&mut self, t: ThreadId) {
        self.active[t.0 as usize] = true;
    }

    /// Per-thread activity flags.
    pub fn as_slice(&self) -> &[bool] {
        &self.active
    }

    /// Active threads of `group`, in declaration order.
    pub fn active_in<'a>(&'a self, dep: &'a Deployment, group: &str) -> Vec<ThreadId> {
        dep.group(group)
            .iter()
            .copied()
            .filter(|&t| self.is_active(t))
            .collect()
    }

    /// Nodes with at least one active thread.
    pub fn allocated_nodes(&self, dep: &Deployment) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = (0..dep.thread_count())
            .filter(|&i| self.active[i])
            .map(|i| dep.node_of(ThreadId(i as u32)))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dep() -> Deployment {
        let mut d = Deployment::new();
        // 4 worker threads on nodes 0..2 (two per node) + main on node 2.
        let ts: Vec<ThreadId> = (0..4).map(|i| d.add_thread(NodeId(i / 2))).collect();
        let main = d.add_thread(NodeId(2));
        d.add_group("workers", ts);
        d.add_group("main", vec![main]);
        d
    }

    #[test]
    fn mapping_and_groups() {
        let d = dep();
        assert_eq!(d.thread_count(), 5);
        assert_eq!(d.node_count(), 3);
        assert_eq!(d.node_of(ThreadId(3)), NodeId(1));
        assert_eq!(d.group("workers").len(), 4);
        assert_eq!(d.group("main"), &[ThreadId(4)]);
        assert!(d.has_group("workers"));
        assert!(!d.has_group("nope"));
    }

    #[test]
    #[should_panic(expected = "unknown thread group")]
    fn unknown_group_panics() {
        dep().group("nope");
    }

    #[test]
    #[should_panic(expected = "duplicate thread group")]
    fn duplicate_group_panics() {
        let mut d = dep();
        d.add_group("workers", vec![]);
    }

    #[test]
    fn active_set_filters_groups() {
        let d = dep();
        let mut a = ActiveSet::all_active(d.thread_count());
        assert_eq!(a.active_in(&d, "workers").len(), 4);
        a.deactivate(ThreadId(1));
        a.deactivate(ThreadId(2));
        assert_eq!(a.active_in(&d, "workers"), vec![ThreadId(0), ThreadId(3)]);
        a.activate(ThreadId(1));
        assert_eq!(a.active_in(&d, "workers").len(), 3);
    }

    #[test]
    fn allocated_nodes_shrink_with_deactivation() {
        let d = dep();
        let mut a = ActiveSet::all_active(d.thread_count());
        assert_eq!(a.allocated_nodes(&d).len(), 3);
        // Deactivate both threads of node 0.
        a.deactivate(ThreadId(0));
        a.deactivate(ThreadId(1));
        assert_eq!(a.allocated_nodes(&d), vec![NodeId(1), NodeId(2)]);
        // Node 1 survives while one of its threads is active.
        a.deactivate(ThreadId(2));
        assert_eq!(a.allocated_nodes(&d), vec![NodeId(1), NodeId(2)]);
    }
}
