//! Application assembly: flow graph + deployment + behaviours + routing.
//!
//! An [`Application`] is the complete, engine-independent description of a
//! DPS program: the operation DAG, the thread/node deployment, one behaviour
//! factory per operation (instantiated per thread by the engine), a routing
//! function per edge, optional flow-control windows, and the initial data
//! objects that start the computation.
//!
//! The same `Application` value can be executed by the simulator
//! (`dps-sim`), the ground-truth testbed emulator, or the native OS-thread
//! runner — the paper's "real and simulated applications may be run
//! identically" property.

use std::collections::BTreeMap;
use std::fmt;

use netmodel::NodeId;

use crate::deploy::{Deployment, ThreadId};
use crate::graph::{EdgeId, FlowGraph, GraphError, OpId, OpKind};
use crate::object::DataObj;
use crate::op::Operation;
use crate::route::Router;

/// Creates the behaviour object for one *(operation, thread)* instance.
pub type OpFactory = Box<dyn Fn(OpId, ThreadId) -> Box<dyn Operation> + Send + Sync>;

/// Produces an initial data object (fresh per run, so applications can be
/// executed repeatedly).
pub type StartFactory = Box<dyn Fn() -> DataObj + Send + Sync>;

/// Flow-control declaration: a credit window on a split/stream operation.
#[derive(Clone, Copy, Debug)]
pub struct FlowControl {
    /// The flow-controlled operation.
    pub source: OpId,
    /// Credit window size.
    pub window: usize,
}

/// An initial data object injected at virtual time zero.
pub struct StartSpec {
    /// Target operation.
    pub op: OpId,
    /// Thread the step ran on.
    pub thread: ThreadId,
    /// Factory producing the start object.
    pub make: StartFactory,
}

/// Errors detected by [`AppBuilder::build`].
#[derive(Debug)]
pub enum BuildError {
    /// Invalid flow graph.
    Graph(GraphError),
    /// An operation has no behaviour attached.
    MissingBody(String),
    /// No start object declared.
    NoStart,
    /// Start thread not in the deployment.
    StartThreadOutOfRange(ThreadId),
    /// Flow control on a non-split/stream op.
    FlowControlOnNonSplit(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Graph(e) => write!(f, "invalid flow graph: {e}"),
            BuildError::MissingBody(n) => write!(f, "operation {n:?} has no behaviour"),
            BuildError::NoStart => write!(f, "application declares no start object"),
            BuildError::StartThreadOutOfRange(t) => {
                write!(f, "start thread {t} not in deployment")
            }
            BuildError::FlowControlOnNonSplit(n) => write!(
                f,
                "flow control declared on {n:?}, which is neither a split nor a stream"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<GraphError> for BuildError {
    fn from(e: GraphError) -> Self {
        BuildError::Graph(e)
    }
}

/// A complete DPS application (see module docs).
pub struct Application {
    name: String,
    graph: FlowGraph,
    deployment: Deployment,
    routers: Vec<Router>,
    factories: Vec<OpFactory>,
    flow_controls: BTreeMap<OpId, usize>,
    starts: Vec<StartSpec>,
}

impl Application {
    /// The name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The flow graph.
    pub fn graph(&self) -> &FlowGraph {
        &self.graph
    }

    /// The thread/node deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The same application with every thread moved from its node `n` to
    /// `f(n)` — the same cluster under other node ids.
    pub fn with_nodes_renamed(mut self, f: impl FnMut(NodeId) -> NodeId) -> Application {
        self.deployment.rename_nodes(f);
        self
    }

    /// Routing function of an edge.
    pub fn router(&self, edge: EdgeId) -> &Router {
        &self.routers[edge.0 as usize]
    }

    /// Instantiates the behaviour of `op` for `thread`.
    pub fn make_op(&self, op: OpId, thread: ThreadId) -> Box<dyn Operation> {
        (self.factories[op.0 as usize])(op, thread)
    }

    /// The flow-control window of `op`, if declared.
    pub fn window_of(&self, op: OpId) -> Option<usize> {
        self.flow_controls.get(&op).copied()
    }

    /// Iterates over declared flow-control windows.
    pub fn flow_controls(&self) -> impl Iterator<Item = FlowControl> + '_ {
        self.flow_controls
            .iter()
            .map(|(&source, &window)| FlowControl { source, window })
    }

    /// The start objects.
    pub fn starts(&self) -> &[StartSpec] {
        &self.starts
    }
}

enum PendingFactory {
    Missing,
    Ready(OpFactory),
}

/// Builder for [`Application`].
pub struct AppBuilder {
    name: String,
    graph: FlowGraph,
    deployment: Deployment,
    routers: Vec<Router>,
    factories: Vec<PendingFactory>,
    flow_controls: BTreeMap<OpId, usize>,
    starts: Vec<StartSpec>,
}

impl AppBuilder {
    /// Creates an empty instance.
    pub fn new(name: &str) -> AppBuilder {
        AppBuilder {
            name: name.to_string(),
            graph: FlowGraph::new(),
            deployment: Deployment::new(),
            routers: Vec::new(),
            factories: Vec::new(),
            flow_controls: BTreeMap::new(),
            starts: Vec::new(),
        }
    }

    // ----- deployment -------------------------------------------------

    /// Creates `n` threads, thread `i` on node `i`, grouped under `name`.
    pub fn thread_group(&mut self, name: &str, n: u32) -> Vec<ThreadId> {
        let nodes: Vec<u32> = (0..n).collect();
        self.thread_group_on_nodes(name, &nodes)
    }

    /// Creates one thread per entry of `nodes` (thread `i` on
    /// `NodeId(nodes[i])`), grouped under `name`. This expresses the paper's
    /// "eight column blocks distributed onto four nodes" deployments.
    pub fn thread_group_on_nodes(&mut self, name: &str, nodes: &[u32]) -> Vec<ThreadId> {
        let threads: Vec<ThreadId> = nodes
            .iter()
            .map(|&n| self.deployment.add_thread(NodeId(n)))
            .collect();
        self.deployment.add_group(name, threads.clone());
        threads
    }

    /// Creates a single named thread on `node`.
    pub fn thread_on_node(&mut self, name: &str, node: u32) -> ThreadId {
        let t = self.deployment.add_thread(NodeId(node));
        self.deployment.add_group(name, vec![t]);
        t
    }

    // ----- operations ---------------------------------------------------

    /// Declares an operation without behaviour (for forward references from
    /// closures); attach the behaviour later with [`body`].
    ///
    /// [`body`]: AppBuilder::body
    pub fn declare(&mut self, name: &str, kind: OpKind) -> OpId {
        let id = self.graph.add_op(name, kind);
        self.factories.push(PendingFactory::Missing);
        id
    }

    /// Attaches (or replaces) the behaviour factory of a declared operation.
    pub fn body(
        &mut self,
        op: OpId,
        factory: impl Fn(OpId, ThreadId) -> Box<dyn Operation> + Send + Sync + 'static,
    ) {
        self.factories[op.0 as usize] = PendingFactory::Ready(Box::new(factory));
    }

    fn declare_with(
        &mut self,
        name: &str,
        kind: OpKind,
        factory: impl Fn(OpId, ThreadId) -> Box<dyn Operation> + Send + Sync + 'static,
    ) -> OpId {
        let id = self.declare(name, kind);
        self.body(id, factory);
        id
    }

    /// Declares a split operation with its behaviour.
    pub fn split(
        &mut self,
        name: &str,
        factory: impl Fn(OpId, ThreadId) -> Box<dyn Operation> + Send + Sync + 'static,
    ) -> OpId {
        self.declare_with(name, OpKind::Split, factory)
    }

    /// Declares a leaf operation with its behaviour.
    pub fn leaf(
        &mut self,
        name: &str,
        factory: impl Fn(OpId, ThreadId) -> Box<dyn Operation> + Send + Sync + 'static,
    ) -> OpId {
        self.declare_with(name, OpKind::Leaf, factory)
    }

    /// Declares a merge operation with its behaviour.
    pub fn merge(
        &mut self,
        name: &str,
        factory: impl Fn(OpId, ThreadId) -> Box<dyn Operation> + Send + Sync + 'static,
    ) -> OpId {
        self.declare_with(name, OpKind::Merge, factory)
    }

    /// Declares a stream operation with its behaviour.
    pub fn stream(
        &mut self,
        name: &str,
        factory: impl Fn(OpId, ThreadId) -> Box<dyn Operation> + Send + Sync + 'static,
    ) -> OpId {
        self.declare_with(name, OpKind::Stream, factory)
    }

    // ----- wiring -------------------------------------------------------

    /// Connects `from -> to` with a routing function.
    pub fn edge(&mut self, from: OpId, to: OpId, router: Router) -> EdgeId {
        let id = self.graph.add_edge(from, to);
        self.routers.push(router);
        id
    }

    /// Declares a flow-control window on a split/stream operation. A window
    /// of size zero blocks every post from `source`; the engine reports the
    /// resulting deadlock as a typed error rather than rejecting the graph
    /// here.
    pub fn flow_control(&mut self, source: OpId, window: usize) {
        self.flow_controls.insert(source, window);
    }

    /// Registers an initial data object posted to `op` on `thread` at
    /// virtual time zero.
    pub fn start(
        &mut self,
        op: OpId,
        thread: ThreadId,
        make: impl Fn() -> DataObj + Send + Sync + 'static,
    ) {
        self.starts.push(StartSpec {
            op,
            thread,
            make: Box::new(make),
        });
    }

    /// Validates and assembles the application.
    pub fn build(self) -> Result<Application, BuildError> {
        self.graph.validate()?;
        let mut factories = Vec::with_capacity(self.factories.len());
        for (i, f) in self.factories.into_iter().enumerate() {
            match f {
                PendingFactory::Ready(f) => factories.push(f),
                PendingFactory::Missing => {
                    return Err(BuildError::MissingBody(
                        self.graph.op(OpId(i as u32)).name.clone(),
                    ))
                }
            }
        }
        if self.starts.is_empty() {
            return Err(BuildError::NoStart);
        }
        for s in &self.starts {
            if s.thread.0 as usize >= self.deployment.thread_count() {
                return Err(BuildError::StartThreadOutOfRange(s.thread));
            }
        }
        for &op in self.flow_controls.keys() {
            let kind = self.graph.op(op).kind;
            if kind != OpKind::Split && kind != OpKind::Stream {
                return Err(BuildError::FlowControlOnNonSplit(
                    self.graph.op(op).name.clone(),
                ));
            }
        }
        Ok(Application {
            name: self.name,
            graph: self.graph,
            deployment: self.deployment,
            routers: self.routers,
            factories,
            flow_controls: self.flow_controls,
            starts: self.starts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{downcast, DataObj};
    use crate::op::{op_fn, OpCtx};
    use crate::route::{round_robin, to_thread};

    struct Token(u64);
    crate::wire_size_fixed!(Token, 8);

    fn simple_builder() -> (AppBuilder, OpId, OpId, ThreadId) {
        let mut b = AppBuilder::new("t");
        b.thread_group("workers", 2);
        let main = b.thread_on_node("main", 2);
        let src = b.split("src", |_, _| {
            op_fn(|obj: DataObj, ctx: &mut dyn OpCtx| {
                let t: Token = downcast(obj);
                for i in 0..t.0 {
                    ctx.post(OpId(1), Box::new(Token(i)));
                }
            })
        });
        let sink = b.merge("sink", |_, _| {
            op_fn(|_obj: DataObj, ctx: &mut dyn OpCtx| ctx.terminate())
        });
        b.edge(src, sink, round_robin("workers"));
        (b, src, sink, main)
    }

    #[test]
    fn build_succeeds_with_complete_description() {
        let (mut b, src, _sink, main) = simple_builder();
        b.start(src, main, || Box::new(Token(3)));
        let app = b.build().unwrap();
        assert_eq!(app.name(), "t");
        assert_eq!(app.graph().op_count(), 2);
        assert_eq!(app.deployment().thread_count(), 3);
        assert_eq!(app.starts().len(), 1);
        assert!(app.window_of(src).is_none());
        // Factories instantiate per thread.
        let _op = app.make_op(src, ThreadId(0));
    }

    #[test]
    fn missing_start_rejected() {
        let (b, _, _, _) = simple_builder();
        assert!(matches!(b.build(), Err(BuildError::NoStart)));
    }

    #[test]
    fn missing_body_rejected() {
        let mut b = AppBuilder::new("t");
        let main = b.thread_on_node("main", 0);
        let x = b.declare("x", OpKind::Leaf);
        b.start(x, main, || Box::new(Token(0)));
        match b.build() {
            Err(BuildError::MissingBody(n)) => assert_eq!(n, "x"),
            other => panic!("expected MissingBody, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn start_thread_must_exist() {
        let (mut b, src, _, _) = simple_builder();
        b.start(src, ThreadId(99), || Box::new(Token(1)));
        assert!(matches!(
            b.build(),
            Err(BuildError::StartThreadOutOfRange(_))
        ));
    }

    #[test]
    fn flow_control_requires_split_or_stream() {
        let (mut b, src, sink, main) = simple_builder();
        b.start(src, main, || Box::new(Token(1)));
        b.flow_control(sink, 4); // sink is a merge
        assert!(matches!(
            b.build(),
            Err(BuildError::FlowControlOnNonSplit(_))
        ));
    }

    #[test]
    fn flow_control_recorded_on_split() {
        let (mut b, src, _, main) = simple_builder();
        b.start(src, main, || Box::new(Token(1)));
        b.flow_control(src, 8);
        let app = b.build().unwrap();
        assert_eq!(app.window_of(src), Some(8));
        let fcs: Vec<FlowControl> = app.flow_controls().collect();
        assert_eq!(fcs.len(), 1);
        assert_eq!(fcs[0].window, 8);
    }

    #[test]
    fn starts_produce_fresh_objects() {
        let (mut b, src, _, main) = simple_builder();
        b.start(src, main, || Box::new(Token(7)));
        let app = b.build().unwrap();
        let a = (app.starts()[0].make)();
        let b2 = (app.starts()[0].make)();
        assert_eq!(downcast::<Token>(a).0, 7);
        assert_eq!(downcast::<Token>(b2).0, 7);
    }

    #[test]
    fn router_stored_per_edge() {
        let mut b = AppBuilder::new("t");
        b.thread_group("g", 2);
        let a = b.leaf("a", |_, _| op_fn(|_, _| {}));
        let c = b.leaf("c", |_, _| op_fn(|_, _| {}));
        let e = b.edge(a, c, to_thread(ThreadId(1)));
        b.start(a, ThreadId(0), || Box::new(Token(0)));
        let app = b.build().unwrap();
        let edge = app.graph().edge_between(a, c).unwrap();
        assert_eq!(edge, e);
    }
}
