//! Routing functions.
//!
//! Every flow-graph edge carries a user-defined routing function evaluated at
//! runtime to select the DPS thread on which the destination operation
//! executes. Routers see the data object (so they can route by content, e.g.
//! "column block j goes to its owner thread") and a [`RouteCtx`] exposing the
//! source thread, a per-edge sequence number (for round-robin distribution)
//! and the deployment with its current active set (so that dynamically
//! removing threads automatically redistributes subsequent work — the
//! mechanism behind the paper's thread-removal experiments).

use netmodel::NodeId;

use crate::deploy::{ActiveSet, Deployment, ThreadId};
use crate::object::AnyDataObject;

/// Context available to routing functions.
pub struct RouteCtx<'a> {
    /// Thread that posted the data object.
    pub src_thread: ThreadId,
    /// Number of objects previously routed along this edge (monotone).
    pub edge_seq: u64,
    /// The static deployment.
    pub deployment: &'a Deployment,
    /// The dynamic activity state.
    pub active: &'a ActiveSet,
}

impl<'a> RouteCtx<'a> {
    /// All threads of a group regardless of activity (stable ownership).
    pub fn group_all(&self, group: &str) -> &[ThreadId] {
        self.deployment.group(group)
    }

    /// Node hosting a thread.
    pub fn node_of(&self, t: ThreadId) -> NodeId {
        self.deployment.node_of(t)
    }
}

/// A routing function: data object + context → destination thread.
pub type Router = Box<dyn Fn(&dyn AnyDataObject, &RouteCtx) -> ThreadId + Send + Sync>;

/// Routes round-robin over the *active* threads of `group`. Distribution
/// follows the per-edge sequence number, so it is deterministic and adapts
/// when threads are deactivated.
pub fn round_robin(group: &str) -> Router {
    let group = group.to_string();
    Box::new(move |_obj, ctx| {
        // Counted and picked in place: routing allocates nothing.
        let all = ctx.group_all(&group).iter().copied();
        let mut active = all.filter(|&t| ctx.active.is_active(t));
        let n = active.clone().count();
        assert!(n > 0, "no active thread in group {group:?}");
        let pick = active.nth((ctx.edge_seq % n as u64) as usize);
        pick.expect("fewer than n active threads")
    })
}

/// Routes every object to a fixed thread (e.g. the main/master thread).
pub fn to_thread(t: ThreadId) -> Router {
    Box::new(move |_obj, _ctx| t)
}

/// Routes to the posting thread itself (operation chaining without
/// transfers).
pub fn local_thread() -> Router {
    Box::new(|_obj, ctx| ctx.src_thread)
}

/// Routes by a key extracted from the object: thread = `group[key % len]`
/// over the **full** group (stable, activity-independent ownership mapping).
pub fn by_key<T: 'static>(group: &str, key: impl Fn(&T) -> u64 + Send + Sync + 'static) -> Router {
    let group = group.to_string();
    Box::new(move |obj, ctx| {
        let t: &T = crate::object::downcast_ref(obj);
        let all = ctx.group_all(&group);
        assert!(!all.is_empty(), "empty thread group {group:?}");
        all[(key(t) % all.len() as u64) as usize]
    })
}

/// Routes to a thread stored inside the object itself. Applications that
/// compute ownership dynamically (e.g. after node removal) embed the target
/// in the data object and use this router.
pub fn by_target<T: 'static>(target: impl Fn(&T) -> ThreadId + Send + Sync + 'static) -> Router {
    Box::new(move |obj, _ctx| {
        let t: &T = crate::object::downcast_ref(obj);
        target(t)
    })
}

/// Routes by **relative thread index** within a group — the paper's
/// "communication patterns such as neighborhood exchanges can easily be
/// specified by using relative thread indices". The destination is the
/// group member `offset` positions from the posting thread; the group is
/// treated as a line (out-of-range posts panic — boundary threads must not
/// post past the edge).
pub fn relative(group: &str, offset: i64) -> Router {
    let group = group.to_string();
    Box::new(move |_obj, ctx| {
        let all = ctx.group_all(&group);
        let me = all
            .iter()
            .position(|&t| t == ctx.src_thread)
            .unwrap_or_else(|| panic!("posting thread not in group {group:?}"));
        let idx = me as i64 + offset;
        assert!(
            idx >= 0 && (idx as usize) < all.len(),
            "relative({offset}) from position {me} leaves group {group:?}"
        );
        all[idx as usize]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::DataObj;

    struct Tagged {
        col: u64,
        dest: ThreadId,
    }
    crate::wire_size_fixed!(Tagged, 16);

    fn setup() -> (Deployment, ActiveSet) {
        let mut d = Deployment::new();
        let ts: Vec<ThreadId> = (0..4).map(|i| d.add_thread(NodeId(i))).collect();
        d.add_group("workers", ts);
        let a = ActiveSet::all_active(d.thread_count());
        (d, a)
    }

    fn ctx<'a>(d: &'a Deployment, a: &'a ActiveSet, seq: u64) -> RouteCtx<'a> {
        RouteCtx {
            src_thread: ThreadId(0),
            edge_seq: seq,
            deployment: d,
            active: a,
        }
    }

    #[test]
    fn round_robin_cycles_active_threads() {
        let (d, a) = setup();
        let r = round_robin("workers");
        let obj: DataObj = Box::new(Tagged {
            col: 0,
            dest: ThreadId(0),
        });
        let picks: Vec<u32> = (0..8).map(|s| r(obj.as_ref(), &ctx(&d, &a, s)).0).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn round_robin_skips_deactivated() {
        let (d, mut a) = setup();
        a.deactivate(ThreadId(1));
        a.deactivate(ThreadId(3));
        let r = round_robin("workers");
        let obj: DataObj = Box::new(Tagged {
            col: 0,
            dest: ThreadId(0),
        });
        let picks: Vec<u32> = (0..4).map(|s| r(obj.as_ref(), &ctx(&d, &a, s)).0).collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn by_key_is_stable_under_deactivation() {
        let (d, mut a) = setup();
        let r = by_key("workers", |t: &Tagged| t.col);
        let obj: DataObj = Box::new(Tagged {
            col: 6,
            dest: ThreadId(0),
        });
        let before = r(obj.as_ref(), &ctx(&d, &a, 0));
        a.deactivate(ThreadId(2));
        let after = r(obj.as_ref(), &ctx(&d, &a, 0));
        assert_eq!(before, ThreadId(2));
        assert_eq!(after, ThreadId(2), "ownership ignores activity");
    }

    #[test]
    fn by_target_reads_object_field() {
        let (d, a) = setup();
        let r = by_target(|t: &Tagged| t.dest);
        let obj: DataObj = Box::new(Tagged {
            col: 0,
            dest: ThreadId(3),
        });
        assert_eq!(r(obj.as_ref(), &ctx(&d, &a, 0)), ThreadId(3));
    }

    #[test]
    fn fixed_and_local_routers() {
        let (d, a) = setup();
        let obj: DataObj = Box::new(Tagged {
            col: 0,
            dest: ThreadId(0),
        });
        assert_eq!(
            to_thread(ThreadId(2))(obj.as_ref(), &ctx(&d, &a, 9)),
            ThreadId(2)
        );
        assert_eq!(local_thread()(obj.as_ref(), &ctx(&d, &a, 9)), ThreadId(0));
    }

    #[test]
    fn relative_routes_to_neighbors() {
        let (d, a) = setup();
        let up = relative("workers", -1);
        let down = relative("workers", 1);
        let obj: DataObj = Box::new(Tagged {
            col: 0,
            dest: ThreadId(0),
        });
        let mk = |src: u32| RouteCtx {
            src_thread: ThreadId(src),
            edge_seq: 0,
            deployment: &d,
            active: &a,
        };
        assert_eq!(down(obj.as_ref(), &mk(1)), ThreadId(2));
        assert_eq!(up(obj.as_ref(), &mk(1)), ThreadId(0));
        assert_eq!(down(obj.as_ref(), &mk(2)), ThreadId(3));
    }

    #[test]
    #[should_panic(expected = "leaves group")]
    fn relative_panics_past_the_edge() {
        let (d, a) = setup();
        let up = relative("workers", -1);
        let obj: DataObj = Box::new(Tagged {
            col: 0,
            dest: ThreadId(0),
        });
        let ctx0 = RouteCtx {
            src_thread: ThreadId(0),
            edge_seq: 0,
            deployment: &d,
            active: &a,
        };
        up(obj.as_ref(), &ctx0);
    }

    #[test]
    #[should_panic(expected = "no active thread")]
    fn round_robin_empty_group_panics() {
        let (d, mut a) = setup();
        for i in 0..4 {
            a.deactivate(ThreadId(i));
        }
        let r = round_robin("workers");
        let obj: DataObj = Box::new(Tagged {
            col: 0,
            dest: ThreadId(0),
        });
        r(obj.as_ref(), &ctx(&d, &a, 0));
    }
}
