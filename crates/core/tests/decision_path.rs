//! The per-decision rule path: once a controller is warm, a routing
//! decision allocates nothing, and a controller that reuses its input
//! map across decisions decides exactly like a freshly built one.

use ftr_algos::rules_src;
use ftr_core::{configure, CubeRuleRouter, RuleRouter};
use ftr_sim::flit::Header;
use ftr_sim::routing::{Decision, NodeController, RouterView, RoutingAlgorithm};
use ftr_sim::MessageId;
use ftr_topo::{Hypercube, Mesh2D, NodeId, Topology, VcId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts the allocations made by a thread while it is armed.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: forwards every call unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

/// One routing query: the node's router state and the head it routes.
struct Query {
    node: NodeId,
    out_free: Vec<Vec<bool>>,
    out_load: Vec<u32>,
    link_alive: Vec<bool>,
    header: Header,
    in_vc: VcId,
}

impl Query {
    fn view(&self) -> RouterView<'_> {
        RouterView {
            node: self.node,
            cycle: 0,
            out_free: &self.out_free,
            out_load: &self.out_load,
            link_alive: &self.link_alive,
        }
    }
}

/// Queries at `nodes` towards every destination, under free-channel
/// patterns from all free to none free, with one dead link in some.
fn queries(topo: &dyn Topology, nodes: &[NodeId], vcs: usize) -> Vec<Query> {
    let degree = topo.degree();
    let mut out = Vec::new();
    for &node in nodes {
        for dst in topo.nodes() {
            for pattern in 0..4usize {
                let free = |p: usize, v: usize| match pattern {
                    0 => true,
                    1 => false,
                    2 => p == (dst.idx() + v) % degree,
                    _ => (p + v).is_multiple_of(2),
                };
                let out_free =
                    (0..degree).map(|p| (0..vcs).map(|v| free(p, v)).collect()).collect();
                let link_alive = (0..degree).map(|p| pattern != 3 || p != 1).collect();
                let out_load = (0..degree).map(|p| ((p * 7 + dst.idx()) % 11) as u32).collect();
                let in_vc = VcId((dst.idx() % vcs) as u8);
                let header = Header::new(MessageId(dst.0 as u64), node, dst, 4);
                out.push(Query { node, out_free, out_load, link_alive, header, in_vc });
            }
        }
    }
    out
}

fn decide(ctrl: &mut dyn NodeController, q: &Query) -> (Decision, Header) {
    let mut h = q.header;
    let d = ctrl.route(&q.view(), &mut h, None, q.in_vc);
    (d, h)
}

/// A rule router, its topology and the nodes whose controllers are probed.
type Config = (Box<dyn RoutingAlgorithm>, Box<dyn Topology>, Vec<NodeId>);

/// The configurations under test: rule XY, west-first and NAFTA on an
/// 8x8 mesh, rule ROUTE_C on a 6-cube.
fn configurations() -> Vec<Config> {
    let mesh = Mesh2D::new(8, 8);
    let mesh_nodes = vec![mesh.node_at(0, 0), mesh.node_at(3, 4), mesh.node_at(7, 2)];
    let cube = Hypercube::new(6);
    let mut out: Vec<Config> = Vec::new();
    for (name, src, vcs) in [
        ("xy", rules_src::XY, 1),
        ("west_first", rules_src::WEST_FIRST, 1),
        ("nafta", rules_src::NAFTA, 2),
    ] {
        let algo = RuleRouter::new(configure(name, src).unwrap(), mesh.clone(), vcs);
        out.push((Box::new(algo), Box::new(mesh.clone()), mesh_nodes.clone()));
    }
    let routec = configure("route_c", &rules_src::route_c_source(6)).unwrap();
    out.push((
        Box::new(CubeRuleRouter::new(routec, cube.clone())),
        Box::new(cube),
        vec![NodeId(0), NodeId(21), NodeId(63)],
    ));
    out
}

#[test]
fn warm_decisions_allocate_nothing() {
    assert!(allocations(|| drop(std::hint::black_box(vec![0u8; 8]))) > 0, "the counter counts");
    for (algo, topo, nodes) in configurations() {
        let qs = queries(topo.as_ref(), &nodes, algo.num_vcs());
        let mut ctrls: Vec<_> = nodes.iter().map(|&n| algo.controller(topo.as_ref(), n)).collect();
        let mut run = || {
            for q in &qs {
                let c = nodes.iter().position(|&n| n == q.node).unwrap();
                std::hint::black_box(decide(ctrls[c].as_mut(), q));
            }
        };
        run();
        run();
        assert_eq!(allocations(run), 0, "{}: a warm decision allocated", algo.name());
    }
}

#[test]
fn a_reused_controller_decides_like_a_fresh_one() {
    for (algo, topo, nodes) in configurations() {
        let qs = queries(topo.as_ref(), &nodes, algo.num_vcs());
        let mut reused: Vec<_> = nodes.iter().map(|&n| algo.controller(topo.as_ref(), n)).collect();
        for q in &qs {
            let c = nodes.iter().position(|&n| n == q.node).unwrap();
            let fresh = decide(algo.controller(topo.as_ref(), q.node).as_mut(), q);
            assert_eq!(decide(reused[c].as_mut(), q), fresh, "{}", algo.name());
        }
    }
}
