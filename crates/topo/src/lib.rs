//! # ftr-topo — network topology substrate
//!
//! Topologies, fault sets and graph analyses used by the flexible
//! fault-tolerant router (Döring et al., IPPS 1998).
//!
//! The paper designs routing algorithms *for a specific topology* ("the
//! topology is a property of the routing algorithm and not an input to it",
//! §2.1 footnote), so this crate provides the concrete regular topologies the
//! evaluated algorithms need — 2-D meshes and tori for NARA/NAFTA, hypercubes
//! for ROUTE_C — plus:
//!
//! * [`FaultSet`]: the paper's fault model (bidirectional link faults, node
//!   faults, multiple faults allowed),
//! * connectivity and shortest-path analyses over the faulty network
//!   ([`graph`]),
//! * the spanning-tree strawman router of §2.1 ([`spanning`]),
//! * a channel-dependency-graph deadlock checker ([`cdg`]) used to validate
//!   that the virtual-channel schemes of the implemented algorithms are
//!   deadlock-free (Dally/Seitz condition).

pub mod cdg;
pub mod faults;
pub mod graph;
pub mod hypercube;
pub mod ids;
pub mod karyncube;
pub mod mesh;
pub mod spanning;
pub mod torus;

pub use cdg::{Channel, ChannelDependencyGraph};
pub use faults::{FaultSet, SimpleRng};
pub use hypercube::Hypercube;
pub use ids::{LinkId, NodeId, PortId, VcId};
pub use karyncube::KAryNCube;
pub use mesh::{Mesh2D, EAST, NORTH, SOUTH, WEST};
pub use torus::Torus2D;

/// A regular interconnection topology.
///
/// Ports are numbered `0..degree()`; on irregular boundaries (e.g. a mesh
/// edge) a port may be unconnected, in which case [`Topology::neighbor`]
/// returns `None`. All topologies here are undirected: if `neighbor(a, p) ==
/// Some(b)` there is a port `q` with `neighbor(b, q) == Some(a)`.
pub trait Topology: Send + Sync {
    /// Human-readable name, e.g. `"mesh 8x8"`.
    fn name(&self) -> String;

    /// Total number of nodes.
    fn num_nodes(&self) -> usize;

    /// Number of ports per node (upper bound on the node degree).
    fn degree(&self) -> usize;

    /// The node reached through port `p` of node `n`, if that port is wired.
    fn neighbor(&self, n: NodeId, p: PortId) -> Option<NodeId>;

    /// Minimal path length (hops) between two nodes in the fault-free
    /// topology.
    fn min_distance(&self, a: NodeId, b: NodeId) -> u32;

    /// Iterator over all node ids.
    fn nodes(&self) -> IdRange<NodeId> {
        IdRange { next: 0, end: self.num_nodes() as u32, mk: NodeId }
    }

    /// Iterator over all port ids.
    fn ports(&self) -> IdRange<PortId> {
        IdRange { next: 0, end: self.degree() as u32, mk: |i| PortId(i as u8) }
    }

    /// The port of `from` that leads directly to `to`, if they are adjacent.
    fn port_towards(&self, from: NodeId, to: NodeId) -> Option<PortId> {
        self.ports().find(|&p| self.neighbor(from, p) == Some(to))
    }

    /// The port at the far end of `(n, p)` that leads back to `n`.
    fn reverse_port(&self, n: NodeId, p: PortId) -> Option<PortId> {
        let other = self.neighbor(n, p)?;
        self.port_towards(other, n)
    }

    /// Canonical (direction-independent) link id for the link leaving `n`
    /// through `p`.
    fn link(&self, n: NodeId, p: PortId) -> Option<LinkId> {
        let other = self.neighbor(n, p)?;
        if n <= other {
            Some(LinkId { node: n, port: p })
        } else {
            Some(LinkId { node: other, port: self.port_towards(other, n)? })
        }
    }

    /// All canonical links of the topology.
    fn links(&self) -> Vec<LinkId> {
        let mut out = Vec::new();
        for n in self.nodes() {
            for p in self.ports() {
                if let Some(l) = self.link(n, p) {
                    if l.node == n && l.port == p {
                        out.push(l);
                    }
                }
            }
        }
        out
    }

    /// Neighbours of `n` as `(port, node)` pairs.
    fn neighbors(&self, n: NodeId) -> Vec<(PortId, NodeId)> {
        self.ports().filter_map(|p| self.neighbor(n, p).map(|m| (p, m))).collect()
    }

    /// The far end of every port at once, node-major (entry
    /// `n * degree() + p`): the neighbour's id in `nodes` (`u32::MAX` for
    /// an unwired port) and, in `ports`, its port leading back — what
    /// [`Topology::neighbor`] and [`Topology::port_towards`] return port
    /// by port. Both slices hold `num_nodes() * degree()` entries;
    /// `ports` is left as it is at unwired ports. One call replaces a
    /// virtual `neighbor` and `port_towards` scan per port (the default
    /// body is compiled per topology); closed-form topologies override it.
    fn far_ends(&self, nodes: &mut [u32], ports: &mut [u8]) {
        let d = self.degree();
        for n in self.nodes() {
            for p in self.ports() {
                nodes[n.idx() * d + p.idx()] = self.neighbor(n, p).map_or(u32::MAX, |m| m.0);
            }
        }
        // the first port of the neighbour that leads back, read from the
        // table just built
        for n in 0..self.num_nodes() {
            for i in n * d..(n + 1) * d {
                let m = nodes[i];
                if m == u32::MAX {
                    continue;
                }
                let back = &nodes[m as usize * d..(m as usize + 1) * d];
                let q = back.iter().position(|&x| x == n as u32);
                ports[i] = q.expect("topology links are undirected") as u8;
            }
        }
    }
}

/// Concrete iterator over consecutively-numbered ids, used by the provided
/// methods of [`Topology`] so the trait stays object-safe.
#[derive(Clone)]
pub struct IdRange<T> {
    next: u32,
    end: u32,
    mk: fn(u32) -> T,
}

impl<T> Iterator for IdRange<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.next < self.end {
            let v = (self.mk)(self.next);
            self.next += 1;
            Some(v)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.next) as usize;
        (n, Some(n))
    }
}

impl<T> ExactSizeIterator for IdRange<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_provided_methods_on_mesh() {
        let m = Mesh2D::new(3, 3);
        assert_eq!(m.nodes().count(), 9);
        assert_eq!(m.ports().count(), 4);
        // links of a 3x3 mesh: 3 rows * 2 + 3 cols * 2 = 12 total
        assert_eq!(m.links().len(), 12);
        for n in m.nodes() {
            for (p, other) in m.neighbors(n) {
                assert_eq!(m.port_towards(n, other), Some(p));
                let q = m.reverse_port(n, p).unwrap();
                assert_eq!(m.neighbor(other, q), Some(n));
            }
        }
    }

    #[test]
    fn far_ends_match_neighbor_and_port_towards() {
        let topos: Vec<Box<dyn Topology>> = vec![
            Box::new(Mesh2D::new(5, 3)),
            Box::new(Mesh2D::new(1, 4)),
            Box::new(crate::Hypercube::new(4)),
            Box::new(crate::Torus2D::new(3, 4)),
            Box::new(crate::KAryNCube::mesh(3, 2)),
            Box::new(crate::KAryNCube::torus(4, 2)),
        ];
        for t in &topos {
            let len = t.num_nodes() * t.degree();
            let (mut nodes, mut ports) = (vec![0u32; len], vec![0u8; len]);
            t.far_ends(&mut nodes, &mut ports);
            for n in t.nodes() {
                for p in t.ports() {
                    let i = n.idx() * t.degree() + p.idx();
                    match t.neighbor(n, p) {
                        None => assert_eq!(nodes[i], u32::MAX, "{} {n} {p:?}", t.name()),
                        Some(m) => {
                            assert_eq!(nodes[i], m.0, "{} {n} {p:?}", t.name());
                            assert_eq!(Some(PortId(ports[i])), t.port_towards(m, n));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn canonical_links_are_direction_independent() {
        let m = Mesh2D::new(4, 2);
        for n in m.nodes() {
            for (p, other) in m.neighbors(n) {
                let q = m.port_towards(other, n).unwrap();
                assert_eq!(m.link(n, p), m.link(other, q));
            }
        }
    }
}
