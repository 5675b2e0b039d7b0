//! Precomputed link map: the wiring and fault-derived usability of every
//! `(node, port)`, read by the step's hot path instead of the topology and
//! the fault set.
//!
//! The wiring never changes after build, so each port's far end — the
//! neighbour and the port there that leads back, exactly
//! `Topology::neighbor` + `Topology::port_towards` — is resolved once, in
//! one `Topology::far_ends` call. The usability of a port
//! (`FaultSet::link_usable`: wired, link healthy, both endpoints alive)
//! changes only when a fault or repair event mutates the fault set, so it
//! is kept as one bit per port and recomputed for the ports around each
//! event (the per-port usable table of SNIPPETS.md §3). Between events a
//! lookup is one shift and one mask.

use ftr_topo::{FaultSet, NodeId, PortId, Topology};

/// Far-end node of an unwired port (the [`Topology::far_ends`] marker).
const UNWIRED: u32 = u32::MAX;

/// Per-port wiring table plus usable and node-alive bitmaps.
pub(crate) struct LinkMap {
    degree: usize,
    /// Neighbour per `node * degree + port`, `UNWIRED` for open ports.
    far_node: Vec<u32>,
    /// The neighbour's port leading back (`port_towards(neighbour, node)`).
    far_port: Vec<u8>,
    /// One bit per `node * degree + port`: `FaultSet::link_usable`.
    usable: Vec<u64>,
    /// One bit per node: `FaultSet::node_faulty`.
    dead: Vec<u64>,
}

#[inline]
fn bit(bits: &[u64], i: usize) -> bool {
    bits[i >> 6] >> (i & 63) & 1 != 0
}

#[inline]
fn set_bit(bits: &mut [u64], i: usize, on: bool) {
    let mask = 1u64 << (i & 63);
    if on {
        bits[i >> 6] |= mask;
    } else {
        bits[i >> 6] &= !mask;
    }
}

impl LinkMap {
    /// Resolves the wiring of `topo` with every wired port usable (the
    /// fault-free state every network starts in).
    pub fn new(topo: &dyn Topology) -> Self {
        let (n, degree) = (topo.num_nodes(), topo.degree());
        let ports = n * degree;
        let (mut far_node, mut far_port) = (vec![UNWIRED; ports], vec![0u8; ports]);
        topo.far_ends(&mut far_node, &mut far_port);
        // fault-free: usable ⟺ wired, packed 64 ports to a word
        let usable = far_node
            .chunks(64)
            .map(|c| c.iter().enumerate().fold(0, |w, (j, &m)| w | ((m != UNWIRED) as u64) << j))
            .collect();
        LinkMap { degree, far_node, far_port, usable, dead: vec![0; n.div_ceil(64)] }
    }

    /// Whether a message may traverse the link leaving `n` through `p`
    /// (`FaultSet::link_usable`); false for out-of-range ports.
    #[inline]
    pub fn usable(&self, n: NodeId, p: PortId) -> bool {
        p.idx() < self.degree && bit(&self.usable, n.idx() * self.degree + p.idx())
    }

    /// Whether node `n` is faulty (`FaultSet::node_faulty`).
    #[inline]
    pub fn node_faulty(&self, n: NodeId) -> bool {
        bit(&self.dead, n.idx())
    }

    /// The far end `(m, q)` of the link leaving `n` through `p`: the
    /// neighbour and its port leading back. `None` for unwired ports.
    #[inline]
    pub fn far(&self, n: NodeId, p: PortId) -> Option<(NodeId, PortId)> {
        if p.idx() >= self.degree {
            return None;
        }
        let i = n.idx() * self.degree + p.idx();
        let m = self.far_node[i];
        (m != UNWIRED).then_some((NodeId(m), PortId(self.far_port[i])))
    }

    /// Re-reads node `n`'s liveness and the usability of every port of `n`
    /// and of its neighbours from `faults` — every port whose
    /// `link_usable` a fault or repair of `n`, or of a link at `n`, can
    /// change. Called at each fault-set mutation.
    pub fn refresh_around(&mut self, topo: &dyn Topology, faults: &FaultSet, n: NodeId) {
        set_bit(&mut self.dead, n.idx(), faults.node_faulty(n));
        self.refresh_ports(topo, faults, n);
        for p in 0..self.degree {
            if let Some((m, _)) = self.far(n, PortId(p as u8)) {
                self.refresh_ports(topo, faults, m);
            }
        }
    }

    fn refresh_ports(&mut self, topo: &dyn Topology, faults: &FaultSet, n: NodeId) {
        for p in 0..self.degree {
            let ok = faults.link_usable(topo, n, PortId(p as u8));
            set_bit(&mut self.usable, n.idx() * self.degree + p, ok);
        }
    }
}
