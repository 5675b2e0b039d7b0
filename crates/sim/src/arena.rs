//! Struct-of-arrays channel arena: the flit and channel storage of every
//! router in one set of flat, node-major arrays.
//!
//! The engine used to keep a `Vec<RouterNode>` of per-node structs, each
//! holding nested `Vec<Vec<InputVc>>` / `VecDeque<Flit>` heap structures —
//! three pointer hops and an allocator round-trip per FIFO touch. The
//! arena replaces that with fixed-capacity ring FIFOs packed into one
//! `Vec<Flit>` plus parallel arrays for per-lane routing state, per-output
//! channel allocation/credits, and per-port registers. Two properties
//! matter beyond cache behaviour:
//!
//! - **Node-major layout**: every array is ordered by node id, so a
//!   contiguous node range maps to contiguous sub-slices of every array.
//!   [`Channels::split_mut`] cuts the arena into disjoint per-shard
//!   mutable views ([`ChanRef`]) with `split_at_mut` — no locks, no
//!   unsafe — which is what makes the sharded step of
//!   [`crate::Network::step`] possible.
//! - **Bounded FIFOs**: credit-based flow control guarantees a virtual
//!   channel never holds more than `buffer_depth` flits, so each lane is a
//!   ring of exactly `depth` slots; an overflow is a hard assertion (a
//!   credit-accounting bug, never a full buffer).
//!
//! Lane layout per node: ports `0..degree` each contribute `vcs` input
//! lanes, followed by one injection lane (port index `degree`, VC 0).

use crate::flit::{Flit, FlitKind, MessageId};
use crate::router::{DecisionPhase, RouteState};
use ftr_topo::VcId;
use std::collections::VecDeque;

/// Array-shape parameters shared by [`Channels`] and every [`ChanRef`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Geometry {
    /// Total nodes in the network.
    pub nodes: usize,
    /// Network ports per node.
    pub degree: usize,
    /// Virtual channels per network port.
    pub vcs: usize,
    /// FIFO capacity per lane, in flits.
    pub depth: usize,
    /// Input lanes per node: `degree * vcs` network lanes + 1 injection.
    pub lanes: usize,
}

impl Geometry {
    pub fn new(nodes: usize, degree: usize, vcs: usize, depth: usize) -> Self {
        Geometry { nodes, degree, vcs, depth, lanes: degree * vcs + 1 }
    }

    /// Lanes (VCs) on input port `ip`; the injection port has one.
    #[inline]
    pub fn vcs_at(&self, ip: usize) -> usize {
        if ip == self.degree {
            1
        } else {
            self.vcs
        }
    }

    /// Node-relative lane index of `(ip, iv)`.
    #[inline]
    fn lane_of(&self, ip: usize, iv: usize) -> usize {
        if ip == self.degree {
            debug_assert_eq!(iv, 0, "injection port has a single lane");
            self.degree * self.vcs
        } else {
            ip * self.vcs + iv
        }
    }
}

/// Ring index `i` reduced into `0..depth`. Every caller passes a head
/// (`< depth`) plus an offset of at most `depth`, so one conditional
/// subtraction replaces the runtime division of `i % depth`.
#[inline]
fn wrap(i: usize, depth: usize) -> usize {
    debug_assert!(i < 2 * depth);
    if i >= depth {
        i - depth
    } else {
        i
    }
}

const PLACEHOLDER: Flit = Flit { kind: FlitKind::Body, msg: MessageId(0), seq: 0 };

/// The arena itself — see the module docs for the layout.
#[cfg_attr(test, derive(Clone, Debug, PartialEq))]
pub(crate) struct Channels {
    geo: Geometry,
    /// Ring storage: `depth` slots per lane, `lanes` lanes per node.
    fifo_buf: Vec<Flit>,
    /// Ring head offset per lane.
    fifo_head: Vec<u32>,
    /// Occupied slots per lane.
    fifo_len: Vec<u32>,
    /// Route of the message at each lane's FIFO front.
    route: Vec<RouteState>,
    /// Decision progress per lane.
    phase: Vec<Option<DecisionPhase>>,
    /// Whether the current head's decision steps were counted.
    counted: Vec<bool>,
    /// Fault-misrouted marker of the routed message (fairness hint).
    misrouted: Vec<bool>,
    /// Output-channel owner, indexed `node * degree * vcs + p * vcs + v`.
    out_owner: Vec<Option<MessageId>>,
    /// Downstream credits, same indexing as `out_owner`.
    out_credits: Vec<u32>,
    /// Per node-port link register, indexed `node * degree + p`.
    out_reg: Vec<Option<(VcId, Flit)>>,
    /// Per node-port round-robin arbitration pointer.
    rr: Vec<u32>,
    /// Per node-port flits still assigned to the output (adaptivity load).
    out_assigned: Vec<u32>,
    /// Per node: locally generated flits awaiting the injection FIFO.
    staging: Vec<VecDeque<Flit>>,
}

impl Channels {
    pub fn new(geo: Geometry) -> Self {
        let n = geo.nodes;
        Channels {
            geo,
            fifo_buf: vec![PLACEHOLDER; n * geo.lanes * geo.depth],
            fifo_head: vec![0; n * geo.lanes],
            fifo_len: vec![0; n * geo.lanes],
            route: vec![RouteState::Unrouted; n * geo.lanes],
            phase: vec![None; n * geo.lanes],
            counted: vec![false; n * geo.lanes],
            misrouted: vec![false; n * geo.lanes],
            out_owner: vec![None; n * geo.degree * geo.vcs],
            out_credits: vec![geo.depth as u32; n * geo.degree * geo.vcs],
            out_reg: vec![None; n * geo.degree],
            rr: vec![0; n * geo.degree],
            out_assigned: vec![0; n * geo.degree],
            staging: (0..n).map(|_| VecDeque::new()).collect(),
        }
    }

    #[inline]
    pub fn geo(&self) -> Geometry {
        self.geo
    }

    // ------------------------------------------------- read-only queries

    #[inline]
    fn lane(&self, n: usize, ip: usize, iv: usize) -> usize {
        n * self.geo.lanes + self.geo.lane_of(ip, iv)
    }

    #[inline]
    fn oc(&self, n: usize, p: usize, v: usize) -> usize {
        (n * self.geo.degree + p) * self.geo.vcs + v
    }

    pub fn fifo_len(&self, n: usize, ip: usize, iv: usize) -> usize {
        self.fifo_len[self.lane(n, ip, iv)] as usize
    }

    /// Flits of lane `(n, ip, iv)` in FIFO order.
    pub fn fifo_iter(&self, n: usize, ip: usize, iv: usize) -> impl Iterator<Item = &Flit> + '_ {
        let l = self.lane(n, ip, iv);
        let (d, head, len) =
            (self.geo.depth, self.fifo_head[l] as usize, self.fifo_len[l] as usize);
        (0..len).map(move |i| &self.fifo_buf[l * d + wrap(head + i, d)])
    }

    pub fn route(&self, n: usize, ip: usize, iv: usize) -> RouteState {
        self.route[self.lane(n, ip, iv)]
    }

    pub fn phase_of(&self, n: usize, ip: usize, iv: usize) -> Option<DecisionPhase> {
        self.phase[self.lane(n, ip, iv)]
    }

    pub fn out_owner(&self, n: usize, p: usize, v: usize) -> Option<MessageId> {
        self.out_owner[self.oc(n, p, v)]
    }

    pub fn out_credits(&self, n: usize, p: usize, v: usize) -> u32 {
        self.out_credits[self.oc(n, p, v)]
    }

    pub fn out_reg(&self, n: usize, p: usize) -> Option<&(VcId, Flit)> {
        self.out_reg[n * self.geo.degree + p].as_ref()
    }

    pub fn staging(&self, n: usize) -> &VecDeque<Flit> {
        &self.staging[n]
    }

    pub fn staging_mut(&mut self, n: usize) -> &mut VecDeque<Flit> {
        &mut self.staging[n]
    }

    /// Total flits buffered at node `n` (inputs + output registers),
    /// excluding the staging queue.
    pub fn buffered_flits(&self, n: usize) -> usize {
        let mut total = 0usize;
        for l in n * self.geo.lanes..(n + 1) * self.geo.lanes {
            total += self.fifo_len[l] as usize;
        }
        for p in 0..self.geo.degree {
            total += self.out_reg[n * self.geo.degree + p].is_some() as usize;
        }
        total
    }

    /// Whether node `n` has any flit-bearing work — the activation
    /// predicate of the active-set scheduler.
    pub fn has_work(&self, n: usize) -> bool {
        if !self.staging[n].is_empty() {
            return true;
        }
        if self.fifo_len[n * self.geo.lanes..(n + 1) * self.geo.lanes].iter().any(|&l| l > 0) {
            return true;
        }
        self.out_reg[n * self.geo.degree..(n + 1) * self.geo.degree].iter().any(|r| r.is_some())
    }

    /// Resets node `n` to power-on state (fresh buffers, credits, rr,
    /// registers) — node repair hands back empty hardware.
    pub fn reset_node(&mut self, n: usize) {
        let geo = self.geo;
        for l in n * geo.lanes..(n + 1) * geo.lanes {
            self.fifo_head[l] = 0;
            self.fifo_len[l] = 0;
            self.route[l] = RouteState::Unrouted;
            self.phase[l] = None;
            self.counted[l] = false;
            self.misrouted[l] = false;
        }
        for c in n * geo.degree * geo.vcs..(n + 1) * geo.degree * geo.vcs {
            self.out_owner[c] = None;
            self.out_credits[c] = geo.depth as u32;
        }
        for p in n * geo.degree..(n + 1) * geo.degree {
            self.out_reg[p] = None;
            self.rr[p] = 0;
            self.out_assigned[p] = 0;
        }
        self.staging[n].clear();
    }

    // ----------------------------------------------------- shard views

    /// One mutable view over the whole arena (the master/sequential path).
    pub fn full_mut(&mut self) -> ChanRef<'_> {
        let geo = self.geo;
        ChanRef {
            base: 0,
            geo,
            fifo_buf: &mut self.fifo_buf,
            fifo_head: &mut self.fifo_head,
            fifo_len: &mut self.fifo_len,
            route: &mut self.route,
            phase: &mut self.phase,
            counted: &mut self.counted,
            misrouted: &mut self.misrouted,
            out_owner: &mut self.out_owner,
            out_credits: &mut self.out_credits,
            out_reg: &mut self.out_reg,
            rr: &mut self.rr,
            out_assigned: &mut self.out_assigned,
            staging: &mut self.staging,
        }
    }

    /// Cuts the arena into disjoint mutable views along `bounds` (node
    /// indices, ascending, `bounds[0] == 0`, last == `nodes`). Each view
    /// addresses nodes `bounds[i]..bounds[i+1]` with *global* node ids.
    pub fn split_mut(&mut self, bounds: &[usize]) -> Vec<ChanRef<'_>> {
        debug_assert!(bounds.len() >= 2);
        debug_assert_eq!(bounds[0], 0);
        debug_assert_eq!(*bounds.last().expect("non-empty"), self.geo.nodes);
        let geo = self.geo;
        let mut fifo_buf = self.fifo_buf.as_mut_slice();
        let mut fifo_head = self.fifo_head.as_mut_slice();
        let mut fifo_len = self.fifo_len.as_mut_slice();
        let mut route = self.route.as_mut_slice();
        let mut phase = self.phase.as_mut_slice();
        let mut counted = self.counted.as_mut_slice();
        let mut misrouted = self.misrouted.as_mut_slice();
        let mut out_owner = self.out_owner.as_mut_slice();
        let mut out_credits = self.out_credits.as_mut_slice();
        let mut out_reg = self.out_reg.as_mut_slice();
        let mut rr = self.rr.as_mut_slice();
        let mut out_assigned = self.out_assigned.as_mut_slice();
        let mut staging = self.staging.as_mut_slice();
        let mut out = Vec::with_capacity(bounds.len() - 1);
        for w in bounds.windows(2) {
            let cnt = w[1] - w[0];
            let (fb, r) = fifo_buf.split_at_mut(cnt * geo.lanes * geo.depth);
            fifo_buf = r;
            let (fh, r) = fifo_head.split_at_mut(cnt * geo.lanes);
            fifo_head = r;
            let (fl, r) = fifo_len.split_at_mut(cnt * geo.lanes);
            fifo_len = r;
            let (rt, r) = route.split_at_mut(cnt * geo.lanes);
            route = r;
            let (ph, r) = phase.split_at_mut(cnt * geo.lanes);
            phase = r;
            let (co, r) = counted.split_at_mut(cnt * geo.lanes);
            counted = r;
            let (mi, r) = misrouted.split_at_mut(cnt * geo.lanes);
            misrouted = r;
            let (oo, r) = out_owner.split_at_mut(cnt * geo.degree * geo.vcs);
            out_owner = r;
            let (ocr, r) = out_credits.split_at_mut(cnt * geo.degree * geo.vcs);
            out_credits = r;
            let (or_, r) = out_reg.split_at_mut(cnt * geo.degree);
            out_reg = r;
            let (rp, r) = rr.split_at_mut(cnt * geo.degree);
            rr = r;
            let (oa, r) = out_assigned.split_at_mut(cnt * geo.degree);
            out_assigned = r;
            let (st, r) = staging.split_at_mut(cnt);
            staging = r;
            out.push(ChanRef {
                base: w[0],
                geo,
                fifo_buf: fb,
                fifo_head: fh,
                fifo_len: fl,
                route: rt,
                phase: ph,
                counted: co,
                misrouted: mi,
                out_owner: oo,
                out_credits: ocr,
                out_reg: or_,
                rr: rp,
                out_assigned: oa,
                staging: st,
            });
        }
        out
    }
}

/// Mutable view over a contiguous node range of the arena. All accessors
/// take *global* node ids; a view created by [`Channels::split_mut`] may
/// only touch nodes inside its range (debug-asserted).
pub(crate) struct ChanRef<'a> {
    base: usize,
    geo: Geometry,
    fifo_buf: &'a mut [Flit],
    fifo_head: &'a mut [u32],
    fifo_len: &'a mut [u32],
    route: &'a mut [RouteState],
    phase: &'a mut [Option<DecisionPhase>],
    counted: &'a mut [bool],
    misrouted: &'a mut [bool],
    out_owner: &'a mut [Option<MessageId>],
    out_credits: &'a mut [u32],
    out_reg: &'a mut [Option<(VcId, Flit)>],
    rr: &'a mut [u32],
    out_assigned: &'a mut [u32],
    staging: &'a mut [VecDeque<Flit>],
}

impl ChanRef<'_> {
    #[inline]
    fn local(&self, n: usize) -> usize {
        debug_assert!(n >= self.base, "node {n} below shard base {}", self.base);
        n - self.base
    }

    #[inline]
    fn lane(&self, n: usize, ip: usize, iv: usize) -> usize {
        self.local(n) * self.geo.lanes + self.geo.lane_of(ip, iv)
    }

    #[inline]
    fn oc(&self, n: usize, p: usize, v: usize) -> usize {
        (self.local(n) * self.geo.degree + p) * self.geo.vcs + v
    }

    #[inline]
    fn np(&self, n: usize, p: usize) -> usize {
        self.local(n) * self.geo.degree + p
    }

    // ------------------------------------------------------- FIFO rings

    pub fn fifo_len(&self, n: usize, ip: usize, iv: usize) -> usize {
        self.fifo_len[self.lane(n, ip, iv)] as usize
    }

    pub fn fifo_push_back(&mut self, n: usize, ip: usize, iv: usize, f: Flit) {
        let l = self.lane(n, ip, iv);
        let d = self.geo.depth;
        let len = self.fifo_len[l] as usize;
        assert!(len < d, "VC FIFO overflow: the credit invariant was violated");
        self.fifo_buf[l * d + wrap(self.fifo_head[l] as usize + len, d)] = f;
        self.fifo_len[l] += 1;
    }

    pub fn fifo_pop_front(&mut self, n: usize, ip: usize, iv: usize) -> Option<Flit> {
        let l = self.lane(n, ip, iv);
        if self.fifo_len[l] == 0 {
            return None;
        }
        let d = self.geo.depth;
        let f = self.fifo_buf[l * d + self.fifo_head[l] as usize];
        self.fifo_head[l] = wrap(self.fifo_head[l] as usize + 1, d) as u32;
        self.fifo_len[l] -= 1;
        Some(f)
    }

    pub fn fifo_front(&self, n: usize, ip: usize, iv: usize) -> Option<&Flit> {
        let l = self.lane(n, ip, iv);
        if self.fifo_len[l] == 0 {
            return None;
        }
        Some(&self.fifo_buf[l * self.geo.depth + self.fifo_head[l] as usize])
    }

    pub fn fifo_front_mut(&mut self, n: usize, ip: usize, iv: usize) -> Option<&mut Flit> {
        let l = self.lane(n, ip, iv);
        if self.fifo_len[l] == 0 {
            return None;
        }
        Some(&mut self.fifo_buf[l * self.geo.depth + self.fifo_head[l] as usize])
    }

    #[cfg(test)]
    pub fn fifo_iter(&self, n: usize, ip: usize, iv: usize) -> impl Iterator<Item = &Flit> + '_ {
        let l = self.lane(n, ip, iv);
        let (d, head, len) =
            (self.geo.depth, self.fifo_head[l] as usize, self.fifo_len[l] as usize);
        (0..len).map(move |i| &self.fifo_buf[l * d + wrap(head + i, d)])
    }

    /// Keeps only flits matching `pred`, compacting the ring in order.
    pub fn fifo_retain(&mut self, n: usize, ip: usize, iv: usize, pred: impl Fn(&Flit) -> bool) {
        let l = self.lane(n, ip, iv);
        let d = self.geo.depth;
        let head = self.fifo_head[l] as usize;
        let len = self.fifo_len[l] as usize;
        let mut kept = 0usize;
        for i in 0..len {
            let f = self.fifo_buf[l * d + wrap(head + i, d)];
            if pred(&f) {
                self.fifo_buf[l * d + wrap(head + kept, d)] = f;
                kept += 1;
            }
        }
        self.fifo_len[l] = kept as u32;
    }

    // ------------------------------------------------------- lane state

    pub fn route(&self, n: usize, ip: usize, iv: usize) -> RouteState {
        self.route[self.lane(n, ip, iv)]
    }

    pub fn set_route(&mut self, n: usize, ip: usize, iv: usize, r: RouteState) {
        let l = self.lane(n, ip, iv);
        self.route[l] = r;
    }

    pub fn phase_of(&self, n: usize, ip: usize, iv: usize) -> Option<DecisionPhase> {
        self.phase[self.lane(n, ip, iv)]
    }

    pub fn set_phase(&mut self, n: usize, ip: usize, iv: usize, p: Option<DecisionPhase>) {
        let l = self.lane(n, ip, iv);
        self.phase[l] = p;
    }

    pub fn counted(&self, n: usize, ip: usize, iv: usize) -> bool {
        self.counted[self.lane(n, ip, iv)]
    }

    pub fn set_counted(&mut self, n: usize, ip: usize, iv: usize, c: bool) {
        let l = self.lane(n, ip, iv);
        self.counted[l] = c;
    }

    pub fn misrouted(&self, n: usize, ip: usize, iv: usize) -> bool {
        self.misrouted[self.lane(n, ip, iv)]
    }

    pub fn set_misrouted(&mut self, n: usize, ip: usize, iv: usize, m: bool) {
        let l = self.lane(n, ip, iv);
        self.misrouted[l] = m;
    }

    /// Resets per-message decision state (after a tail leaves or a kill).
    pub fn reset_route(&mut self, n: usize, ip: usize, iv: usize) {
        let l = self.lane(n, ip, iv);
        self.route[l] = RouteState::Unrouted;
        self.phase[l] = None;
        self.counted[l] = false;
        self.misrouted[l] = false;
    }

    // -------------------------------------------------- output channels

    pub fn out_owner(&self, n: usize, p: usize, v: usize) -> Option<MessageId> {
        self.out_owner[self.oc(n, p, v)]
    }

    pub fn set_out_owner(&mut self, n: usize, p: usize, v: usize, o: Option<MessageId>) {
        let c = self.oc(n, p, v);
        self.out_owner[c] = o;
    }

    pub fn out_credits(&self, n: usize, p: usize, v: usize) -> u32 {
        self.out_credits[self.oc(n, p, v)]
    }

    pub fn set_out_credits(&mut self, n: usize, p: usize, v: usize, c: u32) {
        let i = self.oc(n, p, v);
        self.out_credits[i] = c;
    }

    /// Whether output VC `(p, v)` of node `n` is allocatable (idle +
    /// credit).
    pub fn out_channel_free(&self, n: usize, p: usize, v: usize) -> bool {
        let c = self.oc(n, p, v);
        self.out_owner[c].is_none() && self.out_credits[c] > 0
    }

    // -------------------------------------------------- per-port state

    pub fn out_reg(&self, n: usize, p: usize) -> Option<&(VcId, Flit)> {
        self.out_reg[self.np(n, p)].as_ref()
    }

    pub fn take_out_reg(&mut self, n: usize, p: usize) -> Option<(VcId, Flit)> {
        let i = self.np(n, p);
        self.out_reg[i].take()
    }

    pub fn set_out_reg(&mut self, n: usize, p: usize, r: Option<(VcId, Flit)>) {
        let i = self.np(n, p);
        self.out_reg[i] = r;
    }

    pub fn rr(&self, n: usize, p: usize) -> u32 {
        self.rr[self.np(n, p)]
    }

    pub fn set_rr(&mut self, n: usize, p: usize, v: u32) {
        let i = self.np(n, p);
        self.rr[i] = v;
    }

    pub fn out_assigned(&self, n: usize, p: usize) -> u32 {
        self.out_assigned[self.np(n, p)]
    }

    pub fn set_out_assigned(&mut self, n: usize, p: usize, v: u32) {
        let i = self.np(n, p);
        self.out_assigned[i] = v;
    }

    pub fn add_out_assigned(&mut self, n: usize, p: usize, v: u32) {
        let i = self.np(n, p);
        self.out_assigned[i] += v;
    }

    pub fn sub_out_assigned_sat(&mut self, n: usize, p: usize, v: u32) {
        let i = self.np(n, p);
        self.out_assigned[i] = self.out_assigned[i].saturating_sub(v);
    }

    // ------------------------------------------------------------ nodes

    pub fn staging_mut(&mut self, n: usize) -> &mut VecDeque<Flit> {
        let i = self.local(n);
        &mut self.staging[i]
    }

    pub fn staging(&self, n: usize) -> &VecDeque<Flit> {
        &self.staging[self.local(n)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(msg: u64, seq: u32) -> Flit {
        Flit { kind: FlitKind::Body, msg: MessageId(msg), seq }
    }

    #[test]
    fn ring_fifo_push_pop_wraps() {
        // depth 3: two flits per round walk the head around the ring
        let mut ch = Channels::new(Geometry::new(2, 2, 1, 3));
        let mut v = ch.full_mut();
        for round in 0..5u64 {
            v.fifo_push_back(1, 0, 0, flit(round, 0));
            v.fifo_push_back(1, 0, 0, flit(round + 100, 1));
            assert_eq!(v.fifo_len(1, 0, 0), 2);
            assert_eq!(v.fifo_pop_front(1, 0, 0).unwrap().msg, MessageId(round));
            assert_eq!(v.fifo_pop_front(1, 0, 0).unwrap().msg, MessageId(round + 100));
            assert!(v.fifo_pop_front(1, 0, 0).is_none());
        }
        // a full ring whose head sits at the last slot: the tail wraps to
        // slot 0 and iteration crosses the seam in FIFO order
        for s in 0..2 {
            v.fifo_push_back(0, 1, 0, flit(7, s));
            v.fifo_pop_front(0, 1, 0);
        }
        for s in 0..3 {
            v.fifo_push_back(0, 1, 0, flit(8, s));
        }
        let seqs: Vec<u32> = v.fifo_iter(0, 1, 0).map(|f| f.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(v.fifo_pop_front(0, 1, 0).unwrap().seq, 0);
        v.fifo_push_back(0, 1, 0, flit(8, 3));
        let seqs: Vec<u32> = v.fifo_iter(0, 1, 0).map(|f| f.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        // depth 1: every push lands in the only slot, the head wraps to 0
        let mut ch = Channels::new(Geometry::new(1, 1, 2, 1));
        let mut v = ch.full_mut();
        for round in 0..4u64 {
            v.fifo_push_back(0, 0, 1, flit(round, 0));
            assert_eq!(v.fifo_len(0, 0, 1), 1);
            assert_eq!(v.fifo_iter(0, 0, 1).next().unwrap().msg, MessageId(round));
            assert_eq!(v.fifo_pop_front(0, 0, 1).unwrap().msg, MessageId(round));
            assert!(v.fifo_pop_front(0, 0, 1).is_none());
        }
        assert_eq!(ch.fifo_iter(0, 0, 1).count(), 0);
    }

    #[test]
    #[should_panic(expected = "credit invariant")]
    fn ring_fifo_overflow_is_fatal() {
        let mut ch = Channels::new(Geometry::new(1, 1, 1, 2));
        let mut v = ch.full_mut();
        v.fifo_push_back(0, 0, 0, flit(1, 0));
        v.fifo_push_back(0, 0, 0, flit(1, 1));
        v.fifo_push_back(0, 0, 0, flit(1, 2));
    }

    #[test]
    fn retain_compacts_in_order() {
        let mut ch = Channels::new(Geometry::new(1, 1, 1, 4));
        let mut v = ch.full_mut();
        // wrap the ring first so retain must handle a non-zero head
        v.fifo_push_back(0, 0, 0, flit(9, 0));
        v.fifo_pop_front(0, 0, 0);
        for (m, s) in [(1u64, 0u32), (2, 0), (1, 1), (2, 1)] {
            v.fifo_push_back(0, 0, 0, flit(m, s));
        }
        v.fifo_retain(0, 0, 0, |f| f.msg != MessageId(2));
        let kept: Vec<_> = v.fifo_iter(0, 0, 0).map(|f| (f.msg.0, f.seq)).collect();
        assert_eq!(kept, vec![(1, 0), (1, 1)]);
        // head at the last slot: both the read and the compacting write
        // index cross the seam
        let mut ch = Channels::new(Geometry::new(1, 1, 1, 4));
        let mut v = ch.full_mut();
        for s in 0..3 {
            v.fifo_push_back(0, 0, 0, flit(9, s));
            v.fifo_pop_front(0, 0, 0);
        }
        for (m, s) in [(2u64, 0u32), (1, 0), (2, 1), (1, 1)] {
            v.fifo_push_back(0, 0, 0, flit(m, s));
        }
        v.fifo_retain(0, 0, 0, |f| f.msg != MessageId(2));
        let kept: Vec<_> = v.fifo_iter(0, 0, 0).map(|f| (f.msg.0, f.seq)).collect();
        assert_eq!(kept, vec![(1, 0), (1, 1)]);
        v.fifo_push_back(0, 0, 0, flit(3, 0));
        assert_eq!(v.fifo_pop_front(0, 0, 0).unwrap().msg, MessageId(1));
        assert_eq!(v.fifo_len(0, 0, 0), 2);
        // depth 1: retain keeps or drops the single flit
        let mut ch = Channels::new(Geometry::new(1, 1, 1, 1));
        let mut v = ch.full_mut();
        v.fifo_push_back(0, 0, 0, flit(4, 0));
        v.fifo_retain(0, 0, 0, |f| f.msg == MessageId(4));
        assert_eq!(v.fifo_len(0, 0, 0), 1);
        v.fifo_retain(0, 0, 0, |_| false);
        assert_eq!(v.fifo_len(0, 0, 0), 0);
        v.fifo_push_back(0, 0, 0, flit(5, 0));
        assert_eq!(v.fifo_pop_front(0, 0, 0).unwrap().msg, MessageId(5));
    }

    #[test]
    fn injection_lane_is_last() {
        let geo = Geometry::new(3, 4, 2, 4);
        assert_eq!(geo.lanes, 9);
        assert_eq!(geo.lane_of(4, 0), 8);
        assert_eq!(geo.vcs_at(4), 1);
        assert_eq!(geo.vcs_at(0), 2);
    }

    #[test]
    fn split_views_address_global_ids() {
        let mut ch = Channels::new(Geometry::new(4, 2, 1, 2));
        let mut views = ch.split_mut(&[0, 2, 4]);
        let (a, b) = views.split_at_mut(1);
        a[0].fifo_push_back(1, 0, 0, flit(7, 0));
        b[0].fifo_push_back(3, 1, 0, flit(8, 0));
        b[0].set_rr(2, 1, 5);
        drop(views);
        assert_eq!(ch.fifo_len(1, 0, 0), 1);
        assert_eq!(ch.fifo_iter(3, 1, 0).next().unwrap().msg, MessageId(8));
        assert_eq!(ch.full_mut().rr(2, 1), 5);
        assert!(ch.has_work(1));
        assert!(!ch.has_work(0));
    }

    #[test]
    fn reset_node_restores_power_on_state() {
        let mut ch = Channels::new(Geometry::new(2, 2, 2, 4));
        {
            let mut v = ch.full_mut();
            v.fifo_push_back(1, 0, 1, flit(3, 0));
            v.set_route(1, 0, 1, RouteState::Local);
            v.set_out_owner(1, 1, 0, Some(MessageId(3)));
            v.set_out_credits(1, 1, 0, 1);
            v.set_rr(1, 0, 3);
            v.set_out_reg(1, 1, Some((VcId(0), flit(3, 1))));
            v.staging_mut(1).push_back(flit(4, 0));
        }
        ch.reset_node(1);
        assert!(!ch.has_work(1));
        assert_eq!(ch.route(1, 0, 1), RouteState::Unrouted);
        assert_eq!(ch.out_owner(1, 1, 0), None);
        assert_eq!(ch.out_credits(1, 1, 0), 4);
        assert_eq!(ch.buffered_flits(1), 0);
    }
}
