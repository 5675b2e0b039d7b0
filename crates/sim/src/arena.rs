//! Channel arena: the flit and channel storage of every router in a few
//! flat, node-major arrays of compact records.
//!
//! The engine used to keep a `Vec<RouterNode>` of per-node structs, each
//! holding nested `Vec<Vec<InputVc>>` / `VecDeque<Flit>` heap structures —
//! three pointer hops and an allocator round-trip per FIFO touch. The
//! arena replaces that with fixed-capacity ring FIFOs packed into one
//! `Vec<Flit>` plus three record arrays, each ordered node by node:
//!
//! - one [`Lane`] per input lane: ring head and length, the route and
//!   decision phase of the message at the front, and its counted and
//!   misrouted markers — 16 bytes, so a node's five mesh lanes share two
//!   cache lines;
//! - one [`Port`] per output port: the output register's VC byte
//!   ([`EMPTY`] when the register is free), the round-robin pointer and
//!   the flits still assigned to the port — 8 bytes;
//! - one `OutChan` per output virtual channel: owner and credits.
//!
//! The flit held by each output register sits in a parallel flit array
//! that is read only when the register's VC byte says it is occupied.
//! See `DESIGN.md` §20. Two properties matter beyond cache behaviour:
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
//!
//! The records narrow three fields, which bounds the shapes the arena can
//! address (checked by `NetworkBuilder::build`): ring indices are `u16`
//! ([`MAX_DEPTH`]), the register VC byte reserves [`EMPTY`]
//! ([`MAX_VCS`]), and ports are `u8` ([`MAX_DEGREE`]).

use crate::flit::{Flit, FlitKind, MessageId};
use crate::router::{DecisionPhase, RouteState};
use ftr_topo::VcId;
use std::collections::VecDeque;

/// Register VC byte of an empty output register.
const EMPTY: u8 = u8::MAX;
/// Largest buffer depth a `u16` ring index addresses.
pub(crate) const MAX_DEPTH: usize = u16::MAX as usize;
/// Most virtual channels per port: VC ids are bytes and [`EMPTY`] is
/// reserved.
pub(crate) const MAX_VCS: usize = EMPTY as usize;
/// Most ports per node: port ids are bytes.
pub(crate) const MAX_DEGREE: usize = u8::MAX as usize + 1;

/// Owner word of an unowned output channel (message ids count up from 0
/// and never reach it).
const NO_OWNER: u64 = u64::MAX;
/// Phase word of a lane with no decision in progress; `Waiting(c)` is
/// stored as `c` (always `>= 1`).
const PHASE_NONE: u32 = 0;
/// Phase word of [`DecisionPhase::Ready`].
const PHASE_READY: u32 = u32::MAX;

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
        debug_assert!(degree <= MAX_DEGREE && vcs <= MAX_VCS && depth <= MAX_DEPTH);
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

/// Per-input-lane record: the FIFO ring's bookkeeping and the routing
/// state of the message at its front.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Lane {
    /// Ring slot of the front flit.
    head: u16,
    /// Flits buffered.
    len: u16,
    /// Decision progress, encoded (`PHASE_NONE`, `PHASE_READY`, or the
    /// remaining cycles of `Waiting`).
    phase: u32,
    /// Route of the message at the FIFO front.
    route: RouteState,
    /// Whether the current head's decision steps were counted.
    counted: bool,
    /// Fault-misrouted marker of the routed message (fairness hint).
    misrouted: bool,
}

const _: () = assert!(std::mem::size_of::<Lane>() == 16);

impl Lane {
    const IDLE: Lane = Lane {
        head: 0,
        len: 0,
        phase: PHASE_NONE,
        route: RouteState::Unrouted,
        counted: false,
        misrouted: false,
    };

    /// Flits buffered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Route of the message at the FIFO front.
    #[inline]
    pub fn route(&self) -> RouteState {
        self.route
    }

    /// Fault-misrouted marker of the routed message.
    #[inline]
    pub fn misrouted(&self) -> bool {
        self.misrouted
    }

    fn phase(&self) -> Option<DecisionPhase> {
        match self.phase {
            PHASE_NONE => None,
            PHASE_READY => Some(DecisionPhase::Ready),
            c => Some(DecisionPhase::Waiting(c)),
        }
    }

    fn set_phase(&mut self, p: Option<DecisionPhase>) {
        self.phase = match p {
            None => PHASE_NONE,
            Some(DecisionPhase::Ready) => PHASE_READY,
            Some(DecisionPhase::Waiting(c)) => {
                debug_assert!(c != PHASE_NONE && c != PHASE_READY, "Waiting({c}) unencodable");
                c
            }
        };
    }

    /// Clears the per-message decision state, keeping the ring.
    fn reset_route(&mut self) {
        *self = Lane { head: self.head, len: self.len, ..Lane::IDLE };
    }
}

/// Per-output-port record.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Port {
    /// VC of the flit in the output register, [`EMPTY`] when free.
    reg_vc: u8,
    /// Round-robin arbitration pointer (`< (degree + 1) * vcs`).
    rr: u16,
    /// Flits still assigned to the output (adaptivity load).
    assigned: u32,
}

impl Port {
    const IDLE: Port = Port { reg_vc: EMPTY, rr: 0, assigned: 0 };
}

/// Per-output-virtual-channel record.
#[derive(Clone, Copy, Debug, PartialEq)]
struct OutChan {
    /// Owning message id, `NO_OWNER` when idle.
    owner: u64,
    /// Downstream credits.
    credits: u32,
}

impl OutChan {
    /// Power-on state: unowned, a full buffer of credits downstream.
    fn idle(depth: usize) -> Self {
        OutChan { owner: NO_OWNER, credits: depth as u32 }
    }
}

/// The arena itself — see the module docs for the layout.
#[cfg_attr(test, derive(Clone, Debug, PartialEq))]
pub(crate) struct Channels {
    geo: Geometry,
    /// Ring storage: `depth` slots per lane, `lanes` lanes per node.
    ring: Vec<Flit>,
    /// One record per lane, `lanes` per node.
    lanes: Vec<Lane>,
    /// One record per output port, `degree` per node.
    ports: Vec<Port>,
    /// Output register flit per port; meaningful while its VC byte is set.
    regs: Vec<Flit>,
    /// One record per output VC, indexed `(node * degree + p) * vcs + v`.
    outs: Vec<OutChan>,
    /// Per node: locally generated flits awaiting the injection FIFO.
    staging: Vec<VecDeque<Flit>>,
}

impl Channels {
    pub fn new(geo: Geometry) -> Self {
        let n = geo.nodes;
        let blank = Flit::new(FlitKind::Body, MessageId(0), 0);
        Channels {
            geo,
            ring: vec![blank; n * geo.lanes * geo.depth],
            lanes: vec![Lane::IDLE; n * geo.lanes],
            ports: vec![Port::IDLE; n * geo.degree],
            regs: vec![blank; n * geo.degree],
            outs: vec![OutChan::idle(geo.depth); n * geo.degree * geo.vcs],
            staging: (0..n).map(|_| VecDeque::new()).collect(),
        }
    }

    #[inline]
    pub fn geo(&self) -> Geometry {
        self.geo
    }

    // ------------------------------------------------- read-only queries

    #[inline]
    fn lane(&self, n: usize, ip: usize, iv: usize) -> &Lane {
        &self.lanes[n * self.geo.lanes + self.geo.lane_of(ip, iv)]
    }

    #[inline]
    fn out(&self, n: usize, p: usize, v: usize) -> &OutChan {
        &self.outs[(n * self.geo.degree + p) * self.geo.vcs + v]
    }

    pub fn fifo_len(&self, n: usize, ip: usize, iv: usize) -> usize {
        self.lane(n, ip, iv).len as usize
    }

    /// Flits of lane `(n, ip, iv)` in FIFO order.
    pub fn fifo_iter(&self, n: usize, ip: usize, iv: usize) -> impl Iterator<Item = &Flit> + '_ {
        let l = n * self.geo.lanes + self.geo.lane_of(ip, iv);
        ring_iter(&self.ring, self.geo.depth, l, &self.lanes[l])
    }

    pub fn route(&self, n: usize, ip: usize, iv: usize) -> RouteState {
        self.lane(n, ip, iv).route
    }

    pub fn phase_of(&self, n: usize, ip: usize, iv: usize) -> Option<DecisionPhase> {
        self.lane(n, ip, iv).phase()
    }

    pub fn out_owner(&self, n: usize, p: usize, v: usize) -> Option<MessageId> {
        owner_of(self.out(n, p, v))
    }

    pub fn out_credits(&self, n: usize, p: usize, v: usize) -> u32 {
        self.out(n, p, v).credits
    }

    pub fn out_reg(&self, n: usize, p: usize) -> Option<(VcId, Flit)> {
        let i = n * self.geo.degree + p;
        reg_of(&self.ports[i], &self.regs[i])
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
        let g = self.geo;
        let lanes = &self.lanes[n * g.lanes..(n + 1) * g.lanes];
        let ports = &self.ports[n * g.degree..(n + 1) * g.degree];
        lanes.iter().map(|l| l.len as usize).sum::<usize>()
            + ports.iter().filter(|p| p.reg_vc != EMPTY).count()
    }

    /// Whether node `n` has any flit-bearing work — the activation
    /// predicate of the active-set scheduler.
    pub fn has_work(&self, n: usize) -> bool {
        let g = self.geo;
        let lanes = &self.lanes[n * g.lanes..(n + 1) * g.lanes];
        work_in(lanes, &self.ports[n * g.degree..(n + 1) * g.degree], &self.staging[n])
    }

    /// Resets node `n` to power-on state (fresh buffers, credits, rr,
    /// registers) — node repair hands back empty hardware.
    pub fn reset_node(&mut self, n: usize) {
        let g = self.geo;
        self.lanes[n * g.lanes..(n + 1) * g.lanes].fill(Lane::IDLE);
        self.ports[n * g.degree..(n + 1) * g.degree].fill(Port::IDLE);
        let (lo, hi) = (n * g.degree * g.vcs, (n + 1) * g.degree * g.vcs);
        self.outs[lo..hi].fill(OutChan::idle(g.depth));
        self.staging[n].clear();
    }

    // ----------------------------------------------------- shard views

    /// One mutable view over the whole arena (the master/sequential path).
    pub fn full_mut(&mut self) -> ChanRef<'_> {
        ChanRef {
            base: 0,
            geo: self.geo,
            ring: &mut self.ring,
            lanes: &mut self.lanes,
            ports: &mut self.ports,
            regs: &mut self.regs,
            outs: &mut self.outs,
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
        let mut rest = self.full_mut();
        let mut out = Vec::with_capacity(bounds.len() - 1);
        for w in bounds.windows(2) {
            let (head, tail) = rest.split_off(w[1] - w[0]);
            out.push(head);
            rest = tail;
        }
        debug_assert_eq!(rest.base, geo.nodes);
        out
    }
}

/// Whether a node with these records holds a flit anywhere.
#[inline]
fn work_in(lanes: &[Lane], ports: &[Port], staging: &VecDeque<Flit>) -> bool {
    lanes.iter().any(|l| l.len > 0)
        || ports.iter().any(|p| p.reg_vc != EMPTY)
        || !staging.is_empty()
}

/// The flits of lane `l` (global record index) in FIFO order.
fn ring_iter<'a>(
    ring: &'a [Flit],
    depth: usize,
    l: usize,
    lane: &Lane,
) -> impl Iterator<Item = &'a Flit> + 'a {
    let (head, len) = (lane.head as usize, lane.len as usize);
    (0..len).map(move |i| &ring[l * depth + wrap(head + i, depth)])
}

#[inline]
fn owner_of(c: &OutChan) -> Option<MessageId> {
    (c.owner != NO_OWNER).then_some(MessageId(c.owner))
}

#[inline]
fn reg_of(p: &Port, f: &Flit) -> Option<(VcId, Flit)> {
    if p.reg_vc == EMPTY {
        None
    } else {
        Some((VcId(p.reg_vc), *f))
    }
}

/// Mutable view over a contiguous node range of the arena. All accessors
/// take *global* node ids; a view created by [`Channels::split_mut`] may
/// only touch nodes inside its range (debug-asserted).
pub(crate) struct ChanRef<'a> {
    base: usize,
    geo: Geometry,
    ring: &'a mut [Flit],
    lanes: &'a mut [Lane],
    ports: &'a mut [Port],
    regs: &'a mut [Flit],
    outs: &'a mut [OutChan],
    staging: &'a mut [VecDeque<Flit>],
}

impl<'a> ChanRef<'a> {
    /// Splits off the first `cnt` nodes of this view.
    fn split_off(self, cnt: usize) -> (ChanRef<'a>, ChanRef<'a>) {
        let g = self.geo;
        let (ring, ring_r) = self.ring.split_at_mut(cnt * g.lanes * g.depth);
        let (lanes, lanes_r) = self.lanes.split_at_mut(cnt * g.lanes);
        let (ports, ports_r) = self.ports.split_at_mut(cnt * g.degree);
        let (regs, regs_r) = self.regs.split_at_mut(cnt * g.degree);
        let (outs, outs_r) = self.outs.split_at_mut(cnt * g.degree * g.vcs);
        let (staging, staging_r) = self.staging.split_at_mut(cnt);
        (
            ChanRef { base: self.base, geo: g, ring, lanes, ports, regs, outs, staging },
            ChanRef {
                base: self.base + cnt,
                geo: g,
                ring: ring_r,
                lanes: lanes_r,
                ports: ports_r,
                regs: regs_r,
                outs: outs_r,
                staging: staging_r,
            },
        )
    }
}

impl ChanRef<'_> {
    #[inline]
    fn local(&self, n: usize) -> usize {
        debug_assert!(n >= self.base, "node {n} below shard base {}", self.base);
        n - self.base
    }

    /// Record index of node-relative lane `l` of node `n`.
    #[inline]
    fn li(&self, n: usize, l: usize) -> usize {
        self.local(n) * self.geo.lanes + l
    }

    #[inline]
    fn lane(&self, n: usize, ip: usize, iv: usize) -> usize {
        self.li(n, self.geo.lane_of(ip, iv))
    }

    #[inline]
    fn oc(&self, n: usize, p: usize, v: usize) -> usize {
        (self.local(n) * self.geo.degree + p) * self.geo.vcs + v
    }

    #[inline]
    fn np(&self, n: usize, p: usize) -> usize {
        self.local(n) * self.geo.degree + p
    }

    /// The record of node-relative lane `l` of node `n` (lanes are
    /// port-major, the injection lane last).
    #[inline]
    pub fn lane_at(&self, n: usize, l: usize) -> Lane {
        self.lanes[self.li(n, l)]
    }

    /// [`Channels::has_work`] through the view.
    pub fn has_work(&self, n: usize) -> bool {
        let (l, p) = (self.li(n, 0), self.np(n, 0));
        let lanes = &self.lanes[l..l + self.geo.lanes];
        work_in(lanes, &self.ports[p..p + self.geo.degree], &self.staging[self.local(n)])
    }

    // ------------------------------------------------------- FIFO rings

    pub fn fifo_len(&self, n: usize, ip: usize, iv: usize) -> usize {
        self.lanes[self.lane(n, ip, iv)].len as usize
    }

    pub fn fifo_push_back(&mut self, n: usize, ip: usize, iv: usize, f: Flit) {
        let l = self.lane(n, ip, iv);
        let d = self.geo.depth;
        let lane = &mut self.lanes[l];
        let len = lane.len as usize;
        assert!(len < d, "VC FIFO overflow: the credit invariant was violated");
        self.ring[l * d + wrap(lane.head as usize + len, d)] = f;
        lane.len += 1;
    }

    /// Pops the front flit of node-relative lane `l` of node `n`.
    pub fn pop_lane(&mut self, n: usize, l: usize) -> Option<Flit> {
        let l = self.li(n, l);
        let d = self.geo.depth;
        let lane = &mut self.lanes[l];
        if lane.len == 0 {
            return None;
        }
        let f = self.ring[l * d + lane.head as usize];
        lane.head = wrap(lane.head as usize + 1, d) as u16;
        lane.len -= 1;
        Some(f)
    }

    #[cfg(test)]
    pub fn fifo_pop_front(&mut self, n: usize, ip: usize, iv: usize) -> Option<Flit> {
        self.pop_lane(n, self.geo.lane_of(ip, iv))
    }

    pub fn fifo_front(&self, n: usize, ip: usize, iv: usize) -> Option<&Flit> {
        let l = self.lane(n, ip, iv);
        let lane = &self.lanes[l];
        (lane.len != 0).then(|| &self.ring[l * self.geo.depth + lane.head as usize])
    }

    pub fn fifo_front_mut(&mut self, n: usize, ip: usize, iv: usize) -> Option<&mut Flit> {
        let l = self.lane(n, ip, iv);
        let lane = &self.lanes[l];
        (lane.len != 0).then(|| &mut self.ring[l * self.geo.depth + lane.head as usize])
    }

    #[cfg(test)]
    pub fn fifo_iter(&self, n: usize, ip: usize, iv: usize) -> impl Iterator<Item = &Flit> + '_ {
        let l = self.lane(n, ip, iv);
        ring_iter(self.ring, self.geo.depth, l, &self.lanes[l])
    }

    /// Keeps only flits matching `pred`, compacting the ring in order.
    pub fn fifo_retain(&mut self, n: usize, ip: usize, iv: usize, pred: impl Fn(&Flit) -> bool) {
        let l = self.lane(n, ip, iv);
        let d = self.geo.depth;
        let lane = &mut self.lanes[l];
        let ring = &mut self.ring[l * d..(l + 1) * d];
        let head = lane.head as usize;
        let mut kept = 0usize;
        for i in 0..lane.len as usize {
            let f = ring[wrap(head + i, d)];
            if pred(&f) {
                ring[wrap(head + kept, d)] = f;
                kept += 1;
            }
        }
        lane.len = kept as u16;
    }

    // ------------------------------------------------------- lane state

    pub fn route(&self, n: usize, ip: usize, iv: usize) -> RouteState {
        self.lanes[self.lane(n, ip, iv)].route
    }

    pub fn set_route(&mut self, n: usize, ip: usize, iv: usize, r: RouteState) {
        let l = self.lane(n, ip, iv);
        self.lanes[l].route = r;
    }

    pub fn phase_of(&self, n: usize, ip: usize, iv: usize) -> Option<DecisionPhase> {
        self.lanes[self.lane(n, ip, iv)].phase()
    }

    pub fn set_phase(&mut self, n: usize, ip: usize, iv: usize, p: Option<DecisionPhase>) {
        let l = self.lane(n, ip, iv);
        self.lanes[l].set_phase(p);
    }

    pub fn counted(&self, n: usize, ip: usize, iv: usize) -> bool {
        self.lanes[self.lane(n, ip, iv)].counted
    }

    pub fn set_counted(&mut self, n: usize, ip: usize, iv: usize, c: bool) {
        let l = self.lane(n, ip, iv);
        self.lanes[l].counted = c;
    }

    #[cfg(test)]
    pub fn misrouted(&self, n: usize, ip: usize, iv: usize) -> bool {
        self.lanes[self.lane(n, ip, iv)].misrouted
    }

    pub fn set_misrouted(&mut self, n: usize, ip: usize, iv: usize, m: bool) {
        let l = self.lane(n, ip, iv);
        self.lanes[l].misrouted = m;
    }

    /// Resets per-message decision state (after a tail leaves or a kill).
    pub fn reset_route(&mut self, n: usize, ip: usize, iv: usize) {
        let l = self.lane(n, ip, iv);
        self.lanes[l].reset_route();
    }

    // -------------------------------------------------- output channels

    pub fn out_owner(&self, n: usize, p: usize, v: usize) -> Option<MessageId> {
        owner_of(&self.outs[self.oc(n, p, v)])
    }

    pub fn set_out_owner(&mut self, n: usize, p: usize, v: usize, o: Option<MessageId>) {
        debug_assert!(o.is_none_or(|m| m.0 != NO_OWNER), "message id reserved");
        let c = self.oc(n, p, v);
        self.outs[c].owner = o.map_or(NO_OWNER, |m| m.0);
    }

    pub fn out_credits(&self, n: usize, p: usize, v: usize) -> u32 {
        self.outs[self.oc(n, p, v)].credits
    }

    pub fn set_out_credits(&mut self, n: usize, p: usize, v: usize, c: u32) {
        let i = self.oc(n, p, v);
        self.outs[i].credits = c;
    }

    /// Whether output VC `(p, v)` of node `n` is allocatable (idle +
    /// credit).
    pub fn out_channel_free(&self, n: usize, p: usize, v: usize) -> bool {
        let c = &self.outs[self.oc(n, p, v)];
        c.owner == NO_OWNER && c.credits > 0
    }

    // -------------------------------------------------- per-port state

    /// Whether the output register of `(n, p)` holds a flit — one byte.
    #[inline]
    pub fn reg_busy(&self, n: usize, p: usize) -> bool {
        self.ports[self.np(n, p)].reg_vc != EMPTY
    }

    pub fn out_reg(&self, n: usize, p: usize) -> Option<(VcId, Flit)> {
        let i = self.np(n, p);
        reg_of(&self.ports[i], &self.regs[i])
    }

    pub fn take_out_reg(&mut self, n: usize, p: usize) -> Option<(VcId, Flit)> {
        let i = self.np(n, p);
        let r = reg_of(&self.ports[i], &self.regs[i]);
        self.ports[i].reg_vc = EMPTY;
        r
    }

    pub fn set_out_reg(&mut self, n: usize, p: usize, r: Option<(VcId, Flit)>) {
        let i = self.np(n, p);
        match r {
            Some((v, f)) => {
                debug_assert!(v.idx() < MAX_VCS, "VC byte {} is the empty marker", v.0);
                self.ports[i].reg_vc = v.0;
                self.regs[i] = f;
            }
            None => self.ports[i].reg_vc = EMPTY,
        }
    }

    pub fn rr(&self, n: usize, p: usize) -> u32 {
        self.ports[self.np(n, p)].rr as u32
    }

    pub fn set_rr(&mut self, n: usize, p: usize, v: u32) {
        debug_assert!(v <= u16::MAX as u32);
        let i = self.np(n, p);
        self.ports[i].rr = v as u16;
    }

    pub fn out_assigned(&self, n: usize, p: usize) -> u32 {
        self.ports[self.np(n, p)].assigned
    }

    pub fn set_out_assigned(&mut self, n: usize, p: usize, v: u32) {
        let i = self.np(n, p);
        self.ports[i].assigned = v;
    }

    pub fn add_out_assigned(&mut self, n: usize, p: usize, v: u32) {
        let i = self.np(n, p);
        self.ports[i].assigned += v;
    }

    pub fn sub_out_assigned_sat(&mut self, n: usize, p: usize, v: u32) {
        let i = self.np(n, p);
        self.ports[i].assigned = self.ports[i].assigned.saturating_sub(v);
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
        Flit::new(FlitKind::Body, MessageId(msg), seq)
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

    // ------------------------------------------- reference-model property

    use crate::flit::Header;
    use ftr_topo::{NodeId, PortId, SimpleRng};
    use proptest::prelude::*;

    /// The arena's contract as plain collections: one `VecDeque` per lane
    /// and one value per field.
    #[derive(Clone, Debug, PartialEq)]
    struct Model {
        fifos: Vec<VecDeque<Flit>>,
        route: Vec<RouteState>,
        phase: Vec<Option<DecisionPhase>>,
        counted: Vec<bool>,
        misrouted: Vec<bool>,
        owner: Vec<Option<MessageId>>,
        credits: Vec<u32>,
        reg: Vec<Option<(VcId, Flit)>>,
        rr: Vec<u32>,
        assigned: Vec<u32>,
        staging: Vec<VecDeque<Flit>>,
    }

    impl Model {
        fn new(g: Geometry) -> Self {
            let (l, p, c) = (g.nodes * g.lanes, g.nodes * g.degree, g.nodes * g.degree * g.vcs);
            Model {
                fifos: vec![VecDeque::new(); l],
                route: vec![RouteState::Unrouted; l],
                phase: vec![None; l],
                counted: vec![false; l],
                misrouted: vec![false; l],
                owner: vec![None; c],
                credits: vec![g.depth as u32; c],
                reg: vec![None; p],
                rr: vec![0; p],
                assigned: vec![0; p],
                staging: vec![VecDeque::new(); g.nodes],
            }
        }

        fn reset_node(&mut self, g: Geometry, n: usize) {
            for l in n * g.lanes..(n + 1) * g.lanes {
                self.fifos[l].clear();
                self.reset_route(l);
            }
            for c in n * g.degree * g.vcs..(n + 1) * g.degree * g.vcs {
                self.owner[c] = None;
                self.credits[c] = g.depth as u32;
            }
            for p in n * g.degree..(n + 1) * g.degree {
                self.reg[p] = None;
                self.rr[p] = 0;
                self.assigned[p] = 0;
            }
            self.staging[n].clear();
        }

        fn reset_route(&mut self, l: usize) {
            self.route[l] = RouteState::Unrouted;
            self.phase[l] = None;
            self.counted[l] = false;
            self.misrouted[l] = false;
        }
    }

    fn random_flit(rng: &mut SimpleRng) -> Flit {
        let msg = MessageId(rng.below(6) as u64);
        match rng.below(3) {
            0 => {
                let mut h = Header::new(msg, NodeId(rng.below(9) as u32), NodeId(3), 1);
                h.len_flits = rng.below(5) as u32;
                h.hops = rng.below(7) as u32;
                h.misrouted = rng.below(2) == 0;
                h.vnet = rng.below(2) as u8;
                h.phase = rng.below(3) as u8;
                Flit::head(h)
            }
            1 => Flit::new(FlitKind::Body, msg, 1 + rng.below(4) as u32),
            _ => Flit::new(FlitKind::Tail, msg, 1 + rng.below(4) as u32),
        }
    }

    /// Asserts every observable of the arena equals the model.
    fn check(ch: &mut Channels, m: &Model, step: usize) -> Result<(), TestCaseError> {
        let g = ch.geo();
        for n in 0..g.nodes {
            for ip in 0..=g.degree {
                for iv in 0..g.vcs_at(ip) {
                    let l = n * g.lanes + g.lane_of(ip, iv);
                    let got: Vec<Flit> = ch.fifo_iter(n, ip, iv).copied().collect();
                    let want: Vec<Flit> = m.fifos[l].iter().copied().collect();
                    prop_assert_eq!(got, want, "step {} lane ({}, {}, {})", step, n, ip, iv);
                    prop_assert_eq!(ch.fifo_len(n, ip, iv), m.fifos[l].len());
                    prop_assert_eq!(ch.route(n, ip, iv), m.route[l]);
                    prop_assert_eq!(ch.phase_of(n, ip, iv), m.phase[l]);
                    let v = ch.full_mut();
                    prop_assert_eq!(v.fifo_front(n, ip, iv).copied(), m.fifos[l].front().copied());
                    prop_assert_eq!(v.counted(n, ip, iv), m.counted[l]);
                    prop_assert_eq!(v.misrouted(n, ip, iv), m.misrouted[l]);
                }
            }
            for p in 0..g.degree {
                let i = n * g.degree + p;
                prop_assert_eq!(ch.out_reg(n, p), m.reg[i], "step {} reg ({}, {})", step, n, p);
                let v = ch.full_mut();
                prop_assert_eq!(v.reg_busy(n, p), m.reg[i].is_some());
                prop_assert_eq!(v.rr(n, p), m.rr[i]);
                prop_assert_eq!(v.out_assigned(n, p), m.assigned[i]);
                for vc in 0..g.vcs {
                    let c = i * g.vcs + vc;
                    prop_assert_eq!(ch.out_owner(n, p, vc), m.owner[c]);
                    prop_assert_eq!(ch.out_credits(n, p, vc), m.credits[c]);
                    let free = m.owner[c].is_none() && m.credits[c] > 0;
                    prop_assert_eq!(ch.full_mut().out_channel_free(n, p, vc), free);
                }
            }
            prop_assert_eq!(ch.staging(n), &m.staging[n]);
            let lanes = n * g.lanes..(n + 1) * g.lanes;
            let regs = n * g.degree..(n + 1) * g.degree;
            let buffered = m.fifos[lanes.clone()].iter().map(VecDeque::len).sum::<usize>()
                + m.reg[regs.clone()].iter().filter(|r| r.is_some()).count();
            prop_assert_eq!(ch.buffered_flits(n), buffered, "step {} node {}", step, n);
            prop_assert_eq!(ch.has_work(n), buffered > 0 || !m.staging[n].is_empty());
        }
        Ok(())
    }

    /// Runs `ops` random operations against both the arena — each through
    /// the `split_mut` view owning its node — and the model.
    fn arena_matches_model(seed: u64, g: Geometry, ops: usize) -> Result<(), TestCaseError> {
        let mut rng = SimpleRng::new(seed);
        let mut ch = Channels::new(g);
        let mut m = Model::new(g);
        // a random contiguous partition into 1..=nodes shards
        let shards = 1 + rng.below(g.nodes);
        let mut bounds: Vec<usize> = (0..=shards).map(|i| i * g.nodes / shards).collect();
        bounds.dedup();
        for step in 0..ops {
            let n = rng.below(g.nodes);
            let ip = rng.below(g.degree + 1);
            let iv = rng.below(g.vcs_at(ip));
            let l = n * g.lanes + g.lane_of(ip, iv);
            let p = rng.below(g.degree);
            let vc = rng.below(g.vcs);
            let (i, c) = (n * g.degree + p, (n * g.degree + p) * g.vcs + vc);
            let op = rng.below(14);
            if op == 13 {
                ch.reset_node(n);
                m.reset_node(g, n);
                check(&mut ch, &m, step)?;
                continue;
            }
            let s = bounds.partition_point(|&b| b <= n) - 1;
            let mut views = ch.split_mut(&bounds);
            let v = &mut views[s];
            match op {
                // pushes twice as often as pops, so rings fill and wrap
                0 | 1 if m.fifos[l].len() < g.depth => {
                    let f = random_flit(&mut rng);
                    v.fifo_push_back(n, ip, iv, f);
                    m.fifos[l].push_back(f);
                }
                0..=2 => prop_assert_eq!(v.fifo_pop_front(n, ip, iv), m.fifos[l].pop_front()),
                3 => {
                    let (k, r) = (2 + rng.below(2) as u64, rng.below(2) as u64);
                    v.fifo_retain(n, ip, iv, |f| f.msg.0 % k != r);
                    m.fifos[l].retain(|f| f.msg.0 % k != r);
                }
                4 => {
                    // rewrite the front head's header in place
                    let mut f = random_flit(&mut rng);
                    f.bump_hops();
                    if let (Some(a), Some(b)) =
                        (v.fifo_front_mut(n, ip, iv), m.fifos[l].front_mut())
                    {
                        if let Some(h) = f.header() {
                            a.set_header(h);
                            b.set_header(h);
                        }
                    }
                }
                5 => {
                    let r = match rng.below(3) {
                        0 => RouteState::Unrouted,
                        1 => RouteState::Local,
                        _ => RouteState::Out(PortId(p as u8), VcId(vc as u8)),
                    };
                    v.set_route(n, ip, iv, r);
                    m.route[l] = r;
                    let ph = match rng.below(3) {
                        0 => None,
                        1 => Some(DecisionPhase::Ready),
                        _ => Some(DecisionPhase::Waiting(1 + rng.below(5) as u32)),
                    };
                    v.set_phase(n, ip, iv, ph);
                    m.phase[l] = ph;
                }
                6 => {
                    let (a, b) = (rng.below(2) == 0, rng.below(2) == 0);
                    v.set_counted(n, ip, iv, a);
                    v.set_misrouted(n, ip, iv, b);
                    (m.counted[l], m.misrouted[l]) = (a, b);
                }
                7 => {
                    v.reset_route(n, ip, iv);
                    m.reset_route(l);
                }
                8 => {
                    let r = (rng.below(3) != 0)
                        .then(|| (VcId(rng.below(g.vcs) as u8), random_flit(&mut rng)));
                    v.set_out_reg(n, p, r);
                    m.reg[i] = r;
                }
                9 => prop_assert_eq!(v.take_out_reg(n, p), m.reg[i].take()),
                10 => {
                    let o = (rng.below(2) == 0).then(|| MessageId(rng.below(6) as u64));
                    v.set_out_owner(n, p, vc, o);
                    m.owner[c] = o;
                }
                11 => {
                    let k = rng.below(g.depth + 1) as u32;
                    v.set_out_credits(n, p, vc, k);
                    m.credits[c] = k;
                }
                _ => {
                    let r = rng.below((g.degree + 1) * g.vcs) as u32;
                    v.set_rr(n, p, r);
                    m.rr[i] = r;
                    let a = rng.below(4) as u32;
                    if rng.below(2) == 0 {
                        v.add_out_assigned(n, p, a);
                        m.assigned[i] += a;
                    } else {
                        v.sub_out_assigned_sat(n, p, a);
                        m.assigned[i] = m.assigned[i].saturating_sub(a);
                    }
                    let f = random_flit(&mut rng);
                    v.staging_mut(n).push_back(f);
                    m.staging[n].push_back(f);
                    if rng.below(2) == 0 {
                        v.staging_mut(n).pop_front();
                        m.staging[n].pop_front();
                    }
                }
            }
            drop(views);
            check(&mut ch, &m, step)?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn arena_matches_vecdeque_model(
            seed in any::<u64>(),
            nodes in 1usize..5,
            degree in 1usize..5,
            vcs in 1usize..4,
            depth in 1usize..5,
        ) {
            arena_matches_model(seed, Geometry::new(nodes, degree, vcs, depth), 200)?;
        }

        /// Depth 1: every push lands in the only slot.
        #[test]
        fn arena_matches_vecdeque_model_at_depth_1(seed in any::<u64>()) {
            arena_matches_model(seed, Geometry::new(3, 4, 2, 1), 200)?;
        }

        /// `(degree + 1) · vcs = 72` lanes per node: more than one 64-bit
        /// word of slots.
        #[test]
        fn arena_matches_vecdeque_model_beyond_64_slots(seed in any::<u64>()) {
            arena_matches_model(seed, Geometry::new(2, 8, 8, 3), 300)?;
        }
    }
}
