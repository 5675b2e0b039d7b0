//! The cycle-level network engine.
//!
//! Drives the per-node routers under the control of a
//! [`RoutingAlgorithm`]: link traversal, injection, routing decisions with
//! configurable latency, switch allocation (round-robin), ejection,
//! credit-based flow control, control-plane propagation of fault state, and
//! dynamic fault injection with worm-kill semantics (messages ripped by a
//! fault are removed network-wide and counted, standing in for the
//! higher-level recovery protocols the paper's §2.1 mentions).
//!
//! All data-path state lives in the struct-of-arrays `crate::arena`; the
//! step executes as a sequence of node-local *phases* over spatially
//! contiguous shards with a conservative barrier between phases. With one
//! shard the engine is the classic sequential simulator; with N shards the
//! phases run on OS threads and the barriers merge cross-shard effects
//! (flit handoffs, trace events, stats ops, credit returns) in shard order,
//! which reproduces the sequential ascending-node order exactly — results
//! are bit-identical for every thread count. See `DESIGN.md` §14.

#![allow(clippy::needless_range_loop)] // index loops mirror the hardware structure

use crate::arena::{ChanRef, Channels, Geometry, MAX_DEGREE, MAX_DEPTH, MAX_VCS};
use crate::flit::{Flit, FlitKind, Header, MessageId};
use crate::links::LinkMap;
use crate::plan::{FaultAction, FaultPlan};
use crate::router::{DecisionPhase, RouteState};
use crate::routing::{ControlMsg, NodeController, RouterView, RoutingAlgorithm, Verdict};
use crate::stats::{MsgMeta, SimStats};
use ftr_obs::{
    Counter, EventKind, Histogram, MetricsRegistry, RouteOutcome, TraceEvent, TraceSink,
};
use ftr_topo::{FaultSet, NodeId, PortId, Topology, VcId};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Buffer depth per virtual channel (flits).
    pub buffer_depth: u32,
    /// Cycles one rule-interpretation step costs (the §4.3 delay model:
    /// wiring + 2 FCFB + memory access collapses to a per-step latency).
    pub decision_cycles_per_step: u32,
    /// Cycles without flit movement (while messages are in flight) that
    /// trigger the deadlock watchdog.
    pub deadlock_threshold: u64,
    /// Favour misrouted messages in switch allocation (§3: compensate "the
    /// double disadvantage of the longer path and higher loaded links").
    pub prioritize_misrouted: bool,
    /// Worker shards for the sharded step. `1` is the sequential engine;
    /// `0` resolves to [`crate::sweep::worker_count`] at build time.
    /// Results are bit-identical for every value.
    pub threads: usize,
    /// Minimum working-set size (nodes in the cycle's active set) before a
    /// multi-shard step fans out to OS threads; below it the shards run
    /// inline on the calling thread (same results, no spawn overhead).
    /// `0` forces OS threads whenever more than one shard exists.
    pub spawn_threshold: usize,
    /// Period (cycles) of the autonomous control-plane tick: every
    /// `tick_period` cycles each live controller's
    /// [`NodeController::on_tick`] runs (heartbeat probing, suspicion
    /// bookkeeping). `0` disables ticking entirely — the default, which
    /// keeps oracle-notified configurations byte-identical.
    pub tick_period: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            buffer_depth: 4,
            decision_cycles_per_step: 1,
            deadlock_threshold: 2_000,
            prioritize_misrouted: false,
            threads: 1,
            spawn_threshold: 2_048,
            tick_period: 0,
        }
    }
}

/// A pending control-plane delivery.
struct ControlDelivery {
    due: u64,
    to: NodeId,
    from_port: PortId,
    payload: Vec<i64>,
}

/// Reusable per-cycle scratch buffers of the master loop.
///
/// Every phase of [`Network::step`] used to heap-allocate fresh working
/// storage each cycle; keeping the buffers on the network and clearing
/// instead of dropping makes the per-cycle fixed cost allocation-free.
/// Per-shard working storage lives in [`ShardScratch`].
#[derive(Default)]
struct StepScratch {
    /// The working set at step entry (node indices, ascending).
    cur: Vec<u32>,
    /// `cur` plus nodes activated by this cycle's link traversal.
    cur_ext: Vec<u32>,
    /// Messages declared unroutable by this cycle's routing decisions.
    unroutable: HashSet<MessageId>,
    /// Live messages whose flit was caught on a just-dead link.
    dropped: HashSet<MessageId>,
    /// Control deliveries due this cycle.
    due: Vec<ControlDelivery>,
    /// The router snapshot behind every control-plane consult (fault and
    /// repair notifications, ticks, control deliveries), refilled per
    /// consult by the same [`fill_view`] the shards use.
    view: ViewData,
}

/// A flit crossing a shard boundary, parked until the phase barrier.
struct Handoff {
    node: u32,
    port: u8,
    vc: u8,
    flit: Flit,
}

/// A statistics update recorded inside a shard and replayed by the master
/// at the barrier (SimStats is not sharded; all its accumulators commute,
/// and shard-order replay reproduces the sequential update order).
#[cfg_attr(test, derive(Debug, PartialEq))]
enum StatOp {
    /// Decision-step count of a newly counted routing decision.
    Decision(u64),
    /// A head flit reached its destination with this hop count.
    HeadArrival(MessageId, u32),
    /// A tail ejected: the message is delivered at the current cycle.
    Deliver(MessageId),
}

/// Per-shard working storage: everything a shard produces that crosses its
/// node range is buffered here and applied by the master at the barrier,
/// in shard order.
#[derive(Default)]
struct ShardScratch {
    /// In-shard nodes that received their first flit this cycle.
    newly_active: Vec<u32>,
    /// Flits destined for another shard's input FIFOs.
    handoff: Vec<Handoff>,
    /// Messages whose flit was caught on a just-dead link (pre-filter; the
    /// master applies the liveness check).
    dropped: Vec<MessageId>,
    /// Messages declared unroutable by this shard's routing decisions.
    unroutable: Vec<MessageId>,
    /// Credits to return upstream after switch allocation: `(node, port,
    /// vc)` of the freed input slot.
    credit_returns: Vec<(u32, u8, u8)>,
    /// Trace events in shard-local emission order.
    events: Vec<TraceEvent>,
    /// Stats updates in shard-local order.
    ops: Vec<StatOp>,
    /// Per-input-port "moved a flit this cycle" flags (reused per node).
    used: Vec<bool>,
    /// Switch-allocation candidates of the node being arbitrated.
    cands: Vec<Cand>,
    /// Nodes of the working set that still hold a flit after ejection
    /// and switch allocation — the next cycle's active set (ascending).
    busy: Vec<u32>,
    /// Whether this shard moved any flit this cycle.
    moved: bool,
    /// The router snapshot behind every controller consult (and its
    /// wait-for probes), refilled per consult.
    view: ViewData,
}

/// Immutable per-step context shared by every shard.
struct StepCtx<'a> {
    links: &'a LinkMap,
    cfg: SimConfig,
    vcs: usize,
    degree: usize,
    cycle: u64,
    sink_on: bool,
}

/// Which phase bundle a [`run_shard`] call executes.
#[derive(Clone, Copy)]
enum PhaseKind {
    /// Link traversal: output registers -> downstream input FIFOs.
    Link,
    /// Injection (staging -> injection FIFO) then routing decisions.
    InjectRoute,
    /// Ejection then switch allocation.
    EjectSwitch,
}

/// One shard's slice of the world for a phase run.
struct ShardTask<'a> {
    /// Owned node range `lo..hi`.
    lo: usize,
    hi: usize,
    ch: ChanRef<'a>,
    ctrls: &'a mut [Box<dyn NodeController>],
    scr: &'a mut ShardScratch,
    /// Working set restricted to this shard (global ids, ascending).
    cur: &'a [u32],
    /// Extended working set restricted to this shard.
    cur_ext: &'a [u32],
}

/// Why [`Network::send`] rejected an injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendError {
    /// The source node is faulty.
    FaultySource,
    /// The destination node is faulty (assumption iii: no messages to
    /// faulty destinations).
    FaultyDestination,
    /// `src == dst` — self-messages never enter the network.
    SelfMessage,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::FaultySource => write!(f, "source node is faulty"),
            SendError::FaultyDestination => write!(f, "destination node is faulty"),
            SendError::SelfMessage => write!(f, "self-messages never enter the network"),
        }
    }
}

impl std::error::Error for SendError {}

/// Source-retransmission policy: killed or unroutable messages are
/// re-injected at their source after a backoff, up to an attempt budget —
/// the end-to-end recovery protocol §2.1 assumes above the router.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total injection attempts allowed per message (1 = no retries).
    pub max_attempts: u32,
    /// Cycles between a worm being ripped and its re-injection.
    pub backoff_cycles: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, backoff_cycles: 32 }
    }
}

/// A killed message waiting out its retry backoff.
struct RetryEntry {
    due: u64,
    id: MessageId,
    /// Final-termination cause if the retry is abandoned.
    unroutable: bool,
}

/// Validation failures of [`NetworkBuilder::build`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// `buffer_depth` must be at least one flit.
    ZeroBufferDepth,
    /// The deadlock watchdog threshold must be non-zero.
    ZeroDeadlockThreshold,
    /// The routing algorithm must request at least one virtual channel.
    NoVirtualChannels,
    /// The topology has no nodes.
    EmptyTopology,
    /// `buffer_depth` exceeds the largest depth a FIFO ring index
    /// addresses (65,535 flits).
    BufferDepthTooLarge(u32),
    /// The routing algorithm requests more virtual channels than VC ids
    /// can name (255; the VC byte 255 marks an empty output register).
    TooManyVirtualChannels(usize),
    /// The topology has more ports per node than port ids can name (256).
    DegreeTooLarge(usize),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::ZeroBufferDepth => write!(f, "buffer_depth must be >= 1 flit"),
            BuildError::ZeroDeadlockThreshold => write!(f, "deadlock_threshold must be >= 1"),
            BuildError::NoVirtualChannels => {
                write!(f, "routing algorithm must use >= 1 virtual channel")
            }
            BuildError::EmptyTopology => write!(f, "topology has no nodes"),
            BuildError::BufferDepthTooLarge(d) => {
                write!(f, "buffer_depth {d} exceeds {MAX_DEPTH} flits")
            }
            BuildError::TooManyVirtualChannels(v) => {
                write!(f, "routing algorithm uses {v} virtual channels, at most {MAX_VCS} fit")
            }
            BuildError::DegreeTooLarge(d) => {
                write!(f, "topology degree {d} exceeds {MAX_DEGREE} ports")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Pre-resolved metric handles — looked up once at build so the hot path
/// never touches the registry's name maps.
struct SimMetrics {
    registry: Arc<MetricsRegistry>,
    injected: Counter,
    delivered: Counter,
    killed: Counter,
    unroutable: Counter,
    retried: Counter,
    abandoned: Counter,
    rejected_sends: Counter,
    control_msgs: Counter,
    control_dropped: Counter,
    latency: Histogram,
    hops: Histogram,
    excess_hops: Histogram,
    decision_steps: Histogram,
    buffer_occupancy: Histogram,
}

impl SimMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> Self {
        SimMetrics {
            injected: registry.counter("sim.injected"),
            delivered: registry.counter("sim.delivered"),
            killed: registry.counter("sim.killed"),
            unroutable: registry.counter("sim.unroutable"),
            retried: registry.counter("sim.retried"),
            abandoned: registry.counter("sim.abandoned"),
            rejected_sends: registry.counter("sim.rejected_sends"),
            control_msgs: registry.counter("sim.control_msgs"),
            control_dropped: registry.counter("sim.control_dropped"),
            latency: registry.histogram("sim.latency"),
            hops: registry.histogram("sim.hops"),
            excess_hops: registry.histogram("sim.excess_hops"),
            decision_steps: registry.histogram("sim.decision_steps"),
            buffer_occupancy: registry.histogram("sim.buffer_occupancy"),
            registry,
        }
    }
}

/// How often (in cycles) per-node buffer occupancy is sampled into the
/// metrics registry when one is attached.
const OCCUPANCY_SAMPLE_PERIOD: u64 = 64;

/// Fluent, validated construction of a [`Network`] — the instrumentation
/// seam of the observability layer.
///
/// ```
/// use ftr_sim::{NetworkBuilder, routing::*};
/// # use ftr_sim::flit::Header;
/// use ftr_topo::{Mesh2D, NodeId, PortId, Topology, VcId};
/// use std::sync::Arc;
/// # struct Stay;
/// # struct StayCtl;
/// # impl RoutingAlgorithm for Stay {
/// #     fn name(&self) -> String { "stay".into() }
/// #     fn num_vcs(&self) -> usize { 1 }
/// #     fn controller(&self, _t: &dyn Topology, _n: NodeId) -> Box<dyn NodeController> {
/// #         Box::new(StayCtl)
/// #     }
/// # }
/// # impl NodeController for StayCtl {
/// #     fn route(&mut self, _v: &RouterView<'_>, _h: &mut Header,
/// #              _ip: Option<PortId>, _iv: VcId) -> Decision {
/// #         Decision::new(Verdict::Wait, 1)
/// #     }
/// # }
/// let sink = Arc::new(ftr_obs::RingSink::new(1024));
/// let net = NetworkBuilder::new(Arc::new(Mesh2D::new(4, 4)))
///     .buffer_depth(8)
///     .threads(2) // sharded step; results identical to threads(1)
///     .trace(sink.clone())
///     .build(&Stay)
///     .expect("valid configuration");
/// assert_eq!(net.cycle(), 0);
/// assert_eq!(net.threads(), 2);
/// ```
pub struct NetworkBuilder {
    topo: Arc<dyn Topology>,
    cfg: SimConfig,
    sink: Option<Arc<dyn TraceSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
    retry: Option<RetryPolicy>,
    plan: Option<FaultPlan>,
}

impl NetworkBuilder {
    /// Starts a builder over `topo` with the default [`SimConfig`].
    pub fn new(topo: Arc<dyn Topology>) -> Self {
        NetworkBuilder {
            topo,
            cfg: SimConfig::default(),
            sink: None,
            metrics: None,
            retry: None,
            plan: None,
        }
    }

    /// Replaces the whole engine configuration at once.
    pub fn config(mut self, cfg: SimConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Buffer depth per virtual channel, in flits.
    pub fn buffer_depth(mut self, flits: u32) -> Self {
        self.cfg.buffer_depth = flits;
        self
    }

    /// Cycles one rule-interpretation step costs (§4.3 delay model).
    pub fn decision_cycles_per_step(mut self, cycles: u32) -> Self {
        self.cfg.decision_cycles_per_step = cycles;
        self
    }

    /// Idle cycles (with messages in flight) before the deadlock watchdog
    /// fires.
    pub fn deadlock_threshold(mut self, cycles: u64) -> Self {
        self.cfg.deadlock_threshold = cycles;
        self
    }

    /// Favour fault-misrouted messages in switch allocation (§3).
    pub fn prioritize_misrouted(mut self, on: bool) -> Self {
        self.cfg.prioritize_misrouted = on;
        self
    }

    /// Period (cycles) of the autonomous control-plane tick; `0`
    /// (default) disables [`NodeController::on_tick`] entirely.
    pub fn tick_period(mut self, cycles: u64) -> Self {
        self.cfg.tick_period = cycles;
        self
    }

    /// Worker shards for the sharded step (`1` = sequential, `0` = auto
    /// from [`crate::sweep::worker_count`]). Bit-identical results for
    /// every value; capped at the node count.
    pub fn threads(mut self, n: usize) -> Self {
        self.cfg.threads = n;
        self
    }

    /// Working-set size below which a multi-shard step runs its shards
    /// inline instead of on OS threads (`0` forces OS threads).
    pub fn spawn_threshold(mut self, nodes: usize) -> Self {
        self.cfg.spawn_threshold = nodes;
        self
    }

    /// Attaches a trace sink. With no sink, the network never constructs
    /// a [`TraceEvent`].
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches a metrics registry; the network records its counters and
    /// histograms under `sim.*` names.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Enables source retransmission of killed/unroutable messages.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Attaches a scripted fault plan the network executes cycle by cycle.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Validates the configuration and builds the network running `algo`
    /// on every node.
    pub fn build(self, algo: &dyn RoutingAlgorithm) -> Result<Network, BuildError> {
        if self.cfg.buffer_depth == 0 {
            return Err(BuildError::ZeroBufferDepth);
        }
        if self.cfg.buffer_depth as usize > MAX_DEPTH {
            return Err(BuildError::BufferDepthTooLarge(self.cfg.buffer_depth));
        }
        if self.cfg.deadlock_threshold == 0 {
            return Err(BuildError::ZeroDeadlockThreshold);
        }
        let vcs = algo.num_vcs();
        if vcs == 0 {
            return Err(BuildError::NoVirtualChannels);
        }
        if vcs > MAX_VCS {
            return Err(BuildError::TooManyVirtualChannels(vcs));
        }
        let n = self.topo.num_nodes();
        if n == 0 {
            return Err(BuildError::EmptyTopology);
        }
        let degree = self.topo.degree();
        if degree > MAX_DEGREE {
            return Err(BuildError::DegreeTooLarge(degree));
        }
        let cfg = self.cfg;
        let threads = if cfg.threads == 0 { crate::sweep::worker_count() } else { cfg.threads };
        let shards = threads.min(n).max(1);
        // contiguous equal-size node ranges: the spatial partition
        let shard_bounds: Vec<usize> = (0..=shards).map(|i| i * n / shards).collect();
        let chans = Channels::new(Geometry::new(n, degree, vcs, cfg.buffer_depth as usize));
        let links = LinkMap::new(self.topo.as_ref());
        let ctrls = (0..n).map(|i| algo.controller(self.topo.as_ref(), NodeId(i as u32))).collect();
        let stats = SimStats::for_nodes(n);
        Ok(Network {
            topo: self.topo,
            cfg,
            vcs,
            faults: FaultSet::new(),
            links,
            chans,
            ctrls,
            control: VecDeque::new(),
            cycle: 0,
            next_msg: 0,
            last_move: 0,
            measuring: false,
            stats,
            sink: self.sink,
            metrics: self.metrics.map(SimMetrics::new),
            retry: self.retry,
            retries: VecDeque::new(),
            plan: self.plan,
            active_mask: vec![false; n],
            active_list: Vec::new(),
            active_sorted: 0,
            dense_reference: false,
            last_moved: false,
            scratch: StepScratch::default(),
            spawn_threshold: cfg.spawn_threshold,
            shard_bounds,
            shard_scratch: (0..shards).map(|_| ShardScratch::default()).collect(),
        })
    }
}

/// The simulated network.
pub struct Network {
    topo: Arc<dyn Topology>,
    cfg: SimConfig,
    vcs: usize,
    faults: FaultSet,
    /// Wiring and usability of every port, kept in step with `faults` at
    /// each fault and repair event; the step reads only this.
    links: LinkMap,
    /// All per-node data-path state (FIFOs, routes, credits, registers).
    chans: Channels,
    ctrls: Vec<Box<dyn NodeController>>,
    control: VecDeque<ControlDelivery>,
    cycle: u64,
    next_msg: u64,
    last_move: u64,
    measuring: bool,
    /// Aggregated statistics.
    pub stats: SimStats,
    sink: Option<Arc<dyn TraceSink>>,
    metrics: Option<SimMetrics>,
    retry: Option<RetryPolicy>,
    retries: VecDeque<RetryEntry>,
    plan: Option<FaultPlan>,
    /// Active-set scheduling: `active_mask[n]` ⟺ node `n` is in
    /// `active_list` ⟺ (between steps) node `n` has flit-bearing work.
    /// Every flit source (injection, link traversal, retry re-injection)
    /// marks its node; `step` iterates only the marked set.
    active_mask: Vec<bool>,
    active_list: Vec<u32>,
    /// Length of `active_list`'s ascending prefix: the survivors of the
    /// last prune. Everything after it was appended by `mark_active`
    /// since, in activation order.
    active_sorted: usize,
    /// Retained dense-scan reference path: iterate every node in every
    /// phase, exactly as the pre-active-set engine did. Differential tests
    /// run it in lockstep against the active-set path.
    dense_reference: bool,
    /// Whether the most recent `step` moved any flit.
    last_moved: bool,
    scratch: StepScratch,
    spawn_threshold: usize,
    /// Shard partition: shard `i` owns nodes
    /// `shard_bounds[i]..shard_bounds[i + 1]`.
    shard_bounds: Vec<usize>,
    shard_scratch: Vec<ShardScratch>,
}

impl Network {
    /// Starts a [`NetworkBuilder`] over `topo`.
    pub fn builder(topo: Arc<dyn Topology>) -> NetworkBuilder {
        NetworkBuilder::new(topo)
    }

    /// Emits a trace event; the closure only runs when a sink is attached
    /// (zero-cost-when-disabled contract).
    #[inline]
    fn emit(&self, kind: impl FnOnce() -> EventKind) {
        if let Some(sink) = &self.sink {
            sink.record(&TraceEvent { cycle: self.cycle, kind: kind() });
        }
    }

    /// The attached trace sink, if any.
    pub fn trace_sink(&self) -> Option<&Arc<dyn TraceSink>> {
        self.sink.as_ref()
    }

    /// The attached metrics registry, if any.
    pub fn metrics_registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref().map(|m| &m.registry)
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of shards the step partitions the network into (1 = the
    /// sequential engine).
    pub fn threads(&self) -> usize {
        self.shard_bounds.len() - 1
    }

    /// Switches `step` onto the dense-scan reference path (every phase
    /// iterates every node, as the pre-active-set engine did). The two
    /// paths are observably identical — same `SimStats`, same trace-event
    /// stream, same per-cycle movement — which the lockstep differential
    /// tests enforce; the dense path exists as that test's oracle and as a
    /// debugging fallback. Switching is safe at any cycle boundary.
    pub fn set_dense_reference(&mut self, on: bool) {
        self.dense_reference = on;
    }

    /// Whether the most recent [`Network::step`] moved any flit (link
    /// traversal, injection, ejection or switch). Differential tests
    /// compare this per cycle across step paths.
    pub fn last_step_moved(&self) -> bool {
        self.last_moved
    }

    /// Nodes currently in the active set (ascending order; diagnostics).
    pub fn active_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<u32> = self.active_list.clone();
        v.sort_unstable();
        v.into_iter().map(NodeId).collect()
    }

    /// Whether node `n` holds any flit-bearing work (diagnostics).
    pub fn node_has_work(&self, n: NodeId) -> bool {
        self.chans.has_work(n.idx())
    }

    /// Whether the output link register of `(n, p)` holds an in-flight
    /// flit (diagnostics).
    pub fn output_register_occupied(&self, n: NodeId, p: PortId) -> bool {
        self.chans.out_reg(n.idx(), p.idx()).is_some()
    }

    /// Marks a node as having flit-bearing work. Idempotent; every path
    /// that hands a node a flit (injection, retry re-injection, link
    /// traversal) must call this or the active-set scheduler would strand
    /// the flit.
    #[inline]
    fn mark_active(&mut self, ni: usize) {
        if !self.active_mask[ni] {
            self.active_mask[ni] = true;
            self.active_list.push(ni as u32);
        }
    }

    /// The topology.
    pub fn topo(&self) -> &dyn Topology {
        self.topo.as_ref()
    }

    /// Ground-truth fault set.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Marks subsequently injected messages as part of the measurement
    /// window (and records the window length).
    pub fn set_measuring(&mut self, on: bool) {
        self.measuring = on;
    }

    /// Adds to the measured-cycles count used for throughput.
    pub fn add_measured_cycles(&mut self, c: u64) {
        self.stats.measured_cycles += c;
    }

    /// Injects a message at `src` for `dst`.
    ///
    /// An injection involving a faulty endpoint — a scheduled send racing a
    /// dynamic fault — is rejected with a [`SendError`] and counted in
    /// [`SimStats::rejected_sends`] instead of aborting the run (assumption
    /// iii: no messages to faulty nodes). Self-messages are a programming
    /// error and additionally panic in debug builds.
    pub fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        len_flits: u32,
    ) -> Result<MessageId, SendError> {
        if src == dst {
            debug_assert!(src != dst, "self-messages never enter the network");
            self.stats.rejected_sends += 1;
            return Err(SendError::SelfMessage);
        }
        let err = if self.links.node_faulty(src) {
            Some(SendError::FaultySource)
        } else if self.links.node_faulty(dst) {
            Some(SendError::FaultyDestination)
        } else {
            None
        };
        if let Some(e) = err {
            self.stats.rejected_sends += 1;
            self.emit(|| EventKind::SendRejected { src, dst });
            if let Some(m) = &self.metrics {
                m.rejected_sends.inc();
            }
            return Err(e);
        }
        let id = MessageId(self.next_msg);
        self.next_msg += 1;
        let header = Header::new(id, src, dst, len_flits);
        self.stats.on_inject(
            id,
            MsgMeta {
                inject_cycle: self.cycle,
                src,
                dst,
                len_flits: len_flits.max(1),
                measured: self.measuring,
                hops: 0,
                min_dist: self.topo.min_distance(src, dst),
                attempts: 1,
            },
        );
        self.emit(|| EventKind::Inject { msg: id.0, src, dst, len_flits });
        if let Some(m) = &self.metrics {
            m.injected.inc();
        }
        self.chans.staging_mut(src.idx()).extend(Flit::sequence(header));
        self.mark_active(src.idx());
        Ok(id)
    }

    /// Attaches (or replaces) a scripted fault plan mid-run; actions whose
    /// cycle already passed fire on the next step.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
    }

    /// Enables, replaces or (with `None`) disables source retransmission.
    /// Messages already waiting out a backoff keep their schedule.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.retry = policy;
    }

    /// The active retry policy, if any.
    pub fn retry_policy(&self) -> Option<RetryPolicy> {
        self.retry
    }

    /// Messages in flight (injected, not yet terminated).
    pub fn in_flight(&self) -> usize {
        self.stats.in_flight()
    }

    // ------------------------------------------------------------ faults

    /// Fails the link leaving `n` through `p` at the current cycle: rips
    /// the worms spanning it, notifies both endpoint controllers, and
    /// starts control-plane propagation.
    pub fn inject_link_fault(&mut self, n: NodeId, p: PortId) {
        if let Some((m, q)) = self.link_fault_physical(n, p) {
            self.notify_fault(n, p);
            self.notify_fault(m, q);
        }
    }

    /// Fails the link leaving `n` through `p` *silently*: identical
    /// physical effect (worms ripped, link unusable, trace event) but no
    /// `on_fault` notification — no-oracle mode, where the endpoints must
    /// detect the loss through the heartbeat layer.
    pub fn inject_link_fault_silent(&mut self, n: NodeId, p: PortId) {
        self.link_fault_physical(n, p);
    }

    /// Physical half of a link fault; returns the far endpoint `(m, q)`
    /// when the link exists.
    fn link_fault_physical(&mut self, n: NodeId, p: PortId) -> Option<(NodeId, PortId)> {
        let (m, q) = self.links.far(n, p)?;
        self.faults.fail_link(self.topo.as_ref(), n, p);
        self.links.refresh_around(self.topo.as_ref(), &self.faults, n);
        self.emit(|| EventKind::LinkFault { node: n, port: p });

        let mut dead: HashSet<MessageId> = HashSet::new();
        for (node, port) in [(n, p), (m, q)] {
            if let Some((_, f)) = self.chans.out_reg(node.idx(), port.idx()) {
                dead.insert(f.msg);
            }
            // messages with flits in the FIFO fed by the dead link are
            // still streaming over it unless their tail already crossed
            for v in 0..self.vcs {
                let flits: Vec<Flit> =
                    self.chans.fifo_iter(node.idx(), port.idx(), v).copied().collect();
                for f in &flits {
                    let crossed = flits.iter().any(|g| g.msg == f.msg && g.ends_message());
                    if !crossed {
                        dead.insert(f.msg);
                    }
                }
            }
            // worms routed OUT across the dead link: the output-channel
            // owner tracks the holding message even when its flits are all
            // in flight elsewhere
            for v in 0..self.vcs {
                if let Some(owner) = self.chans.out_owner(node.idx(), port.idx(), v) {
                    dead.insert(owner);
                }
            }
        }
        self.kill_messages(&dead, false);
        Some((m, q))
    }

    /// Fails node `n`: rips every worm touching it, kills in-flight
    /// messages destined to it, and notifies all alive neighbours.
    pub fn inject_node_fault(&mut self, n: NodeId) {
        self.node_fault_physical(n);
        for p in self.topo.ports() {
            if let Some((nb, q)) = self.links.far(n, p) {
                self.notify_fault(nb, q);
            }
        }
    }

    /// Fails node `n` *silently*: identical physical effect but no
    /// neighbour `on_fault` notification — a Byzantine-silent node that
    /// simply stops participating (no-oracle mode).
    pub fn inject_node_fault_silent(&mut self, n: NodeId) {
        self.node_fault_physical(n);
    }

    /// Physical half of a node fault.
    fn node_fault_physical(&mut self, n: NodeId) {
        self.faults.fail_node(n);
        self.links.refresh_around(self.topo.as_ref(), &self.faults, n);
        self.emit(|| EventKind::NodeFault { node: n });
        let geo = self.chans.geo();
        let mut dead: HashSet<MessageId> = HashSet::new();
        // everything buffered in the dead node
        for ip in 0..=geo.degree {
            for iv in 0..geo.vcs_at(ip) {
                for f in self.chans.fifo_iter(n.idx(), ip, iv) {
                    dead.insert(f.msg);
                }
            }
        }
        for p in 0..geo.degree {
            if let Some((_, f)) = self.chans.out_reg(n.idx(), p) {
                dead.insert(f.msg);
            }
        }
        for f in self.chans.staging(n.idx()) {
            dead.insert(f.msg);
        }
        // worms at neighbours routed into the dead node (tracked by the
        // output-channel owners), flits mid-flight towards it, and messages
        // destined to it anywhere in the network
        for node in self.topo.nodes() {
            for p in 0..geo.degree {
                if self.links.far(node, PortId(p as u8)).is_some_and(|(m, _)| m == n) {
                    for v in 0..geo.vcs {
                        if let Some(owner) = self.chans.out_owner(node.idx(), p, v) {
                            dead.insert(owner);
                        }
                    }
                    if let Some((_, f)) = self.chans.out_reg(node.idx(), p) {
                        dead.insert(f.msg);
                    }
                }
            }
            for ip in 0..=geo.degree {
                for iv in 0..geo.vcs_at(ip) {
                    for f in self.chans.fifo_iter(node.idx(), ip, iv) {
                        if let Some(h) = f.header() {
                            if h.dst == n {
                                dead.insert(f.msg);
                            }
                        }
                    }
                }
            }
            for p in 0..geo.degree {
                if let Some((_, f)) = self.chans.out_reg(node.idx(), p) {
                    if let Some(h) = f.header() {
                        if h.dst == n {
                            dead.insert(f.msg);
                        }
                    }
                }
            }
            for f in self.chans.staging(node.idx()) {
                if let Some(h) = f.header() {
                    if h.dst == n {
                        dead.insert(f.msg);
                    }
                }
            }
        }
        self.kill_messages(&dead, false);
    }

    /// Repairs the link leaving `n` through `p`: re-arms it in the fault
    /// set, emits a [`EventKind::LinkRepair`] and — when the link is
    /// actually usable again (both endpoints alive) — notifies both
    /// endpoint controllers through [`NodeController::on_repair`] so they
    /// can un-learn their monotone fault knowledge. No-op for unconnected
    /// ports and healthy links.
    pub fn repair_link(&mut self, n: NodeId, p: PortId) {
        if let Some((m, q)) = self.link_repair_physical(n, p) {
            self.notify_repair(n, p);
            self.notify_repair(m, q);
        }
    }

    /// Repairs the link leaving `n` through `p` *silently*: the link
    /// carries traffic again but no `on_repair` fires — controllers
    /// re-learn through resumed liveness probes (no-oracle mode).
    pub fn repair_link_silent(&mut self, n: NodeId, p: PortId) {
        self.link_repair_physical(n, p);
    }

    /// Physical half of a link repair; returns the far endpoint `(m, q)`
    /// when the repaired link is usable again (both endpoints alive).
    fn link_repair_physical(&mut self, n: NodeId, p: PortId) -> Option<(NodeId, PortId)> {
        let far = self.links.far(n, p)?;
        if !self.faults.link_faulty(self.topo.as_ref(), n, p) {
            return None;
        }
        let l = self.topo.link(n, p)?;
        self.faults.repair_link(l);
        self.links.refresh_around(self.topo.as_ref(), &self.faults, n);
        self.emit(|| EventKind::LinkRepair { node: n, port: p });
        self.links.usable(n, p).then_some(far)
    }

    /// Repairs node `n`: re-arms it with a fresh (rebooted) router and
    /// notifies its controller and every alive neighbour on each incident
    /// healthy link. The repaired node's controller keeps its accumulated
    /// state — algorithms reset it in [`NodeController::on_repair`].
    pub fn repair_node(&mut self, n: NodeId) {
        if !self.node_repair_physical(n) {
            return;
        }
        for p in self.topo.ports() {
            if !self.links.usable(n, p) {
                continue;
            }
            let (nb, q) = self.links.far(n, p).expect("usable ports are wired");
            self.notify_repair(n, p);
            self.notify_repair(nb, q);
        }
    }

    /// Repairs node `n` *silently*: hardware comes back empty but no
    /// `on_repair` notifications fire anywhere (no-oracle mode).
    pub fn repair_node_silent(&mut self, n: NodeId) {
        self.node_repair_physical(n);
    }

    /// Physical half of a node repair; true if the node was faulty.
    fn node_repair_physical(&mut self, n: NodeId) -> bool {
        if !self.links.node_faulty(n) {
            return false;
        }
        self.faults.repair_node(n);
        self.links.refresh_around(self.topo.as_ref(), &self.faults, n);
        self.emit(|| EventKind::NodeRepair { node: n });
        // the router hardware comes back empty: fresh buffers, credits and
        // allocation state (everything it held was killed at fault time)
        self.chans.reset_node(n.idx());
        self.recompute_credits_and_loads();
        true
    }

    fn notify_repair(&mut self, node: NodeId, port: PortId) {
        if self.links.node_faulty(node) {
            return;
        }
        self.fill_master_view(node);
        let view = self.scratch.view.view(node, self.cycle);
        let msgs = self.ctrls[node.idx()].on_repair(&view, port);
        self.flush_controller_events(node);
        self.enqueue_control(node, msgs);
    }

    /// Applies a whole static fault set (links then nodes), triggering the
    /// usual controller notifications and control-plane propagation.
    pub fn apply_fault_set(&mut self, fs: &FaultSet) {
        for l in fs.faulty_links().collect::<Vec<_>>() {
            self.inject_link_fault(l.node, l.port);
        }
        for n in fs.faulty_nodes().collect::<Vec<_>>() {
            self.inject_node_fault(n);
        }
    }

    /// Queries a controller's full routing relation under an idealised
    /// all-free view (used by deadlock and conditions analyses).
    pub fn query_relation(
        &mut self,
        n: NodeId,
        header: &Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        let degree = self.topo.degree();
        let mut out_free = vec![vec![true; self.vcs]; degree];
        let mut link_alive = vec![false; degree];
        for p in 0..degree {
            let alive = self.links.usable(n, PortId(p as u8));
            link_alive[p] = alive;
            if !alive {
                out_free[p] = vec![false; self.vcs];
            }
        }
        let out_load = vec![0u32; degree];
        let view = RouterView {
            node: n,
            cycle: self.cycle,
            out_free: &out_free,
            out_load: &out_load,
            link_alive: &link_alive,
        };
        self.ctrls[n.idx()].relation(&view, header, in_port, in_vc)
    }

    fn notify_fault(&mut self, node: NodeId, port: PortId) {
        if self.links.node_faulty(node) {
            return;
        }
        self.fill_master_view(node);
        let view = self.scratch.view.view(node, self.cycle);
        let msgs = self.ctrls[node.idx()].on_fault(&view, port);
        self.flush_controller_events(node);
        self.enqueue_control(node, msgs);
    }

    /// Records trace events a controller produced inside a control-plane
    /// hook (detector heartbeats/suspicions/alarms), stamped with the
    /// current cycle. Skipped entirely without a sink — the default
    /// [`NodeController::drain_events`] allocates nothing either way.
    fn flush_controller_events(&mut self, n: NodeId) {
        if self.sink.is_none() {
            return;
        }
        for kind in self.ctrls[n.idx()].drain_events() {
            self.emit(|| kind);
        }
    }

    /// Counts (and traces) a control-plane message discarded because the
    /// link through `port` at `node` was unusable — at send time or while
    /// the words were on the wire.
    fn drop_control(&mut self, node: NodeId, port: PortId) {
        self.stats.control_dropped += 1;
        self.emit(|| EventKind::ControlDrop { node, port });
        if let Some(m) = &self.metrics {
            m.control_dropped.inc();
        }
    }

    fn enqueue_control(&mut self, from: NodeId, msgs: Vec<ControlMsg>) {
        for msg in msgs {
            if !self.links.usable(from, msg.port) {
                // control messages need healthy links too; account for the
                // loss instead of discarding silently
                self.drop_control(from, msg.port);
                continue;
            }
            let (to, from_port) = self.links.far(from, msg.port).expect("usable link");
            self.stats.control_msgs += 1;
            self.emit(|| EventKind::ControlSend { from, to });
            if let Some(m) = &self.metrics {
                m.control_msgs.inc();
            }
            self.control.push_back(ControlDelivery {
                due: self.cycle + 1,
                to,
                from_port,
                payload: msg.payload,
            });
        }
    }

    /// Runs only the control plane until it goes quiet; returns the number
    /// of cycles it took, or `None` if `budget` was exhausted (E10
    /// settling-time experiment).
    pub fn settle_control(&mut self, budget: u64) -> Option<u64> {
        let start = self.cycle;
        while !self.control.is_empty() {
            if self.cycle - start >= budget {
                return None;
            }
            self.step();
        }
        let took = self.cycle - start;
        self.emit(|| EventKind::ControlSettled { cycles: took });
        Some(took)
    }

    /// Kills a set of messages network-wide (ripped worms / unroutable).
    fn kill_messages(&mut self, ids: &HashSet<MessageId>, unroutable: bool) {
        if ids.is_empty() {
            return;
        }
        let geo = self.chans.geo();
        {
            let mut ch = self.chans.full_mut();
            for n in 0..geo.nodes {
                ch.staging_mut(n).retain(|f| !ids.contains(&f.msg));
                for ip in 0..=geo.degree {
                    for iv in 0..geo.vcs_at(ip) {
                        // a route whose flits are all in flight is
                        // identified through the output-channel owner;
                        // otherwise through the FIFO front
                        let stale = match ch.route(n, ip, iv) {
                            RouteState::Out(p, v) => {
                                ch.out_owner(n, p.idx(), v.idx()).is_some_and(|m| ids.contains(&m))
                            }
                            _ => false,
                        };
                        let front_dead =
                            ch.fifo_front(n, ip, iv).is_some_and(|f| ids.contains(&f.msg));
                        ch.fifo_retain(n, ip, iv, |f| !ids.contains(&f.msg));
                        if front_dead || stale {
                            ch.reset_route(n, ip, iv);
                        }
                    }
                }
                for p in 0..geo.degree {
                    for v in 0..geo.vcs {
                        if ch.out_owner(n, p, v).is_some_and(|m| ids.contains(&m)) {
                            ch.set_out_owner(n, p, v, None);
                        }
                    }
                    if ch.out_reg(n, p).is_some_and(|(_, f)| ids.contains(&f.msg)) {
                        ch.set_out_reg(n, p, None);
                    }
                }
            }
        }
        // id order, not HashSet order: trace events and retry scheduling
        // must not depend on per-instance hasher state (lockstep
        // differential tests compare event streams across two networks)
        let mut ordered: Vec<MessageId> = ids.iter().copied().collect();
        ordered.sort_unstable();
        for id in ordered {
            // retry policy: the ripped worm stays logically in flight (same
            // id, same first-attempt inject cycle) and re-enters at its
            // source after the backoff, as long as attempts remain
            let retryable = match (&self.retry, self.stats.meta(id)) {
                (Some(rp), Some(meta)) => meta.attempts < rp.max_attempts,
                _ => false,
            };
            if retryable {
                let backoff = self.retry.expect("checked").backoff_cycles.max(1);
                self.retries.push_back(RetryEntry { due: self.cycle + backoff, id, unroutable });
            }
            if unroutable {
                self.emit(|| EventKind::Unroutable { msg: id.0 });
            } else {
                self.emit(|| EventKind::Kill { msg: id.0 });
            }
            if retryable {
                continue;
            }
            if unroutable {
                self.stats.on_unroutable(id);
            } else {
                self.stats.on_kill(id);
            }
            if self.retry.is_some() {
                self.stats.abandoned_msgs += 1;
                if let Some(m) = &self.metrics {
                    m.abandoned.inc();
                }
            }
            if let Some(m) = &self.metrics {
                if unroutable {
                    m.unroutable.inc();
                } else {
                    m.killed.inc();
                }
            }
        }
        self.recompute_credits_and_loads();
    }

    /// Executes fault-plan actions due at the current cycle.
    fn run_plan(&mut self) {
        let Some(plan) = &mut self.plan else { return };
        let due: Vec<_> = plan.pop_due(self.cycle).to_vec();
        for pa in due {
            match pa.action {
                FaultAction::FailLink(n, p) => self.inject_link_fault(n, p),
                FaultAction::RepairLink(n, p) => self.repair_link(n, p),
                FaultAction::FailNode(n) => self.inject_node_fault(n),
                FaultAction::RepairNode(n) => self.repair_node(n),
                FaultAction::FailLinkSilent(n, p) => self.inject_link_fault_silent(n, p),
                FaultAction::RepairLinkSilent(n, p) => self.repair_link_silent(n, p),
                FaultAction::FailNodeSilent(n) => self.inject_node_fault_silent(n),
                FaultAction::RepairNodeSilent(n) => self.repair_node_silent(n),
            }
        }
    }

    /// Re-injects messages whose retry backoff elapsed; abandons them when
    /// an endpoint is (still) faulty — end-to-end retransmission cannot
    /// proceed without both endpoints, and waiting indefinitely would stall
    /// the drain loop.
    fn run_retries(&mut self) {
        while self.retries.front().is_some_and(|r| r.due <= self.cycle) {
            let r = self.retries.pop_front().expect("checked");
            let Some(meta) = self.stats.meta(r.id).copied() else { continue };
            if self.links.node_faulty(meta.src) || self.links.node_faulty(meta.dst) {
                if r.unroutable {
                    self.stats.on_unroutable(r.id);
                } else {
                    self.stats.on_kill(r.id);
                }
                self.stats.abandoned_msgs += 1;
                if let Some(m) = &self.metrics {
                    m.abandoned.inc();
                    if r.unroutable {
                        m.unroutable.inc();
                    } else {
                        m.killed.inc();
                    }
                }
                continue;
            }
            self.stats.on_retry(r.id);
            let attempt = meta.attempts + 1;
            self.emit(|| EventKind::Retry { msg: r.id.0, attempt });
            if let Some(m) = &self.metrics {
                m.retried.inc();
            }
            let header = Header::new(r.id, meta.src, meta.dst, meta.len_flits);
            self.chans.staging_mut(meta.src.idx()).extend(Flit::sequence(header));
            self.mark_active(meta.src.idx());
        }
    }

    /// Rebuilds credit counters and adaptivity loads from buffer occupancy
    /// (used after worm kills, which invalidate incremental accounting).
    fn recompute_credits_and_loads(&mut self) {
        let geo = self.chans.geo();
        let depth = self.cfg.buffer_depth;
        let mut ch = self.chans.full_mut();
        for n in self.topo.nodes() {
            for p in self.topo.ports() {
                let Some((m, q)) = self.links.far(n, p) else { continue };
                for v in 0..geo.vcs {
                    let occupied = ch.fifo_len(m.idx(), q.idx(), v) as u32;
                    let in_flight = matches!(ch.out_reg(n.idx(), p.idx()), Some((vc, _)) if vc.idx() == v)
                        as u32;
                    ch.set_out_credits(n.idx(), p.idx(), v, depth - occupied - in_flight);
                }
            }
        }
        for n in 0..geo.nodes {
            for p in 0..geo.degree {
                ch.set_out_assigned(n, p, 0);
            }
            for ip in 0..=geo.degree {
                for iv in 0..geo.vcs_at(ip) {
                    if let RouteState::Out(p, _) = ch.route(n, ip, iv) {
                        let buffered = ch.fifo_len(n, ip, iv) as u32;
                        ch.add_out_assigned(n, p.idx(), buffered);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------- views

    /// Refills the master's reused snapshot of node `n` for a
    /// control-plane consult.
    fn fill_master_view(&mut self, n: NodeId) {
        let (degree, vcs) = (self.topo.degree(), self.vcs);
        fill_view(&self.links, &self.chans.full_mut(), degree, vcs, n, &mut self.scratch.view);
    }

    // -------------------------------------------------------------- step

    /// Advances the network one cycle.
    ///
    /// Every phase iterates the *active set* — the nodes holding staged,
    /// buffered or in-register flits — instead of dense-scanning the whole
    /// topology; see `DESIGN.md` §12 for the activation invariants. The
    /// retained dense scan ([`Network::set_dense_reference`]) is observably
    /// identical and serves as the differential-testing oracle. With more
    /// than one shard the phases run in parallel over disjoint node ranges
    /// and the cross-shard effects merge at conservative barriers, in
    /// shard order — bit-identical to the sequential engine (`DESIGN.md`
    /// §14).
    pub fn step(&mut self) {
        // 0. scripted fault-plan actions and due retry re-injections
        self.run_plan();
        self.run_retries();

        // periodic buffer-occupancy sampling (only when metrics attached);
        // cycle 0 — before any traffic can have entered the network — is
        // skipped so short runs don't skew the histogram's low bins with a
        // guaranteed all-zero sample per node
        if let Some(m) = &self.metrics {
            if self.cycle != 0 && self.cycle.is_multiple_of(OCCUPANCY_SAMPLE_PERIOD) {
                for ni in 0..self.chans.geo().nodes {
                    m.buffer_occupancy.observe(self.chans.buffered_flits(ni) as u64);
                }
            }
        }

        // 0.5 autonomous control-plane tick (heartbeats, suspicion
        // bookkeeping) — ascending node order for determinism, live nodes
        // only; disabled unless a tick period was configured
        if self.cfg.tick_period != 0 && self.cycle.is_multiple_of(self.cfg.tick_period) {
            for i in 0..self.ctrls.len() {
                let n = NodeId(i as u32);
                if self.links.node_faulty(n) {
                    continue;
                }
                self.fill_master_view(n);
                let view = self.scratch.view.view(n, self.cycle);
                let msgs = self.ctrls[i].on_tick(&view, self.cycle);
                self.flush_controller_events(n);
                self.enqueue_control(n, msgs);
            }
        }

        // 1. control-plane deliveries due this cycle
        let mut due = std::mem::take(&mut self.scratch.due);
        while self.control.front().is_some_and(|d| d.due <= self.cycle) {
            due.push(self.control.pop_front().expect("checked"));
        }
        for d in due.drain(..) {
            if self.links.node_faulty(d.to) {
                continue;
            }
            // time-of-send vs time-of-delivery: the traversed link (and
            // with it the sender node) must still be usable NOW — a link
            // that died after the send at cycle C never lands its words
            // at C+1
            if !self.links.usable(d.to, d.from_port) {
                self.drop_control(d.to, d.from_port);
                continue;
            }
            self.fill_master_view(d.to);
            let view = self.scratch.view.view(d.to, self.cycle);
            let replies = self.ctrls[d.to.idx()].on_control(&view, d.from_port, &d.payload);
            self.flush_controller_events(d.to);
            self.enqueue_control(d.to, replies);
        }
        self.scratch.due = due;

        // the cycle's working set: ascending node order matches the dense
        // scan, so phase iteration order — and thus arbitration and the
        // trace-event stream — is independent of activation history
        let mut cur = std::mem::take(&mut self.scratch.cur);
        cur.clear();
        if self.dense_reference {
            cur.extend(0..self.chans.geo().nodes as u32);
        } else {
            // the prune left an ascending prefix; only the nodes marked
            // since (sends, retries) need sorting before the merge
            let (kept, marked) = self.active_list.split_at_mut(self.active_sorted);
            marked.sort_unstable();
            merge_ascending(kept, marked, &mut cur);
            self.active_list.clear();
        }
        for scr in &mut self.shard_scratch {
            scr.moved = false;
        }

        // 2. link traversal: output registers -> downstream input FIFOs
        // (cross-shard arrivals park in the handoff queues and apply at
        // the barrier, in shard order = ascending sender order)
        self.run_phase(PhaseKind::Link, &cur, &cur);
        self.apply_handoffs_and_marks();
        self.merge_dropped_and_kill();

        // nodes that received their first flit during link traversal must
        // route and arbitrate it THIS cycle, exactly as the dense scan does
        // (they were inactive at step entry, so they are disjoint from cur)
        let mut cur_ext = std::mem::take(&mut self.scratch.cur_ext);
        cur_ext.clear();
        if !self.dense_reference && !self.active_list.is_empty() {
            self.active_list.sort_unstable();
            merge_ascending(&cur, &self.active_list, &mut cur_ext);
            self.active_list.clear();
        } else {
            cur_ext.extend_from_slice(&cur);
        }

        // 3. injection (staging -> injection FIFO) + 4. routing decisions;
        // both touch only node-local state, so they fuse into one parallel
        // phase — injection over `cur`, routing over `cur_ext`
        self.run_phase(PhaseKind::InjectRoute, &cur, &cur_ext);
        self.flush_shards();
        self.merge_unroutable_and_kill();

        // 5. ejection + switch allocation
        self.run_phase(PhaseKind::EjectSwitch, &cur, &cur_ext);
        self.flush_shards();
        self.apply_credit_returns();

        let moved = self.shard_scratch.iter().any(|s| s.moved);

        // 6. watchdog (messages waiting out a retry backoff are in flight
        // but legitimately motionless — not a deadlock)
        if moved {
            self.last_move = self.cycle;
        } else if self.in_flight() > self.retries.len()
            && self.cycle - self.last_move >= self.cfg.deadlock_threshold
        {
            self.stats.deadlock = true;
        }
        self.last_moved = moved;

        // prune the active set: drop nodes whose work drained (delivered,
        // killed, or every flit handed downstream). A node only re-enters
        // through mark_active, so mask ⟺ list ⟺ has-work holds at every
        // cycle boundary. The dense path rebuilds the bookkeeping exactly,
        // keeping mode switches safe at any boundary.
        if self.dense_reference {
            // the dense scan ignores marks made during the step (send,
            // link arrivals); its working set covers every node, so the
            // rebuild below recreates mask and list from scratch
            self.active_list.clear();
        }
        debug_assert!(self.active_list.is_empty());
        for &ni in &cur_ext {
            self.active_mask[ni as usize] = false;
        }
        // the shards recorded which nodes still hold work as they finished
        // them (credit returns since move no flit); shard order keeps the
        // survivors ascending
        for scr in &mut self.shard_scratch {
            for &ni in &scr.busy {
                self.active_mask[ni as usize] = true;
            }
            self.active_list.append(&mut scr.busy);
        }
        self.active_sorted = self.active_list.len();
        cur.clear();
        self.scratch.cur = cur;
        cur_ext.clear();
        self.scratch.cur_ext = cur_ext;

        self.cycle += 1;
    }

    /// Runs one phase over every shard — inline when the working set is
    /// small (or there is a single shard), on scoped OS threads otherwise.
    /// Shards only touch their own node range; anything that crosses a
    /// boundary lands in the shard's scratch for the master to merge.
    fn run_phase(&mut self, phase: PhaseKind, cur: &[u32], cur_ext: &[u32]) {
        let degree = self.topo.degree();
        let ctx = StepCtx {
            links: &self.links,
            cfg: self.cfg,
            vcs: self.vcs,
            degree,
            cycle: self.cycle,
            sink_on: self.sink.is_some(),
        };
        let views = self.chans.split_mut(&self.shard_bounds);
        let mut ctrls = self.ctrls.as_mut_slice();
        let mut tasks: Vec<ShardTask<'_>> = Vec::with_capacity(views.len());
        for ((ch, scr), w) in
            views.into_iter().zip(self.shard_scratch.iter_mut()).zip(self.shard_bounds.windows(2))
        {
            let (lo, hi) = (w[0], w[1]);
            let (head, rest) = ctrls.split_at_mut(hi - lo);
            ctrls = rest;
            tasks.push(ShardTask {
                lo,
                hi,
                ch,
                ctrls: head,
                scr,
                cur: sub_range(cur, lo, hi),
                cur_ext: sub_range(cur_ext, lo, hi),
            });
        }
        let spawn = tasks.len() > 1 && cur_ext.len() >= self.spawn_threshold;
        if !spawn {
            for t in tasks.iter_mut() {
                run_shard(&ctx, phase, t);
            }
        } else {
            let ctx_ref = &ctx;
            crossbeam::thread::scope(|s| {
                let (first, rest) = tasks.split_first_mut().expect("at least one shard");
                for t in rest.iter_mut() {
                    s.spawn(move |_| run_shard(ctx_ref, phase, t));
                }
                run_shard(ctx_ref, phase, first);
            })
            .expect("simulation shard panicked");
        }
    }

    /// Barrier after link traversal: applies cross-shard flit handoffs and
    /// activation marks, in shard order (= ascending sender order, which
    /// is what the sequential scan produced).
    fn apply_handoffs_and_marks(&mut self) {
        for si in 0..self.shard_scratch.len() {
            let handoff = std::mem::take(&mut self.shard_scratch[si].handoff);
            {
                let mut ch = self.chans.full_mut();
                for h in &handoff {
                    ch.fifo_push_back(h.node as usize, h.port as usize, h.vc as usize, h.flit);
                }
            }
            for h in &handoff {
                self.mark_active(h.node as usize);
            }
            let mut handoff = handoff;
            handoff.clear();
            self.shard_scratch[si].handoff = handoff;
            let newly = std::mem::take(&mut self.shard_scratch[si].newly_active);
            for &ni in &newly {
                self.mark_active(ni as usize);
            }
            let mut newly = newly;
            newly.clear();
            self.shard_scratch[si].newly_active = newly;
        }
    }

    /// Barrier after link traversal, part 2: flits caught on just-dead
    /// links. The shards report candidates; the master applies the
    /// liveness gate and the kill, exactly as the sequential loop did.
    fn merge_dropped_and_kill(&mut self) {
        let mut any = false;
        for si in 0..self.shard_scratch.len() {
            let dropped = std::mem::take(&mut self.shard_scratch[si].dropped);
            for &msg in &dropped {
                // flit caught on a just-failed link. The fault injector
                // rips every worm touching a dying link, so the message is
                // normally already killed and untracked; if it IS still
                // live (a fault path that missed the worm), dropping the
                // flit silently would leak the message — stats accounting
                // would never balance and drain() would hang. Kill it
                // through the normal path instead.
                if self.stats.tracks(msg) {
                    self.stats.flits_dropped_on_dead_link += 1;
                    self.scratch.dropped.insert(msg);
                    any = true;
                }
            }
            let mut dropped = dropped;
            dropped.clear();
            self.shard_scratch[si].dropped = dropped;
        }
        if any {
            let dropped = std::mem::take(&mut self.scratch.dropped);
            self.kill_messages(&dropped, false);
            self.scratch.dropped = dropped;
            self.scratch.dropped.clear();
        }
    }

    /// Barrier after routing: merges per-shard unroutable verdicts and
    /// kills them (trace/retry order is id-sorted inside kill_messages, so
    /// the merge order does not leak).
    fn merge_unroutable_and_kill(&mut self) {
        let mut unroutable = std::mem::take(&mut self.scratch.unroutable);
        for scr in &mut self.shard_scratch {
            unroutable.extend(scr.unroutable.drain(..));
        }
        self.kill_messages(&unroutable, true);
        unroutable.clear();
        self.scratch.unroutable = unroutable;
    }

    /// Drains per-shard trace events into the sink and replays per-shard
    /// stats ops, in shard order — concatenating the shard-local streams
    /// reproduces the sequential ascending-node emission order.
    fn flush_shards(&mut self) {
        for si in 0..self.shard_scratch.len() {
            let mut events = std::mem::take(&mut self.shard_scratch[si].events);
            if let Some(sink) = &self.sink {
                for e in &events {
                    sink.record(e);
                }
            }
            events.clear();
            self.shard_scratch[si].events = events;
            let mut ops = std::mem::take(&mut self.shard_scratch[si].ops);
            for op in ops.drain(..) {
                match op {
                    StatOp::Decision(steps) => {
                        self.stats.decision_steps.add(steps);
                        if let Some(m) = &self.metrics {
                            m.decision_steps.observe(steps);
                        }
                    }
                    StatOp::HeadArrival(msg, hops) => self.stats.on_head_arrival(msg, hops),
                    StatOp::Deliver(msg) => {
                        let meta = self.stats.on_deliver(msg, self.cycle);
                        if let Some(m) = &self.metrics {
                            m.delivered.inc();
                            if let Some(meta) = meta {
                                m.latency.observe(self.cycle - meta.inject_cycle);
                                m.hops.observe(meta.hops as u64);
                                m.excess_hops
                                    .observe(meta.hops.saturating_sub(meta.min_dist) as u64);
                            }
                        }
                    }
                }
            }
            self.shard_scratch[si].ops = ops;
        }
    }

    /// Barrier after ejection/switch: returns freed credits to the
    /// upstream senders (each input lane frees at most one slot per cycle,
    /// so the increments commute; shard order matches the sequential
    /// application order anyway).
    fn apply_credit_returns(&mut self) {
        let depth = self.cfg.buffer_depth;
        let mut ch = self.chans.full_mut();
        for scr in &mut self.shard_scratch {
            for &(ni, p, iv) in &scr.credit_returns {
                let Some((m, q)) = self.links.far(NodeId(ni), PortId(p)) else { continue };
                let c = ch.out_credits(m.idx(), q.idx(), iv as usize);
                ch.set_out_credits(m.idx(), q.idx(), iv as usize, (c + 1).min(depth));
            }
            scr.credit_returns.clear();
        }
    }

    /// Runs `cycles` steps (stops early on deadlock).
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            if self.stats.deadlock {
                break;
            }
            self.step();
        }
    }

    /// Runs until all in-flight messages terminate or `budget` cycles
    /// elapse. Returns true if the network drained.
    pub fn drain(&mut self, budget: u64) -> bool {
        let start = self.cycle;
        while self.in_flight() > 0 && !self.stats.deadlock {
            if self.cycle - start >= budget {
                return false;
            }
            self.step();
        }
        self.in_flight() == 0
    }

    /// Human-readable dump of every occupied buffer — debugging aid for
    /// stuck or deadlocked networks.
    pub fn dump_occupancy(&self) -> String {
        use std::fmt::Write as _;
        let geo = self.chans.geo();
        let mut s = String::new();
        for ni in 0..geo.nodes {
            for ip in 0..=geo.degree {
                for iv in 0..geo.vcs_at(ip) {
                    if self.chans.fifo_len(ni, ip, iv) != 0 {
                        let _ = writeln!(
                            s,
                            "n{ni} in[{ip}][{iv}] route={:?} phase={:?} flits={:?}",
                            self.chans.route(ni, ip, iv),
                            self.chans.phase_of(ni, ip, iv),
                            self.chans
                                .fifo_iter(ni, ip, iv)
                                .map(|f| (f.msg, f.seq))
                                .collect::<Vec<_>>()
                        );
                    }
                }
            }
            for p in 0..geo.degree {
                if let Some((v, f)) = self.chans.out_reg(ni, p) {
                    let _ = writeln!(s, "n{ni} outreg[{p}] vc={v} msg={:?}", f.msg);
                }
            }
            for p in 0..geo.degree {
                for v in 0..geo.vcs {
                    let owner = self.chans.out_owner(ni, p, v);
                    let credits = self.chans.out_credits(ni, p, v);
                    if owner.is_some() || credits != self.cfg.buffer_depth {
                        let _ =
                            writeln!(s, "n{ni} out[{p}][{v}] owner={owner:?} credits={credits}");
                    }
                }
            }
            if !self.chans.staging(ni).is_empty() {
                let _ = writeln!(s, "n{ni} staging={}", self.chans.staging(ni).len());
            }
        }
        s
    }

    /// Direct read access to a controller (diagnostics/experiments).
    pub fn controller(&self, n: NodeId) -> &dyn NodeController {
        self.ctrls[n.idx()].as_ref()
    }
}

/// Merges two ascending, disjoint node-id lists into `out` (appended).
fn merge_ascending(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        debug_assert_ne!(a[i], b[j], "merged lists must be disjoint");
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Restricts a sorted node-id slice to the half-open range `lo..hi`.
fn sub_range(xs: &[u32], lo: usize, hi: usize) -> &[u32] {
    let a = xs.partition_point(|&x| (x as usize) < lo);
    let b = xs.partition_point(|&x| (x as usize) < hi);
    &xs[a..b]
}

/// Executes one phase bundle for one shard. Free function so it can run
/// on a scoped worker thread without borrowing the `Network`.
fn run_shard(ctx: &StepCtx<'_>, phase: PhaseKind, t: &mut ShardTask<'_>) {
    match phase {
        PhaseKind::Link => phase_link(ctx, t),
        PhaseKind::InjectRoute => {
            phase_inject(ctx, t);
            phase_route(ctx, t);
        }
        PhaseKind::EjectSwitch => phase_eject_switch(ctx, t),
    }
}

/// Link traversal: drains each active node's output registers into the
/// downstream input FIFOs (in-shard) or the handoff queue (cross-shard).
fn phase_link(ctx: &StepCtx<'_>, t: &mut ShardTask<'_>) {
    for &ni in t.cur {
        let n = NodeId(ni);
        let ni = ni as usize;
        for p in 0..ctx.degree {
            if !t.ch.reg_busy(ni, p) {
                continue;
            }
            let (vc, flit) = t.ch.take_out_reg(ni, p).expect("register busy");
            let port = PortId(p as u8);
            if !ctx.links.usable(n, port) {
                // caught on a just-dead link — the master applies the
                // liveness gate and kills through the normal path
                t.scr.dropped.push(flit.msg);
                continue;
            }
            let (m, q) = ctx.links.far(n, port).expect("usable link");
            if m.idx() >= t.lo && m.idx() < t.hi {
                t.ch.fifo_push_back(m.idx(), q.idx(), vc.idx(), flit);
                t.scr.newly_active.push(m.idx() as u32);
            } else {
                t.scr.handoff.push(Handoff { node: m.0, port: q.0, vc: vc.0, flit });
            }
            t.scr.moved = true;
        }
    }
}

/// Injection: staging queue -> injection FIFO, bounded by buffer depth.
fn phase_inject(ctx: &StepCtx<'_>, t: &mut ShardTask<'_>) {
    for &ni in t.cur {
        let ni = ni as usize;
        while !t.ch.staging(ni).is_empty()
            && t.ch.fifo_len(ni, ctx.degree, 0) < ctx.cfg.buffer_depth as usize
        {
            let f = t.ch.staging_mut(ni).pop_front().expect("checked");
            t.ch.fifo_push_back(ni, ctx.degree, 0, f);
            t.scr.moved = true;
        }
    }
}

/// Routing decisions over the extended working set: one walk over each
/// node's lane records, consulting the lanes with an unrouted head at the
/// front.
fn phase_route(ctx: &StepCtx<'_>, t: &mut ShardTask<'_>) {
    for &ni in t.cur_ext {
        let n = NodeId(ni);
        if ctx.links.node_faulty(n) {
            continue;
        }
        let ni = ni as usize;
        let (mut ip, mut iv) = (0, 0);
        for l in 0..ctx.degree * ctx.vcs + 1 {
            let lane = t.ch.lane_at(ni, l);
            if lane.len() != 0
                && lane.route() == RouteState::Unrouted
                && t.ch.fifo_front(ni, ip, iv).is_some_and(|f| f.kind == FlitKind::Head)
            {
                route_one(ctx, t, n, ip, iv);
            }
            iv += 1;
            if iv == ctx.vcs {
                (ip, iv) = (ip + 1, 0);
            }
        }
    }
}

/// Decision handling for input VC `(ip, iv)`, whose FIFO front is an
/// unrouted head.
fn route_one(ctx: &StepCtx<'_>, t: &mut ShardTask<'_>, n: NodeId, ip: usize, iv: usize) {
    let ni = n.idx();

    // advance the decision countdown
    match t.ch.phase_of(ni, ip, iv) {
        Some(DecisionPhase::Waiting(c)) if c > 1 => {
            t.ch.set_phase(ni, ip, iv, Some(DecisionPhase::Waiting(c - 1)));
            return;
        }
        Some(DecisionPhase::Waiting(_)) => {
            // latency elapsed this cycle: consult and apply below
            t.ch.set_phase(ni, ip, iv, Some(DecisionPhase::Ready));
        }
        Some(DecisionPhase::Ready) | None => {}
    }

    let in_port = if ip < ctx.degree { Some(PortId(ip as u8)) } else { None };
    let header_copy = t.ch.fifo_front(ni, ip, iv).and_then(Flit::header).expect("head checked");

    // destination reached: deliver without consulting the algorithm
    if header_copy.dst == n {
        t.ch.set_route(ni, ip, iv, RouteState::Local);
        let first = !t.ch.counted(ni, ip, iv);
        t.ch.set_counted(ni, ip, iv, true);
        if first {
            t.scr.ops.push(StatOp::Decision(0));
            emit_sh(ctx, t.scr, || EventKind::RouteDecision {
                node: n,
                msg: header_copy.msg.0,
                in_port,
                in_vc: VcId(iv as u8),
                outcome: RouteOutcome::Deliver,
                steps: 0,
                misrouted: header_copy.misrouted,
            });
        }
        return;
    }

    // consult the controller
    fill_view(ctx.links, &t.ch, ctx.degree, ctx.vcs, n, &mut t.scr.view);
    let view = t.scr.view.view(n, ctx.cycle);
    let mut header = header_copy;
    let dec = t.ctrls[ni - t.lo].route(&view, &mut header, in_port, VcId(iv as u8));
    // write back header updates
    t.ch.fifo_front_mut(ni, ip, iv).expect("head checked").set_header(header);

    let first_sight = t.ch.phase_of(ni, ip, iv).is_none();
    if first_sight {
        if !t.ch.counted(ni, ip, iv) {
            t.ch.set_counted(ni, ip, iv, true);
            t.scr.ops.push(StatOp::Decision(dec.steps as u64));
            emit_sh(ctx, t.scr, || EventKind::RouteDecision {
                node: n,
                msg: header_copy.msg.0,
                in_port,
                in_vc: VcId(iv as u8),
                outcome: match dec.verdict {
                    Verdict::Route(p, v) => RouteOutcome::Routed(p, v),
                    Verdict::Deliver => RouteOutcome::Deliver,
                    Verdict::Wait => RouteOutcome::Wait,
                    Verdict::Unroutable => RouteOutcome::Unroutable,
                },
                steps: dec.steps,
                misrouted: header.misrouted,
            });
        }
        // Modeled decision latency: steps × cycles-per-step total cycles,
        // of which this (first-sight) cycle is one. A cost of 0 or 1
        // resolves combinationally — the verdict applies this same cycle —
        // while a cost of c ≥ 2 inserts c − 1 explicit waiting cycles.
        // Zero cost arises legitimately (zero-weighted rules, or
        // `decision_cycles_per_step == 0` modeling a free decision stage)
        // and behaves exactly like cost 1; no clamping needed.
        let delay = dec.steps.saturating_mul(ctx.cfg.decision_cycles_per_step);
        if delay > 1 {
            t.ch.set_phase(ni, ip, iv, Some(DecisionPhase::Waiting(delay - 1)));
            return;
        }
        t.ch.set_phase(ni, ip, iv, Some(DecisionPhase::Ready));
    }

    // apply the verdict (Ready state retries for free on contention)
    match dec.verdict {
        Verdict::Deliver => {
            t.ch.set_route(ni, ip, iv, RouteState::Local);
        }
        Verdict::Wait => {
            // trace completeness: a waiting head never reaches the
            // VcStall path (the controller withheld the grant), so the
            // blocked cycle and the channels that would unblock it are
            // recorded here — the diagnoser's wait-for edges
            if ctx.sink_on {
                let wants = probe_wants_sh(
                    ctx,
                    &mut t.ctrls[ni - t.lo],
                    &mut t.scr.view,
                    n,
                    &header,
                    in_port,
                    VcId(iv as u8),
                );
                emit_sh(ctx, t.scr, || EventKind::RouteWait {
                    node: n,
                    msg: header_copy.msg.0,
                    wants,
                });
            }
        }
        Verdict::Unroutable => {
            t.scr.unroutable.push(header_copy.msg);
        }
        Verdict::Route(p, v) => {
            let ok = p.idx() < ctx.degree
                && v.idx() < ctx.vcs
                && ctx.links.usable(n, p)
                && t.ch.out_channel_free(ni, p.idx(), v.idx());
            if !ok {
                // granted a route but the output channel is unusable
                // this cycle: a VC-allocation stall
                emit_sh(ctx, t.scr, || EventKind::VcStall {
                    node: n,
                    msg: header_copy.msg.0,
                    port: p,
                    vc: v,
                });
            }
            if ok {
                t.ch.set_out_owner(ni, p.idx(), v.idx(), Some(header_copy.msg));
                t.ch.set_route(ni, ip, iv, RouteState::Out(p, v));
                t.ch.set_misrouted(ni, ip, iv, header.misrouted);
                t.ch.add_out_assigned(ni, p.idx(), header_copy.len_flits);
                emit_sh(ctx, t.scr, || EventKind::VcAcquire {
                    node: n,
                    msg: header_copy.msg.0,
                    port: p,
                    vc: v,
                });
            }
        }
    }
}

/// Ejection then switch allocation over the extended working set.
fn phase_eject_switch(ctx: &StepCtx<'_>, t: &mut ShardTask<'_>) {
    for &ni in t.cur_ext {
        eject_switch_node(ctx, &mut t.ch, t.scr, ni as usize);
        // this node's last touch this cycle: whether it stays active
        if t.ch.has_work(ni as usize) {
            t.scr.busy.push(ni);
        }
    }
}

/// A lane whose front flit holds an output channel: one switch-allocation
/// candidate of its node.
#[derive(Clone, Copy)]
struct Cand {
    /// Arbitration slot `ip * vcs + iv` — the round-robin order.
    slot: usize,
    ip: usize,
    iv: usize,
    /// Output port and VC the lane's message holds.
    port: usize,
    ov: VcId,
    /// The lane's misrouted marker (fairness pass).
    misrouted: bool,
}

/// Ejection then switch allocation at node `ni`, in one walk over its
/// lanes.
///
/// The walk ejects one flit per input port (the first lane delivering
/// locally) and collects every lane whose message holds an output channel
/// and has a flit buffered. Each output port with an empty register then
/// grants the first eligible candidate at or after its round-robin
/// pointer, wrapping — the order of a cyclic scan over all
/// `(degree + 1) · vcs` slots, without probing the empty ones. Eligible
/// means: input port not used yet this cycle, a credit on the output VC,
/// and — in a first pass when `prioritize_misrouted` is on — a misrouted
/// lane. Ports are served in ascending order, since each grant marks its
/// input port used for the ports after it.
fn eject_switch_node(ctx: &StepCtx<'_>, ch: &mut ChanRef<'_>, scr: &mut ShardScratch, ni: usize) {
    let n = NodeId(ni as u32);
    let nports = ctx.degree + 1;
    scr.used.clear();
    scr.used.resize(nports, false);
    let mut cands = std::mem::take(&mut scr.cands);
    cands.clear();

    // the arbitration slot `ip * vcs + iv` is the node-relative lane index
    let (mut ip, mut iv) = (0, 0);
    for slot in 0..ctx.degree * ctx.vcs + 1 {
        let lane = ch.lane_at(ni, slot);
        let (lip, liv) = (ip, iv);
        iv += 1;
        if iv == ctx.vcs {
            (ip, iv) = (ip + 1, 0);
        }
        if lane.len() == 0 {
            continue;
        }
        match lane.route() {
            // ejection first (delivery has priority on the input port)
            RouteState::Local if !scr.used[lip] => {
                let flit = ch.pop_lane(ni, slot).expect("checked");
                scr.moved = true;
                scr.used[lip] = true;
                if let Some(h) = flit.header() {
                    scr.ops.push(StatOp::HeadArrival(flit.msg, h.hops));
                }
                if flit.ends_message() {
                    scr.ops.push(StatOp::Deliver(flit.msg));
                    emit_sh(ctx, scr, || EventKind::Deliver { node: n, msg: flit.msg.0 });
                    ch.reset_route(ni, lip, liv);
                }
                if lip < ctx.degree {
                    scr.credit_returns.push((ni as u32, lip as u8, liv as u8));
                }
            }
            RouteState::Out(p, ov) => cands.push(Cand {
                slot,
                ip: lip,
                iv: liv,
                port: p.idx(),
                ov,
                misrouted: lane.misrouted(),
            }),
            _ => {}
        }
    }

    // switch: one flit per output port, round-robin over inputs; the
    // stable sort keeps each port's candidates in slot order
    let slots = nports * ctx.vcs;
    cands.sort_by_key(|c| c.port);
    let mut rest = cands.as_slice();
    while let Some(first) = rest.first() {
        let p = first.port;
        let len = rest.iter().position(|c| c.port != p).unwrap_or(rest.len());
        let (run, tail) = rest.split_at(len);
        rest = tail;
        if ch.reg_busy(ni, p) {
            continue;
        }
        let start = ch.rr(ni, p) as usize;
        let wrap_at = run.partition_point(|c| c.slot < start);
        let pick = |misrouted_only: bool| {
            run[wrap_at..].iter().chain(&run[..wrap_at]).copied().find(|c| {
                !scr.used[c.ip]
                    && (c.misrouted || !misrouted_only)
                    && ch.out_credits(ni, p, c.ov.idx()) > 0
            })
        };
        // two passes when fairness for misrouted messages is on: first
        // only misrouted candidates, then everyone
        let winner = if ctx.cfg.prioritize_misrouted {
            pick(true).or_else(|| pick(false))
        } else {
            pick(false)
        };
        let Some(Cand { slot, ip, iv, ov, .. }) = winner else { continue };
        ch.set_rr(ni, p, if slot + 1 == slots { 0 } else { slot + 1 } as u32);
        scr.used[ip] = true;
        let mut flit = ch.pop_lane(ni, slot).expect("winner has flit");
        scr.moved = true;
        flit.bump_hops();
        if flit.ends_message() {
            ch.reset_route(ni, ip, iv);
            ch.set_out_owner(ni, p, ov.idx(), None);
            emit_sh(ctx, scr, || EventKind::VcRelease {
                node: n,
                msg: flit.msg.0,
                port: PortId(p as u8),
                vc: ov,
            });
        }
        let c = ch.out_credits(ni, p, ov.idx());
        ch.set_out_credits(ni, p, ov.idx(), c - 1);
        ch.sub_out_assigned_sat(ni, p, 1);
        ch.set_out_reg(ni, p, Some((ov, flit)));
        if ip < ctx.degree {
            scr.credit_returns.push((ni as u32, ip as u8, iv as u8));
        }
    }
    scr.cands = cands;
}

/// Shard-side trace emission: buffers the event for the barrier flush
/// (the closure only runs when a sink is attached).
#[inline]
fn emit_sh(ctx: &StepCtx<'_>, scr: &mut ShardScratch, kind: impl FnOnce() -> EventKind) {
    if ctx.sink_on {
        scr.events.push(TraceEvent { cycle: ctx.cycle, kind: kind() });
    }
}

/// Fills `vd` with the [`RouterView`] snapshot of node `n`: link status
/// from the link map, free flags and loads from the arena view. The one
/// definition of the snapshot, behind every controller consult — the
/// shards' routing decisions and the master's control-plane hooks alike.
fn fill_view(
    links: &LinkMap,
    ch: &ChanRef<'_>,
    degree: usize,
    vcs: usize,
    n: NodeId,
    vd: &mut ViewData,
) {
    let ni = n.idx();
    vd.shape(degree, vcs);
    for p in 0..degree {
        let alive = links.usable(n, PortId(p as u8));
        vd.link_alive[p] = alive;
        for v in 0..vcs {
            vd.out_free[p][v] = alive && ch.out_channel_free(ni, p, v);
        }
        vd.out_load[p] = ch.out_assigned(ni, p) + ch.reg_busy(ni, p) as u32;
    }
}

/// Output channels the controller would accept *right now* for a head it
/// asked to wait: each live `(port, vc)` is probed under a synthetic view
/// where exactly that channel is free, and kept when the controller grants
/// it. Runs only while a trace sink is attached (the `RouteWait` wait-for
/// edges); header mutations made by the probed decisions are discarded, so
/// a controller whose `route` is a pure function of view + header — every
/// in-tree algorithm — is unperturbed. `vd` holds the consult's snapshot
/// of `n`; its link status is kept and its loads and free flags are
/// overwritten.
fn probe_wants_sh(
    ctx: &StepCtx<'_>,
    ctrl: &mut Box<dyn NodeController>,
    vd: &mut ViewData,
    n: NodeId,
    header: &Header,
    in_port: Option<PortId>,
    in_vc: VcId,
) -> Vec<(PortId, VcId)> {
    vd.out_load.fill(0);
    vd.out_free.iter_mut().for_each(|f| f.fill(false));
    let mut wants = Vec::new();
    for p in 0..ctx.degree {
        if !vd.link_alive[p] {
            continue;
        }
        for v in 0..ctx.vcs {
            vd.out_free[p][v] = true;
            let mut h = *header;
            let dec = ctrl.route(&vd.view(n, ctx.cycle), &mut h, in_port, in_vc);
            vd.out_free[p][v] = false;
            if let Verdict::Route(rp, rv) = dec.verdict {
                if rp.idx() == p && rv.idx() == v {
                    wants.push((PortId(p as u8), VcId(v as u8)));
                }
            }
        }
    }
    wants
}

/// Owned per-node snapshot backing a [`RouterView`].
#[derive(Default)]
struct ViewData {
    out_free: Vec<Vec<bool>>,
    out_load: Vec<u32>,
    link_alive: Vec<bool>,
}

impl ViewData {
    /// Sizes the buffers for `degree` ports of `vcs` virtual channels;
    /// allocates only when the shape changes.
    fn shape(&mut self, degree: usize, vcs: usize) {
        if self.link_alive.len() != degree || self.out_free.first().is_some_and(|f| f.len() != vcs)
        {
            self.out_free = vec![vec![false; vcs]; degree];
            self.out_load = vec![0; degree];
            self.link_alive = vec![false; degree];
        }
    }

    fn view(&self, node: NodeId, cycle: u64) -> RouterView<'_> {
        RouterView {
            node,
            cycle,
            out_free: &self.out_free,
            out_load: &self.out_load,
            link_alive: &self.link_alive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::Decision;
    use crate::traffic::{Pattern, TrafficSource};
    use ftr_topo::{Mesh2D, Topology, EAST, NORTH, SOUTH, WEST};

    /// XY dimension-order routing with a configurable step count.
    struct Xy {
        mesh: Mesh2D,
        steps: u32,
    }

    struct XyCtl {
        mesh: Mesh2D,
        steps: u32,
    }

    impl RoutingAlgorithm for Xy {
        fn name(&self) -> String {
            "xy-test".into()
        }
        fn num_vcs(&self) -> usize {
            1
        }
        fn controller(&self, _t: &dyn Topology, _n: NodeId) -> Box<dyn NodeController> {
            Box::new(XyCtl { mesh: self.mesh.clone(), steps: self.steps })
        }
    }

    impl NodeController for XyCtl {
        fn route(
            &mut self,
            view: &RouterView<'_>,
            h: &mut Header,
            _ip: Option<PortId>,
            _iv: VcId,
        ) -> Decision {
            let (dx, dy) = self.mesh.offset(view.node, h.dst);
            let p = if dx > 0 {
                EAST
            } else if dx < 0 {
                WEST
            } else if dy > 0 {
                NORTH
            } else {
                SOUTH
            };
            if view.out_free[p.idx()][0] {
                Decision::new(Verdict::Route(p, VcId(0)), self.steps)
            } else {
                Decision::new(Verdict::Wait, self.steps)
            }
        }
    }

    /// Fully adaptive minimal on one VC — deadlocks under heavy load.
    struct GreedyAdaptive {
        mesh: Mesh2D,
    }

    impl RoutingAlgorithm for GreedyAdaptive {
        fn name(&self) -> String {
            "greedy".into()
        }
        fn num_vcs(&self) -> usize {
            1
        }
        fn controller(&self, _t: &dyn Topology, _n: NodeId) -> Box<dyn NodeController> {
            Box::new(GreedyCtl { mesh: self.mesh.clone() })
        }
    }

    struct GreedyCtl {
        mesh: Mesh2D,
    }

    impl NodeController for GreedyCtl {
        fn route(
            &mut self,
            view: &RouterView<'_>,
            h: &mut Header,
            _ip: Option<PortId>,
            _iv: VcId,
        ) -> Decision {
            for p in self.mesh.minimal_directions(view.node, h.dst) {
                if view.out_free[p.idx()][0] {
                    return Decision::new(Verdict::Route(p, VcId(0)), 1);
                }
            }
            Decision::new(Verdict::Wait, 1)
        }
    }

    fn mesh_net(side: u32, steps: u32, cfg: SimConfig) -> (Arc<Mesh2D>, Network) {
        let topo = Arc::new(Mesh2D::new(side, side));
        let algo = Xy { mesh: (*topo).clone(), steps };
        let net = Network::builder(topo.clone()).config(cfg).build(&algo).expect("valid config");
        (topo, net)
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        let topo = Arc::new(Mesh2D::new(3, 3));
        let algo = Xy { mesh: (*topo).clone(), steps: 1 };
        assert_eq!(
            Network::builder(topo.clone()).buffer_depth(0).build(&algo).err(),
            Some(BuildError::ZeroBufferDepth)
        );
        assert_eq!(
            Network::builder(topo.clone()).deadlock_threshold(0).build(&algo).err(),
            Some(BuildError::ZeroDeadlockThreshold)
        );
        struct NoVc;
        impl RoutingAlgorithm for NoVc {
            fn name(&self) -> String {
                "novc".into()
            }
            fn num_vcs(&self) -> usize {
                0
            }
            fn controller(&self, _t: &dyn Topology, _n: NodeId) -> Box<dyn NodeController> {
                unreachable!()
            }
        }
        assert_eq!(
            Network::builder(topo.clone()).build(&NoVc).err(),
            Some(BuildError::NoVirtualChannels)
        );
    }

    /// One node with `degree` unwired ports.
    struct Lonely(usize);

    impl Topology for Lonely {
        fn name(&self) -> String {
            format!("lonely/{}", self.0)
        }
        fn num_nodes(&self) -> usize {
            1
        }
        fn degree(&self) -> usize {
            self.0
        }
        fn neighbor(&self, _n: NodeId, _p: PortId) -> Option<NodeId> {
            None
        }
        fn min_distance(&self, _a: NodeId, _b: NodeId) -> u32 {
            0
        }
    }

    /// An algorithm on `vcs` virtual channels whose controllers wait.
    struct Waits(usize);
    struct WaitCtl;

    impl RoutingAlgorithm for Waits {
        fn name(&self) -> String {
            "waits".into()
        }
        fn num_vcs(&self) -> usize {
            self.0
        }
        fn controller(&self, _t: &dyn Topology, _n: NodeId) -> Box<dyn NodeController> {
            Box::new(WaitCtl)
        }
    }

    impl NodeController for WaitCtl {
        fn route(
            &mut self,
            _v: &RouterView<'_>,
            _h: &mut Header,
            _ip: Option<PortId>,
            _iv: VcId,
        ) -> Decision {
            Decision::new(Verdict::Wait, 1)
        }
    }

    /// Shapes the arena cannot address are typed build errors; the
    /// largest addressable ones build.
    #[test]
    fn builder_rejects_shapes_the_arena_cannot_address() {
        let build = |degree: usize, vcs: usize, depth: u32| {
            Network::builder(Arc::new(Lonely(degree))).buffer_depth(depth).build(&Waits(vcs))
        };
        let cases = [
            ((1, 256, 4), BuildError::TooManyVirtualChannels(256)),
            ((257, 1, 4), BuildError::DegreeTooLarge(257)),
            ((1, 1, 65_536), BuildError::BufferDepthTooLarge(65_536)),
        ];
        for ((degree, vcs, depth), want) in cases {
            let err = build(degree, vcs, depth).err();
            assert_eq!(err, Some(want), "degree {degree}, {vcs} VCs, depth {depth}");
            assert!(!want.to_string().is_empty());
        }
        for (degree, vcs, depth) in [(1, 255, 4), (256, 1, 4), (1, 1, 65_535)] {
            let mut net = build(degree, vcs, depth).expect("addressable shape");
            net.step();
            assert_eq!(net.cycle(), 1);
        }
    }

    #[test]
    fn trace_events_cover_message_lifecycle() {
        let topo = Arc::new(Mesh2D::new(4, 4));
        let algo = Xy { mesh: (*topo).clone(), steps: 2 };
        let sink = Arc::new(ftr_obs::RingSink::new(4096));
        let registry = Arc::new(MetricsRegistry::new());
        let mut net = Network::builder(topo.clone())
            .trace(sink.clone())
            .metrics(registry.clone())
            .build(&algo)
            .expect("valid config");
        net.set_measuring(true);
        let id = net.send(topo.node_at(0, 0), topo.node_at(2, 1), 4).unwrap();
        assert!(net.drain(1_000));

        let events = sink.events();
        assert!(!events.is_empty());
        // cycle stamps never decrease
        assert!(events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        // inject precedes every decision, which precede the delivery
        let tags: Vec<&str> = events.iter().map(|e| e.kind.tag()).collect();
        assert_eq!(tags.first(), Some(&"inject"));
        assert_eq!(tags.last(), Some(&"deliver"));
        // per-hop decisions: 3 hops = decisions at (0,0), (1,0), (2,0); the
        // destination's 0-step delivery shortcut also records one
        let decisions = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RouteDecision { msg, .. } if msg == id.0))
            .count();
        assert_eq!(decisions, 4);
        // trace-derived step totals agree with the stats accumulator
        let steps_from_trace: u64 = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::RouteDecision { steps, .. } => Some(steps as u64),
                _ => None,
            })
            .sum();
        assert_eq!(steps_from_trace, net.stats.decision_steps.sum);
        // metrics registry saw the same traffic
        assert_eq!(registry.counter_value("sim.injected"), Some(1));
        assert_eq!(registry.counter_value("sim.delivered"), Some(1));
        let lat = registry.histogram_snapshot("sim.latency").expect("latency recorded");
        assert_eq!(lat.count, 1);
        assert_eq!(lat.sum, net.stats.latency.sum);
    }

    #[test]
    fn no_sink_means_no_events_and_working_sim() {
        let (topo, mut net) = mesh_net(4, 1, SimConfig::default());
        assert!(net.trace_sink().is_none());
        assert!(net.metrics_registry().is_none());
        net.send(topo.node_at(0, 0), topo.node_at(3, 3), 4).unwrap();
        assert!(net.drain(1_000));
        assert_eq!(net.stats.delivered_msgs, 1);
        assert!(net.stats.accounting_balanced());
    }

    #[test]
    fn single_message_latency_is_sane() {
        let (topo, mut net) = mesh_net(4, 1, SimConfig::default());
        net.set_measuring(true);
        net.send(topo.node_at(0, 0), topo.node_at(3, 3), 4).unwrap();
        assert!(net.drain(1_000));
        assert_eq!(net.stats.delivered_msgs, 1);
        assert_eq!(net.stats.hops.max, 6, "XY path is 6 hops");
        // lower bound: 6 links + serialization of 4 flits
        assert!(net.stats.latency.min >= 9, "latency {}", net.stats.latency.min);
        assert!(net.stats.latency.max < 60);
    }

    #[test]
    fn decision_latency_increases_message_latency() {
        let mut lat = Vec::new();
        for steps in [1, 3] {
            let (topo, mut net) = mesh_net(4, steps, SimConfig::default());
            net.set_measuring(true);
            net.send(topo.node_at(0, 0), topo.node_at(3, 3), 4).unwrap();
            assert!(net.drain(2_000));
            lat.push(net.stats.latency.mean());
        }
        // 6 routing decisions on the path, each 2 cycles slower
        assert!(lat[1] >= lat[0] + 8.0, "3-step decisions should cost >= 8 extra cycles: {lat:?}");
    }

    #[test]
    fn many_messages_all_delivered() {
        let (topo, mut net) = mesh_net(4, 1, SimConfig::default());
        net.set_measuring(true);
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.1, 4, 42);
        for _ in 0..500 {
            for (s, d, l) in tf.tick(topo.as_ref(), net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        assert!(net.drain(5_000), "network must drain");
        assert!(!net.stats.deadlock);
        assert!(net.stats.delivered_msgs > 100);
        assert_eq!(net.stats.delivered_msgs, net.stats.injected_msgs);
    }

    #[test]
    fn wormhole_backpressure_respects_credits() {
        // tiny buffers, long messages: must still deliver without loss
        let cfg = SimConfig { buffer_depth: 2, ..Default::default() };
        let (topo, mut net) = mesh_net(4, 1, cfg);
        net.set_measuring(true);
        for y in 0..4 {
            net.send(topo.node_at(0, y), topo.node_at(3, y), 16).unwrap();
        }
        assert!(net.drain(5_000));
        assert_eq!(net.stats.delivered_msgs, 4);
    }

    #[test]
    fn greedy_adaptive_deadlocks_under_pressure() {
        // 4 long messages chasing each other around the central ring with
        // 1-flit buffers reliably deadlock a fully adaptive 1-VC router
        let topo = Arc::new(Mesh2D::new(3, 3));
        let algo = GreedyAdaptive { mesh: (*topo).clone() };
        let cfg = SimConfig { buffer_depth: 1, deadlock_threshold: 200, ..Default::default() };
        let mut net = Network::builder(topo.clone()).config(cfg).build(&algo).expect("valid");
        // four corner-to-corner messages forming a cycle of turns
        net.send(topo.node_at(0, 0), topo.node_at(2, 2), 32).unwrap();
        net.send(topo.node_at(2, 0), topo.node_at(0, 2), 32).unwrap();
        net.send(topo.node_at(2, 2), topo.node_at(0, 0), 32).unwrap();
        net.send(topo.node_at(0, 2), topo.node_at(2, 0), 32).unwrap();
        let drained = net.drain(6_000);
        // either the schedule dodged the deadlock (possible) or the
        // watchdog fired; with these parameters the cycle forms reliably
        assert!(!drained || net.stats.deadlock || net.stats.delivered_msgs == 4);
        // the XY router under identical load must NOT deadlock
        let algo2 = Xy { mesh: (*topo).clone(), steps: 1 };
        let mut net2 = Network::builder(topo.clone()).config(cfg).build(&algo2).expect("valid");
        net2.send(topo.node_at(0, 0), topo.node_at(2, 2), 32).unwrap();
        net2.send(topo.node_at(2, 0), topo.node_at(0, 2), 32).unwrap();
        net2.send(topo.node_at(2, 2), topo.node_at(0, 0), 32).unwrap();
        net2.send(topo.node_at(0, 2), topo.node_at(2, 0), 32).unwrap();
        assert!(net2.drain(6_000), "XY must not deadlock");
        assert!(!net2.stats.deadlock);
    }

    #[test]
    fn static_link_fault_kills_nothing_when_idle() {
        let (topo, mut net) = mesh_net(4, 1, SimConfig::default());
        net.inject_link_fault(topo.node_at(1, 1), EAST);
        assert_eq!(net.stats.killed_msgs, 0);
        assert!(net.faults().link_faulty(topo.as_ref(), topo.node_at(1, 1), EAST));
    }

    #[test]
    fn dynamic_link_fault_rips_spanning_worm() {
        let (topo, mut net) = mesh_net(4, 1, SimConfig::default());
        let src = topo.node_at(0, 1);
        let dst = topo.node_at(3, 1);
        net.send(src, dst, 24).unwrap(); // long worm across the row
        net.run(8); // head is past (1,1)-(2,1), tail still at source
        net.inject_link_fault(topo.node_at(1, 1), EAST);
        assert_eq!(net.stats.killed_msgs, 1, "worm spanned the failed link");
        assert!(net.drain(1_000));
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn node_fault_kills_transiting_and_destined_messages() {
        let (topo, mut net) = mesh_net(4, 1, SimConfig::default());
        net.send(topo.node_at(0, 1), topo.node_at(3, 1), 24).unwrap(); // transits (2,1)
        net.send(topo.node_at(2, 0), topo.node_at(2, 1), 8).unwrap(); // destined there
        net.run(6);
        net.inject_node_fault(topo.node_at(2, 1));
        assert_eq!(net.stats.killed_msgs, 2);
        assert!(net.drain(1_000));
    }

    #[test]
    fn unroutable_verdict_counts_and_removes() {
        struct Refuse;
        struct RefuseCtl;
        impl RoutingAlgorithm for Refuse {
            fn name(&self) -> String {
                "refuse".into()
            }
            fn num_vcs(&self) -> usize {
                1
            }
            fn controller(&self, _t: &dyn Topology, _n: NodeId) -> Box<dyn NodeController> {
                Box::new(RefuseCtl)
            }
        }
        impl NodeController for RefuseCtl {
            fn route(
                &mut self,
                _v: &RouterView<'_>,
                _h: &mut Header,
                _ip: Option<PortId>,
                _iv: VcId,
            ) -> Decision {
                Decision::new(Verdict::Unroutable, 2)
            }
        }
        let topo = Arc::new(Mesh2D::new(3, 3));
        let mut net = Network::builder(topo.clone()).build(&Refuse).expect("valid");
        net.send(topo.node_at(0, 0), topo.node_at(2, 2), 4).unwrap();
        net.run(10);
        assert_eq!(net.stats.unroutable_msgs, 1);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn decision_steps_are_recorded() {
        let (topo, mut net) = mesh_net(4, 3, SimConfig::default());
        net.send(topo.node_at(0, 0), topo.node_at(2, 0), 2).unwrap();
        assert!(net.drain(1_000));
        // 3 routing decisions (source + 2 intermediate? source + node(1,0));
        // destination ejects without a decision (recorded as 0 steps)
        assert!(net.stats.decision_steps.count >= 3);
        assert_eq!(net.stats.decision_steps.max, 3);
    }

    #[test]
    fn control_plane_propagates_with_unit_latency() {
        struct Gossip;
        struct GossipCtl {
            heard: i64,
        }
        impl RoutingAlgorithm for Gossip {
            fn name(&self) -> String {
                "gossip".into()
            }
            fn num_vcs(&self) -> usize {
                1
            }
            fn controller(&self, _t: &dyn Topology, _n: NodeId) -> Box<dyn NodeController> {
                Box::new(GossipCtl { heard: 0 })
            }
        }
        impl NodeController for GossipCtl {
            fn route(
                &mut self,
                _v: &RouterView<'_>,
                _h: &mut Header,
                _ip: Option<PortId>,
                _iv: VcId,
            ) -> Decision {
                Decision::new(Verdict::Wait, 1)
            }
            fn on_fault(&mut self, view: &RouterView<'_>, _port: PortId) -> Vec<ControlMsg> {
                // flood a token to all alive neighbours
                (0..view.link_alive.len())
                    .filter(|&p| view.link_alive[p])
                    .map(|p| ControlMsg { port: PortId(p as u8), payload: vec![1] })
                    .collect()
            }
            fn on_control(
                &mut self,
                view: &RouterView<'_>,
                _from: PortId,
                payload: &[i64],
            ) -> Vec<ControlMsg> {
                if self.heard == 0 && payload == [1] {
                    self.heard = 1;
                    (0..view.link_alive.len())
                        .filter(|&p| view.link_alive[p])
                        .map(|p| ControlMsg { port: PortId(p as u8), payload: vec![1] })
                        .collect()
                } else {
                    Vec::new()
                }
            }
            fn state_word(&self) -> i64 {
                self.heard
            }
        }
        let topo = Arc::new(Mesh2D::new(5, 5));
        let mut net = Network::builder(topo.clone()).build(&Gossip).expect("valid");
        net.inject_link_fault(topo.node_at(2, 2), EAST);
        let settled = net.settle_control(1_000).expect("settles");
        // flood reaches the far corner within diameter+1 cycles
        assert!(settled <= 10, "settled in {settled}");
        for n in topo.nodes() {
            if n != topo.node_at(2, 2) && n != topo.node_at(3, 2) {
                assert_eq!(net.controller(n).state_word(), 1, "node {n} heard");
            }
        }
        assert!(net.stats.control_msgs > 20);
    }

    /// Regression for the silent flit-loss bug: a flit caught in an output
    /// register when its link dies used to hit a `debug_assert!` only —
    /// release builds dropped the flit on the floor and leaked the message
    /// (accounting never balanced, `drain` hung). This exercises a fault
    /// path that bypasses `inject_link_fault`'s worm ripping by flipping
    /// the link directly in the fault set. Must pass in debug AND release.
    #[test]
    fn dead_link_flit_is_killed_not_silently_dropped() {
        let topo = Arc::new(Mesh2D::new(4, 4));
        let algo = Xy { mesh: (*topo).clone(), steps: 1 };
        let sink = Arc::new(ftr_obs::RingSink::new(4096));
        let mut net =
            Network::builder(topo.clone()).trace(sink.clone()).build(&algo).expect("valid");
        let id = net.send(topo.node_at(0, 1), topo.node_at(3, 1), 6).unwrap();
        // advance until a flit of the worm sits on the (1,1)->(2,1) link
        let hot = topo.node_at(1, 1);
        for _ in 0..50 {
            if net.output_register_occupied(hot, EAST) {
                break;
            }
            net.step();
        }
        assert!(net.output_register_occupied(hot, EAST), "worm must reach the link");
        // rip the link out from under the engine without killing the worm
        // (the link map follows the fault set, as at every mutation site)
        let t = Arc::clone(&net.topo);
        net.faults.fail_link(t.as_ref(), hot, EAST);
        net.links.refresh_around(t.as_ref(), &net.faults, hot);
        net.step();
        assert_eq!(net.stats.flits_dropped_on_dead_link, 1);
        assert_eq!(net.stats.killed_msgs, 1, "message killed through the normal path");
        assert!(!net.stats.tracks(id), "no leaked in-flight entry");
        assert!(net.stats.accounting_balanced(), "balance must hold in every build profile");
        let killed =
            sink.events().iter().any(|e| matches!(e.kind, EventKind::Kill { msg } if msg == id.0));
        assert!(killed, "kill event emitted");
        assert!(net.drain(1_000), "engine still drains after the drop");
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn occupancy_sampling_skips_cycle_zero() {
        let topo = Arc::new(Mesh2D::new(4, 4));
        let algo = Xy { mesh: (*topo).clone(), steps: 1 };
        // shorter than one period: no samples at all (cycle 0 used to
        // contribute a guaranteed all-zero sample per node)
        let registry = Arc::new(MetricsRegistry::new());
        let mut net =
            Network::builder(topo.clone()).metrics(registry.clone()).build(&algo).expect("valid");
        for _ in 0..OCCUPANCY_SAMPLE_PERIOD {
            net.step();
        }
        let snap = registry.histogram_snapshot("sim.buffer_occupancy").expect("registered");
        assert_eq!(snap.count, 0, "no sample before the first full period");
        // k cycles sample at p, 2p, ... floor(k/p) times, once per node
        let registry = Arc::new(MetricsRegistry::new());
        let mut net =
            Network::builder(topo.clone()).metrics(registry.clone()).build(&algo).expect("valid");
        let k = 2 * OCCUPANCY_SAMPLE_PERIOD + 1; // cycles 0..=2p run; p and 2p sample
        for _ in 0..k {
            net.step();
        }
        let snap = registry.histogram_snapshot("sim.buffer_occupancy").expect("registered");
        assert_eq!(snap.count, 2 * topo.num_nodes() as u64);
    }

    #[test]
    fn active_set_tracks_work_exactly() {
        let (topo, mut net) = mesh_net(4, 1, SimConfig::default());
        assert!(net.active_nodes().is_empty(), "idle network, empty set");
        net.send(topo.node_at(0, 0), topo.node_at(3, 3), 4).unwrap();
        assert_eq!(net.active_nodes(), vec![topo.node_at(0, 0)], "send activates the source");
        assert!(net.drain(1_000));
        assert!(net.active_nodes().is_empty(), "drained network, empty set again");
        // the invariant holds mid-flight too: active ⟺ has_work
        net.send(topo.node_at(1, 1), topo.node_at(3, 0), 8).unwrap();
        for _ in 0..30 {
            net.step();
            for n in topo.nodes() {
                let active = net.active_mask[n.idx()];
                assert_eq!(active, net.chans.has_work(n.idx()), "node {n} at {}", net.cycle());
            }
        }
    }

    #[test]
    fn active_set_matches_dense_reference_under_faults_and_retries() {
        let mk = |dense: bool| {
            let topo = Arc::new(Mesh2D::new(5, 5));
            let algo = Xy { mesh: (*topo).clone(), steps: 2 };
            let plan = FaultPlan::new().transient_link(40, NodeId(6), EAST, 80).transient_node(
                100,
                NodeId(12),
                120,
            );
            let sink = Arc::new(ftr_obs::RingSink::new(1 << 16));
            let mut net = Network::builder(topo.clone())
                .fault_plan(plan)
                .retry(RetryPolicy { max_attempts: 3, backoff_cycles: 10 })
                .trace(sink.clone())
                .build(&algo)
                .expect("valid");
            net.set_dense_reference(dense);
            net.set_measuring(true);
            (topo, net, sink)
        };
        let (topo, mut act, sink_a) = mk(false);
        let (_, mut dense, sink_d) = mk(true);
        let mut tf_a = TrafficSource::new(Pattern::Uniform, 0.15, 4, 9);
        let mut tf_d = TrafficSource::new(Pattern::Uniform, 0.15, 4, 9);
        for _ in 0..400 {
            for (s, d, l) in tf_a.tick(topo.as_ref(), act.faults()) {
                let _ = act.send(s, d, l);
            }
            for (s, d, l) in tf_d.tick(topo.as_ref(), dense.faults()) {
                let _ = dense.send(s, d, l);
            }
            act.step();
            dense.step();
            assert_eq!(act.last_step_moved(), dense.last_step_moved(), "cycle {}", dense.cycle());
        }
        while (act.in_flight() > 0 || dense.in_flight() > 0) && act.cycle() < 10_000 {
            act.step();
            dense.step();
        }
        assert!(act.stats.injected_msgs > 100, "traffic actually flowed");
        assert_eq!(act.stats, dense.stats, "bit-identical stats");
        assert_eq!(sink_a.events(), sink_d.events(), "bit-identical trace streams");
    }

    #[test]
    fn sharded_step_is_bit_identical_and_spawns_real_threads() {
        // the E15-shaped workload of the lockstep test above, run on one,
        // two (inline) and three (forced OS-thread) shards — stats and
        // trace streams must be bit-identical across all of them
        let mk = |threads: usize, spawn_threshold: usize| {
            let topo = Arc::new(Mesh2D::new(5, 5));
            let algo = Xy { mesh: (*topo).clone(), steps: 2 };
            let plan = FaultPlan::new().transient_link(40, NodeId(6), EAST, 80).transient_node(
                100,
                NodeId(12),
                120,
            );
            let sink = Arc::new(ftr_obs::RingSink::new(1 << 16));
            let mut net = Network::builder(topo.clone())
                .threads(threads)
                .spawn_threshold(spawn_threshold)
                .fault_plan(plan)
                .retry(RetryPolicy { max_attempts: 3, backoff_cycles: 10 })
                .trace(sink.clone())
                .build(&algo)
                .expect("valid");
            net.set_measuring(true);
            (topo, net, sink)
        };
        let (topo, mut seq, sink_1) = mk(1, usize::MAX);
        let (_, mut two, sink_2) = mk(2, usize::MAX); // multi-shard, inline
        let (_, mut os3, sink_3) = mk(3, 0); // multi-shard, forced OS threads
        assert_eq!(seq.threads(), 1);
        assert_eq!(two.threads(), 2);
        assert_eq!(os3.threads(), 3);
        let mut tfs: Vec<TrafficSource> =
            (0..3).map(|_| TrafficSource::new(Pattern::Uniform, 0.15, 4, 9)).collect();
        for _ in 0..400 {
            for (net, tf) in [&mut seq, &mut two, &mut os3].into_iter().zip(tfs.iter_mut()) {
                for (s, d, l) in tf.tick(topo.as_ref(), net.faults()) {
                    let _ = net.send(s, d, l);
                }
                net.step();
            }
            assert_eq!(seq.last_step_moved(), two.last_step_moved(), "cycle {}", seq.cycle());
            assert_eq!(seq.last_step_moved(), os3.last_step_moved(), "cycle {}", seq.cycle());
        }
        while (seq.in_flight() > 0 || two.in_flight() > 0 || os3.in_flight() > 0)
            && seq.cycle() < 10_000
        {
            seq.step();
            two.step();
            os3.step();
        }
        assert!(seq.stats.injected_msgs > 100, "traffic actually flowed");
        assert_eq!(seq.stats, two.stats, "2-shard stats bit-identical");
        assert_eq!(seq.stats, os3.stats, "3-shard (OS threads) stats bit-identical");
        assert_eq!(sink_1.events(), sink_2.events(), "2-shard trace bit-identical");
        assert_eq!(sink_1.events(), sink_3.events(), "3-shard trace bit-identical");
    }

    #[test]
    fn threads_cap_at_node_count() {
        let topo = Arc::new(Mesh2D::new(3, 3));
        let algo = Xy { mesh: (*topo).clone(), steps: 1 };
        let net = Network::builder(topo.clone()).threads(64).build(&algo).expect("valid");
        assert_eq!(net.threads(), 9, "shards cap at the node count");
    }

    /// One message across a quiet mesh; returns its latency.
    fn solo_latency(steps: u32, cps: u32) -> u64 {
        let cfg = SimConfig { decision_cycles_per_step: cps, ..Default::default() };
        let (topo, mut net) = mesh_net(4, steps, cfg);
        net.set_measuring(true);
        net.send(topo.node_at(0, 0), topo.node_at(3, 0), 2).unwrap();
        assert!(net.drain(10_000));
        net.stats.latency.min
    }

    #[test]
    fn zero_step_decision_resolves_combinationally() {
        // a modeled decision cost of 0 behaves exactly like cost 1: the
        // verdict applies in the first-sight cycle with no waiting phase
        // (total delay 0 or 1 both mean "within this cycle")
        assert_eq!(solo_latency(0, 1), solo_latency(1, 1));
        // while cost 2 really does insert one waiting cycle per decision
        // (3 routing decisions on the 3-hop path)
        assert_eq!(solo_latency(2, 1) - solo_latency(1, 1), 3);
    }

    #[test]
    fn zero_cycles_per_step_models_a_free_decision_stage() {
        // decision_cycles_per_step = 0 zeroes the delay whatever the step
        // count — same behaviour as a 1-cycle decision, never a stall
        assert_eq!(solo_latency(3, 0), solo_latency(1, 1));
        // and restoring the per-step cost brings the waiting cycles back:
        // steps=3, cps=1 → 2 waiting cycles at each of the 3 decisions
        assert_eq!(solo_latency(3, 1) - solo_latency(3, 0), 6);
    }

    // ------------------------------------------------ switch allocation

    /// The switch allocator as it was before the lane walk, kept verbatim
    /// as the oracle of the equivalence property below: ejection per input
    /// port, then for every free output port a cyclic scan over all
    /// `(degree + 1) · vcs` input slots from the port's round-robin
    /// pointer.
    fn eject_switch_node_scan(
        ctx: &StepCtx<'_>,
        ch: &mut ChanRef<'_>,
        scr: &mut ShardScratch,
        ni: usize,
    ) {
        let n = NodeId(ni as u32);
        let nports = ctx.degree + 1;
        scr.used.clear();
        scr.used.resize(nports, false);
        for ip in 0..nports {
            if scr.used[ip] {
                continue;
            }
            let lanes = if ip == ctx.degree { 1 } else { ctx.vcs };
            for iv in 0..lanes {
                if ch.route(ni, ip, iv) != RouteState::Local || ch.fifo_len(ni, ip, iv) == 0 {
                    continue;
                }
                let flit = ch.fifo_pop_front(ni, ip, iv).expect("checked");
                scr.moved = true;
                scr.used[ip] = true;
                if let Some(h) = flit.header() {
                    scr.ops.push(StatOp::HeadArrival(flit.msg, h.hops));
                }
                let is_tail = flit.ends_message();
                if is_tail {
                    scr.ops.push(StatOp::Deliver(flit.msg));
                    emit_sh(ctx, scr, || EventKind::Deliver { node: n, msg: flit.msg.0 });
                    ch.reset_route(ni, ip, iv);
                }
                if ip < ctx.degree {
                    scr.credit_returns.push((ni as u32, ip as u8, iv as u8));
                }
                break;
            }
        }
        for p in 0..ctx.degree {
            if ch.out_reg(ni, p).is_some() {
                continue;
            }
            let slots = nports * ctx.vcs;
            let start = ch.rr(ni, p) as usize;
            let mut winner: Option<(usize, usize, VcId)> = None;
            let passes: &[bool] =
                if ctx.cfg.prioritize_misrouted { &[true, false] } else { &[false] };
            'arb: for &misrouted_only in passes {
                for off in 0..slots {
                    let s = (start + off) % slots;
                    let ip = s / ctx.vcs;
                    let iv = s % ctx.vcs;
                    let lanes = if ip == ctx.degree { 1 } else { ctx.vcs };
                    if iv >= lanes || scr.used[ip] {
                        continue;
                    }
                    if misrouted_only && !ch.misrouted(ni, ip, iv) {
                        continue;
                    }
                    let RouteState::Out(op, ov) = ch.route(ni, ip, iv) else { continue };
                    if op.idx() != p || ch.fifo_len(ni, ip, iv) == 0 {
                        continue;
                    }
                    if ch.out_credits(ni, p, ov.idx()) == 0 {
                        continue;
                    }
                    winner = Some((ip, iv, ov));
                    ch.set_rr(ni, p, ((s + 1) % slots) as u32);
                    break 'arb;
                }
            }
            let Some((ip, iv, ov)) = winner else { continue };
            scr.used[ip] = true;
            let mut flit = ch.fifo_pop_front(ni, ip, iv).expect("winner has flit");
            scr.moved = true;
            flit.bump_hops();
            let is_tail = flit.ends_message();
            if is_tail {
                ch.reset_route(ni, ip, iv);
                ch.set_out_owner(ni, p, ov.idx(), None);
                emit_sh(ctx, scr, || EventKind::VcRelease {
                    node: n,
                    msg: flit.msg.0,
                    port: PortId(p as u8),
                    vc: ov,
                });
            }
            let c = ch.out_credits(ni, p, ov.idx());
            ch.set_out_credits(ni, p, ov.idx(), c - 1);
            ch.sub_out_assigned_sat(ni, p, 1);
            ch.set_out_reg(ni, p, Some((ov, flit)));
            if ip < ctx.degree {
                scr.credit_returns.push((ni as u32, ip as u8, iv as u8));
            }
        }
    }

    /// One node of `degree` ports × `vcs` VCs in a random lane state:
    /// FIFO contents (heads of random length and misroute marker, bodies,
    /// tails), routes, lane misrouted flags, credits, output owners and
    /// registers, round-robin pointers (phantom injection slots included)
    /// and output loads. The occupancy level varies per draw so sparse and
    /// saturated nodes both appear.
    fn random_node(rng: &mut ftr_topo::SimpleRng, degree: usize, vcs: usize) -> Channels {
        let depth = 1 + rng.below(4);
        let geo = Geometry::new(1, degree, vcs, depth);
        let mut chans = Channels::new(geo);
        let mut ch = chans.full_mut();
        let sparsity = 1 + rng.below(4);
        let mut msg = 0u64;
        for ip in 0..=degree {
            for iv in 0..geo.vcs_at(ip) {
                let len = if rng.below(sparsity) == 0 { 1 + rng.below(depth) } else { 0 };
                for seq in 0..len {
                    msg += 1;
                    let flit = match rng.below(3) {
                        0 => {
                            let mut h = Header::new(
                                MessageId(msg),
                                NodeId(0),
                                NodeId(1),
                                1 + rng.below(4) as u32,
                            );
                            h.misrouted = rng.below(2) == 0;
                            h.hops = rng.below(5) as u32;
                            let mut f = Flit::head(h);
                            f.seq = seq as u32;
                            f
                        }
                        1 => Flit::new(FlitKind::Body, MessageId(msg), seq as u32),
                        _ => Flit::new(FlitKind::Tail, MessageId(msg), seq as u32),
                    };
                    ch.fifo_push_back(0, ip, iv, flit);
                }
                let route = match rng.below(5) {
                    0 => RouteState::Unrouted,
                    1 => RouteState::Local,
                    _ => {
                        RouteState::Out(PortId(rng.below(degree) as u8), VcId(rng.below(vcs) as u8))
                    }
                };
                ch.set_route(0, ip, iv, route);
                ch.set_misrouted(0, ip, iv, rng.below(3) == 0);
            }
        }
        for p in 0..degree {
            for v in 0..vcs {
                ch.set_out_credits(0, p, v, rng.below(depth + 1) as u32);
                if rng.below(2) == 0 {
                    ch.set_out_owner(0, p, v, Some(MessageId(rng.below(64) as u64)));
                }
            }
            if rng.below(4) == 0 {
                let f = Flit::new(FlitKind::Body, MessageId(u64::MAX), 0);
                ch.set_out_reg(0, p, Some((VcId(rng.below(vcs) as u8), f)));
            }
            ch.set_rr(0, p, rng.below((degree + 1) * vcs) as u32);
            ch.set_out_assigned(0, p, rng.below(9) as u32);
        }
        chans
    }

    /// Runs the lane-walk allocator and the slot-scan oracle side by side
    /// on one random node for several cycles (output registers drained
    /// between them, so round-robin pointers advance and rotate) and
    /// requires identical arena state and identical side effects.
    fn allocators_agree(
        seed: u64,
        degree: usize,
        vcs: usize,
        prioritize: bool,
    ) -> Result<(), TestCaseError> {
        let mut rng = ftr_topo::SimpleRng::new(seed);
        // the allocator never reads the link map; any map of this degree
        let links = LinkMap::new(&ftr_topo::Hypercube::new(degree as u32));
        let cfg = SimConfig { prioritize_misrouted: prioritize, ..Default::default() };
        let ctx = StepCtx { links: &links, cfg, vcs, degree, cycle: 7, sink_on: true };
        let mut walk = random_node(&mut rng, degree, vcs);
        let mut scan = walk.clone();
        let (mut sw, mut ss) = (ShardScratch::default(), ShardScratch::default());
        for round in 0..4 {
            eject_switch_node(&ctx, &mut walk.full_mut(), &mut sw, 0);
            eject_switch_node_scan(&ctx, &mut scan.full_mut(), &mut ss, 0);
            prop_assert_eq!(&walk, &scan, "arena state, round {}", round);
            prop_assert_eq!(&sw.ops, &ss.ops, "stats ops, round {}", round);
            prop_assert_eq!(&sw.events, &ss.events, "trace events, round {}", round);
            prop_assert_eq!(&sw.credit_returns, &ss.credit_returns, "credits, round {}", round);
            prop_assert_eq!(sw.moved, ss.moved, "moved, round {}", round);
            for p in 0..degree {
                walk.full_mut().set_out_reg(0, p, None);
                scan.full_mut().set_out_reg(0, p, None);
            }
        }
        Ok(())
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn allocator_matches_slot_scan_on_mesh_shapes(
            seed in any::<u64>(),
            vcs in 1usize..3,
            prioritize in any::<bool>(),
        ) {
            allocators_agree(seed, 4, vcs, prioritize)?;
        }

        #[test]
        fn allocator_matches_slot_scan_on_6_cube_with_5_vcs(
            seed in any::<u64>(),
            prioritize in any::<bool>(),
        ) {
            allocators_agree(seed, 6, 5, prioritize)?;
        }

        /// `(degree + 1) · vcs = 72` slots: more than one 64-bit word.
        #[test]
        fn allocator_matches_slot_scan_beyond_64_slots(
            seed in any::<u64>(),
            prioritize in any::<bool>(),
        ) {
            allocators_agree(seed, 8, 8, prioritize)?;
        }
    }

    #[test]
    fn misrouted_first_pass_overrides_round_robin() {
        // two lanes want east; the pointer favours the direct one, the
        // fairness pass grants the misrouted one
        let topo = Mesh2D::new(2, 2);
        let links = LinkMap::new(&topo);
        let grant = |prioritize: bool| {
            let mut chans = Channels::new(Geometry::new(1, 4, 1, 2));
            let mut ch = chans.full_mut();
            for (ip, msg, misrouted) in [(1usize, 1u64, false), (2, 2, true)] {
                let f = Flit::new(FlitKind::Body, MessageId(msg), 1);
                ch.fifo_push_back(0, ip, 0, f);
                ch.set_route(0, ip, 0, RouteState::Out(EAST, VcId(0)));
                ch.set_misrouted(0, ip, 0, misrouted);
            }
            ch.set_rr(0, EAST.idx(), 1);
            let cfg = SimConfig { prioritize_misrouted: prioritize, ..Default::default() };
            let ctx = StepCtx { links: &links, cfg, vcs: 1, degree: 4, cycle: 0, sink_on: false };
            let mut scr = ShardScratch::default();
            eject_switch_node(&ctx, &mut ch, &mut scr, 0);
            let (granted, rr) =
                (ch.out_reg(0, EAST.idx()).map(|(_, f)| f.msg), ch.rr(0, EAST.idx()));
            (granted, rr)
        };
        assert_eq!(grant(false), (Some(MessageId(1)), 2), "round-robin from slot 1");
        assert_eq!(grant(true), (Some(MessageId(2)), 3), "misrouted lane first");
    }

    // --------------------------------------------------------- link map

    /// The map's wiring equals `neighbor` + `port_towards` on every
    /// topology family, boundary and wrap-around ports included.
    #[test]
    fn link_map_wiring_matches_topology() {
        let topos: Vec<Box<dyn Topology>> = vec![
            Box::new(Mesh2D::new(5, 3)),
            Box::new(ftr_topo::Hypercube::new(5)),
            Box::new(ftr_topo::Torus2D::new(3, 4)),
            Box::new(ftr_topo::KAryNCube::mesh(3, 3)),
            Box::new(ftr_topo::KAryNCube::torus(3, 2)),
        ];
        for topo in &topos {
            let links = LinkMap::new(topo.as_ref());
            for n in topo.nodes() {
                for p in 0..=topo.degree() {
                    let p = PortId(p as u8);
                    let want = topo.neighbor(n, p).map(|m| (m, topo.port_towards(m, n).unwrap()));
                    assert_eq!(links.far(n, p), want, "{} {n} {p:?}", topo.name());
                    assert_eq!(links.usable(n, p), want.is_some());
                }
            }
        }
    }

    /// Asserts the link map equals the fault set on every `(node, port)`.
    fn assert_map_coherent(net: &Network, when: &str) {
        for n in net.topo.nodes() {
            assert_eq!(net.links.node_faulty(n), net.faults.node_faulty(n), "{when}: node {n}");
            for p in 0..=net.topo.degree() {
                let p = PortId(p as u8);
                assert_eq!(
                    net.links.usable(n, p),
                    net.faults.link_usable(net.topo.as_ref(), n, p),
                    "{when}: ({n}, {p:?})"
                );
            }
        }
    }

    #[test]
    fn link_map_follows_mixed_fault_plan() {
        let topo = Arc::new(Mesh2D::new(4, 4));
        let (a, b, c) = (topo.node_at(1, 1), topo.node_at(2, 1), topo.node_at(2, 2));
        let corner = topo.node_at(0, 0);
        use FaultAction::*;
        let actions = [
            FailLink(a, EAST),
            FailNodeSilent(b),
            // repaired while its far endpoint b is still dead: stays unusable
            RepairLink(a, EAST),
            FailNode(c),
            // b comes back next to its dead north neighbour c
            RepairNodeSilent(b),
            FailLinkSilent(b, EAST),
            // a link at a dead node fails and repairs underneath it
            FailLink(c, NORTH),
            RepairLinkSilent(b, EAST),
            RepairNode(c),
            RepairLink(c, NORTH),
            // unwired port: no-op
            FailLink(corner, WEST),
            FailNodeSilent(a),
            FailNode(b),
            RepairNode(a),
            RepairNodeSilent(b),
        ];
        let mut plan = FaultPlan::new();
        for (i, &act) in actions.iter().enumerate() {
            plan = plan.at(2 * i as u64 + 1, act);
        }
        let algo = Xy { mesh: (*topo).clone(), steps: 1 };
        let mut net = Network::builder(topo.clone()).fault_plan(plan).build(&algo).expect("valid");
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.2, 4, 3);
        assert_map_coherent(&net, "build");
        for _ in 0..2 * actions.len() + 2 {
            for (s, d, l) in tf.tick(topo.as_ref(), net.faults()) {
                let _ = net.send(s, d, l);
            }
            net.step();
            assert_map_coherent(&net, &format!("cycle {}", net.cycle()));
        }
        assert!(net.faults().is_empty(), "every fault was repaired");
        assert!(net.drain(5_000));
        assert!(net.stats.accounting_balanced());
    }
}
