//! Pre-drawn traffic and the two ways of driving a network through it:
//! bare (the untraced run) and per-cycle timed (the traced run).

use crate::report::Checks;
use crate::timed::{CtlCounters, SinkCounters};
use ftr_obs::InterpProfiler;
use ftr_sim::{Network, Pattern, TrafficSource};
use ftr_topo::{FaultSet, NodeId, Topology};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Largest share of a traced window that no measured part may cover.
pub const UNATTRIBUTED_BOUND: f64 = 0.05;

/// Messages offered per cycle, drawn before any timing starts.
pub type Sched = Vec<Vec<(NodeId, NodeId, u32)>>;

/// Draws `cycles` cycles of uniform Bernoulli traffic. Destinations avoid
/// the nodes `faults` marks faulty, exactly as a live source would.
pub fn predraw(
    topo: &dyn Topology,
    faults: &FaultSet,
    rate: f64,
    len: u32,
    seed: u64,
    cycles: u64,
) -> Sched {
    let mut tf = TrafficSource::new(Pattern::Uniform, rate, len, seed);
    (0..cycles).map(|_| tf.tick(topo, faults)).collect()
}

/// Messages in a schedule.
pub fn offered(sched: &[Vec<(NodeId, NodeId, u32)>]) -> u64 {
    sched.iter().map(|c| c.len() as u64).sum()
}

/// Offers one cycle's messages and steps. A rejected send is counted by
/// the network and shows up as a failed operation.
pub fn cycle(net: &mut Network, msgs: &[(NodeId, NodeId, u32)]) {
    for &(s, d, l) in msgs {
        let _ = net.send(s, d, l);
    }
    net.step();
}

/// Derives the seed of item `i` from the run seed (splitmix64).
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x632b_e59b_d9b4_e019);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The probes of one traced pass: controller and sink counters, and the
/// interpreter profiler for rule routers that accept one.
pub struct Tracers {
    pub ctl: Arc<CtlCounters>,
    /// Counters of every sink attached to the network.
    pub sinks: Vec<Arc<SinkCounters>>,
    pub profiler: Arc<InterpProfiler>,
}

impl Tracers {
    pub fn new(sinks: usize) -> Self {
        Tracers {
            ctl: Arc::default(),
            sinks: (0..sinks).map(|_| Arc::default()).collect(),
            profiler: Arc::new(InterpProfiler::new()),
        }
    }

    /// Nanoseconds spent so far inside controllers and sinks.
    fn children_ns(&self) -> u64 {
        self.ctl.busy_ns() + self.sinks.iter().map(|s| s.ns.load(Ordering::Relaxed)).sum::<u64>()
    }
}

/// Per-cycle timing of the traced run's driven cycles.
///
/// The window's wall time is measured by one outer timer. Inside it each
/// cycle is split into the sends, the `step` call and the sampling of the
/// active set; inside `step` the controller and sink wrappers time their
/// own calls. `step_self` is the step time those children do not cover.
#[derive(Default)]
pub struct LoopTrace {
    pub cycles: u64,
    pub wall_ns: u64,
    pub sends: u64,
    pub send_ns: u64,
    pub step_ns: u64,
    /// Controller plus sink time inside `step`.
    pub step_children_ns: u64,
    pub sample_ns: u64,
    /// Steps whose children took longer than the step itself: a
    /// double-counting timer. Must stay 0.
    pub overlapping_steps: u64,
    pub active_sum: u64,
    pub in_flight_sum: u64,
}

impl LoopTrace {
    /// Drives `net` through `sched`, timing every part of every cycle.
    pub fn drive(&mut self, net: &mut Network, sched: &[Vec<(NodeId, NodeId, u32)>], t: &Tracers) {
        let start = Instant::now();
        for msgs in sched {
            let t0 = Instant::now();
            for &(s, d, l) in msgs {
                let _ = net.send(s, d, l);
            }
            let t1 = Instant::now();
            let before = t.children_ns();
            net.step();
            let t2 = Instant::now();
            let inside = t.children_ns() - before;
            let step = (t2 - t1).as_nanos() as u64;
            self.sends += msgs.len() as u64;
            self.send_ns += (t1 - t0).as_nanos() as u64;
            self.step_ns += step;
            self.step_children_ns += inside;
            self.overlapping_steps += u64::from(inside > step);
            self.active_sum += net.active_nodes().len() as u64;
            self.in_flight_sum += net.in_flight() as u64;
            self.sample_ns += t2.elapsed().as_nanos() as u64;
        }
        self.cycles += sched.len() as u64;
        self.wall_ns += start.elapsed().as_nanos() as u64;
    }

    /// Share of the window's wall time that no measured part covers (loop
    /// and timer overhead between the parts).
    pub fn unattributed_share(&self) -> f64 {
        let parts = self.send_ns + self.step_ns + self.sample_ns;
        (self.wall_ns as f64 - parts as f64).abs() / self.wall_ns.max(1) as f64
    }

    /// The parts partition the whole: no step is shorter than the children
    /// timed inside it, and the unattributed share stays within its bound.
    pub fn check_partition(&self, ck: &mut Checks) {
        ck.check(self.overlapping_steps == 0, || {
            format!("{} steps timed shorter than their children", self.overlapping_steps)
        });
        let u = self.unattributed_share();
        ck.check(u <= UNATTRIBUTED_BOUND, || {
            format!("unattributed share {u:.4} above {UNATTRIBUTED_BOUND}")
        });
    }
}
