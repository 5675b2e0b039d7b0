//! The three single-network workloads: one long run each, timed after a
//! warm-up. See `README.md` for why each exists.

use crate::drive::{cycle, offered, predraw, LoopTrace, Sched, Tracers};
use crate::hostref;
use crate::layers::{Counts, CtlLayer, Layers};
use crate::report::{
    end_checks, host_time_metrics, peak_rss_mb, ratio, stats_digest, Checks, Metrics, Samples,
    DIGEST_SEED,
};
use crate::timed::TimedAlgo;
use crate::Outcome;
use ftr_algos::{rules_src, XyRouting};
use ftr_core::{configure, CubeRuleRouter, RouterConfiguration, RuleRouter};
use ftr_sim::{Network, RoutingAlgorithm, SimStats};
use ftr_topo::{FaultSet, Hypercube, Mesh2D, NodeId, Topology};
use std::sync::Arc;
use std::time::Instant;

/// Fewest timed windows in a run, so `run_ms_p90` has at least ten
/// samples beyond it.
const MIN_WINDOWS: u64 = 100;
/// Control-plane budget of the set-up settle.
const SETTLE_BUDGET: u64 = 10_000;

/// A network ready for its first timed cycle, with the set-up split.
pub struct Built {
    pub net: Network,
    pub configure_ns: u64,
    pub build_ns: u64,
    pub settle_ns: u64,
    pub settled: bool,
    pub table_bits: u64,
}

/// Run shape of a workload.
pub struct Shape {
    /// Untimed cycles before the timed window: several mean latencies.
    pub warm: u64,
    /// Timed cycles per second of `--seconds`, sized on a 2-core x86-64
    /// host so one run measures about `--seconds`. The simulated work
    /// depends only on `--seconds`, never on host speed, so the stats
    /// digest of a seed is comparable across hosts and commits.
    pub cycles_per_second: f64,
    /// Cycles per timed window (one `run_ms` sample).
    pub window: u64,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_repeats: usize,
    pub drain_budget: u64,
}

/// One single-network workload.
pub trait Fabric {
    fn shape(&self) -> Shape;
    /// Pre-drawn traffic for `cycles` cycles.
    fn sched(&self, seed: u64, cycles: u64) -> Sched;
    /// Configure, build and settle; with tracers, every controller is
    /// wrapped and the router gets the interpreter profiler if it takes
    /// one.
    fn setup(&self, tr: Option<&Tracers>) -> Built;
    fn layer(&self) -> CtlLayer;
}

/// Builds `algo` over `topo`, wrapped when traced; returns the build time.
fn build(
    topo: Arc<dyn Topology>,
    algo: &dyn RoutingAlgorithm,
    tr: Option<&Tracers>,
) -> (Network, u64) {
    let t = Instant::now();
    let b = Network::builder(topo);
    let net = match tr {
        Some(tr) => b.build(&TimedAlgo::new(algo, Arc::clone(&tr.ctl))),
        None => b.build(algo),
    }
    .expect("valid configuration");
    (net, t.elapsed().as_nanos() as u64)
}

fn settle(mut net: Network, configure_ns: u64, build_ns: u64, table_bits: u64) -> Built {
    let t = Instant::now();
    let settled = net.settle_control(SETTLE_BUDGET).is_some();
    let settle_ns = t.elapsed().as_nanos() as u64;
    Built { net, configure_ns, build_ns, settle_ns, settled, table_bits }
}

fn configured(name: &str, src: &str) -> (RouterConfiguration, u64) {
    let t = Instant::now();
    let cfg = configure(name, src).expect("shipped program compiles");
    (cfg, t.elapsed().as_nanos() as u64)
}

/// Rule-driven ROUTE_C on a 6-cube with two node faults announced and
/// settled before timing. (A link fault deadlocks the rule-driven router;
/// see `README.md`.)
pub struct RouteCCube6;

const CUBE_DIM: u32 = 6;
const CUBE_NODE_FAULTS: [NodeId; 2] = [NodeId(0b10_1010), NodeId(0b00_1011)];

impl Fabric for RouteCCube6 {
    fn shape(&self) -> Shape {
        Shape {
            warm: 500,
            cycles_per_second: 2_800.0,
            window: 200,
            setup_repeats: 31,
            drain_budget: 100_000,
        }
    }

    fn sched(&self, seed: u64, cycles: u64) -> Sched {
        let mut f = FaultSet::new();
        CUBE_NODE_FAULTS.iter().for_each(|&n| f.fail_node(n));
        predraw(&Hypercube::new(CUBE_DIM), &f, 0.25, 8, seed, cycles)
    }

    fn setup(&self, tr: Option<&Tracers>) -> Built {
        let cube = Hypercube::new(CUBE_DIM);
        let (cfg, configure_ns) = configured("route_c", &rules_src::route_c_source(CUBE_DIM));
        let bits = cfg.cost.total_table_bits();
        let algo = CubeRuleRouter::new(cfg, cube.clone());
        let (mut net, build_ns) = build(Arc::new(cube), &algo, tr);
        CUBE_NODE_FAULTS.iter().for_each(|&n| net.inject_node_fault(n));
        settle(net, configure_ns, build_ns, bits)
    }

    fn layer(&self) -> CtlLayer {
        CtlLayer::Core
    }
}

/// Rule-driven XY on a fault-free 8x8 mesh.
pub struct RuleXyMesh8x8;

impl Fabric for RuleXyMesh8x8 {
    fn shape(&self) -> Shape {
        Shape {
            warm: 500,
            cycles_per_second: 12_000.0,
            window: 1_000,
            setup_repeats: 21,
            drain_budget: 100_000,
        }
    }

    fn sched(&self, seed: u64, cycles: u64) -> Sched {
        predraw(&Mesh2D::new(8, 8), &FaultSet::new(), 0.2, 8, seed, cycles)
    }

    fn setup(&self, tr: Option<&Tracers>) -> Built {
        let mesh = Mesh2D::new(8, 8);
        let (cfg, configure_ns) = configured("xy", rules_src::XY);
        let bits = cfg.cost.total_table_bits();
        let mut algo = RuleRouter::new(cfg, mesh.clone(), 1);
        if let Some(tr) = tr {
            algo = algo.with_profiler(tr.profiler.clone());
        }
        let (net, build_ns) = build(Arc::new(mesh), &algo, tr);
        settle(net, configure_ns, build_ns, bits)
    }

    fn layer(&self) -> CtlLayer {
        CtlLayer::Core
    }
}

/// Native XY on a 256x256 mesh at light load.
pub struct XyMesh256Light;

const BIG_SIDE: u32 = 256;

impl Fabric for XyMesh256Light {
    fn shape(&self) -> Shape {
        Shape {
            warm: 600,
            cycles_per_second: 220.0,
            window: 20,
            setup_repeats: 15,
            drain_budget: 20_000,
        }
    }

    fn sched(&self, seed: u64, cycles: u64) -> Sched {
        predraw(&Mesh2D::new(BIG_SIDE, BIG_SIDE), &FaultSet::new(), 0.0005, 8, seed, cycles)
    }

    fn setup(&self, tr: Option<&Tracers>) -> Built {
        let mesh = Mesh2D::new(BIG_SIDE, BIG_SIDE);
        let algo = XyRouting::new(mesh.clone());
        let (net, build_ns) = build(Arc::new(mesh), &algo, tr);
        settle(net, 0, build_ns, 0)
    }

    fn layer(&self) -> CtlLayer {
        CtlLayer::Algos
    }
}

/// Runs one single-network workload: the untraced pass always, and with
/// `trace` the traced pass over the same seed and work after it.
pub fn run(f: &dyn Fabric, seed: u64, seconds: f64, trace: bool, ck: &mut Checks) -> Outcome {
    let sh = f.shape();
    let windows =
        ((seconds * sh.cycles_per_second / sh.window as f64).round() as u64).max(MIN_WINDOWS);
    let sched = f.sched(seed, sh.warm + windows * sh.window);
    let attempted = offered(&sched);
    let (warm, timed) = sched.split_at(sh.warm as usize);

    // untraced pass. Set-ups are timed in two groups, before the run and
    // after it, so `setup_s` samples the host at both ends of the run. Each
    // set-up network is freed before the next is built: peak RSS is one
    // network's. The traced invocation needs only the untraced stats and
    // speed, so it sets up once.
    let repeats = if trace { 1 } else { sh.setup_repeats };
    let before = repeats.div_ceil(2);
    let mut setup_s = Samples::default();
    let mut first: Option<SimStats> = None;
    let set_up = |setup_s: &mut Samples, first: &mut Option<SimStats>, ck: &mut Checks| {
        let r0 = hostref::chunk_ns();
        let t = Instant::now();
        let b = f.setup(None);
        let raw = t.elapsed().as_secs_f64();
        setup_s.push(raw, hostref::scale(r0, hostref::chunk_ns()));
        ck.check(b.settled, || "set-up: control plane did not settle".into());
        match first {
            Some(s) => ck.check(*s == b.net.stats, || "set-ups differ in SimStats".into()),
            None => *first = Some(b.net.stats.clone()),
        }
        b.net
    };
    let mut net = set_up(&mut setup_s, &mut first, ck);
    for _ in 1..before {
        drop(net);
        net = set_up(&mut setup_s, &mut first, ck);
    }
    // the whole run a user waits for: the kept network's set-up, warm-up,
    // the timed windows and drain, each part corrected for host speed
    let mut whole_raw_ms = setup_s.last_raw() * 1e3;
    let mut whole_ms = setup_s.last_corrected() * 1e3;
    let mut r0 = hostref::chunk_ns();
    let t = Instant::now();
    for msgs in warm {
        cycle(&mut net, msgs);
    }
    let raw = t.elapsed().as_secs_f64() * 1e3;
    let r1 = hostref::chunk_ns();
    whole_raw_ms += raw;
    whole_ms += raw * hostref::scale(r0, r1);
    r0 = r1;
    net.set_measuring(true);
    let mut win_ms = Samples::default();
    for w in timed.chunks(sh.window as usize) {
        let t = Instant::now();
        for msgs in w {
            cycle(&mut net, msgs);
        }
        let raw = t.elapsed().as_secs_f64() * 1e3;
        let r1 = hostref::chunk_ns();
        win_ms.push(raw, hostref::scale(r0, r1));
        r0 = r1;
    }
    net.set_measuring(false);
    let t = Instant::now();
    let drained = net.drain(sh.drain_budget);
    let raw = t.elapsed().as_secs_f64() * 1e3;
    let r1 = hostref::chunk_ns();
    whole_ms += win_ms.corrected_sum() + raw * hostref::scale(r0, r1);
    whole_raw_ms += win_ms.raw_sum() + raw;
    let mut whole = Samples::default();
    whole.push(whole_raw_ms, whole_ms / whole_raw_ms);
    end_checks(ck, "untraced run", &net.stats, drained);
    let stats = net.stats.clone();
    let mut digest = DIGEST_SEED;
    stats_digest(&stats, net.cycle(), &mut digest);
    drop(net);
    for _ in before..repeats {
        drop(set_up(&mut setup_s, &mut first, ck));
    }

    let metrics = if trace {
        traced(f, warm, timed, &stats, &win_ms, ck)
    } else {
        let mut m = Metrics::default();
        host_time_metrics(&mut m, &setup_s, &win_ms, &whole, timed.len() as u64);
        m.put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB");
        m.put("delivery_ratio", ratio(stats.delivered_msgs as f64, attempted as f64), "ratio");
        m.put("sim_latency_mean_cycles", stats.latency.mean(), "cycles");
        m.put("decision_steps_mean", stats.decision_steps.mean(), "steps");
        m
    };
    println!("run_ms samples: {} windows of {} cycles", windows, sh.window);
    Outcome { attempted, failed: attempted.saturating_sub(stats.delivered_msgs), metrics, digest }
}

/// The traced pass: same seed and work, wrapped controllers, per-cycle
/// timing of the timed window.
fn traced(
    f: &dyn Fabric,
    warm: &[Vec<(NodeId, NodeId, u32)>],
    timed: &[Vec<(NodeId, NodeId, u32)>],
    untraced: &SimStats,
    untraced_ms: &Samples,
    ck: &mut Checks,
) -> Metrics {
    let tr = Tracers::new(0);
    let b = f.setup(Some(&tr));
    ck.check(b.settled, || "traced set-up: control plane did not settle".into());
    let mut net = b.net;
    for msgs in warm {
        cycle(&mut net, msgs);
    }
    net.set_measuring(true);
    // the same windows and host-speed correction as the untraced pass, so
    // the overhead ratio compares like with like
    let mut lt = LoopTrace::default();
    let mut traced_ms = Samples::default();
    let mut r0 = hostref::chunk_ns();
    for w in timed.chunks(f.shape().window as usize) {
        let before = lt.wall_ns;
        lt.drive(&mut net, w, &tr);
        let r1 = hostref::chunk_ns();
        traced_ms.push((lt.wall_ns - before) as f64 / 1e6, hostref::scale(r0, r1));
        r0 = r1;
    }
    net.set_measuring(false);
    let t = Instant::now();
    let drained = net.drain(f.shape().drain_budget);
    let drain_ms = t.elapsed().as_secs_f64() * 1e3;
    end_checks(ck, "traced run", &net.stats, drained);
    ck.check(net.stats == *untraced, || {
        "traced and untraced runs end in different SimStats".into()
    });
    lt.check_partition(ck);
    let mut counts = Counts::default();
    counts.add(&net.stats);
    Layers {
        lt: &lt,
        build_ms: b.build_ns as f64 / 1e6,
        settle_ms: b.settle_ns as f64 / 1e6,
        drain_ms,
        counts,
        ctl: &tr.ctl,
        ctl_layer: f.layer(),
        profiler: &tr.profiler,
        compile_ms: b.configure_ns as f64 / 1e6,
        table_bits: b.table_bits,
        obs: None,
        diag: None,
        replay: None,
        traced_over_untraced: untraced_ms.corrected_sum() / traced_ms.corrected_sum(),
    }
    .metrics()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapped_and_unwrapped_route_c_runs_end_in_equal_stats() {
        let f = RouteCCube6;
        let sched = f.sched(9, 400);
        let tr = Tracers::new(0);
        let mut stats = Vec::new();
        for t in [None, Some(&tr)] {
            let mut b = f.setup(t);
            assert!(b.settled);
            sched.iter().for_each(|msgs| cycle(&mut b.net, msgs));
            assert!(b.net.drain(f.shape().drain_budget));
            stats.push(b.net.stats);
        }
        assert_eq!(stats[0], stats[1]);
        assert!(stats[0].control_msgs > 0, "the fault waves ran through the rule control plane");
        assert!(tr.ctl.ctl_calls.load(std::sync::atomic::Ordering::Relaxed) > 0);
    }
}
