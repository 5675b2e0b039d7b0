//! The per-layer metrics of a traced run, named by crate. Every workload
//! reports every name; a layer the workload does not reach reads 0.

use crate::drive::LoopTrace;
use crate::report::{percentile, ratio, Metrics};
use crate::timed::{CtlCounters, SinkCounters};
use ftr_obs::InterpProfiler;
use ftr_rules::{InterpProbe, Stage};
use ftr_sim::SimStats;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Which crate the measured controllers come from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum CtlLayer {
    /// Rule-driven controllers (`ftr-core`).
    Core,
    /// Native controllers (`ftr-algos`).
    Algos,
}

/// Engine counters summed over every network of a pass.
#[derive(Default)]
pub struct Counts {
    pub decisions: u64,
    pub control_msgs: u64,
    pub control_dropped: u64,
    pub killed: u64,
    pub retried: u64,
    pub abandoned: u64,
    pub rejected: u64,
}

impl Counts {
    pub fn add(&mut self, s: &SimStats) {
        self.decisions += s.decision_steps.count;
        self.control_msgs += s.control_msgs;
        self.control_dropped += s.control_dropped;
        self.killed += s.killed_msgs;
        self.retried += s.retried_msgs;
        self.abandoned += s.abandoned_msgs;
        self.rejected += s.rejected_sends;
    }
}

/// Everything a traced pass measured.
pub struct Layers<'a> {
    pub lt: &'a LoopTrace,
    pub build_ms: f64,
    pub settle_ms: f64,
    pub drain_ms: f64,
    pub counts: Counts,
    pub ctl: &'a CtlCounters,
    pub ctl_layer: CtlLayer,
    /// The interpreter profiler; it stays empty unless the router took it.
    pub profiler: &'a InterpProfiler,
    pub compile_ms: f64,
    pub table_bits: u64,
    /// The FTB sink's counters and the bytes it wrote.
    pub obs: Option<(&'a SinkCounters, u64)>,
    /// The online diagnoser's counters.
    pub diag: Option<&'a SinkCounters>,
    /// Events replayed and the nanoseconds replay took.
    pub replay: Option<(u64, u64)>,
    /// Traced over untraced `sim_cycles_per_s`.
    pub traced_over_untraced: f64,
}

fn load(c: &std::sync::atomic::AtomicU64) -> f64 {
    c.load(Ordering::Relaxed) as f64
}

impl Layers<'_> {
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let lt = self.lt;
        let cyc = lt.cycles as f64;
        m.put("sim.step_ns", ratio(lt.step_ns as f64, cyc), "ns");
        m.put("sim.step_self_ns", ratio((lt.step_ns - lt.step_children_ns) as f64, cyc), "ns");
        m.put("sim.send_ns", ratio(lt.send_ns as f64, lt.sends as f64), "ns");
        m.put("sim.active_nodes_mean", ratio(lt.active_sum as f64, cyc), "nodes");
        m.put("sim.in_flight_mean", ratio(lt.in_flight_sum as f64, cyc), "msgs");
        m.put("sim.build_ms", self.build_ms, "ms");
        m.put("sim.settle_ms", self.settle_ms, "ms");
        m.put("sim.drain_ms", self.drain_ms, "ms");
        let c = &self.counts;
        m.put("sim.decisions", c.decisions as f64, "count");
        m.put("sim.control_msgs", c.control_msgs as f64, "count");
        m.put("sim.control_dropped", c.control_dropped as f64, "count");
        m.put("sim.killed_msgs", c.killed as f64, "count");
        m.put("sim.retried_msgs", c.retried as f64, "count");
        m.put("sim.abandoned_msgs", c.abandoned as f64, "count");
        m.put("sim.rejected_sends", c.rejected as f64, "count");

        // controller layer: the wrapper counters land under the crate the
        // controllers come from; the other crate reads 0
        let k = self.ctl;
        let calls = load(&k.route_calls);
        // the profiler's own cost: `fire_probed` makes three `record_stage`
        // calls per interpretation, the kernel interval holds the premise's
        // and the conclusion interval the kernel's. Route and stage times
        // below have those calls taken out.
        let probed = stage_total(self.profiler, Stage::Premise).0 as f64;
        let probe_ns = if probed > 0.0 { probe_call_ns() } else { 0.0 };
        if probed > 0.0 {
            println!("probe: record_stage_ns={probe_ns} (taken out of route and stage times)");
        }
        let route_ns = load(&k.route_ns) - 3.0 * probed * probe_ns;
        let stage_ns =
            Stage::ALL.iter().map(|&s| stage_total(self.profiler, s).1 as f64).sum::<f64>()
                - 2.0 * probed * probe_ns;
        let ctl = [
            calls,
            ratio(route_ns, calls),
            ratio(calls, c.decisions as f64),
            ratio(load(&k.route_useful), calls),
            load(&k.ctl_calls),
            ratio(load(&k.ctl_ns), load(&k.ctl_calls)),
        ];
        let (core, algos) = match self.ctl_layer {
            CtlLayer::Core => (ctl, [0.0; 6]),
            CtlLayer::Algos => ([0.0; 6], ctl),
        };
        const UNITS: [&str; 6] = ["count", "ns", "ratio", "ratio", "count", "ns"];
        const CORE: [&str; 6] = [
            "core.route_calls",
            "core.route_ns",
            "core.route_calls_per_decision",
            "core.route_useful_ratio",
            "core.ctl_calls",
            "core.ctl_ns",
        ];
        const ALGOS: [&str; 6] = [
            "algos.route_calls",
            "algos.route_ns",
            "algos.route_calls_per_decision",
            "algos.route_useful_ratio",
            "algos.ctl_calls",
            "algos.ctl_ns",
        ];
        for ((name, unit), v) in CORE.into_iter().zip(UNITS).zip(core) {
            m.put(name, v, unit);
        }
        // route time outside the three rule stages: the message interface
        // (input loading, verdict decoding); needs the stage profile
        let route_self = if stage_ns > 0.0 { ratio(route_ns - stage_ns, calls) } else { 0.0 };
        m.put("core.route_self_ns", route_self, "ns");
        for ((name, unit), v) in ALGOS.into_iter().zip(UNITS).zip(algos) {
            m.put(name, v, unit);
        }

        let per_interp = |s, probes: f64| {
            let (n, ns) = stage_total(self.profiler, s);
            ratio(ns as f64, n as f64) - probes * probe_ns
        };
        m.put("rules.premise_ns", per_interp(Stage::Premise, 0.0), "ns");
        m.put("rules.kernel_ns", per_interp(Stage::Kernel, 1.0), "ns");
        m.put("rules.conclusion_ns", per_interp(Stage::Conclusion, 1.0), "ns");
        let interps = match self.ctl_layer {
            CtlLayer::Core => ratio(load(&k.route_steps), calls),
            CtlLayer::Algos => 0.0,
        };
        m.put("rules.interpretations_per_call", interps, "ratio");
        m.put("rules.compile_ms", self.compile_ms, "ms");
        m.put("rules.table_bits", self.table_bits as f64, "bits");

        let (ev, rec_ns, bytes) =
            self.obs.map_or((0.0, 0.0, 0.0), |(s, b)| (load(&s.events), load(&s.ns), b as f64));
        m.put("obs.events", ev, "count");
        m.put("obs.record_ns", ratio(rec_ns, ev), "ns");
        m.put("obs.ftb_bytes_per_event", ratio(bytes, ev), "B");
        m.put(
            "trace.diag_record_ns",
            self.diag.map_or(0.0, |d| ratio(load(&d.ns), load(&d.events))),
            "ns",
        );
        m.put(
            "trace.replay_events_per_s",
            self.replay.map_or(0.0, |(n, ns)| ratio(n as f64 * 1e9, ns as f64)),
            "1/s",
        );
        m.put("bench.traced_over_untraced", self.traced_over_untraced, "ratio");
        m.put("bench.unattributed_share", lt.unattributed_share(), "ratio");
        m
    }
}

/// Nanoseconds one `InterpProbe::record_stage` call takes on a fresh
/// profiler: the median of nine batches of 20,000 calls.
fn probe_call_ns() -> f64 {
    const CALLS: u32 = 20_000;
    let p = InterpProfiler::new();
    let probe: &dyn InterpProbe = black_box(&p);
    let mut batches: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for i in 0..CALLS {
                probe.record_stage(0, Stage::ALL[i as usize % 3], black_box(u64::from(i)));
            }
            t.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect();
    percentile(&mut batches, 0.5)
}

/// Executions and nanoseconds of one stage, summed over rule bases.
fn stage_total(p: &InterpProfiler, s: Stage) -> (u64, u64) {
    (0..p.snapshot().len())
        .map(|b| p.cost(b, s))
        .fold((0, 0), |(n, ns), c| (n + c.count, ns + c.nanos))
}
