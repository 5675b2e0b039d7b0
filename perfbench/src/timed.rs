//! Outside-in timing wrappers: the traced run swaps these in around the
//! routing algorithm and the trace sinks, so every call the engine makes
//! into a controller or a sink is counted and timed from the benchmark's
//! own code. Nothing inside the program is instrumented.
//!
//! The untraced run never constructs a wrapper; the engine then calls the
//! program's own controllers and sinks directly.

use ftr_obs::{EventKind, TraceEvent, TraceSink};
use ftr_sim::flit::Header;
use ftr_sim::routing::{
    ControlMsg, Decision, NodeController, RouterView, RoutingAlgorithm, Verdict,
};
use ftr_topo::{NodeId, PortId, Topology, VcId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Controller-call counters shared by every node of one network. The
/// atomics publish no other data, so `Relaxed` is enough; the engine calls
/// controllers from one thread.
#[derive(Default)]
pub struct CtlCounters {
    /// `route` calls, Wait re-consults and trace-probe re-runs included.
    pub route_calls: AtomicU64,
    /// Nanoseconds inside `route`.
    pub route_ns: AtomicU64,
    /// `route` calls that returned Route or Deliver.
    pub route_useful: AtomicU64,
    /// Sum of the `steps` of every returned decision (rule
    /// interpretations, for rule controllers).
    pub route_steps: AtomicU64,
    /// Control-plane hook calls (`on_control`/`on_fault`/`on_repair`/
    /// `on_tick`).
    pub ctl_calls: AtomicU64,
    /// Nanoseconds inside the control-plane hooks and the `drain_events`
    /// call the engine makes after each of them.
    pub ctl_ns: AtomicU64,
}

impl CtlCounters {
    /// Total nanoseconds spent inside any controller method.
    pub fn busy_ns(&self) -> u64 {
        self.route_ns.load(Ordering::Relaxed) + self.ctl_ns.load(Ordering::Relaxed)
    }

    fn add(c: &AtomicU64, v: u64) {
        c.fetch_add(v, Ordering::Relaxed);
    }
}

/// A routing algorithm whose controllers time every call.
pub struct TimedAlgo<'a> {
    inner: &'a dyn RoutingAlgorithm,
    counters: Arc<CtlCounters>,
}

impl<'a> TimedAlgo<'a> {
    /// Wraps `inner`; every controller it builds feeds `counters`.
    pub fn new(inner: &'a dyn RoutingAlgorithm, counters: Arc<CtlCounters>) -> Self {
        TimedAlgo { inner, counters }
    }
}

impl RoutingAlgorithm for TimedAlgo<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn num_vcs(&self) -> usize {
        self.inner.num_vcs()
    }

    fn controller(&self, topo: &dyn Topology, node: NodeId) -> Box<dyn NodeController> {
        Box::new(TimedCtl {
            inner: self.inner.controller(topo, node),
            c: Arc::clone(&self.counters),
        })
    }
}

/// Forwards every [`NodeController`] method, the defaulted ones too, so
/// the wrapped controller behaves exactly like the bare one.
struct TimedCtl {
    inner: Box<dyn NodeController>,
    c: Arc<CtlCounters>,
}

impl TimedCtl {
    fn hook(
        &mut self,
        f: impl FnOnce(&mut dyn NodeController) -> Vec<ControlMsg>,
    ) -> Vec<ControlMsg> {
        let t = Instant::now();
        let out = f(self.inner.as_mut());
        CtlCounters::add(&self.c.ctl_ns, ns_since(t));
        CtlCounters::add(&self.c.ctl_calls, 1);
        out
    }
}

impl NodeController for TimedCtl {
    fn route(
        &mut self,
        view: &RouterView<'_>,
        header: &mut Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Decision {
        let t = Instant::now();
        let d = self.inner.route(view, header, in_port, in_vc);
        CtlCounters::add(&self.c.route_ns, ns_since(t));
        CtlCounters::add(&self.c.route_calls, 1);
        CtlCounters::add(&self.c.route_steps, u64::from(d.steps));
        if matches!(d.verdict, Verdict::Route(..) | Verdict::Deliver) {
            CtlCounters::add(&self.c.route_useful, 1);
        }
        d
    }

    fn on_tick(&mut self, view: &RouterView<'_>, cycle: u64) -> Vec<ControlMsg> {
        self.hook(|c| c.on_tick(view, cycle))
    }

    fn drain_events(&mut self) -> Vec<EventKind> {
        let t = Instant::now();
        let out = self.inner.drain_events();
        CtlCounters::add(&self.c.ctl_ns, ns_since(t));
        out
    }

    fn on_control(
        &mut self,
        view: &RouterView<'_>,
        from: PortId,
        payload: &[i64],
    ) -> Vec<ControlMsg> {
        self.hook(|c| c.on_control(view, from, payload))
    }

    fn on_fault(&mut self, view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        self.hook(|c| c.on_fault(view, port))
    }

    fn on_repair(&mut self, view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        self.hook(|c| c.on_repair(view, port))
    }

    fn state_word(&self) -> i64 {
        self.inner.state_word()
    }

    fn relation(
        &mut self,
        view: &RouterView<'_>,
        header: &Header,
        in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        self.inner.relation(view, header, in_port, in_vc)
    }
}

/// Sink-call counters.
#[derive(Default)]
pub struct SinkCounters {
    /// `record` calls.
    pub events: AtomicU64,
    /// Nanoseconds inside `record`.
    pub ns: AtomicU64,
}

/// A trace sink that times every `record` into the sink it wraps.
pub struct TimedSink {
    inner: Arc<dyn TraceSink>,
    c: Arc<SinkCounters>,
}

impl TimedSink {
    /// Wraps `inner`, feeding `counters`.
    pub fn new(inner: Arc<dyn TraceSink>, counters: Arc<SinkCounters>) -> Self {
        TimedSink { inner, c: counters }
    }
}

impl TraceSink for TimedSink {
    fn record(&self, ev: &TraceEvent) {
        let t = Instant::now();
        self.inner.record(ev);
        self.c.ns.fetch_add(ns_since(t), Ordering::Relaxed);
        self.c.events.fetch_add(1, Ordering::Relaxed);
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_sim::MessageId;
    use std::sync::Mutex;

    /// A controller returning a distinct value from every method and
    /// logging each call.
    struct Fake(Arc<Mutex<Vec<&'static str>>>);

    fn msg(w: i64) -> Vec<ControlMsg> {
        vec![ControlMsg { port: PortId(0), payload: vec![w] }]
    }

    impl NodeController for Fake {
        fn route(
            &mut self,
            _: &RouterView<'_>,
            h: &mut Header,
            _: Option<PortId>,
            _: VcId,
        ) -> Decision {
            self.0.lock().unwrap().push("route");
            h.misrouted = true;
            Decision::new(Verdict::Route(PortId(1), VcId(0)), 3)
        }
        fn on_tick(&mut self, _: &RouterView<'_>, _: u64) -> Vec<ControlMsg> {
            self.0.lock().unwrap().push("on_tick");
            msg(1)
        }
        fn drain_events(&mut self) -> Vec<EventKind> {
            self.0.lock().unwrap().push("drain_events");
            vec![EventKind::Kill { msg: 7 }]
        }
        fn on_control(&mut self, _: &RouterView<'_>, _: PortId, p: &[i64]) -> Vec<ControlMsg> {
            self.0.lock().unwrap().push("on_control");
            msg(p[0] + 1)
        }
        fn on_fault(&mut self, _: &RouterView<'_>, _: PortId) -> Vec<ControlMsg> {
            self.0.lock().unwrap().push("on_fault");
            msg(3)
        }
        fn on_repair(&mut self, _: &RouterView<'_>, _: PortId) -> Vec<ControlMsg> {
            self.0.lock().unwrap().push("on_repair");
            msg(4)
        }
        fn state_word(&self) -> i64 {
            self.0.lock().unwrap().push("state_word");
            42
        }
        fn relation(
            &mut self,
            _: &RouterView<'_>,
            _: &Header,
            _: Option<PortId>,
            _: VcId,
        ) -> Vec<(PortId, VcId)> {
            self.0.lock().unwrap().push("relation");
            vec![(PortId(2), VcId(1))]
        }
    }

    struct FakeAlgo(Arc<Mutex<Vec<&'static str>>>);

    impl RoutingAlgorithm for FakeAlgo {
        fn name(&self) -> String {
            "fake".into()
        }
        fn num_vcs(&self) -> usize {
            2
        }
        fn controller(&self, _: &dyn Topology, _: NodeId) -> Box<dyn NodeController> {
            Box::new(Fake(self.0.clone()))
        }
    }

    #[test]
    fn forwards_every_controller_method() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let algo = FakeAlgo(log.clone());
        let counters = Arc::new(CtlCounters::default());
        let timed = TimedAlgo::new(&algo, counters.clone());
        assert_eq!(timed.name(), "fake");
        assert_eq!(timed.num_vcs(), 2);
        let mesh = ftr_topo::Mesh2D::new(2, 2);
        let mut c = timed.controller(&mesh, NodeId(0));

        let (free, load, alive) = (vec![vec![true; 2]; 4], vec![0; 4], vec![true; 4]);
        let view = RouterView {
            node: NodeId(0),
            cycle: 5,
            out_free: &free,
            out_load: &load,
            link_alive: &alive,
        };
        let mut h = Header::new(MessageId(1), NodeId(0), NodeId(3), 2);
        let d = c.route(&view, &mut h, None, VcId(0));
        assert_eq!(d, Decision::new(Verdict::Route(PortId(1), VcId(0)), 3));
        assert!(h.misrouted, "header updates pass through");
        assert_eq!(c.on_tick(&view, 5), msg(1));
        assert_eq!(c.drain_events(), vec![EventKind::Kill { msg: 7 }]);
        assert_eq!(c.on_control(&view, PortId(0), &[1]), msg(2));
        assert_eq!(c.on_fault(&view, PortId(0)), msg(3));
        assert_eq!(c.on_repair(&view, PortId(0)), msg(4));
        assert_eq!(c.state_word(), 42);
        assert_eq!(c.relation(&view, &h, None, VcId(0)), vec![(PortId(2), VcId(1))]);

        assert_eq!(
            *log.lock().unwrap(),
            [
                "route",
                "on_tick",
                "drain_events",
                "on_control",
                "on_fault",
                "on_repair",
                "state_word",
                "relation"
            ]
        );
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        assert_eq!(get(&counters.route_calls), 1);
        assert_eq!(get(&counters.route_useful), 1);
        assert_eq!(get(&counters.route_steps), 3);
        assert_eq!(get(&counters.ctl_calls), 4, "tick, control, fault and repair");
    }

    #[test]
    fn timed_sink_forwards_and_counts() {
        let ring = Arc::new(ftr_obs::RingSink::new(8));
        let counters = Arc::new(SinkCounters::default());
        let s = TimedSink::new(ring.clone(), counters.clone());
        let ev = TraceEvent { cycle: 3, kind: EventKind::Kill { msg: 1 } };
        s.record(&ev);
        s.record(&ev);
        assert_eq!(ring.events(), vec![ev.clone(), ev]);
        assert_eq!(counters.events.load(Ordering::Relaxed), 2);
    }
}
