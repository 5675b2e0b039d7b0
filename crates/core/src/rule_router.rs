//! The rule-driven router: a [`RoutingAlgorithm`] whose control unit is a
//! compiled rule program executed by the event manager.
//!
//! Every node holds one [`ftr_rules::Machine`] (the "Rule Bases" block of
//! Figure 3). On each head flit the message interface loads header fields
//! and link information into the inputs, fires the program's `route_msg`
//! event, and decodes the cascade's last `RETURN` value:
//!
//! | value | meaning                |
//! |------:|------------------------|
//! | 0..11 | forward via direction  |
//! | 13    | unroutable             |
//! | 14    | wait                   |
//! | 15    | deliver locally        |
//!
//! The number of rule interpretations the cascade used becomes the
//! decision's step count — the rule router therefore exhibits the very
//! overhead the paper measures (1 step for XY, up to 3 for a NAFTA-style
//! escalation chain).

use crate::info_unit::LinkInputs;
use crate::RouterConfiguration;
use ftr_rules::{InputMap, InterpProbe, Machine, Program, Value};
use ftr_sim::flit::Header;
use ftr_sim::routing::{Decision, NodeController, RouterView, RoutingAlgorithm, Verdict};
use ftr_topo::{Mesh2D, NodeId, PortId, Topology, VcId};
use std::sync::Arc;

/// Return-code conventions of `route_msg`.
pub const RET_UNROUTABLE: i64 = 13;
/// Wait code.
pub const RET_WAIT: i64 = 14;
/// Local delivery code.
pub const RET_DELIVER: i64 = 15;

/// The message interface for 2-D mesh programs: loads node coordinates
/// into the `xpos`/`ypos` registers at configuration time and header
/// coordinates into the `xdes`/`ydes` inputs per decision. Every name it
/// uses — registers, inputs and the entry rule base — is resolved against
/// the program once, when the interface is built.
#[derive(Clone, Debug)]
pub struct MeshInterface {
    mesh: Mesh2D,
    xpos: Option<usize>,
    ypos: Option<usize>,
    xdes: Option<usize>,
    ydes: Option<usize>,
    invc: Option<usize>,
    misrouted: Option<usize>,
    link: LinkInputs,
    /// The rule base fired per decision: the program's first.
    entry: Option<usize>,
}

impl MeshInterface {
    /// Creates the interface for `prog` on a mesh.
    pub fn new(mesh: Mesh2D, prog: &Program) -> Self {
        MeshInterface {
            mesh,
            xpos: prog.var("xpos"),
            ypos: prog.var("ypos"),
            xdes: prog.input("xdes"),
            ydes: prog.input("ydes"),
            invc: prog.input("invc"),
            misrouted: prog.input("misrouted"),
            link: LinkInputs::resolve(prog),
            entry: (!prog.rulebases.is_empty()).then_some(0),
        }
    }

    fn init_node(&self, m: &mut Machine, node: NodeId) {
        let (x, y) = self.mesh.coords(node);
        for (reg, v) in [(self.xpos, x), (self.ypos, y)] {
            if let Some(i) = reg {
                m.write_reg(i, &[], Value::Int(v as i64)).expect("coordinate fits register domain");
            }
        }
    }

    /// Loads link information and header fields for one decision.
    fn load(
        &self,
        im: &mut InputMap,
        view: &RouterView<'_>,
        header: &Header,
        in_vc: VcId,
    ) -> ftr_rules::Result<()> {
        self.link.load(im, view, in_vc)?;
        let (dx, dy) = self.mesh.coords(header.dst);
        for (input, v) in [
            (self.xdes, Value::Int(dx as i64)),
            (self.ydes, Value::Int(dy as i64)),
            (self.invc, Value::Int(in_vc.idx() as i64)),
            (self.misrouted, Value::Bool(header.misrouted)),
        ] {
            if let Some(i) = input {
                im.set_input(i, &[], v)?;
            }
        }
        Ok(())
    }
}

/// A rule-driven routing algorithm for 2-D meshes.
pub struct RuleRouter {
    config: Arc<RouterConfiguration>,
    interface: MeshInterface,
    vcs: usize,
    probe: Option<Arc<dyn InterpProbe>>,
}

impl RuleRouter {
    /// Builds a rule router from a configuration. `vcs` is the number of
    /// virtual channels the data path provides (the program addresses them
    /// through the `invc` input).
    pub fn new(config: RouterConfiguration, mesh: Mesh2D, vcs: usize) -> Self {
        RuleRouter {
            interface: MeshInterface::new(mesh, &config.compiled.prog),
            config: Arc::new(config),
            vcs,
            probe: None,
        }
    }

    /// Attaches a per-stage interpreter probe (e.g. an
    /// `ftr_obs::InterpProfiler`); every node machine built afterwards
    /// reports premise/kernel/conclusion timings to it.
    pub fn with_profiler(mut self, probe: Arc<dyn InterpProbe>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// The configuration driving this router.
    pub fn configuration(&self) -> &RouterConfiguration {
        &self.config
    }
}

impl RoutingAlgorithm for RuleRouter {
    fn name(&self) -> String {
        if self.config.optimized {
            format!("rule:{}+opt", self.config.name)
        } else {
            format!("rule:{}", self.config.name)
        }
    }

    fn num_vcs(&self) -> usize {
        self.vcs
    }

    fn controller(&self, _topo: &dyn Topology, node: NodeId) -> Box<dyn NodeController> {
        let mut machine = self.config.machine();
        if let Some(probe) = &self.probe {
            machine.set_probe(Arc::clone(probe));
        }
        self.interface.init_node(&mut machine, node);
        Box::new(RuleNodeController {
            inputs: InputMap::for_program(machine.program()),
            machine,
            interface: self.interface.clone(),
        })
    }
}

struct RuleNodeController {
    machine: Machine,
    /// Reused for every decision, cleared first.
    inputs: InputMap,
    interface: MeshInterface,
}

impl NodeController for RuleNodeController {
    fn route(
        &mut self,
        view: &RouterView<'_>,
        h: &mut Header,
        _in_port: Option<PortId>,
        in_vc: VcId,
    ) -> Decision {
        self.inputs.clear();
        if self.interface.load(&mut self.inputs, view, h, in_vc).is_err() {
            return Decision::new(Verdict::Unroutable, 1);
        }
        // a program without rule bases fires nothing and so waits
        let Some(entry) = self.interface.entry else {
            return Decision::new(Verdict::Wait, 1);
        };
        let casc = match self.machine.fire_base(entry, &[], &self.inputs) {
            Ok(c) => c,
            Err(_) => return Decision::new(Verdict::Unroutable, 1),
        };
        let steps = casc.steps.max(1);
        let verdict = match casc.last_return() {
            Some(Value::Int(d)) if (0..=11).contains(&d) => {
                if (d as usize) < view.link_alive.len()
                    && view.link_alive[d as usize]
                    && view.out_free[d as usize][in_vc.idx()]
                {
                    Verdict::Route(PortId(d as u8), in_vc)
                } else {
                    Verdict::Wait
                }
            }
            Some(Value::Int(RET_DELIVER)) => Verdict::Deliver,
            Some(Value::Int(RET_UNROUTABLE)) => Verdict::Unroutable,
            Some(Value::Int(RET_WAIT)) | None => Verdict::Wait,
            Some(_) => Verdict::Unroutable,
        };
        Decision::new(verdict, steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configure;
    use ftr_algos::rules_src;
    use ftr_sim::{Network, Pattern, TrafficSource};

    fn rule_net(src: &str, name: &str, mesh: Mesh2D) -> Network {
        let cfg = configure(name, src).unwrap();
        let algo = RuleRouter::new(cfg, mesh.clone(), 1);
        Network::builder(Arc::new(mesh)).build(&algo).expect("valid config")
    }

    #[test]
    fn rule_driven_xy_delivers_all_pairs() {
        let mesh = Mesh2D::new(4, 4);
        let mut net = rule_net(rules_src::XY, "xy", mesh.clone());
        net.set_measuring(true);
        for a in mesh.nodes() {
            for b in mesh.nodes() {
                if a != b {
                    net.send(a, b, 2).unwrap();
                }
            }
        }
        assert!(net.drain(100_000));
        assert_eq!(net.stats.delivered_msgs, 240);
        assert_eq!(net.stats.excess_hops, 0, "XY program is minimal");
        assert_eq!(net.stats.decision_steps.max, 1, "one interpretation per hop");
    }

    #[test]
    fn rule_driven_xy_matches_native_xy_paths() {
        // identical single-message latencies: the rule program IS XY
        let mesh = Mesh2D::new(5, 4);
        let native = ftr_algos::XyRouting::new(mesh.clone());
        let mut nn = Network::builder(Arc::new(mesh.clone())).build(&native).expect("valid config");
        let mut rn = rule_net(rules_src::XY, "xy", mesh.clone());
        for (a, b) in [(0u32, 19u32), (3, 16), (7, 12), (18, 1)] {
            nn.send(NodeId(a), NodeId(b), 3).unwrap();
            rn.send(NodeId(a), NodeId(b), 3).unwrap();
        }
        assert!(nn.drain(10_000) && rn.drain(10_000));
        assert_eq!(nn.stats.hops, rn.stats.hops, "same paths");
        assert_eq!(nn.stats.latency, rn.stats.latency, "same timing");
    }

    #[test]
    fn rule_driven_west_first_adapts() {
        let mesh = Mesh2D::new(5, 5);
        let mut net = rule_net(rules_src::WEST_FIRST, "west-first", mesh.clone());
        net.set_measuring(true);
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.2, 4, 17);
        for _ in 0..800 {
            for (s, d, l) in tf.tick(&mesh, net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        assert!(net.drain(20_000));
        assert!(!net.stats.deadlock);
        assert_eq!(net.stats.excess_hops, 0, "west-first is minimal");
        assert!(net.stats.delivered_msgs > 300);
    }

    #[test]
    fn profiler_sees_every_interpretation() {
        use std::sync::atomic::{AtomicU64, Ordering};
        struct CountProbe(AtomicU64);
        impl InterpProbe for CountProbe {
            fn record_stage(&self, _base: usize, stage: ftr_rules::Stage, _nanos: u64) {
                if stage == ftr_rules::Stage::Kernel {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let mesh = Mesh2D::new(4, 4);
        let cfg = configure("xy", rules_src::XY).unwrap();
        let probe = Arc::new(CountProbe(AtomicU64::new(0)));
        let algo = RuleRouter::new(cfg, mesh.clone(), 1)
            .with_profiler(probe.clone() as Arc<dyn InterpProbe>);
        let mut net = Network::builder(Arc::new(mesh.clone())).build(&algo).expect("valid config");
        net.send(mesh.node_at(0, 0), mesh.node_at(3, 0), 2).unwrap();
        assert!(net.drain(5_000));
        // one kernel lookup per interpretation; XY interprets once per
        // routing decision, and the engine re-consults on every Ready
        // retry, so at least the 3 on-path decisions must be visible
        assert!(probe.0.load(Ordering::Relaxed) >= 3);
    }

    #[test]
    fn swapping_programs_changes_behaviour() {
        // the flexibility claim: same router, different rule program,
        // different routing. XY cannot avoid a fault on the x-leg;
        // west-first routes around it when the detour never goes west.
        let mesh = Mesh2D::new(4, 4);
        let src = mesh.node_at(0, 0);
        let dst = mesh.node_at(2, 1);

        let mut xy = rule_net(rules_src::XY, "xy", mesh.clone());
        xy.inject_link_fault(mesh.node_at(1, 0), ftr_topo::EAST);
        xy.send(src, dst, 2).unwrap();
        xy.run(200);
        assert_eq!(xy.stats.unroutable_msgs, 1, "XY is stuck");

        let mut wf = rule_net(rules_src::WEST_FIRST, "west-first", mesh.clone());
        wf.inject_link_fault(mesh.node_at(1, 0), ftr_topo::EAST);
        wf.send(src, dst, 2).unwrap();
        assert!(wf.drain(5_000), "west-first detours north around the fault");
        assert_eq!(wf.stats.delivered_msgs, 1);
    }
}
