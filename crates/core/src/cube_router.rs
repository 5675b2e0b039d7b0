//! The rule-driven hypercube router: ROUTE_C executed *entirely* by the
//! rule machinery in the live network.
//!
//! Per head flit, the message interface computes the hypercube difference
//! sets (`diffup`, `diffdown`) and the usable-direction set (`okdirs`,
//! derived from the link status and the `neighb_state` registers the rule
//! program itself maintains), then fires the paper's two interpretation
//! steps — `decide_dir` (which output dimensions are legal) and
//! `decide_vc` (channel selection + adaptivity argmin into the `chosen`
//! register). Fault and state propagation run through `update_state`, the
//! Figure-4 rule base, driven by control-plane messages.
//!
//! The step counter therefore measures exactly the paper's "ROUTE_C always
//! needs two steps" on real traffic.

use crate::RouterConfiguration;
use ftr_rules::{Domain, InputMap, Machine, Program, Value};
use ftr_sim::flit::Header;
use ftr_sim::routing::{
    ControlMsg, Decision, NodeController, RouterView, RoutingAlgorithm, Verdict,
};
use ftr_topo::{Hypercube, NodeId, PortId, Topology, VcId};
use std::sync::Arc;

/// Symbol indices of the `fault_states` type in the ROUTE_C program.
const STATE_LFAULT: u32 = 1;
const STATE_OUNSAFE: u32 = 2;
const STATE_STRUNSAFE: u32 = 3;
const STATE_FAULTY: u32 = 4;

/// Rule-driven ROUTE_C for hypercubes.
pub struct CubeRuleRouter {
    config: Arc<RouterConfiguration>,
    cube: Hypercube,
    slots: CubeSlots,
}

impl CubeRuleRouter {
    /// Builds the router from a ROUTE_C configuration (use
    /// `ftr_algos::rules_src::route_c_source(dim)` for the matching
    /// program).
    pub fn new(config: RouterConfiguration, cube: Hypercube) -> Self {
        CubeRuleRouter {
            slots: CubeSlots::resolve(&config.compiled.prog),
            config: Arc::new(config),
            cube,
        }
    }
}

impl RoutingAlgorithm for CubeRuleRouter {
    fn name(&self) -> String {
        if self.config.optimized {
            format!("rule:{}+opt", self.config.name)
        } else {
            format!("rule:{}", self.config.name)
        }
    }

    fn num_vcs(&self) -> usize {
        5
    }

    fn controller(&self, _topo: &dyn Topology, node: NodeId) -> Box<dyn NodeController> {
        let _ = node; // ROUTE_C state is address-free: the machine needs no coordinates
        let machine = self.config.machine();
        Box::new(CubeRuleController {
            inputs: InputMap::for_program(machine.program()),
            machine,
            slots: self.slots,
            cube: self.cube.clone(),
            link_dead: vec![false; self.cube.dim() as usize],
            hop_limit: 4 * self.cube.num_nodes() as u32 + 16,
        })
    }
}

/// Every name the ROUTE_C message interface uses, resolved against the
/// program once per configuration: inputs, registers and rule bases.
#[derive(Clone, Copy, Debug)]
struct CubeSlots {
    diffup: Option<usize>,
    diffdown: Option<usize>,
    okdirs: Option<usize>,
    out_queue: Option<usize>,
    cands: Option<usize>,
    phase: Option<usize>,
    misr: Option<usize>,
    freevc: Option<usize>,
    new_state: Option<usize>,
    neighb_state: Option<usize>,
    chosen: Option<usize>,
    state: Option<usize>,
    decide_dir: Option<usize>,
    decide_vc: Option<usize>,
    update_state: Option<usize>,
}

impl CubeSlots {
    fn resolve(prog: &Program) -> Self {
        let base = |name: &str| prog.rulebase(name).map(|(i, _)| i);
        CubeSlots {
            diffup: prog.input("diffup"),
            diffdown: prog.input("diffdown"),
            okdirs: prog.input("okdirs"),
            out_queue: prog.input("out_queue"),
            cands: prog.input("cands"),
            phase: prog.input("phase"),
            misr: prog.input("misr"),
            freevc: prog.input("freevc"),
            new_state: prog.input("new_state"),
            neighb_state: prog.var("neighb_state"),
            chosen: prog.var("chosen"),
            state: prog.var("state"),
            decide_dir: base("decide_dir"),
            decide_vc: base("decide_vc"),
            update_state: base("update_state"),
        }
    }
}

struct CubeRuleController {
    machine: Machine,
    /// Reused for every decision and control event, cleared first.
    inputs: InputMap,
    slots: CubeSlots,
    cube: Hypercube,
    /// Local link status shadow (the information unit's view).
    link_dead: Vec<bool>,
    hop_limit: u32,
}

/// Sets a cell of an input the program may lack; like the message
/// interface always has, a value the program cannot hold is dropped (the
/// rule that would read it then fails instead).
fn offer(im: &mut InputMap, input: Option<usize>, indices: &[Value], v: Value) {
    if let Some(i) = input {
        let _ = im.set_input(i, indices, v);
    }
}

/// Fires `base` and returns the cascade's last RETURN value and its
/// steps; a base the program lacks fires nothing, like an event without
/// a rule base.
fn fire(
    machine: &mut Machine,
    base: Option<usize>,
    inputs: &InputMap,
) -> ftr_rules::Result<(Option<Value>, u32)> {
    let Some(b) = base else { return Ok((None, 0)) };
    let casc = machine.fire_base(b, &[], inputs)?;
    Ok((casc.last_return(), casc.steps))
}

impl CubeRuleController {
    fn dims_domain(&self) -> Domain {
        Domain::Int { lo: 0, hi: self.cube.dim() as i64 - 1 }
    }

    fn set_of(&self, mask: u64) -> Value {
        Value::Set { dom: self.dims_domain(), mask }
    }

    /// Reads `neighb_state(d)` from the program's registers.
    fn neighb_state(&self, d: usize) -> u32 {
        let vi = self.slots.neighb_state.expect("route_c program has neighb_state");
        match self.machine.read_reg(vi, &[Value::Int(d as i64)]) {
            Ok(Value::Sym { idx, .. }) => idx,
            _ => 0,
        }
    }

    /// Reads the `chosen` register (argmin result of decide_vc).
    fn chosen(&self) -> usize {
        let vi = self.slots.chosen.expect("route_c program has chosen");
        match self.machine.read_reg(vi, &[]) {
            Ok(Value::Int(v)) => v as usize,
            _ => 0,
        }
    }

    /// Drives `update_state(dir)` with a reported neighbour state; converts
    /// generated `send_newmessage` events into control messages.
    fn drive_update(&mut self, dir: PortId, reported: u32) -> Vec<ControlMsg> {
        let Some(new_state) = self.slots.new_state else { return Vec::new() };
        self.inputs.clear();
        // the rule base only reads new_state(dir); default the rest
        let _ = self.inputs.set_input_default(new_state, Value::Sym { ty: 0, idx: 0 });
        let dir_v = Value::Int(dir.idx() as i64);
        if self.inputs.set_input(new_state, &[dir_v], Value::Sym { ty: 0, idx: reported }).is_err()
        {
            return Vec::new();
        }
        let Some(update_state) = self.slots.update_state else { return Vec::new() };
        let Ok(casc) = self.machine.fire_base(update_state, &[dir_v], &self.inputs) else {
            return Vec::new();
        };
        casc.host_events
            .iter()
            .filter(|e| e.event == "send_newmessage" && e.args.len() == 2)
            .filter_map(|e| {
                let d = e.args[0].as_int().ok()? as usize;
                let code = e.args[1].as_int().ok()?;
                if d < self.link_dead.len() && !self.link_dead[d] {
                    Some(ControlMsg { port: PortId(d as u8), payload: vec![code] })
                } else {
                    None
                }
            })
            .collect()
    }
}

impl NodeController for CubeRuleController {
    fn route(
        &mut self,
        view: &RouterView<'_>,
        h: &mut Header,
        _in_port: Option<PortId>,
        _in_vc: VcId,
    ) -> Decision {
        if h.hops > self.hop_limit {
            return Decision::new(Verdict::Unroutable, 2);
        }
        if view.node == h.dst {
            return Decision::new(Verdict::Deliver, 2);
        }
        let dim = self.cube.dim() as usize;

        // --- message interface: difference and usability sets
        let diff = self.cube.diff(view.node, h.dst) as u64;
        let up = diff & !(view.node.0 as u64);
        let down = diff & view.node.0 as u64;
        let mut ok = 0u64;
        for d in 0..dim {
            let nb = self.cube.neighbor(view.node, PortId(d as u8)).expect("cube port");
            let unsafe_nb = self.neighb_state(d) >= STATE_OUNSAFE;
            if view.link_alive[d] && (nb == h.dst || !unsafe_nb) {
                ok |= 1 << d;
            }
        }

        let s = self.slots;
        let (up_set, down_set, ok_set) = (self.set_of(up), self.set_of(down), self.set_of(ok));
        let im = &mut self.inputs;
        im.clear();
        offer(im, s.diffup, &[], up_set);
        offer(im, s.diffdown, &[], down_set);
        offer(im, s.okdirs, &[], ok_set);
        for d in 0..dim {
            let q = Value::Int(view.out_load[d].min(255) as i64);
            offer(im, s.out_queue, &[Value::Int(d as i64)], q);
        }

        // --- step 1: decide_dir
        let Ok((ret1, steps1)) = fire(&mut self.machine, s.decide_dir, &self.inputs) else {
            return Decision::new(Verdict::Unroutable, 1);
        };
        let Some(Value::Set { mask: cands, .. }) = ret1 else {
            return Decision::new(Verdict::Unroutable, steps1.max(1));
        };
        if cands == 0 {
            return Decision::new(Verdict::Unroutable, steps1.max(1));
        }
        let misr = cands & (up | down) == 0;
        let phase: i64 = if up != 0 { 0 } else { 1 };

        // --- step 2: decide_vc (channel + adaptivity argmin)
        let cands_set = self.set_of(cands);
        let im = &mut self.inputs;
        offer(im, s.cands, &[], cands_set);
        offer(im, s.phase, &[], Value::Int(phase));
        offer(im, s.misr, &[], Value::Bool(misr));
        for v in 0..5usize {
            // a channel class is usable if any candidate output has it free
            let free = (0..dim)
                .any(|d| cands & (1 << d) != 0 && view.link_alive[d] && view.out_free[d][v]);
            offer(im, s.freevc, &[Value::Int(v as i64)], Value::Bool(free));
        }
        let Ok((ret2, steps2)) = fire(&mut self.machine, s.decide_vc, &self.inputs) else {
            return Decision::new(Verdict::Unroutable, steps1.max(1) + 1);
        };
        let steps = steps1 + steps2;
        let vc = match ret2 {
            Some(Value::Int(v)) if (0..5).contains(&v) => v as usize,
            _ => return Decision::new(Verdict::Wait, steps), // 7 = wait
        };
        let port = self.chosen();
        if port < dim
            && cands & (1 << port) != 0
            && view.link_alive[port]
            && view.out_free[port][vc]
        {
            if misr {
                h.misrouted = true;
            }
            h.phase = phase as u8;
            Decision::new(Verdict::Route(PortId(port as u8), VcId(vc as u8)), steps)
        } else {
            Decision::new(Verdict::Wait, steps)
        }
    }

    fn relation(
        &mut self,
        view: &RouterView<'_>,
        h: &Header,
        _in_port: Option<PortId>,
        _in_vc: VcId,
    ) -> Vec<(PortId, VcId)> {
        // conservative relation for deadlock analysis: same sets the rule
        // program would compute, all candidate (dim, vc-class) pairs
        if view.node == h.dst {
            return Vec::new();
        }
        let dim = self.cube.dim() as usize;
        let diff = self.cube.diff(view.node, h.dst) as u64;
        let up = diff & !(view.node.0 as u64);
        let down = diff & view.node.0 as u64;
        let mut ok = 0u64;
        for d in 0..dim {
            let nb = self.cube.neighbor(view.node, PortId(d as u8)).expect("cube port");
            if view.link_alive[d] && (nb == h.dst || self.neighb_state(d) < STATE_OUNSAFE) {
                ok |= 1 << d;
            }
        }
        let (cands, vcs): (u64, Vec<u8>) = if up & ok != 0 {
            (up & ok, vec![0])
        } else if down & ok != 0 {
            (down & ok, vec![1])
        } else {
            (ok & !(up | down), vec![2, 3, 4])
        };
        (0..dim)
            .filter(|d| cands & (1 << d) != 0)
            .flat_map(|d| vcs.iter().map(move |&v| (PortId(d as u8), VcId(v))))
            .collect()
    }

    fn on_fault(&mut self, _view: &RouterView<'_>, port: PortId) -> Vec<ControlMsg> {
        self.link_dead[port.idx()] = true;
        self.drive_update(port, STATE_LFAULT)
    }

    fn on_control(
        &mut self,
        _view: &RouterView<'_>,
        from: PortId,
        payload: &[i64],
    ) -> Vec<ControlMsg> {
        if payload.len() != 1 {
            return Vec::new();
        }
        let reported = match payload[0] {
            2 => STATE_OUNSAFE,
            3 => STATE_STRUNSAFE,
            4 => STATE_FAULTY,
            _ => return Vec::new(),
        };
        self.drive_update(from, reported)
    }

    fn state_word(&self) -> i64 {
        let vi = self.slots.state.expect("state register");
        match self.machine.read_reg(vi, &[]) {
            Ok(Value::Sym { idx, .. }) => idx as i64,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configure;
    use ftr_algos::rules_src::route_c_source;
    use ftr_sim::{Network, Pattern, TrafficSource};

    fn rule_cube_net(dim: u32) -> Network {
        let cube = Hypercube::new(dim);
        let cfg = configure("route_c", &route_c_source(dim)).unwrap();
        let algo = CubeRuleRouter::new(cfg, cube.clone());
        Network::builder(Arc::new(cube)).build(&algo).expect("valid config")
    }

    #[test]
    fn rule_driven_route_c_delivers_all_pairs() {
        let mut net = rule_cube_net(4);
        net.set_measuring(true);
        for a in 0..16u32 {
            for b in 0..16u32 {
                if a != b {
                    net.send(NodeId(a), NodeId(b), 2).unwrap();
                }
            }
        }
        assert!(net.drain(300_000));
        assert_eq!(net.stats.delivered_msgs, 240);
        assert_eq!(net.stats.excess_hops, 0, "two-phase minimal");
        assert_eq!(
            net.stats.decision_steps.max, 2,
            "the paper's 'always two interpretations', measured live"
        );
        assert!(!net.stats.deadlock);
    }

    #[test]
    fn rule_driven_route_c_survives_node_fault() {
        let mut net = rule_cube_net(4);
        net.inject_node_fault(NodeId(5));
        net.settle_control(10_000).expect("settles");
        net.set_measuring(true);
        let cube = Hypercube::new(4);
        let mut tf = TrafficSource::new(Pattern::Uniform, 0.1, 4, 9);
        for _ in 0..800 {
            for (s, d, l) in tf.tick(&cube, net.faults()) {
                net.send(s, d, l).unwrap();
            }
            net.step();
        }
        assert!(net.drain(50_000));
        assert!(!net.stats.deadlock);
        assert_eq!(net.stats.unroutable_msgs, 0);
        assert!(net.stats.delivered_msgs > 200);
    }

    #[test]
    fn state_propagation_through_rule_machine() {
        // three dead neighbours around node 0 flip its rule-held state to
        // unsafe, exactly like the native implementation
        let mut net = rule_cube_net(4);
        for n in [1u32, 2, 4] {
            net.inject_node_fault(NodeId(n));
        }
        net.settle_control(10_000).unwrap();
        assert!(
            net.controller(NodeId(0)).state_word() >= 2,
            "node 0 should be unsafe, got {}",
            net.controller(NodeId(0)).state_word()
        );
        let far = net.controller(NodeId(15)).state_word();
        assert_eq!(far, 0, "antipode stays safe");
    }
}
