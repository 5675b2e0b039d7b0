//! Layer 2: static deadlock verification of compiled rule programs.
//!
//! A compiled rule program answers one routing query at a time; the
//! Dally/Seitz check in [`ftr_topo::cdg`] needs the *full routing
//! relation* — every output channel the program could select in any
//! network state. This module lifts a compiled program into that relation
//! by firing the real rule machine over an enumeration of the
//! per-decision inputs it cannot otherwise know (which outputs are free,
//! which output queue is shortest, which dead-end flags are set) and
//! taking the union of the decisions. The lift is a sound
//! over-approximation: every channel the live router could request
//! appears, so an acyclic channel dependency graph proves deadlock
//! freedom.
//!
//! Virtual-channel assignment is the *data path's* job, not the rule
//! program's (§2.2): NARA/NAFTA programs compute directions and rely on
//! the two-virtual-network discipline (network 0 routes E/W/N, network 1
//! routes E/W/S plus a committed north climb, one-way 0→1 switching, no
//! 180° turns) being enforced by the channel allocator. The
//! [`MeshVcMode::NaraPair`] lift models exactly that discipline —
//! mirroring `ftr_algos::nafta` — while [`MeshVcMode::SingleVc`] models
//! the plain single-network data path of the rule router.
//!
//! Verification then exhausts destinations (via the CDG construction) and
//! fault sets up to a configurable budget, reporting a concrete cycle
//! witness on failure.

use ftr_rules::value::{Type, Value};
use ftr_rules::{CompiledProgram, InputMap, Machine, Program, RegFile};
use ftr_topo::cdg::{Channel, ChannelDependencyGraph};
use ftr_topo::faults::SimpleRng;
use ftr_topo::mesh::MESH_PORTS;
use ftr_topo::{FaultSet, Hypercube, Mesh2D, NodeId, PortId, Topology, VcId, EAST, NORTH, SOUTH};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Virtual network 0 of the NARA pair: may route E/W/N.
const VNET_NO_SOUTH: u8 = 0;
/// Virtual network 1: may route E/W/S (plus the committed north climb).
const VNET_NO_NORTH: u8 = 1;

/// How the data path assigns virtual channels to the directions a mesh
/// program returns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeshVcMode {
    /// One virtual network: every decision stays on the arrival VC.
    SingleVc,
    /// The NARA/NAFTA two-virtual-network discipline (§2.2).
    NaraPair,
}

/// One falsification: a fault scenario whose channel dependency graph
/// contains a cycle.
#[derive(Clone, Debug)]
pub struct CycleWitness {
    /// Human-readable description of the injected faults.
    pub faults: String,
    /// The dependency cycle (consecutive channels wait on each other,
    /// wrapping around).
    pub cycle: Vec<Channel>,
}

/// Outcome of a verification run.
#[derive(Clone, Debug)]
pub struct DeadlockReport {
    /// Program name.
    pub program: String,
    /// Topology description, e.g. `mesh 3x3` or `hypercube d=4`.
    pub topology: String,
    /// Virtual channels the analysis modelled.
    pub num_vcs: usize,
    /// Number of fault scenarios whose CDG was built and checked.
    pub fault_sets_checked: usize,
    /// Scenarios with a dependency cycle (empty ⇒ deadlock-free for every
    /// checked scenario).
    pub failures: Vec<CycleWitness>,
    /// Why the lift could not drive the program: the rule base or the
    /// inputs it lacks, an input the lift failed to load, or a rule base
    /// that failed to fire. A relation the lift could not build completely
    /// proves nothing, so a set value rejects the proof.
    pub lift_error: Option<String>,
}

impl DeadlockReport {
    /// True if the lift drove the program on every query and no checked
    /// scenario produced a cycle.
    pub fn verified(&self) -> bool {
        self.failures.is_empty() && self.lift_error.is_none()
    }

    /// One-paragraph human-readable summary.
    pub fn summary(&self) -> String {
        if let Some(e) = &self.lift_error {
            format!(
                "{}: NOT VERIFIED on {} ({} VCs) — the lift could not drive the program: {e}",
                self.program, self.topology, self.num_vcs
            )
        } else if self.verified() {
            format!(
                "{}: deadlock-free on {} ({} VCs) — CDG acyclic for all {} fault scenarios",
                self.program, self.topology, self.num_vcs, self.fault_sets_checked
            )
        } else {
            let w = &self.failures[0];
            format!(
                "{}: DEADLOCK POSSIBLE on {} ({} VCs) — {}/{} scenarios cyclic; \
                 e.g. [{}] cycle {:?}",
                self.program,
                self.topology,
                self.num_vcs,
                self.failures.len(),
                self.fault_sets_checked,
                w.faults,
                w.cycle
            )
        }
    }
}

/// Default value for an undriven input (lowest element of its domain).
fn default_input(t: Type) -> Value {
    match t {
        Type::Scalar(d) => d.value_at(0),
        Type::Set(d) => Value::empty_set(d),
    }
}

/// Sets input `input` (if the program declares it) at `indices`; a value
/// the program cannot hold is an error that names the input.
fn load(
    prog: &Program,
    im: &mut InputMap,
    input: Option<usize>,
    indices: &[Value],
    v: Value,
) -> Result<(), String> {
    let Some(i) = input else { return Ok(()) };
    im.set_input(i, indices, v).map_err(|e| {
        let idx: Vec<String> = indices.iter().map(|x| x.to_string()).collect();
        format!("input `{}`({}) <- {v}: {e}", prog.inputs[i].name, idx.join(", "))
    })
}

/// Clears `im` and defaults every input of `prog` to [`default_input`].
fn defaulted_inputs(prog: &Program, im: &mut InputMap) {
    im.clear();
    for (i, decl) in prog.inputs.iter().enumerate() {
        im.set_input_default(i, default_input(decl.elem)).expect("input is laid out");
    }
}

/// Keeps the first lift error.
fn note_error(slot: &RefCell<Option<String>>, e: String) {
    slot.borrow_mut().get_or_insert(e);
}

/// A rule base that failed to fire while the lift drove it. Its verdict
/// is unknown, so — like an input the lift cannot load — it rejects the
/// proof instead of reading as "no routes" (`verify_mesh` and
/// `verify_cube` append the fault set).
fn fire_error(prog: &Program, base: usize, e: impl std::fmt::Display) -> String {
    format!("rule base `{}` failed to fire: {e}", prog.rulebases[base].name)
}

// ---------------------------------------------------------------------------
// mesh lift

/// Lifts a compiled 2-D mesh program (`xdes`/`ydes`/`invc`/`free`/
/// `out_queue` input convention of the rule router) into a routing
/// relation. Decisions are memoised on everything they can depend on:
/// (node, destination, virtual network, usable-direction mask, dead-end
/// flags).
pub struct MeshProgramLift {
    mesh: Mesh2D,
    compiled: Arc<CompiledProgram>,
    slots: MeshLiftSlots,
    mode: MeshVcMode,
    machine: RefCell<Machine>,
    inputs: RefCell<InputMap>,
    /// The first input the lift failed to load.
    error: RefCell<Option<String>>,
    #[allow(clippy::type_complexity)]
    memo: RefCell<HashMap<(u32, u32, u8, u8, bool, bool), Vec<u8>>>,
}

/// The names the mesh lift drives, resolved once.
struct MeshLiftSlots {
    xpos: Option<usize>,
    ypos: Option<usize>,
    usable: Option<usize>,
    de_east: Option<usize>,
    de_west: Option<usize>,
    xdes: Option<usize>,
    ydes: Option<usize>,
    invc: Option<usize>,
    free: Option<usize>,
    linkok: Option<usize>,
    out_queue: Option<usize>,
    /// The entry rule base: the program's first (the rule-router
    /// convention).
    entry: Option<usize>,
}

impl MeshProgramLift {
    /// Creates the lift. The entry event is the program's first rule base
    /// (the rule-router convention).
    pub fn new(compiled: impl Into<Arc<CompiledProgram>>, mesh: Mesh2D, mode: MeshVcMode) -> Self {
        let compiled = compiled.into();
        let prog = &compiled.prog;
        let slots = MeshLiftSlots {
            xpos: prog.var("xpos"),
            ypos: prog.var("ypos"),
            usable: prog.var("usable"),
            de_east: prog.var("de_east"),
            de_west: prog.var("de_west"),
            xdes: prog.input("xdes"),
            ydes: prog.input("ydes"),
            invc: prog.input("invc"),
            free: prog.input("free"),
            linkok: prog.input("linkok"),
            out_queue: prog.input("out_queue"),
            entry: (!prog.rulebases.is_empty()).then_some(0),
        };
        MeshProgramLift {
            mesh,
            slots,
            mode,
            inputs: RefCell::new(InputMap::for_program(prog)),
            machine: RefCell::new(Machine::from_compiled(Arc::clone(&compiled))),
            compiled,
            error: RefCell::new(None),
            memo: RefCell::new(HashMap::new()),
        }
    }

    /// Number of virtual channels the mode models.
    pub fn num_vcs(&self) -> usize {
        match self.mode {
            MeshVcMode::SingleVc => 1,
            MeshVcMode::NaraPair => 2,
        }
    }

    /// The first input the lift failed to load since the last call, if
    /// any; the relation built meanwhile is incomplete.
    pub fn take_error(&self) -> Option<String> {
        self.error.borrow_mut().take()
    }

    /// What the program lacks for the lift to drive it at all, if
    /// anything. Without an entry base nothing fires, and without a
    /// destination input every query reads the same; either way the
    /// relation comes out empty and its proof vacuous.
    fn undrivable(&self) -> Option<String> {
        let s = &self.slots;
        if s.entry.is_none() {
            Some("the program has no rule base for the mesh lift to enter".into())
        } else if s.xdes.is_none() && s.ydes.is_none() {
            Some(
                "the program declares neither `xdes` nor `ydes`, the inputs through which \
                 the mesh lift states the destination"
                    .into(),
            )
        } else {
            None
        }
    }

    fn write_reg(machine: &mut Machine, reg: Option<usize>, v: Value) {
        if let Some(vi) = reg {
            machine.write_reg(vi, &[], v).expect("lift register value fits its domain");
        }
    }

    /// Every direction the program can return for this query, across all
    /// free-output patterns, queue-minimum positions, and (implicitly,
    /// via the caller's enumeration) dead-end flags. An input the lift
    /// cannot load is recorded (see [`MeshProgramLift::take_error`]) and
    /// yields no directions.
    fn raw_dirs(
        &self,
        cur: NodeId,
        dst: NodeId,
        invc: u8,
        usable_mask: u8,
        de_east: bool,
        de_west: bool,
    ) -> Vec<u8> {
        let key = (cur.0, dst.0, invc, usable_mask, de_east, de_west);
        if let Some(hit) = self.memo.borrow().get(&key) {
            return hit.clone();
        }
        match self.drive(cur, dst, invc, usable_mask, de_east, de_west) {
            Ok(dirs) => {
                self.memo.borrow_mut().insert(key, dirs.clone());
                dirs
            }
            Err(e) => {
                note_error(&self.error, e);
                Vec::new()
            }
        }
    }

    fn drive(
        &self,
        cur: NodeId,
        dst: NodeId,
        invc: u8,
        usable_mask: u8,
        de_east: bool,
        de_west: bool,
    ) -> Result<Vec<u8>, String> {
        let prog = &self.compiled.prog;
        let s = &self.slots;
        let mut out: BTreeSet<u8> = BTreeSet::new();
        let mut machine = self.machine.borrow_mut();
        let mut im = self.inputs.borrow_mut();
        let (dx, dy) = self.mesh.coords(dst);
        let (cx, cy) = self.mesh.coords(cur);

        // free patterns: everything usable free, each usable direction
        // alone, and nothing free (the escalation path)
        let mut free_patterns: Vec<u8> = vec![usable_mask, 0];
        for d in 0..4u8 {
            if usable_mask & (1 << d) != 0 {
                free_patterns.push(1 << d);
            }
        }
        for fp in free_patterns {
            // queue patterns: each direction as the unique argmin
            for qmin in 0..4u8 {
                *machine.regs_mut() = RegFile::new(prog);
                Self::write_reg(&mut machine, s.xpos, Value::Int(cx as i64));
                Self::write_reg(&mut machine, s.ypos, Value::Int(cy as i64));
                if let Some(vi) = s.usable {
                    let dom = prog.vars[vi].elem.domain();
                    machine
                        .write_reg(vi, &[], Value::Set { dom, mask: usable_mask as u64 })
                        .expect("usable mask fits");
                }
                Self::write_reg(&mut machine, s.de_east, Value::Bool(de_east));
                Self::write_reg(&mut machine, s.de_west, Value::Bool(de_west));

                defaulted_inputs(prog, &mut im);
                load(prog, &mut im, s.xdes, &[], Value::Int(dx as i64))?;
                load(prog, &mut im, s.ydes, &[], Value::Int(dy as i64))?;
                load(prog, &mut im, s.invc, &[], Value::Int(invc as i64))?;
                for d in 0..4i64 {
                    let idx = [Value::Int(d)];
                    load(prog, &mut im, s.free, &idx, Value::Bool(fp & (1 << d) != 0))?;
                    load(prog, &mut im, s.linkok, &idx, Value::Bool(usable_mask & (1 << d) != 0))?;
                    let q = if d == qmin as i64 { 0 } else { 9 };
                    load(prog, &mut im, s.out_queue, &idx, Value::Int(q))?;
                }

                let Some(entry) = s.entry else { continue };
                let casc =
                    machine.fire_base(entry, &[], &*im).map_err(|e| fire_error(prog, entry, e))?;
                if let Some(Value::Int(d)) = casc.last_return() {
                    if (0..4).contains(&d) && usable_mask & (1 << d) != 0 {
                        out.insert(d as u8);
                    }
                }
            }
        }
        Ok(out.into_iter().collect())
    }

    /// Directions the data path permits inside virtual network `vnet`
    /// (mirrors the native NAFTA discipline; the committed climb is
    /// handled by the caller).
    fn allowed(vnet: u8, in_port: Option<PortId>, dx: i32, dy: i32) -> Vec<PortId> {
        let mut dirs = vec![EAST, ftr_topo::WEST];
        if vnet == VNET_NO_SOUTH {
            dirs.push(NORTH);
        } else {
            dirs.push(SOUTH);
            // terminal climb: only from the destination column
            if dx == 0 && dy > 0 {
                dirs.push(NORTH);
            }
        }
        dirs.retain(|&d| Some(d) != in_port); // no 180° turns
        dirs
    }

    /// One-way network switch: a network-0 message that overshot its
    /// destination row decides in network 1.
    fn effective_vnet(in_vc: u8, dy: i32) -> u8 {
        if in_vc == VNET_NO_SOUTH && dy < 0 {
            VNET_NO_NORTH
        } else {
            in_vc
        }
    }

    /// The full routing relation under a fault set, in the closure form
    /// [`ChannelDependencyGraph::build`] expects.
    #[allow(clippy::type_complexity)]
    pub fn relation<'s>(
        &'s self,
        faults: &'s FaultSet,
    ) -> impl Fn(NodeId, Option<(PortId, VcId)>, NodeId) -> Vec<(PortId, VcId)> + 's {
        move |cur, inc, dst| {
            let mut usable: u8 = 0;
            for &p in &MESH_PORTS {
                if let Some(nb) = self.mesh.neighbor(cur, p) {
                    if faults.link_usable(&self.mesh, cur, p) && !faults.node_faulty(nb) {
                        usable |= 1 << p.idx();
                    }
                }
            }
            let (dx, dy) = self.mesh.offset(cur, dst);
            // dead-end flags depend on global fault knowledge; enumerate
            // both values of each (conservative union)
            let de_combos: &[(bool, bool)] = if self.slots.de_east.is_some() {
                &[(false, false), (true, false), (false, true), (true, true)]
            } else {
                &[(false, false)]
            };

            match self.mode {
                MeshVcMode::SingleVc => {
                    let vc = inc.map(|(_, v)| v).unwrap_or(VcId(0));
                    let mut dirs: BTreeSet<u8> = BTreeSet::new();
                    for &(de, dw) in de_combos {
                        dirs.extend(self.raw_dirs(cur, dst, vc.idx() as u8, usable, de, dw));
                    }
                    dirs.into_iter().map(|d| (PortId(d), vc)).collect()
                }
                MeshVcMode::NaraPair => {
                    // committed climb: already in network 1 and moving north
                    if let Some((ip, iv)) = inc {
                        if iv.idx() as u8 == VNET_NO_NORTH && ip == SOUTH {
                            return if usable & (1 << NORTH.idx()) != 0 {
                                vec![(NORTH, VcId(VNET_NO_NORTH))]
                            } else {
                                Vec::new()
                            };
                        }
                    }
                    let vnets: Vec<u8> = match inc {
                        Some((_, iv)) => vec![Self::effective_vnet(iv.idx() as u8, dy)],
                        None => {
                            if dy > 0 {
                                vec![VNET_NO_SOUTH]
                            } else if dy < 0 {
                                vec![VNET_NO_NORTH]
                            } else {
                                vec![VNET_NO_SOUTH, VNET_NO_NORTH]
                            }
                        }
                    };
                    let in_port = inc.map(|(p, _)| p);
                    let mut out = Vec::new();
                    for v in vnets {
                        let mut dirs: BTreeSet<u8> = BTreeSet::new();
                        for &(de, dw) in de_combos {
                            dirs.extend(self.raw_dirs(cur, dst, v, usable, de, dw));
                        }
                        let allowed = Self::allowed(v, in_port, dx, dy);
                        for d in dirs {
                            if allowed.contains(&PortId(d)) {
                                out.push((PortId(d), VcId(v)));
                            }
                        }
                    }
                    out
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// hypercube lift

/// Lifts a compiled ROUTE_C-style hypercube program (two interpretation
/// steps: `decide_dir` then `decide_vc`, with the `chosen` register
/// carrying the argmin result) into a routing relation.
pub struct CubeProgramLift {
    cube: Hypercube,
    compiled: Arc<CompiledProgram>,
    slots: CubeLiftSlots,
    machine: RefCell<Machine>,
    inputs: RefCell<InputMap>,
    /// The first input the lift failed to load.
    error: RefCell<Option<String>>,
    #[allow(clippy::type_complexity)]
    memo: RefCell<HashMap<(u32, u32, u8), Vec<(u8, u8)>>>,
}

/// The names the hypercube lift drives, resolved once.
struct CubeLiftSlots {
    diffup: Option<usize>,
    diffdown: Option<usize>,
    okdirs: Option<usize>,
    cands: Option<usize>,
    phase: Option<usize>,
    misr: Option<usize>,
    out_queue: Option<usize>,
    freevc: Option<usize>,
    chosen: Option<usize>,
    decide_dir: Option<usize>,
    decide_vc: Option<usize>,
}

impl CubeProgramLift {
    /// Creates the lift for a `d`-dimensional cube program (compile
    /// `ftr_algos::rules_src::route_c_source(d)` for a matching program).
    pub fn new(compiled: impl Into<Arc<CompiledProgram>>, cube: Hypercube) -> Self {
        let compiled = compiled.into();
        let prog = &compiled.prog;
        let base = |name: &str| prog.rulebase(name).map(|(i, _)| i);
        let slots = CubeLiftSlots {
            diffup: prog.input("diffup"),
            diffdown: prog.input("diffdown"),
            okdirs: prog.input("okdirs"),
            cands: prog.input("cands"),
            phase: prog.input("phase"),
            misr: prog.input("misr"),
            out_queue: prog.input("out_queue"),
            freevc: prog.input("freevc"),
            chosen: prog.var("chosen"),
            decide_dir: base("decide_dir"),
            decide_vc: base("decide_vc"),
        };
        CubeProgramLift {
            cube,
            slots,
            inputs: RefCell::new(InputMap::for_program(prog)),
            machine: RefCell::new(Machine::from_compiled(Arc::clone(&compiled))),
            compiled,
            error: RefCell::new(None),
            memo: RefCell::new(HashMap::new()),
        }
    }

    /// The first input the lift failed to load since the last call, if
    /// any; the relation built meanwhile is incomplete.
    pub fn take_error(&self) -> Option<String> {
        self.error.borrow_mut().take()
    }

    /// What the program lacks for the lift to drive it at all, if
    /// anything: either interpretation step's rule base, or both
    /// destination inputs. Without them the relation comes out empty and
    /// its proof vacuous.
    fn undrivable(&self) -> Option<String> {
        let s = &self.slots;
        let bases: Vec<&str> = [("decide_dir", s.decide_dir), ("decide_vc", s.decide_vc)]
            .into_iter()
            .filter_map(|(name, slot)| slot.is_none().then_some(name))
            .collect();
        if !bases.is_empty() {
            Some(format!(
                "the program has no `{}` rule base for the hypercube lift to fire",
                bases.join("`, `")
            ))
        } else if s.diffup.is_none() && s.diffdown.is_none() {
            Some(
                "the program declares neither `diffup` nor `diffdown`, the inputs through \
                 which the hypercube lift states the destination"
                    .into(),
            )
        } else {
            None
        }
    }

    fn dims_set(&self, mask: u64) -> Value {
        Value::Set { dom: ftr_rules::Domain::Int { lo: 0, hi: self.cube.dim() as i64 - 1 }, mask }
    }

    fn chosen(&self, machine: &Machine) -> Option<usize> {
        match machine.read_reg(self.slots.chosen?, &[]) {
            Ok(Value::Int(v)) => Some(v as usize),
            _ => None,
        }
    }

    /// All (port, vc) pairs the two-step decision can produce for this
    /// query, across every free-channel pattern and queue-minimum
    /// position. An input the lift cannot load is recorded (see
    /// [`CubeProgramLift::take_error`]) and yields no channels.
    fn raw_channels(&self, cur: NodeId, dst: NodeId, ok: u8) -> Vec<(u8, u8)> {
        let key = (cur.0, dst.0, ok);
        if let Some(hit) = self.memo.borrow().get(&key) {
            return hit.clone();
        }
        match self.drive(cur, dst, ok) {
            Ok(chans) => {
                self.memo.borrow_mut().insert(key, chans.clone());
                chans
            }
            Err(e) => {
                note_error(&self.error, e);
                Vec::new()
            }
        }
    }

    fn drive(&self, cur: NodeId, dst: NodeId, ok: u8) -> Result<Vec<(u8, u8)>, String> {
        let prog = &self.compiled.prog;
        let s = &self.slots;
        let dim = self.cube.dim() as usize;
        let mut machine = self.machine.borrow_mut();
        let mut im = self.inputs.borrow_mut();
        let diff = self.cube.diff(cur, dst) as u64;
        let up = diff & !(cur.0 as u64);
        let down = diff & cur.0 as u64;

        defaulted_inputs(prog, &mut im);
        load(prog, &mut im, s.diffup, &[], self.dims_set(up))?;
        load(prog, &mut im, s.diffdown, &[], self.dims_set(down))?;
        load(prog, &mut im, s.okdirs, &[], self.dims_set(ok as u64))?;

        // step 1: decide_dir is deterministic in the difference sets
        *machine.regs_mut() = RegFile::new(prog);
        let cands = match s.decide_dir {
            Some(b) => {
                let casc = machine.fire_base(b, &[], &*im).map_err(|e| fire_error(prog, b, e))?;
                match casc.last_return() {
                    Some(Value::Set { mask, .. }) => mask,
                    _ => 0,
                }
            }
            None => 0,
        };
        if cands == 0 {
            return Ok(Vec::new());
        }
        let misr = cands & (up | down) == 0;
        let phase: i64 = if up != 0 { 0 } else { 1 };
        load(prog, &mut im, s.cands, &[], self.dims_set(cands))?;
        load(prog, &mut im, s.phase, &[], Value::Int(phase))?;
        load(prog, &mut im, s.misr, &[], Value::Bool(misr))?;

        // step 2: decide_vc across free-channel-class singletons × argmin
        // positions (one per candidate output)
        let mut out: BTreeSet<(u8, u8)> = BTreeSet::new();
        for qmin in 0..dim {
            if cands & (1 << qmin) == 0 {
                continue;
            }
            for d in 0..dim {
                let q = Value::Int(if d == qmin { 0 } else { 9 });
                load(prog, &mut im, s.out_queue, &[Value::Int(d as i64)], q)?;
            }
            for fv in 0..5i64 {
                for v in 0..5i64 {
                    load(prog, &mut im, s.freevc, &[Value::Int(v)], Value::Bool(v == fv))?;
                }
                *machine.regs_mut() = RegFile::new(prog);
                let Some(decide_vc) = s.decide_vc else { continue };
                let casc = machine
                    .fire_base(decide_vc, &[], &*im)
                    .map_err(|e| fire_error(prog, decide_vc, e))?;
                let Some(Value::Int(vc)) = casc.last_return() else { continue };
                if !(0..5).contains(&vc) {
                    continue; // 7 = wait
                }
                if let Some(port) = self.chosen(&machine) {
                    if port < dim && cands & (1 << port) != 0 {
                        out.insert((port as u8, vc as u8));
                    }
                }
            }
        }
        Ok(out.into_iter().collect())
    }

    /// The full routing relation under a fault set.
    #[allow(clippy::type_complexity)]
    pub fn relation<'s>(
        &'s self,
        faults: &'s FaultSet,
    ) -> impl Fn(NodeId, Option<(PortId, VcId)>, NodeId) -> Vec<(PortId, VcId)> + 's {
        move |cur, _inc, dst| {
            let dim = self.cube.dim() as usize;
            let mut ok: u8 = 0;
            for d in 0..dim {
                let p = PortId(d as u8);
                if let Some(nb) = self.cube.neighbor(cur, p) {
                    if faults.link_usable(&self.cube, cur, p)
                        && (nb == dst || !faults.node_faulty(nb))
                    {
                        ok |= 1 << d;
                    }
                }
            }
            self.raw_channels(cur, dst, ok).into_iter().map(|(p, v)| (PortId(p), VcId(v))).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// fault-set enumeration and the verification drivers

/// All unique links of a topology as (node, port) with the lower node id.
fn unique_links(topo: &dyn Topology) -> Vec<(NodeId, PortId)> {
    let mut links = Vec::new();
    for n in topo.nodes() {
        for p in topo.ports() {
            if let Some(nb) = topo.neighbor(n, p) {
                if n.idx() < nb.idx() {
                    links.push((n, p));
                }
            }
        }
    }
    links
}

/// Every subset of `links` with at most `max_faults` elements; if that
/// exceeds `cap`, a deterministic sample (always including the fault-free
/// scenario).
fn fault_sets(
    links: &[(NodeId, PortId)],
    max_faults: usize,
    cap: usize,
    seed: u64,
) -> Vec<Vec<(NodeId, PortId)>> {
    let mut sets: Vec<Vec<(NodeId, PortId)>> = vec![Vec::new()];
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    for _ in 0..max_faults {
        let mut next = Vec::new();
        for combo in &frontier {
            let start = combo.last().map_or(0, |&l| l + 1);
            for i in start..links.len() {
                let mut c = combo.clone();
                c.push(i);
                sets.push(c.iter().map(|&j| links[j]).collect());
                next.push(c);
            }
        }
        frontier = next;
    }
    if sets.len() > cap {
        let mut rng = SimpleRng::new(seed);
        let mut sampled = vec![sets[0].clone()];
        while sampled.len() < cap {
            sampled.push(sets[1 + rng.below(sets.len() - 1)].clone());
        }
        sets = sampled;
    }
    sets
}

fn describe_faults(topo: &dyn Topology, set: &[(NodeId, PortId)]) -> String {
    if set.is_empty() {
        return "fault-free".into();
    }
    set.iter().map(|(n, p)| format!("link {}#{}", n.idx(), p.idx())).collect::<Vec<_>>().join(", ")
        + &format!(" ({} faults)", set.len())
        + &format!(" on {}", topo.name())
}

/// Proves (or refutes) deadlock freedom of a mesh rule program: builds
/// the CDG of the lifted relation for every enumerated link-fault set and
/// checks acyclicity by exhaustion over destinations.
pub fn verify_mesh(
    program_name: &str,
    compiled: &CompiledProgram,
    width: u32,
    height: u32,
    mode: MeshVcMode,
    max_faults: usize,
    max_fault_sets: usize,
) -> DeadlockReport {
    let mesh = Mesh2D::new(width, height);
    let lift = MeshProgramLift::new(compiled.clone(), mesh.clone(), mode);
    let links = unique_links(&mesh);
    let sets = fault_sets(&links, max_faults, max_fault_sets, 0x5eed);
    let mut report = DeadlockReport {
        program: program_name.into(),
        topology: format!("mesh {width}x{height}"),
        num_vcs: lift.num_vcs(),
        fault_sets_checked: 0,
        failures: Vec::new(),
        lift_error: lift.undrivable(),
    };
    if report.lift_error.is_some() {
        return report;
    }
    for set in &sets {
        let mut faults = FaultSet::new();
        for &(n, p) in set {
            faults.fail_link(&mesh, n, p);
        }
        let relation = lift.relation(&faults);
        let g = ChannelDependencyGraph::build(&mesh, &faults, lift.num_vcs(), &relation);
        report.fault_sets_checked += 1;
        if let Some(e) = lift.take_error() {
            report.lift_error = Some(format!("{e} [{}]", describe_faults(&mesh, set)));
            break;
        }
        if let Some(cycle) = g.find_cycle() {
            report.failures.push(CycleWitness { faults: describe_faults(&mesh, set), cycle });
        }
    }
    report
}

/// Hypercube analogue of [`verify_mesh`] for ROUTE_C-style programs.
pub fn verify_cube(
    program_name: &str,
    compiled: &CompiledProgram,
    dim: u32,
    max_faults: usize,
    max_fault_sets: usize,
) -> DeadlockReport {
    let cube = Hypercube::new(dim);
    let lift = CubeProgramLift::new(compiled.clone(), cube.clone());
    let links = unique_links(&cube);
    let sets = fault_sets(&links, max_faults, max_fault_sets, 0x5eed);
    let mut report = DeadlockReport {
        program: program_name.into(),
        topology: format!("hypercube d={dim}"),
        num_vcs: 5,
        fault_sets_checked: 0,
        failures: Vec::new(),
        lift_error: lift.undrivable(),
    };
    if report.lift_error.is_some() {
        return report;
    }
    for set in &sets {
        let mut faults = FaultSet::new();
        for &(n, p) in set {
            faults.fail_link(&cube, n, p);
        }
        let relation = lift.relation(&faults);
        let g = ChannelDependencyGraph::build(&cube, &faults, 5, &relation);
        report.fault_sets_checked += 1;
        if let Some(e) = lift.take_error() {
            report.lift_error = Some(format!("{e} [{}]", describe_faults(&cube, set)));
            break;
        }
        if let Some(cycle) = g.find_cycle() {
            report.failures.push(CycleWitness { faults: describe_faults(&cube, set), cycle });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_set_enumeration_counts() {
        let mesh = Mesh2D::new(3, 3);
        let links = unique_links(&mesh);
        assert_eq!(links.len(), 12); // 2*3*3 - 3 - 3
        let sets = fault_sets(&links, 2, usize::MAX, 1);
        // empty + 12 singles + C(12,2) pairs
        assert_eq!(sets.len(), 1 + 12 + 66);
        let sets1 = fault_sets(&links, 1, usize::MAX, 1);
        assert_eq!(sets1.len(), 13);
    }

    #[test]
    fn sampling_keeps_fault_free_scenario() {
        let mesh = Mesh2D::new(4, 4);
        let links = unique_links(&mesh);
        let sets = fault_sets(&links, 2, 10, 7);
        assert_eq!(sets.len(), 10);
        assert!(sets[0].is_empty());
    }
}
