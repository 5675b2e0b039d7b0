//! Event manager — "all actions are controlled and synchronized by an
//! event manager" (§4).
//!
//! A [`Machine`] shares a compiled program and owns its register file. The
//! host (the router) fires external events (message arrival, link-state
//! change, flit completion); rule conclusions may generate further events
//! (`!event(args)`), which the manager queues and processes until quiescent.
//! Events whose name matches no rule base are *host events* (e.g.
//! `send_newmessage` telling the router to emit a control message to a
//! neighbour) and are handed back to the caller.
//!
//! Every name is bound before the first fire: the compiler resolves each
//! `!event` to a rule-base index, and a host resolves its entry events once
//! ([`Machine::base_index`]) and fires them with [`Machine::fire_base`].
//! The machine keeps its cascade buffers between fires, so a steady-state
//! decision compares no string and allocates nothing.
//!
//! Every rule-base interpretation counts as one **step** — the quantity the
//! paper's §5 reports as "number of consecutive rule interpretations"
//! (NAFTA: 1 fault-free to 3 worst case; ROUTE_C: always 2).

use crate::ast::Program;
use crate::compile::{compile, CompileOptions};
use crate::env::{InputProvider, RegFile};
use crate::error::{Result, RuleError};
use crate::eval::{Effects, EventInstance, FireOutcome};
use crate::interp::CompiledProgram;
use crate::probe::InterpProbe;
use crate::value::Value;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// Execution statistics of a machine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MachineStats {
    /// Total rule-base interpretations performed.
    pub total_steps: u64,
    /// Interpretations performed by the most recent [`Machine::fire`] call
    /// (the paper's per-decision step count).
    pub last_fire_steps: u32,
    /// Per-rule-base interpretation counts (indexed like
    /// `Program::rulebases`).
    pub per_base: Vec<u64>,
}

/// Modeled per-rule step weights for an optimized program.
///
/// Fusing a decision chain (e.g. NAFTA's `incoming_message` →
/// `in_message_ft` → `test_exception`) collapses two or three physical
/// interpretations into one, but the *modeled* step count — the quantity
/// §5 reports and the simulator converts into decision-cycle delay —
/// must stay exactly what the unoptimized program would have counted.
/// `StepWeights` records how many original interpretations each rule of
/// the rewritten program stands for; the machine's dispatch loop adds
/// the weight instead of 1, so `MachineStats::last_fire_steps` and
/// [`CascadeOutcome::steps`] remain bit-identical to the original while
/// `MachineStats::per_base` keeps counting *physical* interpretations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepWeights {
    /// Per base (indexed like `Program::rulebases`): per-rule weights,
    /// with one extra trailing slot for the gap (no-applicable-rule)
    /// outcome. Missing bases/slots default to weight 1.
    pub per_base: Vec<Vec<u32>>,
}

impl StepWeights {
    /// Uniform weight 1 for every rule of every base — the identity model.
    pub fn identity(prog: &Program) -> Self {
        StepWeights {
            per_base: prog.rulebases.iter().map(|rb| vec![1; rb.rules.len() + 1]).collect(),
        }
    }

    /// Weight of firing `rule` (`None` = gap entry) in `base`.
    pub fn weight(&self, base: usize, rule: Option<usize>) -> u32 {
        let Some(ws) = self.per_base.get(base) else { return 1 };
        let slot = match rule {
            Some(r) => r,
            None => ws.len().saturating_sub(1),
        };
        ws.get(slot).copied().unwrap_or(1)
    }
}

/// Everything a cascaded fire produced.
#[derive(Clone, Debug, Default)]
pub struct CascadeOutcome {
    /// Per-base outcomes, in firing order. Their `emitted` lists are
    /// empty: the machine routes each generated event, into its own queue
    /// or into `host_events`.
    pub outcomes: Vec<FireOutcome>,
    /// Events that escaped to the host.
    pub host_events: Vec<EventInstance>,
    /// Total rule interpretations of the cascade.
    pub steps: u32,
}

impl CascadeOutcome {
    /// The value of the last `RETURN` executed anywhere in the cascade.
    pub fn last_return(&self) -> Option<Value> {
        self.outcomes.iter().rev().find_map(|o| o.returned)
    }
}

/// A running rule machine: compiled program + registers + event queue.
pub struct Machine {
    compiled: Arc<CompiledProgram>,
    regs: RegFile,
    /// Internal events awaiting dispatch: rule base and the range of
    /// `args` holding its arguments.
    queue: VecDeque<(usize, Range<usize>)>,
    /// Arguments of the events of the cascade in flight.
    args: Vec<Value>,
    /// Conclusion buffers of the table interpreter.
    fx: Effects,
    /// The last cascade's result, reused by the next.
    out: CascadeOutcome,
    probe: Option<Arc<dyn InterpProbe>>,
    step_weights: Option<Arc<StepWeights>>,
    /// Safety budget per external fire: livelock guard for cyclic event
    /// generation.
    pub max_internal_events: u32,
    /// Statistics.
    pub stats: MachineStats,
}

impl Machine {
    /// Compiles `prog` and builds a machine with freshly initialised
    /// registers.
    pub fn new(prog: Program, opts: &CompileOptions) -> Result<Self> {
        Ok(Self::from_compiled(compile(&prog, opts)?))
    }

    /// Wraps an already compiled program; pass an `Arc` to share one
    /// program among many machines.
    pub fn from_compiled(compiled: impl Into<Arc<CompiledProgram>>) -> Self {
        let compiled = compiled.into();
        let n = compiled.prog.rulebases.len();
        let regs = RegFile::new(&compiled.prog);
        Machine {
            compiled,
            regs,
            queue: VecDeque::new(),
            args: Vec::new(),
            fx: Effects::default(),
            out: CascadeOutcome::default(),
            probe: None,
            step_weights: None,
            max_internal_events: 10_000,
            stats: MachineStats { per_base: vec![0; n], ..Default::default() },
        }
    }

    /// Installs modeled step weights (see [`StepWeights`]); used when
    /// running an optimized program whose fused rules stand for several
    /// original interpretations.
    pub fn set_step_weights(&mut self, weights: Arc<StepWeights>) {
        self.step_weights = Some(weights);
    }

    /// Installs an interpretation probe: every subsequent rule-base fire
    /// reports per-stage timing to it (see [`crate::probe`]).
    pub fn set_probe(&mut self, probe: Arc<dyn InterpProbe>) {
        self.probe = Some(probe);
    }

    /// Removes the probe.
    pub fn clear_probe(&mut self) {
        self.probe = None;
    }

    /// The program.
    pub fn program(&self) -> &Program {
        &self.compiled.prog
    }

    /// The compiled artefact.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// Register file (read access for the host/information units).
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// Register file (host-side initialisation, e.g. loading the node's own
    /// coordinates).
    pub fn regs_mut(&mut self) -> &mut RegFile {
        &mut self.regs
    }

    /// Writes register `var` (e.g. a node's own coordinates, through an
    /// index resolved once with [`Program::var`]).
    pub fn write_reg(&mut self, var: usize, indices: &[Value], v: Value) -> Result<()> {
        self.regs.write(&self.compiled.prog, var, indices, v)
    }

    /// Reads register `var`.
    pub fn read_reg(&self, var: usize, indices: &[Value]) -> Result<Value> {
        self.regs.read(&self.compiled.prog, var, indices)
    }

    /// Index of the rule base triggered by event `name` — the handle a
    /// host resolves once and passes to [`Machine::fire_base`].
    pub fn base_index(&self, name: &str) -> Option<usize> {
        self.compiled.prog.rulebase(name).map(|(i, _)| i)
    }

    /// Fires external event `event(args)`, then drains all internally
    /// generated events. Returns the outcome of the *directly fired* base
    /// (with its events routed, see [`CascadeOutcome::outcomes`]) plus
    /// every event that escaped to the host.
    pub fn fire(
        &mut self,
        event: &str,
        args: &[Value],
        inputs: &dyn InputProvider,
    ) -> Result<(FireOutcome, Vec<EventInstance>)> {
        let casc = self.fire_cascade(event, args, inputs)?;
        Ok((casc.outcomes.first().cloned().unwrap_or_default(), casc.host_events.clone()))
    }

    /// Like [`Machine::fire`], but returns every rule-base outcome of the
    /// cascade in firing order — a multi-step routing decision (e.g.
    /// NAFTA's `incoming_message` → `in_message_ft` → `test_exception`)
    /// delivers its verdict from the *last* base that returned a value.
    /// An event without a rule base becomes a host event.
    pub fn fire_cascade(
        &mut self,
        event: &str,
        args: &[Value],
        inputs: &dyn InputProvider,
    ) -> Result<&CascadeOutcome> {
        let base = self.base_index(event);
        self.cascade(base.ok_or(event), args, inputs)
    }

    /// [`Machine::fire_cascade`] of rule base `base` (from
    /// [`Machine::base_index`]): the per-decision entry point.
    pub fn fire_base(
        &mut self,
        base: usize,
        args: &[Value],
        inputs: &dyn InputProvider,
    ) -> Result<&CascadeOutcome> {
        if base >= self.compiled.bases.len() {
            return Err(RuleError::eval(format!("no rule base {base}")));
        }
        self.cascade(Ok(base), args, inputs)
    }

    /// Dispatches the first event (a rule base, or the name of a host
    /// event), then drains the internal queue.
    fn cascade(
        &mut self,
        first: std::result::Result<usize, &str>,
        args: &[Value],
        inputs: &dyn InputProvider,
    ) -> Result<&CascadeOutcome> {
        self.stats.last_fire_steps = 0;
        self.out.outcomes.clear();
        self.out.host_events.clear();
        // events left queued by a cascade that failed still run, after
        // this fire's first event; their arguments must survive
        if self.queue.is_empty() {
            self.args.clear();
        }
        match first {
            Ok(base) => {
                let start = self.args.len();
                self.args.extend_from_slice(args);
                self.dispatch(base, start..self.args.len(), inputs)?;
            }
            Err(event) => self
                .out
                .host_events
                .push(EventInstance { event: event.to_string(), args: args.to_vec() }),
        }
        let mut processed = 0u32;
        while let Some((base, args)) = self.queue.pop_front() {
            processed += 1;
            if processed > self.max_internal_events {
                return Err(RuleError::eval(format!(
                    "event livelock: more than {} internal events from one fire",
                    self.max_internal_events
                )));
            }
            self.dispatch(base, args, inputs)?;
        }
        self.out.steps = self.stats.last_fire_steps;
        Ok(&self.out)
    }

    /// Interprets rule base `idx` on the arguments `self.args[params]`
    /// (counting one step), queues the internal events its conclusion
    /// generated and hands the others to the host.
    fn dispatch(
        &mut self,
        idx: usize,
        params: Range<usize>,
        inputs: &dyn InputProvider,
    ) -> Result<()> {
        self.stats.per_base[idx] += 1;
        let prog = &self.compiled.prog;
        let base = &self.compiled.bases[idx];
        let rule = base.fire_into(
            prog,
            &self.args[params],
            &mut self.regs,
            inputs,
            &mut self.fx,
            self.probe.as_deref(),
        )?;
        for (id, args) in &self.fx.emits {
            let args = &self.fx.vals[args.clone()];
            // an interpretation that fired no rule emitted nothing
            let target = &base.emits[rule.unwrap_or_default()][*id];
            match target.base {
                Some(b) => {
                    let start = self.args.len();
                    self.args.extend_from_slice(args);
                    self.queue.push_back((b, start..self.args.len()));
                }
                None => self
                    .out
                    .host_events
                    .push(EventInstance { event: target.event.clone(), args: args.to_vec() }),
            }
        }
        // modeled steps: a fused rule counts as every interpretation it
        // replaced, so step-derived quantities match the original program
        let w = self.step_weights.as_ref().map_or(1, |sw| sw.weight(idx, rule));
        self.stats.total_steps += u64::from(w);
        self.stats.last_fire_steps += w;
        self.out.outcomes.push(FireOutcome {
            rule,
            returned: self.fx.returned,
            emitted: Vec::new(),
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::InputMap;
    use crate::parser::parse;

    fn int(v: i64) -> Value {
        Value::Int(v)
    }

    #[test]
    fn cascading_internal_events() {
        // a fires b; b increments a counter and emits a host event
        let p = parse(
            "VARIABLE n IN 0 TO 7 INIT 0\n\
             ON a()\n IF TRUE THEN !b(3);\nEND a;\n\
             ON b(x IN 0 TO 7)\n IF TRUE THEN n <- x, !notify_host(x);\nEND b;",
        )
        .unwrap();
        let mut m = Machine::new(p, &CompileOptions::default()).unwrap();
        let (out, host) = m.fire("a", &[], &InputMap::new()).unwrap();
        assert_eq!(out.rule, Some(0));
        assert_eq!(m.regs().read(m.program(), 0, &[]).unwrap(), int(3));
        assert_eq!(host.len(), 1);
        assert_eq!(host[0].event, "notify_host");
        assert_eq!(m.stats.last_fire_steps, 2, "a + b = two interpretations");
    }

    #[test]
    fn unknown_event_goes_to_host() {
        let p = parse("VARIABLE n IN 0 TO 1\nON a() IF TRUE THEN n <- 1; END a;").unwrap();
        let mut m = Machine::new(p, &CompileOptions::default()).unwrap();
        let (out, host) = m.fire("nothere", &[int(1)], &InputMap::new()).unwrap();
        assert_eq!(out.rule, None);
        assert_eq!(host.len(), 1);
        assert_eq!(host[0].event, "nothere");
        assert_eq!(m.stats.last_fire_steps, 0);
    }

    #[test]
    fn livelock_guard_trips() {
        let p = parse("ON a() IF TRUE THEN !a(); END a;").unwrap();
        let mut m = Machine::new(p, &CompileOptions::default()).unwrap();
        m.max_internal_events = 50;
        let e = m.fire("a", &[], &InputMap::new());
        assert!(e.is_err());
    }

    #[test]
    fn per_base_step_counts() {
        let p = parse(
            "VARIABLE n IN 0 TO 7 INIT 0\n\
             ON a()\n IF n < 3 THEN n <- n + 1, !a();\nEND a;",
        )
        .unwrap();
        let mut m = Machine::new(p, &CompileOptions::default()).unwrap();
        let (_, _) = m.fire("a", &[], &InputMap::new()).unwrap();
        // fires at n=0,1,2 re-emitting, at n=3 premise fails (no emission)
        assert_eq!(m.stats.per_base[0], 4);
        assert_eq!(m.stats.total_steps, 4);
        assert_eq!(m.regs().read(m.program(), 0, &[]).unwrap(), int(3));
    }

    #[test]
    fn step_weights_scale_modeled_steps_only() {
        let p = parse(
            "VARIABLE n IN 0 TO 7 INIT 0\n\
             ON a() RETURNS 0 TO 7\n\
               IF n = 0 THEN RETURN(0);\n\
               IF TRUE THEN RETURN(1);\n\
             END a;",
        )
        .unwrap();
        let mut m = Machine::new(p, &CompileOptions::default()).unwrap();
        let mut w = StepWeights::identity(m.program());
        w.per_base[0] = vec![3, 1, 2]; // rule0→3, rule1→1, gap→2
        m.set_step_weights(Arc::new(w));
        let casc = m.fire_cascade("a", &[], &InputMap::new()).unwrap();
        assert_eq!(casc.steps, 3, "rule 0 fired with weight 3");
        assert_eq!(m.stats.total_steps, 3);
        assert_eq!(m.stats.per_base[0], 1, "physical count unscaled");
    }

    #[test]
    fn probe_and_step_weights_compose() {
        // The modeled-cost contract under both hooks at once: with a probe
        // attached and non-uniform `StepWeights` installed, the machine
        // reports one stage record per stage of every dispatched fire and
        // the weighted step counts.
        use crate::probe::Stage;
        use std::sync::Mutex;
        #[derive(Default)]
        struct Recorder(Mutex<Vec<(usize, Stage)>>);
        impl InterpProbe for Recorder {
            fn record_stage(&self, base: usize, stage: Stage, _nanos: u64) {
                self.0.lock().unwrap().push((base, stage));
            }
        }

        let p = parse(
            "VARIABLE n IN 0 TO 7 INIT 0\n\
             ON a()\n IF n < 3 THEN n <- n + 1, !a();\n IF n = 3 THEN !done(n);\nEND a;",
        )
        .unwrap();
        let mut m = Machine::new(p, &CompileOptions::default()).unwrap();
        let mut w = StepWeights::identity(m.program());
        w.per_base[0] = vec![3, 5, 2]; // rule 0, rule 1, gap
        m.set_step_weights(Arc::new(w));
        let rec = Arc::new(Recorder::default());
        m.set_probe(rec.clone());
        let steps = m.fire_cascade("a", &[], &InputMap::new()).unwrap().steps;
        // 3 fires of rule 0 (weight 3) + 1 fire of rule 1 (weight 5)
        assert_eq!(steps, 14, "weighted cascade steps");
        assert_eq!(m.stats.total_steps, 14);
        assert_eq!(m.stats.per_base, vec![4], "per_base counts physical interpretations");
        assert_eq!(rec.0.lock().unwrap().len(), 12, "three stages per dispatched fire");
    }

    #[test]
    fn host_initialises_registers() {
        let p = parse(
            "VARIABLE xpos IN 0 TO 15\n\
             ON q() RETURNS 0 TO 15\n IF TRUE THEN RETURN(xpos);\nEND q;",
        )
        .unwrap();
        let mut m = Machine::new(p.clone(), &CompileOptions::default()).unwrap();
        m.regs_mut().write(&p, 0, &[], int(7)).unwrap();
        let (out, _) = m.fire("q", &[], &InputMap::new()).unwrap();
        assert_eq!(out.returned, Some(int(7)));
    }
}
