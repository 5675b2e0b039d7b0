//! The bytecode dispatch loop.
//!
//! Execution of one interpretation follows the same three stages as the
//! table interpreter: the premise block accumulates the mixed-radix table
//! index, the kernel is one jump-table lookup, and the selected conclusion
//! block queues effects into the [`Scratch`] frame, which commit with the
//! parallel-write semantics of [`crate::eval::apply_rule`]. The probed
//! variant records the exact `(base, stage)` sequence the table
//! interpreter's `fire_probed` would — including the error cases (premise
//! error: nothing recorded; kernel error: Premise only; conclusion error:
//! all three stages recorded before the error returns).

use super::{BaseCode, Op, Slot, SlotRange};
use crate::ast::Program;
use crate::env::{InputProvider, RegFile};
use crate::error::{Result, RuleError};
use crate::eval::{apply_bin, apply_builtin, values_equal, EventInstance, FireOutcome};
use crate::probe::{InterpProbe, Stage};
use crate::value::{Domain, Value};
use std::time::Instant;

/// Reusable per-machine execution frame: value slots, set iterators and
/// the queued effects of the conclusion in flight. Owning one per
/// [`crate::event::Machine`] means steady-state firing allocates nothing.
#[derive(Debug, Default)]
pub struct Scratch {
    slots: Vec<Value>,
    iters: Vec<IterState>,
    writes: Vec<QueuedWrite>,
    emits: Vec<EventInstance>,
    returned: Option<Value>,
}

#[derive(Debug)]
struct QueuedWrite {
    var: usize,
    indices: Vec<Value>,
    value: Value,
}

/// An in-progress set iteration (canonical ordinal order, like
/// [`crate::eval::set_iter`]).
#[derive(Clone, Copy, Debug)]
struct IterState {
    dom: Domain,
    mask: u64,
    size: u64,
    pos: u64,
}

impl IterState {
    fn idle() -> Self {
        IterState { dom: Domain::Bool, mask: 0, size: 0, pos: 0 }
    }
}

impl Scratch {
    /// Creates an empty frame; it grows to fit whichever base fires.
    pub fn new() -> Self {
        Scratch::default()
    }

    fn reset(&mut self, code: &BaseCode) {
        // The lowering only ever emits def-before-use slot accesses
        // (every op writes its `dst` before any later op reads it, on
        // every control-flow path — including entry into a conclusion
        // block via the kernel jump), so values left over from the
        // previous fire are unobservable and the buffers are grown, not
        // cleared: reset stays O(1) on the steady-state fire path.
        if self.slots.len() < code.slot_count as usize {
            self.slots.resize(code.slot_count as usize, Value::Bool(false));
        }
        if self.iters.len() < code.iter_count as usize {
            self.iters.resize(code.iter_count as usize, IterState::idle());
        }
        self.writes.clear();
        self.emits.clear();
        self.returned = None;
    }

    /// Applies the queued writes with the reference parallel-write
    /// semantics — same pre-state reads, apply order, duplicate tolerance
    /// and conflict error as [`crate::eval::apply_rule`].
    fn commit(&mut self, prog: &Program, rule: usize, regs: &mut RegFile) -> Result<FireOutcome> {
        let mut done: Vec<(usize, usize, Value)> = Vec::new();
        for w in &self.writes {
            let cell = RegFile::cell(prog, w.var, &w.indices)?;
            if let Some((_, _, prev)) = done.iter().find(|(v, c, _)| *v == w.var && *c == cell) {
                if !values_equal(prog, prev, &w.value)? {
                    return Err(RuleError::eval(format!(
                        "conflicting parallel writes to `{}`",
                        prog.vars[w.var].name
                    )));
                }
                continue;
            }
            regs.write_cell(prog, w.var, cell, w.value)?;
            done.push((w.var, cell, w.value));
        }
        Ok(FireOutcome {
            rule: Some(rule),
            returned: self.returned.take(),
            emitted: std::mem::take(&mut self.emits),
        })
    }
}

/// Why a code segment stopped.
enum Halt {
    /// Premise block finished; payload is the accumulated table index.
    AtDispatch(u64),
    /// Conclusion block finished as rule `Some(r)` or the gap (`None`).
    Done(Option<u16>),
}

struct Exec<'a> {
    prog: &'a Program,
    code: &'a BaseCode,
    params: &'a [Value],
    regs: &'a RegFile,
    inputs: &'a dyn InputProvider,
    sc: &'a mut Scratch,
}

impl Exec<'_> {
    fn slot(&self, s: Slot) -> Value {
        self.sc.slots[s as usize]
    }

    fn vals(&self, r: SlotRange) -> &[Value] {
        &self.sc.slots[r.as_range()]
    }

    fn run(&mut self, mut pc: u32) -> Result<Halt> {
        let mut acc = 0u64;
        loop {
            let op = self
                .code
                .ops
                .get(pc as usize)
                .ok_or_else(|| RuleError::eval(format!("bytecode pc {pc} out of range")))?;
            pc += 1;
            match op {
                Op::Const { dst, v } => self.sc.slots[*dst as usize] = *v,
                Op::Copy { src, dst } => self.sc.slots[*dst as usize] = self.slot(*src),
                Op::ReadVar { var, idx, dst } => {
                    let v = self.regs.read(self.prog, *var as usize, self.vals(*idx))?;
                    self.sc.slots[*dst as usize] = v;
                }
                Op::ReadInput { input, idx, dst } => {
                    let v = self.inputs.read_input(self.prog, *input as usize, self.vals(*idx))?;
                    self.sc.slots[*dst as usize] = v;
                }
                Op::ReadParam { param, dst } => {
                    let v = self
                        .params
                        .get(*param as usize)
                        .copied()
                        .ok_or_else(|| RuleError::eval(format!("missing parameter {param}")))?;
                    self.sc.slots[*dst as usize] = v;
                }
                Op::Not { src, dst } => {
                    let b = self.slot(*src).as_bool()?;
                    self.sc.slots[*dst as usize] = Value::Bool(!b);
                }
                Op::Neg { src, dst } => {
                    let n = self.slot(*src).as_int()?;
                    self.sc.slots[*dst as usize] = Value::Int(-n);
                }
                Op::Bin { op, lhs, rhs, dst } => {
                    let v = apply_bin(self.prog, *op, &self.slot(*lhs), &self.slot(*rhs))?;
                    self.sc.slots[*dst as usize] = v;
                }
                Op::AsBool { src, dst } => {
                    let b = self.slot(*src).as_bool()?;
                    self.sc.slots[*dst as usize] = Value::Bool(b);
                }
                Op::CallB { builtin, args, dst } => {
                    let v = apply_builtin(self.prog, self.inputs, *builtin, self.vals(*args))?;
                    self.sc.slots[*dst as usize] = v;
                }
                Op::Jump { target } => pc = *target,
                Op::CondJump { src, when, target } => {
                    if self.slot(*src).as_bool()? == *when {
                        pc = *target;
                    }
                }
                Op::IterInit { iter, src } => {
                    let (dom, mask) = self.slot(*src).as_set()?;
                    let ss = self.prog.sym_sizes();
                    // A set value can hold at most 64 elements by
                    // construction; the cap keeps the bit test in range.
                    let size = dom.size(&ss).min(64);
                    self.sc.iters[*iter as usize] = IterState { dom, mask, size, pos: 0 };
                }
                Op::IterNext { iter, dst, exit } => {
                    let st = &mut self.sc.iters[*iter as usize];
                    let mut next = None;
                    while st.pos < st.size {
                        let k = st.pos;
                        st.pos += 1;
                        if st.mask & (1 << k) != 0 {
                            next = Some(st.dom.value_at(k));
                            break;
                        }
                    }
                    match next {
                        Some(v) => self.sc.slots[*dst as usize] = v,
                        None => pc = *exit,
                    }
                }
                Op::DigitDirect { src, dom, stride } => {
                    let v = self.slot(*src);
                    let ss = self.prog.sym_sizes();
                    let d = dom.ordinal(&v, &ss).ok_or_else(|| {
                        RuleError::eval(format!("direct feature value {v} outside {dom:?}"))
                    })?;
                    acc += d * stride;
                }
                Op::DigitPred { src, stride } => {
                    if self.slot(*src).as_bool()? {
                        acc += stride;
                    }
                }
                Op::Dispatch => return Ok(Halt::AtDispatch(acc)),
                Op::QueueWrite { var, idx, val } => {
                    let w = QueuedWrite {
                        var: *var as usize,
                        indices: self.sc.slots[idx.as_range()].to_vec(),
                        value: self.slot(*val),
                    };
                    self.sc.writes.push(w);
                }
                Op::QueueReturn { src } => {
                    let v = self.slot(*src);
                    match &self.sc.returned {
                        Some(prev) if !values_equal(self.prog, prev, &v)? => {
                            return Err(RuleError::eval(format!(
                                "conflicting RETURN values {prev} vs {v}"
                            )));
                        }
                        _ => self.sc.returned = Some(v),
                    }
                }
                Op::QueueEmit { event, args } => {
                    let ev = EventInstance {
                        event: self.code.events[*event as usize].clone(),
                        args: self.sc.slots[args.as_range()].to_vec(),
                    };
                    self.sc.emits.push(ev);
                }
                Op::Commit { rule } => return Ok(Halt::Done(Some(*rule))),
                Op::CommitGap => return Ok(Halt::Done(None)),
            }
        }
    }
}

impl BaseCode {
    /// Kernel stage: one table lookup, checked like
    /// [`crate::interp::CompiledRuleBase::entry`].
    fn kernel(&self, idx: u64) -> Result<u32> {
        self.jump_table.get(idx as usize).copied().ok_or_else(|| {
            RuleError::eval(format!(
                "corrupt rule table: index {idx} outside {} entries",
                self.jump_table.len()
            ))
        })
    }

    fn conclude(
        &self,
        prog: &Program,
        params: &[Value],
        regs: &mut RegFile,
        inputs: &dyn InputProvider,
        scratch: &mut Scratch,
        target: u32,
    ) -> Result<FireOutcome> {
        let halt = Exec { prog, code: self, params, regs, inputs, sc: scratch }.run(target)?;
        match halt {
            Halt::Done(None) => Ok(FireOutcome::default()),
            Halt::Done(Some(rule)) => scratch.commit(prog, rule as usize, regs),
            Halt::AtDispatch(_) => {
                Err(RuleError::eval("bytecode re-entered dispatch in a conclusion".to_string()))
            }
        }
    }

    /// One full interpretation: premise block, kernel jump, conclusion
    /// block, commit. Behaviour (outcome, register effects, error-ness)
    /// matches [`crate::interp::CompiledRuleBase::fire`] exactly.
    pub fn fire(
        &self,
        prog: &Program,
        params: &[Value],
        regs: &mut RegFile,
        inputs: &dyn InputProvider,
        scratch: &mut Scratch,
    ) -> Result<FireOutcome> {
        scratch.reset(self);
        let halt = Exec { prog, code: self, params, regs, inputs, sc: scratch }.run(0)?;
        let Halt::AtDispatch(idx) = halt else {
            return Err(RuleError::eval("bytecode premise block did not dispatch".to_string()));
        };
        let target = self.kernel(idx)?;
        self.conclude(prog, params, regs, inputs, scratch, target)
    }

    /// Like [`BaseCode::fire`], but reports per-stage wall-clock cost to
    /// `probe` with the same record points as the table interpreter's
    /// `fire_probed`.
    pub fn fire_probed(
        &self,
        prog: &Program,
        params: &[Value],
        regs: &mut RegFile,
        inputs: &dyn InputProvider,
        scratch: &mut Scratch,
        probe: &dyn InterpProbe,
    ) -> Result<FireOutcome> {
        scratch.reset(self);
        let t0 = Instant::now();
        let halt = Exec { prog, code: self, params, regs, inputs, sc: scratch }.run(0)?;
        let Halt::AtDispatch(idx) = halt else {
            return Err(RuleError::eval("bytecode premise block did not dispatch".to_string()));
        };
        let t1 = Instant::now();
        probe.record_stage(self.rb, Stage::Premise, (t1 - t0).as_nanos() as u64);
        let target = self.kernel(idx)?;
        let t2 = Instant::now();
        probe.record_stage(self.rb, Stage::Kernel, (t2 - t1).as_nanos() as u64);
        let out = self.conclude(prog, params, regs, inputs, scratch, target);
        probe.record_stage(self.rb, Stage::Conclusion, t2.elapsed().as_nanos() as u64);
        out
    }
}
