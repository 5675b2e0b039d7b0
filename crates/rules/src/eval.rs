//! Reference (direct-AST) evaluator.
//!
//! This is the semantic ground truth the ARON-compiled interpreter is
//! differentially tested against. Rule firing follows §4.2: rules are
//! checked independently, exactly one applicable rule executes (the first in
//! source order here — the paper leaves the tie-break to the
//! implementation), and the commands of its conclusion execute *in
//! parallel*: all right-hand sides are evaluated against the pre-state, then
//! the writes are applied; conflicting writes to the same cell are an error.

use crate::ast::*;
use crate::env::{InputProvider, RegFile};
use crate::error::{Result, RuleError};
use crate::value::{Domain, Value};
use std::ops::Range;

/// Read-only evaluation context for one rule-base invocation.
pub struct EvalCtx<'a> {
    /// The program.
    pub prog: &'a Program,
    /// Register file (pre-state).
    pub regs: &'a RegFile,
    /// External inputs.
    pub inputs: &'a dyn InputProvider,
    /// Event parameter values.
    pub params: &'a [Value],
    /// Quantifier binder stack, innermost last.
    pub bounds: Vec<Value>,
}

impl<'a> EvalCtx<'a> {
    /// Creates a context with no active binders.
    pub fn new(
        prog: &'a Program,
        regs: &'a RegFile,
        inputs: &'a dyn InputProvider,
        params: &'a [Value],
    ) -> Self {
        EvalCtx { prog, regs, inputs, params, bounds: Vec::new() }
    }
}

/// An event generated by a conclusion (`!name(args)`).
#[derive(Clone, Debug, PartialEq)]
pub struct EventInstance {
    /// Event name.
    pub event: String,
    /// Evaluated arguments.
    pub args: Vec<Value>,
}

/// Result of firing a rule base once.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FireOutcome {
    /// Index of the rule that fired, `None` if no premise held.
    pub rule: Option<usize>,
    /// RETURN value, if the conclusion returned.
    pub returned: Option<Value>,
    /// Events generated by the conclusion.
    pub emitted: Vec<EventInstance>,
}

/// The elements of a set value in canonical order, without collecting
/// them.
pub fn set_iter(prog: &Program, v: &Value) -> Result<impl Iterator<Item = Value>> {
    let (dom, mask) = v.as_set()?;
    let n = dom.size(&prog.sym_sizes());
    Ok((0..n).filter(move |k| mask & (1 << k) != 0).map(move |k| dom.value_at(k)))
}

/// Builds a set value over the smallest common domain of two set domains.
fn hull_domain(a: Domain, b: Domain) -> Result<Domain> {
    match (a, b) {
        (Domain::Int { lo: al, hi: ah }, Domain::Int { lo: bl, hi: bh }) => {
            Ok(Domain::Int { lo: al.min(bl), hi: ah.max(bh) })
        }
        (Domain::Sym(x), Domain::Sym(y)) if x == y => Ok(a),
        (Domain::Bool, Domain::Bool) => Ok(Domain::Bool),
        _ => Err(RuleError::eval(format!("incompatible set domains {a:?} vs {b:?}"))),
    }
}

/// Semantic equality (sets compare by membership, not by representation).
pub fn values_equal(prog: &Program, a: &Value, b: &Value) -> Result<bool> {
    match (a, b) {
        (Value::Set { .. }, Value::Set { .. }) => Ok(set_iter(prog, a)?.eq(set_iter(prog, b)?)),
        _ => Ok(a == b),
    }
}

/// Inline capacity of the stack buffer that index tuples and builtin
/// arguments are evaluated into (longer lists spill to the heap).
const INLINE_VALUES: usize = 4;

/// Evaluates `exprs` into a stack buffer and hands the values to `f`.
fn with_values<'a, R>(
    ctx: &mut EvalCtx<'a>,
    exprs: &[Expr],
    f: impl FnOnce(&mut EvalCtx<'a>, &[Value]) -> Result<R>,
) -> Result<R> {
    if exprs.len() > INLINE_VALUES {
        let vals = exprs.iter().map(|e| eval_expr(ctx, e)).collect::<Result<Vec<_>>>()?;
        return f(ctx, &vals);
    }
    let mut buf = [Value::Bool(false); INLINE_VALUES];
    for (slot, e) in buf.iter_mut().zip(exprs) {
        *slot = eval_expr(ctx, e)?;
    }
    f(ctx, &buf[..exprs.len()])
}

/// Evaluates an expression.
pub fn eval_expr(ctx: &mut EvalCtx<'_>, e: &Expr) -> Result<Value> {
    match e {
        Expr::Lit(v) => Ok(*v),
        Expr::Ref(r) => match r {
            Ref::Const(i) => Ok(ctx.prog.consts[*i].value),
            Ref::Var(i) => ctx.regs.read(ctx.prog, *i, &[]),
            Ref::Input(i) => ctx.inputs.read_input(ctx.prog, *i, &[]),
            Ref::Param(i) => ctx
                .params
                .get(*i)
                .copied()
                .ok_or_else(|| RuleError::eval(format!("missing parameter {i}"))),
            Ref::Bound(d) => {
                let n = ctx.bounds.len();
                ctx.bounds
                    .get(n.wrapping_sub(1 + d))
                    .copied()
                    .ok_or_else(|| RuleError::eval(format!("unbound binder depth {d}")))
            }
        },
        Expr::Indexed { target, indices } => with_values(ctx, indices, |ctx, idx| match target {
            IndexedRef::Var(v) => ctx.regs.read(ctx.prog, *v, idx),
            IndexedRef::Input(i) => ctx.inputs.read_input(ctx.prog, *i, idx),
        }),
        Expr::Un(op, inner) => {
            let v = eval_expr(ctx, inner)?;
            match op {
                UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
                UnOp::Neg => Ok(Value::Int(-v.as_int()?)),
            }
        }
        Expr::Bin(op, l, r) => {
            // short-circuit booleans
            match op {
                BinOp::And => {
                    return Ok(Value::Bool(
                        eval_expr(ctx, l)?.as_bool()? && eval_expr(ctx, r)?.as_bool()?,
                    ))
                }
                BinOp::Or => {
                    return Ok(Value::Bool(
                        eval_expr(ctx, l)?.as_bool()? || eval_expr(ctx, r)?.as_bool()?,
                    ))
                }
                _ => {}
            }
            let lv = eval_expr(ctx, l)?;
            let rv = eval_expr(ctx, r)?;
            apply_bin(ctx.prog, *op, &lv, &rv)
        }
        Expr::Quant { q, set, body, .. } => {
            let sv = eval_expr(ctx, set)?;
            let mut acc = matches!(q, Quant::Forall);
            for v in set_iter(ctx.prog, &sv)? {
                ctx.bounds.push(v);
                let b = eval_expr(ctx, body);
                ctx.bounds.pop();
                let b = b?.as_bool()?;
                match q {
                    Quant::Exists if b => {
                        acc = true;
                        break;
                    }
                    Quant::Forall if !b => {
                        acc = false;
                        break;
                    }
                    _ => {}
                }
            }
            Ok(Value::Bool(acc))
        }
        Expr::Call { builtin, args } => eval_builtin(ctx, *builtin, args),
    }
}

/// Applies a non-short-circuit binary operator to evaluated operands.
/// `And`/`Or` are rejected — they are short-circuit control flow, handled
/// by [`eval_expr`] directly.
fn apply_bin(prog: &Program, op: BinOp, lv: &Value, rv: &Value) -> Result<Value> {
    match op {
        BinOp::Add => Ok(Value::Int(lv.as_int()? + rv.as_int()?)),
        BinOp::Sub => Ok(Value::Int(lv.as_int()? - rv.as_int()?)),
        BinOp::Mul => Ok(Value::Int(lv.as_int()? * rv.as_int()?)),
        BinOp::Eq => Ok(Value::Bool(values_equal(prog, lv, rv)?)),
        BinOp::Ne => Ok(Value::Bool(!values_equal(prog, lv, rv)?)),
        BinOp::Lt => Ok(Value::Bool(lv.as_int()? < rv.as_int()?)),
        BinOp::Le => Ok(Value::Bool(lv.as_int()? <= rv.as_int()?)),
        BinOp::Gt => Ok(Value::Bool(lv.as_int()? > rv.as_int()?)),
        BinOp::Ge => Ok(Value::Bool(lv.as_int()? >= rv.as_int()?)),
        BinOp::In => {
            let (dom, mask) = rv.as_set()?;
            let ss = prog.sym_sizes();
            Ok(Value::Bool(dom.ordinal(lv, &ss).is_some_and(|k| mask & (1 << k) != 0)))
        }
        BinOp::And | BinOp::Or => {
            Err(RuleError::eval("AND/OR are short-circuit operators".to_string()))
        }
    }
}

fn eval_builtin(ctx: &mut EvalCtx<'_>, b: Builtin, args: &[Expr]) -> Result<Value> {
    with_values(ctx, args, |ctx, vals| apply_builtin(ctx.prog, ctx.inputs, b, vals))
}

/// Applies a builtin to already-evaluated argument values.
fn apply_builtin(
    prog: &Program,
    inputs: &dyn InputProvider,
    b: Builtin,
    vals: &[Value],
) -> Result<Value> {
    let arg = |i: usize| -> Result<Value> {
        vals.get(i)
            .copied()
            .ok_or_else(|| RuleError::eval(format!("builtin {b:?} missing argument {i}")))
    };
    match b {
        Builtin::Min => Ok(Value::Int(arg(0)?.as_int()?.min(arg(1)?.as_int()?))),
        Builtin::Max => Ok(Value::Int(arg(0)?.as_int()?.max(arg(1)?.as_int()?))),
        Builtin::AbsDiff => Ok(Value::Int((arg(0)?.as_int()? - arg(1)?.as_int()?).abs())),
        Builtin::Xor => Ok(Value::Int(arg(0)?.as_int()? ^ arg(1)?.as_int()?)),
        Builtin::Popcount => Ok(Value::Int(arg(0)?.as_int()?.count_ones() as i64)),
        Builtin::Bit => {
            let a = arg(0)?.as_int()?;
            let i = arg(1)?.as_int()?;
            if !(0..64).contains(&i) {
                return Err(RuleError::eval(format!("bit index {i} out of range")));
            }
            Ok(Value::Bool(a & (1 << i) != 0))
        }
        Builtin::LatMax => match (arg(0)?, arg(1)?) {
            (Value::Sym { ty: t1, idx: i1 }, Value::Sym { ty: t2, idx: i2 }) if t1 == t2 => {
                Ok(Value::Sym { ty: t1, idx: i1.max(i2) })
            }
            (x, y) => Err(RuleError::eval(format!("latmax on {x}, {y}"))),
        },
        Builtin::Card => Ok(Value::Int(set_iter(prog, &arg(0)?)?.count() as i64)),
        Builtin::Union | Builtin::Isect | Builtin::Diff => {
            let lv = arg(0)?;
            let rv = arg(1)?;
            let (ld, _) = lv.as_set()?;
            let (rd, rmask) = rv.as_set()?;
            let dom = hull_domain(ld, rd)?;
            let ss = prog.sym_sizes();
            if dom.size(&ss) > 64 {
                return Err(RuleError::eval("set domain exceeds 64 elements".to_string()));
            }
            let in_r = |v: &Value| rd.ordinal(v, &ss).is_some_and(|k| rmask & (1 << k) != 0);
            let mut mask = 0u64;
            let mut add = |v: &Value| -> Result<()> {
                let k = dom
                    .ordinal(v, &ss)
                    .ok_or_else(|| RuleError::eval(format!("element {v} outside {dom:?}")))?;
                mask |= 1 << k;
                Ok(())
            };
            for v in set_iter(prog, &lv)? {
                let keep = match b {
                    Builtin::Union => true,
                    Builtin::Isect => in_r(&v),
                    _ => !in_r(&v),
                };
                if keep {
                    add(&v)?;
                }
            }
            if b == Builtin::Union {
                for v in set_iter(prog, &rv)? {
                    add(&v)?;
                }
            }
            Ok(Value::Set { dom, mask })
        }
        Builtin::Include | Builtin::Exclude => {
            let sv = arg(0)?;
            let ev = arg(1)?;
            let (dom, mask) = sv.as_set()?;
            let ss = prog.sym_sizes();
            let k = dom
                .ordinal(&ev, &ss)
                .ok_or_else(|| RuleError::eval(format!("element {ev} outside {dom:?}")))?;
            let mask = match b {
                Builtin::Include => mask | (1 << k),
                _ => mask & !(1 << k),
            };
            Ok(Value::Set { dom, mask })
        }
        Builtin::ArgMin(input) | Builtin::ArgMax(input) => {
            let mut best: Option<(Value, i64)> = None;
            for idx in set_iter(prog, &arg(0)?)? {
                let v = inputs.read_input(prog, input, &[idx])?.as_int()?;
                let better = match (&best, b) {
                    (None, _) => true,
                    (Some((_, bv)), Builtin::ArgMin(_)) => v < *bv,
                    (Some((_, bv)), _) => v > *bv,
                };
                if better {
                    best = Some((idx, v));
                }
            }
            best.map(|(idx, _)| idx)
                .ok_or_else(|| RuleError::eval("argmin/argmax over empty set".to_string()))
        }
    }
}

/// Conclusion effects of one interpretation, queued in reusable buffers
/// until the parallel commit. A rule machine keeps one and reuses it for
/// every interpretation, so steady-state conclusion processing allocates
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct Effects {
    /// Pending writes: register, index tuple (a range of `vals`), value.
    writes: Vec<(usize, Range<usize>, Value)>,
    /// Generated events: emit id (see [`emit_names`]), arguments (a range
    /// of `vals`).
    pub(crate) emits: Vec<(usize, Range<usize>)>,
    /// Index tuples and event arguments.
    pub(crate) vals: Vec<Value>,
    /// Cells written by the commit in flight: register, cell, value.
    done: Vec<(usize, usize, Value)>,
    /// Binder stack lent to the evaluation context.
    pub(crate) bounds: Vec<Value>,
    /// RETURN value of the conclusion.
    pub(crate) returned: Option<Value>,
}

impl Effects {
    pub(crate) fn reset(&mut self) {
        self.writes.clear();
        self.emits.clear();
        self.vals.clear();
        self.returned = None;
    }

    /// Applies the queued writes with the parallel-write semantics: every
    /// right-hand side was read from the pre-state; identical duplicate
    /// writes are tolerated, conflicting ones are an error.
    fn commit(&mut self, prog: &Program, regs: &mut RegFile) -> Result<()> {
        self.done.clear();
        for (var, idx, value) in &self.writes {
            let cell = RegFile::cell(prog, *var, &self.vals[idx.clone()])?;
            if let Some((_, _, prev)) = self.done.iter().find(|(v, c, _)| v == var && *c == cell) {
                if !values_equal(prog, prev, value)? {
                    return Err(RuleError::eval(format!(
                        "conflicting parallel writes to `{}`",
                        prog.vars[*var].name
                    )));
                }
                continue;
            }
            regs.write_cell(prog, *var, cell, *value)?;
            self.done.push((*var, cell, *value));
        }
        Ok(())
    }

    /// The owned outcome of rule `rule` of base `rb`, whose conclusion
    /// these effects hold.
    pub(crate) fn outcome(&self, prog: &Program, rb: usize, rule: usize) -> FireOutcome {
        let names = emit_names(&prog.rulebases[rb].rules[rule].conclusion);
        let emitted = self
            .emits
            .iter()
            .map(|(id, args)| EventInstance {
                event: names[*id].to_string(),
                args: self.vals[args.clone()].to_vec(),
            })
            .collect();
        FireOutcome { rule: Some(rule), returned: self.returned, emitted }
    }
}

/// The event names of a conclusion's `!event(...)` commands in pre-order
/// (a `FORALL` body counted once). The position of a command in this list
/// is its *emit id*: conclusion processing records emits by this id.
pub fn emit_names(cmds: &[Command]) -> Vec<&str> {
    fn walk<'c>(cmds: &'c [Command], out: &mut Vec<&'c str>) {
        for cmd in cmds {
            match cmd {
                Command::Emit { event, .. } => out.push(event),
                Command::ForAll { body, .. } => walk(body, out),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(cmds, &mut out);
    out
}

fn count_emits(cmds: &[Command]) -> usize {
    cmds.iter()
        .map(|c| match c {
            Command::Emit { .. } => 1,
            Command::ForAll { body, .. } => count_emits(body),
            _ => 0,
        })
        .sum()
}

/// Evaluates conclusion commands into `fx`; `emit` is the emit id of the
/// first `!event` command of `cmds`.
fn exec_commands(
    ctx: &mut EvalCtx<'_>,
    cmds: &[Command],
    fx: &mut Effects,
    mut emit: usize,
) -> Result<()> {
    for cmd in cmds {
        match cmd {
            Command::Assign { var, indices, value } => {
                let start = fx.vals.len();
                for i in indices {
                    let v = eval_expr(ctx, i)?;
                    fx.vals.push(v);
                }
                let value = eval_expr(ctx, value)?;
                fx.writes.push((*var, start..fx.vals.len(), value));
            }
            Command::Return(e) => {
                let v = eval_expr(ctx, e)?;
                match &fx.returned {
                    Some(prev) if !values_equal(ctx.prog, prev, &v)? => {
                        return Err(RuleError::eval(format!(
                            "conflicting RETURN values {prev} vs {v}"
                        )));
                    }
                    _ => fx.returned = Some(v),
                }
            }
            Command::Emit { args, .. } => {
                let start = fx.vals.len();
                for a in args {
                    let v = eval_expr(ctx, a)?;
                    fx.vals.push(v);
                }
                fx.emits.push((emit, start..fx.vals.len()));
                emit += 1;
            }
            Command::ForAll { set, body, .. } => {
                let sv = eval_expr(ctx, set)?;
                for v in set_iter(ctx.prog, &sv)? {
                    ctx.bounds.push(v);
                    let r = exec_commands(ctx, body, fx, emit);
                    ctx.bounds.pop();
                    r?;
                }
                emit += count_emits(body);
            }
        }
    }
    Ok(())
}

/// Fires rule base `rb` with `params` against the registers/inputs using the
/// reference semantics, applying the writes of the first applicable rule.
pub fn fire_reference(
    prog: &Program,
    rb: usize,
    params: &[Value],
    regs: &mut RegFile,
    inputs: &dyn InputProvider,
) -> Result<FireOutcome> {
    let base = &prog.rulebases[rb];
    if params.len() != base.params.len() {
        return Err(RuleError::eval(format!(
            "`{}` expects {} parameters, got {}",
            base.name,
            base.params.len(),
            params.len()
        )));
    }
    let ss = prog.sym_sizes();
    for (v, p) in params.iter().zip(&base.params) {
        if !p.dom.contains(v, &ss) {
            return Err(RuleError::eval(format!(
                "parameter `{}` = {v} outside {:?}",
                p.name, p.dom
            )));
        }
    }

    let selected = {
        let mut ctx = EvalCtx::new(prog, regs, inputs, params);
        let mut sel = None;
        for (i, rule) in base.rules.iter().enumerate() {
            if eval_expr(&mut ctx, &rule.premise)?.as_bool()? {
                sel = Some(i);
                break;
            }
        }
        sel
    };

    let Some(sel) = selected else {
        return Ok(FireOutcome::default());
    };
    apply_rule(prog, rb, sel, params, regs, inputs)
}

/// Executes the conclusion of rule `rule` of rule base `rb` with the
/// parallel-write semantics, without checking any premise. This is the
/// shared "conclusion processing" stage used by both the reference
/// evaluator and the compiled interpreter.
pub fn apply_rule(
    prog: &Program,
    rb: usize,
    rule: usize,
    params: &[Value],
    regs: &mut RegFile,
    inputs: &dyn InputProvider,
) -> Result<FireOutcome> {
    let mut fx = Effects::default();
    conclude(prog, rb, rule, params, regs, inputs, &mut fx)?;
    Ok(fx.outcome(prog, rb, rule))
}

/// [`apply_rule`] into reusable buffers: the RETURN value and generated
/// events stay in `fx`.
pub(crate) fn conclude(
    prog: &Program,
    rb: usize,
    rule: usize,
    params: &[Value],
    regs: &mut RegFile,
    inputs: &dyn InputProvider,
    fx: &mut Effects,
) -> Result<()> {
    fx.reset();
    let mut ctx = EvalCtx { prog, regs, inputs, params, bounds: std::mem::take(&mut fx.bounds) };
    let r = exec_commands(&mut ctx, &prog.rulebases[rb].rules[rule].conclusion, fx, 0);
    fx.bounds = ctx.bounds;
    fx.bounds.clear();
    r?;
    fx.commit(prog, regs)
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
    fn fires_first_matching_rule() {
        let p = parse(
            "VARIABLE x IN 0 TO 9 INIT 5\n\
             ON f() RETURNS 0 TO 2\n\
               IF x < 3 THEN RETURN(0);\n\
               IF x < 7 THEN RETURN(1);\n\
               IF TRUE THEN RETURN(2);\n\
             END f;",
        )
        .unwrap();
        let mut regs = RegFile::new(&p);
        let out = fire_reference(&p, 0, &[], &mut regs, &InputMap::new()).unwrap();
        assert_eq!(out.rule, Some(1));
        assert_eq!(out.returned, Some(int(1)));
    }

    #[test]
    fn no_rule_is_noop() {
        let p =
            parse("VARIABLE x IN 0 TO 9 INIT 5\nON f()\n IF x = 0 THEN x <- 1;\nEND f;").unwrap();
        let mut regs = RegFile::new(&p);
        let out = fire_reference(&p, 0, &[], &mut regs, &InputMap::new()).unwrap();
        assert_eq!(out.rule, None);
        assert_eq!(regs.read(&p, 0, &[]).unwrap(), int(5));
    }

    #[test]
    fn parallel_semantics_read_pre_state() {
        // swap two registers in one conclusion — only works with parallel
        // (pre-state) evaluation
        let p = parse(
            "VARIABLE a IN 0 TO 9 INIT 1\nVARIABLE b IN 0 TO 9 INIT 2\n\
             ON swap()\n IF TRUE THEN a <- b, b <- a;\nEND swap;",
        )
        .unwrap();
        let mut regs = RegFile::new(&p);
        fire_reference(&p, 0, &[], &mut regs, &InputMap::new()).unwrap();
        assert_eq!(regs.read(&p, 0, &[]).unwrap(), int(2));
        assert_eq!(regs.read(&p, 1, &[]).unwrap(), int(1));
    }

    #[test]
    fn conflicting_writes_error() {
        let p =
            parse("VARIABLE a IN 0 TO 9\nON f()\n IF TRUE THEN a <- 1, a <- 2;\nEND f;").unwrap();
        let mut regs = RegFile::new(&p);
        let e = fire_reference(&p, 0, &[], &mut regs, &InputMap::new());
        assert!(e.is_err());
    }

    #[test]
    fn duplicate_identical_writes_ok() {
        let p =
            parse("VARIABLE a IN 0 TO 9\nON f()\n IF TRUE THEN a <- 1, a <- 1;\nEND f;").unwrap();
        let mut regs = RegFile::new(&p);
        assert!(fire_reference(&p, 0, &[], &mut regs, &InputMap::new()).is_ok());
    }

    #[test]
    fn figure4_state_update_semantics() {
        let src = "
CONSTANT fault_states = {safe, ounsafe, sunsafe, lfault, faulty}
CONSTANT dirs = 0 TO 5
VARIABLE number_unsafe IN 0 TO 7 INIT 0
VARIABLE number_faulty IN 0 TO 7 INIT 0
VARIABLE neighb_state[dirs] IN fault_states INIT safe
VARIABLE state IN fault_states INIT safe
INPUT new_state[dirs] IN fault_states

ON update_state(dir IN dirs)
  IF new_state(dir) IN {faulty, lfault} AND number_faulty = 0
  THEN neighb_state(dir) <- new_state(dir),
       number_faulty <- number_faulty + 1,
       number_unsafe <- number_unsafe + 1;
  IF new_state(dir) IN {sunsafe, ounsafe} AND state = safe AND number_unsafe = 2
  THEN state <- ounsafe,
       number_unsafe <- number_unsafe + 1,
       FORALL i IN dirs: !send_newmessage(i, ounsafe),
       neighb_state(dir) <- new_state(dir);
END update_state;
";
        let p = parse(src).unwrap();
        let faulty = p.symbol_value("faulty").unwrap();
        let sunsafe = p.symbol_value("sunsafe").unwrap();
        let ounsafe = p.symbol_value("ounsafe").unwrap();
        let mut regs = RegFile::new(&p);
        let mut inp = InputMap::new();

        // first neighbour failure: rule 0 fires, counters increment
        inp.set(&p, "new_state", &[int(2)], faulty).unwrap();
        let out = fire_reference(&p, 0, &[int(2)], &mut regs, &inp).unwrap();
        assert_eq!(out.rule, Some(0));
        assert_eq!(regs.read(&p, 1, &[]).unwrap(), int(1)); // number_faulty
        assert_eq!(regs.read(&p, 0, &[]).unwrap(), int(1)); // number_unsafe
        assert_eq!(regs.read(&p, 2, &[int(2)]).unwrap(), faulty);

        // force number_unsafe to 2 and deliver an unsafe neighbour:
        // rule 1 fires, state flips and one message per direction goes out
        regs.write(&p, 0, &[], int(2)).unwrap();
        inp.set(&p, "new_state", &[int(4)], sunsafe).unwrap();
        let out = fire_reference(&p, 0, &[int(4)], &mut regs, &inp).unwrap();
        assert_eq!(out.rule, Some(1));
        assert_eq!(regs.read(&p, 3, &[]).unwrap(), ounsafe); // state
        assert_eq!(regs.read(&p, 0, &[]).unwrap(), int(3));
        assert_eq!(out.emitted.len(), 6, "one send per direction");
        assert!(out.emitted.iter().all(|e| e.event == "send_newmessage"));
        assert_eq!(out.emitted[3].args, vec![int(3), ounsafe]);
    }

    #[test]
    fn quantifiers_and_argmin() {
        let src = "
CONSTANT dirs = 0 TO 3
INPUT free[dirs] IN bool
INPUT queue[dirs] IN 0 TO 255
VARIABLE avail IN SETOF dirs
ON pick() RETURNS dirs
  IF EXISTS i IN avail: free(i)
  THEN RETURN(argmin(queue, avail));
END pick;
";
        let p = parse(src).unwrap();
        let mut regs = RegFile::new(&p);
        regs.write(&p, 0, &[], Value::Set { dom: Domain::Int { lo: 0, hi: 3 }, mask: 0b1010 })
            .unwrap();
        let mut inp = InputMap::new();
        for i in 0..4 {
            inp.set(&p, "free", &[int(i)], Value::Bool(i == 3)).unwrap();
            inp.set(&p, "queue", &[int(i)], int(10 - i)).unwrap();
        }
        let out = fire_reference(&p, 0, &[], &mut regs, &inp).unwrap();
        // avail = {1, 3}; queue(3)=7 < queue(1)=9, so argmin = 3
        assert_eq!(out.returned, Some(int(3)));
    }

    #[test]
    fn set_builtins() {
        let src = "
CONSTANT s = {a, b, c}
VARIABLE x IN SETOF s
ON f() RETURNS 0 TO 3
  IF card(union(x, {b})) = 2 THEN RETURN(2);
  IF TRUE THEN RETURN(card(diff({a, b, c}, x)));
END f;
";
        let p = parse(src).unwrap();
        let mut regs = RegFile::new(&p);
        // x = {a}
        regs.write(&p, 0, &[], Value::Set { dom: Domain::Sym(0), mask: 0b001 }).unwrap();
        let out = fire_reference(&p, 0, &[], &mut regs, &InputMap::new()).unwrap();
        assert_eq!(out.returned, Some(int(2))); // union {a},{b} has card 2

        // x = {a,b,c} -> first premise card(union) = 3, second returns 0
        regs.write(&p, 0, &[], Value::Set { dom: Domain::Sym(0), mask: 0b111 }).unwrap();
        let out = fire_reference(&p, 0, &[], &mut regs, &InputMap::new()).unwrap();
        assert_eq!(out.returned, Some(int(0)));
    }

    #[test]
    fn write_out_of_domain_rejected() {
        let p = parse("VARIABLE x IN 0 TO 3 INIT 3\nON f()\n IF TRUE THEN x <- x + 1;\nEND f;")
            .unwrap();
        let mut regs = RegFile::new(&p);
        assert!(fire_reference(&p, 0, &[], &mut regs, &InputMap::new()).is_err());
    }

    #[test]
    fn param_domain_checked() {
        let p = parse("CONSTANT d = 0 TO 3\nON f(i IN d) END f;").unwrap();
        let mut regs = RegFile::new(&p);
        assert!(fire_reference(&p, 0, &[int(4)], &mut regs, &InputMap::new()).is_err());
        assert!(fire_reference(&p, 0, &[], &mut regs, &InputMap::new()).is_err());
        assert!(fire_reference(&p, 0, &[int(3)], &mut regs, &InputMap::new()).is_ok());
    }
}
