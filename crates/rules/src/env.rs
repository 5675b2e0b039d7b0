//! Execution environment: register file and input providers.

use crate::ast::Program;
use crate::error::{Result, RuleError};
use crate::value::{Domain, Type, Value};

/// The register file holding all declared `VARIABLE`s of a program
/// (the paper's "registers ... updated by using arithmetic or logical
/// units"). Arrays are stored flattened in row-major order of their index
/// domains.
#[derive(Clone, Debug, PartialEq)]
pub struct RegFile {
    slots: Vec<Vec<Value>>,
}

impl RegFile {
    /// Creates the register file with every cell at its declared INIT value.
    pub fn new(prog: &Program) -> Self {
        let ss = prog.sym_sizes();
        let slots = prog
            .vars
            .iter()
            .map(|v| {
                let cells: u64 = v.index_domains.iter().map(|d| d.size(&ss)).product();
                vec![v.init; cells.max(1) as usize]
            })
            .collect();
        RegFile { slots }
    }

    /// Flattened (row-major) cell of register `var` at `indices`, checking
    /// the arity and every index against its domain.
    pub fn cell(prog: &Program, var: usize, indices: &[Value]) -> Result<usize> {
        let decl = &prog.vars[var];
        if indices.len() != decl.index_domains.len() {
            return Err(RuleError::eval(format!(
                "`{}` expects {} indices, got {}",
                decl.name,
                decl.index_domains.len(),
                indices.len()
            )));
        }
        let ss = prog.sym_sizes();
        let mut cell = 0u64;
        for (v, d) in indices.iter().zip(&decl.index_domains) {
            let ord = d.ordinal(v, &ss).ok_or_else(|| {
                RuleError::eval(format!("index {v} out of domain {d:?} for `{}`", decl.name))
            })?;
            cell = cell * d.size(&ss) + ord;
        }
        Ok(cell as usize)
    }

    /// Reads a register cell.
    pub fn read(&self, prog: &Program, var: usize, indices: &[Value]) -> Result<Value> {
        Ok(self.slots[var][Self::cell(prog, var, indices)?])
    }

    /// Writes a register cell, checking the value against the declared
    /// element type.
    pub fn write(&mut self, prog: &Program, var: usize, indices: &[Value], v: Value) -> Result<()> {
        Self::check_value(prog, var, &v)?;
        let cell = Self::cell(prog, var, indices)?;
        self.slots[var][cell] = v;
        Ok(())
    }

    /// Writes cell `cell` (from [`RegFile::cell`]), checking the value
    /// against the declared element type.
    pub fn write_cell(&mut self, prog: &Program, var: usize, cell: usize, v: Value) -> Result<()> {
        Self::check_value(prog, var, &v)?;
        self.slots[var][cell] = v;
        Ok(())
    }

    fn check_value(prog: &Program, var: usize, v: &Value) -> Result<()> {
        let decl = &prog.vars[var];
        let ss = prog.sym_sizes();
        let ok = match (decl.elem, v) {
            (Type::Scalar(d), val) => d.contains(val, &ss),
            (Type::Set(d), Value::Set { dom, .. }) => {
                // same domain kind; mask interpreted over the declared domain
                matches!(
                    (d, dom),
                    (Domain::Int { .. }, Domain::Int { .. }) | (Domain::Bool, Domain::Bool)
                ) || matches!((d, dom), (Domain::Sym(x), Domain::Sym(y)) if x == *y)
            }
            _ => false,
        };
        if !ok {
            return Err(RuleError::eval(format!(
                "value {v} outside domain of `{}` ({:?})",
                decl.name, decl.elem
            )));
        }
        Ok(())
    }

    /// Direct read by flat cell (used by the cost/debug reports).
    pub fn raw(&self, var: usize) -> &[Value] {
        &self.slots[var]
    }
}

/// Source of external input values (header fields, link states, buffer
/// occupancies) for one rule-base invocation.
pub trait InputProvider {
    /// Reads input `input` (index into [`Program::inputs`]) at `indices`.
    fn read_input(&self, prog: &Program, input: usize, indices: &[Value]) -> Result<Value>;
}

/// Most index dimensions an input may declare.
pub const MAX_INPUT_DIMS: usize = 4;

/// Most cells one input may span in the dense layout.
pub const MAX_INPUT_CELLS: u64 = 1 << 16;

/// Dense input store with optional per-input defaults: one slot array
/// per program.
///
/// The layout is computed once, from the program's `INPUT` declarations:
/// every input owns a contiguous run of cells (row-major over its index
/// domains) at a fixed offset. Reads and index-based writes
/// ([`InputMap::set_input`]) compute a cell from the index ordinals and
/// touch no hash table, string or heap. A host that makes one decision
/// after another lays a map out once ([`InputMap::for_program`]), keeps
/// it, and calls [`InputMap::clear`] between decisions.
///
/// [`InputMap::new`] makes an empty map that lays itself out on the first
/// by-name [`InputMap::set`] or [`InputMap::set_default`]; until then
/// every read fails.
#[derive(Clone, Debug, Default)]
pub struct InputMap {
    slots: Vec<InputSlot>,
    /// Every cell of every input; `None` is unset.
    cells: Vec<Option<Value>>,
    /// Per input: the value an unset cell reads as.
    defaults: Vec<Option<Value>>,
}

#[derive(Clone, Debug)]
struct InputSlot {
    name: String,
    /// First cell of this input in `cells`.
    offset: usize,
    /// Index domains with their sizes.
    dims: Vec<(Domain, u64)>,
    /// False when the input exceeds [`MAX_INPUT_DIMS`] or
    /// [`MAX_INPUT_CELLS`]; it then owns no cells and every access errors.
    laid_out: bool,
}

impl InputMap {
    /// Creates an empty map, laid out by its first by-name write.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lays out an empty map for `prog`'s inputs (reads fail until a cell
    /// is set or its input defaulted).
    pub fn for_program(prog: &Program) -> Self {
        let ss = prog.sym_sizes();
        let mut offset = 0usize;
        let slots = prog
            .inputs
            .iter()
            .map(|decl| {
                let dims: Vec<(Domain, u64)> =
                    decl.index_domains.iter().map(|d| (*d, d.size(&ss))).collect();
                let cells = dims.iter().try_fold(1u64, |acc, &(_, n)| acc.checked_mul(n));
                let laid_out =
                    dims.len() <= MAX_INPUT_DIMS && cells.is_some_and(|c| c <= MAX_INPUT_CELLS);
                let slot = InputSlot { name: decl.name.clone(), offset, dims, laid_out };
                if laid_out {
                    offset += cells.unwrap_or(0) as usize;
                }
                slot
            })
            .collect();
        InputMap { slots, cells: vec![None; offset], defaults: vec![None; prog.inputs.len()] }
    }

    /// Unsets every cell and drops every default, keeping the layout.
    pub fn clear(&mut self) {
        self.cells.fill(None);
        self.defaults.fill(None);
    }

    fn slot(&self, input: usize) -> Result<&InputSlot> {
        self.slots
            .get(input)
            .ok_or_else(|| RuleError::eval(format!("input {input} is not laid out in this map")))
    }

    /// Cell of `input` at `indices`, checking arity and domains.
    fn cell(&self, input: usize, indices: &[Value]) -> Result<usize> {
        let slot = self.slot(input)?;
        if indices.len() != slot.dims.len() {
            return Err(RuleError::eval(format!(
                "input `{}` expects {} indices, got {}",
                slot.name,
                slot.dims.len(),
                indices.len()
            )));
        }
        if slot.dims.len() > MAX_INPUT_DIMS {
            return Err(RuleError::eval(format!(
                "inputs support at most {MAX_INPUT_DIMS} index dimensions"
            )));
        }
        let mut cell = 0u64;
        for (v, &(d, n)) in indices.iter().zip(&slot.dims) {
            let ord = d
                .ordinal(v, &|_| n as usize)
                .ok_or_else(|| RuleError::eval(format!("input index {v} out of domain {d:?}")))?;
            cell = cell * n + ord;
        }
        if !slot.laid_out {
            return Err(RuleError::eval(format!(
                "input `{}` spans more than {MAX_INPUT_CELLS} cells",
                slot.name
            )));
        }
        Ok(slot.offset + cell as usize)
    }

    /// Sets input `input` (index into [`Program::inputs`], e.g. resolved
    /// once through [`Program::input`]) at `indices`.
    pub fn set_input(&mut self, input: usize, indices: &[Value], v: Value) -> Result<()> {
        let cell = self.cell(input, indices)?;
        self.cells[cell] = Some(v);
        Ok(())
    }

    /// Sets the value every unset cell of input `input` reads as.
    pub fn set_input_default(&mut self, input: usize, v: Value) -> Result<()> {
        self.slot(input)?;
        self.defaults[input] = Some(v);
        Ok(())
    }

    /// Resolves input `name` of `prog`, laying the map out for `prog` if
    /// nothing has yet.
    fn resolve(&mut self, prog: &Program, name: &str) -> Result<usize> {
        if self.slots.is_empty() {
            *self = Self::for_program(prog);
        }
        prog.input(name).ok_or_else(|| RuleError::eval(format!("unknown input `{name}`")))
    }

    /// Sets a scalar or indexed input value by name.
    pub fn set(&mut self, prog: &Program, name: &str, indices: &[Value], v: Value) -> Result<()> {
        let input = self.resolve(prog, name)?;
        self.set_input(input, indices, v)
    }

    /// Sets a default returned for any unset cell of input `name`.
    pub fn set_default(&mut self, prog: &Program, name: &str, v: Value) -> Result<()> {
        let input = self.resolve(prog, name)?;
        self.set_input_default(input, v)
    }
}

impl InputProvider for InputMap {
    fn read_input(&self, _prog: &Program, input: usize, indices: &[Value]) -> Result<Value> {
        let cell = self.cell(input, indices)?;
        if let Some(v) = self.cells[cell].or(self.defaults[input]) {
            return Ok(v);
        }
        Err(RuleError::eval(format!(
            "input `{}` (cell {}) has no value",
            self.slots[input].name,
            cell - self.slots[input].offset
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn prog() -> Program {
        parse(
            "CONSTANT dirs = 0 TO 3\n\
             VARIABLE a IN 0 TO 7 INIT 2\n\
             VARIABLE arr[dirs] IN 0 TO 3 INIT 1\n\
             VARIABLE grid[dirs, dirs] IN bool\n\
             INPUT load[dirs] IN 0 TO 15\n\
             INPUT flag IN bool\n",
        )
        .unwrap()
    }

    #[test]
    fn regfile_initialization() {
        let p = prog();
        let r = RegFile::new(&p);
        assert_eq!(r.read(&p, 0, &[]).unwrap(), Value::Int(2));
        for i in 0..4 {
            assert_eq!(r.read(&p, 1, &[Value::Int(i)]).unwrap(), Value::Int(1));
        }
        assert_eq!(r.raw(2).len(), 16);
    }

    #[test]
    fn regfile_write_read_roundtrip() {
        let p = prog();
        let mut r = RegFile::new(&p);
        r.write(&p, 1, &[Value::Int(2)], Value::Int(3)).unwrap();
        assert_eq!(r.read(&p, 1, &[Value::Int(2)]).unwrap(), Value::Int(3));
        assert_eq!(r.read(&p, 1, &[Value::Int(1)]).unwrap(), Value::Int(1));
        r.write(&p, 2, &[Value::Int(1), Value::Int(3)], Value::Bool(true)).unwrap();
        assert_eq!(r.read(&p, 2, &[Value::Int(1), Value::Int(3)]).unwrap(), Value::Bool(true));
        assert_eq!(r.read(&p, 2, &[Value::Int(3), Value::Int(1)]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn regfile_rejects_out_of_domain() {
        let p = prog();
        let mut r = RegFile::new(&p);
        assert!(r.write(&p, 0, &[], Value::Int(8)).is_err());
        assert!(r.write(&p, 0, &[], Value::Bool(true)).is_err());
        assert!(r.read(&p, 1, &[Value::Int(4)]).is_err());
        assert!(r.read(&p, 1, &[]).is_err());
    }

    #[test]
    fn input_map_reads() {
        let p = prog();
        let mut m = InputMap::new();
        m.set(&p, "load", &[Value::Int(1)], Value::Int(9)).unwrap();
        m.set(&p, "flag", &[], Value::Bool(true)).unwrap();
        assert_eq!(m.read_input(&p, 0, &[Value::Int(1)]).unwrap(), Value::Int(9));
        assert_eq!(m.read_input(&p, 1, &[]).unwrap(), Value::Bool(true));
        assert!(m.read_input(&p, 0, &[Value::Int(0)]).is_err());
        m.set_default(&p, "load", Value::Int(0)).unwrap();
        assert_eq!(m.read_input(&p, 0, &[Value::Int(0)]).unwrap(), Value::Int(0));
    }

    #[test]
    fn input_map_unknown_name() {
        let p = prog();
        let mut m = InputMap::new();
        assert!(m.set(&p, "nope", &[], Value::Int(0)).is_err());
    }
}
