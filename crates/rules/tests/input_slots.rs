//! The dense input slot array against a reference model, and the
//! clear-per-decision contract a host that reuses one map relies on.

use ftr_rules::{parse, CompileOptions, InputMap, InputProvider, Machine, Program, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Inputs of every shape the layout handles: scalar, 1-D, 2-D over an
/// integer and a symbol domain, and an integer domain not starting at 0.
const DECLS: &str = "CONSTANT st = {a, b, c}\n\
     CONSTANT dirs = 0 TO 3\n\
     INPUT s IN 0 TO 9\n\
     INPUT v[dirs] IN 0 TO 255\n\
     INPUT g[dirs, st] IN bool\n\
     INPUT w[2 TO 5] IN st\n";

fn program() -> Program {
    parse(DECLS).unwrap()
}

/// One step of a random access sequence.
#[derive(Clone, Debug)]
enum Op {
    Set { input: usize, indices: Vec<Value>, v: Value, by_name: bool },
    SetDefault { input: usize, v: Value, by_name: bool },
    Clear,
    Read { input: usize, indices: Vec<Value> },
}

/// An index value: an integer (possibly outside `dirs`/`2 TO 5`) or a
/// symbol (possibly outside `st`).
fn index_value(kind: u8, raw: i64) -> Value {
    if kind.is_multiple_of(3) {
        Value::Sym { ty: 0, idx: raw.rem_euclid(5) as u32 }
    } else {
        Value::Int(raw)
    }
}

fn op((kind, input, arity, i0, i1, k0, k1, v): (u8, u8, u8, i64, i64, u8, u8, i64)) -> Op {
    let input = input as usize % 4;
    let indices: Vec<Value> =
        [index_value(k0, i0), index_value(k1, i1)].into_iter().take(arity as usize % 3).collect();
    let v = Value::Int(v);
    match kind % 7 {
        0 | 1 => Op::Set { input, indices, v, by_name: kind % 2 == 0 },
        2 => Op::SetDefault { input, v, by_name: kind % 4 == 2 },
        3 => Op::Clear,
        _ => Op::Read { input, indices },
    }
}

/// Reference semantics: a cell exists iff the arity matches and every
/// index lies in its domain.
#[derive(Default)]
struct Model {
    cells: BTreeMap<(usize, Vec<u64>), Value>,
    defaults: BTreeMap<usize, Value>,
}

impl Model {
    fn key(prog: &Program, input: usize, indices: &[Value]) -> Option<(usize, Vec<u64>)> {
        let decl = &prog.inputs[input];
        if indices.len() != decl.index_domains.len() {
            return None;
        }
        let ss = prog.sym_sizes();
        let ords: Option<Vec<u64>> =
            indices.iter().zip(&decl.index_domains).map(|(v, d)| d.ordinal(v, &ss)).collect();
        Some((input, ords?))
    }

    fn read(&self, prog: &Program, input: usize, indices: &[Value]) -> Option<Value> {
        let key = Self::key(prog, input, indices)?;
        self.cells.get(&key).or(self.defaults.get(&input)).copied()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_slots_match_a_map_model(
        raw in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), -1i64..7, -1i64..7, any::<u8>(), any::<u8>(), 0i64..300),
            0..40,
        ),
        eager in any::<bool>(),
    ) {
        let prog = program();
        let mut map = if eager { InputMap::for_program(&prog) } else { InputMap::new() };
        let mut model = Model::default();
        for op in raw.into_iter().map(op) {
            match op {
                Op::Set { input, indices, v, by_name } => {
                    let name = prog.inputs[input].name.clone();
                    let got = if by_name || !eager {
                        map.set(&prog, &name, &indices, v)
                    } else {
                        map.set_input(input, &indices, v)
                    };
                    let key = Model::key(&prog, input, &indices);
                    prop_assert_eq!(got.is_ok(), key.is_some(), "set {}{:?}", name, indices);
                    if let Some(key) = key {
                        model.cells.insert(key, v);
                    }
                }
                Op::SetDefault { input, v, by_name } => {
                    let got = if by_name || !eager {
                        map.set_default(&prog, &prog.inputs[input].name, v)
                    } else {
                        map.set_input_default(input, v)
                    };
                    prop_assert!(got.is_ok());
                    model.defaults.insert(input, v);
                }
                Op::Clear => {
                    map.clear();
                    model = Model::default();
                }
                Op::Read { input, indices } => {
                    let got = map.read_input(&prog, input, &indices).ok();
                    prop_assert_eq!(got, model.read(&prog, input, &indices), "read {:?}", indices);
                }
            }
        }
    }
}

#[test]
fn unknown_names_and_unlaid_maps_are_errors() {
    let prog = program();
    let mut map = InputMap::new();
    assert!(map.read_input(&prog, 0, &[]).is_err(), "an empty map has no value");
    assert!(map.set_input(0, &[], Value::Int(1)).is_err(), "no layout yet");
    assert!(map.set(&prog, "nope", &[], Value::Int(1)).is_err());
    assert!(map.set(&prog, "s", &[], Value::Int(1)).is_ok(), "by name lays the map out");
    assert!(map.set_input(0, &[], Value::Int(2)).is_ok());
    assert_eq!(map.read_input(&prog, 0, &[]).unwrap(), Value::Int(2));
    assert!(map.read_input(&prog, 9, &[]).is_err(), "input outside the layout");
}

#[test]
fn oversized_inputs_are_rejected_not_allocated() {
    let prog = parse(
        "INPUT big[0 TO 999, 0 TO 999] IN bool\n\
         INPUT deep[0 TO 1, 0 TO 1, 0 TO 1, 0 TO 1, 0 TO 1] IN bool\n\
         INPUT ok[0 TO 3] IN bool\n",
    )
    .unwrap();
    let mut map = InputMap::for_program(&prog);
    let i = Value::Int(0);
    assert!(map.set_input(0, &[i, i], Value::Bool(true)).is_err());
    assert!(map.set_input(1, &[i, i, i, i, i], Value::Bool(true)).is_err());
    assert!(map.set_input(2, &[i], Value::Bool(true)).is_ok(), "small inputs keep working");
}

/// A host keeps one map and clears it before every decision. Decision
/// k + 1 must then see nothing decision k loaded: an input it does not
/// set fails exactly as on a fresh map, and a default set by decision k
/// is gone.
#[test]
fn a_cleared_map_decides_like_a_fresh_one() {
    let src = format!(
        "{DECLS}ON f(d IN dirs) RETURNS 0 TO 255\n  IF s > 4 THEN RETURN(v(d));\n  IF TRUE THEN RETURN(s);\nEND f;"
    );
    let prog = parse(&src).unwrap();
    let (s, v) = (prog.input("s").unwrap(), prog.input("v").unwrap());
    let mut m = Machine::new(prog.clone(), &CompileOptions::default()).unwrap();
    let f = m.base_index("f").unwrap();
    let mut reused = InputMap::for_program(&prog);

    // decision k: loads s, every v(d), and a default for v
    reused.set_input(s, &[], Value::Int(7)).unwrap();
    reused.set_input_default(v, Value::Int(1)).unwrap();
    reused.set_input(v, &[Value::Int(2)], Value::Int(42)).unwrap();
    let k = m.fire_base(f, &[Value::Int(2)], &reused).unwrap().last_return();
    assert_eq!(k, Some(Value::Int(42)));

    // decision k + 1 loads only s
    let decide = |m: &mut Machine, map: &InputMap| {
        m.fire_base(f, &[Value::Int(3)], map).map(|c| c.last_return()).map_err(|e| e.to_string())
    };
    reused.clear();
    reused.set_input(s, &[], Value::Int(7)).unwrap();
    let mut fresh = InputMap::for_program(&prog);
    fresh.set_input(s, &[], Value::Int(7)).unwrap();
    let after_clear = decide(&mut m, &reused);
    assert!(after_clear.is_err(), "v(3) is unset and its default was cleared");
    assert_eq!(after_clear, decide(&mut m, &fresh));

    // and with s unset too, both fail on s
    reused.clear();
    let empty = InputMap::for_program(&prog);
    assert_eq!(decide(&mut m, &reused), decide(&mut m, &empty));
}
