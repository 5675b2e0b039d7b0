//! Experiment E9 — rule-interpretation speed (the §4.3 performance claim).
//!
//! "It is possible to transform the rule base and apply a fast hardware
//! interpreter which is able to outperform software solutions and offers
//! more complex realizations than table-based methods." In software the
//! analogous comparison is: compiled-table interpretation (premise
//! features + one lookup) vs naive sequential rule scanning (the
//! "software solution"), with a native Rust implementation and a raw
//! precomputed table lookup as the two bounds.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ftr_algos::rules_src;
use ftr_rules::{compile, fire_reference, parse, CompileOptions, InputMap, RegFile, Value};
use ftr_topo::{Mesh2D, NodeId};
use std::hint::black_box;

fn setup() -> (ftr_rules::Program, ftr_rules::CompiledProgram, RegFile, Vec<InputMap>) {
    let prog = parse(rules_src::XY).unwrap();
    let compiled = compile(&prog, &CompileOptions::default()).unwrap();
    let mut regs = RegFile::new(&prog);
    // node (2, 3)
    regs.write(&prog, 0, &[], Value::Int(2)).unwrap();
    regs.write(&prog, 1, &[], Value::Int(3)).unwrap();
    // a spread of destinations / link states
    let mut inputs = Vec::new();
    for i in 0..16u8 {
        let mut im = InputMap::new();
        im.set(&prog, "xdes", &[], Value::Int((i % 8) as i64)).unwrap();
        im.set(&prog, "ydes", &[], Value::Int((i / 2 % 8) as i64)).unwrap();
        for d in 0..4 {
            im.set(&prog, "free", &[Value::Int(d)], Value::Bool((i >> (d as u8 % 4)) & 1 == 0))
                .unwrap();
            im.set(&prog, "linkok", &[Value::Int(d)], Value::Bool(true)).unwrap();
        }
        inputs.push(im);
    }
    (prog, compiled, regs, inputs)
}

fn bench_decision(c: &mut Criterion) {
    let (prog, compiled, regs, inputs) = setup();
    let base = &compiled.bases[0];
    let mut g = c.benchmark_group("routing_decision");

    g.bench_function("compiled_table_interpreter", |b| {
        let mut i = 0usize;
        b.iter_batched(
            || regs.clone(),
            |mut r| {
                i = (i + 1) % inputs.len();
                black_box(base.fire(&prog, &[], &mut r, &inputs[i]).unwrap())
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("sequential_rule_scan", |b| {
        let mut i = 0usize;
        b.iter_batched(
            || regs.clone(),
            |mut r| {
                i = (i + 1) % inputs.len();
                black_box(fire_reference(&prog, 0, &[], &mut r, &inputs[i]).unwrap())
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("raw_table_lookup", |b| {
        // the hardware bound: index precomputed, one memory access
        let idx = 42usize % base.table.len();
        b.iter(|| black_box(base.table[black_box(idx)]))
    });

    g.bench_function("native_rust_xy", |b| {
        let mesh = Mesh2D::new(8, 8);
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let dst = NodeId(i % 64);
            black_box(ftr_algos::XyRouting::next_port(&mesh, NodeId(19), dst))
        })
    });

    g.finish();
}

criterion_group!(benches, bench_decision);
criterion_main!(benches);
