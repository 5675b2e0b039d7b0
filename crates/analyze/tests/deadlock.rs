//! The CDG deadlock verifier over compiled rule programs: the shipped
//! deterministic/turn-model/NAFTA programs must verify, and the naive
//! fully-adaptive baseline must produce a concrete cycle witness.

use ftr_analyze::{verify_cube, verify_mesh, MeshVcMode};
use ftr_rules::{compile, parse, CompileOptions, CompiledProgram};

fn compiled(src: &str) -> CompiledProgram {
    let prog = parse(src).expect("parse");
    compile(&prog, &CompileOptions::default()).expect("compile")
}

fn shipped(name: &str) -> CompiledProgram {
    let src = ftr_algos::rules_src::all()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no shipped program {name}"))
        .1;
    compiled(src)
}

#[test]
fn xy_program_is_deadlock_free_fault_free() {
    let report = verify_mesh("xy", &shipped("xy"), 4, 4, MeshVcMode::SingleVc, 0, 16);
    assert!(report.verified(), "{}", report.summary());
    assert_eq!(report.fault_sets_checked, 1);
}

#[test]
fn west_first_program_is_deadlock_free_fault_free() {
    let report =
        verify_mesh("west_first", &shipped("west_first"), 4, 4, MeshVcMode::SingleVc, 0, 16);
    assert!(report.verified(), "{}", report.summary());
}

#[test]
fn naive_adaptive_baseline_has_a_cycle_witness() {
    let c = compiled(ftr_algos::rules_src::NAIVE_ADAPTIVE);
    let report = verify_mesh("adaptive", &c, 3, 3, MeshVcMode::SingleVc, 0, 16);
    assert!(!report.verified(), "the naive adaptive baseline must deadlock");
    let witness = &report.failures[0];
    assert_eq!(witness.faults, "fault-free");
    // a dependency cycle on a mesh needs at least four turning channels
    assert!(witness.cycle.len() >= 4, "degenerate witness: {:?}", witness.cycle);
}

#[test]
fn nafta_is_deadlock_free_with_up_to_two_link_faults_exhaustively() {
    // 3x3 mesh has 12 links: 1 + 12 + C(12,2) = 79 fault scenarios, all
    // checked exhaustively under the two-virtual-network discipline.
    let report = verify_mesh("nafta", &shipped("nafta"), 3, 3, MeshVcMode::NaraPair, 2, 1 << 20);
    assert!(report.verified(), "{}", report.summary());
    assert_eq!(report.fault_sets_checked, 79);
}

#[test]
fn nafta_is_deadlock_free_on_4x4_with_single_link_faults() {
    let report = verify_mesh("nafta", &shipped("nafta"), 4, 4, MeshVcMode::NaraPair, 1, 1 << 20);
    assert!(report.verified(), "{}", report.summary());
    assert_eq!(report.fault_sets_checked, 25); // 24 links + fault-free
}

#[test]
fn nafta_on_single_virtual_network_is_not_deadlock_free() {
    // sanity check that verification has teeth: the same program without
    // the virtual-network discipline deadlocks
    let report = verify_mesh("nafta", &shipped("nafta"), 3, 3, MeshVcMode::SingleVc, 0, 16);
    assert!(!report.verified());
}

#[test]
fn route_c_is_deadlock_free_on_a_4_cube() {
    let src = ftr_algos::rules_src::route_c_source(4);
    let c = compiled(&src);
    let report = verify_cube("route_c", &c, 4, 0, 16);
    assert!(report.verified(), "{}", report.summary());
    assert_eq!(report.num_vcs, 5);
}

/// The lift must fail closed: a program whose `free[dirs]` domain is
/// narrower than the mesh degree cannot take the lift's `free(3)`, so
/// its relation would be built from a default instead of the driven
/// value. The proof is rejected and names the input.
#[test]
fn an_input_the_lift_cannot_load_rejects_the_proof() {
    let narrow = "CONSTANT dirs = 0 TO 2\n\
         VARIABLE xpos IN 0 TO 7\n\
         VARIABLE ypos IN 0 TO 7\n\
         INPUT xdes IN 0 TO 7\n\
         INPUT ydes IN 0 TO 7\n\
         INPUT free[dirs] IN bool\n\
         ON route_msg() RETURNS 0 TO 15\n\
           IF xpos = xdes AND ypos = ydes THEN RETURN(15);\n\
           IF xpos < xdes AND free(0) THEN RETURN(0);\n\
           IF xdes < xpos AND free(1) THEN RETURN(1);\n\
           IF ypos < ydes AND free(2) THEN RETURN(2);\n\
           IF TRUE THEN RETURN(14);\n\
         END route_msg;";
    let report = verify_mesh("narrow", &compiled(narrow), 3, 3, MeshVcMode::SingleVc, 0, 16);
    assert!(!report.verified(), "certified a relation built from unloaded inputs");
    assert!(report.failures.is_empty(), "rejected for the load, not for a cycle");
    let err = report.lift_error.as_deref().unwrap_or_default();
    assert!(err.contains("`free`(3)"), "{err}");
    assert!(report.summary().contains("NOT VERIFIED"), "{}", report.summary());

    // the same program over a full direction domain verifies
    let full = narrow.replace("0 TO 2", "0 TO 3");
    let report = verify_mesh("full", &compiled(&full), 3, 3, MeshVcMode::SingleVc, 0, 16);
    assert!(report.verified(), "{}", report.summary());
}

/// The hypercube lift fails closed too: a 4-cube program driven on a
/// 6-cube cannot take `out_queue(4)`.
#[test]
fn a_cube_program_smaller_than_the_cube_is_rejected() {
    let c = compiled(&ftr_algos::rules_src::route_c_source(4));
    let report = verify_cube("route_c_d4", &c, 5, 0, 16);
    assert!(!report.verified(), "{}", report.summary());
    let err = report.lift_error.as_deref().unwrap_or_default();
    assert!(err.contains("`out_queue`(4)"), "{err}");
}

/// Mutation test: a rule base that fails to fire on one reachable query
/// must reject the proof, not shrink the relation. The mutant is the
/// shipped XY program plus one rule that RETURNs twice with different
/// values — an evaluation error — only at node (1,1) for destination
/// (2,2); the unmutated program verifies.
#[test]
fn a_mesh_program_that_errors_on_one_query_is_never_certified() {
    let xy = ftr_algos::rules_src::all().into_iter().find(|(n, _)| *n == "xy").expect("xy").1;
    let head = "ON route_msg() RETURNS 0 TO 15 NFT\n";
    assert!(xy.contains(head), "XY source changed shape");
    let clean = verify_mesh("xy", &compiled(xy), 3, 3, MeshVcMode::SingleVc, 1, 64);
    assert!(clean.verified(), "{}", clean.summary());

    let bad = "  IF xpos = 1 AND ypos = 1 AND xdes = 2 AND ydes = 2 THEN RETURN(0), RETURN(2);\n";
    let mutant = xy.replace(head, &format!("{head}{bad}"));
    let report = verify_mesh("xy_mutant", &compiled(&mutant), 3, 3, MeshVcMode::SingleVc, 1, 64);
    assert!(!report.verified(), "certified a relation with a failed decision in it");
    assert!(report.failures.is_empty(), "rejected for the failed fire, not for a cycle");
    let err = report.lift_error.as_deref().unwrap_or_default();
    assert!(err.contains("rule base `route_msg` failed to fire"), "{err}");
    assert!(err.contains("fault-free"), "names the fault set: {err}");
    assert!(report.summary().contains("NOT VERIFIED"), "{}", report.summary());
}

/// The hypercube analogue: ROUTE_C whose `decide_vc` takes its argmin over
/// `cands ∩ diffup` in phase 1 — empty there by construction, so the
/// second interpretation step fails on every phase-1 query. The lift used
/// to read that failure as "no channel", a smaller relation and a
/// possibly vacuous proof.
#[test]
fn a_cube_program_that_errors_while_deciding_is_never_certified() {
    let src = ftr_algos::rules_src::route_c_source(4);
    let needle = "IF phase = 1 AND freevc(1)\n    THEN chosen <- argmin(out_queue, cands),";
    assert!(src.contains(needle), "ROUTE_C source changed shape");
    let mutant = src.replace(
        needle,
        "IF phase = 1 AND freevc(1)\n    THEN chosen <- argmin(out_queue, isect(cands, diffup)),",
    );
    let report = verify_cube("route_c_mutant", &compiled(&mutant), 4, 0, 16);
    assert!(!report.verified(), "{}", report.summary());
    assert!(report.failures.is_empty(), "{}", report.summary());
    let err = report.lift_error.as_deref().unwrap_or_default();
    assert!(err.contains("rule base `decide_vc` failed to fire"), "{err}");
    assert!(err.contains("fault-free"), "names the fault set: {err}");
}

/// A program the mesh lift cannot drive at all — the hypercube programs,
/// which state the destination through `diffup`/`diffdown` and enter at
/// a set-valued `decide_dir` — yields an empty relation. Its "proof" is
/// vacuous, so it is rejected and the report names what is missing.
#[test]
fn cube_programs_are_not_certified_on_a_mesh() {
    for name in ["route_c", "route_c_nft"] {
        for mode in [MeshVcMode::SingleVc, MeshVcMode::NaraPair] {
            let report = verify_mesh(name, &shipped(name), 3, 3, mode, 1, 64);
            assert!(!report.verified(), "{}", report.summary());
            assert!(report.failures.is_empty(), "{}", report.summary());
            assert_eq!(report.fault_sets_checked, 0, "rejected before any scenario");
            let err = report.lift_error.as_deref().unwrap_or_default();
            assert!(err.contains("neither `xdes` nor `ydes`"), "{name}: {err}");
            assert!(report.summary().contains("NOT VERIFIED"), "{}", report.summary());
        }
    }
}

/// The hypercube direction: the mesh programs have no `decide_dir` (nor
/// `decide_vc`) for the cube lift to fire, and ROUTE_C's non-fault-
/// tolerant variant has no `decide_vc`; each used to read as
/// "deadlock-free on hypercube d=4" over an empty relation.
#[test]
fn programs_without_the_cube_rule_bases_are_not_certified_on_a_cube() {
    for (name, missing) in [
        ("xy", "`decide_dir`, `decide_vc`"),
        ("west_first", "`decide_dir`, `decide_vc`"),
        ("nafta", "`decide_dir`, `decide_vc`"),
        ("naive_adaptive", "`decide_dir`, `decide_vc`"),
        ("route_c_nft", "`decide_vc`"),
    ] {
        let report = verify_cube(name, &shipped(name), 4, 0, 16);
        assert!(!report.verified(), "{}", report.summary());
        assert!(report.failures.is_empty(), "{}", report.summary());
        let err = report.lift_error.as_deref().unwrap_or_default();
        assert!(err.contains(&format!("no {missing} rule base")), "{name}: {err}");
    }
    // both bases present but no destination input: still undrivable
    let src = ftr_algos::rules_src::route_c_source(4)
        .replace("diffup", "upset")
        .replace("diffdown", "downset");
    let report = verify_cube("route_c_renamed", &compiled(&src), 4, 0, 16);
    let err = report.lift_error.as_deref().unwrap_or_default();
    assert!(err.contains("neither `diffup` nor `diffdown`"), "{err}");
    // the drivable program still verifies
    let c = compiled(&ftr_algos::rules_src::route_c_source(4));
    assert!(verify_cube("route_c", &c, 4, 0, 16).verified());
}
