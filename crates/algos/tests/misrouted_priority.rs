//! Golden run of the misrouted-first switch policy (§3: favour messages
//! misrouted by faults to "compensate the double disadvantage of the longer
//! path and higher loaded links").
//!
//! NAFTA on an 8×8 mesh with eight static link faults and one transient
//! link fault, `prioritize_misrouted` on. The pinned numbers were recorded
//! with the earlier switch allocator (a cyclic scan of every input slot per
//! output port); any change to who wins arbitration, or in which order,
//! moves them.

use ftr_algos::Nafta;
use ftr_sim::{FaultPlan, Network, Pattern, RetryPolicy, SimConfig, SimStats, TrafficSource};
use ftr_topo::{FaultSet, Mesh2D, EAST};
use std::sync::Arc;

fn run(prioritize: bool) -> (SimStats, u64) {
    let mesh = Mesh2D::new(8, 8);
    let mut faults = FaultSet::new();
    faults.inject_random_links(&mesh, 8, true, 41);
    let cfg = SimConfig { prioritize_misrouted: prioritize, ..Default::default() };
    let plan = FaultPlan::new().transient_link(700, mesh.node_at(3, 4), EAST, 300);
    let mut net = Network::builder(Arc::new(mesh.clone()))
        .config(cfg)
        .retry(RetryPolicy { max_attempts: 6, backoff_cycles: 40 })
        .build(&Nafta::new(mesh.clone()))
        .expect("valid config");
    net.apply_fault_set(&faults);
    net.settle_control(100_000).expect("fault waves settle");
    net.set_fault_plan(plan);
    net.set_measuring(true);
    let mut tf = TrafficSource::new(Pattern::Uniform, 0.14, 4, 55);
    for _ in 0..2_000 {
        for (s, d, l) in tf.tick(&mesh, net.faults()) {
            let _ = net.send(s, d, l);
        }
        net.step();
    }
    assert!(net.drain(100_000), "network drains");
    (net.stats.clone(), net.cycle())
}

fn fingerprint(s: &SimStats, cycle: u64) -> [u64; 19] {
    [
        s.injected_msgs,
        s.delivered_msgs,
        s.measured_delivered,
        s.killed_msgs,
        s.unroutable_msgs,
        s.retried_msgs,
        s.abandoned_msgs,
        s.latency.count,
        s.latency.sum,
        s.latency.min,
        s.latency.max,
        s.hops.sum,
        s.excess_hops,
        s.latency_detoured.count,
        s.latency_detoured.sum,
        s.decision_steps.count,
        s.decision_steps.sum,
        s.control_msgs,
        cycle,
    ]
}

#[test]
fn misrouted_first_policy_matches_golden_stats() {
    let (on, on_cycle) = run(true);
    assert!(on.accounting_balanced());
    assert!(!on.deadlock);
    assert!(on.latency_detoured.count > 0, "faults force detours, so the policy has work");
    let golden: [u64; 19] = [
        4560, 4558, 4558, 0, 2, 38, 2, 4558, 94578, 4, 549, 26704, 2304, 900, 27759, 32229, 32965,
        554, 2033,
    ];
    assert_eq!(fingerprint(&on, on_cycle), golden);
    // the policy is live: plain round-robin arbitrates differently
    let (off, off_cycle) = run(false);
    assert_ne!(fingerprint(&off, off_cycle), golden);
}
