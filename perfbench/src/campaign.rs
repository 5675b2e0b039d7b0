//! `nafta_campaign`: the E15 dynamic-fault campaign as a user runs it —
//! many short sequential seeded runs, each build → offered cycles → drain
//! → replay of its own in-memory FTB trace.

use crate::drive::{cycle, predraw, sub_seed, LoopTrace, Sched, Tracers};
use crate::hostref;
use crate::layers::{Counts, CtlLayer, Layers};
use crate::report::{
    end_checks, host_time_metrics, peak_rss_mb, percentile, ratio, stats_digest, Checks, Metrics,
    Samples, DIGEST_SEED,
};
use crate::timed::{TimedAlgo, TimedSink};
use crate::Outcome;
use ftr_algos::Nafta;
use ftr_obs::{BinSink, FtbHeader, TeeSink, TraceSink};
use ftr_sim::{FaultPlan, Network, RetryPolicy, SimStats};
use ftr_topo::{FaultSet, Mesh2D};
use ftr_trace::{replay, DiagnoserSink, EventReader, JourneyBook};
use std::io::{Cursor, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const SIDE: u32 = 6;
const LOAD: f64 = 0.15;
const MSG_LEN: u32 = 16;
const REPAIR_AFTER: u64 = 200;
const FAULT_WINDOW: std::ops::Range<u64> = 200..1_400;
const OFFERED_CYCLES: u64 = 1_800;
const DRAIN_BUDGET: u64 = 60_000;
const FAULT_COUNTS: [usize; 5] = [0, 4, 8, 12, 16];
const RETRY: RetryPolicy = RetryPolicy { max_attempts: 8, backoff_cycles: 64 };
/// Fewest runs in a campaign.
const MIN_RUNS: u64 = 100;
/// Builds per `setup_s` sample.
const SETUP_BATCH: usize = 2_000;
/// Most `setup_s` samples per untraced campaign; `setup_s` is their
/// median.
const SETUP_SAMPLES: u64 = 31;
/// Runs per second of `--seconds`, sized on a 2-core x86-64 host (see
/// `Shape::cycles_per_second`).
const RUNS_PER_SECOND: f64 = 25.0;

/// An in-memory FTB capture target.
#[derive(Clone, Default)]
struct MemBuf(Arc<Mutex<Vec<u8>>>);

impl MemBuf {
    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.0.lock().expect("no writer panicked"))
    }
}

impl Write for MemBuf {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("no writer panicked").extend_from_slice(b);
        Ok(b.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct Spec {
    seed: u64,
    faults: usize,
    sched: Sched,
}

struct RunOut {
    stats: SimStats,
    cycles: u64,
    run_ns: u64,
    setup_ns: u64,
    drain_ns: u64,
    ftb_bytes: u64,
    replayed: u64,
    replay_ns: u64,
}

fn specs(seed: u64, runs: u64, mesh: &Mesh2D) -> Vec<Spec> {
    (0..runs)
        .map(|i| {
            let seed = sub_seed(seed, i);
            Spec {
                seed,
                faults: FAULT_COUNTS[i as usize % FAULT_COUNTS.len()],
                // link faults only: no node is ever faulty, so drawing
                // against an empty fault set equals drawing live
                sched: predraw(mesh, &FaultSet::new(), LOAD, MSG_LEN, seed, OFFERED_CYCLES),
            }
        })
        .collect()
}

/// A campaign network ready for its first cycle, with its two sinks and
/// the FTB capture buffer.
struct Net {
    net: Network,
    ftb: Arc<BinSink<MemBuf>>,
    diag: Arc<DiagnoserSink>,
    buf: MemBuf,
}

/// The set-up of one run: controllers, fault plan, sinks and build. With
/// tracers every controller and sink is wrapped.
fn build(mesh: &Mesh2D, spec: &Spec, tr: Option<&Tracers>) -> Net {
    let algo = Nafta::new(mesh.clone());
    let plan =
        FaultPlan::random_transient_links(mesh, spec.faults, FAULT_WINDOW, REPAIR_AFTER, spec.seed);
    let buf = MemBuf::default();
    let header = FtbHeader::new()
        .with("geometry", format!("mesh{SIDE}x{SIDE}"))
        .with("seed", spec.seed)
        .with("faults", spec.faults);
    let ftb = Arc::new(BinSink::new(buf.clone(), header).expect("memory never fails a write"));
    let diag = Arc::new(DiagnoserSink::default());
    let sinks: Vec<Arc<dyn TraceSink>> = match tr {
        Some(t) => vec![
            Arc::new(TimedSink::new(ftb.clone(), Arc::clone(&t.sinks[0]))),
            Arc::new(TimedSink::new(diag.clone(), Arc::clone(&t.sinks[1]))),
        ],
        None => vec![ftb.clone(), diag.clone()],
    };
    let b = Network::builder(Arc::new(mesh.clone()))
        .fault_plan(plan)
        .retry(RETRY)
        .trace(Arc::new(TeeSink::new(sinks)));
    let mut net = match tr {
        Some(t) => b.build(&TimedAlgo::new(&algo, Arc::clone(&t.ctl))),
        None => b.build(&algo),
    }
    .expect("valid configuration");
    net.set_measuring(true);
    Net { net, ftb, diag, buf }
}

/// One campaign run. With tracers every controller and sink is wrapped
/// and the offered cycles are timed one by one into `lt`.
fn run_one(
    mesh: &Mesh2D,
    spec: &Spec,
    tr: Option<(&Tracers, &mut LoopTrace)>,
    ck: &mut Checks,
) -> RunOut {
    let t0 = Instant::now();
    let Net { mut net, ftb, diag, buf } = build(mesh, spec, tr.as_ref().map(|(t, _)| *t));
    let setup_ns = t0.elapsed().as_nanos() as u64;

    match tr {
        Some((t, lt)) => lt.drive(&mut net, &spec.sched, t),
        None => spec.sched.iter().for_each(|msgs| cycle(&mut net, msgs)),
    }
    let td = Instant::now();
    let drained = net.drain(DRAIN_BUDGET);
    let drain_ns = td.elapsed().as_nanos() as u64;
    diag.scan_now();
    let finalized = ftb.finalize();
    let bytes = buf.take();
    let ftb_bytes = bytes.len() as u64;
    let tr0 = Instant::now();
    let mut book = JourneyBook::new();
    let replayed =
        EventReader::from_reader(Cursor::new(bytes)).and_then(|r| replay(r, &mut book, None));
    let replay_ns = tr0.elapsed().as_nanos() as u64;
    let run_ns = t0.elapsed().as_nanos() as u64;

    let what = format!("campaign run seed {} faults {}", spec.seed, spec.faults);
    end_checks(ck, &what, &net.stats, drained);
    ck.check(diag.deadlock().is_none(), || format!("{what}: diagnoser reported deadlock"));
    ck.check(diag.starved().is_empty(), || format!("{what}: diagnoser reported starvation"));
    ck.check(finalized.is_ok() && ftb.write_errors() == 0, || {
        format!("{what}: FTB capture lost events")
    });
    let replayed = match replayed {
        Ok(n) => n,
        Err(e) => {
            ck.check(false, || format!("{what}: replay failed: {e}"));
            0
        }
    };
    ck.check(replayed == ftb.written(), || {
        format!("{what}: replayed {replayed} of {} events", ftb.written())
    });
    ck.check(book.summary().delivered == net.stats.delivered_msgs, || {
        format!("{what}: replayed delivered count differs from SimStats")
    });
    RunOut {
        cycles: net.cycle(),
        stats: net.stats,
        run_ns,
        setup_ns,
        drain_ns,
        ftb_bytes,
        replayed,
        replay_ns,
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, ck: &mut Checks) -> Outcome {
    let mesh = Mesh2D::new(SIDE, SIDE);
    let runs = ((seconds * RUNS_PER_SECOND).round() as u64).max(MIN_RUNS);
    let specs = specs(seed, runs, &mesh);
    let attempted: u64 = specs.iter().map(|s| crate::drive::offered(&s.sched)).sum();

    // set-up samples are spread evenly between the runs, so `setup_s`
    // samples the host over the whole campaign as the run times do
    let mut setup_s = Samples::default();
    let every = runs.div_ceil(SETUP_SAMPLES) as usize;
    let (mut outs, mut run_ms) = (Vec::new(), Samples::default());
    let mut r0 = hostref::chunk_ns();
    for (i, s) in specs.iter().enumerate() {
        if !trace && i % every == 0 {
            r0 = setup_sample(&mesh, &specs, &mut setup_s);
        }
        let o = run_one(&mesh, s, None, ck);
        let r1 = hostref::chunk_ns();
        run_ms.push(o.run_ns as f64 / 1e6, hostref::scale(r0, r1));
        outs.push(o);
        r0 = r1;
    }
    let again = run_one(&mesh, &specs[0], None, ck);
    ck.check(again.stats == outs[0].stats, || {
        "repeated campaign run ends in different SimStats".into()
    });

    let mut digest = DIGEST_SEED;
    let (mut delivered, mut lat_sum, mut lat_n, mut steps_sum, mut steps_n) = (0, 0, 0, 0, 0);
    for o in &outs {
        stats_digest(&o.stats, o.cycles, &mut digest);
        delivered += o.stats.delivered_msgs;
        lat_sum += o.stats.latency.sum;
        lat_n += o.stats.latency.count;
        steps_sum += o.stats.decision_steps.sum;
        steps_n += o.stats.decision_steps.count;
    }
    let cycles: u64 = outs.iter().map(|o| o.cycles).sum();

    let metrics = if trace {
        traced(&mesh, &specs, &outs, &run_ms, ck)
    } else {
        let mut m = Metrics::default();
        host_time_metrics(&mut m, &setup_s, &run_ms, &run_ms, cycles);
        m.put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB");
        m.put("delivery_ratio", ratio(delivered as f64, attempted as f64), "ratio");
        m.put("sim_latency_mean_cycles", ratio(lat_sum as f64, lat_n as f64), "cycles");
        m.put("decision_steps_mean", ratio(steps_sum as f64, steps_n as f64), "steps");
        m
    };
    println!("run_ms samples: {runs} campaign runs");
    Outcome { attempted, failed: attempted.saturating_sub(delivered), metrics, digest }
}

/// One `setup_s` sample: the mean time of `SETUP_BATCH` back-to-back
/// builds of the campaign's run networks, between two reference chunks.
/// One build takes tens of microseconds, too short to time alone.
/// Returns the closing reference chunk.
fn setup_sample(mesh: &Mesh2D, specs: &[Spec], setup_s: &mut Samples) -> f64 {
    let r0 = hostref::chunk_ns();
    let mut ns = 0;
    for s in specs.iter().cycle().take(SETUP_BATCH) {
        let t = Instant::now();
        let n = build(mesh, s, None);
        ns += t.elapsed().as_nanos() as u64;
        drop(n);
    }
    let per_build_s = ns as f64 / SETUP_BATCH as f64 / 1e9;
    let r1 = hostref::chunk_ns();
    setup_s.push(per_build_s, hostref::scale(r0, r1));
    r1
}

/// The traced pass over the same runs: per-layer metrics, and the same
/// `SimStats` as the untraced runs.
fn traced(
    mesh: &Mesh2D,
    specs: &[Spec],
    untraced: &[RunOut],
    untraced_ms: &Samples,
    ck: &mut Checks,
) -> Metrics {
    let tr = Tracers::new(2);
    let mut lt = LoopTrace::default();
    let mut counts = Counts::default();
    let (mut build_ms, mut drain_ms) = (Vec::new(), Vec::new());
    let (mut bytes, mut replayed, mut replay_ns) = (0, 0, 0);
    // the same host-speed correction as the untraced runs, so the overhead
    // ratio compares like with like
    let mut traced_ms = Samples::default();
    let mut r0 = hostref::chunk_ns();
    for (s, u) in specs.iter().zip(untraced) {
        let o = run_one(mesh, s, Some((&tr, &mut lt)), ck);
        let r1 = hostref::chunk_ns();
        traced_ms.push(o.run_ns as f64 / 1e6, hostref::scale(r0, r1));
        r0 = r1;
        ck.check(o.stats == u.stats, || {
            format!("campaign run seed {}: traced and untraced SimStats differ", s.seed)
        });
        counts.add(&o.stats);
        build_ms.push(o.setup_ns as f64 / 1e6);
        drain_ms.push(o.drain_ns as f64 / 1e6);
        bytes += o.ftb_bytes;
        replayed += o.replayed;
        replay_ns += o.replay_ns;
    }
    lt.check_partition(ck);
    Layers {
        lt: &lt,
        build_ms: percentile(&mut build_ms, 0.5),
        settle_ms: 0.0,
        drain_ms: percentile(&mut drain_ms, 0.5),
        counts,
        ctl: &tr.ctl,
        ctl_layer: CtlLayer::Algos,
        profiler: &tr.profiler,
        compile_ms: 0.0,
        table_bits: 0,
        obs: Some((&tr.sinks[0], bytes)),
        diag: Some(&tr.sinks[1]),
        replay: Some((replayed, replay_ns)),
        traced_over_untraced: untraced_ms.corrected_sum() / traced_ms.corrected_sum(),
    }
    .metrics()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapped_and_unwrapped_campaign_runs_end_in_equal_stats() {
        let mesh = Mesh2D::new(SIDE, SIDE);
        // the fault-heaviest spec: kills, retries, repairs and control waves
        let spec = specs(3, 5, &mesh).pop().expect("five specs");
        assert_eq!(spec.faults, 16);
        let mut ck = Checks::default();
        let bare = run_one(&mesh, &spec, None, &mut ck);
        let tr = Tracers::new(2);
        let mut lt = LoopTrace::default();
        let wrapped = run_one(&mesh, &spec, Some((&tr, &mut lt)), &mut ck);
        assert!(ck.failures().is_empty(), "{:?}", ck.failures());
        assert_eq!(bare.stats, wrapped.stats);
        assert!(bare.stats.retried_msgs > 0 && bare.stats.control_msgs > 0);
        assert_eq!(lt.cycles, OFFERED_CYCLES);
        assert_eq!(lt.overlapping_steps, 0);
    }
}
