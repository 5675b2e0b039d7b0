//! Host-speed reference: corrects host times for the drift of a shared
//! host.
//!
//! On a small shared virtual machine the same code runs up to 1.7x slower
//! for stretches of seconds to minutes, in step for the simulator and for
//! other allocation- and hash-heavy code, so run-to-run spread reflects the
//! host rather than the program. The benchmark therefore times a fixed
//! reference kernel, benchmark code in which no program code runs, on the
//! measuring thread right before and after every measured interval, and
//! scales the interval by `NOMINAL_NS / reference time`: the time it would
//! have taken on the sizing host at its usual speed. A slower program still
//! reads slower; a slower host much less so. In a 30-second test the
//! coefficient of variation of 6x6 NAFTA run times fell from 0.17 raw to
//! 0.09 corrected.
//!
//! The kernel shares the process, the heap and the caches with the
//! program, so the state a program leaves behind could change its timing,
//! and a program change that slowed the kernel would read as a faster
//! program. [`report_drift`] prints the median chunk next to the workload
//! against a [`baseline`] timed at process start, before the workload
//! allocates anything, so such a change shows. It fails no run: the host
//! alone moves that ratio by more than any program state measured, since
//! its speed switches by about 1.6x within a second.
//!
//! The kernel mixes what the simulator's hot path does: `HashMap` inserts
//! and removals with the default hasher, `BTreeMap` lookups and small
//! nested `Vec` allocations.

use crate::report::percentile;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Kernel iterations per reference chunk (about 1.5 ms).
const ITERS: u64 = 3_000;
/// Median chunk time on the sizing host (2-vCPU x86-64 VM, 2.1 GHz).
pub const NOMINAL_NS: f64 = 1_450_000.0;
/// Chunks timed, after as many untimed ones, for the baseline.
const BASELINE_CHUNKS: usize = 9;
thread_local! {
    /// Every chunk timed next to the workload, in nanoseconds.
    static NEXT_TO_WORKLOAD: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

fn kernel(iters: u64) -> u64 {
    let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut tree: BTreeMap<u64, u64> = BTreeMap::new();
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0_u64);
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % 8_192;
        map.entry(k).or_insert_with(|| vec![0; (x % 24) as usize + 1])[0] += 1;
        if i % 3 == 0 {
            map.remove(&(x.rotate_left(7) % 8_192));
        }
        *tree.entry(x % 1_024).or_default() += i;
        if let Some((_, v)) = tree.range(k % 1_024..).next() {
            acc = acc.wrapping_add(*v);
        }
        let lanes: Vec<Vec<bool>> = (0..4).map(|j| vec![(x >> j) & 1 == 1; 2]).collect();
        acc = acc.wrapping_add(lanes.iter().flatten().filter(|&&b| b).count() as u64);
    }
    acc
}

fn time_chunk() -> f64 {
    let t = Instant::now();
    black_box(kernel(black_box(ITERS)));
    t.elapsed().as_nanos() as f64
}

/// Times one reference chunk next to the workload, in nanoseconds.
pub fn chunk_ns() -> f64 {
    let ns = time_chunk();
    NEXT_TO_WORKLOAD.with(|l| l.borrow_mut().push(ns));
    ns
}

/// Median reference chunk time before the workload starts, in
/// nanoseconds. Call it first, before any program code runs.
pub fn baseline() -> f64 {
    let mut xs: Vec<f64> = (0..2 * BASELINE_CHUNKS).map(|_| time_chunk()).collect();
    percentile(&mut xs[BASELINE_CHUNKS..], 0.5)
}

/// Scale that maps a host time measured between reference chunks `a` and
/// `b` (nanoseconds) to the sizing host's speed.
pub fn scale(a: f64, b: f64) -> f64 {
    2.0 * NOMINAL_NS / (a + b)
}

/// Prints the median of the chunks timed next to the workload against
/// `baseline` and their ratio. A program change that moves the ratio far
/// outside its usual range on one host disturbs the reference; compare
/// its raw values.
pub fn report_drift(baseline: f64) {
    let mut xs = NEXT_TO_WORKLOAD.with(|l| l.borrow().clone());
    if xs.is_empty() {
        return;
    }
    let next = percentile(&mut xs, 0.5);
    println!(
        "hostref: baseline_ns={baseline} next_to_workload_p50_ns={next} ratio={}",
        next / baseline
    );
}
