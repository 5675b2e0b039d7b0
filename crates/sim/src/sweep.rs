//! Parallel parameter sweeps.
//!
//! Latency-throughput curves need one independent simulation per offered
//! load; sweeps fan the runs out over OS threads with `crossbeam::scope`
//! (each simulation is single-threaded and deterministic for its seed, so
//! results are reproducible regardless of scheduling).

use crossbeam::thread;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Best-effort rendering of a panic payload (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `job` for every element of `inputs` in parallel (bounded by
/// `max_threads`) and returns the results in input order.
///
/// Each job runs under `catch_unwind`, so one panicking input no longer
/// aborts the whole scope with an anonymous "sweep worker panicked": every
/// remaining job still runs, and the collected failures are re-raised as a
/// single panic naming each failing input index and its payload — campaign
/// failures are attributable to the exact (parameter, seed) cell.
pub fn run_sweep<I, O, F>(inputs: Vec<I>, max_threads: usize, job: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = max_threads.max(1).min(n);
    // one lock per output slot: writers never contend with each other (each
    // index is claimed by exactly one worker), unlike a single global mutex
    // around the whole result vector which serialises every store
    let slots: Vec<parking_lot::Mutex<Option<std::thread::Result<O>>>> =
        (0..n).map(|_| parking_lot::Mutex::new(None)).collect();

    // hand out (index, input) pairs through a shared atomic cursor
    // (Relaxed is enough: fetch_add is an atomic RMW, so every index is
    // claimed exactly once, and the scope join publishes the slot writes)
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let inputs_ref = &inputs;
    let job_ref = &job;
    let slots_ref = &slots;

    thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|_| loop {
                let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = catch_unwind(AssertUnwindSafe(|| job_ref(&inputs_ref[i])));
                *slots_ref[i].lock() = Some(out);
            });
        }
    })
    .expect("sweep worker panicked outside a job");

    let mut outs = Vec::with_capacity(n);
    let mut failures: Vec<(usize, String)> = Vec::new();
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.into_inner() {
            Some(Ok(o)) => outs.push(o),
            Some(Err(payload)) => failures.push((i, panic_message(payload.as_ref()))),
            None => failures.push((i, "slot never ran".to_string())),
        }
    }
    if !failures.is_empty() {
        let list: Vec<String> =
            failures.iter().map(|(i, m)| format!("input index {i}: {m}")).collect();
        panic!("sweep: {} of {n} jobs panicked — {}", failures.len(), list.join("; "));
    }
    outs
}

/// Default sweep parallelism: the machine's logical CPU count.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Worker-thread count for sweeps and the sharded engine: the `FTR_THREADS`
/// environment variable when set to a positive integer, else
/// [`default_threads`]. Lets CI and shared machines pin parallelism without
/// touching every call site.
pub fn worker_count() -> usize {
    std::env::var("FTR_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(default_threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = run_sweep((0..100).collect(), 8, |&x: &i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn works_single_threaded() {
        let out = run_sweep(vec![1, 2, 3], 1, |&x: &i32| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = run_sweep(Vec::<i32>::new(), 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = run_sweep(vec![7], 64, |&x: &i32| x);
        assert_eq!(out, vec![7]);
    }

    #[test]
    #[should_panic(expected = "input index 7")]
    fn panicking_job_is_attributed_to_its_input_index() {
        run_sweep((0..16).collect(), 4, |&x: &i32| {
            if x == 7 {
                panic!("bad cell");
            }
            x
        });
    }

    #[test]
    fn panic_message_names_every_failure_and_payload() {
        let res = catch_unwind(AssertUnwindSafe(|| {
            run_sweep((0..8).collect(), 2, |&x: &i32| {
                if x % 4 == 1 {
                    panic!("seed {x} diverged");
                }
                x
            })
        }));
        let msg = panic_message(res.expect_err("must propagate").as_ref());
        assert!(msg.contains("2 of 8 jobs panicked"), "got: {msg}");
        assert!(msg.contains("input index 1: seed 1 diverged"), "got: {msg}");
        assert!(msg.contains("input index 5: seed 5 diverged"), "got: {msg}");
    }

    #[test]
    fn worker_count_respects_env_override() {
        // mutating the process environment is global: serialize through
        // the crate-wide env lock, which also restores the pre-test
        // value of FTR_THREADS on drop (even on panic)
        let mut env = crate::envlock::EnvGuard::new();
        env.set("FTR_THREADS", "3");
        assert_eq!(worker_count(), 3);
        env.set("FTR_THREADS", " 5 ");
        assert_eq!(worker_count(), 5, "whitespace-tolerant");
        env.set("FTR_THREADS", "0");
        assert_eq!(worker_count(), default_threads(), "zero falls back");
        env.set("FTR_THREADS", "lots");
        assert_eq!(worker_count(), default_threads(), "garbage falls back");
        env.remove("FTR_THREADS");
        assert_eq!(worker_count(), default_threads());
    }

    #[test]
    fn surviving_jobs_still_run_when_one_panics() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = AtomicUsize::new(0);
        let res = catch_unwind(AssertUnwindSafe(|| {
            run_sweep((0..32).collect(), 4, |&x: &i32| {
                ran.fetch_add(1, Ordering::Relaxed);
                if x == 0 {
                    panic!("early failure");
                }
                x
            })
        }));
        assert!(res.is_err());
        assert_eq!(ran.load(Ordering::Relaxed), 32, "a panic must not cancel the sweep");
    }
}
