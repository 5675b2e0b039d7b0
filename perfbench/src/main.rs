//! Host-time benchmark of the fault-tolerant router simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a run header, the workload's stats digest and, as its last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced run with `--trace 1`. Exits 1 when a correctness check fails and
//! 2 on bad arguments or a non-default environment. See `README.md`.

mod campaign;
mod drive;
mod fabric;
mod hostref;
mod layers;
mod report;
mod timed;

use report::{Checks, Metrics};

/// What one workload run produced.
pub struct Outcome {
    /// Messages offered.
    pub attempted: u64,
    /// Offered messages not delivered after drain, rejected sends included.
    pub failed: u64,
    pub metrics: Metrics,
    /// FNV-1a digest of the final `SimStats` of every network the untraced
    /// pass simulated.
    pub digest: u64,
}

const WORKLOADS: [&str; 4] =
    ["nafta_campaign", "routec_cube6", "rule_xy_mesh8x8", "xy_mesh256_light"];

/// Environment variables that select a non-default engine or backend.
const REFUSED_ENV: [&str; 2] = ["FTR_BACKEND", "FTR_THREADS"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // the benchmark measures the default path a user gets: the table
    // backend and the sequential engine. It never selects either, and with
    // both variables refused below nothing else can, so the header states
    // the defaults instead of querying the thread and backend APIs.
    let set: Vec<&str> =
        REFUSED_ENV.iter().copied().filter(|v| std::env::var_os(v).is_some()).collect();
    println!(
        "header: {{\"git_rev\": \"{}\", \"nproc\": {}, \"engine_threads\": 1, \"backend\": \"table\", \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"FTR_BACKEND_set\": {}, \"FTR_THREADS_set\": {}}}",
        report::git_rev(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        set.contains(&"FTR_BACKEND"),
        set.contains(&"FTR_THREADS"),
    );
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset it to measure the default path",
            set.join(", ")
        );
        std::process::exit(2);
    }

    let mut ck = Checks::default();
    let base = hostref::baseline();
    let out = match args.workload.as_str() {
        "nafta_campaign" => campaign::run(args.seed, args.seconds, args.trace, &mut ck),
        "routec_cube6" => {
            fabric::run(&fabric::RouteCCube6, args.seed, args.seconds, args.trace, &mut ck)
        }
        "rule_xy_mesh8x8" => {
            fabric::run(&fabric::RuleXyMesh8x8, args.seed, args.seconds, args.trace, &mut ck)
        }
        "xy_mesh256_light" => {
            fabric::run(&fabric::XyMesh256Light, args.seed, args.seconds, args.trace, &mut ck)
        }
        _ => unreachable!("workload validated by parse_args"),
    };
    hostref::report_drift(base);
    for m in &out.metrics.0 {
        ck.check(m.value.is_finite(), || format!("metric {} is not a finite number", m.name));
    }
    for f in ck.failures() {
        eprintln!("perfbench: check failed: {f}");
    }
    println!("sim_digest: {} {:016x}", args.workload, out.digest);
    println!("checks: {} passed, {} failed", ck.passed(), ck.failures().len());
    let correct = ck.failures().is_empty();
    println!("{}", report::result_line(correct, out.attempted, out.failed, &out.metrics));
    if !correct {
        std::process::exit(1);
    }
}
