//! Statistical regression detection over committed benchmark baselines.
//!
//! CI used to gate performance with per-experiment python one-liners:
//! load `ci_results/BENCH_*.json`, compare one headline number against
//! the committed `results/` baseline, assert. Four copies of that
//! pattern drifted independently and none of them knew anything about
//! noise. This module centralises the gate:
//!
//! - **Robust summaries.** A metric may be a scalar or an array of
//!   per-rep samples; either way it is reduced with estimators that a
//!   single outlier cannot drag: the [`median`], the [`mad`] (median
//!   absolute deviation) as the noise scale, and min-of-k for
//!   lower-is-better timing metrics (the classic estimator for "the
//!   machine's best case is the honest number").
//! - **Noise bands, not point gates.** A banded metric regresses only
//!   when the fresh estimate falls outside
//!   `baseline ± (rel_tol · baseline + 3 · MAD)` on the losing side —
//!   a deviation a rounding wobble cannot trip, but a real 2x loss
//!   always does.
//! - **Invariants.** Boolean claims (bit-identity, accounting held,
//!   structural shape) are checked on *both* files, exactly — there is
//!   no noise band on correctness.
//!
//! The [`gates`] table declares one [`Gate`] per `BENCH_*.json`
//! artifact; the `regress` binary walks it and exits non-zero on any
//! deviation, which is the entire CI perf gate.

use ftr_obs::json::Value;

/// Robust summary of a sample set.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// The median (even `n`: mean of the middle pair).
    pub median: f64,
    /// Median absolute deviation from the median — a robust noise
    /// scale (0 for a single sample).
    pub mad: f64,
    /// Smallest sample (min-of-k).
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// Median of `xs` (not required sorted). `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Median absolute deviation of `xs` from its median.
pub fn mad(xs: &[f64]) -> Option<f64> {
    let m = median(xs)?;
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Summarizes a sample set; `None` when empty.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    let med = median(xs)?;
    Some(Summary {
        n: xs.len(),
        median: med,
        mad: mad(xs).unwrap_or(0.0),
        min: xs.iter().copied().fold(f64::INFINITY, f64::min),
        max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    })
}

/// Which direction is good for a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Bigger is better (speedups, ratios, throughput).
    Higher,
    /// Smaller is better (latencies, ns/op) — estimated min-of-k.
    Lower,
}

/// One gated metric inside a benchmark artifact.
pub struct MetricSpec {
    /// Dotted path into the JSON document (`micro.speedup`). The value
    /// may be a number or an array of per-rep numbers.
    pub path: &'static str,
    /// Good direction; also selects the estimator (median for
    /// [`Better::Higher`], min-of-k for [`Better::Lower`]).
    pub better: Better,
    /// Absolute bar on the *fresh* estimate: a minimum for
    /// [`Better::Higher`], a maximum for [`Better::Lower`]. Applied
    /// regardless of the baseline.
    pub bar: Option<f64>,
    /// Relative noise band vs the *baseline* estimate; the band is
    /// additionally widened by 3 baseline MADs.
    pub rel_tol: Option<f64>,
}

/// One benchmark artifact and everything gated on it.
pub struct Gate {
    /// Artifact stem: `BENCH_step` → `<dir>/BENCH_step.json`.
    pub file: &'static str,
    /// Experiment tag the artifact must carry.
    pub experiment: &'static str,
    /// Exact (noise-free) checks, run on baseline and fresh alike.
    pub invariants: fn(&Value, &mut Vec<String>),
    /// Noise-banded numeric checks.
    pub metrics: &'static [MetricSpec],
}

/// Extracts the sample set at dotted `path`: a number becomes a
/// singleton, an array of numbers becomes the per-rep samples.
pub fn extract(v: &Value, path: &str) -> Result<Vec<f64>, String> {
    let mut cur = v;
    for seg in path.split('.') {
        cur = cur.get(seg).ok_or_else(|| format!("missing field `{path}`"))?;
    }
    if let Some(x) = cur.as_f64() {
        return Ok(vec![x]);
    }
    if let Some(arr) = cur.as_arr() {
        let xs: Vec<f64> = arr.iter().filter_map(|x| x.as_f64()).collect();
        if xs.len() == arr.len() && !xs.is_empty() {
            return Ok(xs);
        }
    }
    Err(format!("field `{path}` is not a number or a non-empty numeric array"))
}

/// The gated estimate for a metric: median when higher is better,
/// min-of-k when lower is better.
pub fn estimate(spec: &MetricSpec, s: &Summary) -> f64 {
    match spec.better {
        Better::Higher => s.median,
        Better::Lower => s.min,
    }
}

/// Checks one metric of one artifact; pushes human-readable deviations.
pub fn check_metric(
    gate: &Gate,
    spec: &MetricSpec,
    fresh: &Value,
    base: &Value,
    out: &mut Vec<String>,
) {
    let tag = |which: &str, e: &str| format!("{} ({which}): {e}", gate.file);
    let f_sum = match extract(fresh, spec.path)
        .and_then(|xs| summarize(&xs).ok_or_else(|| format!("`{}` has no samples", spec.path)))
    {
        Ok(s) => s,
        Err(e) => {
            out.push(tag("fresh", &e));
            return;
        }
    };
    let b_sum = match extract(base, spec.path)
        .and_then(|xs| summarize(&xs).ok_or_else(|| format!("`{}` has no samples", spec.path)))
    {
        Ok(s) => s,
        Err(e) => {
            out.push(tag("baseline", &e));
            return;
        }
    };
    let f_est = estimate(spec, &f_sum);
    let b_est = estimate(spec, &b_sum);

    if let Some(bar) = spec.bar {
        let ok = match spec.better {
            Better::Higher => f_est >= bar,
            Better::Lower => f_est <= bar,
        };
        if !ok {
            out.push(format!(
                "{}: `{}` = {f_est:.4} misses the absolute bar {bar} \
                 ({} of {} samples)",
                gate.file,
                spec.path,
                if spec.better == Better::Higher { "median" } else { "min" },
                f_sum.n,
            ));
        }
    }
    if let Some(tol) = spec.rel_tol {
        let slack = tol * b_est.abs() + 3.0 * b_sum.mad;
        let ok = match spec.better {
            Better::Higher => f_est >= b_est - slack,
            Better::Lower => f_est <= b_est + slack,
        };
        if !ok {
            out.push(format!(
                "{}: `{}` regressed: fresh {f_est:.4} vs baseline {b_est:.4} \
                 (band ±{slack:.4} = {tol}·baseline + 3·MAD {:.4})",
                gate.file, spec.path, b_sum.mad,
            ));
        }
    }
}

/// Runs a gate's invariants against one document, prefixing deviations
/// with the artifact and side they came from.
pub fn check_invariants(gate: &Gate, which: &str, v: &Value, out: &mut Vec<String>) {
    let mut local = Vec::new();
    // long-form tags ("E21 resumable …") match on the leading token
    match v.get("experiment").and_then(|x| x.as_str()) {
        Some(tag) if tag.split_whitespace().next() == Some(gate.experiment) => {}
        other => local.push(format!("experiment tag {other:?} is not {}", gate.experiment)),
    }
    (gate.invariants)(v, &mut local);
    out.extend(local.into_iter().map(|e| format!("{} ({which}): {e}", gate.file)));
}

fn num(v: &Value, path: &str) -> Option<f64> {
    let mut cur = v;
    for seg in path.split('.') {
        cur = cur.get(seg)?;
    }
    cur.as_f64()
}

fn require_positive(v: &Value, path: &str, out: &mut Vec<String>) {
    if num(v, path).is_none_or(|x| x <= 0.0) {
        out.push(format!("`{path}` must be positive"));
    }
}

fn require_true(v: &Value, path: &str, out: &mut Vec<String>) {
    let mut cur = v;
    for seg in path.split('.') {
        match cur.get(seg) {
            Some(x) => cur = x,
            None => {
                out.push(format!("`{path}` is missing"));
                return;
            }
        }
    }
    if cur.as_bool() != Some(true) {
        out.push(format!("`{path}` must be true"));
    }
}

fn inv_step(v: &Value, out: &mut Vec<String>) {
    for fabric in ["mesh6x6_nafta", "hypercube4_route_c"] {
        match v.get(fabric).and_then(|a| a.as_arr()) {
            Some(pts) if pts.len() == 3 => {
                for (i, p) in pts.iter().enumerate() {
                    for k in ["dense_cycles_per_sec", "active_cycles_per_sec"] {
                        if p.get(k).and_then(|x| x.as_f64()).is_none_or(|x| x <= 0.0) {
                            out.push(format!("`{fabric}[{i}].{k}` must be positive"));
                        }
                    }
                }
            }
            _ => out.push(format!("`{fabric}` must be an array of 3 points")),
        }
    }
}

fn inv_opt(v: &Value, out: &mut Vec<String>) {
    match v.get("programs").and_then(|a| a.as_arr()) {
        Some(progs) if !progs.is_empty() => {
            let mut saw_nafta = false;
            for p in progs {
                let name = p.get("program").and_then(|x| x.as_str()).unwrap_or("?");
                if p.get("bit_identical").and_then(|x| x.as_bool()) != Some(true) {
                    out.push(format!("program `{name}` is not bit-identical"));
                }
                if name == "nafta" {
                    saw_nafta = true;
                    if p.get("rewrites").and_then(|x| x.as_u64()).is_none_or(|r| r == 0) {
                        out.push("nafta must have rewrites > 0".to_string());
                    }
                }
            }
            if !saw_nafta {
                out.push("`programs` lacks the nafta entry".to_string());
            }
        }
        _ => out.push("`programs` must be a non-empty array".to_string()),
    }
}

fn inv_par(v: &Value, out: &mut Vec<String>) {
    require_true(v, "bit_identical", out);
    require_positive(v, "host_parallelism", out);
    match v.get("points").and_then(|a| a.as_arr()) {
        Some(pts) if pts.len() >= 3 => {
            if pts[0].get("threads").and_then(|x| x.as_u64()) != Some(1) {
                out.push("`points[0].threads` must be 1".to_string());
            }
            for (i, p) in pts.iter().enumerate() {
                if p.get("cycles_per_sec").and_then(|x| x.as_f64()).is_none_or(|x| x <= 0.0) {
                    out.push(format!("`points[{i}].cycles_per_sec` must be positive"));
                }
            }
        }
        _ => out.push("`points` must be an array of >= 3 thread counts".to_string()),
    }
    // the parallel speedup bar only applies where the binary itself
    // asserted it (real cores were available) — see E19's notes
    if v.get("speedup_asserted").and_then(|x| x.as_bool()) == Some(true)
        && num(v, "best_speedup").is_none_or(|s| s < 2.0)
    {
        out.push("`best_speedup` below 2.0 despite speedup_asserted".to_string());
    }
}

fn inv_trace(v: &Value, out: &mut Vec<String>) {
    require_positive(v, "events", out);
    require_positive(v, "jsonl_bytes", out);
    require_positive(v, "ftb_bytes", out);
    require_positive(v, "host_parallelism", out);
    require_positive(v, "decode_events_per_sec", out);
}

fn inv_detect(v: &Value, out: &mut Vec<String>) {
    // correctness half of E22: zero false positives on fault-free runs
    // and a live recovery story in every campaign arm — exact claims,
    // no noise band
    require_true(v, "false_positive_free", out);
    require_positive(v, "detection_latency_cycles", out);
    match v.get("grid").and_then(|g| g.as_arr()) {
        Some(pts) if !pts.is_empty() => {
            for (i, p) in pts.iter().enumerate() {
                if p.get("fault_free_alarms").and_then(|x| x.as_f64()) != Some(0.0) {
                    out.push(format!("`grid[{i}].fault_free_alarms` must be 0"));
                }
            }
        }
        _ => out.push("`grid` must be a non-empty array".into()),
    }
    match v.get("campaign").and_then(|c| c.get("arms")).and_then(|a| a.as_arr()) {
        Some(arms) if !arms.is_empty() => {
            for (i, a) in arms.iter().enumerate() {
                let flag =
                    |k: &str| a.get(k).and_then(|x| x.get("deadlock")).and_then(Value::as_bool);
                if flag("silent_nodetect") != Some(true) {
                    out.push(format!("`campaign.arms[{i}].silent_nodetect.deadlock` must be true"));
                }
                if flag("silent_detect") != Some(false) {
                    out.push(format!("`campaign.arms[{i}].silent_detect.deadlock` must be false"));
                }
            }
        }
        _ => out.push("`campaign.arms` must be a non-empty array".into()),
    }
}

/// Every gated benchmark artifact. The `regress` binary walks this
/// table; adding a benchmark to CI means adding a row here.
pub fn gates() -> &'static [Gate] {
    const STEP_METRICS: &[MetricSpec] = &[
        MetricSpec {
            path: "low_load_speedup",
            better: Better::Higher,
            bar: None,
            rel_tol: Some(0.20),
        },
        MetricSpec {
            path: "saturation_ratio",
            better: Better::Higher,
            bar: Some(0.85),
            rel_tol: None,
        },
    ];
    const OPT_METRICS: &[MetricSpec] = &[MetricSpec {
        path: "nafta_reduction_pct",
        better: Better::Higher,
        bar: Some(10.0),
        rel_tol: None,
    }];
    // E19 wall-clock numbers are machine-bound and noisy on shared
    // runners; its gate is invariant-only (bit-identity and shape)
    const TRACE_METRICS: &[MetricSpec] = &[
        MetricSpec { path: "size_ratio", better: Better::Higher, bar: Some(4.0), rel_tol: None },
        MetricSpec {
            path: "encode_speedup",
            better: Better::Higher,
            bar: Some(2.0),
            rel_tol: Some(0.5),
        },
    ];
    // E22 is cycle-deterministic (no wall clock in any gated number), so
    // the bars are tight: detection must beat the no-detection arm by a
    // wide margin, stay near the oracle, and alarm within the suspicion
    // window regardless of runner speed
    const DETECT_METRICS: &[MetricSpec] = &[
        MetricSpec {
            path: "campaign.worst_recovery_margin",
            better: Better::Higher,
            bar: Some(0.2),
            rel_tol: None,
        },
        MetricSpec {
            path: "campaign.worst_detect_delivery_ratio",
            better: Better::Higher,
            bar: Some(0.9),
            rel_tol: None,
        },
        MetricSpec {
            path: "detection_latency_cycles",
            better: Better::Lower,
            bar: Some(40.0),
            rel_tol: None,
        },
    ];
    &[
        Gate { file: "BENCH_step", experiment: "E17", invariants: inv_step, metrics: STEP_METRICS },
        Gate { file: "BENCH_opt", experiment: "E18", invariants: inv_opt, metrics: OPT_METRICS },
        Gate { file: "BENCH_par", experiment: "E19", invariants: inv_par, metrics: &[] },
        Gate {
            file: "BENCH_trace",
            experiment: "E21",
            invariants: inv_trace,
            metrics: TRACE_METRICS,
        },
        Gate {
            file: "BENCH_detect",
            experiment: "E22",
            invariants: inv_detect,
            metrics: DETECT_METRICS,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftr_obs::json;

    #[test]
    fn median_and_mad_are_robust_to_one_outlier() {
        let xs = [10.0, 11.0, 9.0, 10.5, 1000.0];
        assert_eq!(median(&xs), Some(10.5));
        let m = mad(&xs).unwrap();
        assert!(m <= 1.0, "MAD {m} must ignore the outlier");
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5), "even n averages the middle pair");
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn summarize_tracks_min_and_max() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.min, s.max, s.median), (3, 1.0, 3.0, 2.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn extract_handles_scalars_paths_and_rep_arrays() {
        let v = json::parse(r#"{"a":{"b":2.5},"reps":[1,2,3],"s":"x","mixed":[1,"y"]}"#).unwrap();
        assert_eq!(extract(&v, "a.b").unwrap(), vec![2.5]);
        assert_eq!(extract(&v, "reps").unwrap(), vec![1.0, 2.0, 3.0]);
        assert!(extract(&v, "missing").is_err());
        assert!(extract(&v, "s").is_err());
        assert!(extract(&v, "mixed").is_err(), "non-numeric arrays are rejected");
    }

    fn gate_for(file: &str) -> &'static Gate {
        gates().iter().find(|g| g.file == file).unwrap()
    }

    #[test]
    fn noise_band_passes_wobble_and_fails_collapse() {
        let gate = gate_for("BENCH_step");
        let spec = &gate.metrics[0]; // low_load_speedup, rel_tol 0.20
        let base = json::parse(r#"{"low_load_speedup":5.0}"#).unwrap();
        let wobble = json::parse(r#"{"low_load_speedup":4.2}"#).unwrap();
        let collapse = json::parse(r#"{"low_load_speedup":2.0}"#).unwrap();
        let mut out = Vec::new();
        check_metric(gate, spec, &wobble, &base, &mut out);
        assert!(out.is_empty(), "a 16% dip is inside the band: {out:?}");
        check_metric(gate, spec, &collapse, &base, &mut out);
        assert_eq!(out.len(), 1, "a 2.5x collapse must trip: {out:?}");
        assert!(out[0].contains("low_load_speedup"), "{out:?}");
    }

    #[test]
    fn rep_arrays_widen_the_band_by_mad() {
        let gate = gate_for("BENCH_trace");
        let spec = &gate.metrics[1]; // encode_speedup, bar 2.0, rel_tol 0.5
                                     // noisy baseline reps: median 6, MAD 1 → band 0.5·6 + 3·1 = 6
        let base = json::parse(r#"{"encode_speedup":[5.0,6.0,7.0]}"#).unwrap();
        let fresh_ok = json::parse(r#"{"encode_speedup":[2.5,3.0,2.8]}"#).unwrap();
        let mut out = Vec::new();
        check_metric(gate, spec, &fresh_ok, &base, &mut out);
        assert!(out.is_empty(), "inside the MAD-widened band: {out:?}");
        // below the absolute bar regardless of the band
        let fresh_bad = json::parse(r#"{"encode_speedup":[1.2,1.1,1.3]}"#).unwrap();
        check_metric(gate, spec, &fresh_bad, &base, &mut out);
        assert!(out.iter().any(|e| e.contains("absolute bar")), "{out:?}");
    }

    #[test]
    fn lower_is_better_uses_min_of_k() {
        let spec =
            MetricSpec { path: "ns", better: Better::Lower, bar: Some(100.0), rel_tol: None };
        let gate = gate_for("BENCH_detect"); // any gate works; only file name is used
        let fresh = json::parse(r#"{"ns":[250.0,90.0,300.0]}"#).unwrap();
        let base = json::parse(r#"{"ns":[95.0]}"#).unwrap();
        let mut out = Vec::new();
        check_metric(gate, &spec, &fresh, &base, &mut out);
        assert!(out.is_empty(), "min-of-k 90 meets the 100 ceiling: {out:?}");
    }

    #[test]
    fn invariants_catch_experiment_and_bit_identity() {
        let gate = gate_for("BENCH_opt");
        let good = json::parse(
            r#"{"experiment":"E18","programs":[
                {"program":"nafta","rewrites":3,"bit_identical":true}]}"#,
        )
        .unwrap();
        let mut out = Vec::new();
        check_invariants(gate, "baseline", &good, &mut out);
        assert!(out.is_empty(), "{out:?}");

        let bad = json::parse(
            r#"{"experiment":"E18","programs":[
                {"program":"nafta","rewrites":0,"bit_identical":false}]}"#,
        )
        .unwrap();
        check_invariants(gate, "fresh", &bad, &mut out);
        assert!(out.iter().any(|e| e.contains("bit-identical")), "{out:?}");
        assert!(out.iter().any(|e| e.contains("rewrites")), "{out:?}");

        let wrong = json::parse(r#"{"experiment":"E99"}"#).unwrap();
        out.clear();
        check_invariants(gate, "fresh", &wrong, &mut out);
        assert!(out.iter().any(|e| e.contains("E18")), "{out:?}");
    }

    #[test]
    fn committed_baselines_satisfy_their_own_invariants() {
        // the real results/ tree must stay green under the gate table
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for gate in gates() {
            let path = root.join("results").join(format!("{}.json", gate.file));
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue; // baseline not generated yet (fresh checkout stages)
            };
            let v = ftr_obs::json::parse(&text).unwrap();
            let mut out = Vec::new();
            check_invariants(gate, "baseline", &v, &mut out);
            assert!(out.is_empty(), "{}: {out:?}", path.display());
        }
    }
}
