//! Run header, correctness checks, the stats digest and the result line.

use ftr_sim::SimStats;
use std::fmt::Write as _;

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in the order they are reported.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
}

/// Correctness checks of one invocation. A failed check fails the whole
/// benchmark run; none of them becomes a metric.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
    passed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what());
        }
    }

    pub fn passed(&self) -> u64 {
        self.passed
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Checks every run of every workload makes at its end.
pub fn end_checks(ck: &mut Checks, what: &str, s: &SimStats, drained: bool) {
    ck.check(s.accounting_balanced(), || format!("{what}: message accounting out of balance"));
    ck.check(!s.deadlock, || format!("{what}: watchdog reported deadlock"));
    ck.check(drained, || format!("{what}: network did not drain within budget"));
}

/// FNV-1a over the behavioural fields of [`SimStats`]: equal digests on
/// two commits mean the simulated outcome did not change. Taken after
/// drain, so the in-flight bookkeeping is empty and left out.
pub fn stats_digest(s: &SimStats, cycle: u64, h: &mut u64) {
    let accum = |a: &ftr_sim::Accum| [a.count, a.sum, a.min, a.max];
    let mut words = vec![
        cycle,
        s.injected_msgs,
        s.delivered_msgs,
        s.measured_delivered,
        s.measured_flits,
        s.killed_msgs,
        s.unroutable_msgs,
        s.retried_msgs,
        s.abandoned_msgs,
        s.rejected_sends,
        s.flits_dropped_on_dead_link,
        s.excess_hops,
        s.control_msgs,
        s.control_dropped,
        u64::from(s.deadlock),
        s.measured_cycles,
        s.num_nodes as u64,
    ];
    for a in [&s.latency, &s.hops, &s.latency_direct, &s.latency_detoured, &s.decision_steps] {
        words.extend(accum(a));
    }
    for w in words {
        for b in w.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// FNV-1a offset basis.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The checkout's git revision, read from `.git` inside the working
/// directory only (no `git` process, no search of parent directories).
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else { return head };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{r}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines().find(|l| l.ends_with(r)).and_then(|l| l.split(' ').next()).map(String::from)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Linear-interpolated percentile `p` (0..=1) of `xs`, sorted in place.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    xs.sort_by(|a, b| a.total_cmp(b));
    let pos = p * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Host-time samples with the host-speed scale measured around each.
#[derive(Default)]
pub struct Samples {
    raw: Vec<f64>,
    scale: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, raw: f64, scale: f64) {
        self.raw.push(raw);
        self.scale.push(scale);
    }

    /// Sum of the samples corrected for host speed.
    pub fn corrected_sum(&self) -> f64 {
        self.corrected().iter().sum()
    }

    /// Sum of the raw samples.
    pub fn raw_sum(&self) -> f64 {
        self.raw.iter().sum()
    }

    /// The last sample, raw.
    pub fn last_raw(&self) -> f64 {
        self.raw.last().copied().unwrap_or(0.0)
    }

    /// The last sample corrected for host speed.
    pub fn last_corrected(&self) -> f64 {
        self.raw.last().zip(self.scale.last()).map_or(0.0, |(r, s)| r * s)
    }

    fn corrected(&self) -> Vec<f64> {
        self.raw.iter().zip(&self.scale).map(|(r, s)| r * s).collect()
    }
}

const TIMING: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("runs_per_s", "1/s"),
    ("run_ms_p50", "ms"),
    ("run_ms_p90", "ms"),
];

fn timing(setup_s: &[f64], run_ms: &[f64], whole_ms: &[f64], cycles: u64) -> [f64; 5] {
    let (mut setup, mut runs) = (setup_s.to_vec(), run_ms.to_vec());
    let run_s = runs.iter().sum::<f64>() / 1e3;
    let whole_s = whole_ms.iter().sum::<f64>() / 1e3;
    [
        percentile(&mut setup, 0.5),
        cycles as f64 / run_s,
        whole_ms.len() as f64 / whole_s,
        percentile(&mut runs, 0.5),
        percentile(&mut runs, 0.9),
    ]
}

/// The five host-time end-to-end metrics, corrected to the sizing host's
/// speed (see `hostref`): `setup_s` from set-up times (s), the cycle rate
/// and the run-time percentiles from run times (ms) that cover `cycles`
/// simulated cycles, and `runs_per_s` from whole-run times (ms). Prints
/// the uncorrected values on a `raw:` line.
pub fn host_time_metrics(
    m: &mut Metrics,
    setup_s: &Samples,
    run_ms: &Samples,
    whole_ms: &Samples,
    cycles: u64,
) {
    let fixed = timing(&setup_s.corrected(), &run_ms.corrected(), &whole_ms.corrected(), cycles);
    let raw = timing(&setup_s.raw, &run_ms.raw, &whole_ms.raw, cycles);
    let mut line = String::from("raw:");
    for ((name, unit), (v, r)) in TIMING.into_iter().zip(fixed.into_iter().zip(raw)) {
        m.put(name, v, unit);
        let _ = write!(line, " {name}={r}");
    }
    let mut scale = run_ms.scale.clone();
    println!("{line} host_scale_p50={}", percentile(&mut scale, 0.5));
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, x) in m.0.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", x.name, x.value, x.unit);
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&mut xs, 0.5), 3.0);
        assert!((percentile(&mut xs, 0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
