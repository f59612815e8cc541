//! Result bookkeeping: raw-sample statistics, the metric table, the
//! environment line and the final JSON line.

/// Median of a sample (mean of the middle pair for even counts); `0.0`
/// for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The fast end of repeated timings of one piece of work: their 5th
/// percentile (nearest rank). Co-tenant contention on a shared host only
/// ever slows a repetition, so this is the figure the code reaches when
/// the host leaves it alone, and it moves far less from run to run than
/// the median. `0.0` for an empty sample.
pub fn fast_time(times: &[f64]) -> f64 {
    nearest_rank(times, 0.05)
}

/// The fast end of repeated rate measurements: their 95th percentile
/// (see [`fast_time`]).
pub fn fast_rate(rates: &[f64]) -> f64 {
    nearest_rank(rates, 0.95)
}

fn nearest_rank(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    v[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
}

/// Nearest-rank quantile of raw samples, or `None` when fewer than ten
/// samples lie beyond it (such a percentile is not supported by the
/// sample and is never reported).
pub fn quantile(sorted: &[u32], q: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < 10 && q > 0.5 {
        return None;
    }
    Some(u64::from(sorted[rank - 1]))
}

/// Summary of raw latency samples in nanoseconds, sorted once. Samples
/// are `u32` (saturating at about 4.29 s), so a run's harness memory stays
/// small beside the server's.
#[derive(Clone, Debug, Default)]
pub struct LatencySummary {
    /// Samples summarised.
    pub count: usize,
    /// Median.
    pub p50_ns: u64,
    /// 99th percentile, when the sample supports it.
    pub p99_ns: Option<u64>,
    /// Largest sample.
    pub max_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: f64,
}

impl LatencySummary {
    /// Summarises `samples` (reordered in place).
    pub fn of(samples: &mut [u32]) -> LatencySummary {
        samples.sort_unstable();
        let count = samples.len();
        let sum: u128 = samples.iter().map(|&s| u128::from(s)).sum();
        LatencySummary {
            count,
            p50_ns: quantile(samples, 0.5).unwrap_or(0),
            p99_ns: quantile(samples, 0.99),
            max_ns: samples.last().copied().map_or(0, u64::from),
            mean_ns: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
        }
    }

    /// Human form: `p50/p99/max µs (n samples)`, with `p99=n/a` when the
    /// sample cannot support it.
    pub fn describe(&self) -> String {
        let us = |ns: u64| ns as f64 / 1e3;
        let p99 = self
            .p99_ns
            .map_or_else(|| "n/a".to_string(), |p| format!("{:.1}", us(p)));
        format!(
            "p50={:.1}us p99={p99}us max={:.1}us mean={:.1}us n={}",
            us(self.p50_ns),
            us(self.max_ns),
            self.mean_ns / 1e3,
            self.count
        )
    }
}

/// FNV-1a digest of `bytes`.
pub fn digest(bytes: &[u8]) -> u64 {
    digest_more(DIGEST_START, bytes)
}

/// FNV-1a offset basis: the digest of no bytes.
pub const DIGEST_START: u64 = 0xCBF2_9CE4_8422_2325;

/// Continues digest `h` over `bytes`, so a stream can be digested piece
/// by piece: `digest_more(digest(a), b) == digest(a ++ b)`.
pub fn digest_more(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Nanoseconds of a duration as a latency sample (saturating).
pub fn sample_ns(d: std::time::Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine and configuration a result was measured under, so rows
/// from different kernels or machines are never compared.
pub fn environment_line(workload: &str, seed: u64, kernel: &str, plane_width: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env_kernel =
        std::env::var(mcs_logic::plane::kernel::ENV_VAR).unwrap_or_else(|_| "unset".into());
    format!(
        "env workload={workload} seed={seed} kernel={kernel} plane_width={plane_width} \
         nproc={nproc} MCS_KERNEL={env_kernel} cpu=\"{cpu}\""
    )
}

/// One named metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Checked operations (stream jobs, or requests sent).
    pub attempted: u64,
    /// Operations whose output did not match the reference.
    pub failed: u64,
    /// Digest of the workload's input bytes (or of the parameters they
    /// are a pure function of); equal in traced and untraced runs.
    pub workload_digest: u64,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Value of a metric already pushed.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The human metric table, one `name value unit` line each.
    pub fn table(&self) -> String {
        self.metrics
            .iter()
            .map(|m| {
                let v = if m.value != 0.0 && m.value.abs() < 0.01 {
                    format!("{:.4e}", m.value)
                } else {
                    format!("{:.4}", m.value)
                };
                format!("  {:<38} {v:>18} {}\n", m.name, m.unit)
            })
            .collect()
    }

    /// The final JSON line with only the `keep` metrics, in their order.
    pub fn json(&self, keep: &[&str]) -> String {
        let metrics: Vec<String> = keep
            .iter()
            .filter_map(|name| self.metrics.iter().find(|m| m.name == *name))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives;
/// non-finite values (never expected) become `0`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_never_exceeds_max_and_needs_ten_samples_beyond() {
        let mut small: Vec<u32> = (1..=999).collect();
        let s = LatencySummary::of(&mut small);
        assert_eq!(s.p99_ns, None, "999 samples leave 9 beyond p99");
        let mut samples: Vec<u32> = (0..5000u32).map(|i| (i * 7919) % 10007).collect();
        let s = LatencySummary::of(&mut samples);
        let p99 = s.p99_ns.expect("5000 samples support p99");
        assert!(p99 <= s.max_ns);
        assert!(s.p50_ns <= p99);
        assert_eq!(s.count, 5000);
    }

    #[test]
    fn fast_end_is_the_fast_twentieth() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(fast_time(&v), 2.0);
        assert_eq!(fast_rate(&v), 38.0);
        assert_eq!(fast_rate(&[5.0, 1.0, 3.0]), 5.0);
        assert_eq!(fast_time(&[]), 0.0);
    }

    #[test]
    fn digest_continues_across_pieces() {
        assert_eq!(
            digest_more(digest(b"sort 1"), b" ab\n"),
            digest(b"sort 1 ab\n")
        );
        assert_eq!(digest(b""), DIGEST_START);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_line_keeps_only_the_named_metrics() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.push("a", 1.25, "s");
        r.push("b", 2.0, "ms");
        let line = r.json(&["b"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"b\": {\"value\": 2.0, \"unit\": \"ms\"}}}"
        );
    }
}
