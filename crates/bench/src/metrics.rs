//! Latency observability primitives: allocation-free log₂-bucketed
//! histograms, a lock-free shared variant for hot paths, and saturating
//! `Duration` casts.
//!
//! The serving layer ([`crate::server`]) and the throughput engine
//! ([`crate::throughput`]) both need tail-latency numbers (p50/p90/p99/
//! p99.9) without perturbing the paths they measure. The design contract:
//!
//! * **Allocation-free recording.** A [`LatencyHistogram`] is a fixed
//!   `[u64; 64]` of power-of-two buckets plus count/sum/max — no heap, no
//!   resizing, `Copy`. Bucket `0` holds the value `0`; bucket `i` (for
//!   `1 ≤ i ≤ 62`) holds `[2^(i−1), 2^i − 1]`; bucket `63` holds
//!   everything from `2^62` up to `u64::MAX`.
//! * **No locks on the hot path.** [`SharedHistogram`] is the same shape
//!   over `AtomicU64`s: workers record with relaxed `fetch_add`/`fetch_max`
//!   and readers take racy-but-monotone [`SharedHistogram::snapshot`]s.
//!   Per-worker `LatencyHistogram`s merge with [`LatencyHistogram::merge`]
//!   after the workers join — counts are exactly additive.
//! * **Saturating casts.** `Duration::as_millis()` and friends return
//!   `u128`; a raw `as u64` cast silently truncates pathological
//!   durations. [`millis_u64`] / [`micros_u64`] / [`nanos_u64`] saturate
//!   instead, so a nonsense clock reading can at worst pin a statistic at
//!   `u64::MAX`, never wrap it to a small lie.
//!
//! Values are unitless `u64`s; both consumers record **nanoseconds** and
//! report quantiles in microseconds. Quantiles return the *upper bound* of
//! the bucket containing the requested rank, clamped to the recorded max —
//! a conservative (never under-reporting) estimate that is monotone in `q`
//! by construction and never exceeds the largest observation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Bucket count of [`LatencyHistogram`]: one per possible bit length of a
/// `u64` value, plus the dedicated zero bucket folded into index 0.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Saturating `Duration` → milliseconds. Never truncates: durations past
/// `u64::MAX` milliseconds (≈ 584 million years) pin at `u64::MAX`.
pub fn millis_u64(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

/// Saturating `Duration` → microseconds (see [`millis_u64`]).
pub fn micros_u64(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Saturating `Duration` → nanoseconds (see [`millis_u64`]). This is the
/// recording unit of the serving and throughput histograms.
pub fn nanos_u64(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The bucket index a value lands in: `0` for `0`, otherwise the value's
/// bit length clamped to the last bucket.
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Inclusive upper bound of bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        i if i >= HISTOGRAM_BUCKETS - 1 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// An allocation-free log₂-bucketed histogram of `u64` values.
///
/// `Copy`, mergeable, and exact in its counts: `merge(a, b)` has precisely
/// the per-bucket sums of `a` and `b` (saturating only at `u64::MAX`
/// observations per bucket). See the module docs for the bucket scheme.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// The empty histogram.
    pub const fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] =
            self.buckets[bucket_of(value)].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`: bucket counts are exactly additive.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of every recorded value.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (`0` when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values, rounded down (`0` when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.sum / self.count
        }
    }

    /// The raw bucket counts (index per [`bucket_of`]).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// The `q`-quantile (`q ∈ [0, 1]`, clamped): the upper bound of the
    /// bucket containing the `⌈q·count⌉`-th smallest observation, capped at
    /// [`LatencyHistogram::max`]. The estimate never under-reports, never
    /// exceeds the largest observation, and is monotone in `q`. `0` when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ⌈q·count⌉ as a rank in 1..=count; q = 0 still needs rank 1.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b);
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        // Unreachable while count equals the bucket sum; saturated counts
        // degrade to the largest occupied bound rather than panicking.
        self.max
    }
}

/// The lock-free shared twin of [`LatencyHistogram`]: relaxed atomic
/// recording for concurrent hot paths, racy-but-monotone snapshots for
/// reporting. A snapshot taken while writers are active may be mid-update
/// (its `count`/`sum`/`max` are loaded independently of the buckets), but
/// every completed `record` is eventually visible and nothing is lost.
#[derive(Debug)]
pub struct SharedHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for SharedHistogram {
    fn default() -> SharedHistogram {
        SharedHistogram::new()
    }
}

impl SharedHistogram {
    /// The empty shared histogram.
    pub fn new() -> SharedHistogram {
        SharedHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Saturating atomic add, matching [`LatencyHistogram`]'s overflow
    /// semantics (a plain `fetch_add` would wrap the running sum).
    fn saturating_fetch_add(cell: &AtomicU64, value: u64) {
        if value == 0 {
            return;
        }
        let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_add(value))
        });
    }

    /// Records one observation — relaxed atomic adds and a `fetch_max`,
    /// no locks, no allocation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        SharedHistogram::saturating_fetch_add(&self.sum, value);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a whole pre-aggregated histogram (one atomic add per
    /// occupied bucket) — how per-worker locals merge in without a lock.
    pub fn merge(&self, local: &LatencyHistogram) {
        for (shared, &n) in self.buckets.iter().zip(local.buckets()) {
            if n > 0 {
                shared.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(local.count(), Ordering::Relaxed);
        SharedHistogram::saturating_fetch_add(&self.sum, local.sum());
        self.max.fetch_max(local.max(), Ordering::Relaxed);
    }

    /// A value snapshot for quantile math. The `count` is recomputed from
    /// the bucket loads so the snapshot is always internally consistent
    /// (quantile ranks can never point past the bucket mass).
    pub fn snapshot(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        let mut count = 0u64;
        for (b, shared) in h.buckets.iter_mut().zip(&self.buckets) {
            *b = shared.load(Ordering::Relaxed);
            count = count.saturating_add(*b);
        }
        h.count = count;
        h.sum = self.sum.load(Ordering::Relaxed);
        h.max = self.max.load(Ordering::Relaxed);
        h
    }
}

/// Per-stage histogram snapshot of one serve: where a request's wall-clock
/// went. All values are recorded in nanoseconds; see
/// [`crate::server::ServeReport`] for the stage semantics.
#[derive(Copy, Clone, Default, Debug)]
pub struct StageSnapshot {
    /// Submission → popped by a worker (includes any linger wait).
    pub queue: LatencyHistogram,
    /// Per batch: oldest member's submission → dispatch (how long the
    /// plane lingered accumulating lanes).
    pub coalesce: LatencyHistogram,
    /// Per batch: row assembly + plane packing ([`mcs_logic::TritBlock`]).
    pub pack: LatencyHistogram,
    /// Per batch: the compiled-tape evaluation itself.
    pub eval: LatencyHistogram,
    /// Response handed to the writer → written (re-sequencing wait + I/O).
    pub write: LatencyHistogram,
    /// Submission → response written: the end-to-end request latency.
    pub e2e: LatencyHistogram,
}

impl StageSnapshot {
    /// The stages in canonical report order, with their wire names.
    pub fn stages(&self) -> [(&'static str, &LatencyHistogram); 6] {
        [
            ("queue", &self.queue),
            ("coalesce", &self.coalesce),
            ("pack", &self.pack),
            ("eval", &self.eval),
            ("write", &self.write),
            ("e2e", &self.e2e),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bucket boundaries the scheme promises: 0 is alone in bucket 0,
    /// each power of two opens a new bucket, and `u64::MAX` lands in the
    /// last one.
    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        for k in 1..63usize {
            let pow = 1u64 << k;
            assert_eq!(bucket_of(pow - 1), k, "2^{k}-1");
            assert_eq!(bucket_of(pow), (k + 1).min(63), "2^{k}");
        }
        assert_eq!(bucket_of(u64::MAX), 63);
        // Bounds bracket their bucket and tile the axis.
        for i in 0..HISTOGRAM_BUCKETS {
            assert!(bucket_lower(i) <= bucket_upper(i), "bucket {i}");
            if i > 0 {
                assert_eq!(
                    bucket_lower(i),
                    bucket_upper(i - 1).saturating_add(1).max(1),
                    "bucket {i} lower bound"
                );
            }
        }
        assert_eq!(bucket_upper(63), u64::MAX);
    }

    #[test]
    fn saturating_duration_casts() {
        assert_eq!(millis_u64(Duration::from_millis(5)), 5);
        assert_eq!(micros_u64(Duration::from_micros(7)), 7);
        assert_eq!(nanos_u64(Duration::from_nanos(9)), 9);
        // Exactly at the u64 boundary: exact.
        assert_eq!(millis_u64(Duration::from_millis(u64::MAX)), u64::MAX);
        // Past it: saturate, never truncate. `Duration::MAX` in millis is
        // ~2^74 — a raw `as u64` would wrap it to a small number.
        assert_eq!(millis_u64(Duration::MAX), u64::MAX);
        assert_eq!(micros_u64(Duration::MAX), u64::MAX);
        assert_eq!(nanos_u64(Duration::MAX), u64::MAX);
        assert_eq!(nanos_u64(Duration::from_secs(u64::MAX)), u64::MAX);
    }

    #[test]
    fn quantiles_of_a_known_distribution() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1107);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 158);
        // rank 1 of 7 → the zero bucket.
        assert_eq!(h.quantile(0.0), 0);
        // rank 4 of 7 → bucket of 2..=3.
        assert_eq!(h.quantile(0.5), 3);
        // rank 7 of 7 → bucket of 512..=1023, capped at the max.
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.quantile(0.999), 1000);
    }

    #[test]
    fn quantiles_never_exceed_the_recorded_max() {
        // 1298 lands in the 1024..=2047 bucket; its upper bound must not
        // leak out as a p99 above the max.
        let mut h = LatencyHistogram::new();
        h.record(1298);
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert!(h.quantile(q) <= h.max(), "q={q}: {}", h.quantile(q));
        }
        assert_eq!(h.quantile(0.99), 1298);
        assert_eq!(h.mean(), 1298);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
    }

    #[test]
    fn shared_histogram_matches_serial_recording() {
        let shared = SharedHistogram::new();
        let mut serial = LatencyHistogram::new();
        for v in [0u64, 1, 63, 64, 65, 1 << 40, u64::MAX] {
            shared.record(v);
            serial.record(v);
        }
        assert_eq!(shared.snapshot(), serial);
        // merge() of a local is equivalent to recording its values.
        let shared2 = SharedHistogram::new();
        shared2.merge(&serial);
        assert_eq!(shared2.snapshot(), serial);
    }

    fn hist_of(values: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    proptest! {
        /// merge(a, b) carries exactly counts(a) + counts(b), bucket by
        /// bucket — and equals recording the concatenation.
        #[test]
        fn prop_merge_counts_are_additive(
            a in proptest::collection::vec(0u64..u64::MAX, 0..200),
            b in proptest::collection::vec(0u64..u64::MAX, 0..200),
        ) {
            let (ha, hb) = (hist_of(&a), hist_of(&b));
            let mut merged = ha;
            merged.merge(&hb);
            for i in 0..HISTOGRAM_BUCKETS {
                prop_assert_eq!(
                    merged.buckets()[i],
                    ha.buckets()[i] + hb.buckets()[i],
                    "bucket {}", i
                );
            }
            prop_assert_eq!(merged.count(), (a.len() + b.len()) as u64);
            let mut both = a.clone();
            both.extend_from_slice(&b);
            prop_assert_eq!(merged, hist_of(&both));
        }

        /// quantile is monotone in q (sampled in permille — the vendored
        /// proptest has no float strategies).
        #[test]
        fn prop_quantile_monotone_in_q(
            values in proptest::collection::vec(0u64..u64::MAX, 1..200),
            qa in 0u64..=1000,
            qb in 0u64..=1000,
        ) {
            let h = hist_of(&values);
            let (qa, qb) = (qa as f64 / 1000.0, qb as f64 / 1000.0);
            let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
            prop_assert!(h.quantile(lo) <= h.quantile(hi));
            // Extremes bracket everything in between.
            prop_assert!(h.quantile(0.0) <= h.quantile(lo));
            prop_assert!(h.quantile(hi) <= h.quantile(1.0));
            // No quantile exceeds the largest observation.
            prop_assert!(h.quantile(1.0) <= h.max());
        }

        /// A recorded value always lands inside its own bucket's bounds,
        /// and recording increments exactly that bucket.
        #[test]
        fn prop_recorded_value_lands_in_its_bucket(v in 0u64..u64::MAX) {
            let i = bucket_of(v);
            prop_assert!(bucket_lower(i) <= v, "lower({}) > {}", i, v);
            prop_assert!(v <= bucket_upper(i), "upper({}) < {}", i, v);
            let mut h = LatencyHistogram::new();
            h.record(v);
            for (j, &b) in h.buckets().iter().enumerate() {
                prop_assert_eq!(b, u64::from(j == i), "bucket {}", j);
            }
            // The single observation is its own every-quantile: its
            // bucket's upper bound, capped at the value itself.
            prop_assert_eq!(h.quantile(0.5), v);
        }
    }
}
