//! Observability: per-stage latency accounting of one serve.

use std::sync::atomic::{AtomicU64, Ordering};

use mcs_logic::plane::kernel::KernelId;

use crate::json::JsonWriter;
use crate::metrics::{LatencyHistogram, SharedHistogram, StageSnapshot};

/// Schema tag of the [`stats_json`] document and the `stats` wire line.
/// Bump on any backwards-incompatible field change (see README,
/// "Observability").
pub const STATS_SCHEMA: &str = "mcs-serverstats-v1";

/// Live, lock-free serving statistics shared by the reader(s), workers and
/// writer(s) of one serve. Recording is relaxed atomics only — no mutex on
/// any hot path — and [`ServerStats::snapshot`] folds everything into a
/// plain [`ServeReport`] at any time (mid-serve snapshots are racy but
/// internally consistent per histogram).
///
/// All histograms record **nanoseconds**.
#[derive(Debug)]
pub struct ServerStats {
    served: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
    workers: usize,
    kernel: KernelId,
    pub(super) queue: SharedHistogram,
    pub(super) coalesce: SharedHistogram,
    pub(super) pack: SharedHistogram,
    pub(super) eval: SharedHistogram,
    pub(super) write: SharedHistogram,
    pub(super) e2e: SharedHistogram,
}

impl ServerStats {
    /// Fresh counters for a serve running `workers` worker threads through
    /// the `kernel` backend.
    pub fn new(workers: usize, kernel: KernelId) -> ServerStats {
        ServerStats {
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            workers,
            kernel,
            queue: SharedHistogram::new(),
            coalesce: SharedHistogram::new(),
            pack: SharedHistogram::new(),
            eval: SharedHistogram::new(),
            write: SharedHistogram::new(),
            e2e: SharedHistogram::new(),
        }
    }

    pub(super) fn add_served(&self, requests: usize) {
        self.served.fetch_add(requests as u64, Ordering::Relaxed);
    }

    pub(super) fn add_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn add_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds the live counters into a value report.
    pub fn snapshot(&self) -> ServeReport {
        ServeReport {
            served: self.served.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            workers: self.workers,
            kernel: self.kernel,
            stages: StageSnapshot {
                queue: self.queue.snapshot(),
                coalesce: self.coalesce.snapshot(),
                pack: self.pack.snapshot(),
                eval: self.eval.snapshot(),
                write: self.write.snapshot(),
                e2e: self.e2e.snapshot(),
            },
        }
    }
}

/// The three wire quantiles plus tail and max of one stage, in
/// microseconds, as `p50/p90/p99/p99.9/max`.
fn stage_us(h: &LatencyHistogram) -> String {
    let us = |ns: u64| ns / 1_000;
    format!(
        "{}/{}/{}/{}/{}",
        us(h.quantile(0.50)),
        us(h.quantile(0.90)),
        us(h.quantile(0.99)),
        us(h.quantile(0.999)),
        us(h.max())
    )
}

/// Formats the single-line `stats` response: schema tag, counters, then
/// `<stage>_us=p50/p90/p99/p99.9/max` for every stage of
/// [`StageSnapshot::stages`]. The numbers are timings — **not** covered by
/// the determinism contract (everything else on the wire is).
pub fn format_stats_line(id: &str, report: &ServeReport) -> String {
    let mut line = format!(
        "stats {id} schema={STATS_SCHEMA} served={} rejected={} batches={} \
         workers={} kernel={}",
        report.served, report.rejected, report.batches, report.workers, report.kernel
    );
    for (name, h) in report.stages.stages() {
        line.push_str(&format!(" {name}_us={}", stage_us(h)));
    }
    line
}

/// Serialises a report as the versioned `mcs-serverstats-v1` JSON document
/// (`sort_server --stats-json`).
pub fn stats_json(report: &ServeReport) -> String {
    let us = |ns: u64| ns / 1_000;
    let mut w = JsonWriter::new();
    w.string("schema", STATS_SCHEMA)
        .raw("served", report.served)
        .raw("rejected", report.rejected)
        .raw("batches", report.batches)
        .raw("workers", report.workers)
        // Additive field (schema stays v1): the kernel backend that
        // evaluated every batch of this serve.
        .string("kernel", report.kernel.name())
        .open(Some("stages"), '{');
    for (name, h) in report.stages.stages() {
        w.open(Some(name), '{')
            .raw("count", h.count())
            .raw("p50_us", us(h.quantile(0.50)))
            .raw("p90_us", us(h.quantile(0.90)))
            .raw("p99_us", us(h.quantile(0.99)))
            .raw("p999_us", us(h.quantile(0.999)))
            .raw("max_us", us(h.max()))
            .raw("mean_us", us(h.mean()))
            .close('}');
    }
    w.close('}');
    w.finish()
}

/// End-of-serve accounting, printed by the bin on exit. Also the payload
/// of a mid-serve [`ServerStats::snapshot`], answering `stats` frames.
#[derive(Clone, Default, Debug)]
pub struct ServeReport {
    /// Frames that parsed as sort requests and were served `ok`.
    pub served: u64,
    /// Frames rejected with a typed `err` response.
    pub rejected: u64,
    /// Plane dispatches (batches popped by workers).
    pub batches: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Kernel backend every batch was evaluated through.
    pub kernel: KernelId,
    /// Per-stage latency histograms (nanoseconds).
    pub stages: StageSnapshot,
}
