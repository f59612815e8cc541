//! `sort_server`: a batching, backpressured serving layer over the
//! throughput engine — certified MC sorting circuits as a request/response
//! service.
//!
//! The PR 7 engine streams a fixed synthetic workload; this module serves
//! *traffic*: framed batches of valid strings arrive on stdin or a
//! localhost TCP socket, are sorted through a compiled [`EvalTape`] with a
//! per-connection reusable [`TapeScratch`], and come back as sorted
//! batches. Three production concerns are first-class:
//!
//! * **Request coalescing.** Each request is one lane. Small concurrent
//!   requests are packed into shared plane words — the [`CoalescerQueue`]
//!   holds arrivals until a full `max_batch`-lane plane is ready (64 lanes
//!   per plane word, [`PlaneWidth`] words per pass) or the oldest pending
//!   request has lingered for `max_linger`, whichever is first, so latency
//!   stays bounded while throughput approaches the engine's streaming rate.
//! * **Backpressure.** The inbound queue is bounded (`queue_depth`
//!   requests). Socket traffic beyond the bound is *rejected* with a typed
//!   `overloaded` response carrying a retry hint — never buffered without
//!   limit. The stdin pipe blocks the producer instead (classic pipe
//!   backpressure), so batch files of any size stream through safely.
//! * **Determinism.** Per-request results are independent of batch
//!   packing, worker count and plane width — each lane's output depends
//!   only on that lane, workers drain whole batches, and every response is
//!   re-sequenced into per-connection request order before it is written.
//!   `cat requests | sort_server` is byte-identical across 1/2/4/8 workers
//!   and plane widths 1/4/8; the `server` test suite pins this against
//!   serial [`Netlist::eval_block`].
//!
//! Robustness is typed end to end: malformed frames, invalid strings,
//! oversized requests, overload, timeouts and shutdown are all
//! [`FrameError`] responses on the wire ([`ServerError`] covers setup and
//! I/O), and the serving loop itself never panics on input.
//!
//! # Observability
//!
//! Every request is stamped with per-stage monotonic timings — queue wait,
//! coalesce/linger, plane pack, tape eval, re-sequence/write, end-to-end —
//! aggregated into allocation-free log₂-bucketed [`LatencyHistogram`]s
//! (lock-free relaxed atomics on the hot path, see [`crate::metrics`]).
//! The aggregates surface three ways: the extended [`ServeReport`] returned
//! by [`serve_lines`]/[`serve_tcp`], a live `stats` control frame on the
//! wire, and the versioned [`stats_json`] blob (`mcs-serverstats-v1`) the
//! `sort_server` bin dumps via `--stats-json`. Timing is **observational
//! only**: responses carry no timestamps, so the byte-identical determinism
//! contract above is untouched.
//!
//! # Frame protocol
//!
//! Line-oriented text, one frame per line:
//!
//! ```text
//! sort <id> <key> [<key> ...]     request: up to `channels` valid strings
//! stats [<id>]                    live latency/stage statistics snapshot
//! shutdown [<id>]                 drain pending requests, then exit
//! # anything                      comment, ignored (as are blank lines)
//! ```
//!
//! Keys are valid strings of the server's width `B` over `{0, 1, M}`
//! (e.g. `0M10`), MSB first. A request may carry fewer than `channels`
//! keys — the free channels are padded with the maximum valid string, so
//! the first `k` outputs are exactly the `k` requested keys in ascending
//! order. Responses (one line per request, in per-connection request
//! order):
//!
//! ```text
//! ok <id> <key> [<key> ...]       the keys, sorted ascending
//! err <id> <code> <detail>        typed rejection, request not served
//! ```
//!
//! A `stats` frame answers with a single `stats <id> …` line (see
//! [`format_stats_line`]); everything else answers `ok`/`err`. Error
//! codes: `malformed`, `empty`, `too-many-keys`, `bad-key`,
//! `oversized`, `overloaded` (carries `retry-ms=<n>`), `timeout`,
//! `shutting-down`, `internal`. The `<id>` is an opaque client token
//! echoed back verbatim (`-` when a frame is too malformed to carry one).

use std::collections::BinaryHeap;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Condvar, LockResult, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::metrics::{
    millis_u64, nanos_u64, LatencyHistogram, SharedHistogram, StageSnapshot,
};

use mcs_gray::ValidString;
use mcs_logic::plane::kernel::{self, KernelId, UnknownKernel};
use mcs_logic::{PlaneWidth, Trit, TritBlock, TritVec};
use mcs_netlist::{EvalTape, Netlist, TapeScratch};
use mcs_networks::circuit::{build_sorting_circuit, TwoSortFlavor};
use mcs_networks::verify::zero_one_verify;

use crate::throughput::{cell_network, MAX_WIDTH};
use crate::verify::{zero_one_circuit_check, CircuitVerifyError, MAX_CHECK_CHANNELS};

/// Serving knobs. Everything latency/throughput-relevant is explicit so
/// tests (and operators) can pin the exact coalescing behaviour.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Channel count `n` of the sorting circuit (max keys per request).
    pub channels: usize,
    /// Bits per key `B` (1 ..= [`MAX_WIDTH`]).
    pub width: usize,
    /// Worker threads draining the queue; `0` means one per core.
    pub workers: usize,
    /// Plane width of each tape pass (64 lanes per plane word).
    pub plane_width: PlaneWidth,
    /// Kernel backend of each tape pass. Must be available on this CPU
    /// (refused at engine construction otherwise); responses are
    /// backend-independent by the kernel conformance contract.
    pub kernel: KernelId,
    /// Max requests coalesced into one dispatch (the plane fill target).
    pub max_batch: usize,
    /// Max time the oldest pending request may wait for its plane to fill
    /// before a partial plane is dispatched anyway.
    pub max_linger: Duration,
    /// Bound of the inbound queue, in requests. Socket submissions beyond
    /// it are rejected with `overloaded`; pipe submissions block.
    pub queue_depth: usize,
    /// Per-request deadline, measured from arrival to dispatch; `None`
    /// disables (the deterministic default for pipe mode).
    pub request_timeout: Option<Duration>,
    /// Longest accepted frame in bytes; longer lines are `oversized`.
    pub max_frame_bytes: usize,
}

impl ServerConfig {
    /// Defaults: auto workers, 4-wide planes, the widest available kernel,
    /// 256-lane batches (one full 4-word plane pass), 2 ms linger,
    /// 4096-request queue, no timeout, 64 KiB frames.
    pub fn new(channels: usize, width: usize) -> ServerConfig {
        ServerConfig {
            channels,
            width,
            workers: 0,
            plane_width: PlaneWidth::X4,
            kernel: kernel::preferred(),
            max_batch: PlaneWidth::X4.lanes(),
            max_linger: Duration::from_millis(2),
            queue_depth: 4096,
            request_timeout: None,
            max_frame_bytes: 64 * 1024,
        }
    }
}

/// Everything that can go wrong *setting up or running* the server. Wire
/// rejections of individual requests are [`FrameError`]s instead.
#[derive(Debug)]
pub enum ServerError {
    /// The configuration is out of range.
    BadConfig {
        /// What exactly is wrong.
        reason: String,
    },
    /// The comparator network failed 0-1 verification.
    Network(String),
    /// The sorting circuit failed the gate-level 0-1 sweep.
    Circuit(CircuitVerifyError),
    /// The configured kernel backend cannot run on this CPU.
    Kernel(UnknownKernel),
    /// An I/O error on the listener, a pipe, or a socket.
    Io(std::io::Error),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::BadConfig { reason } => {
                write!(f, "bad configuration: {reason}")
            }
            ServerError::Network(msg) => {
                write!(f, "network verification failed: {msg}")
            }
            ServerError::Circuit(e) => {
                write!(f, "circuit verification failed: {e}")
            }
            ServerError::Kernel(e) => write!(f, "{e}"),
            ServerError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<CircuitVerifyError> for ServerError {
    fn from(e: CircuitVerifyError) -> ServerError {
        ServerError::Circuit(e)
    }
}

impl From<UnknownKernel> for ServerError {
    fn from(e: UnknownKernel) -> ServerError {
        ServerError::Kernel(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> ServerError {
        ServerError::Io(e)
    }
}

/// A typed per-request rejection: one `err` line on the wire, never a
/// panic. [`FrameError::code`] is the stable wire code; `Display` is the
/// human detail that follows it.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum FrameError {
    /// The line is not a recognisable frame.
    Malformed {
        /// What exactly is wrong.
        reason: String,
    },
    /// A `sort` frame with no keys.
    Empty,
    /// More keys than the circuit has channels.
    TooManyKeys {
        /// Keys in the frame.
        got: usize,
        /// Channel count of the circuit.
        max: usize,
    },
    /// A key is not a valid string of the server's width.
    BadKey {
        /// Zero-based key position within the frame.
        index: usize,
        /// Why the key was rejected.
        detail: String,
    },
    /// The frame exceeds the configured byte bound.
    Oversized {
        /// Frame length in bytes.
        bytes: usize,
        /// Configured bound.
        max: usize,
    },
    /// The bounded inbound queue is full; retry after the hint.
    Overloaded {
        /// Requests currently queued.
        queued: usize,
        /// Configured queue bound.
        depth: usize,
        /// Suggested client back-off in milliseconds.
        retry_ms: u64,
    },
    /// The request waited past the configured deadline before dispatch.
    Timeout {
        /// Time the request spent queued, in milliseconds.
        waited_ms: u64,
    },
    /// The server is draining and accepts no new requests.
    ShuttingDown,
    /// An engine-level invariant broke mid-serve (never expected — the
    /// circuit is verified at startup).
    Internal {
        /// Diagnostic detail.
        detail: String,
    },
}

impl FrameError {
    /// The stable wire code written after `err <id>`.
    pub fn code(&self) -> &'static str {
        match self {
            FrameError::Malformed { .. } => "malformed",
            FrameError::Empty => "empty",
            FrameError::TooManyKeys { .. } => "too-many-keys",
            FrameError::BadKey { .. } => "bad-key",
            FrameError::Oversized { .. } => "oversized",
            FrameError::Overloaded { .. } => "overloaded",
            FrameError::Timeout { .. } => "timeout",
            FrameError::ShuttingDown => "shutting-down",
            FrameError::Internal { .. } => "internal",
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Malformed { reason } => write!(f, "{reason}"),
            FrameError::Empty => write!(f, "request carries no keys"),
            FrameError::TooManyKeys { got, max } => {
                write!(f, "{got} keys exceed the {max}-channel circuit")
            }
            FrameError::BadKey { index, detail } => {
                write!(f, "key {index}: {detail}")
            }
            FrameError::Oversized { bytes, max } => {
                write!(f, "frame of {bytes} bytes exceeds the {max}-byte bound")
            }
            FrameError::Overloaded {
                queued,
                depth,
                retry_ms,
            } => write!(
                f,
                "queue full ({queued}/{depth} requests); retry-ms={retry_ms}"
            ),
            FrameError::Timeout { waited_ms } => {
                write!(f, "request waited {waited_ms} ms before dispatch")
            }
            FrameError::ShuttingDown => write!(f, "server is draining"),
            FrameError::Internal { detail } => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A parsed `sort` request: opaque client id plus 1 ..= `channels` keys.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct Request {
    /// Client token, echoed back verbatim on the response line.
    pub id: String,
    /// The keys to sort, in arrival order.
    pub keys: Vec<ValidString>,
}

/// One parsed frame of the line protocol.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum Frame {
    /// A sort request.
    Sort(Request),
    /// A live statistics snapshot request.
    Stats {
        /// Client token (`-` if omitted).
        id: String,
    },
    /// Graceful drain-then-exit.
    Shutdown {
        /// Client token (`-` if omitted).
        id: String,
    },
}

/// Parses one line of the protocol. `Ok(None)` is a blank line or comment
/// (no response owed); errors are per-frame wire rejections.
///
/// # Errors
///
/// See [`FrameError`].
pub fn parse_frame(
    line: &str,
    cfg: &ServerConfig,
) -> Result<Option<Frame>, FrameError> {
    if line.len() > cfg.max_frame_bytes {
        return Err(FrameError::Oversized {
            bytes: line.len(),
            max: cfg.max_frame_bytes,
        });
    }
    let line = line.trim_end_matches(['\r', '\n']);
    let mut tokens = line.split_ascii_whitespace();
    let verb = match tokens.next() {
        None => return Ok(None),
        Some(v) if v.starts_with('#') => return Ok(None),
        Some(v) => v,
    };
    match verb {
        "sort" => {
            let id = tokens
                .next()
                .ok_or_else(|| FrameError::Malformed {
                    reason: "sort frame is missing the request id".into(),
                })?
                .to_string();
            let mut keys = Vec::new();
            for (index, tok) in tokens.enumerate() {
                let key: ValidString =
                    tok.parse().map_err(|e| FrameError::BadKey {
                        index,
                        detail: format!("{tok:?} is not a valid string: {e}"),
                    })?;
                if key.width() != cfg.width {
                    return Err(FrameError::BadKey {
                        index,
                        detail: format!(
                            "{tok:?} has width {}, server sorts width {}",
                            key.width(),
                            cfg.width
                        ),
                    });
                }
                keys.push(key);
            }
            if keys.is_empty() {
                return Err(FrameError::Empty);
            }
            if keys.len() > cfg.channels {
                return Err(FrameError::TooManyKeys {
                    got: keys.len(),
                    max: cfg.channels,
                });
            }
            Ok(Some(Frame::Sort(Request { id, keys })))
        }
        "stats" => Ok(Some(Frame::Stats {
            id: tokens.next().unwrap_or("-").to_string(),
        })),
        "shutdown" => Ok(Some(Frame::Shutdown {
            id: tokens.next().unwrap_or("-").to_string(),
        })),
        other => Err(FrameError::Malformed {
            reason: format!("unknown verb {other:?}"),
        }),
    }
}

/// Formats the `ok` response line for a served request.
pub fn format_ok(id: &str, sorted: &[ValidString]) -> String {
    let mut line = format!("ok {id}");
    for key in sorted {
        line.push(' ');
        line.push_str(&key.to_string());
    }
    line
}

/// Formats the `err` response line for a rejected request.
pub fn format_err(id: &str, e: &FrameError) -> String {
    format!("err {id} {} {e}", e.code())
}

// ---------------------------------------------------------------------------
// Observability: per-stage latency accounting.
// ---------------------------------------------------------------------------

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
    queue: SharedHistogram,
    coalesce: SharedHistogram,
    pack: SharedHistogram,
    eval: SharedHistogram,
    write: SharedHistogram,
    e2e: SharedHistogram,
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

    fn add_served(&self) {
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    fn add_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    fn add_batch(&self) {
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
/// (`sort_server --stats-json`). Hand-rolled like the throughput emitter:
/// the repo takes no serde dependency.
pub fn stats_json(report: &ServeReport) -> String {
    let us = |ns: u64| ns / 1_000;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{STATS_SCHEMA}\",\n"));
    out.push_str(&format!("  \"served\": {},\n", report.served));
    out.push_str(&format!("  \"rejected\": {},\n", report.rejected));
    out.push_str(&format!("  \"batches\": {},\n", report.batches));
    out.push_str(&format!("  \"workers\": {},\n", report.workers));
    // Additive field (schema stays v1): the kernel backend that evaluated
    // every batch of this serve.
    out.push_str(&format!("  \"kernel\": \"{}\",\n", report.kernel));
    out.push_str("  \"stages\": {\n");
    let stages = report.stages.stages();
    for (i, (name, h)) in stages.iter().enumerate() {
        out.push_str(&format!("    \"{name}\": {{\n"));
        out.push_str(&format!("      \"count\": {},\n", h.count()));
        out.push_str(&format!("      \"p50_us\": {},\n", us(h.quantile(0.50))));
        out.push_str(&format!("      \"p90_us\": {},\n", us(h.quantile(0.90))));
        out.push_str(&format!("      \"p99_us\": {},\n", us(h.quantile(0.99))));
        out.push_str(&format!(
            "      \"p999_us\": {},\n",
            us(h.quantile(0.999))
        ));
        out.push_str(&format!("      \"max_us\": {},\n", us(h.max())));
        out.push_str(&format!("      \"mean_us\": {}\n", us(h.mean())));
        out.push_str(if i + 1 == stages.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  }\n}\n");
    out
}

/// The sorting engine: a verified circuit compiled to an [`EvalTape`],
/// plus the padding row that lets short requests share a plane with full
/// ones. Shared read-only across workers; each worker owns a scratch.
pub struct SortEngine {
    cfg: ServerConfig,
    tape: EvalTape,
    /// Bits of the maximum valid string — free channels of a short request
    /// are padded with it so the sorted prefix is exactly the request.
    pad: TritVec,
}

impl SortEngine {
    /// Builds the engine for `cfg` from the stock cell network (optimal
    /// table for small `n`, Batcher odd-even beyond), verifying network and
    /// circuit before anything is served.
    ///
    /// # Errors
    ///
    /// See [`ServerError`]; nothing is served unless verification passes.
    pub fn new(cfg: ServerConfig) -> Result<SortEngine, ServerError> {
        validate(&cfg)?;
        let network = cell_network(cfg.channels);
        if cfg.channels <= MAX_CHECK_CHANNELS {
            zero_one_verify(&network)
                .map_err(|e| ServerError::Network(e.to_string()))?;
        }
        let circuit =
            build_sorting_circuit(&network, cfg.width, TwoSortFlavor::Paper);
        SortEngine::from_netlist(cfg, &circuit)
    }

    /// Builds the engine from an existing sorting netlist — e.g. an
    /// optimized golden or zoo artifact loaded via
    /// [`crate::artifact::load_netlist`]. The netlist is re-verified with
    /// the gate-level 0-1 sweep before it serves a single request.
    ///
    /// # Errors
    ///
    /// See [`ServerError`].
    pub fn from_netlist(
        cfg: ServerConfig,
        circuit: &Netlist,
    ) -> Result<SortEngine, ServerError> {
        validate(&cfg)?;
        if cfg.channels <= MAX_CHECK_CHANNELS {
            zero_one_circuit_check(circuit, cfg.channels, cfg.width)?;
        } else if circuit.input_count() != cfg.channels * cfg.width
            || circuit.output_count() != cfg.channels * cfg.width
        {
            return Err(ServerError::BadConfig {
                reason: format!(
                    "netlist ports ({} in / {} out) disagree with {} \
                     channels x {} bits",
                    circuit.input_count(),
                    circuit.output_count(),
                    cfg.channels,
                    cfg.width
                ),
            });
        }
        let pad = ValidString::stable(cfg.width, (1u64 << cfg.width) - 1)
            .map_err(|e| ServerError::BadConfig {
                reason: format!("width {}: {e}", cfg.width),
            })?
            .into_bits();
        Ok(SortEngine {
            cfg,
            tape: EvalTape::compile(circuit),
            pad,
        })
    }

    /// The configuration the engine was built for.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Allocates one worker's (or connection's) reusable scratch for the
    /// configured plane width and kernel backend.
    pub fn scratch(&self) -> TapeScratch {
        self.tape
            .try_scratch(self.cfg.plane_width, self.cfg.kernel)
            .expect("kernel availability is validated at engine construction")
    }

    /// Sorts a coalesced batch: request `i` occupies lane `i` of one shared
    /// plane pass. Returns each request's keys in ascending order.
    ///
    /// Per-request results are a function of that request alone — lanes are
    /// independent in the word-parallel evaluator — which is the whole
    /// determinism contract: packing, worker count and plane width cannot
    /// change any response.
    ///
    /// # Errors
    ///
    /// [`FrameError::Internal`] if the tape rejects the batch or an output
    /// lane is not a valid string — both impossible for a verified circuit.
    pub fn sort_batch(
        &self,
        requests: &[Request],
        scratch: &mut TapeScratch,
    ) -> Result<Vec<Vec<ValidString>>, FrameError> {
        self.sort_batch_recording(requests, scratch, None)
    }

    /// [`SortEngine::sort_batch`] with per-stage timing: the plane-pack and
    /// tape-eval durations of this batch are recorded into `stats` (when
    /// given). Timing is observational — the sorted results are identical
    /// with or without it.
    ///
    /// # Errors
    ///
    /// See [`SortEngine::sort_batch`].
    pub fn sort_batch_recording(
        &self,
        requests: &[Request],
        scratch: &mut TapeScratch,
        stats: Option<&ServerStats>,
    ) -> Result<Vec<Vec<ValidString>>, FrameError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let ports = self.cfg.channels * self.cfg.width;
        let pack_start = Instant::now();
        let rows: Vec<Vec<Trit>> = requests
            .iter()
            .map(|r| {
                let mut row = Vec::with_capacity(ports);
                for key in &r.keys {
                    row.extend(key.bits().iter());
                }
                for _ in r.keys.len()..self.cfg.channels {
                    row.extend(self.pad.iter());
                }
                row
            })
            .collect();
        let blocks = TritBlock::pack_rows(&rows);
        if let Some(stats) = stats {
            stats.pack.record(nanos_u64(pack_start.elapsed()));
        }
        let eval_start = Instant::now();
        let out = self
            .tape
            .try_eval_block_with(&blocks, scratch)
            .map_err(|e| FrameError::Internal {
                detail: format!("tape rejected the batch: {e}"),
            })?;
        if let Some(stats) = stats {
            stats.eval.record(nanos_u64(eval_start.elapsed()));
        }
        requests
            .iter()
            .enumerate()
            .map(|(lane, r)| {
                (0..r.keys.len())
                    .map(|c| {
                        let bits: TritVec = (0..self.cfg.width)
                            .map(|b| out[c * self.cfg.width + b].lane(lane))
                            .collect();
                        ValidString::new(bits.clone()).map_err(|e| {
                            FrameError::Internal {
                                detail: format!(
                                    "output channel {c} of request {:?} is \
                                     not a valid string ({bits}): {e}",
                                    r.id
                                ),
                            }
                        })
                    })
                    .collect()
            })
            .collect()
    }
}

fn validate(cfg: &ServerConfig) -> Result<(), ServerError> {
    let bad = |reason: String| Err(ServerError::BadConfig { reason });
    if cfg.channels < 2 {
        return bad("need at least 2 channels".into());
    }
    if cfg.width == 0 || cfg.width > MAX_WIDTH {
        return bad(format!("width must be in 1..={MAX_WIDTH}"));
    }
    if cfg.max_batch == 0 {
        return bad("max_batch must be positive".into());
    }
    if cfg.queue_depth == 0 {
        return bad("queue_depth must be positive".into());
    }
    if cfg.max_frame_bytes == 0 {
        return bad("max_frame_bytes must be positive".into());
    }
    // Typed refusal for backends this CPU cannot run, so worker scratch
    // construction after this point is infallible.
    kernel::require(cfg.kernel)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// The coalescer: a bounded queue that releases plane-sized batches.
// ---------------------------------------------------------------------------

/// One queued request on its way to a plane: the parsed keys plus the
/// routing information needed to deliver the response.
#[derive(Debug)]
pub struct Job {
    /// Per-connection sequence number; the connection writer re-orders
    /// responses by it.
    pub seq: u64,
    /// Client id echoed on the response.
    pub id: String,
    /// The keys to sort.
    pub keys: Vec<ValidString>,
    /// Arrival time (linger, timeout, queue wait and end-to-end latency
    /// are all measured from it).
    pub enqueued: Instant,
    /// Where the formatted response line goes.
    pub reply: Sender<(u64, Reply)>,
}

/// One formatted response line on its way to the re-sequencing writer,
/// carrying the timing context the writer needs to close out the
/// request's `write` and `e2e` stages.
#[derive(Debug)]
pub struct Reply {
    /// The formatted response line (without trailing newline).
    pub line: String,
    /// When the request entered the queue — `None` for lines that never
    /// went through it (parse rejections, control-frame acks), which
    /// therefore have no end-to-end latency to record.
    pub enqueued: Option<Instant>,
    /// When the line was handed to the writer channel.
    pub sent: Instant,
}

impl Reply {
    /// A reply stamped "sent now".
    pub fn new(line: String, enqueued: Option<Instant>) -> Reply {
        Reply {
            line,
            enqueued,
            sent: Instant::now(),
        }
    }
}

struct QueueState {
    jobs: std::collections::VecDeque<Job>,
    closed: bool,
}

/// Recovers the queue guard from a poisoned lock or wait. Sound because
/// every critical section changes [`QueueState`] by one push, one drain or
/// one flag store, so a thread that panicked while holding the lock cannot
/// have left it half-updated; one panicking worker must not take down
/// serving for everyone else.
fn unpoison<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// The bounded request queue with plane-fill/linger batching semantics —
/// the heart of the serving layer, exposed so tests can pin its contract
/// without sockets or timing races.
pub struct CoalescerQueue {
    state: Mutex<QueueState>,
    /// Signals workers: jobs arrived or the queue closed.
    nonempty: Condvar,
    /// Signals blocked producers: space freed or the queue closed.
    space: Condvar,
    depth: usize,
    max_batch: usize,
    max_linger: Duration,
}

impl CoalescerQueue {
    /// A queue bounded at `depth` requests, dispatching `max_batch`-lane
    /// planes, holding partial planes at most `max_linger`.
    pub fn new(depth: usize, max_batch: usize, max_linger: Duration) -> CoalescerQueue {
        CoalescerQueue {
            state: Mutex::new(QueueState {
                jobs: std::collections::VecDeque::new(),
                closed: false,
            }),
            nonempty: Condvar::new(),
            space: Condvar::new(),
            depth,
            max_batch: max_batch.max(1),
            max_linger,
        }
    }

    /// Requests currently queued (racy snapshot, for reporting).
    pub fn queued(&self) -> usize {
        unpoison(self.state.lock()).jobs.len()
    }

    /// Socket-mode submission: **rejects** when the queue is at its bound
    /// (returning the job so the caller can format the error response) —
    /// backpressure by typed refusal, never by unbounded buffering.
    ///
    /// # Errors
    ///
    /// [`FrameError::Overloaded`] with a retry hint when full,
    /// [`FrameError::ShuttingDown`] after [`CoalescerQueue::close`].
    pub fn try_submit(&self, job: Job) -> Result<(), (Job, FrameError)> {
        let mut state = unpoison(self.state.lock());
        if state.closed {
            return Err((job, FrameError::ShuttingDown));
        }
        if state.jobs.len() >= self.depth {
            let e = FrameError::Overloaded {
                queued: state.jobs.len(),
                depth: self.depth,
                // One linger window is how long a full queue needs to turn
                // into at least one dispatched plane.
                retry_ms: millis_u64(self.max_linger).max(1),
            };
            return Err((job, e));
        }
        state.jobs.push_back(job);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Pipe-mode submission: **blocks** until space frees (the producer is
    /// a pipe — slowing it down *is* the backpressure).
    ///
    /// # Errors
    ///
    /// [`FrameError::ShuttingDown`] (with the job handed back) if the
    /// queue closes while waiting.
    pub fn submit_blocking(&self, job: Job) -> Result<(), (Job, FrameError)> {
        let mut state = unpoison(self.state.lock());
        loop {
            if state.closed {
                return Err((job, FrameError::ShuttingDown));
            }
            if state.jobs.len() < self.depth {
                state.jobs.push_back(job);
                self.nonempty.notify_one();
                return Ok(());
            }
            state = unpoison(self.space.wait(state));
        }
    }

    /// Closes the queue: producers are refused from now on, workers drain
    /// what is already queued and then see `None`.
    pub fn close(&self) {
        let mut state = unpoison(self.state.lock());
        state.closed = true;
        self.nonempty.notify_all();
        self.space.notify_all();
    }

    /// Blocks until a batch is ready and pops it: a full `max_batch` plane
    /// immediately, a partial plane once its oldest job has lingered
    /// `max_linger`, everything left once the queue closes. `None` when
    /// closed and empty — the worker's exit signal.
    pub fn next_batch(&self) -> Option<Vec<Job>> {
        let mut state = unpoison(self.state.lock());
        loop {
            if state.jobs.len() >= self.max_batch || state.closed {
                break;
            }
            if let Some(oldest) = state.jobs.front() {
                let waited = oldest.enqueued.elapsed();
                if waited >= self.max_linger {
                    break;
                }
                let (s, _timeout) =
                    unpoison(self.nonempty.wait_timeout(state, self.max_linger - waited));
                state = s;
            } else {
                state = unpoison(self.nonempty.wait(state));
            }
        }
        if state.jobs.is_empty() {
            debug_assert!(state.closed);
            return None;
        }
        let take = state.jobs.len().min(self.max_batch);
        let batch: Vec<Job> = state.jobs.drain(..take).collect();
        self.space.notify_all();
        Some(batch)
    }
}

// ---------------------------------------------------------------------------
// The serving pipeline.
// ---------------------------------------------------------------------------

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

fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// The worker loop: drain plane batches, sort, route responses. Shared by
/// both serving modes. All timing here is observational: the responses
/// are byte-identical whether or not anyone ever reads the histograms.
fn worker_loop(engine: &SortEngine, queue: &CoalescerQueue, stats: &ServerStats) {
    let mut scratch = engine.scratch();
    while let Some(batch) = queue.next_batch() {
        let popped = Instant::now();
        stats.add_batch();
        // Coalesce latency: how long this plane spent filling, measured
        // from its oldest member. Queue wait is per job.
        if let Some(oldest) = batch.iter().map(|job| job.enqueued).min() {
            stats
                .coalesce
                .record(nanos_u64(popped.duration_since(oldest)));
        }
        for job in &batch {
            stats
                .queue
                .record(nanos_u64(popped.duration_since(job.enqueued)));
        }
        // Expire requests that waited past their deadline before burning
        // plane lanes on them.
        let (live, expired): (Vec<Job>, Vec<Job>) =
            batch.into_iter().partition(|job| {
                engine.cfg.request_timeout.is_none_or(|t| job.enqueued.elapsed() <= t)
            });
        for job in expired {
            stats.add_rejected();
            let e = FrameError::Timeout {
                waited_ms: millis_u64(job.enqueued.elapsed()),
            };
            let _ = job.reply.send((
                job.seq,
                Reply::new(format_err(&job.id, &e), Some(job.enqueued)),
            ));
        }
        if live.is_empty() {
            continue;
        }
        let requests: Vec<Request> = live
            .iter()
            .map(|job| Request {
                id: job.id.clone(),
                keys: job.keys.clone(),
            })
            .collect();
        match engine.sort_batch_recording(&requests, &mut scratch, Some(stats)) {
            Ok(sorted) => {
                for (job, keys) in live.iter().zip(&sorted) {
                    let _ = job.reply.send((
                        job.seq,
                        Reply::new(format_ok(&job.id, keys), Some(job.enqueued)),
                    ));
                }
            }
            Err(e) => {
                // Typed, never panicking: every request of the failed
                // batch gets the internal error response.
                for job in &live {
                    stats.add_rejected();
                    let _ = job.reply.send((
                        job.seq,
                        Reply::new(format_err(&job.id, &e), Some(job.enqueued)),
                    ));
                }
            }
        }
    }
}

/// A reply in the writer's re-sequencing heap, ordered by sequence number
/// alone (the payload carries timing stamps that must not affect order).
struct PendingReply {
    seq: u64,
    reply: Reply,
}

impl PartialEq for PendingReply {
    fn eq(&self, other: &PendingReply) -> bool {
        self.seq == other.seq
    }
}

impl Eq for PendingReply {}

impl PartialOrd for PendingReply {
    fn partial_cmp(&self, other: &PendingReply) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PendingReply {
    fn cmp(&self, other: &PendingReply) -> std::cmp::Ordering {
        self.seq.cmp(&other.seq)
    }
}

/// Re-sequencing response writer: responses arrive keyed by the reader's
/// per-connection sequence number and are written in exactly that order,
/// making output bytes independent of worker scheduling. Closes out the
/// `write` stage (writer-channel latency) and, for lines that went through
/// the queue, the `e2e` stage (submit → written).
fn writer_loop<W: Write>(
    rx: std::sync::mpsc::Receiver<(u64, Reply)>,
    mut out: W,
    stats: &ServerStats,
) -> std::io::Result<()> {
    // Min-heap on seq via Reverse.
    let mut pending: BinaryHeap<std::cmp::Reverse<PendingReply>> =
        BinaryHeap::new();
    let mut next = 0u64;
    for (seq, reply) in rx {
        pending.push(std::cmp::Reverse(PendingReply { seq, reply }));
        while pending.peek().is_some_and(|r| r.0.seq == next) {
            let std::cmp::Reverse(PendingReply { reply, .. }) =
                pending.pop().expect("peeked");
            writeln!(out, "{}", reply.line)?;
            stats.write.record(nanos_u64(reply.sent.elapsed()));
            if let Some(enqueued) = reply.enqueued {
                stats.e2e.record(nanos_u64(enqueued.elapsed()));
            }
            next += 1;
        }
    }
    debug_assert!(pending.is_empty(), "writer lost a sequence number");
    out.flush()
}

/// Serves one line stream (stdin mode, or one accepted socket): parse
/// frames, submit jobs, and deliver re-sequenced responses to `output`.
/// Served/rejected counts go straight into `stats`, which also answers
/// any `stats` frame on the stream with a mid-serve snapshot line.
/// `after_input` runs once the input is exhausted (EOF, shutdown frame, or
/// a torn read), *before* the writer is waited on — stdin mode closes the
/// queue there so a pending partial plane drains immediately instead of
/// waiting out its linger. Returns whether a shutdown frame was seen.
fn pump_connection<R: BufRead, W: Write + Send>(
    engine: &SortEngine,
    queue: &CoalescerQueue,
    stats: &ServerStats,
    input: R,
    output: W,
    blocking_submit: bool,
    after_input: impl FnOnce(),
) -> Result<bool, ServerError> {
    let (tx, rx) = channel::<(u64, Reply)>();
    let mut shutdown = false;
    let mut read_err: Option<std::io::Error> = None;
    let write_result = std::thread::scope(|s| {
        let writer = s.spawn(move || writer_loop(rx, output, stats));
        let mut seq = 0u64;
        let reject =
            |seq: u64, id: &str, e: &FrameError, tx: &Sender<(u64, Reply)>| {
                stats.add_rejected();
                let _ = tx.send((seq, Reply::new(format_err(id, e), None)));
            };
        for line in input.lines() {
            let line = match line {
                Ok(line) => line,
                Err(e) => {
                    // A torn read ends the connection; everything already
                    // submitted still drains through the writer.
                    read_err = Some(e);
                    break;
                }
            };
            match parse_frame(&line, &engine.cfg) {
                Ok(None) => {}
                Ok(Some(Frame::Shutdown { id })) => {
                    let _ = tx.send((
                        seq,
                        Reply::new(format!("ok {id} draining"), None),
                    ));
                    shutdown = true;
                    break;
                }
                Ok(Some(Frame::Stats { id })) => {
                    // A racy-but-consistent mid-serve snapshot; the line
                    // holds its place in the response order like any
                    // other frame.
                    let line = format_stats_line(&id, &stats.snapshot());
                    let _ = tx.send((seq, Reply::new(line, None)));
                    seq += 1;
                }
                Ok(Some(Frame::Sort(req))) => {
                    let job = Job {
                        seq,
                        id: req.id,
                        keys: req.keys,
                        enqueued: Instant::now(),
                        reply: tx.clone(),
                    };
                    let submitted = if blocking_submit {
                        queue.submit_blocking(job)
                    } else {
                        queue.try_submit(job)
                    };
                    match submitted {
                        Ok(()) => stats.add_served(),
                        Err((job, e)) => reject(seq, &job.id, &e, &tx),
                    }
                    seq += 1;
                }
                Err(e) => {
                    reject(seq, "-", &e, &tx);
                    seq += 1;
                }
            }
        }
        after_input();
        drop(tx);
        writer.join().expect("writer thread")
    });
    write_result?;
    if let Some(e) = read_err {
        return Err(ServerError::Io(e));
    }
    Ok(shutdown)
}

/// Stdin mode: reads frames from `input` until EOF (or a `shutdown`
/// frame), sorts them through `workers` scoped worker threads, and writes
/// responses to `output` **in request order** — byte-identical across
/// worker counts and plane widths. The pipe blocks when the bounded queue
/// is full; nothing is rejected for load.
///
/// # Errors
///
/// Only I/O errors surface here; per-request problems are `err` lines.
pub fn serve_lines<R: BufRead, W: Write + Send>(
    engine: &SortEngine,
    input: R,
    output: W,
) -> Result<ServeReport, ServerError> {
    let workers = resolve_workers(engine.cfg.workers);
    let queue = CoalescerQueue::new(
        engine.cfg.queue_depth,
        engine.cfg.max_batch,
        engine.cfg.max_linger,
    );
    let stats = ServerStats::new(workers, engine.cfg.kernel);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| worker_loop(engine, &queue, &stats));
        }
        // EOF (or shutdown frame): drain-then-exit. The queue closes as
        // soon as input ends, so workers finish every queued plane (no
        // linger wait) before the scope joins them.
        pump_connection(engine, &queue, &stats, input, output, true, || {
            queue.close();
        })
    })?;
    Ok(stats.snapshot())
}

/// TCP mode: accepts localhost connections on `listener`, coalescing *all*
/// connections' requests into shared planes. Per-connection responses stay
/// in that connection's request order. Submission is non-blocking: when
/// the bounded queue is full the client gets a typed `overloaded`
/// rejection with a retry hint. A `shutdown` frame from any connection
/// stops the accept loop, drains the queue, and returns.
///
/// # Errors
///
/// Listener/accept errors; per-connection I/O errors only end that
/// connection.
pub fn serve_tcp(
    engine: &SortEngine,
    listener: TcpListener,
) -> Result<ServeReport, ServerError> {
    let workers = resolve_workers(engine.cfg.workers);
    let queue = CoalescerQueue::new(
        engine.cfg.queue_depth,
        engine.cfg.max_batch,
        engine.cfg.max_linger,
    );
    let stats = ServerStats::new(workers, engine.cfg.kernel);
    let stop = AtomicBool::new(false);
    let local = listener.local_addr()?;
    std::thread::scope(|s| -> Result<(), ServerError> {
        for _ in 0..workers {
            s.spawn(|| worker_loop(engine, &queue, &stats));
        }
        loop {
            let (stream, _) = listener.accept()?;
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let queue = &queue;
            let stop = &stop;
            let stats = &stats;
            s.spawn(move || {
                let reader = match stream.try_clone() {
                    Ok(r) => BufReader::new(r),
                    Err(_) => return,
                };
                if let Ok(saw_shutdown) = pump_connection(
                    engine,
                    queue,
                    stats,
                    reader,
                    stream,
                    false,
                    || {},
                ) {
                    if saw_shutdown && !stop.swap(true, Ordering::SeqCst) {
                        // Wake the accept loop so it can exit; the
                        // connection is discarded immediately.
                        let _ = TcpStream::connect(local);
                    }
                }
            });
        }
        // Drain-then-exit: no new requests, queued planes still complete.
        queue.close();
        Ok(())
    })?;
    Ok(stats.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg4x2() -> ServerConfig {
        let mut cfg = ServerConfig::new(4, 2);
        cfg.workers = 1;
        cfg
    }

    #[test]
    fn parse_frame_grammar() {
        let cfg = cfg4x2();
        assert_eq!(parse_frame("", &cfg), Ok(None));
        assert_eq!(parse_frame("   ", &cfg), Ok(None));
        assert_eq!(parse_frame("# comment", &cfg), Ok(None));
        let frame = parse_frame("sort r1 00 0M 11\n", &cfg).unwrap().unwrap();
        match frame {
            Frame::Sort(req) => {
                assert_eq!(req.id, "r1");
                assert_eq!(req.keys.len(), 3);
                assert_eq!(req.keys[1].to_string(), "0M");
            }
            other => panic!("unexpected frame {other:?}"),
        }
        assert_eq!(
            parse_frame("shutdown s9", &cfg).unwrap(),
            Some(Frame::Shutdown { id: "s9".into() })
        );
        assert_eq!(
            parse_frame("shutdown", &cfg).unwrap(),
            Some(Frame::Shutdown { id: "-".into() })
        );
        assert_eq!(
            parse_frame("stats q7", &cfg).unwrap(),
            Some(Frame::Stats { id: "q7".into() })
        );
        assert_eq!(
            parse_frame("stats", &cfg).unwrap(),
            Some(Frame::Stats { id: "-".into() })
        );
    }

    #[test]
    fn parse_frame_typed_rejections() {
        let cfg = cfg4x2();
        let malformed = parse_frame("sort", &cfg).unwrap_err();
        assert_eq!(malformed.code(), "malformed");
        assert_eq!(parse_frame("sort r1", &cfg).unwrap_err().code(), "empty");
        assert_eq!(
            parse_frame("frobnicate r1 00", &cfg).unwrap_err().code(),
            "malformed"
        );
        let too_many = parse_frame("sort r1 00 00 00 00 00", &cfg).unwrap_err();
        assert_eq!(
            too_many,
            FrameError::TooManyKeys { got: 5, max: 4 }
        );
        // Bad character, bad validity, bad width — all `bad-key`.
        for line in ["sort r1 0Z", "sort r1 MM", "sort r1 010"] {
            let e = parse_frame(line, &cfg).unwrap_err();
            assert_eq!(e.code(), "bad-key", "{line}");
        }
        let mut small = cfg4x2();
        small.max_frame_bytes = 8;
        assert_eq!(
            parse_frame("sort r1 00 11", &small).unwrap_err().code(),
            "oversized"
        );
    }

    #[test]
    fn error_lines_are_wire_stable() {
        let e = FrameError::Overloaded {
            queued: 7,
            depth: 7,
            retry_ms: 2,
        };
        assert_eq!(
            format_err("req-9", &e),
            "err req-9 overloaded queue full (7/7 requests); retry-ms=2"
        );
        assert_eq!(
            format_err("-", &FrameError::Empty),
            "err - empty request carries no keys"
        );
    }

    #[test]
    fn engine_rejects_bad_configs() {
        for (channels, width) in [(1, 2), (4, 0), (4, MAX_WIDTH + 1)] {
            let err = SortEngine::new(ServerConfig::new(channels, width))
                .err()
                .expect("must be rejected");
            assert!(matches!(err, ServerError::BadConfig { .. }), "{err}");
        }
        let mut cfg = cfg4x2();
        cfg.max_batch = 0;
        assert!(SortEngine::new(cfg).is_err());
    }

    #[test]
    fn engine_rejects_a_non_sorting_netlist() {
        let mut n = Netlist::new("identity");
        let ins: Vec<_> =
            (0..4).map(|i| n.input(format!("ch{i}_b0"))).collect();
        for (i, &node) in ins.iter().enumerate() {
            n.set_output(format!("out{i}_b0"), node);
        }
        let err = SortEngine::from_netlist(ServerConfig::new(4, 1), &n)
            .err()
            .expect("identity must be rejected");
        assert!(matches!(err, ServerError::Circuit(_)), "{err}");
    }

    #[test]
    fn sort_batch_pads_short_requests() {
        let engine = SortEngine::new(cfg4x2()).unwrap();
        let mut scratch = engine.scratch();
        let requests = vec![
            Request {
                id: "a".into(),
                keys: vec!["11".parse().unwrap(), "00".parse().unwrap()],
            },
            Request {
                id: "b".into(),
                keys: vec!["0M".parse().unwrap()],
            },
        ];
        let sorted = engine.sort_batch(&requests, &mut scratch).unwrap();
        assert_eq!(sorted.len(), 2);
        let strs: Vec<Vec<String>> = sorted
            .iter()
            .map(|keys| keys.iter().map(|k| k.to_string()).collect())
            .collect();
        assert_eq!(strs[0], vec!["00", "11"]);
        assert_eq!(strs[1], vec!["0M"]);
    }

    #[test]
    fn stats_line_and_json_carry_every_stage() {
        let stats = ServerStats::new(3, KernelId::Scalar);
        stats.add_served();
        stats.add_served();
        stats.add_rejected();
        stats.add_batch();
        stats.queue.record(1_500);
        stats.eval.record(2_000_000);
        let report = stats.snapshot();
        assert_eq!(report.served, 2);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.batches, 1);
        assert_eq!(report.workers, 3);
        assert_eq!(report.stages.queue.count(), 1);
        assert_eq!(report.stages.eval.max(), 2_000_000);

        let line = format_stats_line("q1", &report);
        assert!(line.starts_with("stats q1 schema=mcs-serverstats-v1 "), "{line}");
        assert!(
            line.contains("served=2 rejected=1 batches=1 workers=3 kernel=scalar"),
            "{line}"
        );
        for stage in ["queue", "coalesce", "pack", "eval", "write", "e2e"] {
            assert!(line.contains(&format!(" {stage}_us=")), "{line}");
        }

        let json = stats_json(&report);
        assert!(json.contains("\"schema\": \"mcs-serverstats-v1\""), "{json}");
        for key in [
            "\"served\": 2",
            "\"kernel\": \"scalar\"",
            "\"stages\"",
            "\"p50_us\"",
            "\"p999_us\"",
            "\"mean_us\"",
        ]
        {
            assert!(json.contains(key), "{json}");
        }
        // Balanced braces — the hand-rolled emitter must stay valid JSON.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }

    #[test]
    fn queue_saturation_rejects_with_retry_hint() {
        let queue = CoalescerQueue::new(2, 64, Duration::from_millis(5));
        let (tx, _rx) = channel();
        let job = |seq| Job {
            seq,
            id: format!("r{seq}"),
            keys: vec!["00".parse().unwrap()],
            enqueued: Instant::now(),
            reply: tx.clone(),
        };
        queue.try_submit(job(0)).unwrap();
        queue.try_submit(job(1)).unwrap();
        let (returned, e) = queue.try_submit(job(2)).unwrap_err();
        assert_eq!(returned.id, "r2");
        match e {
            FrameError::Overloaded {
                queued,
                depth,
                retry_ms,
            } => {
                assert_eq!((queued, depth), (2, 2));
                assert!(retry_ms >= 1);
            }
            other => panic!("expected overload, got {other:?}"),
        }
        // Rejected is not buffered: the queue still holds exactly 2.
        assert_eq!(queue.queued(), 2);
        queue.close();
        let (_, e) = queue.try_submit(job(3)).unwrap_err();
        assert_eq!(e, FrameError::ShuttingDown);
    }

    #[test]
    fn a_poisoned_queue_keeps_serving() {
        let queue = CoalescerQueue::new(4, 2, Duration::from_secs(60));
        let (tx, _rx) = channel();
        let job = |seq| Job {
            seq,
            id: format!("r{seq}"),
            keys: vec!["00".parse().unwrap()],
            enqueued: Instant::now(),
            reply: tx.clone(),
        };
        queue.try_submit(job(0)).unwrap();
        std::thread::scope(|s| {
            let panicked = s
                .spawn(|| {
                    let _guard = queue.state.lock().unwrap();
                    panic!("worker dies holding the queue lock");
                })
                .join();
            assert!(panicked.is_err());
        });
        assert!(queue.state.is_poisoned());
        queue.try_submit(job(1)).unwrap();
        assert_eq!(queue.queued(), 2);
        // A full plane leaves at once, without waiting out the linger.
        let batch = queue.next_batch().expect("a full batch");
        assert_eq!(batch.iter().map(|j| j.seq).collect::<Vec<_>>(), [0, 1]);
        queue.try_submit(job(2)).unwrap();
        queue.close();
        let (_, e) = queue.try_submit(job(3)).unwrap_err();
        assert_eq!(e, FrameError::ShuttingDown);
        // Close drains what is queued, then signals exit.
        assert_eq!(queue.next_batch().map(|b| b.len()), Some(1));
        assert!(queue.next_batch().is_none());
    }
}
