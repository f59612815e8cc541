//! `sort_server`: a batching, backpressured serving layer over the
//! verified [`Engine`] — certified MC sorting circuits as a
//! request/response service.
//!
//! The throughput engine streams a fixed synthetic workload through the
//! same [`Engine`]; this module serves *traffic*: framed batches of valid
//! strings arrive on stdin or a localhost TCP socket, are sorted through
//! the engine's compiled [`EvalTape`] with a per-worker reusable
//! [`TapeScratch`], and come back as sorted batches. Three production
//! concerns are first-class:
//!
//! * **Request coalescing.** Each request is one lane. Small concurrent
//!   requests are packed into shared plane words — the [`CoalescerQueue`]
//!   holds arrivals until a full `max_batch`-lane plane is ready (64 lanes
//!   per plane word, [`PlaneWidth::default`] words per pass) or the oldest
//!   pending request has lingered for `max_linger`, whichever is first, so
//!   latency stays bounded while throughput approaches the engine's
//!   streaming rate.
//! * **Backpressure.** The inbound queue is bounded (`queue_depth`
//!   requests). Socket traffic beyond the bound is *rejected* with a typed
//!   `overloaded` response carrying a retry hint — never buffered without
//!   limit. The stdin pipe blocks the producer instead (classic pipe
//!   backpressure), so batch files of any size stream through safely.
//! * **Determinism.** Per-request results are independent of batch
//!   packing, worker count and kernel tier — each lane's output depends
//!   only on that lane, workers drain whole batches, and every response is
//!   re-sequenced into per-connection request order before it is written.
//!   `cat requests | sort_server` is byte-identical across 1/2/4/8 workers
//!   and both kernel tiers; the `server` test suite pins this against a
//!   rank-sorted reference and against one-request-at-a-time
//!   [`SortEngine::sort_batch`], and the committed goldens pin the bytes.
//!
//! Between bytes and circuit nothing is allocated per key. A key token is
//! parsed in one pass into a `Copy` [`Key`] (two bit masks checked by
//! [`valid_rank`], the same rule behind [`ValidString::new`]). One core
//! serves both the workers and [`SortEngine::sort_batch_recording`]: it
//! packs each request's keys and the pad key straight into the batch's
//! plane words, evaluates the tape once, gathers each output lane's bits
//! back into a [`Key`] under the same rule, and the `ok` line is written
//! as bytes.
//!
//! Robustness is typed end to end: malformed frames, invalid strings,
//! oversized requests, overload, timeouts and shutdown are all
//! [`FrameError`] responses on the wire ([`ServerError`] covers setup and
//! I/O), and the serving loop itself never panics on input. A panic inside
//! a worker's batch is caught: that batch's requests are answered
//! `internal` and every other request is still served.
//!
//! [`EvalTape`]: mcs_netlist::EvalTape
//!
//! # Observability
//!
//! Every request is stamped with per-stage monotonic timings — queue wait,
//! coalesce/linger, plane pack (keys → plane words, per batch), tape eval,
//! re-sequence/write, end-to-end —
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
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Condvar, LockResult, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::metrics::{
    millis_u64, nanos_u64, LatencyHistogram, SharedHistogram, StageSnapshot,
};

use mcs_gray::valid::{valid_rank, InvalidStringError};
use mcs_gray::ValidString;
use mcs_logic::plane::kernel::{self, KernelId};
use mcs_logic::{PlaneWidth, Trit, TritWord};
use mcs_netlist::{EvalTape, Netlist, TapeScratch};

use crate::engine::{resolve_workers, Engine, EngineError};
use crate::json::JsonWriter;

/// Serving knobs. Everything latency/throughput-relevant is explicit so
/// tests (and operators) can pin the exact coalescing behaviour.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Channel count `n` of the sorting circuit (max keys per request).
    pub channels: usize,
    /// Bits per key `B` (1 ..= [`crate::engine::MAX_WIDTH`]).
    pub width: usize,
    /// Worker threads draining the queue; `0` means one per core.
    pub workers: usize,
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
    /// Defaults: auto workers, the widest available kernel, batches of one
    /// full plane pass at [`PlaneWidth::default`] (256 lanes), 2 ms linger,
    /// 4096-request queue, no timeout, 64 KiB frames.
    pub fn new(channels: usize, width: usize) -> ServerConfig {
        ServerConfig {
            channels,
            width,
            workers: 0,
            kernel: kernel::preferred(),
            max_batch: PlaneWidth::default().lanes(),
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
    /// A serving field (`max_batch`, `queue_depth`, `max_frame_bytes`) is
    /// out of range.
    BadConfig {
        /// What exactly is wrong.
        reason: String,
    },
    /// The engine could not be built: a bad channel count or width, a
    /// failed verification, or an unavailable kernel.
    Engine(EngineError),
    /// An I/O error on the listener, a pipe, or a socket.
    Io(std::io::Error),
    /// A connection's response writer thread panicked; responses it had
    /// not written yet are lost.
    WriterPanicked,
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::BadConfig { reason } => {
                write!(f, "bad configuration: {reason}")
            }
            ServerError::Engine(e) => write!(f, "{e}"),
            ServerError::Io(e) => write!(f, "i/o error: {e}"),
            ServerError::WriterPanicked => f.write_str("response writer thread panicked"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<EngineError> for ServerError {
    fn from(e: EngineError) -> ServerError {
        ServerError::Engine(e)
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

/// One served key: a valid string of width `1..=63` held as the two
/// possibility planes of [`valid_rank`] (character `i`, MSB first, is bit
/// `width − 1 − i`). It is `Copy`, so parsing, packing and decoding never
/// allocate per key, and every value has passed the valid-string rule.
///
/// ```
/// use mcs_bench::server::Key;
///
/// let key: Key = "0M10".parse()?;
/// assert_eq!((key.width(), key.rank()), (4, 7));
/// assert_eq!(key.to_string(), "0M10");
/// assert!("0M00".parse::<Key>().is_err());
/// # Ok::<(), mcs_gray::valid::InvalidStringError>(())
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct Key {
    can_zero: u64,
    can_one: u64,
    rank: u64,
    width: u8,
}

impl Key {
    /// The key with the given planes, if they spell a valid string of
    /// `width` bits; bits at or above `width` are ignored.
    fn from_planes(
        can_zero: u64,
        can_one: u64,
        width: usize,
    ) -> Result<Key, InvalidStringError> {
        let rank = valid_rank(can_zero, can_one, width)?;
        let mask = (1u64 << width) - 1;
        Ok(Key {
            can_zero: can_zero & mask,
            can_one: can_one & mask,
            rank,
            width: width as u8,
        })
    }

    /// Bit width `B`.
    pub fn width(&self) -> usize {
        usize::from(self.width)
    }

    /// Rank in the total order on valid strings, as [`ValidString::rank`].
    pub fn rank(&self) -> u64 {
        self.rank
    }

    fn planes(&self) -> (u64, u64) {
        (self.can_zero, self.can_one)
    }

    fn push_to(&self, line: &mut String) {
        push_planes(line, self.can_zero, self.can_one, self.width());
    }
}

/// Appends the `width` characters spelled by two plane masks, MSB first;
/// a bit in neither plane (only ever in a broken output lane) shows as `?`.
fn push_planes(line: &mut String, can_zero: u64, can_one: u64, width: usize) {
    for shift in (0..width).rev() {
        line.push(match (can_zero >> shift & 1, can_one >> shift & 1) {
            (1, 0) => '0',
            (0, 1) => '1',
            (1, 1) => 'M',
            _ => '?',
        });
    }
}

/// Per byte, the planes of the trit it spells (bit 0: may read `0`,
/// bit 1: may read `1`), or `0` for a byte that is not a trit character —
/// [`Trit::from_char`]'s alphabet, tabulated.
const TRIT_BYTE_PLANES: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 128 {
        table[b] = match Trit::from_char(b as u8 as char) {
            Ok(Trit::Zero) => 0b01,
            Ok(Trit::One) => 0b10,
            Ok(Trit::Meta) => 0b11,
            Err(_) => 0,
        };
        b += 1;
    }
    table
};

impl FromStr for Key {
    type Err = InvalidStringError;

    /// Parses a token in one pass over its bytes; the width is the token
    /// length. Accepts and rejects exactly what `ValidString` does, with
    /// the same error.
    fn from_str(s: &str) -> Result<Key, InvalidStringError> {
        let (mut can_zero, mut can_one, mut bad) = (0u64, 0u64, false);
        // Table lookups, not a `match`: random key bytes would mispredict
        // a branch per character.
        for &b in s.as_bytes() {
            let planes = TRIT_BYTE_PLANES[usize::from(b)];
            bad |= planes == 0;
            can_zero = (can_zero << 1) | u64::from(planes & 1);
            can_one = (can_one << 1) | u64::from(planes >> 1);
        }
        if bad || s.len() > 63 {
            // The cold path: `ValidString` names the offending character
            // (it may be multi-byte) or the width.
            return s.parse::<ValidString>().map(|v| Key::from(&v));
        }
        Key::from_planes(can_zero, can_one, s.len())
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::with_capacity(self.width());
        self.push_to(&mut s);
        f.write_str(&s)
    }
}

impl From<&ValidString> for Key {
    fn from(v: &ValidString) -> Key {
        let (can_zero, can_one) = v.planes();
        Key {
            can_zero,
            can_one,
            rank: v.rank(),
            width: v.width() as u8,
        }
    }
}

/// A parsed `sort` request: opaque client id plus 1 ..= `channels` keys.
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct Request {
    /// Client token, echoed back verbatim on the response line.
    pub id: String,
    /// The keys to sort, in arrival order.
    pub keys: Vec<Key>,
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
            let mut keys = Vec::with_capacity(cfg.channels);
            for (index, tok) in tokens.enumerate() {
                let key: Key = tok.parse().map_err(|e| FrameError::BadKey {
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

/// Formats the `ok` response line for a served request, sized up front
/// (with room for the writer's newline) so it is built without regrowth.
pub fn format_ok(id: &str, sorted: &[Key]) -> String {
    let key_bytes: usize = sorted.iter().map(|k| 1 + k.width()).sum();
    let mut line = String::with_capacity(3 + id.len() + key_bytes + 1);
    line.push_str("ok ");
    line.push_str(id);
    for key in sorted {
        line.push(' ');
        key.push_to(&mut line);
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

    fn add_served(&self, requests: usize) {
        self.served.fetch_add(requests as u64, Ordering::Relaxed);
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

/// The serving wrapper of the verified [`Engine`]: the engine plus the
/// padding row that lets short requests share a plane with full ones.
/// Shared read-only across workers; each worker owns a scratch.
pub struct SortEngine {
    cfg: ServerConfig,
    engine: Engine,
    /// The maximum valid string — free channels of a short request are
    /// padded with it so the sorted prefix is exactly the request.
    pad: Key,
}

impl SortEngine {
    /// Builds the engine for `cfg` from the stock cell network (optimal
    /// table for small `n`, Batcher odd-even beyond) through
    /// [`Engine::for_cell`], verifying network and circuit before anything
    /// is served.
    ///
    /// # Errors
    ///
    /// See [`ServerError`]; nothing is served unless verification passes.
    pub fn new(cfg: ServerConfig) -> Result<SortEngine, ServerError> {
        validate(&cfg)?;
        let engine = Engine::for_cell(cfg.channels, cfg.width, cfg.kernel)?;
        SortEngine::with_engine(cfg, engine)
    }

    /// Builds the engine from an existing sorting netlist — e.g. an
    /// optimized golden or zoo artifact loaded via
    /// [`crate::artifact::load_netlist`] — through [`Engine::from_netlist`],
    /// which re-verifies it before it serves a single request.
    ///
    /// # Errors
    ///
    /// See [`ServerError`].
    pub fn from_netlist(
        cfg: ServerConfig,
        circuit: Netlist,
    ) -> Result<SortEngine, ServerError> {
        validate(&cfg)?;
        let engine = Engine::from_netlist(cfg.channels, cfg.width, cfg.kernel, circuit)?;
        SortEngine::with_engine(cfg, engine)
    }

    fn with_engine(cfg: ServerConfig, engine: Engine) -> Result<SortEngine, ServerError> {
        let pad = ValidString::stable(cfg.width, (1u64 << cfg.width) - 1).map_err(|e| {
            EngineError::UnsupportedCell {
                channels: cfg.channels,
                width: cfg.width,
                reason: e.to_string(),
            }
        })?;
        let pad = Key::from(&pad);
        Ok(SortEngine { cfg, engine, pad })
    }

    /// The configuration the engine was built for.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Allocates one worker's (or connection's) reusable scratch at
    /// [`PlaneWidth::default`] for the configured kernel backend.
    pub fn scratch(&self) -> TapeScratch {
        self.engine.scratch(PlaneWidth::default())
    }

    /// Sorts a coalesced batch: request `i` occupies lane `i` of one shared
    /// plane pass. Returns each request's keys in ascending order.
    ///
    /// Per-request results are a function of that request alone — lanes are
    /// independent in the word-parallel evaluator — which is the whole
    /// determinism contract: packing, worker count and kernel tier cannot
    /// change any response.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooManyKeys`] or [`FrameError::BadKey`] if a request
    /// does not fit the circuit (never for a parsed frame), and
    /// [`FrameError::Internal`] if the tape rejects the batch or an output
    /// lane is not a valid string — both impossible for a verified circuit.
    pub fn sort_batch(
        &self,
        requests: &[Request],
        scratch: &mut TapeScratch,
    ) -> Result<Vec<Vec<Key>>, FrameError> {
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
    ) -> Result<Vec<Vec<Key>>, FrameError> {
        let mut sorted = Vec::new();
        self.sort_lanes(requests, scratch, stats, &mut sorted)?;
        let mut rest = &sorted[..];
        Ok(requests
            .iter()
            .map(|r| {
                let (keys, tail) = rest.split_at(r.keys.len());
                rest = tail;
                keys.to_vec()
            })
            .collect())
    }

    /// The one serving core, shared by the worker and
    /// [`SortEngine::sort_batch_recording`]: see [`sort_groups`]. Nothing
    /// is appended to `sorted` unless the whole batch succeeds.
    fn sort_lanes<L: Lane>(
        &self,
        batch: &[L],
        scratch: &mut TapeScratch,
        stats: Option<&ServerStats>,
        sorted: &mut Vec<Key>,
    ) -> Result<(), FrameError> {
        sorted.clear();
        if batch.is_empty() {
            return Ok(());
        }
        let done = sort_groups(
            self.engine.tape(),
            scratch,
            batch,
            self.cfg.channels,
            self.pad,
            stats,
            sorted,
        );
        if done.is_err() {
            sorted.clear();
        }
        done
    }
}

/// Sorts `batch` through `tape` one plane group (`64 · W` lanes) at a
/// time, appending each lane's first `keys().len()` output channels to
/// `sorted`, lane after lane. Per 64-lane word, [`pack_lanes`] stages the
/// lanes' keys (and `pad` on free channels) in a port column that goes
/// straight into the tape's input registers; after the run, the output
/// registers' word is read back into the column and [`decode_lanes`]
/// gathers the keys. The pack and eval time of the whole batch is recorded
/// into `stats` (when given).
fn sort_groups<L: Lane>(
    tape: &EvalTape,
    scratch: &mut TapeScratch,
    batch: &[L],
    channels: usize,
    pad: Key,
    stats: Option<&ServerStats>,
    sorted: &mut Vec<Key>,
) -> Result<(), FrameError> {
    let width = pad.width();
    check_fit(batch, channels, width)?;
    let internal = |detail: String| FrameError::Internal { detail };
    let mut planes = tape
        .try_planes(scratch)
        .map_err(|e| internal(format!("tape rejected the batch: {e}")))?;
    let ports = channels * width;
    if (planes.input_count(), planes.output_count()) != (ports, ports) {
        return Err(internal(format!(
            "tape has {} inputs and {} outputs, batch needs {ports}",
            planes.input_count(),
            planes.output_count()
        )));
    }
    let mut col = Column {
        z: vec![0; ports],
        o: vec![0; ports],
    };
    let (mut pack, mut eval) = (Duration::ZERO, Duration::ZERO);
    let mut decoded = Ok(());
    'groups: for group in batch.chunks(64 * planes.words()) {
        let pack_start = Instant::now();
        let mut words = group.chunks(64);
        for k in 0..planes.words() {
            let lanes = words.next().unwrap_or_default();
            pack_lanes(lanes, pad, &mut col);
            // Lanes past the batch are stable 0.
            let unused = !TritWord::lane_mask(lanes.len());
            for (p, (&z, &o)) in col.z.iter().zip(&col.o).enumerate() {
                let (zs, os) = planes.input_mut(p);
                zs[k] = z | unused;
                os[k] = o;
            }
        }
        let eval_start = Instant::now();
        planes.run();
        pack += eval_start - pack_start;
        eval += eval_start.elapsed();
        for (k, lanes) in group.chunks(64).enumerate() {
            for (p, (z, o)) in col.z.iter_mut().zip(col.o.iter_mut()).enumerate() {
                let (zs, os) = planes.output(p);
                (*z, *o) = (zs[k], os[k]);
            }
            decoded = decode_lanes(lanes, width, &col, sorted);
            if decoded.is_err() {
                break 'groups;
            }
        }
    }
    if let Some(stats) = stats {
        stats.pack.record(nanos_u64(pack));
        stats.eval.record(nanos_u64(eval));
    }
    decoded
}

/// What the serving core reads of one lane of a batch: a parsed
/// [`Request`] or a queued [`Job`], so the worker never copies its jobs.
trait Lane {
    fn id(&self) -> &str;
    fn keys(&self) -> &[Key];
}

impl Lane for Request {
    fn id(&self) -> &str {
        &self.id
    }

    fn keys(&self) -> &[Key] {
        &self.keys
    }
}

impl Lane for Job {
    fn id(&self) -> &str {
        &self.id
    }

    fn keys(&self) -> &[Key] {
        &self.keys
    }
}

/// One 64-lane word of every port: `z[p]`, `o[p]` are the two planes of
/// port `p`. Port `c·B + b` carries bit `b` (MSB first) of channel `c`,
/// for the tape's inputs and outputs alike, so one lane's ports sit side
/// by side.
#[derive(Debug)]
struct Column {
    z: Vec<u64>,
    o: Vec<u64>,
}

/// Refuses a batch that does not fit the circuit: more keys than
/// channels, or a key of another width. Checked before anything is packed.
fn check_fit<L: Lane>(batch: &[L], channels: usize, width: usize) -> Result<(), FrameError> {
    for l in batch {
        let keys = l.keys();
        if keys.len() > channels {
            return Err(FrameError::TooManyKeys {
                got: keys.len(),
                max: channels,
            });
        }
        if let Some((index, key)) = keys.iter().enumerate().find(|(_, k)| k.width() != width) {
            return Err(FrameError::BadKey {
                index,
                detail: format!(
                    "\"{key}\" has width {}, server sorts width {width}",
                    key.width()
                ),
            });
        }
    }
    Ok(())
}

/// The pack stage of one 64-lane word: writes each lane's keys, then `pad`
/// on its free channels, into `col`. `lanes` fit the circuit
/// ([`check_fit`]) and number at most 64; ports of absent lanes stay 0.
fn pack_lanes<L: Lane>(lanes: &[L], pad: Key, col: &mut Column) {
    let width = pad.width();
    col.z.fill(0);
    col.o.fill(0);
    for (j, l) in lanes.iter().enumerate() {
        let keys = l.keys();
        let channels = col
            .z
            .chunks_exact_mut(width)
            .zip(col.o.chunks_exact_mut(width));
        for (c, (zc, oc)) in channels.enumerate() {
            let (kz, ko) = keys.get(c).copied().unwrap_or(pad).planes();
            // The last port of a channel carries its least significant bit.
            for (shift, (zp, op)) in zc.iter_mut().zip(oc.iter_mut()).rev().enumerate() {
                *zp |= (kz >> shift & 1) << j;
                *op |= (ko >> shift & 1) << j;
            }
        }
    }
}

/// The decode stage of one 64-lane word: gathers each lane's first
/// `keys().len()` output channels from `col` into keys, each checked by
/// the valid-string rule. A lane that is not a valid string fails the
/// batch with [`FrameError::Internal`].
fn decode_lanes<L: Lane>(
    lanes: &[L],
    width: usize,
    col: &Column,
    sorted: &mut Vec<Key>,
) -> Result<(), FrameError> {
    for (j, l) in lanes.iter().enumerate() {
        let channels = col.z.chunks_exact(width).zip(col.o.chunks_exact(width));
        for (c, (zc, oc)) in channels.take(l.keys().len()).enumerate() {
            let gather =
                |plane: &[u64]| plane.iter().fold(0u64, |key, p| (key << 1) | (p >> j & 1));
            let (kz, ko) = (gather(zc), gather(oc));
            let key = Key::from_planes(kz, ko, width).map_err(|e| {
                let mut bits = String::new();
                push_planes(&mut bits, kz, ko, width);
                FrameError::Internal {
                    detail: format!(
                        "output channel {c} of request {:?} is not a valid \
                         string ({bits}): {e}",
                        l.id()
                    ),
                }
            })?;
            sorted.push(key);
        }
    }
    Ok(())
}

/// Checks the serving fields; the cell itself is the engine's to check.
fn validate(cfg: &ServerConfig) -> Result<(), ServerError> {
    let bad = |reason: String| Err(ServerError::BadConfig { reason });
    if cfg.max_batch == 0 {
        return bad("max_batch must be positive".into());
    }
    if cfg.queue_depth == 0 {
        return bad("queue_depth must be positive".into());
    }
    if cfg.max_frame_bytes == 0 {
        return bad("max_frame_bytes must be positive".into());
    }
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
    pub keys: Vec<Key>,
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

/// The worker loop: drain plane batches, sort, route responses. Shared by
/// both serving modes. All timing here is observational: the responses
/// are byte-identical whether or not anyone ever reads the histograms.
///
/// A panic while sorting a batch is caught here: every request of that
/// batch is answered `internal` and counted as rejected, the scratch it may
/// have left half-written is rebuilt, and the worker keeps draining, so the
/// connection writer never waits on a reply that cannot come.
fn worker_loop(engine: &SortEngine, queue: &CoalescerQueue, stats: &ServerStats) {
    let mut scratch = engine.scratch();
    let mut sorted = Vec::new();
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
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            if live.iter().any(|job| job.id == tests::WORKER_PANIC_ID) {
                panic!("injected worker panic");
            }
            engine.sort_lanes(&live, &mut scratch, Some(stats), &mut sorted)
        }))
        .unwrap_or_else(|_| {
            scratch = engine.scratch();
            Err(FrameError::Internal {
                detail: "worker panicked while sorting the batch".into(),
            })
        });
        match outcome {
            Ok(()) => {
                // Counted per outcome, like `rejected`: served + rejected
                // adds up to the frames received.
                stats.add_served(live.len());
                let mut rest = &sorted[..];
                for job in &live {
                    let (keys, tail) = rest.split_at(job.keys.len());
                    rest = tail;
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
/// making output bytes independent of worker scheduling. Each line goes
/// out as one buffer with its newline, and `out` is flushed whenever no
/// further reply is ready, so a buffered `out` costs one write per burst
/// rather than per line, and a lone reply is never held back. Closes out
/// the `write` stage (writer-channel latency) and, for lines that went
/// through the queue, the `e2e` stage (submit → written to `out`).
fn writer_loop<W: Write>(
    rx: Receiver<(u64, Reply)>,
    mut out: W,
    stats: &ServerStats,
) -> std::io::Result<()> {
    // Min-heap on seq via Reverse.
    let mut pending: BinaryHeap<std::cmp::Reverse<PendingReply>> =
        BinaryHeap::new();
    let mut next = 0u64;
    loop {
        let (seq, reply) = match rx.try_recv() {
            Ok(msg) => msg,
            Err(TryRecvError::Empty) => {
                out.flush()?;
                match rx.recv() {
                    Ok(msg) => msg,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        #[cfg(test)]
        if reply.line.contains(tests::WRITER_PANIC_ID) {
            panic!("injected writer panic");
        }
        pending.push(std::cmp::Reverse(PendingReply { seq, reply }));
        while pending.peek().is_some_and(|r| r.0.seq == next) {
            let Some(std::cmp::Reverse(PendingReply { mut reply, .. })) = pending.pop() else {
                break;
            };
            reply.line.push('\n');
            out.write_all(reply.line.as_bytes())?;
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
/// Frames rejected here count into `stats` (the workers count the rest),
/// which also answers
/// any `stats` frame on the stream with a mid-serve snapshot line.
/// `after_input` runs once the input is exhausted (EOF, shutdown frame, or
/// a torn read), *before* the writer is waited on — stdin mode closes the
/// queue there so a pending partial plane drains immediately instead of
/// waiting out its linger. Returns whether a shutdown frame was seen.
fn pump_connection<R: BufRead, W: Write + Send>(
    engine: &SortEngine,
    queue: &CoalescerQueue,
    stats: &ServerStats,
    mut input: R,
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
        // One line buffer for the whole connection; lines end as for
        // `BufRead::lines` (`\n`, or `\r\n`).
        let mut buf = String::new();
        loop {
            buf.clear();
            match input.read_line(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => {
                    // A torn read ends the connection; everything already
                    // submitted still drains through the writer.
                    read_err = Some(e);
                    break;
                }
            }
            let line = match buf.strip_suffix('\n') {
                Some(line) => line.strip_suffix('\r').unwrap_or(line),
                None => &buf,
            };
            match parse_frame(line, &engine.cfg) {
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
                    if let Err((job, e)) = submitted {
                        reject(seq, &job.id, &e, &tx);
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
        writer.join().map_err(|_| ServerError::WriterPanicked)
    });
    write_result??;
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
                    BufWriter::new(stream),
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

    /// A request id whose response makes the writer thread panic: the
    /// test-only trigger of [`ServerError::WriterPanicked`].
    pub(super) const WRITER_PANIC_ID: &str = "panic-the-writer";

    /// A request id whose batch makes the worker panic mid-sort: the
    /// test-only trigger of the worker's `catch_unwind`.
    pub(super) const WORKER_PANIC_ID: &str = "panic-the-worker";

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
        for (channels, width) in [(1, 2), (4, 0), (4, crate::engine::MAX_WIDTH + 1)] {
            let err = SortEngine::new(ServerConfig::new(channels, width))
                .err()
                .expect("must be rejected");
            assert!(
                matches!(err, ServerError::Engine(EngineError::UnsupportedCell { .. })),
                "{err}"
            );
        }
        let mut cfg = cfg4x2();
        cfg.max_batch = 0;
        assert!(matches!(
            SortEngine::new(cfg),
            Err(ServerError::BadConfig { .. })
        ));
    }

    #[test]
    fn engine_rejects_a_non_sorting_netlist() {
        let mut n = Netlist::new("identity");
        let ins: Vec<_> =
            (0..4).map(|i| n.input(format!("ch{i}_b0"))).collect();
        for (i, &node) in ins.iter().enumerate() {
            n.set_output(format!("out{i}_b0"), node);
        }
        let err = SortEngine::from_netlist(ServerConfig::new(4, 1), n)
            .err()
            .expect("identity must be rejected");
        assert!(
            matches!(err, ServerError::Engine(EngineError::Circuit(_))),
            "{err}"
        );
    }

    #[test]
    fn a_writer_panic_is_a_typed_error() {
        let engine = SortEngine::new(cfg4x2()).unwrap();
        let input = format!("sort r1 00 11\nsort {WRITER_PANIC_ID} 11 00\nsort r3 0M\n");
        let mut out = Vec::new();
        match serve_lines(&engine, input.as_bytes(), &mut out) {
            Err(ServerError::WriterPanicked) => {}
            other => panic!("expected WriterPanicked, got {other:?}"),
        }
        assert_eq!(
            ServerError::WriterPanicked.to_string(),
            "response writer thread panicked"
        );
        // Without the trigger id the same stream serves normally.
        let mut out = Vec::new();
        serve_lines(&engine, "sort r1 00 11\nsort r3 0M\n".as_bytes(), &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 2);
    }

    /// A worker panic fails only its own batch: with one request per
    /// batch, the trigger is answered `internal`, every other response of
    /// the committed mixed request file is byte-identical to its golden,
    /// and `served + rejected` still adds up to the frames received.
    #[test]
    fn a_worker_panic_fails_only_its_batch() {
        let requests = include_str!("../../../tests/golden/server_requests.txt");
        let golden = include_str!("../../../tests/golden/server_responses.golden");
        let (head, tail) = requests.split_at(requests.find("sort q12").unwrap());
        let input = format!("{head}sort {WORKER_PANIC_ID} 11 00\n{tail}");
        let frames = golden.lines().count() as u64 + 1;
        let q12 = golden
            .lines()
            .position(|l| l.starts_with("ok q12 "))
            .unwrap();
        for workers in [1, 4] {
            let mut cfg = cfg4x2();
            cfg.workers = workers;
            cfg.max_batch = 1;
            let engine = SortEngine::new(cfg).unwrap();
            // An uncaught panic leaves the writer waiting forever on the
            // lost replies, so serve on a thread and fail on a deadline.
            let (done, result) = channel();
            let input = input.clone();
            std::thread::spawn(move || {
                let mut out = Vec::new();
                let report = serve_lines(&engine, input.as_bytes(), &mut out);
                let _ = done.send(report.map(|r| (r, out)));
            });
            let (report, out) = result
                .recv_timeout(Duration::from_secs(60))
                .expect("serving hung after a worker panic")
                .unwrap();
            let out = String::from_utf8(out).unwrap();
            let mut lines: Vec<&str> = out.lines().collect();
            let panicked = lines.remove(q12);
            assert!(
                panicked.starts_with(&format!("err {WORKER_PANIC_ID} internal ")),
                "{panicked}"
            );
            let want: Vec<&str> = golden.lines().collect();
            assert_eq!(lines, want, "workers={workers}");
            assert_eq!(report.served + report.rejected, frames, "workers={workers}");
        }
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

    /// Every string of `{0,1,M}^w` for `w ≤ 8`: `Key` parsing accepts
    /// exactly the valid strings, with their rank and spelling, rejects the
    /// rest with `ValidString`'s own error, and every accepted key survives
    /// pack → identity planes → decode.
    #[test]
    fn key_codec_is_exhaustive_up_to_width_8() {
        for w in 1..=8usize {
            let valid: std::collections::HashMap<String, u64> = (0..ValidString::count(w))
                .map(|r| (ValidString::from_rank(w, r).unwrap().to_string(), r))
                .collect();
            let mut keys = Vec::new();
            for n in 0..3usize.pow(w as u32) {
                let s: String = (0..w)
                    .rev()
                    .map(|i| ['0', '1', 'M'][n / 3usize.pow(i as u32) % 3])
                    .collect();
                match s.parse::<Key>() {
                    Ok(key) => {
                        assert_eq!(valid.get(&s), Some(&key.rank()), "{s}");
                        assert_eq!((key.width(), key.to_string()), (w, s.clone()));
                        let v: ValidString = s.parse().unwrap();
                        assert_eq!(Key::from(&v), key);
                        keys.push(key);
                    }
                    Err(e) => {
                        assert!(!valid.contains_key(&s), "{s} rejected: {e}");
                        assert_eq!(s.parse::<ValidString>().err(), Some(e), "{s}");
                    }
                }
            }
            assert_eq!(keys.len(), valid.len(), "width {w}");

            // Tokens one bit short or long are refused by the frame parser.
            let mut cfg = ServerConfig::new(3, w);
            cfg.workers = 1;
            for other in [w - 1, w + 1].into_iter().filter(|&o| o > 0) {
                let line = format!("sort r {} {}", keys[0], "0".repeat(other));
                let e = parse_frame(&line, &cfg).unwrap_err();
                assert_eq!(e.code(), "bad-key", "{line}");
                assert!(e.to_string().contains(&format!("has width {other}")), "{e}");
            }

            // Three keys per lane (the last lane shorter, so padded); from
            // width 7 up the batch spans more than one plane word.
            let requests: Vec<Request> = keys
                .chunks(3)
                .map(|k| Request {
                    id: String::new(),
                    keys: k.to_vec(),
                })
                .collect();
            let pad = Key::from(&ValidString::stable(w, (1 << w) - 1).unwrap());
            let mut col = Column {
                z: vec![0; 3 * w],
                o: vec![0; 3 * w],
            };
            let mut decoded = Vec::new();
            for lanes in requests.chunks(64) {
                pack_lanes(lanes, pad, &mut col);
                for (j, r) in lanes.iter().enumerate() {
                    let padded = r.keys.iter().chain(std::iter::repeat(&pad));
                    for (c, key) in padded.take(3).enumerate() {
                        let bits: String = (0..w)
                            .map(|b| {
                                let p = c * w + b;
                                let unused = !TritWord::lane_mask(lanes.len());
                                TritWord::from_planes(col.z[p] | unused, col.o[p])
                                    .lane(j)
                                    .to_string()
                            })
                            .collect();
                        assert_eq!(bits, key.to_string());
                    }
                }
                decode_lanes(lanes, w, &col, &mut decoded).unwrap();
            }
            assert_eq!(decoded, keys, "width {w}");
            // The same through the registers of an identity tape, one
            // 64-lane group at a time.
            let mut identity = Netlist::new("identity");
            for p in 0..3 * w {
                let i = identity.input(format!("i{p}"));
                identity.set_output(format!("o{p}"), i);
            }
            let tape = EvalTape::compile(&identity);
            let mut scratch = tape
                .try_scratch(PlaneWidth::X1, kernel::preferred())
                .unwrap();
            decoded.clear();
            sort_groups(&tape, &mut scratch, &requests, 3, pad, None, &mut decoded).unwrap();
            assert_eq!(decoded, keys, "width {w}");
        }
    }

    #[test]
    fn key_parse_errors_match_valid_string() {
        for s in [
            "",
            "Z",
            "0é",
            "00000é00",
            "mX",
            "0M00",
            "1M11",
            "0MM0",
            "0000000x",
            &"0".repeat(63),
            &"0".repeat(64),
            &"M".repeat(64),
            &"1".repeat(65),
            &format!("{}Z", "0".repeat(70)),
            &format!("0M{}", "0".repeat(61)),
        ] {
            let key = s.parse::<Key>();
            let valid = s.parse::<ValidString>();
            assert_eq!(key.as_ref().err(), valid.as_ref().err(), "{s:?}");
            if let (Ok(key), Ok(valid)) = (key, valid) {
                assert_eq!(key, Key::from(&valid), "{s:?}");
            }
        }
        // The byte table spells `Trit::from_char`'s alphabet exactly.
        for b in 0..128u8 {
            let s = format!("1{}", char::from(b));
            let key = s.parse::<Key>();
            assert_eq!(
                key,
                s.parse::<ValidString>().map(|v| Key::from(&v)),
                "{s:?}"
            );
        }
    }

    /// Output lanes the valid-string rule refuses fail the batch with a
    /// typed `internal` error, never a wrong answer.
    #[test]
    fn decode_refuses_invalid_output_lanes() {
        let request = Request {
            id: "r".into(),
            keys: vec!["0000".parse().unwrap()],
        };
        // (can_zero, can_one) of one 4-bit lane: two Ms, a non-adjacent M,
        // an unencoded bit.
        for (z, o, shown) in [
            (0b1111u64, 0b1100u64, "MM00"),
            (0b1111, 0b0100, "0M00"),
            (0b1011, 0b0010, "0?M0"),
        ] {
            let col = Column {
                z: (0..4).map(|b| z >> (3 - b) & 1).collect(),
                o: (0..4).map(|b| o >> (3 - b) & 1).collect(),
            };
            let mut decoded = Vec::new();
            let e =
                decode_lanes(std::slice::from_ref(&request), 4, &col, &mut decoded).unwrap_err();
            assert_eq!(e.code(), "internal");
            assert!(e.to_string().contains(&format!("({shown})")), "{e}");
        }
    }

    #[test]
    fn sort_batch_refuses_requests_that_do_not_fit() {
        let engine = SortEngine::new(cfg4x2()).unwrap();
        let mut scratch = engine.scratch();
        let request = |keys: &[&str]| Request {
            id: "r".into(),
            keys: keys.iter().map(|k| k.parse().unwrap()).collect(),
        };
        let too_many = request(&["00", "00", "00", "00", "00"]);
        assert_eq!(
            engine.sort_batch(&[too_many], &mut scratch),
            Err(FrameError::TooManyKeys { got: 5, max: 4 })
        );
        let e = engine
            .sort_batch(&[request(&["00", "000"])], &mut scratch)
            .unwrap_err();
        assert_eq!(e.code(), "bad-key");
        assert_eq!(
            engine.sort_batch(&[request(&[])], &mut scratch),
            Ok(vec![vec![]])
        );
    }

    #[test]
    fn stats_line_and_json_carry_every_stage() {
        let stats = ServerStats::new(3, KernelId::Scalar);
        stats.add_served(2);
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
    fn stats_json_bytes_are_pinned() {
        let stats = ServerStats::new(4, KernelId::Avx2);
        stats.add_served(5);
        stats.add_rejected();
        stats.add_rejected();
        stats.add_batch();
        stats.add_batch();
        stats.add_batch();
        for ns in [0, 2_500, 70_000] {
            stats.queue.record(ns);
        }
        stats.coalesce.record(1_999_999);
        stats.pack.record(12_345);
        stats.eval.record(4_000);
        stats.eval.record(6_000);
        stats.write.record(800);
        stats.e2e.record(9_000_000);
        // The bytes the per-field emitter wrote before the shared writer.
        let want = r#"{
  "schema": "mcs-serverstats-v1",
  "served": 5,
  "rejected": 2,
  "batches": 3,
  "workers": 4,
  "kernel": "avx2",
  "stages": {
    "queue": {
      "count": 3,
      "p50_us": 4,
      "p90_us": 70,
      "p99_us": 70,
      "p999_us": 70,
      "max_us": 70,
      "mean_us": 24
    },
    "coalesce": {
      "count": 1,
      "p50_us": 1999,
      "p90_us": 1999,
      "p99_us": 1999,
      "p999_us": 1999,
      "max_us": 1999,
      "mean_us": 1999
    },
    "pack": {
      "count": 1,
      "p50_us": 12,
      "p90_us": 12,
      "p99_us": 12,
      "p999_us": 12,
      "max_us": 12,
      "mean_us": 12
    },
    "eval": {
      "count": 2,
      "p50_us": 4,
      "p90_us": 6,
      "p99_us": 6,
      "p999_us": 6,
      "max_us": 6,
      "mean_us": 5
    },
    "write": {
      "count": 1,
      "p50_us": 0,
      "p90_us": 0,
      "p99_us": 0,
      "p999_us": 0,
      "max_us": 0,
      "mean_us": 0
    },
    "e2e": {
      "count": 1,
      "p50_us": 9000,
      "p90_us": 9000,
      "p99_us": 9000,
      "p999_us": 9000,
      "max_us": 9000,
      "mean_us": 9000
    }
  }
}
"#;
        assert_eq!(stats_json(&stats.snapshot()), want);
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
