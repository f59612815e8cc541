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
//!   per plane word, [`PlaneWidth::default`] words per pass). A partial
//!   plane leaves early when, at the measured arrival rate (a moving
//!   average of the gaps between arrivals), it cannot fill before its
//!   oldest request has lingered `max_linger`, and at the latest when it
//!   has: `max_linger` is a cap, not a wait. Saturating traffic gets full
//!   planes and throughput approaches the engine's streaming rate; sparse
//!   traffic gets small planes at once instead of waiting out the linger.
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
//! Between bytes and circuit the work is per plane, not per request, and a
//! request of the common shape costs no heap allocation:
//!
//! * The connection reader reads each line into one reused buffer that
//!   never holds more than one byte past `max_frame_bytes` (a longer line
//!   is refused `oversized` by its length alone) and parses it straight
//!   into a [`Job`], which holds the id and keys inline. A key token of up
//!   to 8 bytes is classified with one `u64` load into a `Copy` [`Key`]:
//!   two bit masks checked by [`valid_rank`], the same rule behind
//!   [`ValidString::new`].
//! * The [`CoalescerQueue`] is a deque of planes. A submit appends its job
//!   to the tail plane and attaches the connection's writer to that plane
//!   only when the plane's previous job is of another connection, so a run
//!   of one connection's jobs shares one sender clone; each job keeps its
//!   route's index, so no side searches the routes. A worker takes the
//!   front plane whole by swapping buffers under the lock, and the emptied
//!   buffers come back as spares for later tail planes.
//! * A submit wakes a worker only when it starts a linger clock, completes
//!   a plane, or forms the queue's first gap estimate and that estimate
//!   sends the pending plane off (the worker slept on no estimate); a
//!   worker that pops a plane and leaves jobs behind passes the wake on.
//! * One core serves both the workers and
//!   [`SortEngine::sort_batch_recording`]: per 64-lane word it spells each
//!   lane's keys and the pad key as one bit string, crosses lanes into
//!   ports with a 64×64 [`transpose_fields`] per 64-port tile (the port
//!   tiles the throughput pre-flight reads its sample through), evaluates
//!   the tape once per plane group, crosses the output ports back and
//!   reads each lane's keys under the same rule.
//! * A worker spells the responses of its batch straight into one buffer
//!   per connection and run of consecutive requests, and sends it as one
//!   [`Reply`] down the route its plane holds, with each line's queue time
//!   inline; the connection's writer re-sequences the runs and closes out
//!   each request's `write` and `e2e` stages with one clock reading per
//!   run.
//! * Stage accounting is per plane too: a worker gathers a plane's queue
//!   waits, and a writer its runs' `write` and `e2e` values, in a local
//!   histogram that is merged into the shared one in a single pass.
//!
//! Robustness is typed end to end: malformed frames, invalid strings,
//! oversized requests, overload, timeouts and shutdown are all
//! [`FrameError`] responses on the wire ([`ServerError`] covers setup and
//! I/O), and the serving loop itself never panics on input. A panic inside
//! a worker's batch is caught: that batch's requests are answered
//! `internal` and every other request is still served.
//!
//! [`Engine`]: crate::engine::Engine
//! [`EvalTape`]: mcs_netlist::EvalTape
//! [`TapeScratch`]: mcs_netlist::TapeScratch
//! [`transpose_fields`]: mcs_logic::transpose_fields
//! [`valid_rank`]: mcs_gray::valid::valid_rank
//! [`ValidString::new`]: mcs_gray::ValidString::new
//!
//! # Observability
//!
//! Every request is stamped with per-stage monotonic timings — queue wait,
//! coalesce/linger, plane pack (keys → plane words, per batch), tape eval,
//! re-sequence/write, end-to-end —
//! aggregated into allocation-free log₂-bucketed [`LatencyHistogram`]s
//! (gathered per plane or per reply run and merged into lock-free
//! relaxed atomics, see [`crate::metrics`]).
//! The aggregates surface three ways: the extended [`ServeReport`] returned
//! by [`serve_lines`]/[`serve_tcp`], a live `stats` control frame on the
//! wire, and the versioned [`stats_json`] blob (`mcs-serverstats-v1`) the
//! `sort_server` bin dumps via `--stats-json`. Timing is **observational
//! only**: responses carry no timestamps, so the byte-identical determinism
//! contract above is untouched.
//!
//! [`LatencyHistogram`]: crate::metrics::LatencyHistogram
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

mod codec;
mod queue;
mod stats;
#[cfg(test)]
mod tests;
mod transport;

use std::fmt;
use std::time::Duration;

use mcs_logic::plane::kernel::{self, KernelId};
use mcs_logic::PlaneWidth;

use crate::engine::EngineError;

pub use codec::{format_err, format_ok, parse_frame, Frame, Request, SortEngine};
pub use queue::{CoalescerQueue, Job, Reply};
pub use stats::{format_stats_line, stats_json, ServeReport, ServerStats, STATS_SCHEMA};
pub use transport::{serve_lines, serve_tcp};

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
    /// Cap on how long the oldest pending request may wait for its plane
    /// to fill before a partial plane is dispatched anyway. A partial plane
    /// that cannot fill in time at the measured arrival rate leaves before
    /// it: sparse traffic does not wait this long.
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
///
/// [`valid_rank`]: mcs_gray::valid::valid_rank
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct Key {
    can_zero: u64,
    can_one: u64,
    rank: u64,
    width: u8,
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
