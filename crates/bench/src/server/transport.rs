//! The serving pipeline: worker loop, re-sequencing writer, connection
//! pump, and the two serving modes.
//!
//! Hand-offs are per plane, not per request:
//!
//! * a reader's submit wakes a worker only when it starts a linger clock or
//!   completes a plane (see [`CoalescerQueue`] for when a partial plane
//!   leaves), and attaches the connection's writer to the plane once per
//!   run of the connection's jobs in it;
//! * a worker takes a plane by swapping buffers with the queue, records
//!   its queue waits into a local histogram merged once per plane, and
//!   sends each connection of the plane one [`Reply`] per run of
//!   consecutive response lines, through the route the plane carries for
//!   the run's first job;
//! * a writer records the `write` stage of each run it writes with one
//!   call, and its `e2e` values into a local histogram merged once.

use std::collections::BinaryHeap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::time::Instant;

use super::codec::{
    bytes_equal, check_frame_len, format_err, ok_len, parse_line, push_ok, Parsed, SortEngine,
};
use super::queue::{CoalescerQueue, InlineVec, Job, JobKeys, Plane, Reply};
use super::stats::{format_stats_line, ServeReport, ServerStats};
use super::{FrameError, ServerError};
use crate::engine::{resolve_workers, PortTiles};
use crate::metrics::{millis_u64, nanos_u64, LatencyHistogram};

/// The worker loop: drain plane batches, sort, route responses. Shared by
/// both serving modes. All timing here is observational: the responses
/// are byte-identical whether or not anyone ever reads the histograms.
///
/// A panic while sorting a batch is caught here: every request of that
/// batch is answered `internal` and counted as rejected, the scratch it may
/// have left half-written is rebuilt, and the worker keeps draining, so the
/// connection writer never waits on a reply that cannot come.
pub(super) fn worker_loop(engine: &SortEngine, queue: &CoalescerQueue, stats: &ServerStats) {
    // Reused plane after plane: the tape scratch and port tiles, the sorted
    // keys and the popped plane.
    let (mut scratch, mut tiles) = (engine.scratch(), PortTiles::default());
    let (mut sorted, mut plane) = (Vec::new(), Plane::default());
    while queue.next_batch_into(&mut plane) {
        let popped = Instant::now();
        stats.add_batch();
        let (batch, routes) = (&mut plane.jobs, &plane.routes);
        // Coalesce latency: how long this plane spent filling, measured
        // from its oldest member. Queue wait is per job, gathered locally
        // and merged once per plane.
        if let Some(oldest) = batch.iter().map(|job| job.enqueued).min() {
            stats
                .coalesce
                .record(nanos_u64(popped.duration_since(oldest)));
        }
        let mut waits = LatencyHistogram::new();
        for job in batch.iter() {
            waits.record(nanos_u64(popped.duration_since(job.enqueued)));
        }
        stats.queue.merge(&waits);
        // Expire requests that waited past their deadline before burning
        // plane lanes on them: a stable sort moves them behind the live
        // ones.
        let timeout = engine.cfg.request_timeout;
        let late = |job: &Job| timeout.is_some_and(|t| popped.duration_since(job.enqueued) > t);
        if batch.iter().any(late) {
            batch.sort_by_key(late);
        }
        let (live, expired) = batch.split_at(batch.partition_point(|job| !late(job)));
        let outcome = if live.is_empty() {
            Ok(())
        } else {
            catch_unwind(AssertUnwindSafe(|| {
                #[cfg(test)]
                if live
                    .iter()
                    .any(|job| job.id() == super::tests::WORKER_PANIC_ID)
                {
                    panic!("injected worker panic");
                }
                engine.sort_lanes(live, &mut scratch, &mut tiles, Some(stats), &mut sorted)
            }))
            .unwrap_or_else(|_| {
                scratch = engine.scratch();
                Err(FrameError::Internal {
                    detail: "worker panicked while sorting the batch".into(),
                })
            })
        };
        // Counted per outcome: served + rejected adds up to the frames
        // received. A failed batch answers every live request `internal`.
        let served = if outcome.is_ok() { live.len() } else { 0 };
        stats.add_served(served);
        for _ in served..batch.len() {
            stats.add_rejected();
        }
        let mut keys = &sorted[..];
        send_replies(live, routes, |job, text| match &outcome {
            Ok(()) => {
                let (mine, rest) = keys.split_at(job.keys.len());
                keys = rest;
                push_ok(text, job.id.as_slice(), mine);
            }
            Err(e) => text.extend_from_slice(format_err(job.id(), e).as_bytes()),
        });
        send_replies(expired, routes, |job, text| {
            let e = FrameError::Timeout {
                waited_ms: millis_u64(popped.duration_since(job.enqueued)),
            };
            text.extend_from_slice(format_err(job.id(), &e).as_bytes());
        });
    }
}

/// Sends the responses of `batch` to their connections' writers, at each
/// job's [`Job::route`] in `routes`, one [`Reply`] per run of jobs of one
/// connection with consecutive sequence numbers. A run ends where the
/// connection changes or a sequence number is missing (its line comes
/// from elsewhere, e.g. a reader-side reject). `line` appends a job's
/// response line, without newline, in batch order.
pub(super) fn send_replies(
    batch: &[Job],
    routes: &[Sender<Reply>],
    mut line: impl FnMut(&Job, &mut Vec<u8>),
) {
    let mut rest = batch;
    while let Some(head) = rest.first() {
        let run = 1 + rest
            .windows(2)
            .take_while(|w| w[1].conn == w[0].conn && w[1].seq == w[0].seq + 1)
            .count();
        let (jobs, tail) = rest.split_at(run);
        rest = tail;
        // Exact for `ok` lines: a request's sorted keys spell as long as
        // its own.
        let bytes = jobs
            .iter()
            .map(|j| ok_len(j.id.as_slice(), j.keys()) + 1)
            .sum();
        let mut text = Vec::with_capacity(bytes);
        for job in jobs {
            line(job, &mut text);
            text.push(b'\n');
        }
        let sent = Instant::now();
        let mut ages = InlineVec::with_capacity(run);
        for job in jobs {
            ages.push(nanos_u64(sent.duration_since(job.enqueued)));
        }
        debug_assert!(head.route < routes.len(), "a plane lost its route");
        if let Some(tx) = routes.get(head.route) {
            // A writer gone (its connection failed) has nobody to answer.
            let _ = tx.send(Reply {
                seq: head.seq,
                lines: run,
                text,
                ages,
                sent,
            });
        }
    }
}

/// A run in the writer's re-sequencing heap, ordered by its first sequence
/// number alone (the payload carries timing stamps that must not affect
/// order; runs never overlap).
struct PendingReply(Reply);

impl PartialEq for PendingReply {
    fn eq(&self, other: &PendingReply) -> bool {
        self.0.seq == other.0.seq
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
        self.0.seq.cmp(&other.0.seq)
    }
}

/// Re-sequencing response writer: runs of response lines arrive keyed by
/// the reader's per-connection sequence number of their first line and are
/// written in exactly that order, making output bytes independent of
/// worker scheduling. Each run goes out as one buffer, and `out` is flushed
/// whenever no further run is ready, so a buffered `out` costs one write
/// per burst rather than per line, and a lone reply is never held back.
/// With one clock reading per run it closes out, per line, the `write`
/// stage (writer-channel latency) and, for lines that went through the
/// queue, the `e2e` stage (submit → written to `out`), see [`record_run`].
pub(super) fn writer_loop<W: Write>(
    rx: Receiver<Reply>,
    mut out: W,
    stats: &ServerStats,
) -> io::Result<()> {
    // Min-heap on seq via Reverse.
    let mut pending: BinaryHeap<std::cmp::Reverse<PendingReply>> = BinaryHeap::new();
    let mut next = 0u64;
    loop {
        let reply = match rx.try_recv() {
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
        if reply
            .text
            .windows(super::tests::WRITER_PANIC_ID.len())
            .any(|w| w == super::tests::WRITER_PANIC_ID.as_bytes())
        {
            panic!("injected writer panic");
        }
        pending.push(std::cmp::Reverse(PendingReply(reply)));
        while pending.peek().is_some_and(|r| r.0 .0.seq == next) {
            let Some(std::cmp::Reverse(PendingReply(reply))) = pending.pop() else {
                break;
            };
            out.write_all(&reply.text)?;
            record_run(stats, &reply);
            next += reply.lines as u64;
        }
    }
    debug_assert!(pending.is_empty(), "writer lost a sequence number");
    out.flush()
}

/// Closes out the stages of `reply`'s lines, just written, with one clock
/// reading: `write` (sent → written), the same value for every line, and
/// `e2e` for each line that went through the queue, its queue time at
/// `sent` plus the `write` value, gathered locally and merged once.
fn record_run(stats: &ServerStats, reply: &Reply) {
    let write = nanos_u64(reply.sent.elapsed());
    stats.write.record_n(write, reply.lines as u64);
    let mut e2e = LatencyHistogram::new();
    for &age in reply.ages.as_slice() {
        e2e.record(write.saturating_add(age));
    }
    stats.e2e.merge(&e2e);
}

/// The index of the first `\n` in `bytes`, tested 8 bytes at a time.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    for (i, word) in words.enumerate() {
        let word = <[u8; 8]>::try_from(word).map_or(0, u64::from_le_bytes);
        let hits = bytes_equal(word, b'\n');
        if hits != 0 {
            return Some(8 * i + hits.trailing_zeros() as usize / 8);
        }
    }
    let start = bytes.len() - tail.len();
    tail.iter().position(|&b| b == b'\n').map(|i| start + i)
}

/// Reads one line of `input` into `line`, keeping at most `keep` bytes of
/// it and discarding the rest up to its newline, so a line of any length
/// costs at most `keep` bytes of buffer. Lines end as for
/// `BufRead::lines` (`\n`, or `\r\n`). Returns the length of the whole
/// line without its line ending, or `None` at the end of input.
pub(super) fn read_bounded_line<R: BufRead>(
    input: &mut R,
    line: &mut Vec<u8>,
    keep: usize,
) -> io::Result<Option<usize>> {
    line.clear();
    let (mut len, mut last, mut ended) = (0usize, None, false);
    while !ended {
        let chunk = match input.fill_buf() {
            Ok([]) => break,
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let (body, used) = match find_newline(chunk) {
            Some(i) => {
                ended = true;
                (&chunk[..i], i + 1)
            }
            None => (chunk, chunk.len()),
        };
        let room = keep.saturating_sub(line.len()).min(body.len());
        line.extend_from_slice(&body[..room]);
        len += body.len();
        last = body.last().copied().or(last);
        input.consume(used);
    }
    if !ended && len == 0 {
        return Ok(None);
    }
    if ended && last == Some(b'\r') {
        len -= 1;
        line.truncate(len);
    }
    Ok(Some(len))
}

/// Serves one line stream (stdin mode, or one accepted socket) as
/// connection `conn`: parse frames straight into jobs, submit them, and
/// deliver re-sequenced responses to `output`. Lines are read with a
/// buffer bounded by `max_frame_bytes`; a longer one is refused
/// `oversized` by its length alone. Frames rejected here count into
/// `stats` (the workers count the rest), which also answers any `stats`
/// frame on the stream with a mid-serve snapshot line. `after_input` runs
/// once the input is exhausted (EOF, shutdown frame, or a torn read),
/// *before* the writer is waited on — stdin mode closes the queue there so
/// a pending partial plane drains immediately instead of waiting out its
/// linger. Returns whether a shutdown frame was seen.
#[allow(clippy::too_many_arguments)]
fn pump_connection<R: BufRead, W: Write + Send>(
    engine: &SortEngine,
    queue: &CoalescerQueue,
    stats: &ServerStats,
    conn: u64,
    mut input: R,
    output: W,
    blocking_submit: bool,
    after_input: impl FnOnce(),
) -> Result<bool, ServerError> {
    let cfg = &engine.cfg;
    let (tx, rx) = channel::<Reply>();
    let mut shutdown = false;
    let mut read_err: Option<io::Error> = None;
    let write_result = std::thread::scope(|s| {
        let writer = s.spawn(move || writer_loop(rx, output, stats));
        let mut seq = 0u64;
        let send = |seq: u64, line: &str| {
            let _ = tx.send(Reply::line(seq, line));
        };
        let reject = |seq: u64, id: &str, e: &FrameError| {
            stats.add_rejected();
            send(seq, &format_err(id, e));
        };
        // One line buffer for the whole connection, never longer than one
        // byte past the frame bound.
        let mut line = Vec::new();
        loop {
            let len = match read_bounded_line(
                &mut input,
                &mut line,
                cfg.max_frame_bytes.saturating_add(1),
            ) {
                Ok(Some(len)) => len,
                Ok(None) => break,
                Err(e) => {
                    // A torn read ends the connection; everything already
                    // submitted still drains through the writer.
                    read_err = Some(e);
                    break;
                }
            };
            if let Err(e) = check_frame_len(len, cfg) {
                reject(seq, "-", &e);
                seq += 1;
                continue;
            }
            let Ok(text) = std::str::from_utf8(&line) else {
                read_err = Some(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                ));
                break;
            };
            let mut keys = JobKeys::new();
            match parse_line(text, cfg, &mut keys) {
                Ok(Parsed::Blank) => {}
                Ok(Parsed::Shutdown { id }) => {
                    send(seq, &format!("ok {id} draining"));
                    shutdown = true;
                    break;
                }
                Ok(Parsed::Stats { id }) => {
                    // A racy-but-consistent mid-serve snapshot; the line
                    // holds its place in the response order like any
                    // other frame.
                    send(seq, &format_stats_line(id, &stats.snapshot()));
                    seq += 1;
                }
                Ok(Parsed::Sort { id }) => {
                    let job = Job::parsed(conn, seq, id, keys);
                    let submitted = if blocking_submit {
                        queue.submit_blocking(job, &tx)
                    } else {
                        queue.try_submit(job, &tx)
                    };
                    if let Err((job, e)) = submitted {
                        reject(seq, job.id(), &e);
                    }
                    seq += 1;
                }
                Err(e) => {
                    reject(seq, "-", &e);
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
        pump_connection(engine, &queue, &stats, 0, input, output, true, || {
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
pub fn serve_tcp(engine: &SortEngine, listener: TcpListener) -> Result<ServeReport, ServerError> {
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
        for conn in 0.. {
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
                    conn,
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
