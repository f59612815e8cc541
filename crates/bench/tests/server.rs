//! Contract tests of the serving layer: framing edge cases, coalescing
//! semantics, backpressure, and — above all — the determinism criterion:
//! per-request responses are a pure function of the request, never of
//! batch packing, worker count, kernel tier or arrival interleaving.
//!
//! The ground truth is independent of the circuit: a request's `ok` line
//! must carry its keys sorted ascending by Gray rank (padding with the
//! maximum valid string makes the first `k` outputs exactly the `k` keys).

use std::io::Cursor;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use mcs_bench::artifact::load_netlist;
use mcs_bench::engine::EngineError;
use mcs_bench::verify::CircuitVerifyError;
use mcs_bench::server::{
    format_err, serve_lines, serve_tcp, stats_json, CoalescerQueue,
    FrameError, Job, Key, Request, ServeReport, ServerConfig, ServerError,
    SortEngine, STATS_SCHEMA,
};
use mcs_gray::ValidString;
use mcs_logic::plane::kernel::{self, KernelId, UnknownKernel};

/// Deterministic splitmix64 (no RNG deps in the workspace).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn engine(cfg: ServerConfig) -> SortEngine {
    SortEngine::new(cfg).expect("engine builds")
}

/// Runs stdin-mode serving over an in-memory pipe and returns
/// `(stdout, report)`.
fn run_lines(engine: &SortEngine, input: &str) -> (String, ServeReport) {
    let mut out = Vec::new();
    let report = serve_lines(engine, Cursor::new(input.as_bytes()), &mut out)
        .expect("serve_lines");
    (String::from_utf8(out).expect("utf-8 output"), report)
}

/// The request-independent ground truth for one `sort` line.
fn expected_ok(id: &str, keys: &[&str]) -> String {
    let mut parsed: Vec<ValidString> =
        keys.iter().map(|k| k.parse().unwrap()).collect();
    parsed.sort_by_key(|k| k.rank());
    let mut line = format!("ok {id}");
    for k in parsed {
        line.push(' ');
        line.push_str(&k.to_string());
    }
    line
}

/// A deterministic mixed-size request file over the width-2 valid strings
/// (ranks 0..=6), one request per line.
fn mixed_request_file(requests: usize, seed: u64) -> String {
    let mut state = seed;
    let mut file = String::from("# generated mixed-size batch\n");
    for i in 0..requests {
        let keys = 1 + (splitmix64(&mut state) % 4) as usize;
        let mut line = format!("sort r{i}");
        for _ in 0..keys {
            let rank = splitmix64(&mut state) % 7;
            let key = ValidString::from_rank(2, rank).unwrap();
            line.push(' ');
            line.push_str(&key.to_string());
        }
        line.push('\n');
        file.push_str(&line);
    }
    file
}

/// Rank-sorted reference output for a generated request file.
fn reference_output(file: &str) -> String {
    let mut out = String::new();
    for line in file.lines() {
        let mut tok = line.split_ascii_whitespace();
        if tok.next() != Some("sort") {
            continue;
        }
        let id = tok.next().unwrap();
        let keys: Vec<&str> = tok.collect();
        out.push_str(&expected_ok(id, &keys));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Framing and robustness edge cases.
// ---------------------------------------------------------------------------

/// Empty batches, comments, malformed frames and a bad key mid-stream all
/// get typed responses in request order; the requests around them are
/// still served.
#[test]
fn edge_frames_are_typed_and_do_not_poison_the_stream() {
    let engine = engine(ServerConfig::new(4, 2));
    let input = "\
# a comment, then a blank line

sort a 11 00 0M
sort empty-1
sort b 01
frobnicate c 00
sort bad-key 00 ZZ 11
sort d 10 0M
";
    let (out, report) = run_lines(&engine, input);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 6);
    assert_eq!(lines[0], expected_ok("a", &["11", "00", "0M"]));
    assert_eq!(lines[1], "err - empty request carries no keys");
    assert_eq!(lines[2], expected_ok("b", &["01"]));
    assert_eq!(lines[3], "err - malformed unknown verb \"frobnicate\"");
    assert!(
        lines[4].starts_with("err - bad-key key 1:"),
        "bad key response: {}",
        lines[4]
    );
    assert_eq!(lines[5], expected_ok("d", &["10", "0M"]));
    assert_eq!(report.served, 3);
    assert_eq!(report.rejected, 3);
}

/// A single request round-trips.
#[test]
fn single_request_roundtrip() {
    let engine = engine(ServerConfig::new(4, 2));
    let (out, report) = run_lines(&engine, "sort only M1\n");
    assert_eq!(out, "ok only M1\n");
    assert_eq!((report.served, report.rejected), (1, 0));
}

/// A line of several MiB is refused `oversized` by its length alone, and
/// the request after it is served: the reader buffers at most one byte
/// past the frame bound and discards the rest of the line.
#[test]
fn a_multi_mib_line_is_oversized_and_the_stream_goes_on() {
    let engine = engine(ServerConfig::new(4, 2));
    let long = 5 << 20;
    let input = format!("sort big {}\nsort next 11 00\n", "0".repeat(long - 9));
    let (out, report) = run_lines(&engine, &input);
    assert_eq!(
        out,
        format!(
            "err - oversized frame of {long} bytes exceeds the 65536-byte bound\n{}\n",
            expected_ok("next", &["11", "00"])
        )
    );
    assert_eq!((report.served, report.rejected), (1, 1));
}

/// `sort_batch` on cells whose ports are not one 64-port tile — 15 (3×5)
/// and 160 (10×16) — over more than one plane group: every request comes
/// back as its keys sorted by rank.
#[test]
fn sort_batch_round_trips_on_odd_and_multi_tile_cells() {
    for (channels, width) in [(3, 5), (10, 16)] {
        let engine = engine(ServerConfig::new(channels, width));
        let mut scratch = engine.scratch();
        let mut state = (channels * width) as u64;
        let requests: Vec<Request> = (0..300)
            .map(|i| Request {
                id: format!("r{i}"),
                keys: (0..1 + splitmix64(&mut state) as usize % channels)
                    .map(|_| {
                        let rank = splitmix64(&mut state) % ValidString::count(width);
                        Key::from(&ValidString::from_rank(width, rank).unwrap())
                    })
                    .collect(),
            })
            .collect();
        let sorted = engine.sort_batch(&requests, &mut scratch).unwrap();
        for (request, got) in requests.iter().zip(&sorted) {
            let mut want = request.keys.clone();
            want.sort_by_key(Key::rank);
            assert_eq!(got, &want, "{channels}x{width} {}", request.id);
        }
    }
}

/// A request with every channel occupied (no padding path).
#[test]
fn full_width_request_roundtrip() {
    let engine = engine(ServerConfig::new(4, 2));
    let (out, _) = run_lines(&engine, "sort full 10 00 11 01\n");
    assert_eq!(out, format!("{}\n", expected_ok("full", &["10", "00", "11", "01"])));
}

/// A zero request timeout expires every request with a typed `timeout`
/// response instead of serving it.
#[test]
fn zero_timeout_expires_every_request() {
    let mut cfg = ServerConfig::new(4, 2);
    cfg.workers = 1;
    cfg.request_timeout = Some(Duration::ZERO);
    let engine = engine(cfg);
    let (out, report) = run_lines(&engine, "sort t0 00\nsort t1 11\n");
    for (i, line) in out.lines().enumerate() {
        assert!(
            line.starts_with(&format!("err t{i} timeout ")),
            "line {i}: {line}"
        );
    }
    assert_eq!(report.rejected, 2);
    // Outcomes, not submissions: nothing was served, and every frame is
    // counted exactly once.
    assert_eq!(report.served, 0);
    assert_eq!(report.served + report.rejected, 2);
}

// ---------------------------------------------------------------------------
// Coalescing semantics, pinned on the queue directly (no timing races).
// ---------------------------------------------------------------------------

fn test_job(seq: u64) -> Job {
    Job::new(0, seq, &format!("r{seq}"), &["00".parse().unwrap()])
}

/// Exactly 64 queued requests release a full plane immediately, whatever
/// the arrival rate — the linger deadline (set absurdly high) never enters
/// into it, and the rate rule only ever sends partial planes off early.
#[test]
fn exactly_64_lane_fill_dispatches_without_linger() {
    let queue = CoalescerQueue::new(1024, 64, Duration::from_secs(3600));
    let (tx, _rx) = channel();
    for seq in 0..65 {
        queue.try_submit(test_job(seq), &tx).unwrap();
    }
    let start = Instant::now();
    let batch = queue.next_batch().expect("full plane");
    assert_eq!(batch.len(), 64);
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "a full plane must not wait for the linger deadline"
    );
    // The 65th request stays queued for the next plane.
    assert_eq!(queue.queued(), 1);
    // After close, the remainder drains as a partial batch, then None.
    queue.close();
    assert_eq!(queue.next_batch().expect("drain").len(), 1);
    assert!(queue.next_batch().is_none());
}

/// `max_linger` is the hard cap: a partial plane whose arrivals came fast
/// enough to fill it (its one missing lane would take a whole linger at
/// their rate) but whose last lane never comes is dispatched once its
/// oldest request has lingered the configured deadline.
#[test]
fn max_linger_expiry_dispatches_partial_plane() {
    let linger = Duration::from_millis(40);
    let queue = CoalescerQueue::new(1024, 4, linger);
    let (tx, _rx) = channel();
    for seq in 0..3 {
        queue.try_submit(test_job(seq), &tx).unwrap();
    }
    let start = Instant::now();
    let batch = queue.next_batch().expect("partial plane");
    let waited = start.elapsed();
    assert_eq!(batch.len(), 3);
    assert!(
        waited >= linger - Duration::from_millis(1),
        "partial plane released after {waited:?}, before the {linger:?} linger"
    );
}

/// Saturation: a full bounded queue rejects with a typed retry hint and
/// does not buffer — the canonical backpressure criterion.
#[test]
fn saturation_rejects_with_typed_retry_not_buffering() {
    let depth = 8;
    let queue = CoalescerQueue::new(depth, 64, Duration::from_millis(2));
    let (tx, _rx) = channel();
    for seq in 0..depth as u64 {
        queue.try_submit(test_job(seq), &tx).unwrap();
    }
    let mut rejections = 0;
    for seq in depth as u64..depth as u64 + 100 {
        let (job, e) = queue
            .try_submit(test_job(seq), &tx)
            .expect_err("queue is full");
        match e {
            FrameError::Overloaded {
                queued,
                depth: d,
                retry_ms,
            } => {
                assert_eq!((queued, d), (depth, depth));
                assert!(retry_ms >= 1);
                let line = format_err(job.id(), &e);
                assert!(
                    line.contains("overloaded") && line.contains("retry-ms="),
                    "wire line: {line}"
                );
                rejections += 1;
            }
            other => panic!("expected overload, got {other:?}"),
        }
        // Never buffered: the queue still holds exactly `depth`.
        assert_eq!(queue.queued(), depth);
    }
    assert_eq!(rejections, 100);
}

// ---------------------------------------------------------------------------
// Determinism: the acceptance criterion.
// ---------------------------------------------------------------------------

/// The 10k-request mixed-size batch file produces byte-identical output
/// across 1/2/4/8 workers and every available kernel tier — and that
/// output is the rank-sorted reference.
#[test]
fn ten_k_requests_identical_across_workers_and_kernels() {
    let file = mixed_request_file(10_000, 0xBD5_2018);
    let want = reference_output(&file);
    for workers in [1usize, 2, 4, 8] {
        for k in kernel::kernels() {
            let mut cfg = ServerConfig::new(4, 2);
            cfg.workers = workers;
            cfg.kernel = k;
            let engine = engine(cfg);
            let (out, report) = run_lines(&engine, &file);
            assert_eq!(out, want, "output diverged at workers={workers} kernel={k}");
            assert_eq!(report.served, 10_000);
            assert_eq!(report.rejected, 0);
            assert_eq!(report.workers, workers);
        }
    }
}

/// The kernel tier must not matter either: the same mixed-size batch file
/// serves byte-identical output under every available tier, at one and at
/// two workers, and the report names the kernel that actually ran.
#[test]
fn forced_kernels_serve_byte_identical_output() {
    let file = mixed_request_file(2_000, 0x51D_2018);
    let want = reference_output(&file);
    for k in kernel::kernels() {
        for workers in [1usize, 2] {
            let mut cfg = ServerConfig::new(4, 2);
            cfg.workers = workers;
            cfg.kernel = k;
            let engine = engine(cfg);
            let (out, report) = run_lines(&engine, &file);
            assert_eq!(out, want, "output diverged at kernel={k} workers={workers}");
            assert_eq!(report.served, 2_000);
            assert_eq!(report.kernel, k);
            // The stats document names the backend — what `--stats-json`
            // consumers (and the CI kernel-matrix job) read.
            let json = stats_json(&report);
            assert!(
                json.contains(&format!("\"kernel\": \"{}\"", k.name())),
                "{json}"
            );
            assert!(json.contains(STATS_SCHEMA));
        }
    }
}

/// Forcing a tier this CPU cannot run is refused at engine construction
/// with a typed error — before any worker thread spawns — and every tier
/// it can run is accepted. The refusal a CPU without AVX2 gives is pinned
/// through the pure `require_on`, so the test bites on every host.
#[test]
fn unavailable_kernel_is_refused_at_construction() {
    for k in KernelId::ALL {
        let mut cfg = ServerConfig::new(4, 2);
        cfg.kernel = k;
        match (kernel::available(k), SortEngine::new(cfg)) {
            (true, Ok(_)) => {}
            (
                false,
                Err(ServerError::Engine(EngineError::Kernel(UnknownKernel::Unavailable(got)))),
            ) => {
                assert_eq!(got, k)
            }
            (_, other) => {
                panic!(
                    "kernel {k}: unexpected construction result {:?}",
                    other.map(|_| ())
                )
            }
        }
    }
    let refusal = kernel::require_on(KernelId::Avx2, false).unwrap_err();
    assert!(
        ServerError::from(EngineError::from(refusal))
            .to_string()
            .contains("avx2"),
        "the refusal names the tier"
    );
}

/// Batch packing must not matter either: degenerate 1-lane batches, a
/// tiny queue (constant producer blocking), and an oversized plane target
/// all serve the same bytes.
#[test]
fn packing_and_queue_depth_do_not_change_output() {
    let file = mixed_request_file(2_000, 7);
    let want = reference_output(&file);
    for (max_batch, queue_depth, linger_us) in
        [(1usize, 2usize, 0u64), (17, 3, 200), (256, 4096, 2_000)]
    {
        let mut cfg = ServerConfig::new(4, 2);
        cfg.workers = 4;
        cfg.max_batch = max_batch;
        cfg.queue_depth = queue_depth;
        cfg.max_linger = Duration::from_micros(linger_us);
        let engine = engine(cfg);
        let (out, _) = run_lines(&engine, &file);
        assert_eq!(
            out, want,
            "output diverged at max_batch={max_batch} \
             queue_depth={queue_depth} linger={linger_us}us"
        );
    }
}

/// Differential pin against the serial path: one-request-at-a-time
/// `sort_batch` (the degenerate packing) equals the coalesced serve.
#[test]
fn coalesced_serving_matches_serial_sort_batch() {
    let file = mixed_request_file(300, 99);
    let engine = engine(ServerConfig::new(4, 2));
    let (out, _) = run_lines(&engine, &file);
    let mut scratch = engine.scratch();
    for (line, response) in file.lines().skip(1).zip(out.lines()) {
        let mut tok = line.split_ascii_whitespace().skip(1);
        let id = tok.next().unwrap();
        let keys: Vec<Key> = tok.map(|t| t.parse().unwrap()).collect();
        let serial = engine
            .sort_batch(
                &[Request {
                    id: id.to_string(),
                    keys,
                }],
                &mut scratch,
            )
            .unwrap();
        let mut want = format!("ok {id}");
        for k in &serial[0] {
            want.push(' ');
            want.push_str(&k.to_string());
        }
        assert_eq!(response, want);
    }
}

// ---------------------------------------------------------------------------
// Observability: the `stats` frame and the per-stage histograms.
// ---------------------------------------------------------------------------

/// A `stats` frame on a 10k-request run answers with a schema-tagged
/// snapshot line carrying every stage, without perturbing a single sorted
/// byte — across 1/2/4/8 workers. The final report's histograms cover the
/// whole population, show nonzero eval time, and obey the pointwise
/// queue-wait ≤ end-to-end dominance at every wire quantile.
#[test]
fn stats_frame_reports_stage_latencies_without_breaking_determinism() {
    let file = mixed_request_file(10_000, 0xBD5_2018);
    let want = reference_output(&file);
    for workers in [1usize, 2, 4, 8] {
        let mut cfg = ServerConfig::new(4, 2);
        cfg.workers = workers;
        let engine = engine(cfg);
        let mut input = file.clone();
        input.push_str("stats s1\n");
        let (out, report) = run_lines(&engine, &input);

        // The stats response is the last line (request order) and carries
        // the schema tag, the counters and every stage key.
        let mut lines: Vec<&str> = out.lines().collect();
        let stats_line = lines.pop().expect("stats response line");
        assert!(
            stats_line.starts_with(&format!("stats s1 schema={STATS_SCHEMA} ")),
            "workers={workers}: {stats_line}"
        );
        for key in [
            " served=", " rejected=", " batches=", " workers=", " queue_us=",
            " coalesce_us=", " pack_us=", " eval_us=", " write_us=",
            " e2e_us=",
        ] {
            assert!(
                stats_line.contains(key),
                "workers={workers}: missing {key} in {stats_line}"
            );
        }

        // Everything else is byte-identical to the reference: timing is
        // observational only.
        let mut sorted = lines.join("\n");
        sorted.push('\n');
        assert_eq!(sorted, want, "output diverged at workers={workers}");

        // The final report sees the complete population (the mid-serve
        // stats line is racy by design; the report is not).
        assert_eq!(report.served, 10_000);
        assert_eq!(report.rejected, 0);
        let st = &report.stages;
        assert_eq!(st.queue.count(), 10_000, "workers={workers}");
        assert_eq!(st.e2e.count(), 10_000, "workers={workers}");
        // Every written line closes a write-stage sample: 10k oks + stats.
        assert_eq!(st.write.count(), 10_001, "workers={workers}");
        assert!(st.eval.max() > 0, "workers={workers}: zero eval time");
        assert!(st.pack.count() > 0 && st.coalesce.count() > 0);
        // Queue wait is a prefix of the end-to-end path of the same
        // population, so its quantiles can never exceed e2e's.
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert!(
                st.queue.quantile(q) <= st.e2e.quantile(q),
                "workers={workers} q={q}: queue {} > e2e {}",
                st.queue.quantile(q),
                st.e2e.quantile(q)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// TCP mode: concurrent connections, interleaved arrivals, graceful drain.
// ---------------------------------------------------------------------------

/// Four concurrent connections interleave arbitrarily at the coalescer;
/// every connection still reads exactly its own responses, in its own
/// request order, matching the rank-sorted reference. A `shutdown` frame
/// then drains the server.
#[test]
fn tcp_connections_interleave_without_cross_talk() {
    let mut cfg = ServerConfig::new(4, 2);
    cfg.workers = 2;
    cfg.max_linger = Duration::from_millis(1);
    let engine = engine(cfg);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    std::thread::scope(|s| {
        let server = s.spawn(|| serve_tcp(&engine, listener).expect("serve"));

        let clients: Vec<_> = (0..4)
            .map(|c| {
                s.spawn(move || {
                    use std::io::{BufRead, BufReader, Write};
                    let file = mixed_request_file(50, c as u64);
                    let want = reference_output(&file);
                    let mut stream =
                        TcpStream::connect(addr).expect("connect");
                    stream.write_all(file.as_bytes()).expect("send");
                    stream.shutdown(Shutdown::Write).expect("half-close");
                    let mut got = String::new();
                    for line in BufReader::new(stream).lines() {
                        got.push_str(&line.expect("read"));
                        got.push('\n');
                    }
                    assert_eq!(got, want, "connection {c} saw foreign bytes");
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client");
        }

        // Drain-then-exit on a shutdown frame.
        {
            use std::io::{BufRead, BufReader, Write};
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(b"sort last 0M 10\nshutdown op\n").expect("send");
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            assert_eq!(line.trim_end(), expected_ok("last", &["0M", "10"]));
            line.clear();
            reader.read_line(&mut line).expect("read");
            assert_eq!(line.trim_end(), "ok op draining");
        }

        let report = server.join().expect("server thread");
        assert_eq!(report.served, 4 * 50 + 1);
        assert_eq!(report.rejected, 0);
    });
}

/// The socket writer is buffered, but a lone request on an open
/// connection is still answered at once: the writer flushes as soon as no
/// further reply is ready, not when the client hangs up.
#[test]
fn lone_tcp_request_is_answered_without_waiting() {
    use std::io::{BufRead, BufReader, Write};
    let mut cfg = ServerConfig::new(4, 2);
    cfg.workers = 1;
    cfg.max_linger = Duration::from_millis(1);
    let engine = engine(cfg);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|s| {
        let server = s.spawn(|| serve_tcp(&engine, listener).expect("serve"));
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut answers = Vec::new();
        for request in ["sort one 11 0M\n", "sort two\r\n", "sort three 10\r\n"] {
            stream.write_all(request.as_bytes()).expect("send");
            let mut line = String::new();
            // A timed-out read stops the exchange; the shutdown below
            // still ends the server, so a failure cannot hang the test.
            match reader.read_line(&mut line) {
                Ok(_) => answers.push(line),
                Err(e) => {
                    answers.push(format!("no answer while the connection is open: {e}"));
                    break;
                }
            }
        }
        stream.write_all(b"shutdown op\n").expect("send");
        let report = server.join().expect("server thread");
        assert_eq!(
            answers,
            [
                format!("{}\n", expected_ok("one", &["11", "0M"])),
                "err - empty request carries no keys\n".to_string(),
                format!("{}\n", expected_ok("three", &["10"])),
            ]
        );
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert_eq!(line, "ok op draining\n");
        assert_eq!((report.served, report.rejected), (2, 1));
    });
}

/// Sparse traffic does not wait out the linger: with `max_linger` at 1 s
/// and requests sent 5 ms apart (a 256-lane plane would take ~1.3 s to
/// fill), every request is answered well inside the linger — the first as
/// soon as the second arrival shows the rate.
#[test]
fn sparse_tcp_requests_are_answered_well_inside_the_linger() {
    use std::io::{BufRead, BufReader, Write};
    const REQUESTS: usize = 20;
    let linger = Duration::from_secs(1);
    let mut cfg = ServerConfig::new(4, 2);
    cfg.workers = 1;
    cfg.max_linger = linger;
    let engine = engine(cfg);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|s| {
        let server = s.spawn(|| serve_tcp(&engine, listener).expect("serve"));
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut writer = stream.try_clone().expect("clone");
        let sender = s.spawn(move || {
            let mut sent = Vec::with_capacity(REQUESTS);
            for i in 0..REQUESTS {
                sent.push(Instant::now());
                writer
                    .write_all(format!("sort s{i} 1M 0{}\n", i % 2).as_bytes())
                    .expect("send");
                std::thread::sleep(Duration::from_millis(5));
            }
            writer.write_all(b"shutdown op\n").expect("send");
            sent
        });
        let mut answered = Vec::with_capacity(REQUESTS);
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        for i in 0..REQUESTS {
            line.clear();
            reader.read_line(&mut line).expect("read");
            answered.push(Instant::now());
            let low = format!("0{}", i % 2);
            assert_eq!(line.trim_end(), expected_ok(&format!("s{i}"), &["1M", &low]));
        }
        line.clear();
        reader.read_line(&mut line).expect("read");
        assert_eq!(line, "ok op draining\n");
        let sent = sender.join().expect("sender");
        let report = server.join().expect("server thread");
        assert_eq!((report.served, report.rejected), (REQUESTS as u64, 0));
        for (i, (sent, answered)) in sent.iter().zip(&answered).enumerate() {
            let latency = answered.duration_since(*sent);
            assert!(
                latency < linger / 4,
                "request {i} answered after {latency:?} under a {linger:?} linger"
            );
        }
    });
}

// ---------------------------------------------------------------------------
// Committed golden: the request file CI pipes through the real bin.
// ---------------------------------------------------------------------------

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// The committed request file serves byte-identically to the committed
/// golden (the `server-smoke` CI job runs the same pair through the
/// actual `sort_server` bin).
#[test]
fn committed_golden_request_file_matches() {
    let dir = golden_dir();
    let requests = std::fs::read_to_string(dir.join("server_requests.txt"))
        .expect("tests/golden/server_requests.txt");
    let golden = std::fs::read_to_string(dir.join("server_responses.golden"))
        .expect("tests/golden/server_responses.golden");
    let engine = engine(ServerConfig::new(4, 2));
    let (out, _) = run_lines(&engine, &requests);
    assert_eq!(out, golden, "server_responses.golden is stale");
}

/// The width-8 golden (recorded before the byte → plane serving path):
/// an `M` at every bit position, every request size, and every typed
/// rejection form, oversized frame and shutdown included. The
/// `server-smoke` CI job runs the same pair through
/// `sort_server --channels 8 --width 8`.
#[test]
fn committed_width_8_golden_matches() {
    let dir = golden_dir();
    let requests = std::fs::read_to_string(dir.join("server_requests_w8.txt"))
        .expect("tests/golden/server_requests_w8.txt");
    let golden = std::fs::read_to_string(dir.join("server_responses_w8.golden"))
        .expect("tests/golden/server_responses_w8.golden");
    for workers in [1, 4] {
        for k in kernel::kernels() {
            let mut cfg = ServerConfig::new(8, 8);
            cfg.workers = workers;
            cfg.kernel = k;
            let (out, _) = run_lines(&engine(cfg), &requests);
            assert_eq!(out, golden, "workers={workers} kernel={k}");
        }
    }
}

/// The loaded-artifact path serves the same bytes: the committed optimized
/// 4×2 netlist, loaded and re-verified by `SortEngine::from_netlist`,
/// answers the committed request file exactly like the stock cell (the
/// `server-smoke` CI job repeats this through `sort_server --circuit`).
#[test]
fn loaded_golden_netlist_serves_the_committed_golden() {
    let dir = golden_dir();
    let requests = std::fs::read_to_string(dir.join("server_requests.txt"))
        .expect("tests/golden/server_requests.txt");
    let golden = std::fs::read_to_string(dir.join("server_responses.golden"))
        .expect("tests/golden/server_responses.golden");
    let netlist = load_netlist(&dir.join("four_sort_2b_opt.mcsnl")).expect("golden netlist loads");
    for workers in [1usize, 4] {
        let mut cfg = ServerConfig::new(4, 2);
        cfg.workers = workers;
        let engine = SortEngine::from_netlist(cfg, netlist.clone()).expect("golden netlist verifies");
        let (out, _) = run_lines(&engine, &requests);
        assert_eq!(out, golden, "workers={workers}");
    }
}

/// Above the exhaustive 0-1 bound (20 channels) the netlist constructor
/// still checks the port counts, and refuses a mismatch with a typed
/// `PortMismatch` before compiling anything.
#[test]
fn netlist_constructor_refuses_wrong_ports_beyond_the_check_bound() {
    let mut n = mcs_netlist::Netlist::new("too-narrow");
    for i in 0..21 {
        let a = n.input(format!("ch{i}_b0"));
        n.set_output(format!("out{i}_b0"), a);
    }
    // 21 ports, but a 21-channel × 2-bit engine needs 42 each way.
    match SortEngine::from_netlist(ServerConfig::new(21, 2), n) {
        Err(ServerError::Engine(EngineError::Circuit(CircuitVerifyError::PortMismatch {
            inputs,
            outputs,
            channels,
            width,
        }))) => assert_eq!((inputs, outputs, channels, width), (21, 21, 21, 2)),
        other => panic!("expected PortMismatch, got {:?}", other.err()),
    }
}
