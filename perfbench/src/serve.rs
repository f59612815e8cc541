//! The `serve-*` workloads: an 8×8 `SortEngine` behind `serve_lines`
//! (pipe, capacity with full batches) or `serve_tcp` (open loop at a fixed
//! rate over one localhost connection). Every response is checked against
//! the harness's own reference, which sorts each request's keys by rank.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use mcs_bench::metrics::{nanos_u64, LatencyHistogram};
use mcs_bench::server::{
    format_ok, parse_frame, serve_lines, serve_tcp, Frame, Request, ServeReport, ServerConfig,
    ServerStats, SortEngine,
};
use mcs_gray::ValidString;
use mcs_logic::plane::kernel::KernelId;

use crate::layers::{eval_replay, time_setup, SetupSampler};
use crate::report::{
    digest, digest_more, fast_rate, fast_time, median, sample_ns, LatencySummary, Report,
    DIGEST_START,
};
use crate::rng::SplitMix;

/// Channels of the served circuit (max keys per request).
pub const CHANNELS: usize = 8;
/// Bits per key.
pub const WIDTH: usize = 8;
/// Requests per pipe round.
pub const PIPE_ROUND: usize = 50_000;
/// Offered load of the open loop, requests per second. At this rate a
/// host stall of about 160 ms still fits in the server's 4096-deep queue;
/// at 50,000 a stall of half that overflowed it, and the overload
/// rejections failed the run.
pub const OPEN_RATE: f64 = 25_000.0;
/// Latency limit of `slo_met_share` (5× the 2 ms linger).
pub const SLO: Duration = Duration::from_millis(10);
/// Requests of the one-thread server replay.
const REPLAY_REQUESTS: usize = 50_000;
/// Set-up repetitions of `serve-open` run before and after serving, each
/// for this long (they cannot interleave with a latency measurement).
const OPEN_SETUP_TIME: Duration = Duration::from_millis(500);
/// Requests per open-loop window (one second at `OPEN_RATE`); the
/// reported mean latency is the fast end of the window means.
const OPEN_WINDOW: usize = 25_000;

/// Newline-terminated lines packed into one buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Lines {
    /// The bytes, every line ending in `\n`.
    pub bytes: Vec<u8>,
    /// End offset (past the `\n`) of each line.
    pub ends: Vec<usize>,
}

impl Lines {
    /// Line `i` without its newline.
    pub fn line(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i] - 1]
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.ends.len()
    }
}

/// The seeded request stream, one request at a time: `sort` frames of
/// 1..=8 keys, each key a uniformly drawn valid string. A generator yields
/// either the requests or their reference responses (the keys sorted by
/// rank), so a sender and a checker each run their own over the same seed
/// and neither holds the stream.
pub struct RequestGen {
    rng: SplitMix,
    next: usize,
    ranks: Vec<u64>,
}

impl RequestGen {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> RequestGen {
        RequestGen {
            rng: SplitMix::new(seed ^ 0x7365_7276_6500),
            next: 0,
            ranks: Vec::with_capacity(CHANNELS),
        }
    }

    /// Draws the next request's keys; returns its index.
    fn draw(&mut self) -> usize {
        let count = ValidString::count(WIDTH);
        let keys = 1 + self.rng.below(CHANNELS as u64);
        self.ranks.clear();
        for _ in 0..keys {
            self.ranks.push(self.rng.below(count));
        }
        self.next += 1;
        self.next - 1
    }

    fn push_keys(&self, out: &mut Vec<u8>) {
        for &r in &self.ranks {
            let key = ValidString::from_rank(WIDTH, r).expect("rank below ValidString::count");
            write!(out, " {key}").expect("writing to a Vec cannot fail");
        }
        out.push(b'\n');
    }

    /// Appends the next request line to `out`.
    pub fn request(&mut self, out: &mut Vec<u8>) {
        let i = self.draw();
        write!(out, "sort {i}").expect("writing to a Vec cannot fail");
        self.push_keys(out);
    }

    /// Appends the reference response of the next request to `out`.
    pub fn response(&mut self, out: &mut Vec<u8>) {
        let i = self.draw();
        self.ranks.sort_unstable();
        write!(out, "ok {i}").expect("writing to a Vec cannot fail");
        self.push_keys(out);
    }
}

/// The first `count` requests of `seed` and their reference responses.
pub fn request_stream(seed: u64, count: usize) -> (Lines, Lines) {
    let (mut req_gen, mut resp_gen) = (RequestGen::new(seed), RequestGen::new(seed));
    let (mut requests, mut responses) = (Lines::default(), Lines::default());
    for _ in 0..count {
        req_gen.request(&mut requests.bytes);
        requests.ends.push(requests.bytes.len());
        resp_gen.response(&mut responses.bytes);
        responses.ends.push(responses.bytes.len());
    }
    (requests, responses)
}

/// The served configuration: defaults, one worker.
pub fn server_config(kernel: KernelId) -> ServerConfig {
    let mut cfg = ServerConfig::new(CHANNELS, WIDTH);
    cfg.workers = 1;
    cfg.kernel = kernel;
    cfg
}

/// A set-up sampler that builds (and drops) the served engine.
fn setup_sampler(
    kernel: KernelId,
) -> Result<SetupSampler<impl FnMut() -> Result<(), String>>, String> {
    SetupSampler::new(move || {
        SortEngine::new(server_config(kernel))
            .map(drop)
            .map_err(|e| e.to_string())
    })
}

/// The served engine.
fn engine(kernel: KernelId) -> Result<SortEngine, String> {
    SortEngine::new(server_config(kernel)).map_err(|e| e.to_string())
}

/// Outcome of comparing responses with the reference.
#[derive(Default, Debug)]
struct Checked {
    ok: u64,
    wrong: u64,
    rejected_overloaded: u64,
    rejected_other: u64,
}

impl Checked {
    fn record(&mut self, got: &[u8], want: &[u8]) -> bool {
        if got == want {
            self.ok += 1;
            return true;
        }
        if got.starts_with(b"err ") {
            let code = got.split(|&b| b == b' ').nth(2).unwrap_or(b"");
            if code == b"overloaded" {
                self.rejected_overloaded += 1;
            } else {
                self.rejected_other += 1;
            }
        } else {
            self.wrong += 1;
        }
        false
    }

    fn failed(&self) -> u64 {
        self.wrong + self.rejected_overloaded + self.rejected_other
    }
}

/// Mean of a stage histogram in microseconds (sum ÷ count, never a
/// bucket bound).
fn mean_us(h: &LatencyHistogram) -> f64 {
    h.sum() as f64 / h.count().max(1) as f64 / 1e3
}

/// Per-stage means and counts of the serves, from the returned reports
/// (the median over pipe rounds).
fn push_server_report(report: &mut Report, reports: &[ServeReport], max_batch: usize) {
    let over = |f: fn(&ServeReport) -> f64| median(&reports.iter().map(f).collect::<Vec<_>>());
    report.push(
        "server.queue_wait_mean_us",
        over(|r| mean_us(&r.stages.queue)),
        "us",
    );
    report.push(
        "server.coalesce_mean_us",
        over(|r| mean_us(&r.stages.coalesce)),
        "us",
    );
    report.push(
        "server.write_mean_us",
        over(|r| mean_us(&r.stages.write)),
        "us",
    );
    report.push("server.batches", over(|r| r.batches as f64), "count");
    // Useful lanes ÷ evaluated lanes.
    let fill = median(
        &reports
            .iter()
            .map(|r| r.served as f64 / (r.batches.max(1) as usize * max_batch) as f64)
            .collect::<Vec<_>>(),
    );
    report.push("server.lane_fill", fill, "ratio");
}

/// Rejections by wire code.
fn push_rejected(report: &mut Report, checked: &Checked) {
    report.push(
        "server.rejected_overloaded",
        checked.rejected_overloaded as f64,
        "count",
    );
    report.push(
        "server.rejected_other",
        checked.rejected_other as f64,
        "count",
    );
}

/// Traced layers of a serve workload: set-up split, eval replay on
/// 256-lane batches, and a one-thread replay of parse → sort → format over
/// the first `REPLAY_REQUESTS` requests of the workload's stream.
fn trace_layers(
    report: &mut Report,
    engine: &SortEngine,
    kernel: KernelId,
    seed: u64,
) -> Result<(), String> {
    let t = Instant::now();
    let layers = time_setup(CHANNELS, WIDTH)?;
    layers.push_metrics(report);
    let max_batch = engine.config().max_batch;
    let replay = eval_replay(
        &layers.tape,
        CHANNELS,
        WIDTH,
        max_batch,
        16,
        kernel,
        seed,
        Duration::from_millis(300),
    )?;
    let rps = report.get("vectors_per_s").unwrap_or(0.0);
    report.push("tape.eval_ns_per_vector", replay.ns_per_vector, "ns");
    report.push("tape.eval_share", replay.ns_per_vector * rps / 1e9, "ratio");
    report.push(
        "tape.gate_evals_per_s",
        layers.gates as f64 * 1e9 / replay.ns_per_vector,
        "1/s",
    );

    let (requests, responses) = request_stream(seed, REPLAY_REQUESTS);
    let count = requests.len();
    let stats = ServerStats::new(1, kernel);
    let mut scratch = engine.scratch();
    let (mut parse_ns, mut sort_ns, mut format_ns) = (0u64, 0u64, 0u64);
    let mut wrong = replay.failed;
    for from in (0..count).step_by(max_batch) {
        let to = (from + max_batch).min(count);
        let t0 = Instant::now();
        let batch: Vec<Request> = (from..to)
            .filter_map(|i| {
                let line = std::str::from_utf8(requests.line(i)).ok()?;
                match parse_frame(line, engine.config()) {
                    Ok(Some(Frame::Sort(r))) => Some(r),
                    _ => None,
                }
            })
            .collect();
        parse_ns += nanos_u64(t0.elapsed());
        let t1 = Instant::now();
        let sorted = engine
            .sort_batch_recording(&batch, &mut scratch, Some(&stats))
            .map_err(|e| e.to_string())?;
        sort_ns += nanos_u64(t1.elapsed());
        let t2 = Instant::now();
        let lines: Vec<String> = batch
            .iter()
            .zip(&sorted)
            .map(|(r, keys)| format_ok(&r.id, keys))
            .collect();
        format_ns += nanos_u64(t2.elapsed());
        wrong += (to - from - lines.len()) as u64;
        wrong += lines
            .iter()
            .zip(from..to)
            .filter(|(l, i)| l.as_bytes() != responses.line(*i))
            .count() as u64;
    }
    report.attempted += 1;
    report.failed += u64::from(wrong > 0);
    println!("check server replay: {count} requests, {wrong} wrong");
    let snap = stats.snapshot();
    let (pack, eval) = (snap.stages.pack.sum(), snap.stages.eval.sum());
    let per_req = |ns: u64| ns as f64 / count.max(1) as f64;
    report.push("server.parse_ns_per_req", per_req(parse_ns), "ns");
    report.push("server.pack_ns_per_req", per_req(pack), "ns");
    report.push("server.eval_ns_per_req", per_req(eval), "ns");
    report.push(
        "server.decode_ns_per_req",
        per_req(sort_ns.saturating_sub(pack + eval)),
        "ns",
    );
    report.push("server.format_ns_per_req", per_req(format_ns), "ns");
    report.push("trace.overhead_s", t.elapsed().as_secs_f64(), "s");
    Ok(())
}

/// `serve-pipe`: rounds of `PIPE_ROUND` requests through `serve_lines`,
/// with set-up repetitions between the rounds.
///
/// # Errors
///
/// A set-up or serving failure, as text.
pub fn run_pipe(seed: u64, seconds: f64, trace: bool, kernel: KernelId) -> Result<Report, String> {
    let start = Instant::now();
    let mut setup = setup_sampler(kernel)?;
    let engine = engine(kernel)?;
    let (requests, responses) = request_stream(seed, PIPE_ROUND);
    let mut report = Report {
        workload_digest: digest(&requests.bytes),
        ..Report::default()
    };
    let mut checked = Checked::default();
    let (mut rates, mut means, mut reports) = (vec![], vec![], vec![]);
    let mut unbalanced = 0u64;
    let mut out = Vec::with_capacity(responses.bytes.len());
    while start.elapsed().as_secs_f64() < seconds || rates.len() < 3 {
        out.clear();
        let t = Instant::now();
        let served =
            serve_lines(&engine, &requests.bytes[..], &mut out).map_err(|e| e.to_string())?;
        let wall = t.elapsed().as_secs_f64();

        let before = checked.ok;
        let mut got = out.split(|&b| b == b'\n');
        for i in 0..requests.len() {
            report.attempted += 1;
            match got.next() {
                Some(line) => {
                    checked.record(line, responses.line(i));
                }
                None => checked.wrong += 1,
            }
        }
        // Past the last response only the empty tail after its newline.
        checked.wrong += got.filter(|l| !l.is_empty()).count() as u64;
        if served.served + served.rejected != requests.len() as u64 {
            unbalanced += 1;
        }
        rates.push((checked.ok - before) as f64 / wall);
        means.push(mean_us(&served.stages.e2e));
        reports.push(served);
        setup.catch_up()?;
    }
    // A round whose served + rejected differs from the requests sent is
    // one more failed operation.
    report.attempted += rates.len() as u64;
    report.failed = checked.failed() + unbalanced;
    println!(
        "check {} requests over {} rounds: {} ok, {} wrong, {} rejected; \
         {unbalanced} rounds with served+rejected != sent",
        requests.len() * rates.len(),
        rates.len(),
        checked.ok,
        checked.wrong,
        checked.rejected_overloaded + checked.rejected_other
    );
    let last = reports.last().expect("at least one round");
    println!(
        "server served={} rejected={} batches={} workers={} kernel={}",
        last.served, last.rejected, last.batches, last.workers, last.kernel
    );

    report.push("setup_s", setup.seconds(), "s");
    let rate = fast_rate(&rates);
    println!(
        "rounds requests/s median={:.0} p95={rate:.0}; server e2e mean median={:.1}us \
         p5={:.1}us; {} set-ups",
        median(&rates),
        median(&means),
        fast_time(&means),
        setup.reps()
    );
    report.push("vectors_per_s", rate, "1/s");
    report.push("requests_per_s", rate, "1/s");
    // The server's own end-to-end histogram (submission → written): with
    // blocking submission this is the wait behind a full queue.
    report.push("e2e_mean_us", fast_time(&means), "us");
    push_rejected(&mut report, &checked);
    push_server_report(&mut report, &reports, engine.config().max_batch);
    if trace {
        trace_layers(&mut report, &engine, kernel, seed)?;
    }
    Ok(report)
}

/// What the open-loop client saw, checked as each response arrived.
struct ClientRun {
    /// Responses compared with the reference.
    checked: Checked,
    /// Due-time-to-response latency of each `ok` response, nanoseconds.
    latency: Vec<u32>,
    /// `ok` responses within [`SLO`] of their due time.
    slo_met: u64,
    /// Latency sum (ns) and `ok` count of each `OPEN_WINDOW` requests.
    windows: Vec<(u64, u64)>,
    /// When the last response arrived.
    last: Instant,
    /// Sender lateness per request, nanoseconds.
    gen_lag: Vec<u32>,
    /// Digest of every request byte sent.
    digest: u64,
}

/// Sends the first `n` requests of `seed` over one connection at `rate`
/// per second (1 sender thread) and checks every response against its
/// reference as it arrives (1 receiver thread); each thread generates its
/// own lines. Then sends a `shutdown` frame and reads its `draining` ack
/// before closing, so the server returns.
fn open_loop_client(
    addr: SocketAddr,
    seed: u64,
    n: usize,
    rate: f64,
    t0: Instant,
) -> io::Result<ClientRun> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut writer = stream.try_clone()?;
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> io::Result<(Vec<u32>, u64)> {
            let mut requests = RequestGen::new(seed);
            let mut lag = Vec::with_capacity(n);
            let (mut buf, mut hash) = (Vec::new(), DIGEST_START);
            let mut next = 0usize;
            while next < n {
                let now = Instant::now();
                if now < due(next) {
                    std::thread::sleep(due(next) - now);
                    continue;
                }
                let elapsed = now.duration_since(t0).as_secs_f64();
                let upto = ((elapsed * rate) as usize + 1).clamp(next + 1, n);
                buf.clear();
                for _ in next..upto {
                    requests.request(&mut buf);
                }
                writer.write_all(&buf)?;
                let sent = Instant::now();
                hash = digest_more(hash, &buf);
                lag.extend((next..upto).map(|i| sample_ns(sent.duration_since(due(i)))));
                next = upto;
            }
            writer.write_all(b"shutdown done\n")?;
            Ok((lag, hash))
        });
        let mut reader = BufReader::new(&stream);
        let mut references = RequestGen::new(seed);
        let mut run = ClientRun {
            checked: Checked::default(),
            latency: Vec::with_capacity(n),
            slo_met: 0,
            windows: vec![(0, 0); n.div_ceil(OPEN_WINDOW)],
            last: t0,
            gen_lag: Vec::new(),
            digest: 0,
        };
        let (mut line, mut want) = (String::new(), Vec::new());
        let mut i = 0usize;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before the draining ack",
                ));
            }
            let now = Instant::now();
            let text = line.trim_end();
            if text == "ok done draining" {
                break;
            }
            run.last = now;
            if i >= n {
                run.checked.wrong += 1;
            } else {
                want.clear();
                references.response(&mut want);
                if run.checked.record(text.as_bytes(), &want[..want.len() - 1]) {
                    let latency = now.duration_since(due(i));
                    run.slo_met += u64::from(latency <= SLO);
                    run.latency.push(sample_ns(latency));
                    let w = &mut run.windows[i / OPEN_WINDOW];
                    w.0 = w.0.saturating_add(nanos_u64(latency));
                    w.1 += 1;
                }
            }
            i += 1;
        }
        // Requests never answered.
        run.checked.wrong += n.saturating_sub(i) as u64;
        (run.gen_lag, run.digest) = sender.join().expect("sender thread panicked")?;
        Ok(run)
    })
}

/// `serve-open`: `serve_tcp` under an open loop at `OPEN_RATE` for
/// `seconds`, latency timed from each request's due time. Set-up is
/// sampled before and after serving.
///
/// # Errors
///
/// A set-up, client or serving failure, as text.
pub fn run_open(seed: u64, seconds: f64, trace: bool, kernel: KernelId) -> Result<Report, String> {
    let mut setup = setup_sampler(kernel)?;
    setup.repeat_for(OPEN_SETUP_TIME)?;
    let engine = engine(kernel)?;
    let count = (OPEN_RATE * seconds).ceil().max(1000.0) as usize;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;

    let t0 = Instant::now() + Duration::from_millis(50);
    let (client, served) = std::thread::scope(|s| {
        let server = s.spawn(|| serve_tcp(&engine, listener));
        let client = open_loop_client(addr, seed, count, OPEN_RATE, t0);
        if client.is_err() {
            // Best effort: a fresh connection asks the server to drain, so
            // the join below returns (a hang is left to the watchdog).
            if let Ok(mut c) = TcpStream::connect(addr) {
                let _ = c.write_all(b"shutdown abort\n");
                let _ = c.read(&mut [0u8; 64]);
            }
        }
        (client, server.join().expect("server thread panicked"))
    });
    let client = client.map_err(|e| format!("open-loop client: {e}"))?;
    let served = served.map_err(|e| e.to_string())?;
    setup.repeat_for(OPEN_SETUP_TIME)?;

    let ClientRun {
        checked,
        mut latency,
        slo_met,
        windows,
        last,
        mut gen_lag,
        digest,
    } = client;
    let mut report = Report {
        attempted: count as u64,
        failed: checked.failed(),
        workload_digest: digest,
        ..Report::default()
    };
    let rate = checked.ok as f64 / last.duration_since(t0).as_secs_f64().max(1e-9);
    println!(
        "check {count} requests: {} ok, {} wrong, {} rejected; served+rejected={} of {count} sent",
        checked.ok,
        checked.wrong,
        checked.rejected_overloaded + checked.rejected_other,
        served.served + served.rejected
    );
    println!(
        "server served={} rejected={} batches={} workers={} kernel={}; {} set-ups",
        served.served,
        served.rejected,
        served.batches,
        served.workers,
        served.kernel,
        setup.reps()
    );
    // The balance of served + rejected against requests sent is checked
    // as one more operation.
    report.attempted += 1;
    if served.served + served.rejected != count as u64 {
        report.failed += 1;
    }

    report.push("setup_s", setup.seconds(), "s");
    report.push("vectors_per_s", rate, "1/s");
    report.push("requests_per_s", rate, "1/s");
    let summary = LatencySummary::of(&mut latency);
    println!("latency {}", summary.describe());
    let window_means: Vec<f64> = windows
        .iter()
        .filter(|w| w.1 > 0)
        .map(|&(sum, n)| sum as f64 / n as f64 / 1e3)
        .collect();
    println!(
        "latency mean per {OPEN_WINDOW}-request window: median={:.1}us p5={:.1}us over {}",
        median(&window_means),
        fast_time(&window_means),
        window_means.len()
    );
    report.push("e2e_mean_us", fast_time(&window_means), "us");
    report.push("e2e_p50_us", summary.p50_ns as f64 / 1e3, "us");
    if let Some(p99) = summary.p99_ns {
        report.push("e2e_p99_us", p99 as f64 / 1e3, "us");
    }
    report.push("e2e_samples", summary.count as f64, "count");
    report.push("client.e2e_max_us", summary.max_ns as f64 / 1e3, "us");
    report.push(
        "slo_met_share",
        slo_met as f64 / count.max(1) as f64,
        "ratio",
    );
    let lag = LatencySummary::of(&mut gen_lag);
    println!("sender lag {}", lag.describe());
    if let Some(p99) = lag.p99_ns {
        report.push("client.gen_lag_p99_us", p99 as f64 / 1e3, "us");
    }
    report.push("client.gen_lag_max_us", lag.max_ns as f64 / 1e3, "us");
    push_rejected(&mut report, &checked);
    push_server_report(
        &mut report,
        std::slice::from_ref(&served),
        engine.config().max_batch,
    );
    if trace {
        trace_layers(&mut report, &engine, kernel, seed)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_logic::plane::kernel;

    #[test]
    fn open_loop_accounts_for_every_request() {
        // 0.2 s at 25k/s: 5000 requests, every one answered and checked;
        // `run_open` itself fails the run unless served + rejected = sent.
        let r = run_open(3, 0.2, false, kernel::preferred()).unwrap();
        assert_eq!(r.attempted, 5000 + 1, "requests plus the balance check");
        assert!(r.correct(), "{r:?}");
        let p99 = r.get("e2e_p99_us").expect("5000 samples support p99");
        assert!(p99 <= r.get("client.e2e_max_us").unwrap());
        assert_eq!(r.get("e2e_samples"), Some(5000.0));
    }

    #[test]
    fn traced_and_untraced_runs_send_identical_bytes() {
        let plain = run_open(4, 0.1, false, kernel::preferred()).unwrap();
        let traced = run_open(4, 0.1, true, kernel::preferred()).unwrap();
        assert!(plain.correct() && traced.correct());
        assert_eq!(plain.workload_digest, traced.workload_digest);
        // The sender's streamed digest is the digest of the whole stream.
        let (requests, _) = request_stream(4, 2500);
        assert_eq!(plain.workload_digest, digest(&requests.bytes));
    }

    #[test]
    fn pipe_checks_every_request_of_every_round() {
        let r = run_pipe(2, 0.0, false, kernel::preferred()).unwrap();
        assert!(r.correct(), "{r:?}");
        // Three rounds of requests, plus one balance check per round.
        assert_eq!(r.attempted, 3 * (PIPE_ROUND as u64 + 1));
        assert!(r.get("e2e_mean_us").unwrap() > 0.0);
    }

    #[test]
    fn reference_sorts_keys_by_rank() {
        let (requests, responses) = request_stream(1, 200);
        for i in 0..200 {
            let req = std::str::from_utf8(requests.line(i)).unwrap();
            let resp = std::str::from_utf8(responses.line(i)).unwrap();
            let mut keys: Vec<ValidString> =
                req.split(' ').skip(2).map(|k| k.parse().unwrap()).collect();
            assert!((1..=CHANNELS).contains(&keys.len()));
            keys.sort_by_key(ValidString::rank);
            let want: Vec<String> = keys.iter().map(ToString::to_string).collect();
            assert_eq!(resp, format!("ok {i} {}", want.join(" ")));
        }
    }
}
