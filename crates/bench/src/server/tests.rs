//! Unit tests of the serving layer's internals.

use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use mcs_gray::ValidString;
use mcs_logic::plane::kernel::{self, KernelId};
use mcs_logic::{PlaneWidth, TritWord};
use mcs_netlist::{EvalTape, Netlist};

use super::codec::oracle::*;
use super::codec::*;
use super::queue::*;
use super::stats::*;
use super::transport::*;
use super::{FrameError, Key, ServerConfig, ServerError};
use crate::engine::{EngineError, PortTiles};

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
    assert_eq!(too_many, FrameError::TooManyKeys { got: 5, max: 4 });
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
            matches!(
                err,
                ServerError::Engine(EngineError::UnsupportedCell { .. })
            ),
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
    let ins: Vec<_> = (0..4).map(|i| n.input(format!("ch{i}_b0"))).collect();
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
    let requests = include_str!("../../../../tests/golden/server_requests.txt");
    let golden = include_str!("../../../../tests/golden/server_responses.golden");
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
        let mut tiles = PortTiles::default();
        sort_groups(
            &tape,
            &mut scratch,
            &mut tiles,
            &requests,
            3,
            pad,
            None,
            &mut decoded,
        )
        .unwrap();
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
        // The production decode and its per-bit oracle alike.
        for decode in [decode_column::<Request>, decode_lanes::<Request>] {
            let mut decoded = Vec::new();
            let e = decode(std::slice::from_ref(&request), 4, &col, &mut decoded).unwrap_err();
            assert_eq!(e.code(), "internal");
            assert!(e.to_string().contains(&format!("({shown})")), "{e}");
        }
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
    assert!(
        line.starts_with("stats q1 schema=mcs-serverstats-v1 "),
        "{line}"
    );
    assert!(
        line.contains("served=2 rejected=1 batches=1 workers=3 kernel=scalar"),
        "{line}"
    );
    for stage in ["queue", "coalesce", "pack", "eval", "write", "e2e"] {
        assert!(line.contains(&format!(" {stage}_us=")), "{line}");
    }

    let json = stats_json(&report);
    assert!(
        json.contains("\"schema\": \"mcs-serverstats-v1\""),
        "{json}"
    );
    for key in [
        "\"served\": 2",
        "\"kernel\": \"scalar\"",
        "\"stages\"",
        "\"p50_us\"",
        "\"p999_us\"",
        "\"mean_us\"",
    ] {
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
    let job = |seq| Job::new(0, seq, &format!("r{seq}"), &["00".parse().unwrap()]);
    queue.try_submit(job(0), &tx).unwrap();
    queue.try_submit(job(1), &tx).unwrap();
    let (returned, e) = queue.try_submit(job(2), &tx).unwrap_err();
    assert_eq!(returned.id(), "r2");
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
    let (_, e) = queue.try_submit(job(3), &tx).unwrap_err();
    assert_eq!(e, FrameError::ShuttingDown);
}

#[test]
fn a_poisoned_queue_keeps_serving() {
    let queue = CoalescerQueue::new(4, 2, Duration::from_secs(60));
    let (tx, _rx) = channel();
    let job = |seq| Job::new(0, seq, &format!("r{seq}"), &["00".parse().unwrap()]);
    queue.try_submit(job(0), &tx).unwrap();
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
    queue.try_submit(job(1), &tx).unwrap();
    assert_eq!(queue.queued(), 2);
    // A full plane leaves at once, without waiting out the linger.
    let batch = queue.next_batch().expect("a full batch");
    assert_eq!(batch.iter().map(|j| j.seq).collect::<Vec<_>>(), [0, 1]);
    queue.try_submit(job(2), &tx).unwrap();
    queue.close();
    let (_, e) = queue.try_submit(job(3), &tx).unwrap_err();
    assert_eq!(e, FrameError::ShuttingDown);
    // Close drains what is queued, then signals exit.
    assert_eq!(queue.next_batch().map(|b| b.len()), Some(1));
    assert!(queue.next_batch().is_none());
}

/// A deterministic splitmix64 stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `count` requests of 0 ..= `channels` random valid keys of `width` bits.
fn random_requests(count: usize, channels: usize, width: usize, seed: u64) -> Vec<Request> {
    let mut state = seed;
    (0..count)
        .map(|i| Request {
            id: format!("r{i}"),
            keys: (0..splitmix(&mut state) as usize % (channels + 1))
                .map(|_| {
                    let rank = splitmix(&mut state) % ValidString::count(width);
                    Key::from(&ValidString::from_rank(width, rank).unwrap())
                })
                .collect(),
        })
        .collect()
}

/// The word-level codec against its per-bit oracle, at 0/1/63/64/65 lanes
/// and at 15 (3×5), 64 (8×8), 64 (2×32) and 160 (10×16) ports: the
/// transposed pack leaves every port word `pack_lanes` writes, and the
/// transposed decode of those words reads back what `decode_lanes` does —
/// the lanes' own keys.
#[test]
fn tile_codec_matches_the_per_bit_oracle() {
    for (channels, width) in [(3, 5), (8, 8), (2, 32), (10, 16)] {
        let ports = channels * width;
        let pad = Key::from(&ValidString::stable(width, (1 << width) - 1).unwrap());
        for lanes in [0, 1, 63, 64, 65] {
            let requests = random_requests(lanes, channels, width, (ports * 100 + lanes) as u64);
            let mut words: Vec<&[Request]> = requests.chunks(64).collect();
            if words.is_empty() {
                words.push(&[]);
            }
            for word in words {
                let mut col = Column {
                    z: vec![0; ports],
                    o: vec![0; ports],
                };
                pack_lanes(word, pad, &mut col);
                let mut tiles = PortTiles::new(ports, 1);
                assert!(pack_tiles(word, pad, channels, &mut tiles, 0));
                for p in 0..ports {
                    assert_eq!(
                        tiles.port(0, p),
                        (col.z[p], col.o[p]),
                        "{channels}x{width}, {lanes} lanes, port {p}"
                    );
                }
                let (mut want, mut got) = (Vec::new(), Vec::new());
                decode_lanes(word, width, &col, &mut want).unwrap();
                decode_tiles(word, width, &mut tiles, 0, &mut got).unwrap();
                assert_eq!(got, want, "{channels}x{width}, {lanes} lanes");
                let keys: Vec<Key> = word.iter().flat_map(|r| r.keys.clone()).collect();
                assert_eq!(got, keys, "{channels}x{width}, {lanes} lanes");
            }
        }
    }
}

/// A lane with too many keys or a key of another width makes the pack
/// report a misfit, which `check_fit` then names.
#[test]
fn pack_reports_lanes_that_do_not_fit() {
    let pad = Key::from(&ValidString::stable(2, 3).unwrap());
    let key = |s: &str| s.parse::<Key>().unwrap();
    let mut tiles = PortTiles::new(8, 1);
    let fits = |keys: Vec<Key>, tiles: &mut PortTiles| {
        let lane = [Request {
            id: "r".into(),
            keys,
        }];
        pack_tiles(&lane, pad, 4, tiles, 0)
    };
    assert!(fits(vec![key("00"), key("0M")], &mut tiles));
    assert!(!fits(vec![key("00"); 5], &mut tiles));
    assert!(!fits(vec![key("00"), key("000")], &mut tiles));
}

/// Every spelled key, character by character, is what the per-bit oracle
/// spells, `?` for a bit in neither plane included.
#[test]
fn spelling_table_matches_the_per_bit_oracle() {
    let mut state = 5;
    for width in 1..=63 {
        for _ in 0..64 {
            let (z, o) = (splitmix(&mut state), splitmix(&mut state));
            let mut spelled = Vec::new();
            push_spelled(&mut spelled, z, o, width);
            assert_eq!(
                String::from_utf8(spelled).unwrap(),
                spell_planes(z, o, width),
                "width {width}"
            );
        }
    }
}

/// The word-at-a-time key classifier, at every position of an 8-byte key
/// and for all 256 byte values: the planes are what a byte-by-byte reading
/// of [`mcs_logic::Trit::from_char`]'s alphabet gives, and `Key::from_str`
/// returns the same value or error as `ValidString`.
#[test]
fn swar_key_parse_matches_valid_string_at_every_byte() {
    // Byte by byte: each byte's planes, or `None` if some byte is not a
    // trit character.
    let bytewise = |token: &[u8]| {
        token.iter().try_fold((0u64, 0u64), |(z, o), &b| {
            let (bz, bo) = match mcs_logic::Trit::from_char(char::from(b)).ok()? {
                mcs_logic::Trit::Zero => (1, 0),
                mcs_logic::Trit::One => (0, 1),
                mcs_logic::Trit::Meta => (1, 1),
            };
            Some((z << 1 | bz, o << 1 | bo))
        })
    };
    for base in [*b"00110000", *b"0011M100"] {
        for pos in 0..8 {
            for b in 0..=255u8 {
                let mut token = base;
                token[pos] = b;
                assert_eq!(swar_planes(&token), bytewise(&token), "{token:?}");
                // The same byte closing a shorter token.
                let prefix = &token[..=pos];
                assert_eq!(swar_planes(prefix), bytewise(prefix), "{prefix:?}");
                // A byte past ASCII stands for the character of that code
                // point, which takes two bytes.
                let s: String = token.iter().map(|&c| char::from(c)).collect();
                let key = s.parse::<Key>();
                let valid = s.parse::<ValidString>();
                assert_eq!(key.as_ref().err(), valid.as_ref().err(), "{s:?}");
                if let (Ok(key), Ok(valid)) = (key, valid) {
                    assert_eq!(key, Key::from(&valid), "{s:?}");
                }
            }
        }
    }
}

/// A line longer than the keep bound is read whole — its length counted,
/// its excess discarded — with the buffer never growing past twice the
/// bound; the next line reads normally, and `\r\n` and a missing last
/// newline end lines as `BufRead::lines` does.
#[test]
fn bounded_line_reads_discard_the_excess_of_long_lines() {
    let keep = 65;
    let mut input = vec![b'x'; 4 << 20];
    input.extend_from_slice(b"\r\nsort a 00\r\n\nlast");
    let mut reader = std::io::BufReader::with_capacity(1000, &input[..]);
    let mut line = Vec::new();
    assert_eq!(
        read_bounded_line(&mut reader, &mut line, keep).unwrap(),
        Some(4 << 20)
    );
    assert_eq!(line.len(), keep);
    assert!(line.capacity() <= 2 * keep, "capacity {}", line.capacity());
    assert_eq!(
        read_bounded_line(&mut reader, &mut line, keep).unwrap(),
        Some(9)
    );
    assert_eq!(line, b"sort a 00");
    assert_eq!(
        read_bounded_line(&mut reader, &mut line, keep).unwrap(),
        Some(0)
    );
    assert_eq!(
        read_bounded_line(&mut reader, &mut line, keep).unwrap(),
        Some(4)
    );
    assert_eq!(line, b"last");
    assert_eq!(
        read_bounded_line(&mut reader, &mut line, keep).unwrap(),
        None
    );
    assert!(line.capacity() <= 2 * keep, "capacity {}", line.capacity());
}

/// Spins until `n` workers are blocked in `next_batch`; fails — after
/// closing the queue, so the test ends — if a worker reports a batch on
/// `batches` first instead of waiting.
fn wait_idle(
    queue: &CoalescerQueue,
    n: usize,
    batches: &std::sync::mpsc::Receiver<Option<Vec<Job>>>,
) {
    while queue.idle_workers() < n {
        if let Ok(batch) = batches.try_recv() {
            queue.close();
            let seqs = batch.map(|b| b.iter().map(Job::seq).collect::<Vec<_>>());
            panic!("a worker took {seqs:?} instead of waiting");
        }
        std::thread::yield_now();
    }
}

/// The next batch a worker reports on `batches`; fails — after closing
/// the queue, so the blocked workers return and the test ends — unless it
/// comes within a minute.
fn next_reported(
    queue: &CoalescerQueue,
    batches: &std::sync::mpsc::Receiver<Option<Vec<Job>>>,
    what: &str,
) -> Vec<Job> {
    match batches.recv_timeout(Duration::from_secs(60)) {
        Ok(Some(batch)) => batch,
        Ok(None) => panic!("{what}: the queue closed"),
        Err(e) => {
            queue.close();
            panic!("{what}: {e}");
        }
    }
}

/// Job `seq` of connection 0, arriving at `enqueued`.
fn job_at(seq: u64, enqueued: Instant) -> Job {
    let key = "00".parse().unwrap();
    Job::arrived(0, seq, &format!("r{seq}"), &[key], enqueued)
}

/// `count` jobs arriving `gap` apart, the last one now.
fn arrivals(count: u64, gap: Duration) -> Vec<Job> {
    let now = Instant::now();
    (0..count)
        .map(|seq| job_at(seq, now - gap * (count - 1 - seq) as u32))
        .collect()
}

/// A worker blocked in `next_batch` on a partial plane of dense arrivals
/// (1 µs apart: the plane should fill long before the hour-long linger)
/// gets the full plane as soon as the submit that completes it arrives.
#[test]
fn a_blocked_worker_gets_the_plane_its_last_submit_completes() {
    let queue = CoalescerQueue::new(64, 4, Duration::from_secs(3600));
    let (tx, _rx) = channel();
    let mut jobs = arrivals(4, Duration::from_micros(1));
    let last = jobs.pop().unwrap();
    for job in jobs {
        queue.try_submit(job, &tx).unwrap();
    }
    std::thread::scope(|s| {
        let (done, batches) = channel();
        let queue = &queue;
        s.spawn(move || done.send(queue.next_batch()).unwrap());
        // Blocked on the partial plane's linger.
        wait_idle(queue, 1, &batches);
        queue.try_submit(last, &tx).unwrap();
        let batch = next_reported(queue, &batches, "the completing submit wakes the worker");
        assert_eq!(batch.iter().map(Job::seq).collect::<Vec<_>>(), [0, 1, 2, 3]);
    });
}

/// A worker blocked on an empty queue is woken by a lone job. One arrival
/// gives no gap estimate, so the partial plane waits out `max_linger`.
#[test]
fn a_blocked_worker_dispatches_a_lone_job_after_the_linger() {
    let linger = Duration::from_millis(40);
    let queue = CoalescerQueue::new(64, 4, linger);
    let (tx, _rx) = channel();
    std::thread::scope(|s| {
        let (done, batches) = channel();
        let queue = &queue;
        s.spawn(move || done.send(queue.next_batch()).unwrap());
        wait_idle(queue, 1, &batches);
        let submitted = Instant::now();
        queue
            .try_submit(Job::new(0, 0, "lone", &["0M".parse().unwrap()]), &tx)
            .unwrap();
        let batch = next_reported(queue, &batches, "the lone job's plane leaves");
        let waited = submitted.elapsed();
        assert_eq!(batch.len(), 1);
        assert!(waited >= linger - Duration::from_millis(1), "{waited:?}");
    });
}

/// Arrivals 20 ms apart cannot fill the other 1,021 lanes of a plane
/// within a 10 s linger (that would take ~20 s), so the partial plane
/// leaves at once.
#[test]
fn a_sparse_history_dispatches_a_partial_plane_at_once() {
    let linger = Duration::from_secs(10);
    let queue = CoalescerQueue::new(1024, 1024, linger);
    let (tx, _rx) = channel();
    for job in arrivals(3, Duration::from_millis(20)) {
        queue.try_submit(job, &tx).unwrap();
    }
    let start = Instant::now();
    let batch = queue.next_batch().expect("partial plane");
    assert_eq!(batch.iter().map(Job::seq).collect::<Vec<_>>(), [0, 1, 2]);
    assert!(start.elapsed() < linger / 2, "waited {:?}", start.elapsed());
}

/// Arrivals 1 µs apart fill a plane long before the linger, so a worker
/// waits for the full plane instead of sending the burst off partial.
#[test]
fn a_dense_burst_waits_for_a_full_plane() {
    let queue = CoalescerQueue::new(64, 8, Duration::from_secs(3600));
    let (tx, _rx) = channel();
    let mut jobs = arrivals(8, Duration::from_micros(1));
    let last = jobs.pop().unwrap();
    for job in jobs {
        queue.try_submit(job, &tx).unwrap();
    }
    std::thread::scope(|s| {
        let (done, batches) = channel();
        let queue = &queue;
        s.spawn(move || done.send(queue.next_batch()).unwrap());
        // Waiting on seven of eight lanes, not taking them.
        wait_idle(queue, 1, &batches);
        assert_eq!(queue.queued(), 7);
        queue.try_submit(last, &tx).unwrap();
        let batch = next_reported(queue, &batches, "the full plane leaves");
        assert_eq!(batch.len(), 8);
    });
}

/// A lone arrival gives no gap estimate: even on a queue whose plane
/// could never fill, the first partial plane waits out the linger.
#[test]
fn a_cold_start_waits_out_the_linger() {
    let linger = Duration::from_millis(40);
    let queue = CoalescerQueue::new(1024, 1024, linger);
    let (tx, _rx) = channel();
    queue.try_submit(job_at(0, Instant::now()), &tx).unwrap();
    let batch = queue.next_batch().expect("partial plane");
    assert_eq!(batch.len(), 1);
    let waited = batch[0].enqueued.elapsed();
    assert!(waited >= linger, "released after {waited:?}");
}

/// Dense arrivals predict that the plane fills, but its last lanes never
/// come: `max_linger` still caps the wait.
#[test]
fn a_mispredicted_wait_is_capped_by_the_linger() {
    let linger = Duration::from_millis(40);
    let queue = CoalescerQueue::new(64, 64, linger);
    let (tx, _rx) = channel();
    for job in arrivals(3, Duration::from_micros(1)) {
        queue.try_submit(job, &tx).unwrap();
    }
    let batch = queue.next_batch().expect("partial plane");
    assert_eq!(batch.len(), 3);
    // Only a spurious wake-up in the last ~61 µs (the predicted fill
    // time) could release the plane before the cap.
    let waited = batch[0].enqueued.elapsed();
    assert!(
        waited >= linger - Duration::from_millis(1),
        "released after {waited:?}"
    );
}

/// A worker timing a lone job's linger slept on no gap estimate; the
/// second arrival forms one, and when it says the plane cannot fill in
/// time (a 10 s gap against 1,022 missing lanes and an hour's linger),
/// that push wakes the worker, which sends the plane off at once.
#[test]
fn the_first_gap_estimate_wakes_a_worker_timing_a_cold_linger() {
    let queue = CoalescerQueue::new(1024, 1024, Duration::from_secs(3600));
    let (tx, _rx) = channel();
    let then = Instant::now() - Duration::from_secs(10);
    queue.try_submit(job_at(0, then), &tx).unwrap();
    std::thread::scope(|s| {
        let (done, batches) = channel();
        let queue = &queue;
        s.spawn(move || done.send(queue.next_batch()).unwrap());
        wait_idle(queue, 1, &batches);
        queue.try_submit(job_at(1, Instant::now()), &tx).unwrap();
        let batch = next_reported(queue, &batches, "the estimate wakes the worker");
        assert_eq!(batch.iter().map(Job::seq).collect::<Vec<_>>(), [0, 1]);
    });
}

/// Two blocked workers and a burst of two planes: each worker gets one
/// full plane without waiting out the linger (an hour).
#[test]
fn two_blocked_workers_take_a_burst_of_two_planes() {
    let queue = CoalescerQueue::new(64, 4, Duration::from_secs(3600));
    let (tx, _rx) = channel();
    std::thread::scope(|s| {
        let (done, batches) = channel();
        for _ in 0..2 {
            let done = done.clone();
            let queue = &queue;
            s.spawn(move || done.send(queue.next_batch()).unwrap());
        }
        wait_idle(&queue, 2, &batches);
        for seq in 0..8 {
            queue
                .try_submit(Job::new(0, seq, "r", &["11".parse().unwrap()]), &tx)
                .unwrap();
        }
        let mut seqs: Vec<Vec<u64>> = (0..2)
            .map(|_| {
                let batch = next_reported(&queue, &batches, "both planes leave");
                batch.iter().map(Job::seq).collect()
            })
            .collect();
        seqs.sort();
        assert_eq!(seqs, [[0, 1, 2, 3], [4, 5, 6, 7]]);
    });
}

/// A plane whose jobs partly expired before dispatch: the worker answers
/// the expired ones `timeout` and sorts the live ones, and the writer puts
/// every line out in request order.
#[test]
fn a_plane_with_expired_jobs_serves_the_live_ones() {
    let mut cfg = cfg4x2();
    cfg.request_timeout = Some(Duration::from_secs(10));
    let engine = SortEngine::new(cfg).unwrap();
    let queue = CoalescerQueue::new(64, 8, Duration::from_secs(3600));
    let (tx, rx) = channel();
    let (now, long_ago) = (Instant::now(), Instant::now() - Duration::from_secs(20));
    for (seq, enqueued) in [long_ago, now, long_ago, now, now].into_iter().enumerate() {
        queue.try_submit(job_at(seq as u64, enqueued), &tx).unwrap();
    }
    drop(tx);
    queue.close();
    let stats = ServerStats::new(1, KernelId::Scalar);
    worker_loop(&engine, &queue, &stats);
    let mut out = Vec::new();
    writer_loop(rx, &mut out, &stats).unwrap();
    let lines: Vec<String> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|line| line.split(" waited").next().unwrap_or(line).to_string())
        .collect();
    let late = "timeout request";
    assert_eq!(
        lines,
        [
            format!("err r0 {late}"),
            "ok r1 00".into(),
            format!("err r2 {late}"),
            "ok r3 00".into(),
            "ok r4 00".into(),
        ]
    );
    let report = stats.snapshot();
    assert_eq!((report.served, report.rejected, report.batches), (3, 2, 1));
}

/// The writer side of one plane shared by two connections: the worker
/// sends one reply per run of consecutive sequence numbers of one
/// connection — a run ends where the connection changes, even if the next
/// sequence number follows on, and where the reader answered a frame
/// itself — and each connection's writer puts its own lines out in
/// request order.
#[test]
fn replies_of_one_plane_reach_each_connection_in_order() {
    let (tx_a, rx_a) = channel();
    let (tx_b, rx_b) = channel();
    let key: Key = "01".parse().unwrap();
    let job = |conn: u64, seq: u64| {
        let id = format!("{}{seq}", if conn == 0 { 'a' } else { 'b' });
        Job {
            route: conn as usize,
            ..Job::new(conn, seq, &id, &[key])
        }
    };
    // Connection a's reader refused its frames 2 and 5 itself; connection
    // b's frames 0 and 1 were answered by an earlier plane.
    let empty = "err - empty request carries no keys";
    for seq in [2, 5] {
        tx_a.send(Reply::line(seq, empty)).unwrap();
    }
    for seq in [0, 1] {
        tx_b.send(Reply::line(seq, &format!("ok b{seq} 01")))
            .unwrap();
    }
    let batch = vec![
        job(0, 0),
        job(0, 1),
        job(1, 2),
        job(0, 3),
        job(0, 4),
        job(0, 6),
        job(1, 3),
    ];
    let routes = [tx_a, tx_b];
    send_replies(&batch, &routes, |job, text| {
        push_ok(text, job.id.as_slice(), job.keys())
    });
    drop((batch, routes));
    // (first seq, lines, queued lines, text) of each message, in arrival
    // order.
    let runs = |rx: &std::sync::mpsc::Receiver<Reply>| {
        rx.try_iter()
            .map(|r| (r.seq, r.lines, r.ages.len(), r.text))
            .collect::<Vec<_>>()
    };
    let (runs_a, runs_b) = (runs(&rx_a), runs(&rx_b));
    let shape = |runs: &[(u64, usize, usize, Vec<u8>)]| {
        runs.iter().map(|r| (r.0, r.1, r.2)).collect::<Vec<_>>()
    };
    assert_eq!(
        shape(&runs_a),
        [(2, 1, 0), (5, 1, 0), (0, 2, 2), (3, 2, 2), (6, 1, 1)]
    );
    assert_eq!(shape(&runs_b), [(0, 1, 0), (1, 1, 0), (2, 1, 1), (3, 1, 1)]);
    let want_a = format!("ok a0 01\nok a1 01\n{empty}\nok a3 01\nok a4 01\n{empty}\nok a6 01\n");
    for (runs, want, lines, queued) in [
        (runs_a, want_a.as_str(), 7, 5),
        (runs_b, "ok b0 01\nok b1 01\nok b2 01\nok b3 01\n", 4, 2),
    ] {
        // Replay the messages in reverse, so the writer has to re-sequence
        // them.
        let (tx, rx) = channel();
        for (seq, lines, stamps, text) in runs.into_iter().rev() {
            let ages = InlineVec::from_slice(&vec![0; stamps]);
            let sent = Instant::now();
            tx.send(Reply {
                seq,
                lines,
                text,
                ages,
                sent,
            })
            .unwrap();
        }
        drop(tx);
        let stats = ServerStats::new(1, KernelId::Scalar);
        let mut out = Vec::new();
        writer_loop(rx, &mut out, &stats).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), want);
        let report = stats.snapshot();
        assert_eq!(report.stages.write.count(), lines);
        assert_eq!(report.stages.e2e.count(), queued);
    }
}

/// `count` jobs of connection 0 with sequence numbers from `first`,
/// arriving now.
fn jobs_from(first: u64, count: u64) -> impl Iterator<Item = Job> {
    (first..first + count).map(|seq| Job::new(0, seq, &format!("r{seq}"), &["0M".parse().unwrap()]))
}

/// The sequence numbers of a popped batch.
fn seqs(batch: &[Job]) -> Vec<u64> {
    batch.iter().map(Job::seq).collect()
}

/// Planes leave in arrival order whether they leave full or partial: two
/// jobs leave on the linger, six more form a full plane and a partial one,
/// and four more a full plane again.
#[test]
fn the_plane_queue_is_fifo_across_partial_and_full_planes() {
    let queue = CoalescerQueue::new(64, 4, Duration::from_millis(1));
    let (tx, _rx) = channel();
    let mut popped = Vec::new();
    for (first, count, planes) in [(0, 2, 1), (2, 6, 2), (8, 4, 1)] {
        for job in jobs_from(first, count) {
            queue.try_submit(job, &tx).unwrap();
        }
        for _ in 0..planes {
            let batch = queue.next_batch().expect("a plane");
            assert!(batch.len() <= 4, "{:?}", seqs(&batch));
            popped.push(seqs(&batch));
        }
    }
    assert_eq!(
        popped,
        [vec![0, 1], vec![2, 3, 4, 5], vec![6, 7], vec![8, 9, 10, 11]]
    );
    assert_eq!(queue.queued(), 0);
}

/// `queued()` is the pushes minus the popped planes' jobs; a refused
/// submit changes nothing.
#[test]
fn queued_counts_pushes_minus_pops() {
    let queue = CoalescerQueue::new(10, 4, Duration::from_secs(3600));
    let (tx, _rx) = channel();
    let (mut pushed, mut popped) = (0, 0);
    for (push, pop) in [(12, 1), (3, 2), (5, 0)] {
        for job in jobs_from(pushed as u64, push) {
            if queue.try_submit(job, &tx).is_ok() {
                pushed += 1;
            }
            assert_eq!(queue.queued(), pushed - popped);
        }
        for _ in 0..pop {
            popped += queue.next_batch().expect("a full plane").len();
            assert_eq!(queue.queued(), pushed - popped);
        }
    }
    // 10 of 12 fit the depth, 4 popped, 3 more, 8 popped, then 5 more.
    assert_eq!((pushed, popped), (18, 12));
    assert_eq!(queue.queued(), 6);
}

/// Closing releases every plane, full or partial, without waiting out the
/// linger, and then signals exit.
#[test]
fn close_drains_every_plane() {
    let linger = Duration::from_secs(3600);
    let queue = CoalescerQueue::new(64, 4, linger);
    let (tx, _rx) = channel();
    for job in jobs_from(0, 10) {
        queue.try_submit(job, &tx).unwrap();
    }
    queue.close();
    let start = Instant::now();
    let mut sizes = Vec::new();
    while let Some(batch) = queue.next_batch() {
        sizes.push(batch.len());
    }
    assert_eq!(sizes, [4, 4, 2]);
    assert!(start.elapsed() < linger / 2, "waited {:?}", start.elapsed());
    assert_eq!(queue.queued(), 0);
}

/// A popped plane's buffers come back: the worker's previous plane is
/// emptied into the spare list, and the next tail plane starts from it
/// instead of a fresh allocation.
#[test]
fn popped_plane_buffers_are_reused() {
    let queue = CoalescerQueue::new(64, 4, Duration::from_secs(3600));
    let (tx, _rx) = channel();
    let mut plane = Plane::default();
    for job in jobs_from(0, 8) {
        queue.try_submit(job, &tx).unwrap();
    }
    assert!(queue.next_batch_into(&mut plane));
    let first = plane.jobs.as_ptr();
    assert!(queue.next_batch_into(&mut plane));
    assert_eq!(seqs(&plane.jobs), [4, 5, 6, 7]);
    for job in jobs_from(8, 4) {
        queue.try_submit(job, &tx).unwrap();
    }
    assert!(queue.next_batch_into(&mut plane));
    assert_eq!(seqs(&plane.jobs), [8, 9, 10, 11]);
    assert_eq!(
        plane.jobs.as_ptr(),
        first,
        "the tail plane took a fresh buffer"
    );
}

/// A plane routes each job to its own connection's writer: a submit
/// attaches a route only when the plane's previous job is of another
/// connection, so a run of one connection's jobs shares one sender, and
/// connections taking turns cost one per job, never a search.
#[test]
fn a_plane_routes_each_job_to_its_connection() {
    let queue = CoalescerQueue::new(64, 4, Duration::from_secs(3600));
    let (tx_a, rx_a) = channel();
    let (tx_b, rx_b) = channel();
    let key = ["00".parse().unwrap()];
    for (seq, conn) in [(0, 0), (0, 1), (1, 0), (2, 0), (3, 0), (1, 1)] {
        let tx = if conn == 0 { &tx_a } else { &tx_b };
        queue
            .try_submit(Job::new(conn, seq, "r", &key), tx)
            .unwrap();
    }
    queue.close();
    let mut plane = Plane::default();
    let mut shapes = Vec::new();
    while queue.next_batch_into(&mut plane) {
        let routes: Vec<_> = plane.jobs.iter().map(|job| job.route).collect();
        shapes.push((plane.routes.len(), routes));
        for job in &plane.jobs {
            plane.routes[job.route]
                .send(Reply::line(job.seq, &job.conn.to_string()))
                .unwrap();
        }
    }
    assert_eq!(shapes, [(3, vec![0, 1, 2, 2]), (2, vec![0, 1])]);
    let got = |rx: &std::sync::mpsc::Receiver<Reply>| {
        rx.try_iter()
            .map(|r| (r.seq, String::from_utf8(r.text).unwrap()))
            .collect::<Vec<_>>()
    };
    let line = |seq: u64, conn: &str| (seq, format!("{conn}\n"));
    assert_eq!(
        got(&rx_a),
        [line(0, "0"), line(1, "0"), line(2, "0"), line(3, "0")]
    );
    assert_eq!(got(&rx_b), [line(0, "1"), line(1, "1")]);
}

/// Runs `serve` on its own thread and returns what it returns; fails,
/// rather than hangs, unless it ends within a minute.
fn within_a_minute<T: Send + 'static>(what: &str, serve: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = channel();
    std::thread::spawn(move || {
        let _ = done.send(serve());
    });
    match result.recv_timeout(Duration::from_secs(60)) {
        Ok(value) => value,
        Err(e) => panic!("{what}: no end within a minute ({e})"),
    }
}

/// [`serve_lines`] of `input` under `cfg` on a watchdog: the result and
/// whatever was written.
fn serve_watched(
    what: &str,
    cfg: ServerConfig,
    input: &'static [u8],
) -> (Result<ServeReport, ServerError>, String) {
    let engine = SortEngine::new(cfg).unwrap();
    within_a_minute(what, move || {
        let mut out = Vec::new();
        let result = serve_lines(&engine, input, &mut out);
        (result, String::from_utf8(out).unwrap())
    })
}

/// The plane shapes and worker counts the route-lifetime tests serve
/// under, with a linger long enough that only a full plane or the close
/// sends a plane off.
fn route_configs() -> impl Iterator<Item = ServerConfig> {
    [(1, 1), (1, 2), (2, 2), (2, 256)]
        .into_iter()
        .map(|(workers, max_batch)| {
            let mut cfg = cfg4x2();
            (cfg.workers, cfg.max_batch) = (workers, max_batch);
            cfg.max_linger = Duration::from_secs(3600);
            cfg
        })
}

/// A reader that hits invalid UTF-8 after submitting jobs ends the
/// connection with a typed I/O error, and every reply it was owed is
/// still written: its routes leave with the planes, so the writer neither
/// hangs on them nor ends before them.
#[test]
fn invalid_utf8_after_submits_writes_every_reply_then_fails_typed() {
    let input = b"sort a 00 11\nsort b 11 00\nsort c 0M\n\xff\xfe\nsort d 00\n";
    for cfg in route_configs() {
        let what = format!("workers={} max_batch={}", cfg.workers, cfg.max_batch);
        let (result, out) = serve_watched(&what, cfg, input);
        match result {
            Err(ServerError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{what}")
            }
            other => panic!("{what}: expected an invalid-data error, got {other:?}"),
        }
        assert_eq!(out, "ok a 00 11\nok b 00 11\nok c 0M\n", "{what}");
    }
}

/// A connection whose every frame is rejected submits nothing and attaches
/// no route: its writer ends with the reader, after every `err` line.
#[test]
fn a_connection_with_every_frame_rejected_ends() {
    let input = b"sort\nsort e\nsort x 00 00 00 00 00\nsort y 02\nfrob\n";
    for cfg in route_configs() {
        let what = format!("workers={} max_batch={}", cfg.workers, cfg.max_batch);
        let (result, out) = serve_watched(&what, cfg, input);
        let report = result.unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!((report.served, report.rejected), (0, 5), "{what}");
        let codes: Vec<&str> = out
            .lines()
            .map(|l| l.split(' ').nth(2).unwrap_or(l))
            .collect();
        assert_eq!(
            codes,
            [
                "malformed",
                "empty",
                "too-many-keys",
                "bad-key",
                "malformed"
            ],
            "{what}"
        );
    }
}

/// A writer that panics drops its receiver; the workers' sends down the
/// route then fail quietly, the planes still leave, and the serve ends
/// with the typed [`ServerError::WriterPanicked`].
#[test]
fn a_writer_panic_ends_the_serve_typed_under_every_plane_shape() {
    let input = b"sort r1 00 11\nsort panic-the-writer 11 00\nsort r3 0M\nsort r4 11\n";
    assert!(std::str::from_utf8(input)
        .unwrap()
        .contains(WRITER_PANIC_ID));
    for cfg in route_configs() {
        let what = format!("workers={} max_batch={}", cfg.workers, cfg.max_batch);
        match serve_watched(&what, cfg, input).0 {
            Err(ServerError::WriterPanicked) => {}
            other => panic!("{what}: expected WriterPanicked, got {other:?}"),
        }
    }
}

/// Over a socket the queue stays open when a connection ends, so its
/// planes leave on the linger: a connection that hits invalid UTF-8 after
/// submitting jobs still gets every reply, then its socket closes, and
/// the server goes on serving others.
#[test]
fn a_tcp_reader_failing_mid_stream_gets_every_reply_then_eof() {
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpListener, TcpStream};
    let mut cfg = cfg4x2();
    cfg.workers = 2;
    cfg.max_linger = Duration::from_millis(2);
    let engine = SortEngine::new(cfg).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (failed, after) = within_a_minute("tcp serve", move || {
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_tcp(&engine, listener));
            let exchange = |bytes: &[u8]| {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(bytes).unwrap();
                stream.shutdown(Shutdown::Write).unwrap();
                let mut got = String::new();
                stream.read_to_string(&mut got).unwrap();
                got
            };
            // Nothing follows the bad line, so the server leaves no unread
            // bytes behind, which would turn its close into a reset.
            let failed = exchange(b"sort a 00 11\nsort b 11 00\n\xff\n");
            let after = exchange(b"sort d 0M 00\nshutdown op\n");
            let report = server.join().unwrap().unwrap();
            assert_eq!((report.served, report.rejected), (3, 0));
            (failed, after)
        })
    });
    assert_eq!(failed, "ok a 00 11\nok b 00 11\n");
    assert_eq!(after, "ok d 00 0M\nok op draining\n");
}
