//! The repository benchmark: four workloads over the serving stack
//! (netlist → `EvalTape` → `throughput` / `server`), every output checked,
//! each layer timed from outside by timing calls into it.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench checksums <stream-workload> <first-seed> <last-seed>
//! ```
//!
//! Workloads (1 engine/server worker each; 4-wide planes and the preferred
//! kernel, or `MCS_KERNEL` when set):
//!
//! * `stream-8x2` — `run_cell` jobs on the 247-gate 8×2 cell, where
//!   stimulus generation dominates the loop;
//! * `stream-16x16` — `run_cell` jobs on the 25,641-gate Batcher 16×16
//!   cell, where tape eval is a large share;
//! * `serve-pipe` — `serve_lines` on an 8×8 engine, full 256-lane batches;
//! * `serve-open` — `serve_tcp` on localhost under an open loop at a fixed
//!   25,000 requests/s over one connection.
//!
//! Within a run, work is repeated (stream jobs, pipe rounds, and set-ups
//! interleaved with them) and the fast end of the repetitions (5th
//! percentile of times, 95th of rates) is reported, with the median printed beside it: co-tenant contention on a
//! shared host only ever slows a repetition, and it comes in phases of
//! seconds to minutes.
//!
//! Stdout carries an environment line, check lines and a metric table;
//! the last line is the JSON result. With `--trace 0` it holds the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a run
//! that additionally times each layer. A per-layer metric whose layer is
//! not on the workload's path reads 0. A failed check exits 1; a run that
//! hangs past the watchdog exits 3 without a result.

mod checksums;
mod layers;
mod report;
mod rng;
mod serve;
mod stream;

use std::process::ExitCode;
use std::time::Duration;

use mcs_logic::plane::kernel;
use mcs_logic::PlaneWidth;

use report::{environment_line, peak_rss_mb, Report};

/// End-to-end metrics, measured with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("vectors_per_s", "1/s"),
    ("e2e_mean_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, from a traced run.
const PER_LAYER: &[(&str, &str)] = &[
    ("networks.verify_s", "s"),
    ("circuit.build_s", "s"),
    ("verify.circuit_check_s", "s"),
    ("tape.compile_s", "s"),
    ("throughput.preflight_s", "s"),
    ("tape.gates", "count"),
    ("tape.slots", "count"),
    ("tape.runs", "count"),
    ("tape.levels", "count"),
    ("tape.eval_ns_per_vector", "ns"),
    ("tape.eval_share", "ratio"),
    ("tape.gate_evals_per_s", "1/s"),
    ("stimulus.gen_checksum_ns_per_vector", "ns"),
    ("throughput.chunk_sum_over_loop", "ratio"),
    ("server.parse_ns_per_req", "ns"),
    ("server.pack_ns_per_req", "ns"),
    ("server.eval_ns_per_req", "ns"),
    ("server.decode_ns_per_req", "ns"),
    ("server.format_ns_per_req", "ns"),
    ("server.queue_wait_mean_us", "us"),
    ("server.coalesce_mean_us", "us"),
    ("server.write_mean_us", "us"),
    ("server.batches", "count"),
    ("server.lane_fill", "ratio"),
    ("server.rejected_overloaded", "count"),
    ("server.rejected_other", "count"),
    ("client.gen_lag_p99_us", "us"),
    ("client.gen_lag_max_us", "us"),
    ("client.e2e_max_us", "us"),
    ("e2e_p50_us", "us"),
    ("e2e_p99_us", "us"),
    ("e2e_samples", "count"),
    ("slo_met_share", "ratio"),
    ("requests_per_s", "1/s"),
    ("failed_share", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Wall-clock bound of one run; past it the watchdog fails the run.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => parsed.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(parsed)
}

fn run(args: &Args, kernel: kernel::KernelId) -> Result<Report, String> {
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "stream-8x2" => stream::run(&stream::STREAM_8X2, seed, secs, trace, kernel),
        "stream-16x16" => stream::run(&stream::STREAM_16X16, seed, secs, trace, kernel),
        "serve-pipe" => serve::run_pipe(seed, secs, trace, kernel),
        "serve-open" => serve::run_open(seed, secs, trace, kernel),
        other => Err(format!(
            "unknown workload {other:?} (stream-8x2, stream-16x16, serve-pipe, serve-open)"
        )),
    }
}

/// `checksums <workload> <first> <last>`: prints the committed-table rows
/// of seeds `first..=last`, each cross-checked against a scalar, 1-wide
/// run.
fn print_checksums(args: &[String]) -> Result<(), String> {
    let [name, first, last] = args else {
        return Err("usage: checksums <stream-workload> <first-seed> <last-seed>".into());
    };
    let spec = match name.as_str() {
        "stream-8x2" => &stream::STREAM_8X2,
        "stream-16x16" => &stream::STREAM_16X16,
        _ => return Err(format!("{name} is not a stream workload")),
    };
    let first: u64 = first.parse().map_err(|e| format!("{first}: {e}"))?;
    let last: u64 = last.parse().map_err(|e| format!("{last}: {e}"))?;
    for seed in first..=last {
        let cfg = stream::job_config(spec, seed, kernel::preferred());
        let got = mcs_bench::throughput::run_cell(&cfg).map_err(|e| e.to_string())?;
        let reference = stream::reference_checksum(spec, seed)?;
        if got.checksum != reference {
            return Err(format!(
                "seed {seed}: 0x{:016x} != reference 0x{reference:016x}",
                got.checksum
            ));
        }
        println!("    0x{:016x}, // {seed}", got.checksum);
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("checksums") {
        return match print_checksums(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let kernel = match kernel::from_env() {
        Ok(k) => k.unwrap_or_else(kernel::preferred),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A hang anywhere (e.g. a server that never returns) becomes a failed
    // run instead of a stuck process.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: watchdog: run exceeded {WATCHDOG:?}, failing it");
        std::process::exit(3);
    });

    println!(
        "{}",
        environment_line(
            &args.workload,
            args.seed,
            kernel.name(),
            PlaneWidth::X4.words()
        )
    );
    let mut report = match run(&args, kernel) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    report.push("peak_rss_mb", peak_rss_mb(), "MiB");
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    report.push("failed_share", failed_share, "ratio");
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in wanted {
        if report.get(name).is_none() {
            // Not on this workload's path (or a percentile the sample
            // cannot support).
            report.push(name, 0.0, unit);
        }
    }
    println!("workload digest 0x{:016x}", report.workload_digest);
    print!("{}", report.table());
    println!(
        "checked {} operations, {} failed (failed_share {failed_share})",
        report.attempted, report.failed
    );
    let names: Vec<&str> = wanted.iter().map(|&(n, _)| n).collect();
    println!("{}", report.json(&names));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
