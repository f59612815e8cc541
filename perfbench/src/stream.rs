//! The `stream-*` workloads: `throughput::run_cell` jobs of a fixed vector
//! count, repeated for the measured time, each job's checksum checked.

use std::time::{Duration, Instant};

use mcs_bench::metrics::nanos_u64;
use mcs_bench::throughput::{run_cell, ThroughputConfig};
use mcs_logic::plane::kernel::KernelId;
use mcs_logic::PlaneWidth;

use crate::checksums;
use crate::layers::{eval_replay, time_setup};
use crate::report::{digest, fast_rate, fast_time, median, Report};

/// One stream workload.
pub struct StreamSpec {
    /// Workload name.
    pub name: &'static str,
    /// Channels `n`.
    pub channels: usize,
    /// Bits per channel `B`.
    pub width: usize,
    /// Vectors per `run_cell` job (a whole number of 8192-lane chunks).
    pub job_vectors: u64,
    /// Gate count the circuit must have.
    pub gates: usize,
}

/// 8×2: 247 gates; stimulus generation dominates the loop.
pub const STREAM_8X2: StreamSpec = StreamSpec {
    name: "stream-8x2",
    channels: 8,
    width: 2,
    job_vectors: 1 << 17,
    gates: 247,
};

/// 16×16: Batcher, 25,641 gates; tape eval is a large share.
pub const STREAM_16X16: StreamSpec = StreamSpec {
    name: "stream-16x16",
    channels: 16,
    width: 16,
    job_vectors: 1 << 18,
    gates: 25_641,
};

/// The job configuration: the defaults users get, on one worker.
pub fn job_config(spec: &StreamSpec, seed: u64, kernel: KernelId) -> ThroughputConfig {
    let mut cfg = ThroughputConfig::new(spec.channels, spec.width);
    cfg.vectors = spec.job_vectors;
    cfg.workers = 1;
    cfg.kernel = kernel;
    cfg.seed = seed;
    cfg
}

/// The checksum of a scalar, 1-wide run of the job: a different kernel
/// and plane width, which the conformance contract says agree bit for bit.
///
/// # Errors
///
/// A set-up failure of the reference run, as text.
pub fn reference_checksum(spec: &StreamSpec, seed: u64) -> Result<u64, String> {
    let mut cfg = job_config(spec, seed, KernelId::Scalar);
    cfg.plane_width = PlaneWidth::X1;
    Ok(run_cell(&cfg).map_err(|e| e.to_string())?.checksum)
}

/// The checksum a job must produce, and which check that is: the
/// committed value for this seed, else a scalar 1-wide run's. The latter
/// shares the stimulus generator with the measured run, so it checks only
/// that kernel and plane width agree.
fn expected_checksum(spec: &StreamSpec, seed: u64) -> Result<(u64, &'static str), String> {
    match checksums::committed(spec.name, seed) {
        Some(sum) => Ok((sum, "committed value")),
        None => Ok((
            reference_checksum(spec, seed)?,
            "seed not committed: scalar-x1 run, kernel agreement only",
        )),
    }
}

/// Runs the workload for `seconds` of measured jobs.
///
/// # Errors
///
/// A set-up failure, as text.
pub fn run(
    spec: &StreamSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    kernel: KernelId,
) -> Result<Report, String> {
    let cfg = job_config(spec, seed, kernel);
    // The streamed inputs are a pure function of these parameters.
    let params = format!(
        "{}x{} vectors={} chunk={} seed={}",
        cfg.channels, cfg.width, cfg.vectors, cfg.chunk_lanes, cfg.seed
    );
    let mut report = Report {
        workload_digest: digest(params.as_bytes()),
        ..Report::default()
    };

    // Each job is one engine construction (verify, build, check, compile,
    // pre-flight) and then the timed loop, so the set-up of every job is
    // its call time minus the loop's.
    let (mut rates, mut setups, mut chunk_means, mut chunk_sums, mut sums) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut gates_ok = true;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || rates.len() < 3 {
        let t = Instant::now();
        let r = run_cell(&cfg).map_err(|e| e.to_string())?;
        setups.push(t.elapsed().saturating_sub(r.elapsed).as_secs_f64());
        rates.push(r.vectors_per_s());
        let h = &r.eval_latency;
        chunk_means.push(h.sum() as f64 / h.count().max(1) as f64);
        chunk_sums.push(h.sum() as f64 / nanos_u64(r.elapsed).max(1) as f64);
        sums.push(r.checksum);
        gates_ok &= r.gates == spec.gates;
    }
    let setup_s = fast_time(&setups);

    let (want, source) = expected_checksum(spec, seed)?;
    report.attempted = sums.len() as u64;
    report.failed = sums.iter().filter(|&&s| s != want || !gates_ok).count() as u64;
    println!(
        "check {} jobs of {} vectors: checksum 0x{want:016x} ({source}), {} mismatched; gates {}",
        sums.len(),
        spec.job_vectors,
        report.failed,
        if gates_ok { "ok" } else { "MISMATCH" }
    );

    let vectors_per_s = fast_rate(&rates);
    let (lo, hi) = rates
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    println!(
        "jobs vectors/s min={lo:.0} median={:.0} p95={vectors_per_s:.0} max={hi:.0}; \
         set-up s median={:.4} p5={setup_s:.4}",
        median(&rates),
        median(&setups)
    );
    report.push("setup_s", setup_s, "s");
    report.push("vectors_per_s", vectors_per_s, "1/s");
    report.push("e2e_mean_us", fast_time(&chunk_means) / 1e3, "us");

    if trace {
        let t = Instant::now();
        let layers = time_setup(spec.channels, spec.width)?;
        layers.push_metrics(&mut report);
        // The remainder of `run_cell`'s set-up is its differential
        // pre-flight.
        let split = layers.verify_s + layers.build_s + layers.check_s + layers.compile_s;
        report.push("throughput.preflight_s", setup_s - split, "s");
        let replay = eval_replay(
            &layers.tape,
            spec.channels,
            spec.width,
            cfg.chunk_lanes,
            4,
            kernel,
            seed,
            Duration::from_millis(500),
        )?;
        report.attempted += 1;
        report.failed += u64::from(replay.failed > 0);
        println!(
            "check eval replay: {} lanes checked, {} wrong",
            replay.checked, replay.failed
        );
        let loop_ns_per_vector = 1e9 / vectors_per_s;
        let eval = replay.ns_per_vector;
        report.push("tape.eval_ns_per_vector", eval, "ns");
        report.push("tape.eval_share", eval / loop_ns_per_vector, "ratio");
        report.push(
            "tape.gate_evals_per_s",
            layers.gates as f64 * 1e9 / eval,
            "1/s",
        );
        // Derived, not timed: the loop minus the eval replay.
        report.push(
            "stimulus.gen_checksum_ns_per_vector",
            loop_ns_per_vector - eval,
            "ns",
        );
        report.push(
            "throughput.chunk_sum_over_loop",
            median(&chunk_sums),
            "ratio",
        );
        report.push("trace.overhead_s", t.elapsed().as_secs_f64(), "s");
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_logic::plane::kernel;

    const SMALL: StreamSpec = StreamSpec {
        name: "stream-8x2-small",
        job_vectors: 1 << 16,
        ..STREAM_8X2
    };

    #[test]
    fn chunk_timer_covers_the_whole_loop() {
        let r = run(&SMALL, 5, 0.0, true, kernel::preferred()).unwrap();
        assert!(r.correct(), "{r:?}");
        let ratio = r.get("throughput.chunk_sum_over_loop").unwrap();
        // The per-chunk timer wraps generation, eval and checksum, so the
        // chunk times add up to the loop within 5%.
        assert!((ratio - 1.0).abs() <= 0.05, "chunk sum / loop = {ratio}");
    }

    #[test]
    fn committed_checksum_matches_a_scalar_reference_run() {
        for seed in [0, 511] {
            let committed = checksums::committed(STREAM_8X2.name, seed).unwrap();
            assert_eq!(reference_checksum(&STREAM_8X2, seed).unwrap(), committed);
        }
        assert_eq!(checksums::committed(STREAM_8X2.name, 512), None);
    }

    #[test]
    fn traced_and_untraced_runs_stream_identical_inputs() {
        let plain = run(&SMALL, 9, 0.0, false, kernel::preferred()).unwrap();
        let traced = run(&SMALL, 9, 0.0, true, kernel::preferred()).unwrap();
        assert!(plain.correct() && traced.correct());
        assert_eq!(plain.workload_digest, traced.workload_digest);
        let other = run(&SMALL, 10, 0.0, false, kernel::preferred()).unwrap();
        assert_ne!(plain.workload_digest, other.workload_digest);
    }
}
