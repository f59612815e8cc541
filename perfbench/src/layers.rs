//! Layer timings shared by every workload, each taken from outside by
//! timing calls into one layer: the set-up pipeline (network → 0-1 verify
//! → circuit → gate-level check → tape compile) and a replay of tape eval
//! on inputs shaped like the workload's own.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mcs_bench::metrics::nanos_u64;
use mcs_bench::throughput::cell_network;
use mcs_bench::verify::zero_one_circuit_check;
use mcs_gray::ValidString;
use mcs_logic::plane::kernel::KernelId;
use mcs_logic::{PlaneWidth, Trit, TritBlock, TritVec};
use mcs_netlist::EvalTape;
use mcs_networks::{build_sorting_circuit, zero_one_verify, TwoSortFlavor};

use crate::report::{fast_time, Report};
use crate::rng::SplitMix;

/// Set-up repetitions of the per-layer split: at least `SETUP_MIN_REPS`,
/// and until `SETUP_MIN_TIME` has passed (at most `SETUP_MAX_REPS`).
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_millis(500);
const SETUP_MAX_REPS: usize = 201;

/// Share of a run's wall time spent on interleaved set-up repetitions.
const SETUP_SHARE: f64 = 0.1;

/// Whether another set-up repetition is due after `done` of them.
fn more_setup(done: usize, start: Instant) -> bool {
    done < SETUP_MIN_REPS || (done < SETUP_MAX_REPS && start.elapsed() < SETUP_MIN_TIME)
}

/// Set-up time of a workload, sampled across its whole run: repetitions
/// are interleaved with the measured work, so that one slow phase of a
/// shared host cannot set the figure. The figure is the fast end
/// ([`fast_time`]).
pub struct SetupSampler<F> {
    build: F,
    times: Vec<f64>,
    spent: f64,
    start: Instant,
}

impl<F: FnMut() -> Result<(), String>> SetupSampler<F> {
    /// A sampler of `build`, one engine construction; runs the first
    /// `SETUP_MIN_REPS` repetitions.
    ///
    /// # Errors
    ///
    /// The first error `build` returns.
    pub fn new(build: F) -> Result<Self, String> {
        let mut sampler = SetupSampler {
            build,
            times: Vec::new(),
            spent: 0.0,
            start: Instant::now(),
        };
        while sampler.times.len() < SETUP_MIN_REPS {
            sampler.once()?;
        }
        Ok(sampler)
    }

    fn once(&mut self) -> Result<(), String> {
        let t = Instant::now();
        (self.build)()?;
        let s = t.elapsed().as_secs_f64();
        self.times.push(s);
        self.spent += s;
        Ok(())
    }

    /// Runs the repetitions now due: set-up keeps `SETUP_SHARE` of the
    /// wall time since the sampler started. Call it between units of work.
    ///
    /// # Errors
    ///
    /// The first error `build` returns.
    pub fn catch_up(&mut self) -> Result<(), String> {
        while self.spent < SETUP_SHARE * self.start.elapsed().as_secs_f64() {
            self.once()?;
        }
        Ok(())
    }

    /// Repeats set-up for `d`, where it cannot interleave with the work.
    ///
    /// # Errors
    ///
    /// The first error `build` returns.
    pub fn repeat_for(&mut self, d: Duration) -> Result<(), String> {
        let t = Instant::now();
        while t.elapsed() < d {
            self.once()?;
        }
        Ok(())
    }

    /// Seconds of one set-up: the fast end of the repetitions.
    pub fn seconds(&self) -> f64 {
        fast_time(&self.times)
    }

    /// Repetitions so far.
    pub fn reps(&self) -> usize {
        self.times.len()
    }
}

/// Seconds of each set-up layer (fast end) over repeated builds.
pub struct SetupLayers {
    /// `cell_network` + `zero_one_verify`.
    pub verify_s: f64,
    /// `build_sorting_circuit`.
    pub build_s: f64,
    /// `zero_one_circuit_check`.
    pub check_s: f64,
    /// `EvalTape::compile`.
    pub compile_s: f64,
    /// Gates of the built circuit.
    pub gates: usize,
    /// The compiled tape (for counts and the eval replay).
    pub tape: EvalTape,
}

/// Times each set-up layer over repeated builds (fast end).
///
/// # Errors
///
/// A verification failure, as text.
pub fn time_setup(channels: usize, width: usize) -> Result<SetupLayers, String> {
    let (mut verify, mut build, mut check, mut compile) = (vec![], vec![], vec![], vec![]);
    let mut last = None;
    let start = Instant::now();
    while more_setup(verify.len(), start) {
        let t = Instant::now();
        let network = cell_network(channels);
        zero_one_verify(&network).map_err(|e| e.to_string())?;
        verify.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let circuit = build_sorting_circuit(&network, width, TwoSortFlavor::Paper);
        build.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        zero_one_circuit_check(&circuit, channels, width).map_err(|e| e.to_string())?;
        check.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let tape = EvalTape::compile(&circuit);
        compile.push(t.elapsed().as_secs_f64());
        last = Some((circuit.gate_count(), tape));
    }
    let (gates, tape) = last.expect("at least one repetition ran");
    Ok(SetupLayers {
        verify_s: fast_time(&verify),
        build_s: fast_time(&build),
        check_s: fast_time(&check),
        compile_s: fast_time(&compile),
        gates,
        tape,
    })
}

impl SetupLayers {
    /// Pushes the set-up layer metrics and tape counts.
    pub fn push_metrics(&self, report: &mut Report) {
        report.push("networks.verify_s", self.verify_s, "s");
        report.push("circuit.build_s", self.build_s, "s");
        report.push("verify.circuit_check_s", self.check_s, "s");
        report.push("tape.compile_s", self.compile_s, "s");
        report.push("tape.gates", self.gates as f64, "count");
        report.push("tape.slots", self.tape.slot_count() as f64, "count");
        report.push("tape.runs", self.tape.run_count() as f64, "count");
        report.push("tape.levels", f64::from(self.tape.level_count()), "count");
    }
}

/// Result of an eval replay.
pub struct EvalReplay {
    /// Nanoseconds of tape eval per vector (lane), fast end.
    pub ns_per_vector: f64,
    /// Replayed lanes whose output was not the sorted input.
    pub failed: u64,
    /// Lanes checked.
    pub checked: u64,
}

/// Replays `try_eval_block_with` on `blocks` blocks of `lanes` seeded
/// vectors each (built with `ValidString::from_rank` + `pack_rows`) for at
/// least `min_time`, and checks the first output of every block. Eval is
/// branch-free, so its cost does not depend on the data.
///
/// # Errors
///
/// A tape refusal, as text.
#[allow(clippy::too_many_arguments)]
pub fn eval_replay(
    tape: &EvalTape,
    channels: usize,
    width: usize,
    lanes: usize,
    blocks: usize,
    kernel: KernelId,
    seed: u64,
    min_time: Duration,
) -> Result<EvalReplay, String> {
    let mut rng = SplitMix::new(seed ^ 0x7265_706c_6179);
    let ranks_per_key = ValidString::count(width);
    let inputs: Vec<(Vec<Vec<u64>>, Vec<TritBlock>)> = (0..blocks)
        .map(|_| {
            let ranks: Vec<Vec<u64>> = (0..lanes)
                .map(|_| (0..channels).map(|_| rng.below(ranks_per_key)).collect())
                .collect();
            let rows: Vec<Vec<Trit>> = ranks
                .iter()
                .map(|lane| {
                    lane.iter()
                        .flat_map(|&r| {
                            ValidString::from_rank(width, r)
                                .expect("rank below ValidString::count")
                                .into_bits()
                        })
                        .collect()
                })
                .collect();
            (ranks, TritBlock::pack_rows(&rows))
        })
        .collect();

    let mut scratch = tape
        .try_scratch(PlaneWidth::X4, kernel)
        .map_err(|e| e.to_string())?;
    let (mut failed, mut checked) = (0u64, 0u64);
    for (ranks, block) in &inputs {
        let out = tape
            .try_eval_block_with(block, &mut scratch)
            .map_err(|e| e.to_string())?;
        // Every 16th lane: the outputs must be the lane's ranks, sorted.
        for (lane, lane_ranks) in ranks.iter().enumerate().step_by(16) {
            checked += 1;
            let mut want = lane_ranks.clone();
            want.sort_unstable();
            let ok = want.iter().enumerate().all(|(c, &w)| {
                let bits: TritVec = (0..width).map(|b| out[c * width + b].lane(lane)).collect();
                ValidString::new(bits).is_ok_and(|v| v.rank() == w)
            });
            failed += u64::from(!ok);
        }
    }

    let mut per_vector = Vec::new();
    let start = Instant::now();
    while start.elapsed() < min_time || per_vector.len() < 5 {
        for (_, block) in &inputs {
            let t = Instant::now();
            let out = tape.try_eval_block_with(black_box(block), &mut scratch);
            let ns = nanos_u64(t.elapsed()) as f64;
            black_box(out).map_err(|e| e.to_string())?;
            per_vector.push(ns / lanes as f64);
        }
    }
    Ok(EvalReplay {
        ns_per_vector: fast_time(&per_vector),
        failed,
        checked,
    })
}
