//! Sustained-throughput engine: streams millions of Gray-code vectors
//! through a compiled sorting circuit and reports **sorted vectors per
//! second**.
//!
//! The pipeline per benchmark cell `(n, B)`:
//!
//! 1. Build the verified [`Engine`] for the cell (the same engine
//!    `sort_server` serves through): the best-known optimal network for
//!    small `n`, Batcher odd-even otherwise, 0-1-verified, instantiated as
//!    the paper-flavour MC sorting circuit, checked at gate level and
//!    compiled into an [`EvalTape`].
//! 2. Re-verify the streaming path against [`Netlist::eval_block`]
//!    lane-for-lane on a differential sample at every plane width,
//!    including a rank-level sortedness check (outputs must be the sorted
//!    valid strings of the inputs).
//! 3. Stream `vectors` pseudorandom valid strings through the tape in
//!    fixed-size chunks sharded round-robin across `std::thread::scope`
//!    workers — the PR 3 determinism contract: worker `w` owns chunks
//!    `w, w+workers, …`, results merge by chunk index, so the final
//!    checksum is **byte-identical across runs and worker counts** (and
//!    across plane widths). A worker panic is a typed
//!    [`ThroughputError::WorkerPanicked`].
//!
//! Each worker binds its scratch once ([`EvalTape::try_planes`]) and works
//! in place: the generator writes every input port's plane words straight
//! into the tape's input registers, one group (`64 · W` lanes) at a time,
//! and the output registers are read, tail lanes masked, into one reused
//! port-major buffer that the chunk digest walks in `(port, word)` order.
//! Nothing is allocated per chunk.
//!
//! Input generation is a pure function of `(seed, lane, channel)`: the
//! rank `splitmix64(seed ^ lane·C₁ ^ channel·C₂) mod (2^{B+1}−1)` selects
//! one valid string — the stable Gray codeword `rg(x)` for an even rank
//! `2x`, the superposition `rg(x) ∗ rg(x+1)` for an odd rank `2x+1` — so
//! workers need no shared RNG state. `rank_for` is the one scalar
//! definition of that stream. The timed loop uses a bit-sliced twin of it
//! that works on 64 lanes at a time:
//!
//! 1. the 64 splitmix64 values of a (word, channel) pair go into a stack
//!    array, with `seed ^ channel·C₂` hoisted out of the lane loop and the
//!    lane multiply hoisted out of it too: `(first + l)·C₁` is
//!    `first·C₁ + l·C₁` in wrapping arithmetic, so one multiply per word
//!    plus a constant table of `l·C₁` covers all 64 lanes;
//! 2. an exact, division-free reducer (`RankReducer`, multiply-high by a
//!    per-cell reciprocal plus one conditional subtract) replaces the `%`;
//! 3. a field-packed transpose turns the ranks into rank planes
//!    `R_0 ..= R_B`: every rank is below `2^F`, `F = (B+1)` rounded up to
//!    a power of two, so lane `j·F + r` is packed into field `j` of row
//!    `r`, and `log₂F` masked-swap rounds over those `F` rows transpose
//!    every `F × F` field block at once, leaving `R_c` in row `c` (one
//!    routine, monomorphised per `F`). Every port word then follows from
//!    word ops: the Gray code of `x = rank >> 1` and of `x + 1` (a
//!    bit-sliced ripple-carry increment), merged per lane by the parity
//!    plane `R_0`.
//!
//! The generator body is compiled in the same two tiers as the tape: for
//! the build's baseline features under [`KernelId::Scalar`], and under
//! `#[target_feature(enable = "avx2")]` under [`KernelId::Avx2`], picked by
//! the cell's `kernel`. Every cell's pre-flight compares the generated
//! planes against [`ValidString::from_rank`] of `rank_for`, and streams its
//! sample through the timed loop's own generator-into-registers path, so
//! the fast path is cross-checked against the definition before anything
//! is timed.
//!
//! [`report_json`] serialises the per-cell results as
//! `BENCH_throughput.json` (schema [`JSON_SCHEMA`]) so the perf trajectory
//! is trackable across PRs.
//!
//! [`Netlist::eval_block`]: mcs_netlist::Netlist::eval_block
//! [`EvalTape`]: mcs_netlist::EvalTape
//! [`EvalTape::try_planes`]: mcs_netlist::EvalTape::try_planes

use std::fmt;
use std::time::{Duration, Instant};

use mcs_gray::valid::valid_rank;
use mcs_gray::ValidString;
use mcs_logic::plane::kernel::{self, KernelId, UnknownKernel};
use mcs_logic::{PlaneWidth, TritBlock, TritVec, TritWord};
use mcs_netlist::{TapeEvalError, TapePlanes};

pub use crate::engine::{cell_network, MAX_WIDTH};
use crate::engine::{resolve_workers, Engine, EngineError};
use crate::json::JsonWriter;
use crate::metrics::{nanos_u64, LatencyHistogram};

/// Schema tag of the JSON emitted by [`report_json`]. Bump on any
/// backwards-incompatible field change.
pub const JSON_SCHEMA: &str = "mcs-throughput-v1";

/// Most chunks one run may schedule. The per-chunk checksum vector holds
/// one `u64` per chunk, so this bound also caps that allocation at 32 GiB
/// — any realistic workload sits far below it, but pathological
/// `vectors`/`chunk_lanes` combinations must be a typed error
/// ([`ThroughputError::TooManyChunks`]), not an abort.
pub const MAX_CHUNKS: u64 = u32::MAX as u64;

/// Computes the chunk count for a (vectors, chunk_lanes) pair, with a
/// typed error when it exceeds [`MAX_CHUNKS`] (or `usize` on 32-bit
/// targets).
///
/// # Errors
///
/// [`ThroughputError::TooManyChunks`].
pub fn chunk_count(
    vectors: u64,
    chunk_lanes: usize,
) -> Result<usize, ThroughputError> {
    let chunks = vectors.div_ceil(chunk_lanes.max(1) as u64);
    if chunks > MAX_CHUNKS {
        return Err(ThroughputError::TooManyChunks {
            vectors,
            chunk_lanes,
            chunks,
        });
    }
    usize::try_from(chunks).map_err(|_| ThroughputError::TooManyChunks {
        vectors,
        chunk_lanes,
        chunks,
    })
}

/// One benchmark cell: which circuit to stream and how hard.
#[derive(Copy, Clone, Debug)]
pub struct ThroughputConfig {
    /// Channel count `n`.
    pub channels: usize,
    /// Bits per channel `B` (1 ..= [`MAX_WIDTH`]).
    pub width: usize,
    /// Total vectors to stream through the timed loop.
    pub vectors: u64,
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Plane width of the tape evaluation.
    pub plane_width: PlaneWidth,
    /// Compile tier of the tape evaluation and of the stimulus generator.
    /// Must be available on this CPU ([`EngineError::Kernel`]
    /// otherwise); the checksum is tier-independent by the kernel
    /// conformance contract.
    pub kernel: KernelId,
    /// Seed of the deterministic input stream.
    pub seed: u64,
    /// Vectors per work chunk (the sharding granule).
    pub chunk_lanes: usize,
    /// Lanes of the pre-flight tape-vs-`eval_block` differential sample
    /// (`0` skips it — only sensible when a surrounding test already pins
    /// equality).
    pub sample_lanes: usize,
}

impl ThroughputConfig {
    /// Default cell: 1 M vectors, auto workers, 4-wide planes, the widest
    /// available kernel, 8192-lane chunks, 2048-lane differential sample.
    pub fn new(channels: usize, width: usize) -> ThroughputConfig {
        ThroughputConfig {
            channels,
            width,
            vectors: 1_000_000,
            workers: 0,
            plane_width: PlaneWidth::default(),
            kernel: kernel::preferred(),
            seed: 0x6d63_735f_7468_7270, // "mcs_thrp"
            chunk_lanes: 8192,
            sample_lanes: 2048,
        }
    }
}

/// Everything that can go wrong while setting up, validating or streaming
/// a cell.
#[derive(Debug)]
pub enum ThroughputError {
    /// `chunk_lanes` is zero.
    UnsupportedCell {
        /// Channel count of the offending cell.
        channels: usize,
        /// Bit width of the offending cell.
        width: usize,
        /// What exactly is unsupported.
        reason: String,
    },
    /// The cell's engine could not be built: a bad channel count or width,
    /// a failed verification, or an unavailable kernel.
    Engine(EngineError),
    /// The plane-packed input generator disagreed with
    /// [`ValidString::from_rank`] on the differential sample.
    Generator {
        /// First mismatching lane.
        lane: usize,
        /// Its channel.
        channel: usize,
        /// Its bit position (MSB first).
        bit: usize,
    },
    /// The tape refused the differential sample or a streamed chunk.
    Tape(TapeEvalError),
    /// The tape disagreed with `eval_block` on the differential sample.
    Differential {
        /// First mismatching lane.
        lane: usize,
        /// Plane width that produced the mismatch.
        plane_width: PlaneWidth,
        /// Output port name of the first mismatch.
        port: String,
    },
    /// A sampled output was not the sorted sequence of its input ranks.
    NotSorted {
        /// The offending lane.
        lane: usize,
        /// Human-readable diagnosis.
        detail: String,
    },
    /// A streaming worker thread panicked; its chunks have no checksum.
    WorkerPanicked {
        /// Index of the worker that panicked.
        worker: usize,
    },
    /// `vectors / chunk_lanes` produces more chunks than the per-chunk
    /// bookkeeping (one checksum slot each) can address.
    TooManyChunks {
        /// Requested vector count.
        vectors: u64,
        /// Lanes per chunk.
        chunk_lanes: usize,
        /// The resulting chunk count that overflowed the bound.
        chunks: u64,
    },
}

impl fmt::Display for ThroughputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThroughputError::UnsupportedCell {
                channels,
                width,
                reason,
            } => write!(f, "cell {channels}x{width}: {reason}"),
            ThroughputError::Engine(e) => write!(f, "{e}"),
            ThroughputError::Generator { lane, channel, bit } => write!(
                f,
                "input generator diverged from ValidString::from_rank at \
                 lane {lane}, channel {channel}, bit {bit}"
            ),
            ThroughputError::Tape(e) => write!(f, "tape refused a block: {e}"),
            ThroughputError::Differential {
                lane,
                plane_width,
                port,
            } => write!(
                f,
                "tape diverged from eval_block at lane {lane} (plane width \
                 {plane_width}, port {port})"
            ),
            ThroughputError::NotSorted { lane, detail } => {
                write!(f, "unsorted output at lane {lane}: {detail}")
            }
            ThroughputError::WorkerPanicked { worker } => {
                write!(f, "streaming worker {worker} panicked")
            }
            ThroughputError::TooManyChunks {
                vectors,
                chunk_lanes,
                chunks,
            } => write!(
                f,
                "{vectors} vectors / {chunk_lanes} chunk lanes = {chunks} \
                 chunks, beyond the addressable bound of {}",
                MAX_CHUNKS
            ),
        }
    }
}

impl std::error::Error for ThroughputError {}

impl From<EngineError> for ThroughputError {
    fn from(e: EngineError) -> ThroughputError {
        ThroughputError::Engine(e)
    }
}

impl From<TapeEvalError> for ThroughputError {
    fn from(e: TapeEvalError) -> ThroughputError {
        ThroughputError::Tape(e)
    }
}

/// Measured result of one cell.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Channel count `n`.
    pub channels: usize,
    /// Bits per channel `B`.
    pub width: usize,
    /// Comparators in the underlying network.
    pub comparators: usize,
    /// Standard cells in the streamed circuit.
    pub gates: usize,
    /// Logic depth of the streamed circuit.
    pub depth: u32,
    /// Vectors streamed through the timed loop.
    pub vectors: u64,
    /// Worker threads actually used.
    pub workers: usize,
    /// Plane width of the tape evaluation.
    pub plane_width: PlaneWidth,
    /// Kernel backend the cell streamed through.
    pub kernel: KernelId,
    /// Wall-clock time of the timed streaming loop only.
    pub elapsed: Duration,
    /// Order-independent-of-workers digest of every output plane.
    pub checksum: u64,
    /// Lanes covered by the pre-flight differential sample.
    pub differential_lanes: usize,
    /// Per-chunk wall-clock latency (nanoseconds) of the whole chunk:
    /// input generation, tape eval and output checksum together, merged
    /// across workers. Observational only — recording it does not change
    /// the streamed bytes or the checksum.
    pub eval_latency: LatencyHistogram,
}

impl CellReport {
    /// Sorted vectors per second (`0.0` for an empty run).
    pub fn vectors_per_s(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.vectors as f64 / secs
        } else {
            0.0
        }
    }
}

/// Runs one benchmark cell: build, verify, differential-check, then stream.
///
/// # Errors
///
/// See [`ThroughputError`].
pub fn run_cell(cfg: &ThroughputConfig) -> Result<CellReport, ThroughputError> {
    if cfg.chunk_lanes == 0 {
        return Err(ThroughputError::UnsupportedCell {
            channels: cfg.channels,
            width: cfg.width,
            reason: "chunk_lanes must be positive".into(),
        });
    }
    let engine = Engine::for_cell(cfg.channels, cfg.width, cfg.kernel)?;
    // The engine admitted the tier, so the generator may enter it.
    let stimulus = Stimulus::new(cfg).map_err(EngineError::from)?;

    let differential_lanes = if cfg.sample_lanes > 0 {
        differential_check(cfg, &engine, &stimulus)?
    } else {
        0
    };

    let chunks = chunk_count(cfg.vectors, cfg.chunk_lanes)?;
    let workers = resolve_workers(cfg.workers).min(chunks.max(1));
    let tape = engine.tape();

    let start = Instant::now();
    let mut sums = vec![0u64; chunks];
    let mut eval_latency = LatencyHistogram::new();
    if workers <= 1 {
        let mut scratch = engine.scratch(cfg.plane_width);
        let mut planes = tape.try_planes(&mut scratch)?;
        let mut out = Vec::new();
        for (chunk, sum) in sums.iter_mut().enumerate() {
            let t0 = Instant::now();
            *sum = eval_chunk(cfg, &stimulus, &mut planes, &mut out, chunk);
            eval_latency.record(nanos_u64(t0.elapsed()));
        }
    } else {
        let (engine, stimulus) = (&engine, &stimulus);
        std::thread::scope(|s| -> Result<(), ThroughputError> {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || -> Result<_, TapeEvalError> {
                        #[cfg(test)]
                        if cfg.seed == tests::PANIC_SEED && w == 1 {
                            panic!("injected worker panic");
                        }
                        let mut scratch = engine.scratch(cfg.plane_width);
                        let mut planes = tape.try_planes(&mut scratch)?;
                        let mut out = Vec::new();
                        let mut local = Vec::new();
                        // Allocation-free per-worker recording; merged
                        // after join so the hot loop takes no locks.
                        let mut latency = LatencyHistogram::new();
                        let mut chunk = w;
                        // Round-robin sharding: worker w owns chunks
                        // w, w+workers, … — a pure function of the worker
                        // index, never of timing.
                        while chunk < chunks {
                            let t0 = Instant::now();
                            let sum = eval_chunk(cfg, stimulus, &mut planes, &mut out, chunk);
                            latency.record(nanos_u64(t0.elapsed()));
                            local.push((chunk, sum));
                            chunk += workers;
                        }
                        Ok((local, latency))
                    })
                })
                .collect();
            // Join every worker before reporting, so one failure cannot
            // leave a panicked thread for the scope to re-raise.
            let mut first_err = None;
            for (worker, h) in handles.into_iter().enumerate() {
                let joined = h
                    .join()
                    .map_err(|_| ThroughputError::WorkerPanicked { worker })
                    .and_then(|r| r.map_err(ThroughputError::from));
                match joined {
                    // Index-keyed merge: arrival order cannot influence sums.
                    Ok((local, latency)) => {
                        for (chunk, sum) in local {
                            sums[chunk] = sum;
                        }
                        eval_latency.merge(&latency);
                    }
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
            first_err.map_or(Ok(()), Err)
        })?;
    }
    let elapsed = start.elapsed();

    let mut checksum = 0x7468_7270_7574_2131u64;
    for s in sums {
        checksum = splitmix64(checksum ^ s);
    }

    Ok(CellReport {
        channels: cfg.channels,
        width: cfg.width,
        comparators: engine.comparators().unwrap_or(0),
        gates: engine.circuit().gate_count(),
        depth: engine.circuit().depth(),
        vectors: cfg.vectors,
        workers,
        plane_width: cfg.plane_width,
        kernel: cfg.kernel,
        elapsed,
        checksum,
        differential_lanes,
        eval_latency,
    })
}

/// Evaluates chunk `chunk` and returns its output digest. Pure in
/// `(cfg, chunk)` — the planes and `out` are only buffers.
fn eval_chunk(
    cfg: &ThroughputConfig,
    stimulus: &Stimulus,
    planes: &mut TapePlanes<'_>,
    out: &mut Vec<u64>,
    chunk: usize,
) -> u64 {
    let lane0 = chunk as u64 * cfg.chunk_lanes as u64;
    let lanes = (cfg.vectors - lane0).min(cfg.chunk_lanes as u64) as usize;
    eval_lanes(stimulus, planes, out, lane0, lanes);
    fnv_digest(out)
}

/// Streams the `lanes` vectors from global lane `lane0` through the tape:
/// each group of plane words is generated straight into the input
/// registers, evaluated, and its output registers copied, tail lanes
/// masked to stable 0, into `out`. `out` is port-major — port `p`'s word
/// `k` is `out[2·(p·words + k)]` (`can_zero`) and the entry after it
/// (`can_one`) — so the digest reads the words in `(port, word)` order.
fn eval_lanes(
    stimulus: &Stimulus,
    planes: &mut TapePlanes<'_>,
    out: &mut Vec<u64>,
    lane0: u64,
    lanes: usize,
) {
    let (nwords, w) = (lanes.div_ceil(64), planes.words());
    out.clear();
    out.resize(2 * planes.output_count() * nwords, 0);
    for k0 in (0..nwords).step_by(w) {
        stimulus.load_group(lane0, lanes, k0, planes);
        planes.run();
        for (p, port) in out.chunks_exact_mut(2 * nwords).enumerate() {
            let (z, o) = planes.output(p);
            for (j, k) in (k0..nwords.min(k0 + w)).enumerate() {
                let live = TritWord::lane_mask(lanes - 64 * k);
                port[2 * k] = z[j] | !live;
                port[2 * k + 1] = o[j] & live;
            }
        }
    }
}

/// Multiplier of the lane index in the stream definition ([`rank_for`]).
const LANE_MIX: u64 = 0xA24B_AED4_963E_E407;
/// Multiplier of the channel index in the stream definition.
const CHANNEL_MIX: u64 = 0x9FB2_1C65_1E98_DF25;

/// `LANE_STEP[l] = l · LANE_MIX` (wrapping): lane `first + l` mixes to
/// `first · LANE_MIX + LANE_STEP[l]`, one multiply per 64-lane word.
const LANE_STEP: [u64; 64] = {
    let mut steps = [0u64; 64];
    let mut l = 0;
    while l < 64 {
        steps[l] = (l as u64).wrapping_mul(LANE_MIX);
        l += 1;
    }
    steps
};

/// The field width `F` of the rank transpose at bit width `width`: the
/// least power of two holding a rank's `B+1` bits (2 ..= 64).
fn field_width(width: usize) -> usize {
    (width + 1).next_power_of_two()
}

/// Transposes the `F × F` bit block in every `F`-bit field of `rows[..F]`
/// at once: bit `c` of row `r`'s field `j` trades places with bit `r` of
/// row `c`'s field `j`. Its own inverse. Each round swaps, in every
/// `2J × 2J` block on a field's diagonal, the top-right `J × J` quarter
/// (high columns of the top rows) with the bottom-left one; `mask`
/// selects the low `J` columns of each `2J`-column group, which never
/// reach across a field.
#[inline(always)]
fn transpose_fields<const F: usize>(rows: &mut [u64; 64]) {
    #[inline(always)]
    fn round<const F: usize, const J: usize>(rows: &mut [u64; 64], mask: u64) {
        for block in (0..F).step_by(2 * J) {
            for i in block..block + J {
                let t = ((rows[i] >> J) ^ rows[i + J]) & mask;
                rows[i] ^= t << J;
                rows[i + J] ^= t;
            }
        }
    }
    if F > 32 {
        round::<F, 32>(rows, 0x0000_0000_FFFF_FFFF);
    }
    if F > 16 {
        round::<F, 16>(rows, 0x0000_FFFF_0000_FFFF);
    }
    if F > 8 {
        round::<F, 8>(rows, 0x00FF_00FF_00FF_00FF);
    }
    if F > 4 {
        round::<F, 4>(rows, 0x0F0F_0F0F_0F0F_0F0F);
    }
    if F > 2 {
        round::<F, 2>(rows, 0x3333_3333_3333_3333);
    }
    round::<F, 1>(rows, 0x5555_5555_5555_5555);
}

/// [`transpose_fields`] at a run-time field width `f` (see [`field_width`]).
fn transpose_fields_at(f: usize, rows: &mut [u64; 64]) {
    match f {
        2 => transpose_fields::<2>(rows),
        4 => transpose_fields::<4>(rows),
        8 => transpose_fields::<8>(rows),
        16 => transpose_fields::<16>(rows),
        32 => transpose_fields::<32>(rows),
        _ => transpose_fields::<64>(rows),
    }
}

/// The bit planes of 64 values below `2^F`: afterwards bit `l` of
/// `planes[c]` is bit `c` of lane `l`'s value, for every `c < F`;
/// `planes[F..]` is left as it was and `values` is used up.
///
/// Lane `j·F + r` is packed into field `j` of row `r` (a shift by the
/// lane's field offset, then an OR of the lanes of each row, halving the
/// span from 64 words to `F`), and [`transpose_fields`] turns every field
/// block around. Shifts by a per-lane constant and whole-word ORs, so both
/// steps vectorise.
#[inline(always)]
fn bit_planes<const F: usize>(values: &mut [u64; 64], planes: &mut [u64; 64]) {
    for (l, v) in values.iter_mut().enumerate() {
        *v <<= l & !(F - 1);
    }
    let mut half = 32;
    while half >= F {
        let (lo, hi) = values.split_at_mut(half);
        for (a, &b) in lo.iter_mut().zip(&hi[..half]) {
            *a |= b;
        }
        half /= 2;
    }
    planes[..F].copy_from_slice(&values[..F]);
    transpose_fields::<F>(planes);
}

/// The number of valid strings of width `width`: `2^{B+1} − 1`.
fn rank_count(width: usize) -> u64 {
    (1u64 << (width + 1)) - 1
}

/// The rank streamed into `(lane, channel)` under `seed`: uniform-ish over
/// all `2^{B+1} − 1` valid strings, pure and stateless. This is the one
/// scalar definition of the stream; [`Stimulus`] is its batched twin and
/// is checked against it.
fn rank_for(seed: u64, lane: u64, channel: u64, rank_count: u64) -> u64 {
    splitmix64(seed ^ lane.wrapping_mul(LANE_MIX) ^ channel.wrapping_mul(CHANNEL_MIX))
        % rank_count
}

/// Exact `x % d` for a divisor fixed per cell, without a divide.
#[derive(Copy, Clone, Debug)]
struct RankReducer {
    d: u64,
    /// `⌊(2^64 − 1) / d⌋`.
    m: u64,
}

impl RankReducer {
    fn new(d: u64) -> RankReducer {
        RankReducer { d, m: u64::MAX / d }
    }

    /// `x % d`.
    ///
    /// `q = ⌊x·m / 2^64⌋` never overshoots the true quotient `⌊x/d⌋`,
    /// because `m·d ≤ 2^64 − 1`. It falls short by at most 1: flooring
    /// `(2^64−1)/d` drops less than 1, so `m·d ≥ 2^64 − d`, and then
    /// `x/d − x·m/2^64 = x·(2^64 − m·d) / (d·2^64) ≤ x/2^64 < 1`. So
    /// `x·m/2^64 > x/d − 1 ≥ ⌊x/d⌋ − 1`, and flooring keeps `q ≥ ⌊x/d⌋ − 1`.
    /// Hence `x − q·d` lies in `[0, 2d)` and one conditional subtract
    /// finishes it.
    #[inline(always)]
    fn reduce(self, x: u64) -> u64 {
        let q = ((u128::from(x) * u128::from(self.m)) >> 64) as u64;
        let r = x - q * self.d;
        if r >= self.d {
            r - self.d
        } else {
            r
        }
    }
}

/// A cell's input stream, generated 64 lanes per step: the batched,
/// bit-sliced twin of [`rank_for`] + [`ValidString::from_rank`]. Per
/// (64-lane word, channel) it takes one lane multiply (the rest is the
/// `LANE_STEP` table), 64 splitmix64 values, 64 exact reductions, one
/// field-packed transpose ([`bit_planes`]) and a few word ops per port.
struct Stimulus {
    seed: u64,
    channels: usize,
    width: usize,
    /// Compile tier of the generator body (the cell's `kernel`).
    kernel: KernelId,
    ranks: RankReducer,
}

impl Stimulus {
    /// The stream of `cfg`, refusing a `kernel` tier this CPU cannot run:
    /// [`Stimulus::generate`] enters the tier on that condition.
    fn new(cfg: &ThroughputConfig) -> Result<Stimulus, UnknownKernel> {
        Ok(Stimulus {
            seed: cfg.seed,
            channels: cfg.channels,
            width: cfg.width,
            kernel: kernel::require(cfg.kernel)?,
            ranks: RankReducer::new(rank_count(cfg.width)),
        })
    }

    /// Generates one group straight into the input registers of `planes`:
    /// words `k0 .. k0 + planes.words()` of the `lanes` vectors starting
    /// at global lane `lane0`.
    fn load_group(&self, lane0: u64, lanes: usize, k0: usize, planes: &mut TapePlanes<'_>) {
        self.generate(lane0, lanes, k0, planes.words(), |port, j, z, o| {
            let (zs, os) = planes.input_mut(port);
            zs[j] = z;
            os[j] = o;
        });
    }

    /// The input blocks for `lanes` vectors starting at global lane
    /// `lane0`: one [`TritBlock`] per port, channel-major, each channel's
    /// Gray codeword MSB first. The pre-flight's view of the same
    /// generator body [`Stimulus::load_group`] streams through.
    fn chunk_inputs(&self, lane0: u64, lanes: usize) -> Vec<TritBlock> {
        let nwords = lanes.div_ceil(64);
        let mut words = vec![vec![TritWord::ZERO; nwords]; self.channels * self.width];
        self.generate(lane0, lanes, 0, nwords, |port, k, z, o| {
            words[port][k] = TritWord::from_planes(z, o);
        });
        words
            .into_iter()
            .map(|w| TritBlock::from_words(w, lanes))
            .collect()
    }

    /// Emits words `k0 .. k0 + count` of every port as `emit(port, k − k0,
    /// can_zero, can_one)`, under the stream's compile tier. Words past
    /// the `lanes` vectors come out stable 0.
    fn generate(
        &self,
        lane0: u64,
        lanes: usize,
        k0: usize,
        count: usize,
        emit: impl FnMut(usize, usize, u64, u64),
    ) {
        match self.kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Stimulus::new` admits `Avx2` only after
            // `kernel::require` detected the feature on this CPU.
            KernelId::Avx2 => unsafe { self.generate_avx2(lane0, lanes, k0, count, emit) },
            // `Scalar`, and off x86-64 a tier `kernel::require` never admits.
            _ => self.generate_v(lane0, lanes, k0, count, emit),
        }
    }

    /// [`Stimulus::generate_v`] compiled with AVX2 enabled.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn generate_avx2(
        &self,
        lane0: u64,
        lanes: usize,
        k0: usize,
        count: usize,
        emit: impl FnMut(usize, usize, u64, u64),
    ) {
        self.generate_v(lane0, lanes, k0, count, emit)
    }

    /// The generator body, shared by both tiers.
    #[inline(always)]
    fn generate_v(
        &self,
        lane0: u64,
        lanes: usize,
        k0: usize,
        count: usize,
        mut emit: impl FnMut(usize, usize, u64, u64),
    ) {
        let width = self.width;
        let fields = field_width(width);
        let mut ranks = [0u64; 64];
        // Rank planes R_0 ..= R_{F−1}; the rest are never written. Ranks
        // are below 2^{B+1}, so R_{B+1} is 0 either way: the zero bit
        // above x = rank >> 1.
        let mut r = [0u64; 64];
        // Planes of x + 1; Y_B stays 0 (see below).
        let mut y = [0u64; MAX_WIDTH + 1];
        for j in 0..count {
            let k = k0 + j;
            if 64 * k >= lanes {
                for port in 0..self.channels * width {
                    emit(port, j, !0, 0);
                }
                continue;
            }
            let first = (lane0 + 64 * k as u64).wrapping_mul(LANE_MIX);
            // Lanes past the chunk end are generated like any other and
            // then forced to stable 0.
            let live = TritWord::lane_mask(lanes - 64 * k);
            for c in 0..self.channels {
                let base = self.seed ^ (c as u64).wrapping_mul(CHANNEL_MIX);
                for (rank, &step) in ranks.iter_mut().zip(&LANE_STEP) {
                    *rank = splitmix64(base ^ first.wrapping_add(step));
                }
                for rank in &mut ranks {
                    *rank = self.ranks.reduce(*rank);
                }
                match fields {
                    2 => bit_planes::<2>(&mut ranks, &mut r),
                    4 => bit_planes::<4>(&mut ranks, &mut r),
                    8 => bit_planes::<8>(&mut ranks, &mut r),
                    16 => bit_planes::<16>(&mut ranks, &mut r),
                    32 => bit_planes::<32>(&mut ranks, &mut r),
                    _ => bit_planes::<64>(&mut ranks, &mut r),
                }
                // x + 1, bit-sliced: bit k of x is R_{k+1}. Only odd lanes
                // read it, and there x ≤ 2^B − 2, so the carry out of bit
                // B−1 is 0 on every lane that matters.
                let mut carry = !0u64;
                for (yk, &xk) in y[..width].iter_mut().zip(&r[1..=width]) {
                    *yk = xk ^ carry;
                    carry &= xk;
                }
                let odd = r[0];
                for b in 0..width {
                    // Port b carries integer bit ib = B−1−b of the codeword.
                    let ib = width - 1 - b;
                    let g = r[ib + 1] ^ r[ib + 2];
                    let h = y[ib] ^ y[ib + 1];
                    // Even rank: stable rg(x). Odd rank: rg(x) ∗ rg(x+1),
                    // whose differing bit can take both values.
                    let can_zero = !(g & (h | !odd)) | !live;
                    let can_one = (g | (h & odd)) & live;
                    emit(c * width + b, j, can_zero, can_one);
                }
            }
        }
    }
}

#[inline(always)]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a digest of a chunk's output words, in the order given: `eval_chunk`
/// lays them out port-major, each word as `can_zero` then `can_one`.
fn fnv_digest(words: &[u64]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    words.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &w| {
        (h ^ w).wrapping_mul(FNV_PRIME)
    })
}

/// Pre-flight differential harness over the first `sample_lanes` vectors:
///
/// * the plane-packed generator must agree bit-for-bit with
///   [`ValidString::from_rank`];
/// * the streaming path ([`eval_lanes`]: the same generator body writing
///   into the input registers, the tape, the masked output read) must
///   match [`Netlist::eval_block`] lane-for-lane at every plane width;
/// * every sampled output must be the ascending sequence of the lane's
///   input ranks.
fn differential_check(
    cfg: &ThroughputConfig,
    engine: &Engine,
    stimulus: &Stimulus,
) -> Result<usize, ThroughputError> {
    let lanes = cfg.sample_lanes;
    let inputs = stimulus.chunk_inputs(0, lanes);
    generator_check(cfg, 0, &inputs)?;

    let circuit = engine.circuit();
    let want = circuit.eval_block(&inputs);
    let mut out = Vec::new();
    for plane_width in PlaneWidth::ALL {
        // The sample streams through the timed loop's own path — generator
        // into the input registers, tape, output registers — under the
        // cell's forced kernel, so a backend or plane I/O that diverged
        // from the interpreter is caught before a single vector is timed.
        let mut scratch = engine.scratch(plane_width);
        let mut planes = engine.tape().try_planes(&mut scratch)?;
        eval_lanes(stimulus, &mut planes, &mut out, 0, lanes);
        let ports = out.chunks_exact(2 * lanes.div_ceil(64)).zip(&want);
        for (port, (got, w)) in ports.enumerate() {
            let mut words = got.chunks_exact(2).zip(w.words()).enumerate();
            let diff = words.find_map(|(k, (g, w))| {
                let d = (g[0] ^ w.can_zero_plane()) | (g[1] ^ w.can_one_plane());
                (d != 0).then_some((k, d))
            });
            if let Some((k, d)) = diff {
                let lane = 64 * k + d.trailing_zeros() as usize;
                let name = circuit
                    .outputs()
                    .nth(port)
                    .map_or_else(String::new, |(n, _)| n.to_string());
                return Err(ThroughputError::Differential {
                    lane,
                    plane_width,
                    port: name,
                });
            }
        }
    }

    rank_check(cfg, 0, &want)?;
    Ok(lanes)
}

/// Generator cross-check: the plane-packed `inputs` (one block per
/// `(channel, bit)` port, as [`Stimulus::chunk_inputs`] lays them out from
/// global lane `lane0`) must agree bit-for-bit with
/// [`ValidString::from_rank`] of each lane's [`rank_for`] rank. A mismatch
/// reports its global lane and first differing bit.
///
/// Valid strings map one-to-one onto ranks, so a lane equals
/// `ValidString::from_rank(width, r)` iff [`valid_rank`] of its planes is
/// `Ok(r)`: each `(lane, channel)` is checked on two bit masks, read out
/// of the port words a word at a time by [`LaneMasks`], and only a failing
/// one is walked bit by bit to name the bit.
fn generator_check(
    cfg: &ThroughputConfig,
    lane0: u64,
    inputs: &[TritBlock],
) -> Result<(), ThroughputError> {
    let rank_count = rank_count(cfg.width);
    let lanes = inputs.first().map_or(0, TritBlock::lanes);
    let mut masks = LaneMasks::new(cfg.channels, cfg.width);
    for i in 0..lanes {
        if i % 64 == 0 {
            masks.load(inputs, i / 64);
        }
        let lane = (lane0 + i as u64) as usize;
        for channel in 0..cfg.channels {
            let rank = rank_for(cfg.seed, lane as u64, channel as u64, rank_count);
            let (z, o) = masks.lane(channel, i % 64);
            if valid_rank(z, o, cfg.width) == Ok(rank) {
                continue;
            }
            // `rank_for` reduces modulo the rank count, so a refusal here
            // means the generator itself is broken: report its first bit.
            let want = ValidString::from_rank(cfg.width, rank).map_err(|_| {
                ThroughputError::Generator {
                    lane,
                    channel,
                    bit: 0,
                }
            })?;
            for (bit, t) in want.bits().iter().enumerate() {
                if inputs[channel * cfg.width + bit].lane(i) != t {
                    return Err(ThroughputError::Generator { lane, channel, bit });
                }
            }
        }
    }
    Ok(())
}

/// Rank-level sortedness: the `outputs` of the lanes from global lane
/// `lane0` (one block per `(channel, bit)` port) must be the ascending
/// sequence of each lane's [`rank_for`] input ranks. A failure reports its
/// global lane. As in [`generator_check`], each `(lane, channel)` is
/// checked by [`valid_rank`] on its bit masks, and only a failing one is
/// rebuilt as a [`ValidString`] to describe it.
fn rank_check(
    cfg: &ThroughputConfig,
    lane0: u64,
    outputs: &[TritBlock],
) -> Result<(), ThroughputError> {
    let rank_count = rank_count(cfg.width);
    let lanes = outputs.first().map_or(0, TritBlock::lanes);
    let mut masks = LaneMasks::new(cfg.channels, cfg.width);
    let mut in_ranks = vec![0u64; cfg.channels];
    for i in 0..lanes {
        if i % 64 == 0 {
            masks.load(outputs, i / 64);
        }
        let lane = (lane0 + i as u64) as usize;
        for (c, rank) in in_ranks.iter_mut().enumerate() {
            *rank = rank_for(cfg.seed, lane as u64, c as u64, rank_count);
        }
        in_ranks.sort_unstable();
        for (c, &want_rank) in in_ranks.iter().enumerate() {
            let (z, o) = masks.lane(c, i % 64);
            if valid_rank(z, o, cfg.width) == Ok(want_rank) {
                continue;
            }
            let bits: TritVec = (0..cfg.width)
                .map(|b| outputs[c * cfg.width + b].lane(i))
                .collect();
            let got = ValidString::new(bits.clone()).map_err(|e| {
                ThroughputError::NotSorted {
                    lane,
                    detail: format!("out{c} = {bits} is not a valid string: {e}"),
                }
            })?;
            if got.rank() != want_rank {
                return Err(ThroughputError::NotSorted {
                    lane,
                    detail: format!(
                        "out{c} has rank {}, want {want_rank}",
                        got.rank()
                    ),
                });
            }
        }
    }
    Ok(())
}

/// The [`valid_rank`] masks of one 64-lane word of every channel, turned
/// lane-major by [`transpose_fields`]: character `b` (MSB first) of a
/// channel's string is row `width − 1 − b`, so after the transpose lane
/// `j·F + r`'s masks sit in field `j` of row `r`.
struct LaneMasks {
    width: usize,
    fields: usize,
    /// The `can_zero` and `can_one` rows of each channel.
    rows: Vec<[[u64; 64]; 2]>,
}

impl LaneMasks {
    fn new(channels: usize, width: usize) -> LaneMasks {
        LaneMasks {
            width,
            fields: field_width(width),
            rows: vec![[[0; 64]; 2]; channels],
        }
    }

    /// Loads word `k` of `blocks`, one block per `(channel, bit)` port.
    fn load(&mut self, blocks: &[TritBlock], k: usize) {
        let (width, f) = (self.width, self.fields);
        for ([z, o], bits) in self.rows.iter_mut().zip(blocks.chunks_exact(width)) {
            for (b, block) in bits.iter().enumerate() {
                let w = block.words()[k];
                z[width - 1 - b] = w.can_zero_plane();
                o[width - 1 - b] = w.can_one_plane();
            }
            // The rows above the string's top bit held the last word's
            // transpose.
            z[width..f].fill(0);
            o[width..f].fill(0);
            transpose_fields_at(f, z);
            transpose_fields_at(f, o);
        }
    }

    /// The `(can_zero, can_one)` masks of lane `l` (of the loaded word)
    /// of `channel`.
    fn lane(&self, channel: usize, l: usize) -> (u64, u64) {
        let f = self.fields;
        let (row, shift) = (l & (f - 1), l & !(f - 1));
        let field = |rows: &[u64; 64]| (rows[row] >> shift) & (u64::MAX >> (64 - f));
        let [z, o] = &self.rows[channel];
        (field(z), field(o))
    }
}

/// Serialises cell reports as the `BENCH_throughput.json` document
/// (schema [`JSON_SCHEMA`]).
pub fn report_json(seed: u64, chunk_lanes: usize, cells: &[CellReport]) -> String {
    let us = |ns: u64| ns / 1_000;
    let mut w = JsonWriter::new();
    w.string("schema", JSON_SCHEMA)
        .raw("seed", seed)
        .raw("chunk_lanes", chunk_lanes)
        .open(Some("cells"), '[');
    for c in cells {
        let h = &c.eval_latency;
        w.open(None, '{')
            .raw("channels", c.channels)
            .raw("width", c.width)
            .raw("comparators", c.comparators)
            .raw("gates", c.gates)
            .raw("depth", c.depth)
            .raw("vectors", c.vectors)
            .raw("workers", c.workers)
            .raw("plane_width", c.plane_width.words())
            // Additive field (schema stays v1): which kernel backend
            // streamed the cell. The checksum is backend-independent.
            .string("kernel", c.kernel.name())
            .raw("elapsed_s", format!("{:.6}", c.elapsed.as_secs_f64()))
            .raw("vectors_per_s", format!("{:.1}", c.vectors_per_s()))
            .string("checksum", &format!("0x{:016x}", c.checksum))
            .raw("differential_lanes", c.differential_lanes)
            // Per-chunk latency quantiles (additive fields — the schema
            // tag stays v1).
            .raw("eval_chunks", h.count())
            .raw("eval_p50_us", us(h.quantile(0.50)))
            .raw("eval_p90_us", us(h.quantile(0.90)))
            .raw("eval_p99_us", us(h.quantile(0.99)))
            .raw("eval_p999_us", us(h.quantile(0.999)))
            .raw("eval_max_us", us(h.max()))
            .close('}');
    }
    w.close(']');
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_logic::Trit;

    /// A seed whose streaming worker 1 panics before its first chunk: the
    /// test-only trigger of [`ThroughputError::WorkerPanicked`].
    pub(super) const PANIC_SEED: u64 = 0x7061_6e69_6321_2121;

    fn small_cfg() -> ThroughputConfig {
        let mut cfg = ThroughputConfig::new(4, 2);
        cfg.vectors = 2_000;
        cfg.chunk_lanes = 256;
        cfg.sample_lanes = 256;
        cfg.workers = 1;
        cfg
    }

    /// `RankReducer::reduce` over `xs`, in place, compiled in `tier` the
    /// way [`Stimulus::chunk_inputs`] compiles it.
    fn reduce_in_tier(tier: KernelId, ranks: RankReducer, xs: &mut [u64]) {
        #[inline(always)]
        fn body(ranks: RankReducer, xs: &mut [u64]) {
            for x in xs {
                *x = ranks.reduce(*x);
            }
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn avx2(ranks: RankReducer, xs: &mut [u64]) {
            body(ranks, xs)
        }
        match tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: callers pass tiers from `kernel::kernels()`, which
            // lists only what this CPU supports.
            KernelId::Avx2 => unsafe { avx2(ranks, xs) },
            _ => body(ranks, xs),
        }
    }

    #[test]
    fn rank_reducer_equals_the_remainder_for_every_width() {
        let mut state = 0x5eed_u64;
        let random: Vec<u64> = (0..100_000)
            .map(|_| {
                state = splitmix64(state);
                state
            })
            .collect();
        for tier in kernel::kernels() {
            for width in 1..=MAX_WIDTH {
                let d = rank_count(width);
                let top = u64::MAX / d;
                let mut xs = vec![0, 1, d - 1, d, d + 1, u64::MAX - 1, u64::MAX];
                for k in [2, 3, 1 << 20, top - 1, top] {
                    xs.extend([k * d, k * d - 1]);
                }
                xs.extend(&random);
                let mut got = xs.clone();
                reduce_in_tier(tier, RankReducer::new(d), &mut got);
                for (x, r) in xs.iter().zip(&got) {
                    assert_eq!(*r, x % d, "tier {tier}, width {width}, x = {x:#x}");
                }
            }
        }
    }

    #[test]
    fn batched_generator_matches_from_rank_of_rank_for() {
        for tier in kernel::kernels() {
            for width in 1..=MAX_WIDTH {
                let mut cfg = ThroughputConfig::new(3, width);
                cfg.kernel = tier;
                let stimulus = Stimulus::new(&cfg).unwrap();
                for lane0 in [0u64, 4097] {
                    for lanes in [0usize, 1, 63, 64, 65, 1000] {
                        let inputs = stimulus.chunk_inputs(lane0, lanes);
                        assert_eq!(inputs.len(), cfg.channels * width);
                        assert!(inputs.iter().all(|b| b.lanes() == lanes));
                        if let Err(e) = generator_check(&cfg, lane0, &inputs) {
                            panic!("tier {tier}, width {width}, lane0 {lane0}, lanes {lanes}: {e}");
                        }
                    }
                }
            }
        }
    }

    /// [`bit_planes`] at field width `F` against a per-lane fold (each
    /// plane built one lane bit at a time), on adversarial values below
    /// `2^F`; then
    /// [`transpose_fields`] on the planes must give every lane's value back
    /// in its field.
    fn field_transpose_matches_the_fold<const F: usize>() {
        let top = u64::MAX >> (64 - F);
        let mut state = F as u64;
        let cases: [[u64; 64]; 5] = [
            [top; 64],
            std::array::from_fn(|l| 1 << (l % F)),
            std::array::from_fn(|l| l as u64 & top),
            [0; 64],
            std::array::from_fn(|_| {
                state = splitmix64(state);
                state & top
            }),
        ];
        for values in cases {
            let mut planes = [0u64; 64];
            let mut scratch = values;
            bit_planes::<F>(&mut scratch, &mut planes);
            for (c, &plane) in planes.iter().enumerate() {
                let fold = values.iter().enumerate().fold(0, |acc, (l, &v)| {
                    acc | (((v >> c) & 1).wrapping_neg() & (1 << l))
                });
                assert_eq!(plane, fold, "F = {F}, plane {c}, values {values:x?}");
            }
            transpose_fields::<F>(&mut planes);
            for (l, &v) in values.iter().enumerate() {
                let field = (planes[l % F] >> (l / F * F)) & top;
                assert_eq!(field, v, "F = {F}, lane {l}, values {values:x?}");
            }
        }
    }

    #[test]
    fn field_transpose_matches_the_per_lane_fold_at_every_field_width() {
        field_transpose_matches_the_fold::<2>();
        field_transpose_matches_the_fold::<4>();
        field_transpose_matches_the_fold::<8>();
        field_transpose_matches_the_fold::<16>();
        field_transpose_matches_the_fold::<32>();
        field_transpose_matches_the_fold::<64>();
        // `field_width` picks each of them, and every rank fits its field.
        let widths: Vec<usize> = (1..=MAX_WIDTH).map(field_width).collect();
        for f in [2, 4, 8, 16, 32, 64] {
            assert!(widths.contains(&f), "field width {f} unused");
        }
        for width in 1..=MAX_WIDTH {
            assert!(rank_count(width) - 1 <= u64::MAX >> (64 - field_width(width)));
        }
    }

    #[test]
    fn lane_masks_are_the_planes_of_each_lanes_valid_string() {
        let mut state = 0x1a4e_u64;
        for width in 1..=MAX_WIDTH {
            let count = rank_count(width);
            let channels = 3;
            // 130 lanes: two full words, then a partial one.
            let ranks: Vec<u64> = (0..130 * channels)
                .map(|i| match i % 5 {
                    0 => 0,
                    1 => count - 1,
                    2 => count - 2,
                    _ => {
                        state = splitmix64(state);
                        state % count
                    }
                })
                .collect();
            let strings: Vec<ValidString> = ranks
                .iter()
                .map(|&r| ValidString::from_rank(width, r).unwrap())
                .collect();
            let rows: Vec<Vec<Trit>> = strings
                .chunks(channels)
                .map(|lane| lane.iter().flat_map(|v| v.bits().iter()).collect())
                .collect();
            let blocks = TritBlock::pack_rows(&rows);
            let mut masks = LaneMasks::new(channels, width);
            for (i, lane) in strings.chunks(channels).enumerate() {
                if i % 64 == 0 {
                    masks.load(&blocks, i / 64);
                }
                for (c, v) in lane.iter().enumerate() {
                    let at = format!("width {width}, lane {i}, channel {c}");
                    assert_eq!(masks.lane(c, i % 64), v.planes(), "{at}");
                }
            }
        }
    }

    #[test]
    fn generator_check_reports_a_flipped_input_bit() {
        let cfg = small_cfg();
        let lane0 = 100;
        let mut inputs = Stimulus::new(&cfg).unwrap().chunk_inputs(lane0, 130);
        generator_check(&cfg, lane0, &inputs).unwrap();
        // Flip one lane of channel 2, bit 1 to a value it does not hold.
        let (lane, channel, bit) = (97, 2, 1);
        let port = &mut inputs[channel * cfg.width + bit];
        let flipped = match port.lane(lane) {
            Trit::Zero => Trit::One,
            _ => Trit::Zero,
        };
        port.set_lane(lane, flipped);
        match generator_check(&cfg, lane0, &inputs) {
            Err(ThroughputError::Generator {
                lane: l,
                channel: c,
                bit: b,
            }) => {
                // The report names the global lane.
                assert_eq!((l, c, b), (lane0 as usize + lane, channel, bit))
            }
            other => panic!("expected a generator divergence, got {other:?}"),
        }
    }

    /// The `lanes` sampled inputs of `cfg` from global lane `lane0` and
    /// their interpreted outputs.
    fn sample(cfg: &ThroughputConfig, lane0: u64, lanes: usize) -> (Vec<TritBlock>, Vec<TritBlock>) {
        let inputs = Stimulus::new(cfg).unwrap().chunk_inputs(lane0, lanes);
        let engine = Engine::for_cell(cfg.channels, cfg.width, cfg.kernel).unwrap();
        let outputs = engine.circuit().eval_block(&inputs);
        (inputs, outputs)
    }

    /// The `(lane, detail)` of a [`ThroughputError::NotSorted`].
    fn not_sorted(r: Result<(), ThroughputError>) -> (usize, String) {
        match r {
            Err(ThroughputError::NotSorted { lane, detail }) => (lane, detail),
            other => panic!("expected an unsorted output, got {other:?}"),
        }
    }

    #[test]
    fn generator_check_reports_a_lane_with_two_metastable_bits() {
        let cfg = small_cfg();
        let lane0 = 100;
        let (mut inputs, _) = sample(&cfg, lane0, 130);
        let (lane, channel) = (70, 3);
        for bit in 0..cfg.width {
            inputs[channel * cfg.width + bit].set_lane(lane, Trit::Meta);
        }
        // Pinned: the first bit that differs from the lane's valid string.
        match generator_check(&cfg, lane0, &inputs) {
            Err(e @ ThroughputError::Generator { .. }) => assert_eq!(
                e.to_string(),
                "input generator diverged from ValidString::from_rank at \
                 lane 170, channel 3, bit 0"
            ),
            other => panic!("expected a generator divergence, got {other:?}"),
        }
    }

    #[test]
    fn rank_check_reports_a_flipped_output_lane() {
        let cfg = small_cfg();
        let lane0 = 100;
        let (_, mut outputs) = sample(&cfg, lane0, 130);
        rank_check(&cfg, lane0, &outputs).unwrap();
        let port = &mut outputs[2 * cfg.width + 1];
        let flipped = match port.lane(97) {
            Trit::Zero => Trit::One,
            _ => Trit::Zero,
        };
        port.set_lane(97, flipped);
        let r = rank_check(&cfg, lane0, &outputs);
        assert_eq!(not_sorted(r), (197, "out2 has rank 0, want 2".into()));
    }

    #[test]
    fn rank_check_reports_two_metastable_bits() {
        let cfg = small_cfg();
        let lane0 = 100;
        let (_, mut outputs) = sample(&cfg, lane0, 130);
        for bit in 0..cfg.width {
            outputs[cfg.width + bit].set_lane(5, Trit::Meta);
        }
        let r = rank_check(&cfg, lane0, &outputs);
        assert_eq!(
            not_sorted(r),
            (
                105,
                "out1 = MM is not a valid string: valid strings allow at most \
                 one metastable bit, found 2"
                    .into()
            )
        );
    }

    #[test]
    fn rank_check_reports_a_wrong_valid_rank() {
        let cfg = small_cfg();
        let lane0 = 100;
        let (_, mut outputs) = sample(&cfg, lane0, 130);
        // Replace channel 0 of lane 64 with the valid string one rank up.
        let bits: TritVec = (0..cfg.width).map(|b| outputs[b].lane(64)).collect();
        let rank = ValidString::new(bits).unwrap().rank();
        let other = ValidString::from_rank(cfg.width, (rank + 1) % rank_count(cfg.width)).unwrap();
        for (b, t) in other.bits().iter().enumerate() {
            outputs[b].set_lane(64, t);
        }
        assert_eq!(rank, 4);
        let r = rank_check(&cfg, lane0, &outputs);
        assert_eq!(not_sorted(r), (164, "out0 has rank 5, want 4".into()));
    }

    #[test]
    fn checksum_is_invariant_across_workers_and_plane_widths() {
        // Under every tier, since the tier compiles the generator too.
        let mut reference = None;
        for k in kernel::kernels() {
            for workers in [1usize, 2, 4] {
                for plane_width in PlaneWidth::ALL {
                    let mut cfg = small_cfg();
                    cfg.kernel = k;
                    cfg.workers = workers;
                    cfg.plane_width = plane_width;
                    let r = run_cell(&cfg).unwrap();
                    let c = *reference.get_or_insert(r.checksum);
                    assert_eq!(
                        r.checksum, c,
                        "kernel={k} workers={workers} plane_width={plane_width}"
                    );
                    assert!(r.vectors_per_s() > 0.0);
                }
            }
        }
    }

    #[test]
    fn edge_vector_counts_stream_cleanly() {
        // Mirrors the TritBlock lane-edge suite at the engine level; the
        // sample covers every vector for the small counts, so the
        // differential harness sweeps exactly the streamed tails.
        let mut checksums = Vec::new();
        for vectors in [0u64, 1, 63, 64, 65, 1000] {
            let mut cfg = small_cfg();
            cfg.vectors = vectors;
            cfg.chunk_lanes = 64;
            cfg.sample_lanes = vectors.max(1) as usize;
            let r = run_cell(&cfg).unwrap();
            assert_eq!(r.vectors, vectors);
            if vectors == 0 {
                assert_eq!(r.vectors_per_s(), 0.0);
            }
            checksums.push(r.checksum);
        }
        // Different domains digest differently (sanity on the digest).
        checksums.dedup();
        assert!(checksums.len() > 1);
    }

    #[test]
    fn bad_cells_are_typed_errors() {
        for (channels, width) in [(1, 2), (4, 0)] {
            let mut cfg = ThroughputConfig::new(channels, width);
            cfg.vectors = 10;
            assert!(matches!(
                run_cell(&cfg),
                Err(ThroughputError::Engine(EngineError::UnsupportedCell { .. }))
            ));
        }
        let mut cfg = ThroughputConfig::new(4, MAX_WIDTH + 1);
        cfg.vectors = 10;
        let err = run_cell(&cfg).unwrap_err();
        assert!(err.to_string().contains("width"));
        let mut cfg = small_cfg();
        cfg.chunk_lanes = 0;
        assert!(matches!(
            run_cell(&cfg),
            Err(ThroughputError::UnsupportedCell { .. })
        ));
    }

    #[test]
    fn json_schema_is_stable() {
        let mut cfg = small_cfg();
        cfg.vectors = 100;
        cfg.sample_lanes = 64;
        let r = run_cell(&cfg).unwrap();
        let json = report_json(cfg.seed, cfg.chunk_lanes, &[r]);
        for field in [
            "\"schema\": \"mcs-throughput-v1\"",
            "\"seed\"",
            "\"chunk_lanes\"",
            "\"channels\": 4",
            "\"width\": 2",
            "\"comparators\": 5",
            "\"gates\": 65",
            "\"vectors\": 100",
            "\"plane_width\": 4",
            "\"elapsed_s\"",
            "\"vectors_per_s\"",
            "\"checksum\": \"0x",
            "\"differential_lanes\": 64",
            "\"eval_chunks\": 1",
            "\"eval_p50_us\"",
            "\"eval_p90_us\"",
            "\"eval_p99_us\"",
            "\"eval_p999_us\"",
            "\"eval_max_us\"",
        ] {
            assert!(json.contains(field), "missing {field} in:\n{json}");
        }
        // Exactly one cell object.
        assert_eq!(json.matches("\"channels\"").count(), 1);
    }

    /// A report with every field fixed, so [`report_json`]'s bytes can be
    /// pinned exactly.
    fn synthetic_report(channels: usize, kernel: KernelId) -> CellReport {
        let mut eval_latency = LatencyHistogram::new();
        for ns in [0, 999, 1_500, 250_000, 3_000_000] {
            eval_latency.record(ns);
        }
        CellReport {
            channels,
            width: 2,
            comparators: 19,
            gates: 247,
            depth: 23,
            vectors: 1_000_000,
            workers: 2,
            plane_width: PlaneWidth::X4,
            kernel,
            elapsed: Duration::from_nanos(1_234_567_891),
            checksum: 0x0123_4567_89ab_cdef,
            differential_lanes: 2048,
            eval_latency,
        }
    }

    #[test]
    fn report_json_bytes_are_pinned() {
        let cells = [
            synthetic_report(8, KernelId::Scalar),
            synthetic_report(4, KernelId::Avx2),
        ];
        // The bytes the per-field emitter wrote before the shared writer.
        let want = r#"{
  "schema": "mcs-throughput-v1",
  "seed": 42,
  "chunk_lanes": 8192,
  "cells": [
    {
      "channels": 8,
      "width": 2,
      "comparators": 19,
      "gates": 247,
      "depth": 23,
      "vectors": 1000000,
      "workers": 2,
      "plane_width": 4,
      "kernel": "scalar",
      "elapsed_s": 1.234568,
      "vectors_per_s": 810000.0,
      "checksum": "0x0123456789abcdef",
      "differential_lanes": 2048,
      "eval_chunks": 5,
      "eval_p50_us": 2,
      "eval_p90_us": 3000,
      "eval_p99_us": 3000,
      "eval_p999_us": 3000,
      "eval_max_us": 3000
    },
    {
      "channels": 4,
      "width": 2,
      "comparators": 19,
      "gates": 247,
      "depth": 23,
      "vectors": 1000000,
      "workers": 2,
      "plane_width": 4,
      "kernel": "avx2",
      "elapsed_s": 1.234568,
      "vectors_per_s": 810000.0,
      "checksum": "0x0123456789abcdef",
      "differential_lanes": 2048,
      "eval_chunks": 5,
      "eval_p50_us": 2,
      "eval_p90_us": 3000,
      "eval_p99_us": 3000,
      "eval_p999_us": 3000,
      "eval_max_us": 3000
    }
  ]
}
"#;
        assert_eq!(report_json(42, 8192, &cells), want);
        assert_eq!(
            report_json(7, 64, &[]),
            "{\n  \"schema\": \"mcs-throughput-v1\",\n  \"seed\": 7,\n  \
             \"chunk_lanes\": 64,\n  \"cells\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn eval_latency_covers_every_chunk() {
        for workers in [1usize, 3] {
            let mut cfg = small_cfg();
            cfg.workers = workers;
            let r = run_cell(&cfg).unwrap();
            let chunks =
                chunk_count(cfg.vectors, cfg.chunk_lanes).unwrap() as u64;
            assert_eq!(r.eval_latency.count(), chunks, "workers={workers}");
            assert!(r.eval_latency.max() > 0, "workers={workers}");
            // The recorded eval time can't exceed the timed loop's wall
            // clock by more than bucketing slack (quantiles round up to
            // their bucket's upper bound, < 2× the true value).
            assert!(
                r.eval_latency.quantile(0.5) < 2 * nanos_u64(r.elapsed).max(1),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn a_worker_panic_is_a_typed_error() {
        let mut cfg = small_cfg();
        cfg.seed = PANIC_SEED;
        cfg.workers = 3;
        match run_cell(&cfg) {
            Err(ThroughputError::WorkerPanicked { worker }) => assert_eq!(worker, 1),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert_eq!(
            ThroughputError::WorkerPanicked { worker: 1 }.to_string(),
            "streaming worker 1 panicked"
        );
        // The trigger is worker 1 of a threaded run only: the same seed on
        // one worker streams normally.
        cfg.workers = 1;
        assert!(run_cell(&cfg).is_ok());
    }

    #[test]
    fn checksum_is_invariant_across_kernels() {
        let mut reference = None;
        for k in kernel::kernels() {
            let mut cfg = small_cfg();
            cfg.kernel = k;
            let r = run_cell(&cfg).unwrap();
            assert_eq!(r.kernel, k);
            let c = *reference.get_or_insert(r.checksum);
            assert_eq!(r.checksum, c, "kernel={k}");
        }
    }

    #[test]
    fn unavailable_kernel_is_a_typed_error() {
        for k in KernelId::ALL {
            let mut cfg = small_cfg();
            cfg.kernel = k;
            match (kernel::available(k), run_cell(&cfg)) {
                (true, Ok(r)) => assert_eq!(r.kernel, k),
                (
                    false,
                    Err(ThroughputError::Engine(EngineError::Kernel(
                        UnknownKernel::Unavailable(got),
                    ))),
                ) => {
                    assert_eq!(got, k)
                }
                (_, other) => panic!("kernel {k}: unexpected result {other:?}"),
            }
        }
        // run_cell refuses through kernel::require; pin the refusal a CPU
        // without AVX2 gives, whatever this host has.
        let refusal = kernel::require_on(KernelId::Avx2, false).unwrap_err();
        assert!(matches!(
            ThroughputError::from(EngineError::from(refusal)),
            ThroughputError::Engine(EngineError::Kernel(UnknownKernel::Unavailable(
                KernelId::Avx2
            )))
        ));
    }

    #[test]
    fn json_cells_carry_the_kernel_field() {
        let mut cfg = small_cfg();
        cfg.vectors = 100;
        cfg.sample_lanes = 64;
        cfg.kernel = KernelId::Scalar;
        let r = run_cell(&cfg).unwrap();
        let json = report_json(cfg.seed, cfg.chunk_lanes, &[r]);
        assert!(
            json.contains("\"kernel\": \"scalar\""),
            "missing kernel field in:\n{json}"
        );
    }

    #[test]
    fn cell_network_covers_optimal_and_batcher_ranges() {
        use mcs_networks::optimal::best_size;
        assert_eq!(cell_network(8).size(), best_size(8).unwrap().size());
        // n = 16 has no optimal table; Batcher's 16-sorter has 63 CEs.
        assert_eq!(cell_network(16).size(), 63);
    }

    #[test]
    fn chunk_count_errors_at_the_overflow_boundary() {
        // Exactly at the bound: fine.
        assert_eq!(chunk_count(MAX_CHUNKS, 1).unwrap(), MAX_CHUNKS as usize);
        // One chunk past the bound: typed error, not a panic or an abort.
        match chunk_count(MAX_CHUNKS + 1, 1) {
            Err(ThroughputError::TooManyChunks {
                vectors,
                chunk_lanes,
                chunks,
            }) => {
                assert_eq!(vectors, MAX_CHUNKS + 1);
                assert_eq!(chunk_lanes, 1);
                assert_eq!(chunks, MAX_CHUNKS + 1);
            }
            other => panic!("expected TooManyChunks, got {other:?}"),
        }
        // The pathological worst case stays a typed error too.
        assert!(matches!(
            chunk_count(u64::MAX, 1),
            Err(ThroughputError::TooManyChunks { .. })
        ));
        // Rounding up still lands exactly on the bound.
        assert_eq!(
            chunk_count(2 * MAX_CHUNKS - 1, 2).unwrap(),
            MAX_CHUNKS as usize
        );
    }
}
