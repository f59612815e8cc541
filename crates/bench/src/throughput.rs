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
//!    across plane widths). Worker 0 streams on the calling thread, so a
//!    one-worker run spawns no thread; a panic in any worker is a typed
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
//! 2. an exact, division-free reducer (`RankReducer`) replaces the `%`:
//!    a Mersenne fold `(x >> s) + (x mod 2^s)` with `(B+1) | s` brings `x`
//!    below `2^51` without changing it mod `2^{B+1}−1`, an `f64` multiply
//!    by the per-cell reciprocal rounds to the quotient or one above it,
//!    and a sign-masked add of the divisor corrects the overshoot. It uses
//!    only shifts, masks, integer adds and IEEE `f64` adds and multiplies,
//!    so it vectorises under both tiers and its result depends only on
//!    binary64 round-to-nearest;
//! 3. a field-packed transpose turns the ranks into rank planes
//!    `R_0 ..= R_B`: every rank is below `2^F`, `F = (B+1)` rounded up to
//!    a power of two, so lane `j·F + r` is packed into field `j` of row
//!    `r`, and `log₂F` masked-swap rounds over those `F` rows transpose
//!    every `F × F` field block at once, leaving `R_c` in row `c`
//!    ([`transpose_fields`], monomorphised per `F`). Every port word then
//!    follows from word ops: the Gray code of `x = rank >> 1` and of
//!    `x + 1` (a bit-sliced ripple-carry increment), merged per lane by the
//!    parity plane `R_0`.
//!
//! The generator body is compiled in the same two tiers as the tape: for
//! the build's baseline features under [`KernelId::Scalar`], and under
//! `#[target_feature(enable = "avx2")]` under [`KernelId::Avx2`], picked by
//! the cell's `kernel`. Every cell's pre-flight compares the generated
//! planes against [`ValidString::from_rank`] of `rank_for`, and streams its
//! sample through the timed loop's own generator-into-registers path, so
//! the fast path is cross-checked against the definition before anything
//! is timed. It turns the sample's port words lane-major through the
//! server's port tiles (the same 64×64 [`transpose_fields`] per 64-port
//! tile that decodes the server's sorted keys) and screens them row by
//! row, 64 lanes per compare, against rows encoded from the definition:
//! each lane's input strings from `rank_for` through [`rank_planes`], and
//! its outputs from the same ranks sorted lane-wise by an odd–even
//! transposition network. Only a side the screen flags is read lane by
//! lane, through the same lane reader the server decodes with, which names
//! the failure.
//!
//! [`report_json`] serialises the per-cell results as
//! `BENCH_throughput.json` (schema [`JSON_SCHEMA`]) so the perf trajectory
//! is trackable across PRs.
//!
//! [`Netlist::eval_block`]: mcs_netlist::Netlist::eval_block
//! [`EvalTape`]: mcs_netlist::EvalTape
//! [`EvalTape::try_planes`]: mcs_netlist::EvalTape::try_planes
//! [`transpose_fields`]: mcs_logic::transpose_fields

use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mcs_gray::valid::{rank_planes, valid_rank};
use mcs_gray::ValidString;
use mcs_logic::plane::kernel::{self, KernelId, UnknownKernel};
use mcs_logic::{transpose_fields, PlaneWidth, TritBlock, TritVec, TritWord};
use mcs_netlist::{TapeEvalError, TapePlanes};

pub use crate::engine::{cell_network, MAX_WIDTH};
use crate::engine::{resolve_workers, Engine, EngineError, PortTiles};
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
    /// Lanes of the pre-flight tape-vs-`eval_block` differential sample;
    /// must be positive ([`ThroughputError::UnsupportedCell`] otherwise).
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
    /// `chunk_lanes` or `sample_lanes` is zero.
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
    for (field, lanes) in [
        ("chunk_lanes", cfg.chunk_lanes),
        ("sample_lanes", cfg.sample_lanes),
    ] {
        if lanes == 0 {
            return Err(ThroughputError::UnsupportedCell {
                channels: cfg.channels,
                width: cfg.width,
                reason: format!("{field} must be positive"),
            });
        }
    }
    let engine = Engine::for_cell(cfg.channels, cfg.width, cfg.kernel)?;
    // The engine admitted the tier, so the generator may enter it.
    let stimulus = Stimulus::new(cfg).map_err(EngineError::from)?;
    let differential_lanes = differential_check(cfg, &engine, &stimulus)?;

    let chunks = chunk_count(cfg.vectors, cfg.chunk_lanes)?;
    let workers = resolve_workers(cfg.workers).min(chunks.max(1));
    let tape = engine.tape();

    let (engine, stimulus) = (&engine, &stimulus);
    // Round-robin sharding: worker w owns chunks w, w+workers, … — a pure
    // function of the worker index, never of timing.
    let stream = move |w: usize| -> Result<_, TapeEvalError> {
        #[cfg(test)]
        if (cfg.seed, w) == (tests::PANIC_SEED, 1) || (cfg.seed, w) == (tests::PANIC_SEED_0, 0) {
            panic!("injected worker panic");
        }
        let mut scratch = engine.scratch(cfg.plane_width);
        let mut planes = tape.try_planes(&mut scratch)?;
        let mut out = Vec::new();
        let mut local = Vec::new();
        // Allocation-free per-worker recording; merged after join so the
        // hot loop takes no locks.
        let mut latency = LatencyHistogram::new();
        for chunk in (w..chunks).step_by(workers) {
            let t0 = Instant::now();
            let sum = eval_chunk(cfg, stimulus, &mut planes, &mut out, chunk);
            latency.record(nanos_u64(t0.elapsed()));
            local.push((chunk, sum));
        }
        Ok((local, latency))
    };

    let start = Instant::now();
    let mut sums = vec![0u64; chunks];
    let mut eval_latency = LatencyHistogram::new();
    std::thread::scope(|s| -> Result<(), ThroughputError> {
        // Worker 0 runs on the calling thread, so a one-worker run spawns
        // none.
        let spawned: Vec<_> = (1..workers).map(|w| s.spawn(move || stream(w))).collect();
        let first = panic::catch_unwind(AssertUnwindSafe(|| stream(0)));
        let joined = std::iter::once(first).chain(spawned.into_iter().map(|h| h.join()));
        // Join every worker before reporting, so one failure cannot leave a
        // panicked thread for the scope to re-raise.
        let mut first_err = None;
        for (worker, result) in joined.enumerate() {
            let result = result
                .map_err(|_| ThroughputError::WorkerPanicked { worker })
                .and_then(|r| r.map_err(ThroughputError::from));
            match result {
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

/// `2^52` as an `f64`: adding it to a non-negative value below `2^52`
/// rounds that value to an integer and leaves the integer in the low
/// mantissa bits, and OR-ing an integer below `2^52` into its bits makes
/// `2^52` plus that integer.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// Exact `x % d` for a divisor `d = 2^k − 1 ≥ 3` fixed per cell, from
/// shifts, masks, integer adds and IEEE `f64` adds and multiplies only.
/// None of them is a 64×64-bit multiply-high or an int ↔ float convert,
/// so LLVM vectorises the reduction under both compile tiers (SSE2 and
/// AVX2), and both run the same formula.
#[derive(Copy, Clone, Debug)]
struct RankReducer {
    d: u64,
    /// `k`, with `d = 2^k − 1`.
    k: u32,
    /// The fold shift `s = k·⌈14/k⌉`.
    s: u32,
    /// `fl(1/d)`, the binary64 value nearest `1/d`.
    inv: f64,
}

impl RankReducer {
    fn new(d: u64) -> RankReducer {
        debug_assert!(
            d >= 3 && (d + 1).is_power_of_two(),
            "d = {d} is not 2^k − 1"
        );
        let k = d.count_ones();
        RankReducer {
            d,
            k,
            s: k * 14u32.div_ceil(k),
            inv: 1.0 / d as f64,
        }
    }

    /// `x % d`: a Mersenne fold, then [`RankReducer::reduce_folded`].
    ///
    /// **Fold.** `k` divides `s`, so `2^s = (2^k)^{s/k} ≡ 1 (mod d)`, and
    /// `y = ⌊x / 2^s⌋ + (x mod 2^s) ≡ x (mod d)`. `s ≥ 14` bounds the high
    /// part below `2^50` and `s ≤ 33` (for `k ≤ 33`, every width up to
    /// `MAX_WIDTH`) bounds the low part below `2^33`, so `y < 2^51`.
    #[inline(always)]
    fn reduce(self, x: u64) -> u64 {
        self.reduce_folded((x >> self.s) + (x & ((1 << self.s) - 1)))
    }

    /// `y % d` for `y < 2^51`.
    ///
    /// **Convert.** `y < 2^52` fills only mantissa bits, so
    /// `f64::from_bits(y | bits(2^52))` is `2^52 + y` exactly, and
    /// subtracting `2^52` leaves `yf = y` exactly (Sterbenz).
    ///
    /// **Quotient.** `fl(1/d) = (1/d)(1 + δ₁)` and the product rounds to
    /// `yf·fl(1/d)·(1 + δ₂)`, with `|δᵢ| ≤ 2^−53`. So the product `p`
    /// misses `y/d` by at most `(y/d)·(2^−52 + 2^−106)`, which for
    /// `y < 2^51` and `d ≥ 3` is below `1/6 + 2^−56`. `p + 2^52` lies in
    /// `[2^52, 2^53)`, where binary64 steps by 1, so that add rounds `p` to
    /// the nearest integer `q` and leaves it in the low bits: `q =
    /// bits(p + 2^52) − bits(2^52)`. With `y/d = ⌊y/d⌋ + f`, `0 ≤ f ≤
    /// (d−1)/d`, `p` lies in `(⌊y/d⌋ − 1/2, ⌊y/d⌋ + 3/2)`, so `q` is
    /// `⌊y/d⌋` or `⌊y/d⌋ + 1`. A fused multiply-add, which rounds once
    /// where the two steps round twice, misses `y/d` by less still and lands
    /// `q` in the same two values; Rust never fuses on its own.
    ///
    /// **Remainder.** `q·d = (q << k) − q` is at most `y + d < 2^52`, so
    /// `r = y − q·d` is `y mod d` or, wrapped, `y mod d − d`. The latter has
    /// its sign bit set, and adding `d` then (a mask from that bit, no
    /// branch) gives `y mod d`.
    ///
    /// Every step is exact or rounds as IEEE binary64 round-to-nearest
    /// prescribes, so the result depends on nothing else: not on the tier,
    /// the vector width or the target.
    #[inline(always)]
    fn reduce_folded(self, y: u64) -> u64 {
        debug_assert!(y < 1 << 51);
        let yf = f64::from_bits(y | TWO_52.to_bits()) - TWO_52;
        let q = (yf * self.inv + TWO_52).to_bits() - TWO_52.to_bits();
        let r = y.wrapping_sub((q << self.k) - q);
        r.wrapping_add(self.d & 0u64.wrapping_sub(r >> 63))
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
///
/// The first and last are screened 64 lanes at a time ([`sample_checks`]).
fn differential_check(
    cfg: &ThroughputConfig,
    engine: &Engine,
    stimulus: &Stimulus,
) -> Result<usize, ThroughputError> {
    let lanes = cfg.sample_lanes;
    let inputs = stimulus.chunk_inputs(0, lanes);
    let want = engine.circuit().eval_block(&inputs);
    sample_checks(cfg, 0, &inputs, &want, || {
        tape_differential(engine, stimulus, lanes, &want)
    })?;
    Ok(lanes)
}

/// The streaming path against the interpreter: the first `lanes` vectors
/// stream through the timed loop's own path — generator into the input
/// registers, tape, output registers — under the cell's forced kernel, at
/// every plane width, and must equal `want`, their [`Netlist::eval_block`]
/// outputs, so a backend or plane I/O that diverged from the interpreter
/// is caught before a single vector is timed.
fn tape_differential(
    engine: &Engine,
    stimulus: &Stimulus,
    lanes: usize,
    want: &[TritBlock],
) -> Result<(), ThroughputError> {
    let mut out = Vec::new();
    for plane_width in PlaneWidth::ALL {
        let mut scratch = engine.scratch(plane_width);
        let mut planes = engine.tape().try_planes(&mut scratch)?;
        eval_lanes(stimulus, &mut planes, &mut out, 0, lanes);
        let ports = out.chunks_exact(2 * lanes.div_ceil(64)).zip(want);
        for (port, (got, w)) in ports.enumerate() {
            let mut words = got.chunks_exact(2).zip(w.words()).enumerate();
            let diff = words.find_map(|(k, (g, w))| {
                let d = (g[0] ^ w.can_zero_plane()) | (g[1] ^ w.can_one_plane());
                (d != 0).then_some((k, d))
            });
            if let Some((k, d)) = diff {
                let lane = 64 * k + d.trailing_zeros() as usize;
                let name = engine
                    .circuit()
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
    Ok(())
}

/// The rank-level checks of a sample around its `differential`: the
/// `inputs` and `outputs` of the lanes from global lane `lane0` (one block
/// per `(channel, bit)` port) are [`screen`]ed 64 lanes at a time, and
/// only a side the screen flags runs its per-lane check, which names the
/// failure: [`generator_check`] before `differential`, [`rank_check`]
/// after it. So a failing sample reports a generator fault first, then a
/// differential, then an unsorted output.
fn sample_checks(
    cfg: &ThroughputConfig,
    lane0: u64,
    inputs: &[TritBlock],
    outputs: &[TritBlock],
    differential: impl FnOnce() -> Result<(), ThroughputError>,
) -> Result<(), ThroughputError> {
    let clean = screen(cfg, lane0, inputs, outputs);
    if !clean.inputs {
        generator_check(cfg, lane0, inputs)?;
    }
    differential()?;
    if !clean.outputs {
        rank_check(cfg, lane0, outputs)?;
    }
    Ok(())
}

/// Which sides of a sample [`screen`] found equal to their expectation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Screen {
    /// Every input string is [`ValidString::from_rank`] of its [`rank_for`]
    /// rank.
    inputs: bool,
    /// Every lane's outputs are its input ranks' strings, ascending.
    outputs: bool,
}

/// The word-parallel screen of a sample: the `inputs` and `outputs` of the
/// lanes from global lane `lane0`, as in [`sample_checks`], are compared
/// 64 lanes at a time against rows encoded from the definition.
///
/// Per 64-lane word, [`rank_for`] runs once per `(lane, channel)` and
/// [`encode_rows`] packs each lane's strings, channel after channel, into
/// expected [`PortTiles`] rows; the ranks are then sorted lane-wise by
/// [`transposition_sort`] and encoded again for the outputs. Each side's
/// port words are turned lane-major through the same tiles and compared
/// row by row, masked to the `n·B` used ports and to the live lanes.
/// A side passes iff its per-lane check would, when the lane reader reads
/// the rows right: valid strings map one-to-one onto ranks.
fn screen(
    cfg: &ThroughputConfig,
    lane0: u64,
    inputs: &[TritBlock],
    outputs: &[TritBlock],
) -> Screen {
    let (channels, width) = (cfg.channels, cfg.width);
    let rank_count = rank_count(width);
    let lanes = inputs.first().map_or(0, TritBlock::lanes);
    let ports = channels * width;
    let mut tiles = PortTiles::new(ports, 1);
    // Port `64t + i` is bit `63 − i` of tile `t`'s rows.
    let used: Vec<u64> = (0..ports.div_ceil(64))
        .map(|t| !0 << (64 - (ports - 64 * t).min(64)))
        .collect();
    let mut want = vec![([0u64; 64], [0u64; 64]); used.len()];
    // `ranks[c][l]`: channel `c` of lane `l` of the current word.
    let mut ranks = vec![[0u64; 64]; channels];
    let mut clean = Screen {
        inputs: true,
        outputs: true,
    };
    for k in 0..lanes.div_ceil(64) {
        let live = (lanes - 64 * k).min(64);
        let first = lane0 + 64 * k as u64;
        for (c, row) in ranks.iter_mut().enumerate() {
            for (l, rank) in row[..live].iter_mut().enumerate() {
                *rank = rank_for(cfg.seed, first + l as u64, c as u64, rank_count);
            }
        }
        clean.inputs &= encode_rows(&ranks, width, live, &mut want)
            && rows_match(&mut tiles, inputs, k, &want, &used, live);
        transposition_sort(&mut ranks);
        clean.outputs &= encode_rows(&ranks, width, live, &mut want)
            && rows_match(&mut tiles, outputs, k, &want, &used, live);
    }
    clean
}

/// Encodes the first `live` lanes of `ranks` (one row per channel) into
/// `want`, one `(can_zero, can_one)` pair of tile rows per 64 ports: lane
/// `l`'s strings, channel after channel, each MSB first, at the bits its
/// ports hold in row `l` of a transposed [`PortTiles`] word. `false` if a
/// rank has no `width`-bit string.
fn encode_rows(
    ranks: &[[u64; 64]],
    width: usize,
    live: usize,
    want: &mut [([u64; 64], [u64; 64])],
) -> bool {
    for (z, o) in want.iter_mut() {
        z[..live].fill(0);
        o[..live].fill(0);
    }
    for (c, row) in ranks.iter().enumerate() {
        // The string's first port, and its bits past the tile's end.
        let (t, at) = ((c * width) / 64, (c * width) % 64);
        let spill = (at + width).saturating_sub(64);
        for (l, &rank) in row[..live].iter().enumerate() {
            let Ok((z, o)) = rank_planes(width, rank) else {
                return false;
            };
            if spill == 0 {
                let shift = 64 - at - width;
                want[t].0[l] |= z << shift;
                want[t].1[l] |= o << shift;
            } else {
                want[t].0[l] |= z >> spill;
                want[t].1[l] |= o >> spill;
                want[t + 1].0[l] |= z << (64 - spill);
                want[t + 1].1[l] |= o << (64 - spill);
            }
        }
    }
    true
}

/// Whether word `k` of `blocks` (one block per port), turned lane-major in
/// `tiles`, equals `want` on the `used` ports of each tile and the first
/// `live` lanes.
fn rows_match(
    tiles: &mut PortTiles,
    blocks: &[TritBlock],
    k: usize,
    want: &[([u64; 64], [u64; 64])],
    used: &[u64],
    live: usize,
) -> bool {
    load_lanes(tiles, blocks, k);
    let (z, o) = tiles.word(0);
    let mut diff = 0;
    for (((z, o), (wz, wo)), &mask) in z.iter().zip(o.iter()).zip(want).zip(used) {
        for l in 0..live {
            diff |= ((z[l] ^ wz[l]) | (o[l] ^ wo[l])) & mask;
        }
    }
    diff == 0
}

/// Sorts each of the 64 lanes of `ranks` (one row per channel) ascending,
/// all lanes at once: an odd–even transposition network of `n` rounds,
/// round `r` taking the lane-wise `min`/`max` of rows `i` and `i + 1` for
/// every `i ≡ r (mod 2)`. It shares nothing with the circuit's network.
///
/// Every value must be below `2^63`, as every rank is: then `a − b` wraps
/// exactly when `a < b`, so the compare-exchange is a few word ops that
/// vectorise without a 64-bit unsigned compare.
fn transposition_sort(ranks: &mut [[u64; 64]]) {
    let n = ranks.len();
    for round in 0..n {
        for i in (round % 2..n.saturating_sub(1)).step_by(2) {
            let (lo, hi) = ranks.split_at_mut(i + 1);
            for (a, b) in lo[i].iter_mut().zip(hi[0].iter_mut()) {
                // All ones where the pair is already in order.
                let ordered = 0u64.wrapping_sub(a.wrapping_sub(*b) >> 63);
                let swap = (*a ^ *b) & !ordered;
                (*a, *b) = (*a ^ swap, *b ^ swap);
            }
        }
    }
}

/// Generator cross-check: the plane-packed `inputs` (one block per
/// `(channel, bit)` port, as [`Stimulus::chunk_inputs`] lays them out from
/// global lane `lane0`) must agree bit-for-bit with
/// [`ValidString::from_rank`] of each lane's [`rank_for`] rank. A mismatch
/// reports its global lane and first differing bit. The pre-flight runs it
/// only on inputs the [`screen`] flagged, to name the failure.
///
/// Valid strings map one-to-one onto ranks, so a lane equals
/// `ValidString::from_rank(width, r)` iff [`valid_rank`] of its planes is
/// `Ok(r)`: each `(lane, channel)` is checked on two bit masks, read out
/// of the port words a word at a time through [`PortTiles`] (the server's
/// lane ↔ port crossing), and only a failing one is diagnosed, by
/// [`input_error`].
fn generator_check(
    cfg: &ThroughputConfig,
    lane0: u64,
    inputs: &[TritBlock],
) -> Result<(), ThroughputError> {
    let rank_count = rank_count(cfg.width);
    let lanes = inputs.first().map_or(0, TritBlock::lanes);
    let mut tiles = PortTiles::new(inputs.len(), 1);
    for i in 0..lanes {
        if i % 64 == 0 {
            load_lanes(&mut tiles, inputs, i / 64);
        }
        let lane = lane0 + i as u64;
        let strings = tiles.lane(0, i % 64, cfg.width, cfg.channels);
        for (channel, (z, o)) in strings.enumerate() {
            let rank = rank_for(cfg.seed, lane, channel as u64, rank_count);
            if valid_rank(z, o, cfg.width) != Ok(rank) {
                return Err(input_error(cfg, inputs, (lane0, i), channel, (z, o), rank));
            }
        }
    }
    Ok(())
}

/// The [`generator_check`] failure of lane `i` of the `inputs` ports,
/// global lane `lane0 + i`, in `channel`, which should hold the string of
/// `rank` but which the lane reader read as `read`, [`valid_rank`] masks.
/// The port words are walked bit by bit to name the first wrong bit; when
/// they hold the right string, the reader misread them, which fails the
/// check too, at the first bit the reader got wrong.
fn input_error(
    cfg: &ThroughputConfig,
    inputs: &[TritBlock],
    (lane0, i): (u64, usize),
    channel: usize,
    read: (u64, u64),
    rank: u64,
) -> ThroughputError {
    let lane = (lane0 + i as u64) as usize;
    // `rank_for` reduces modulo the rank count, so a refusal here means
    // the generator itself is broken: report its first bit.
    let Ok(want) = ValidString::from_rank(cfg.width, rank) else {
        return ThroughputError::Generator {
            lane,
            channel,
            bit: 0,
        };
    };
    let wrong_port = (want.bits().iter().enumerate())
        .find(|&(bit, t)| inputs[channel * cfg.width + bit].lane(i) != t)
        .map(|(bit, _)| bit);
    // Otherwise the masks differ within the width, or `valid_rank` would
    // have agreed.
    let bit = wrong_port
        .or_else(|| first_wrong_bit(read, want.planes(), cfg.width))
        .unwrap_or(0);
    ThroughputError::Generator { lane, channel, bit }
}

/// The first character, MSB first as [`ValidString::planes`] numbers
/// them, at which the `width`-bit strings with [`valid_rank`] masks `got`
/// and `want` differ; bits above `width` are ignored. `None` when the two
/// agree.
fn first_wrong_bit(got: (u64, u64), want: (u64, u64), width: usize) -> Option<usize> {
    let wrong = ((got.0 ^ want.0) | (got.1 ^ want.1)) << (64 - width);
    (wrong != 0).then(|| wrong.leading_zeros() as usize)
}

/// Rank-level sortedness: the `outputs` of the lanes from global lane
/// `lane0` (one block per `(channel, bit)` port) must be the ascending
/// sequence of each lane's [`rank_for`] input ranks. A failure reports its
/// global lane. As in [`generator_check`], each `(lane, channel)` is
/// checked by [`valid_rank`] on its bit masks, and only a failing one is
/// diagnosed, by [`output_error`]; the pre-flight runs it only on outputs
/// the [`screen`] flagged.
fn rank_check(
    cfg: &ThroughputConfig,
    lane0: u64,
    outputs: &[TritBlock],
) -> Result<(), ThroughputError> {
    let rank_count = rank_count(cfg.width);
    let lanes = outputs.first().map_or(0, TritBlock::lanes);
    let mut tiles = PortTiles::new(outputs.len(), 1);
    let mut in_ranks = vec![0u64; cfg.channels];
    for i in 0..lanes {
        if i % 64 == 0 {
            load_lanes(&mut tiles, outputs, i / 64);
        }
        let lane = lane0 + i as u64;
        for (c, rank) in in_ranks.iter_mut().enumerate() {
            *rank = rank_for(cfg.seed, lane, c as u64, rank_count);
        }
        in_ranks.sort_unstable();
        let strings = tiles.lane(0, i % 64, cfg.width, cfg.channels);
        for (c, ((z, o), &want_rank)) in strings.zip(&in_ranks).enumerate() {
            if valid_rank(z, o, cfg.width) != Ok(want_rank) {
                return Err(output_error(cfg, outputs, (lane0, i), c, want_rank));
            }
        }
    }
    Ok(())
}

/// The [`rank_check`] failure of lane `i` of output `c`'s ports, global
/// lane `lane0 + i`, which should have rank `want_rank` but did not as the
/// lane reader read it: the port words are rebuilt as a [`ValidString`] to
/// describe it, and when they hold the right string, it fails as misread
/// by the lane reader.
fn output_error(
    cfg: &ThroughputConfig,
    outputs: &[TritBlock],
    (lane0, i): (u64, usize),
    c: usize,
    want_rank: u64,
) -> ThroughputError {
    let lane = (lane0 + i as u64) as usize;
    let bits: TritVec = (0..cfg.width)
        .map(|b| outputs[c * cfg.width + b].lane(i))
        .collect();
    let detail = match ValidString::new(bits.clone()) {
        Err(e) => format!("out{c} = {bits} is not a valid string: {e}"),
        Ok(got) if got.rank() == want_rank => {
            format!("the lane reader misread out{c} = {bits}")
        }
        Ok(got) => format!("out{c} has rank {}, want {want_rank}", got.rank()),
    };
    ThroughputError::NotSorted { lane, detail }
}

/// Loads word `k` of `blocks`, one block per `(channel, bit)` port, into
/// `tiles` and turns it lane-major, for [`PortTiles::lane`].
fn load_lanes(tiles: &mut PortTiles, blocks: &[TritBlock], k: usize) {
    for (p, block) in blocks.iter().enumerate() {
        let w = block.words()[k];
        tiles.set_port(0, p, w.can_zero_plane(), w.can_one_plane());
    }
    tiles.transpose(0);
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
    /// A seed whose streaming worker 0, the one on the calling thread,
    /// panics before its first chunk.
    pub(super) const PANIC_SEED_0: u64 = 0x7061_6e69_6321_2130;

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
        map_in_tier(tier, ranks, xs, RankReducer::reduce);
    }

    /// `f(ranks, x)` for every `x` of `xs`, in place, compiled in `tier`.
    fn map_in_tier<F: Fn(RankReducer, u64) -> u64>(
        tier: KernelId,
        ranks: RankReducer,
        xs: &mut [u64],
        f: F,
    ) {
        #[inline(always)]
        fn body<F: Fn(RankReducer, u64) -> u64>(ranks: RankReducer, xs: &mut [u64], f: F) {
            for x in xs {
                *x = f(ranks, *x);
            }
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn avx2<F: Fn(RankReducer, u64) -> u64>(ranks: RankReducer, xs: &mut [u64], f: F) {
            body(ranks, xs, f)
        }
        match tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: callers pass tiers from `kernel::kernels()`, which
            // lists only what this CPU supports.
            KernelId::Avx2 => unsafe { avx2(ranks, xs, f) },
            _ => body(ranks, xs, f),
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

    /// The inputs where the reducer's proof is tight: the fold's carry
    /// and high-part extremes, and folds one off a multiple of `d` at the
    /// largest quotients, where the f64 product is furthest from `y/d` and
    /// `q` overshoots by one. The fold shift is recomputed here from its
    /// definition, not read from the reducer.
    #[test]
    fn rank_reducer_is_exact_at_the_fold_and_rounding_edges() {
        for tier in kernel::kernels() {
            for width in 1..=MAX_WIDTH {
                let d = rank_count(width);
                let k = width + 1;
                let s = k * 14usize.div_ceil(k);
                let low = (1u64 << s) - 1;
                let high = u64::MAX >> s;
                // A fold `y` as the input whose high part is as large as
                // `y` allows.
                let input = |y: u64| {
                    let lo = y.min(low);
                    ((y - lo) << s) | lo
                };
                // The largest `q` with `q·d + 1 ≤ y_max`.
                let largest_q = |y_max: u64| (y_max - 1) / d;
                let mut xs = vec![low, low + 1, u64::MAX, high << s, (high << s) | 1];
                let q = largest_q(high + low);
                xs.extend([q * d - 1, q * d, q * d + 1].map(input));
                let mut got = xs.clone();
                reduce_in_tier(tier, RankReducer::new(d), &mut got);
                for (x, r) in xs.iter().zip(&got) {
                    assert_eq!(*r, x % d, "tier {tier}, width {width}, x = {x:#x}");
                }
                // Folds up to the proof's bound `y < 2^51`, which no input
                // reaches: the quotient step alone.
                let q = largest_q((1 << 51) - 1);
                let ys = [q * d - 1, q * d, q * d + 1];
                let mut got = ys;
                map_in_tier(
                    tier,
                    RankReducer::new(d),
                    &mut got,
                    RankReducer::reduce_folded,
                );
                for (y, r) in ys.iter().zip(&got) {
                    assert_eq!(*r, y % d, "tier {tier}, width {width}, fold y = {y:#x}");
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
    /// `2^F`. The transpose itself is checked against its per-bit oracle
    /// in `mcs_logic`.
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
            let mut tiles = PortTiles::new(blocks.len(), 1);
            for (i, lane) in strings.chunks(channels).enumerate() {
                if i % 64 == 0 {
                    load_lanes(&mut tiles, &blocks, i / 64);
                }
                let got: Vec<(u64, u64)> = tiles.lane(0, i % 64, width, channels).collect();
                let want: Vec<(u64, u64)> = lane.iter().map(ValidString::planes).collect();
                assert_eq!(got, want, "width {width}, lane {i}");
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
    fn first_wrong_bit_names_the_first_differing_character() {
        // Width 1: the only character, wrong in either mask.
        assert_eq!(first_wrong_bit((1, 0), (0, 0), 1), Some(0));
        assert_eq!(first_wrong_bit((0, 1), (0, 0), 1), Some(0));
        // Width 63: character `i` is bit `62 − i`.
        for i in [0, 1, 31, 62] {
            let bit = 1u64 << (62 - i);
            assert_eq!(first_wrong_bit((bit, 0), (0, 0), 63), Some(i));
            assert_eq!(first_wrong_bit((0, 0), (0, bit), 63), Some(i));
        }
        // Two wrong characters: the first one.
        assert_eq!(first_wrong_bit((0b0100_0001, 0), (0, 0), 8), Some(1));
        // Garbage above the width only: the strings agree.
        assert_eq!(first_wrong_bit((!0, !1), (1, 0), 1), None);
        assert_eq!(
            first_wrong_bit((1 << 63 | 5, 3), (5, 1 << 63 | 3), 63),
            None
        );
    }

    /// A lane the reader misread, with the right string in its port words,
    /// fails both checks with a typed error naming the lane, and the
    /// generator check names the bit the reader got wrong.
    #[test]
    fn a_lane_reader_misread_fails_both_checks() {
        let cfg = small_cfg();
        let lane0 = 100;
        let (inputs, outputs) = sample(&cfg, lane0, 130);
        let (i, c) = (97, 2);
        let lane = lane0 + i as u64;
        let rank = rank_for(cfg.seed, lane, c as u64, rank_count(cfg.width));
        let (z, o) = ValidString::from_rank(cfg.width, rank).unwrap().planes();
        let bits: TritVec = (0..cfg.width)
            .map(|b| outputs[c * cfg.width + b].lane(i))
            .collect();
        let want_rank = ValidString::new(bits.clone()).unwrap().rank();
        for bit in 0..cfg.width {
            let flip = 1u64 << (cfg.width - 1 - bit);
            for read in [(z ^ flip, o), (z, o ^ flip)] {
                match input_error(&cfg, &inputs, (lane0, i), c, read, rank) {
                    ThroughputError::Generator {
                        lane: l,
                        channel,
                        bit: b,
                    } => assert_eq!((l, channel, b), (lane as usize, c, bit)),
                    other => panic!("expected a generator divergence, got {other:?}"),
                }
            }
        }
        let e = output_error(&cfg, &outputs, (lane0, i), c, want_rank);
        assert_eq!(
            not_sorted(Err(e)),
            (
                lane as usize,
                format!("the lane reader misread out{c} = {bits}")
            )
        );
        // The lane's string is a different rank's: not a misread.
        let other = (want_rank + 1) % rank_count(cfg.width);
        let e = output_error(&cfg, &outputs, (lane0, i), c, other);
        assert_eq!(
            not_sorted(Err(e)),
            (
                lane as usize,
                format!("out{c} has rank {want_rank}, want {other}")
            )
        );
    }

    #[test]
    fn transposition_sort_equals_a_per_lane_sort() {
        let mut state = 0x50a7_u64;
        let mut random = |bound: u64| {
            state = splitmix64(state);
            state % bound
        };
        for n in 2..=20 {
            let cases: [Vec<[u64; 64]>; 4] = [
                (0..n)
                    .map(|_| std::array::from_fn(|_| random(1 << 63)))
                    .collect(),
                (0..n).map(|_| std::array::from_fn(|_| random(3))).collect(),
                vec![[7; 64]; n],
                (0..n)
                    .map(|c| std::array::from_fn(|l| (n - c + l) as u64))
                    .collect(),
            ];
            for ranks in cases {
                let mut sorted = ranks.clone();
                transposition_sort(&mut sorted);
                for l in 0..64 {
                    let mut want: Vec<u64> = ranks.iter().map(|row| row[l]).collect();
                    want.sort_unstable();
                    let got: Vec<u64> = sorted.iter().map(|row| row[l]).collect();
                    assert_eq!(got, want, "n = {n}, lane {l}");
                }
            }
        }
    }

    /// Sets `lane` of `port` to a stable value it does not hold.
    fn flip(port: &mut TritBlock, lane: usize) {
        let flipped = match port.lane(lane) {
            Trit::Zero => Trit::One,
            _ => Trit::Zero,
        };
        port.set_lane(lane, flipped);
    }

    /// Flips the last port (channel `n − 1`, bit `B − 1`) of `blocks` at
    /// their last lane.
    fn flip_last_port(blocks: &mut [TritBlock]) {
        let port = blocks.last_mut().unwrap();
        let lane = port.lanes() - 1;
        flip(port, lane);
    }

    /// Sets every bit of output channel `c` at `lane` to `M`.
    fn meta_output(cfg: &ThroughputConfig, outputs: &mut [TritBlock], c: usize, lane: usize) {
        for b in 0..cfg.width {
            outputs[c * cfg.width + b].set_lane(lane, Trit::Meta);
        }
    }

    /// The screen against the per-lane checks on real samples: cells whose
    /// strings straddle two 64-port tiles (3×30, 5×13) or end on one's
    /// edge (3×32), partial last words (130 lanes) and a 1-lane sample,
    /// each clean, with a flipped last port of the last lane, and with an
    /// output lane set to `M`.
    #[test]
    fn the_screen_passes_exactly_when_the_per_lane_checks_pass() {
        let cells = [
            (8, 2, 0, 2048),
            (16, 16, 0, 256),
            (3, 30, 7, 200),
            (5, 13, 64, 130),
            (3, 32, 0, 129),
            (4, 2, 100, 130),
            (4, 2, 100, 1),
            (2, 5, 3, 70),
        ];
        for (channels, width, lane0, lanes) in cells {
            let mut cfg = ThroughputConfig::new(channels, width);
            cfg.kernel = KernelId::Scalar;
            let (inputs, outputs) = sample(&cfg, lane0, lanes);
            let mut flipped = inputs.clone();
            flip_last_port(&mut flipped);
            let mut meta = outputs.clone();
            meta_output(&cfg, &mut meta, channels / 2, lanes - 1);
            for (inputs, outputs) in [(&inputs, &outputs), (&flipped, &outputs), (&inputs, &meta)] {
                let clean = screen(&cfg, lane0, inputs, outputs);
                let per_lane = Screen {
                    inputs: generator_check(&cfg, lane0, inputs).is_ok(),
                    outputs: rank_check(&cfg, lane0, outputs).is_ok(),
                };
                assert_eq!(
                    clean, per_lane,
                    "{channels}x{width}, {lanes} lanes from {lane0}"
                );
            }
            assert_eq!(
                screen(&cfg, lane0, &inputs, &outputs),
                Screen {
                    inputs: true,
                    outputs: true,
                },
                "{channels}x{width}: a clean sample"
            );
            assert!(!screen(&cfg, lane0, &flipped, &meta).inputs);
            assert!(!screen(&cfg, lane0, &flipped, &meta).outputs);
        }
    }

    /// The error of [`sample_checks`] on `(inputs, outputs)` with a
    /// passing differential.
    fn sample_error(
        cfg: &ThroughputConfig,
        lane0: u64,
        inputs: &[TritBlock],
        outputs: &[TritBlock],
    ) -> ThroughputError {
        sample_checks(cfg, lane0, inputs, outputs, || Ok(())).unwrap_err()
    }

    #[test]
    fn screened_faults_report_the_per_lane_checks_errors() {
        for (channels, width) in [(4, 2), (5, 13)] {
            let mut cfg = ThroughputConfig::new(channels, width);
            cfg.kernel = KernelId::Scalar;
            let (lane0, lanes) = (100, 130);
            let (mut inputs, mut outputs) = sample(&cfg, lane0, lanes);
            sample_checks(&cfg, lane0, &inputs, &outputs, || Ok(())).unwrap();

            let clean = inputs.clone();
            flip_last_port(&mut inputs);
            let e = sample_error(&cfg, lane0, &inputs, &outputs);
            let want = generator_check(&cfg, lane0, &inputs).unwrap_err();
            assert_eq!(e.to_string(), want.to_string());
            match e {
                ThroughputError::Generator { lane, channel, bit } => {
                    assert_eq!((lane, channel, bit), (229, channels - 1, width - 1))
                }
                other => panic!("expected a generator divergence, got {other:?}"),
            }

            meta_output(&cfg, &mut outputs, 1, 129);
            let e = sample_error(&cfg, lane0, &clean, &outputs);
            let want = rank_check(&cfg, lane0, &outputs).unwrap_err();
            assert_eq!(e.to_string(), want.to_string());
            let (lane, detail) = not_sorted(Err(e));
            assert_eq!(lane, 229);
            assert!(detail.starts_with("out1 = M"), "{detail}");
        }
    }

    /// Two faults at once report in the parent order: a generator fault
    /// before an unsorted output at an earlier lane, and the differential
    /// between them.
    #[test]
    fn a_generator_fault_outranks_an_earlier_unsorted_output() {
        let cfg = small_cfg();
        let lane0 = 100;
        let (mut inputs, mut outputs) = sample(&cfg, lane0, 130);
        meta_output(&cfg, &mut outputs, 0, 5);
        flip(&mut inputs[2 * cfg.width + 1], 97);
        match sample_error(&cfg, lane0, &inputs, &outputs) {
            ThroughputError::Generator { lane, channel, bit } => {
                assert_eq!((lane, channel, bit), (197, 2, 1))
            }
            other => panic!("expected a generator divergence, got {other:?}"),
        }
        let (clean, _) = sample(&cfg, lane0, 130);
        let differential = || {
            Err(ThroughputError::Differential {
                lane: 3,
                plane_width: PlaneWidth::X1,
                port: "out0_0".into(),
            })
        };
        let r = sample_checks(&cfg, lane0, &inputs, &outputs, differential);
        assert!(matches!(r, Err(ThroughputError::Generator { .. })), "{r:?}");
        let r = sample_checks(&cfg, lane0, &clean, &outputs, differential);
        assert!(
            matches!(r, Err(ThroughputError::Differential { lane: 3, .. })),
            "{r:?}"
        );
        let (lane, _) = not_sorted(sample_checks(&cfg, lane0, &clean, &outputs, || Ok(())));
        assert_eq!(lane, 105);
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
        let mut cfg = small_cfg();
        cfg.sample_lanes = 0;
        let err = run_cell(&cfg).unwrap_err();
        assert!(matches!(err, ThroughputError::UnsupportedCell { .. }));
        assert_eq!(err.to_string(), "cell 4x2: sample_lanes must be positive");
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

    /// Worker 0 streams on the calling thread: its panic is the same typed
    /// error as a spawned worker's, with or without spawned workers.
    #[test]
    fn a_panic_on_the_calling_thread_is_a_typed_error() {
        let mut cfg = small_cfg();
        cfg.seed = PANIC_SEED_0;
        for workers in [1, 3] {
            cfg.workers = workers;
            match run_cell(&cfg) {
                Err(ThroughputError::WorkerPanicked { worker }) => assert_eq!(worker, 0),
                other => panic!("{workers} workers: expected WorkerPanicked, got {other:?}"),
            }
        }
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
