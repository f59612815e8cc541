//! Sustained-throughput engine: streams millions of Gray-code vectors
//! through a compiled sorting circuit and reports **sorted vectors per
//! second**.
//!
//! The pipeline per benchmark cell `(n, B)`:
//!
//! 1. Pick a comparator network (best-known optimal table for small `n`,
//!    Batcher odd-even otherwise), 0-1-verify it, and instantiate the
//!    paper-flavour MC sorting circuit.
//! 2. Compile the circuit into an [`EvalTape`] and re-verify the tape
//!    against [`Netlist::eval_block`] lane-for-lane on a differential
//!    sample at every plane width, including a rank-level sortedness check
//!    (outputs must be the sorted valid strings of the inputs).
//! 3. Stream `vectors` pseudorandom valid strings through the tape in
//!    fixed-size chunks sharded round-robin across `std::thread::scope`
//!    workers — the PR 3 determinism contract: worker `w` owns chunks
//!    `w, w+workers, …`, results merge by chunk index, so the final
//!    checksum is **byte-identical across runs and worker counts** (and
//!    across plane widths).
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
//!    array, with `seed ^ channel·C₂` hoisted out of the lane loop;
//! 2. an exact, division-free reducer (`RankReducer`, multiply-high by a
//!    per-cell reciprocal plus one conditional subtract) replaces the `%`;
//! 3. only the `B+1` rank bits are transposed into rank planes
//!    `R_0 ..= R_B`, and every port word follows from word ops: the Gray
//!    code of `x = rank >> 1` and of `x + 1` (a bit-sliced ripple-carry
//!    increment), merged per lane by the parity plane `R_0`.
//!
//! The generator body is compiled in the same two tiers as the tape: for
//! the build's baseline features under [`KernelId::Scalar`], and under
//! `#[target_feature(enable = "avx2")]` under [`KernelId::Avx2`], picked by
//! the cell's `kernel`. Every cell's pre-flight compares the generated
//! planes against [`ValidString::from_rank`] of `rank_for`, so the fast
//! path is cross-checked against the definition before anything is timed.
//!
//! [`report_json`] serialises the per-cell results as
//! `BENCH_throughput.json` (schema [`JSON_SCHEMA`]) so the perf trajectory
//! is trackable across PRs.

use std::fmt;
use std::time::{Duration, Instant};

use mcs_gray::ValidString;
use mcs_logic::plane::kernel::{self, KernelId, UnknownKernel};
use mcs_logic::{PlaneWidth, TritBlock, TritVec, TritWord};
use mcs_netlist::{EvalTape, Netlist, TapeEvalError};
use mcs_networks::circuit::{build_sorting_circuit, TwoSortFlavor};
use mcs_networks::generators::batcher_odd_even;
use mcs_networks::optimal::best_size;
use mcs_networks::verify::zero_one_verify;
use mcs_networks::Network;

use crate::metrics::{nanos_u64, LatencyHistogram};
use crate::verify::{zero_one_circuit_check, CircuitVerifyError, MAX_CHECK_CHANNELS};

/// Schema tag of the JSON emitted by [`report_json`]. Bump on any
/// backwards-incompatible field change.
pub const JSON_SCHEMA: &str = "mcs-throughput-v1";

/// Widest supported channel value (rank arithmetic uses `u64` codewords).
pub const MAX_WIDTH: usize = 32;

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
    /// Must be available on this CPU ([`ThroughputError::Kernel`]
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
            plane_width: PlaneWidth::X4,
            kernel: kernel::preferred(),
            seed: 0x6d63_735f_7468_7270, // "mcs_thrp"
            chunk_lanes: 8192,
            sample_lanes: 2048,
        }
    }
}

/// Everything that can go wrong while setting up or validating a cell.
/// The timed loop itself cannot fail.
#[derive(Debug)]
pub enum ThroughputError {
    /// The cell parameters are outside the supported range.
    UnsupportedCell {
        /// Channel count of the offending cell.
        channels: usize,
        /// Bit width of the offending cell.
        width: usize,
        /// What exactly is unsupported.
        reason: String,
    },
    /// The comparator network failed 0-1 verification.
    Network(String),
    /// The instantiated circuit failed the gate-level 0-1 sweep.
    Circuit(CircuitVerifyError),
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
    /// The tape refused the differential sample.
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
    /// The requested kernel backend cannot run on this CPU.
    Kernel(UnknownKernel),
}

impl fmt::Display for ThroughputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThroughputError::UnsupportedCell {
                channels,
                width,
                reason,
            } => write!(f, "cell {channels}x{width}: {reason}"),
            ThroughputError::Network(msg) => {
                write!(f, "network verification failed: {msg}")
            }
            ThroughputError::Circuit(e) => {
                write!(f, "circuit verification failed: {e}")
            }
            ThroughputError::Generator { lane, channel, bit } => write!(
                f,
                "input generator diverged from ValidString::from_rank at \
                 lane {lane}, channel {channel}, bit {bit}"
            ),
            ThroughputError::Tape(e) => write!(f, "differential sample: {e}"),
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
            ThroughputError::Kernel(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ThroughputError {}

impl From<CircuitVerifyError> for ThroughputError {
    fn from(e: CircuitVerifyError) -> ThroughputError {
        ThroughputError::Circuit(e)
    }
}

impl From<TapeEvalError> for ThroughputError {
    fn from(e: TapeEvalError) -> ThroughputError {
        ThroughputError::Tape(e)
    }
}

impl From<UnknownKernel> for ThroughputError {
    fn from(e: UnknownKernel) -> ThroughputError {
        ThroughputError::Kernel(e)
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
/// See [`ThroughputError`]; all failures are pre-flight — once streaming
/// starts the cell completes.
pub fn run_cell(cfg: &ThroughputConfig) -> Result<CellReport, ThroughputError> {
    let unsupported = |reason: String| ThroughputError::UnsupportedCell {
        channels: cfg.channels,
        width: cfg.width,
        reason,
    };
    if cfg.channels < 2 {
        return Err(unsupported("need at least 2 channels".into()));
    }
    if cfg.width == 0 || cfg.width > MAX_WIDTH {
        return Err(unsupported(format!("width must be in 1..={MAX_WIDTH}")));
    }
    if cfg.chunk_lanes == 0 {
        return Err(unsupported("chunk_lanes must be positive".into()));
    }
    // Refuse unavailable tiers up front, so the per-worker scratch
    // construction below cannot fail and the generator may enter the tier.
    let stimulus = Stimulus::new(cfg)?;

    let network = cell_network(cfg.channels);
    if cfg.channels <= MAX_CHECK_CHANNELS {
        zero_one_verify(&network)
            .map_err(|e| ThroughputError::Network(e.to_string()))?;
    }
    let circuit = build_sorting_circuit(&network, cfg.width, TwoSortFlavor::Paper);
    if cfg.channels <= MAX_CHECK_CHANNELS {
        zero_one_circuit_check(&circuit, cfg.channels, cfg.width)?;
    }
    let tape = EvalTape::compile(&circuit);

    let differential_lanes = if cfg.sample_lanes > 0 {
        differential_check(cfg, &circuit, &tape, &stimulus)?
    } else {
        0
    };

    let chunks = chunk_count(cfg.vectors, cfg.chunk_lanes)?;
    let workers = resolve_workers(cfg.workers, chunks);

    let start = Instant::now();
    let mut sums = vec![0u64; chunks];
    let mut eval_latency = LatencyHistogram::new();
    if workers <= 1 {
        let mut scratch = cell_scratch(&tape, cfg);
        for (chunk, sum) in sums.iter_mut().enumerate() {
            let t0 = Instant::now();
            *sum = eval_chunk(cfg, &stimulus, &tape, &mut scratch, chunk);
            eval_latency.record(nanos_u64(t0.elapsed()));
        }
    } else {
        let (tape, stimulus) = (&tape, &stimulus);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    s.spawn(move || {
                        let mut scratch = cell_scratch(tape, cfg);
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
                            let sum = eval_chunk(
                                cfg,
                                stimulus,
                                tape,
                                &mut scratch,
                                chunk,
                            );
                            latency.record(nanos_u64(t0.elapsed()));
                            local.push((chunk, sum));
                            chunk += workers;
                        }
                        (local, latency)
                    })
                })
                .collect();
            for h in handles {
                // Index-keyed merge: arrival order cannot influence sums.
                let (local, latency) = h.join().expect("worker panicked");
                for (chunk, sum) in local {
                    sums[chunk] = sum;
                }
                eval_latency.merge(&latency);
            }
        });
    }
    let elapsed = start.elapsed();

    let mut checksum = 0x7468_7270_7574_2131u64;
    for s in sums {
        checksum = splitmix64(checksum ^ s);
    }

    Ok(CellReport {
        channels: cfg.channels,
        width: cfg.width,
        comparators: network.size(),
        gates: circuit.gate_count(),
        depth: circuit.depth(),
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

/// Allocates one worker's scratch for the cell's forced kernel. Infallible
/// because [`run_cell`] re-validated availability before any worker spawns.
fn cell_scratch(tape: &EvalTape, cfg: &ThroughputConfig) -> mcs_netlist::TapeScratch {
    tape.try_scratch(cfg.plane_width, cfg.kernel)
        .expect("kernel availability is pre-checked by run_cell")
}

/// The comparator network a cell streams: the best-known optimal table
/// where one exists (n ≤ 10), Batcher odd-even beyond.
pub fn cell_network(channels: usize) -> Network {
    best_size(channels).unwrap_or_else(|| batcher_odd_even(channels))
}

fn resolve_workers(requested: usize, chunks: usize) -> usize {
    let workers = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    workers.clamp(1, chunks.max(1))
}

/// Evaluates chunk `chunk` and returns its output digest. Pure in
/// `(cfg, chunk)` — scratch is only a buffer.
fn eval_chunk(
    cfg: &ThroughputConfig,
    stimulus: &Stimulus,
    tape: &EvalTape,
    scratch: &mut mcs_netlist::TapeScratch,
    chunk: usize,
) -> u64 {
    let lane0 = chunk as u64 * cfg.chunk_lanes as u64;
    let lanes = (cfg.vectors - lane0).min(cfg.chunk_lanes as u64) as usize;
    let inputs = stimulus.chunk_inputs(lane0, lanes);
    let out = tape.eval_block_with(&inputs, scratch);
    checksum_blocks(&out)
}

/// Multiplier of the lane index in the stream definition ([`rank_for`]).
const LANE_MIX: u64 = 0xA24B_AED4_963E_E407;
/// Multiplier of the channel index in the stream definition.
const CHANNEL_MIX: u64 = 0x9FB2_1C65_1E98_DF25;

/// `LANE_BIT[j] = 1 << j`: lane `j`'s bit in a plane word.
const LANE_BIT: [u64; 64] = {
    let mut bits = [0u64; 64];
    let mut j = 0;
    while j < 64 {
        bits[j] = 1 << j;
        j += 1;
    }
    bits
};

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
/// bit-sliced twin of [`rank_for`] + [`ValidString::from_rank`].
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
    /// [`Stimulus::chunk_inputs`] enters the tier on that condition.
    fn new(cfg: &ThroughputConfig) -> Result<Stimulus, UnknownKernel> {
        Ok(Stimulus {
            seed: cfg.seed,
            channels: cfg.channels,
            width: cfg.width,
            kernel: kernel::require(cfg.kernel)?,
            ranks: RankReducer::new(rank_count(cfg.width)),
        })
    }

    /// The input blocks for `lanes` vectors starting at global lane
    /// `lane0`: one [`TritBlock`] per port, channel-major, each channel's
    /// Gray codeword MSB first.
    fn chunk_inputs(&self, lane0: u64, lanes: usize) -> Vec<TritBlock> {
        match self.kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Stimulus::new` admits `Avx2` only after
            // `kernel::require` detected the feature on this CPU.
            KernelId::Avx2 => unsafe { self.chunk_inputs_avx2(lane0, lanes) },
            // `Scalar`, and off x86-64 a tier `kernel::require` never admits.
            _ => self.chunk_inputs_v(lane0, lanes),
        }
    }

    /// [`Stimulus::chunk_inputs_v`] compiled with AVX2 enabled.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn chunk_inputs_avx2(&self, lane0: u64, lanes: usize) -> Vec<TritBlock> {
        self.chunk_inputs_v(lane0, lanes)
    }

    /// The generator body, shared by both tiers.
    #[inline(always)]
    fn chunk_inputs_v(&self, lane0: u64, lanes: usize) -> Vec<TritBlock> {
        let width = self.width;
        let nwords = lanes.div_ceil(64);
        let mut words: Vec<Vec<TritWord>> =
            vec![Vec::with_capacity(nwords); self.channels * width];
        let mut ranks = [0u64; 64];
        // Rank planes R_0 ..= R_B; R_{B+1} stays 0, the zero bit above
        // x = rank >> 1.
        let mut r = [0u64; MAX_WIDTH + 2];
        // Planes of x + 1; Y_B stays 0 (see below).
        let mut y = [0u64; MAX_WIDTH + 1];
        for k in 0..nwords {
            let first = lane0 + 64 * k as u64;
            // Lanes past the chunk end are generated like any other and
            // then forced to stable 0.
            let live = TritWord::lane_mask(lanes - 64 * k);
            for c in 0..self.channels {
                let base = self.seed ^ (c as u64).wrapping_mul(CHANNEL_MIX);
                for (j, rank) in ranks.iter_mut().enumerate() {
                    let lane = first + j as u64;
                    *rank = splitmix64(base ^ lane.wrapping_mul(LANE_MIX));
                }
                for rank in &mut ranks {
                    *rank = self.ranks.reduce(*rank);
                }
                // Rank bit i of lane j, selected by mask rather than
                // shifted into place: no per-lane shift count, so the
                // loop vectorises in both tiers.
                for (i, plane) in r[..=width].iter_mut().enumerate() {
                    *plane = ranks.iter().zip(&LANE_BIT).fold(0, |acc, (&rank, &bit)| {
                        acc | (((rank >> i) & 1).wrapping_neg() & bit)
                    });
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
                    words[c * width + b].push(TritWord::from_planes(can_zero, can_one));
                }
            }
        }
        words
            .into_iter()
            .map(|w| TritBlock::from_words(w, lanes))
            .collect()
    }
}

#[inline(always)]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Digest of a chunk's output blocks, canonical `(port, word)` order.
fn checksum_blocks(blocks: &[TritBlock]) -> u64 {
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in blocks {
        for w in b.words() {
            h = (h ^ w.can_zero_plane()).wrapping_mul(FNV_PRIME);
            h = (h ^ w.can_one_plane()).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Pre-flight differential harness over the first `sample_lanes` vectors:
///
/// * the plane-packed generator must agree bit-for-bit with
///   [`ValidString::from_rank`];
/// * the tape must match [`Netlist::eval_block`] lane-for-lane at every
///   plane width;
/// * every sampled output must be the ascending sequence of the lane's
///   input ranks.
fn differential_check(
    cfg: &ThroughputConfig,
    circuit: &Netlist,
    tape: &EvalTape,
    stimulus: &Stimulus,
) -> Result<usize, ThroughputError> {
    let lanes = cfg.sample_lanes;
    let rank_count = rank_count(cfg.width);
    let inputs = stimulus.chunk_inputs(0, lanes);
    generator_check(cfg, 0, &inputs)?;

    let want = circuit.eval_block(&inputs);
    for plane_width in PlaneWidth::ALL {
        // The sample runs under the cell's forced kernel, so a backend
        // that diverged from the interpreter would be caught before the
        // timed loop streams a single vector.
        let mut scratch = tape.try_scratch(plane_width, cfg.kernel)?;
        let got = tape.try_eval_block_with(&inputs, &mut scratch)?;
        for (port, (g, w)) in got.iter().zip(&want).enumerate() {
            if let Some(lane) = g.first_mismatch(w) {
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

    // Rank-level sortedness: outputs must be the sorted input ranks.
    for lane in 0..lanes {
        let mut in_ranks: Vec<u64> = (0..cfg.channels)
            .map(|c| rank_for(cfg.seed, lane as u64, c as u64, rank_count))
            .collect();
        in_ranks.sort_unstable();
        for (c, &want_rank) in in_ranks.iter().enumerate() {
            let bits: TritVec = (0..cfg.width)
                .map(|b| want[c * cfg.width + b].lane(lane))
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
    Ok(lanes)
}

/// Generator cross-check: the plane-packed `inputs` (one block per
/// `(channel, bit)` port, as [`Stimulus::chunk_inputs`] lays them out from
/// global lane `lane0`) must agree bit-for-bit with
/// [`ValidString::from_rank`] of each lane's [`rank_for`] rank. A mismatch
/// reports its global lane.
fn generator_check(
    cfg: &ThroughputConfig,
    lane0: u64,
    inputs: &[TritBlock],
) -> Result<(), ThroughputError> {
    let rank_count = rank_count(cfg.width);
    let lanes = inputs.first().map_or(0, TritBlock::lanes);
    for i in 0..lanes {
        let lane = (lane0 + i as u64) as usize;
        for channel in 0..cfg.channels {
            let rank = rank_for(cfg.seed, lane as u64, channel as u64, rank_count);
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

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => {
                format!("\\u{:04x}", c as u32).chars().collect()
            }
            c => vec![c],
        })
        .collect()
}

/// Serialises cell reports as the `BENCH_throughput.json` document
/// (schema [`JSON_SCHEMA`]). Hand-rolled: the repo takes no serde
/// dependency.
pub fn report_json(seed: u64, chunk_lanes: usize, cells: &[CellReport]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{}\",\n", json_escape(JSON_SCHEMA)));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"chunk_lanes\": {chunk_lanes},\n"));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"channels\": {},\n", c.channels));
        out.push_str(&format!("      \"width\": {},\n", c.width));
        out.push_str(&format!("      \"comparators\": {},\n", c.comparators));
        out.push_str(&format!("      \"gates\": {},\n", c.gates));
        out.push_str(&format!("      \"depth\": {},\n", c.depth));
        out.push_str(&format!("      \"vectors\": {},\n", c.vectors));
        out.push_str(&format!("      \"workers\": {},\n", c.workers));
        out.push_str(&format!(
            "      \"plane_width\": {},\n",
            c.plane_width.words()
        ));
        // Additive field (schema stays v1): which kernel backend streamed
        // the cell. The checksum is backend-independent.
        out.push_str(&format!(
            "      \"kernel\": \"{}\",\n",
            json_escape(c.kernel.name())
        ));
        out.push_str(&format!(
            "      \"elapsed_s\": {:.6},\n",
            c.elapsed.as_secs_f64()
        ));
        out.push_str(&format!(
            "      \"vectors_per_s\": {:.1},\n",
            c.vectors_per_s()
        ));
        out.push_str(&format!(
            "      \"checksum\": \"0x{:016x}\",\n",
            c.checksum
        ));
        out.push_str(&format!(
            "      \"differential_lanes\": {},\n",
            c.differential_lanes
        ));
        // Per-chunk tape-eval latency quantiles (additive fields — the
        // schema tag stays v1).
        let us = |ns: u64| ns / 1_000;
        out.push_str(&format!(
            "      \"eval_chunks\": {},\n",
            c.eval_latency.count()
        ));
        out.push_str(&format!(
            "      \"eval_p50_us\": {},\n",
            us(c.eval_latency.quantile(0.50))
        ));
        out.push_str(&format!(
            "      \"eval_p90_us\": {},\n",
            us(c.eval_latency.quantile(0.90))
        ));
        out.push_str(&format!(
            "      \"eval_p99_us\": {},\n",
            us(c.eval_latency.quantile(0.99))
        ));
        out.push_str(&format!(
            "      \"eval_p999_us\": {},\n",
            us(c.eval_latency.quantile(0.999))
        ));
        out.push_str(&format!(
            "      \"eval_max_us\": {}\n",
            us(c.eval_latency.max())
        ));
        out.push_str(if i + 1 == cells.len() { "    }\n" } else { "    },\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_logic::Trit;

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
        let mut cfg = ThroughputConfig::new(1, 2);
        cfg.vectors = 10;
        assert!(matches!(
            run_cell(&cfg),
            Err(ThroughputError::UnsupportedCell { .. })
        ));
        let mut cfg = ThroughputConfig::new(4, 0);
        cfg.vectors = 10;
        assert!(matches!(
            run_cell(&cfg),
            Err(ThroughputError::UnsupportedCell { .. })
        ));
        let mut cfg = ThroughputConfig::new(4, MAX_WIDTH + 1);
        cfg.vectors = 10;
        let err = run_cell(&cfg).unwrap_err();
        assert!(err.to_string().contains("width"));
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
                (false, Err(ThroughputError::Kernel(UnknownKernel::Unavailable(got)))) => {
                    assert_eq!(got, k)
                }
                (_, other) => panic!("kernel {k}: unexpected result {other:?}"),
            }
        }
        // run_cell refuses through kernel::require; pin the refusal a CPU
        // without AVX2 gives, whatever this host has.
        let refusal = kernel::require_on(KernelId::Avx2, false).unwrap_err();
        assert!(matches!(
            ThroughputError::from(refusal),
            ThroughputError::Kernel(UnknownKernel::Unavailable(KernelId::Avx2))
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
