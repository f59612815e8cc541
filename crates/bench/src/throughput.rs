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
//! Input generation is a pure function of `(seed, lane, channel)`: a
//! splitmix64-mixed rank in `0 .. 2^{B+1}−1` is turned directly into the
//! two possibility-plane bit patterns of the corresponding valid string
//! (stable Gray codeword for even ranks, adjacent-codeword superposition
//! for odd ranks), so workers need no shared RNG state.
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
    /// Kernel backend of the tape evaluation. Must be available on this
    /// CPU ([`ThroughputError::Kernel`] otherwise); the checksum is
    /// backend-independent by the kernel conformance contract.
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
    /// Per-chunk tape-eval wall-clock latency (nanoseconds), merged
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
    // Refuse unavailable backends up front, so the per-worker scratch
    // construction below cannot fail.
    kernel::require(cfg.kernel)?;

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
        differential_check(cfg, &circuit, &tape)?
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
            *sum = eval_chunk(cfg, &tape, &mut scratch, chunk);
            eval_latency.record(nanos_u64(t0.elapsed()));
        }
    } else {
        let tape = &tape;
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
                            let sum =
                                eval_chunk(cfg, tape, &mut scratch, chunk);
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
    tape: &EvalTape,
    scratch: &mut mcs_netlist::TapeScratch,
    chunk: usize,
) -> u64 {
    let lane0 = chunk as u64 * cfg.chunk_lanes as u64;
    let lanes = (cfg.vectors - lane0).min(cfg.chunk_lanes as u64) as usize;
    let inputs = chunk_inputs(cfg, lane0, lanes);
    let out = tape.eval_block_with(&inputs, scratch);
    checksum_blocks(&out)
}

/// Generates the input blocks for `lanes` vectors starting at global lane
/// `lane0`: one [`TritBlock`] per port, packed plane-wise straight from the
/// per-lane ranks.
fn chunk_inputs(cfg: &ThroughputConfig, lane0: u64, lanes: usize) -> Vec<TritBlock> {
    let ports = cfg.channels * cfg.width;
    let nwords = lanes.div_ceil(64);
    let mut words: Vec<Vec<TritWord>> = vec![Vec::with_capacity(nwords); ports];
    let rank_count = (1u64 << (cfg.width + 1)) - 1;
    for k in 0..nwords {
        let used = (lanes - 64 * k).min(64);
        for c in 0..cfg.channels {
            let mut zb = [0u64; MAX_WIDTH];
            let mut ob = [0u64; MAX_WIDTH];
            for j in 0..used {
                let lane = lane0 + (64 * k + j) as u64;
                let rank = rank_for(cfg.seed, lane, c as u64, rank_count);
                let (lz, lo) = rank_planes(cfg.width, rank);
                for b in 0..cfg.width {
                    // Port b is the Gray codeword MSB-first, so it carries
                    // integer bit width−1−b.
                    let ib = cfg.width - 1 - b;
                    zb[b] |= ((lz >> ib) & 1) << j;
                    ob[b] |= ((lo >> ib) & 1) << j;
                }
            }
            for b in 0..cfg.width {
                // Pad lanes stay stable 0 (TritBlock re-masks the tail word
                // anyway; this keeps the planes well-encoded up front).
                zb[b] |= !TritWord::lane_mask(used);
                words[c * cfg.width + b]
                    .push(TritWord::from_planes(zb[b], ob[b]));
            }
        }
    }
    words
        .into_iter()
        .map(|w| TritBlock::from_words(w, lanes))
        .collect()
}

/// The rank streamed into `(lane, channel)` under `seed`: uniform-ish over
/// all `2^{B+1} − 1` valid strings, pure and stateless.
fn rank_for(seed: u64, lane: u64, channel: u64, rank_count: u64) -> u64 {
    splitmix64(
        seed ^ lane.wrapping_mul(0xA24B_AED4_963E_E407)
            ^ channel.wrapping_mul(0x9FB2_1C65_1E98_DF25),
    ) % rank_count
}

/// The `(can_zero, can_one)` bit patterns (integer bit order) of the valid
/// string with this rank: the plane-level twin of
/// [`ValidString::from_rank`].
fn rank_planes(width: usize, rank: u64) -> (u64, u64) {
    let mask = (1u64 << width) - 1;
    let x = rank >> 1;
    let g = x ^ (x >> 1);
    if rank & 1 == 0 {
        // Stable codeword rg(x).
        (!g & mask, g)
    } else {
        // rg(x) ∗ rg(x+1): the differing bit can take both values.
        let h = (x + 1) ^ ((x + 1) >> 1);
        (!(g & h) & mask, g | h)
    }
}

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
) -> Result<usize, ThroughputError> {
    let lanes = cfg.sample_lanes;
    let rank_count = (1u64 << (cfg.width + 1)) - 1;
    let inputs = chunk_inputs(cfg, 0, lanes);
    generator_check(cfg, &inputs)?;

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
/// `(channel, bit)` port, as [`chunk_inputs`] lays them out from lane 0)
/// must agree bit-for-bit with [`ValidString::from_rank`] of each lane's
/// rank.
fn generator_check(cfg: &ThroughputConfig, inputs: &[TritBlock]) -> Result<(), ThroughputError> {
    let rank_count = (1u64 << (cfg.width + 1)) - 1;
    let lanes = inputs.first().map_or(0, TritBlock::lanes);
    for lane in 0..lanes {
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
                if inputs[channel * cfg.width + bit].lane(lane) != t {
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

    #[test]
    fn rank_planes_match_valid_string_from_rank() {
        for width in 1..=5usize {
            let rank_count = (1u64 << (width + 1)) - 1;
            for rank in 0..rank_count {
                let (z, o) = rank_planes(width, rank);
                let vs = ValidString::from_rank(width, rank).unwrap();
                for (b, t) in vs.bits().iter().enumerate() {
                    let ib = width - 1 - b;
                    let want = match t {
                        Trit::Zero => (1, 0),
                        Trit::One => (0, 1),
                        Trit::Meta => (1, 1),
                    };
                    assert_eq!(
                        ((z >> ib) & 1, (o >> ib) & 1),
                        want,
                        "width {width} rank {rank} bit {b}"
                    );
                }
                // No stray bits above the width.
                assert_eq!(z >> width, 0, "width {width} rank {rank}");
                assert_eq!(o >> width, 0, "width {width} rank {rank}");
            }
        }
    }

    #[test]
    fn generator_check_reports_a_flipped_input_bit() {
        let cfg = small_cfg();
        let mut inputs = chunk_inputs(&cfg, 0, 130);
        generator_check(&cfg, &inputs).unwrap();
        // Flip one lane of channel 2, bit 1 to a value it does not hold.
        let (lane, channel, bit) = (97, 2, 1);
        let port = &mut inputs[channel * cfg.width + bit];
        let flipped = match port.lane(lane) {
            Trit::Zero => Trit::One,
            _ => Trit::Zero,
        };
        port.set_lane(lane, flipped);
        match generator_check(&cfg, &inputs) {
            Err(ThroughputError::Generator {
                lane: l,
                channel: c,
                bit: b,
            }) => {
                assert_eq!((l, c, b), (lane, channel, bit))
            }
            other => panic!("expected a generator divergence, got {other:?}"),
        }
    }

    #[test]
    fn checksum_is_invariant_across_workers_and_plane_widths() {
        let mut reference = None;
        for workers in [1usize, 2, 4] {
            for plane_width in PlaneWidth::ALL {
                let mut cfg = small_cfg();
                cfg.workers = workers;
                cfg.plane_width = plane_width;
                let r = run_cell(&cfg).unwrap();
                let c = *reference.get_or_insert(r.checksum);
                assert_eq!(
                    r.checksum, c,
                    "workers={workers} plane_width={plane_width}"
                );
                assert!(r.vectors_per_s() > 0.0);
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
