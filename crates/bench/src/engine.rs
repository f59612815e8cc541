//! The one verified sorting engine behind [`crate::throughput`] and
//! [`crate::server`]: a certified MC sorting circuit and its compiled
//! [`EvalTape`].
//!
//! Two constructors build it, and both certify the circuit before anything
//! streams or serves through it:
//!
//! * [`Engine::for_cell`] — a stock cell: validate → [`cell_network`] →
//!   [`zero_one_verify`] → the paper-flavour circuit → certify.
//! * [`Engine::from_netlist`] — a loaded artifact: validate → certify.
//!
//! "Certify" checks the port counts, compiles the tape once, and proves it
//! against the circuit: [`EvalTape::check_registers`] on every engine,
//! then, up to [`MAX_CHECK_CHANNELS`] channels, the exhaustive 0-1 sweep
//! of [`zero_one_tape_check`] on that same tape under the engine's own
//! kernel tier. The register proof shows the tape computes the circuit
//! gate for gate, so the sweep certifies both the netlist and the tape that
//! streams (see [`crate::verify`] for the argument). Above the bound the
//! sweep is out of reach and only the ports and the register proof are
//! checked. The network-level [`zero_one_verify`] follows the same bound.
//!
//! Both consumers cross lane-major strings and the engine's port-major
//! plane words the same way: through `PortTiles`, 64-port tiles of
//! [`transpose_fields`]`::<64>` matrices and one lane reader, used by the
//! server's pack and decode and by the throughput pre-flight.

use std::fmt;
use std::ops::Range;

use mcs_logic::plane::kernel::{self, KernelId, UnknownKernel};
use mcs_logic::{transpose_fields, PlaneWidth};
use mcs_netlist::{EvalTape, Netlist, TapeScratch};
use mcs_networks::circuit::{build_sorting_circuit, TwoSortFlavor};
use mcs_networks::generators::batcher_odd_even;
use mcs_networks::optimal::best_size;
use mcs_networks::verify::zero_one_verify;
use mcs_networks::Network;

use crate::verify::{check_ports, zero_one_tape_check, CircuitVerifyError, MAX_CHECK_CHANNELS};

/// Widest supported channel value (rank arithmetic uses `u64` codewords).
pub const MAX_WIDTH: usize = 32;

/// Why a sorting engine could not be built. Nothing streams or serves
/// unless construction succeeds.
#[derive(Debug)]
pub enum EngineError {
    /// The channel count or width is outside the supported range.
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
    /// The circuit failed the port check, the tape's register proof or
    /// the gate-level 0-1 sweep.
    Circuit(CircuitVerifyError),
    /// The requested kernel backend cannot run on this CPU.
    Kernel(UnknownKernel),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnsupportedCell {
                channels,
                width,
                reason,
            } => write!(f, "cell {channels}x{width}: {reason}"),
            EngineError::Network(msg) => {
                write!(f, "network verification failed: {msg}")
            }
            EngineError::Circuit(e) => {
                write!(f, "circuit verification failed: {e}")
            }
            EngineError::Kernel(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CircuitVerifyError> for EngineError {
    fn from(e: CircuitVerifyError) -> EngineError {
        EngineError::Circuit(e)
    }
}

impl From<UnknownKernel> for EngineError {
    fn from(e: UnknownKernel) -> EngineError {
        EngineError::Kernel(e)
    }
}

/// The comparator network a cell streams: the best-known optimal table
/// where one exists (n ≤ 10), Batcher odd-even beyond.
pub fn cell_network(channels: usize) -> Network {
    best_size(channels).unwrap_or_else(|| batcher_odd_even(channels))
}

/// Worker threads for a requested count: `0` means one per available core.
pub fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// The one cell validator: `channels ≥ 2`, `1 ≤ width ≤ MAX_WIDTH`, and a
/// kernel tier this CPU can run.
fn validate_cell(
    channels: usize,
    width: usize,
    kernel: KernelId,
) -> Result<(), EngineError> {
    let unsupported = |reason: String| {
        Err(EngineError::UnsupportedCell {
            channels,
            width,
            reason,
        })
    };
    if channels < 2 {
        return unsupported("need at least 2 channels".into());
    }
    if width == 0 || width > MAX_WIDTH {
        return unsupported(format!("width must be in 1..={MAX_WIDTH}"));
    }
    kernel::require(kernel)?;
    Ok(())
}

/// A verified `channels × width` sorting circuit, compiled to an
/// [`EvalTape`] for one kernel tier. Shared read-only across workers; each
/// worker owns a [`TapeScratch`] from [`Engine::scratch`].
#[derive(Debug)]
pub struct Engine {
    kernel: KernelId,
    comparators: Option<usize>,
    circuit: Netlist,
    tape: EvalTape,
}

impl Engine {
    /// Builds the stock cell: [`cell_network`], 0-1-verified, instantiated
    /// with the paper's 2-sort, checked and compiled.
    ///
    /// # Errors
    ///
    /// See [`EngineError`].
    pub fn for_cell(
        channels: usize,
        width: usize,
        kernel: KernelId,
    ) -> Result<Engine, EngineError> {
        validate_cell(channels, width, kernel)?;
        let network = cell_network(channels);
        if channels <= MAX_CHECK_CHANNELS {
            zero_one_verify(&network).map_err(|e| EngineError::Network(e.to_string()))?;
        }
        let circuit = build_sorting_circuit(&network, width, TwoSortFlavor::Paper);
        Engine::certify(channels, width, kernel, circuit, Some(network.size()))
    }

    /// Builds the engine from an existing sorting netlist, e.g. an artifact
    /// loaded by [`crate::artifact::load_netlist`]. The netlist is checked
    /// before it is compiled.
    ///
    /// # Errors
    ///
    /// See [`EngineError`].
    pub fn from_netlist(
        channels: usize,
        width: usize,
        kernel: KernelId,
        circuit: Netlist,
    ) -> Result<Engine, EngineError> {
        validate_cell(channels, width, kernel)?;
        Engine::certify(channels, width, kernel, circuit, None)
    }

    /// Check the ports, compile, then prove the tape against the circuit
    /// (see the [module docs](self)).
    fn certify(
        channels: usize,
        width: usize,
        kernel: KernelId,
        circuit: Netlist,
        comparators: Option<usize>,
    ) -> Result<Engine, EngineError> {
        check_ports(&circuit, channels, width)?;
        let tape = EvalTape::compile(&circuit);
        if channels <= MAX_CHECK_CHANNELS {
            zero_one_tape_check(&circuit, &tape, kernel, channels, width)?;
        } else {
            tape.check_registers(&circuit).map_err(CircuitVerifyError::TapeMismatch)?;
        }
        Ok(Engine {
            kernel,
            comparators,
            circuit,
            tape,
        })
    }

    /// Comparators of the underlying network; `None` for an engine built
    /// from a netlist.
    pub fn comparators(&self) -> Option<usize> {
        self.comparators
    }

    /// The verified circuit.
    pub fn circuit(&self) -> &Netlist {
        &self.circuit
    }

    /// The compiled tape.
    pub fn tape(&self) -> &EvalTape {
        &self.tape
    }

    /// Allocates one worker's scratch at `plane_width` for the engine's
    /// kernel tier.
    ///
    /// # Panics
    ///
    /// Never for an engine built by [`Engine::for_cell`] or
    /// [`Engine::from_netlist`]: both admit the kernel through
    /// `validate_cell` ([`kernel::require`]) before anything is compiled,
    /// and a tier this CPU can run stays runnable, so the scratch's own
    /// [`EvalTape::try_scratch`] check cannot refuse it.
    pub fn scratch(&self, plane_width: PlaneWidth) -> TapeScratch {
        self.tape
            .try_scratch(plane_width, self.kernel)
            .expect("kernel availability is validated at engine construction")
    }
}

/// The two planes of every port of an [`Engine`] for each 64-lane word of
/// a plane group, held as 64-port tiles of [`transpose_fields`]`::<64>`
/// matrices: the lane ↔ port crossing of the server's pack and decode and
/// of the throughput pre-flight. Port `c·B + b` carries bit `b` (MSB
/// first) of channel `c`, for the tape's inputs and outputs alike, so one
/// lane's ports are one bit string: channel after channel, MSB first.
///
/// In port order, row `63 − p` of word `k`'s tile `t` is port `64t + p`'s
/// word `k` (lane `j` at bit `j`). [`PortTiles::transpose`] turns a word's
/// tiles around: in lane order, row `j` of tile `t` is lane `64k + j`'s
/// ports `64t ..` spelled MSB first, which [`PortTiles::lane`] reads.
#[derive(Debug, Default)]
pub(crate) struct PortTiles {
    /// Tiles per word.
    tiles: usize,
    z: Vec<[u64; 64]>,
    o: Vec<[u64; 64]>,
}

impl PortTiles {
    /// Zeroed tiles for `ports` ports and `words` words.
    pub(crate) fn new(ports: usize, words: usize) -> PortTiles {
        let mut tiles = PortTiles::default();
        tiles.fit(ports, words);
        tiles
    }

    /// Resizes the tiles for `ports` ports and `words` words, keeping the
    /// buffers (and any contents) they already have.
    pub(crate) fn fit(&mut self, ports: usize, words: usize) {
        self.tiles = ports.div_ceil(64);
        self.z.resize(self.tiles * words, [0; 64]);
        self.o.resize(self.tiles * words, [0; 64]);
    }

    /// Port `p`'s word `k`, in port order.
    pub(crate) fn port(&self, k: usize, p: usize) -> (u64, u64) {
        let (t, row) = (k * self.tiles + p / 64, 63 - p % 64);
        (self.z[t][row], self.o[t][row])
    }

    /// Sets port `p`'s word `k`, in port order.
    pub(crate) fn set_port(&mut self, k: usize, p: usize, z: u64, o: u64) {
        let (t, row) = (k * self.tiles + p / 64, 63 - p % 64);
        (self.z[t][row], self.o[t][row]) = (z, o);
    }

    /// The indices of word `k`'s tiles.
    fn span(&self, k: usize) -> Range<usize> {
        k * self.tiles..(k + 1) * self.tiles
    }

    /// Word `k`'s tiles of both planes.
    pub(crate) fn word(&mut self, k: usize) -> (&mut [[u64; 64]], &mut [[u64; 64]]) {
        let span = self.span(k);
        (&mut self.z[span.clone()], &mut self.o[span])
    }

    /// Swaps port order and lane order in word `k`'s tiles of both planes.
    pub(crate) fn transpose(&mut self, k: usize) {
        let (z, o) = self.word(k);
        for tile in z.iter_mut().chain(o) {
            transpose_fields::<64>(tile);
        }
    }

    /// The first `count` strings of `width` bits of lane `j` in word `k`,
    /// in lane order: `(can_zero, can_one)` per channel, channel after
    /// channel, a string that straddles two tiles included.
    #[inline]
    pub(crate) fn lane(
        &self,
        k: usize,
        j: usize,
        width: usize,
        count: usize,
    ) -> impl Iterator<Item = (u64, u64)> + '_ {
        debug_assert!(count * width <= 64 * self.tiles);
        let span = self.span(k);
        let (tz, to) = (&self.z[span.clone()], &self.o[span]);
        // The lane's string not yet read, left-aligned: the top `left` bits
        // of tile `t`'s row.
        let (mut t, mut left) = (0, 64);
        let (mut z, mut o) = (tz[0][j], to[0][j]);
        (0..count).map(move |_| {
            let (mut kz, mut ko) = (z >> (64 - width), o >> (64 - width));
            if width <= left {
                (z, o, left) = (z << width, o << width, left - width);
            } else {
                // The string's last `rest` bits open the next tile's row.
                let rest = width - left;
                t += 1;
                (z, o) = (tz[t][j], to[t][j]);
                kz |= z >> (64 - rest);
                ko |= o >> (64 - rest);
                (z, o, left) = (z << rest, o << rest, 64 - rest);
            }
            (kz, ko)
        })
    }
}
