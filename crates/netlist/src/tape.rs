//! [`EvalTape`]: a [`Netlist`] compiled into a flat, topologically-scheduled
//! evaluation tape for sustained-throughput simulation.
//!
//! [`Netlist::eval_block`] walks the gate vector and re-dispatches on the
//! [`Gate`] enum (with its embedded `NodeId`s) for every gate of every
//! 64-lane word. That is fine for verification sweeps, but the throughput
//! engine streams millions of vectors through one fixed circuit, where the
//! per-gate branch and pointer-chasing dominate. `EvalTape` pays the
//! dispatch cost once, at compile time:
//!
//! * **Slot-renumbered values.** Every node gets a dense *slot* in a
//!   struct-of-arrays pair of plane buffers (`can_zero[slot]`,
//!   `can_one[slot]`), with sources (inputs, constants) first and cells
//!   ordered by logic level. Every fan-in slot is strictly below its
//!   consumer's slot.
//! * **Contiguous runs.** Cells of the same kind on the same level occupy
//!   consecutive slots, recorded as a [`TapeRun`] `{op, start, len}` — the
//!   inner loop dispatches once per run, not once per gate, and walks the
//!   fan-in index arrays (`a`, `b`, `c`) linearly.
//! * **Wide planes.** Evaluation is monomorphised over the slot width
//!   `W ∈ {1, 4, 8}` ([`PlaneWidth`]), so one pass over the tape advances
//!   64, 256 or 512 lanes.
//! * **Two compile tiers.** The per-run inner loop applies the shared
//!   `u64` gate formulas of [`mcs_logic::plane::kernel`] and is compiled
//!   twice: for the build's baseline features ([`KernelId::Scalar`]) and
//!   under `#[target_feature(enable = "avx2")]` ([`KernelId::Avx2`]). Each
//!   [`TapeScratch`] carries the tier it was built for —
//!   [`EvalTape::scratch`] picks the best one the CPU supports,
//!   [`EvalTape::try_scratch`] forces a specific one (refusing an
//!   unavailable tier with a typed error).
//!
//! The tape computes exactly the function of [`Netlist::eval_block`] — the
//! per-cell plane formulas are the same as [`Gate::eval_word`], lifted to
//! `W` words — and the `tape_differential` + `kernel_conformance` suites
//! pin lane-for-lane equality at every plane width under every tier.
//!
//! # Example
//!
//! ```
//! use mcs_logic::{PlaneWidth, Trit, TritBlock};
//! use mcs_netlist::{EvalTape, Netlist};
//!
//! let mut n = Netlist::new("nand");
//! let a = n.input("a");
//! let b = n.input("b");
//! let f = n.nand2(a, b);
//! n.set_output("f", f);
//!
//! let tape = EvalTape::compile(&n);
//! let inputs = [
//!     TritBlock::splat(Trit::Meta, 100),
//!     TritBlock::splat(Trit::Zero, 100),
//! ];
//! let out = tape.eval_block_wide(&inputs, PlaneWidth::X4);
//! assert_eq!(out, n.eval_block(&inputs)); // M NAND 0 = 1, all 100 lanes
//! ```

use std::fmt;

use mcs_logic::plane::kernel::{self, ops, KernelId, UnknownKernel};
use mcs_logic::{PlaneWidth, TritBlock, TritWord};

use crate::gate::Gate;
use crate::netlist::Netlist;

/// Number of lanes per scratch word (64).
use mcs_logic::word::LANES;

/// A rejected [`EvalTape`] evaluation: the inputs or the scratch do not fit
/// the tape. Returned by [`EvalTape::try_eval_block_with`] so streaming
/// callers (the throughput engine's workers, the serving layer's
/// per-connection loops) can surface misuse as a typed error instead of a
/// panic mid-stream.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum TapeEvalError {
    /// The scratch was created by [`EvalTape::scratch`] of a different tape.
    ScratchMismatch {
        /// Slot count the scratch was sized for.
        scratch_slots: usize,
        /// Slot count of this tape.
        tape_slots: usize,
    },
    /// The number of input blocks differs from the tape's input count.
    InputCount {
        /// Input blocks supplied.
        got: usize,
        /// Primary inputs of the compiled netlist.
        want: usize,
    },
    /// The input blocks do not all share one lane count.
    LaneMismatch {
        /// Index of the first block with a different lane count.
        port: usize,
        /// Its lane count.
        got: usize,
        /// Lane count of block 0.
        want: usize,
    },
}

impl fmt::Display for TapeEvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TapeEvalError::ScratchMismatch {
                scratch_slots,
                tape_slots,
            } => write!(
                f,
                "scratch was sized for a different tape ({scratch_slots} \
                 slots, tape has {tape_slots})"
            ),
            TapeEvalError::InputCount { got, want } => write!(
                f,
                "wrong number of input blocks: got {got}, tape has {want} \
                 primary inputs"
            ),
            TapeEvalError::LaneMismatch { port, got, want } => write!(
                f,
                "input blocks must share a lane count: block {port} has \
                 {got} lanes, block 0 has {want}"
            ),
        }
    }
}

impl std::error::Error for TapeEvalError {}

/// The cell operation of a [`TapeRun`]. Sources (inputs and constants) never
/// appear in runs — they are loaded or prefilled before the tape executes.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
#[repr(u8)]
pub enum TapeOp {
    /// Inverter.
    Inv,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input XOR (pessimistic).
    Xor2,
    /// 2-input XNOR (pessimistic).
    Xnor2,
    /// 2:1 mux (pessimistic in the select).
    Mux2,
    /// AND with inverted second input (pessimistic).
    AndNot2,
    /// AND-OR `a + (b·c)` (pessimistic).
    Ao21,
}

impl TapeOp {
    fn from_gate(g: &Gate) -> Option<TapeOp> {
        Some(match g {
            Gate::Input(_) | Gate::Const(_) => return None,
            Gate::Inv(_) => TapeOp::Inv,
            Gate::And2(..) => TapeOp::And2,
            Gate::Or2(..) => TapeOp::Or2,
            Gate::Nand2(..) => TapeOp::Nand2,
            Gate::Nor2(..) => TapeOp::Nor2,
            Gate::Xor2(..) => TapeOp::Xor2,
            Gate::Xnor2(..) => TapeOp::Xnor2,
            Gate::Mux2 { .. } => TapeOp::Mux2,
            Gate::AndNot2(..) => TapeOp::AndNot2,
            Gate::Ao21 { .. } => TapeOp::Ao21,
        })
    }
}

/// A maximal range of consecutive slots holding cells of one kind on one
/// logic level: the dispatch unit of the compiled tape.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct TapeRun {
    /// The cell operation shared by every slot in the run.
    pub op: TapeOp,
    /// Logic level of every cell in the run.
    pub level: u32,
    /// First slot of the run.
    pub start: u32,
    /// Number of consecutive slots.
    pub len: u32,
}

/// Reusable per-worker plane buffers for [`EvalTape`] evaluation.
///
/// Holds `slot_count × width.words()` `u64`s per plane. Constant slots are
/// prefilled once at construction and never overwritten, so one scratch can
/// be reused across any number of [`EvalTape::eval_block_with`] calls —
/// which is exactly what the throughput engine's streaming workers do.
///
/// The scratch also pins the [`KernelId`] compile tier evaluation runs
/// under. The AVX2 tier can only enter a scratch after [`kernel::require`]
/// confirmed the CPU supports it, which is what makes calling the
/// AVX2-compiled loop sound.
#[derive(Clone, Debug)]
pub struct TapeScratch {
    width: PlaneWidth,
    kernel: KernelId,
    slots: usize,
    z: kernel::PlaneBuf,
    o: kernel::PlaneBuf,
}

impl TapeScratch {
    /// The plane width the scratch was sized for.
    pub fn width(&self) -> PlaneWidth {
        self.width
    }

    /// The kernel tier evaluation with this scratch runs under.
    pub fn kernel(&self) -> KernelId {
        self.kernel
    }
}

/// A [`Netlist`] compiled for streaming evaluation. See the
/// [module docs](self) for the layout.
#[derive(Clone, Debug)]
pub struct EvalTape {
    name: String,
    input_count: usize,
    levels: u32,
    /// `(slot, port)`: input port `port` is loaded into `slot` each chunk.
    input_loads: Vec<(u32, u32)>,
    /// `(slot, value)`: constant slots, prefilled into every scratch.
    const_loads: Vec<(u32, bool)>,
    runs: Vec<TapeRun>,
    /// Fan-in slots per output slot (unused entries for sources stay 0).
    a: Vec<u32>,
    b: Vec<u32>,
    c: Vec<u32>,
    /// Output slots in declaration order.
    outputs: Vec<u32>,
}

impl EvalTape {
    /// Compiles a netlist into a tape.
    ///
    /// Infallible: the [`Netlist`] builder only constructs well-formed,
    /// topologically-ordered netlists. Cells are stably re-ordered by
    /// `(level, op, original index)` — sources keep their relative order at
    /// the front — which guarantees every fan-in slot is strictly smaller
    /// than its consumer's slot and makes same-kind cells on one level
    /// contiguous.
    pub fn compile(netlist: &Netlist) -> EvalTape {
        let gates = netlist.gates();
        let levels = netlist.levels();
        let mut order: Vec<usize> = (0..gates.len()).collect();
        order.sort_by_key(|&i| {
            let rank = TapeOp::from_gate(&gates[i]).map_or(0, |op| op as u8 + 1);
            (levels[i], rank, i)
        });
        let mut slot_of = vec![0u32; gates.len()];
        for (s, &i) in order.iter().enumerate() {
            slot_of[i] = s as u32;
        }

        let mut tape = EvalTape {
            name: netlist.name().to_string(),
            input_count: netlist.input_count(),
            levels: levels.iter().copied().max().unwrap_or(0),
            input_loads: Vec::new(),
            const_loads: Vec::new(),
            runs: Vec::new(),
            a: vec![0u32; gates.len()],
            b: vec![0u32; gates.len()],
            c: vec![0u32; gates.len()],
            outputs: netlist
                .outputs()
                .map(|(_, n)| slot_of[n.index()])
                .collect(),
        };
        for (s, &i) in order.iter().enumerate() {
            let s32 = s as u32;
            match gates[i] {
                Gate::Input(port) => tape.input_loads.push((s32, port)),
                Gate::Const(v) => tape.const_loads.push((s32, v)),
                ref g => {
                    let op = TapeOp::from_gate(g).expect("cell");
                    let mut fanin = g.fanin().map(|n| slot_of[n.index()]);
                    tape.a[s] = fanin.next().expect("cells have fan-in");
                    tape.b[s] = fanin.next().unwrap_or(0);
                    tape.c[s] = fanin.next().unwrap_or(0);
                    match tape.runs.last_mut() {
                        Some(r)
                            if r.op == op
                                && r.level == levels[i]
                                && r.start + r.len == s32 =>
                        {
                            r.len += 1;
                        }
                        _ => tape.runs.push(TapeRun {
                            op,
                            level: levels[i],
                            start: s32,
                            len: 1,
                        }),
                    }
                }
            }
        }
        tape
    }

    /// The compiled netlist's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// Number of primary outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Total slot count (sources + cells).
    pub fn slot_count(&self) -> usize {
        self.a.len()
    }

    /// Number of dispatch runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Number of logic levels (circuit depth over all nodes).
    pub fn level_count(&self) -> u32 {
        self.levels
    }

    /// The scheduled runs, in execution order.
    pub fn runs(&self) -> &[TapeRun] {
        &self.runs
    }

    /// Allocates plane buffers for this tape at the given width, with
    /// constant slots prefilled, running under the best kernel tier
    /// available on this CPU ([`kernel::preferred`]).
    pub fn scratch(&self, width: PlaneWidth) -> TapeScratch {
        self.scratch_impl(width, kernel::preferred())
    }

    /// Like [`EvalTape::scratch`], but forcing a specific kernel tier.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownKernel::Unavailable`] when this CPU cannot run
    /// `kernel` — the typed refusal behind the `MCS_KERNEL` override.
    pub fn try_scratch(
        &self,
        width: PlaneWidth,
        kernel: KernelId,
    ) -> Result<TapeScratch, UnknownKernel> {
        Ok(self.scratch_impl(width, kernel::require(kernel)?))
    }

    fn scratch_impl(&self, width: PlaneWidth, kernel: KernelId) -> TapeScratch {
        let w = width.words();
        let n = self.slot_count() * w;
        // Everything starts as stable 0 so unwritten pad words stay
        // well-encoded.
        let mut scratch = TapeScratch {
            width,
            kernel,
            slots: self.slot_count(),
            z: kernel::PlaneBuf::filled(n, !0),
            o: kernel::PlaneBuf::filled(n, 0),
        };
        for &(slot, value) in &self.const_loads {
            let base = slot as usize * w;
            for j in 0..w {
                scratch.z[base + j] = if value { 0 } else { !0 };
                scratch.o[base + j] = if value { !0 } else { 0 };
            }
        }
        scratch
    }

    /// Evaluates the tape at plane width 1 — a drop-in replacement for
    /// [`Netlist::eval_block`].
    ///
    /// # Panics
    ///
    /// Panics if the input count is wrong or the lane counts disagree.
    pub fn eval_block(&self, inputs: &[TritBlock]) -> Vec<TritBlock> {
        self.eval_block_wide(inputs, PlaneWidth::X1)
    }

    /// Evaluates the tape at the given plane width, allocating fresh
    /// scratch. The result is lane-for-lane independent of the width.
    ///
    /// # Panics
    ///
    /// Panics if the input count is wrong or the lane counts disagree.
    pub fn eval_block_wide(
        &self,
        inputs: &[TritBlock],
        width: PlaneWidth,
    ) -> Vec<TritBlock> {
        let mut scratch = self.scratch(width);
        self.eval_block_with(inputs, &mut scratch)
    }

    /// Evaluates the tape reusing caller-owned scratch — the zero-allocation
    /// (besides outputs) streaming entry point.
    ///
    /// # Panics
    ///
    /// Panics if the scratch was not created by this tape's
    /// [`EvalTape::scratch`], the input count is wrong, or the lane counts
    /// disagree.
    pub fn eval_block_with(
        &self,
        inputs: &[TritBlock],
        scratch: &mut TapeScratch,
    ) -> Vec<TritBlock> {
        self.try_eval_block_with(inputs, scratch)
            .unwrap_or_else(|e| panic!("{}: {e}", self.name))
    }

    /// The never-panicking twin of [`EvalTape::eval_block_with`]: a scratch
    /// from a different tape, a wrong input count, or disagreeing lane
    /// counts come back as a typed [`TapeEvalError`] instead of a panic.
    /// This is the entry point for long-running streaming callers (e.g. a
    /// serving loop) that must not die on a malformed batch.
    ///
    /// # Errors
    ///
    /// See [`TapeEvalError`].
    pub fn try_eval_block_with(
        &self,
        inputs: &[TritBlock],
        scratch: &mut TapeScratch,
    ) -> Result<Vec<TritBlock>, TapeEvalError> {
        let lanes = self.check_call(inputs, scratch)?;
        Ok(match scratch.width {
            PlaneWidth::X1 => self.eval_generic::<1>(inputs, lanes, scratch),
            PlaneWidth::X4 => self.eval_generic::<4>(inputs, lanes, scratch),
            PlaneWidth::X8 => self.eval_generic::<8>(inputs, lanes, scratch),
        })
    }

    /// The one validation gate every eval entry point funnels through
    /// (directly or via [`EvalTape::try_eval_block_with`]), so no tier
    /// or width can grow its own divergent error surface. Returns the
    /// shared lane count.
    fn check_call(
        &self,
        inputs: &[TritBlock],
        scratch: &TapeScratch,
    ) -> Result<usize, TapeEvalError> {
        if scratch.slots != self.slot_count() {
            return Err(TapeEvalError::ScratchMismatch {
                scratch_slots: scratch.slots,
                tape_slots: self.slot_count(),
            });
        }
        if inputs.len() != self.input_count {
            return Err(TapeEvalError::InputCount {
                got: inputs.len(),
                want: self.input_count,
            });
        }
        let lanes = inputs.first().map_or(0, TritBlock::lanes);
        if let Some(port) = inputs.iter().position(|b| b.lanes() != lanes) {
            return Err(TapeEvalError::LaneMismatch {
                port,
                got: inputs[port].lanes(),
                want: lanes,
            });
        }
        Ok(lanes)
    }

    fn eval_generic<const W: usize>(
        &self,
        inputs: &[TritBlock],
        lanes: usize,
        scratch: &mut TapeScratch,
    ) -> Vec<TritBlock> {
        let nwords = lanes.div_ceil(LANES);
        let mut out: Vec<TritBlock> = (0..self.outputs.len())
            .map(|_| TritBlock::zeros(lanes))
            .collect();
        for group in 0..nwords.div_ceil(W) {
            let k0 = group * W;
            for &(slot, port) in &self.input_loads {
                let base = slot as usize * W;
                // copy_planes pads words past the block with stable 0 so
                // every slot keeps the well-encoding invariant.
                inputs[port as usize].copy_planes(
                    k0,
                    &mut scratch.z[base..base + W],
                    &mut scratch.o[base..base + W],
                );
            }
            self.run_tape::<W>(scratch.kernel, &mut scratch.z, &mut scratch.o);
            for (p, &slot) in self.outputs.iter().enumerate() {
                let base = slot as usize * W;
                for j in 0..W {
                    let k = k0 + j;
                    if k >= nwords {
                        break;
                    }
                    // set_word re-masks the tail word, so constants (which
                    // occupy all 64 lanes of their slot) and pad lanes end
                    // up stable 0 past the logical lane count.
                    out[p].set_word(
                        k,
                        TritWord::from_planes(
                            scratch.z[base + j],
                            scratch.o[base + j],
                        ),
                    );
                }
            }
        }
        out
    }

    /// Executes every run under the compile tier the scratch was built for.
    fn run_tape<const W: usize>(&self, kernel: KernelId, z: &mut [u64], o: &mut [u64]) {
        match kernel {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a scratch only carries `Avx2` after `kernel::require`
            // detected the feature on this CPU.
            KernelId::Avx2 => unsafe { self.run_tape_avx2::<W>(z, o) },
            // `Scalar`, and off x86-64 a tier that can never enter a scratch.
            _ => self.run_tape_v::<W>(z, o),
        }
    }

    /// [`EvalTape::run_tape_v`] compiled with AVX2 enabled, so the inlined
    /// word loops of [`kernel::apply_slot`] vectorise to 256-bit ops.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_tape_avx2<const W: usize>(&self, z: &mut [u64], o: &mut [u64]) {
        self.run_tape_v::<W>(z, o)
    }

    /// One pass over every run: one dispatch per run, then a branch-free
    /// sweep applying its gate formula to each slot (see
    /// [`kernel::apply_slot`]).
    #[inline(always)]
    fn run_tape_v<const W: usize>(&self, z: &mut [u64], o: &mut [u64]) {
        debug_assert_eq!(z.len(), self.slot_count() * W);
        debug_assert_eq!(o.len(), self.slot_count() * W);
        for run in &self.runs {
            let start = run.start as usize;
            let end = start + run.len as usize;
            macro_rules! sweep {
                ($gate:ty) => {
                    for s in start..end {
                        // SAFETY: compile() keeps every fan-in slot strictly
                        // below its consumer and below slot_count(), and the
                        // buffers hold slot_count() × W words. `s` stays
                        // below `end <= slot_count() == a.len() == b.len()
                        // == c.len()` (compile() sizes all three to one
                        // entry per slot), so the unchecked fan-in loads are
                        // in bounds; skipping the per-slot bounds checks is
                        // worth several percent on this loop.
                        unsafe {
                            kernel::apply_slot::<$gate, W>(
                                z,
                                o,
                                s,
                                *self.a.get_unchecked(s) as usize,
                                *self.b.get_unchecked(s) as usize,
                                *self.c.get_unchecked(s) as usize,
                            )
                        }
                    }
                };
            }
            match run.op {
                TapeOp::Inv => sweep!(ops::Inv),
                TapeOp::And2 => sweep!(ops::And2),
                TapeOp::Or2 => sweep!(ops::Or2),
                TapeOp::Nand2 => sweep!(ops::Nand2),
                TapeOp::Nor2 => sweep!(ops::Nor2),
                TapeOp::Xor2 => sweep!(ops::Xor2),
                TapeOp::Xnor2 => sweep!(ops::Xnor2),
                TapeOp::Mux2 => sweep!(ops::Mux2),
                TapeOp::AndNot2 => sweep!(ops::AndNot2),
                TapeOp::Ao21 => sweep!(ops::Ao21),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_logic::Trit;

    /// A netlist exercising every cell kind, plus constants and an output
    /// wired straight to an input.
    fn full_cell_netlist() -> Netlist {
        let mut n = Netlist::new("full");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let one = n.constant(true);
        let zero = n.constant(false);
        let i = n.inv(a);
        let g1 = n.and2(a, b);
        let g2 = n.or2(b, c);
        let g3 = n.nand2(g1, g2);
        let g4 = n.nor2(i, g2);
        let g5 = n.xor2(g3, g4);
        let g6 = n.xnor2(g5, one);
        let g7 = n.mux2(g5, g6, c);
        let g8 = n.andnot2(g7, zero);
        let g9 = n.ao21(g8, g3, g4);
        n.set_output("f", g9);
        n.set_output("raw_a", a);
        n.set_output("const1", one);
        n
    }

    fn ternary_inputs(count: usize, lanes: usize) -> Vec<TritBlock> {
        (0..count)
            .map(|i| {
                (0..lanes)
                    .map(|l| Trit::ALL[(l / 3usize.pow(i as u32)) % 3])
                    .collect()
            })
            .collect()
    }

    #[test]
    fn tape_matches_eval_block_at_every_width_and_edge_lane_count() {
        let n = full_cell_netlist();
        let tape = EvalTape::compile(&n);
        for lanes in [0usize, 1, 63, 64, 65, 1000] {
            let inputs = ternary_inputs(n.input_count(), lanes);
            let want = n.eval_block(&inputs);
            for width in PlaneWidth::ALL {
                let got = tape.eval_block_wide(&inputs, width);
                assert_eq!(got, want, "{lanes} lanes at {width}");
            }
        }
    }

    #[test]
    fn schedule_invariants_hold() {
        let n = full_cell_netlist();
        let tape = EvalTape::compile(&n);
        assert_eq!(tape.slot_count(), n.node_count());
        assert_eq!(tape.input_count(), 3);
        assert_eq!(tape.output_count(), 3);
        assert_eq!(tape.level_count(), n.levels().iter().copied().max().unwrap());
        // Sources occupy the lowest slots.
        let first_cell = tape.runs()[0].start;
        assert_eq!(
            first_cell as usize,
            tape.input_loads.len() + tape.const_loads.len()
        );
        // Runs are contiguous, level-ordered, and every fan-in slot is
        // strictly below its consumer.
        let mut next = first_cell;
        let mut last_level = 0;
        for run in tape.runs() {
            assert_eq!(run.start, next, "runs must tile the cell slots");
            assert!(run.level >= last_level, "levels must not decrease");
            last_level = run.level;
            next = run.start + run.len;
            for s in run.start..next {
                let s = s as usize;
                assert!(tape.a[s] < s as u32);
                assert!(tape.b[s] < s as u32 || tape.b[s] == 0);
                assert!(tape.c[s] < s as u32 || tape.c[s] == 0);
            }
        }
        assert_eq!(next as usize, tape.slot_count());
    }

    #[test]
    fn same_kind_cells_on_one_level_share_a_run() {
        // Four independent ANDs on level 1 → one run of length 4.
        let mut n = Netlist::new("flat");
        let ins: Vec<_> = (0..8).map(|i| n.input(format!("i{i}"))).collect();
        for p in ins.chunks(2) {
            let g = n.and2(p[0], p[1]);
            n.set_output(format!("o{}", p[0].index()), g);
        }
        let tape = EvalTape::compile(&n);
        assert_eq!(tape.run_count(), 1);
        assert_eq!(tape.runs()[0].len, 4);
        assert_eq!(tape.runs()[0].op, TapeOp::And2);
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        let n = full_cell_netlist();
        let tape = EvalTape::compile(&n);
        let mut scratch = tape.scratch(PlaneWidth::X4);
        let first = ternary_inputs(3, 130);
        let second: Vec<TritBlock> = (0..3)
            .map(|_| TritBlock::splat(Trit::Meta, 130))
            .collect();
        let want_first = n.eval_block(&first);
        // Interleave domains: results must not depend on scratch history.
        assert_eq!(tape.eval_block_with(&first, &mut scratch), want_first);
        assert_eq!(
            tape.eval_block_with(&second, &mut scratch),
            n.eval_block(&second)
        );
        assert_eq!(tape.eval_block_with(&first, &mut scratch), want_first);
    }

    #[test]
    fn constant_only_netlist_evaluates_to_zero_lanes() {
        let mut n = Netlist::new("const");
        let one = n.constant(true);
        let f = n.inv(one);
        n.set_output("f", f);
        let tape = EvalTape::compile(&n);
        let out = tape.eval_block(&[]);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_empty());
        assert_eq!(out, n.eval_block(&[]));
    }

    #[test]
    fn try_eval_returns_typed_errors_instead_of_panicking() {
        let n = full_cell_netlist();
        let tape = EvalTape::compile(&n);

        // Scratch from a different tape.
        let mut small = Netlist::new("small");
        let a = small.input("a");
        small.set_output("a", a);
        let mut wrong = EvalTape::compile(&small).scratch(PlaneWidth::X1);
        let err = tape
            .try_eval_block_with(&ternary_inputs(3, 4), &mut wrong)
            .unwrap_err();
        assert!(matches!(err, TapeEvalError::ScratchMismatch { .. }));
        assert!(err.to_string().contains("different tape"));

        // Wrong input count.
        let mut scratch = tape.scratch(PlaneWidth::X4);
        let err = tape
            .try_eval_block_with(&ternary_inputs(2, 4), &mut scratch)
            .unwrap_err();
        assert_eq!(err, TapeEvalError::InputCount { got: 2, want: 3 });

        // Disagreeing lane counts.
        let mut inputs = ternary_inputs(3, 64);
        inputs[2] = TritBlock::splat(Trit::One, 65);
        let err = tape
            .try_eval_block_with(&inputs, &mut scratch)
            .unwrap_err();
        assert_eq!(
            err,
            TapeEvalError::LaneMismatch {
                port: 2,
                got: 65,
                want: 64
            }
        );

        // And the happy path still matches eval_block.
        let inputs = ternary_inputs(3, 100);
        assert_eq!(
            tape.try_eval_block_with(&inputs, &mut scratch).unwrap(),
            n.eval_block(&inputs)
        );
    }

    #[test]
    fn every_available_kernel_matches_eval_block_at_every_width() {
        let n = full_cell_netlist();
        let tape = EvalTape::compile(&n);
        for lanes in [0usize, 1, 63, 64, 65, 1000] {
            let inputs = ternary_inputs(n.input_count(), lanes);
            let want = n.eval_block(&inputs);
            for width in PlaneWidth::ALL {
                for k in kernel::kernels() {
                    let mut scratch = tape.try_scratch(width, k).unwrap();
                    assert_eq!(scratch.kernel(), k);
                    assert_eq!(
                        tape.try_eval_block_with(&inputs, &mut scratch).unwrap(),
                        want,
                        "{lanes} lanes at {width} under {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn try_scratch_refuses_unavailable_backends_with_a_typed_error() {
        let tape = EvalTape::compile(&full_cell_netlist());
        assert_eq!(tape.scratch(PlaneWidth::X4).kernel(), kernel::preferred());
        for k in KernelId::ALL {
            match tape.try_scratch(PlaneWidth::X4, k) {
                Ok(s) => {
                    assert!(kernel::available(k));
                    assert_eq!(s.kernel(), k);
                }
                Err(e) => {
                    assert!(!kernel::available(k));
                    assert_eq!(e, UnknownKernel::Unavailable(k));
                }
            }
        }
        // try_scratch refuses through kernel::require, whose verdict is a
        // pure function of the detected feature: pin the refusal a CPU
        // without AVX2 gives, whatever this host has.
        assert_eq!(
            kernel::require_on(KernelId::Avx2, false),
            Err(UnknownKernel::Unavailable(KernelId::Avx2))
        );
    }

    #[test]
    #[should_panic(expected = "different tape")]
    fn scratch_from_another_tape_is_rejected() {
        let n = full_cell_netlist();
        let mut small = Netlist::new("small");
        let a = small.input("a");
        small.set_output("a", a);
        let mut scratch = EvalTape::compile(&small).scratch(PlaneWidth::X1);
        let _ = EvalTape::compile(&n)
            .eval_block_with(&ternary_inputs(3, 1), &mut scratch);
    }
}
