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
//! * **Fused selection cores.** Both operator blocks of the paper, `⋄̂_M`
//!   and `out_M`, are two copies of the Figure 3 selection circuit, each
//!   fed by one of the block's inverters: the 5-gate shape
//!   `or2(and2(b, or2(a, s1)), and2(a, inv(t)))` makes up 390 of the 407
//!   gates of a 16-bit 2-sort. Compilation finds it structurally — any
//!   operand order, one shared `a`, every inner node read once and not an
//!   output — and schedules it as one [`TapeOp::Sel`] slot over the
//!   fan-ins `[a, b, s1, t]`; the inverter is a plane swap inside the
//!   formula. The four inner nodes get no slot and no register. Every
//!   other cell stays a single-gate slot: the 16×16 sorter dispatches
//!   5,985 ops for its 25,641 gates ([`EvalTape::op_count`]).
//! * **Scheduled slots.** Every source, cell and fused root gets a dense
//!   *slot*, its position in the schedule: sources (inputs, constants)
//!   first, then ops ordered by `(logic level, kind, netlist index)`.
//! * **Liveness-allocated registers.** Values live in *registers* of a
//!   struct-of-arrays pair of plane buffers (`can_zero[reg]`,
//!   `can_one[reg]`). A linear scan over the schedule gives each op a
//!   destination register `d[s]` and names its fan-ins' registers in
//!   `a[s]`, `b[s]`, `c[s]` and, for a fused slot, `e[s]`. A register is
//!   freed after its value's last read, so the scratch holds the peak
//!   number of live values ([`EvalTape::register_count`]), not one word
//!   group per node: 652 registers for the 25,897 nodes of the 16×16
//!   sorter. Constants and outputs are never freed, and neither is an
//!   input nobody reads — its register is reloaded every group, so it must
//!   not go to a constant.
//! * **Contiguous runs.** Ops of the same kind on the same level occupy
//!   consecutive slots, recorded as a [`TapeRun`] `{op, start, len}` — the
//!   inner loop dispatches once per run, not once per op, and walks the
//!   register index arrays linearly.
//! * **Wide planes.** Evaluation is monomorphised over the register width
//!   `W ∈ {1, 4, 8}` ([`PlaneWidth`]), so one pass over the tape advances
//!   64, 256 or 512 lanes: one *group*.
//! * **Two compile tiers.** The per-run inner loop applies the shared
//!   `u64` gate formulas of [`mcs_logic::plane::kernel`] and is compiled
//!   twice: for the build's baseline features ([`KernelId::Scalar`]) and
//!   under `#[target_feature(enable = "avx2")]` ([`KernelId::Avx2`]). Each
//!   [`TapeScratch`] carries the tier it was built for:
//!   [`EvalTape::try_scratch`] takes one and refuses a tier this CPU cannot
//!   run with a typed error.
//!
//! There is one scratch constructor and one evaluation entry point,
//! [`EvalTape::try_planes`]: it binds a scratch to the tape after checking
//! the scratch's layout, and the returned [`TapePlanes`] lets the caller
//! write each input port's `W` words straight into its register, run one
//! group, and read the output registers in place.
//! [`EvalTape::try_eval_block_with`] is a thin [`TritBlock`] wrapper over
//! it. Misuse comes back as a typed [`TapeEvalError`].
//!
//! The tape computes exactly the function of [`Netlist::eval_block`] — the
//! per-cell plane formulas are the same as [`Gate::eval_word`], lifted to
//! `W` words, and the fused formula is their composition — and the
//! `tape_differential` + `kernel_conformance` suites pin lane-for-lane
//! equality at every plane width under every tier.
//! [`EvalTape::check_registers`] replays the register allocation
//! symbolically against the netlist, fused slots included.
//!
//! # Example
//!
//! ```
//! use mcs_logic::plane::kernel;
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
//! let mut scratch = tape.try_scratch(PlaneWidth::X4, kernel::preferred()).unwrap();
//!
//! // Blocks in, blocks out.
//! let inputs = [
//!     TritBlock::splat(Trit::Meta, 100),
//!     TritBlock::splat(Trit::Zero, 100),
//! ];
//! let out = tape.try_eval_block_with(&inputs, &mut scratch).unwrap();
//! assert_eq!(out, n.eval_block(&inputs)); // M NAND 0 = 1, all 100 lanes
//!
//! // Plane words in place: one group of 4 × 64 lanes, a = M, b = 0.
//! let mut planes = tape.try_planes(&mut scratch).unwrap();
//! planes.input_mut(0).0.fill(!0);
//! planes.input_mut(0).1.fill(!0);
//! planes.input_mut(1).0.fill(!0);
//! planes.input_mut(1).1.fill(0);
//! planes.run();
//! assert_eq!(planes.output(0), (&[0u64; 4][..], &[!0u64; 4][..])); // stable 1
//! ```

use std::fmt;

use mcs_logic::plane::kernel::{self, ops, KernelId, UnknownKernel};
use mcs_logic::{PlaneWidth, TritBlock, TritWord};

use crate::gate::{Gate, NodeId};
use crate::netlist::Netlist;

/// Number of lanes per scratch word (64).
use mcs_logic::word::LANES;

/// A rejected [`EvalTape`] evaluation: the inputs or the scratch do not fit
/// the tape. Returned by [`EvalTape::try_planes`] and
/// [`EvalTape::try_eval_block_with`] so streaming callers (the throughput
/// engine's workers, the serving layer's per-connection loops) can surface
/// misuse as a typed error instead of a panic mid-stream.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum TapeEvalError {
    /// The scratch was created by [`EvalTape::try_scratch`] of a tape with
    /// a different register layout.
    ScratchMismatch {
        /// Layout fingerprint the scratch was built for.
        scratch_layout: u64,
        /// Layout fingerprint of this tape.
        tape_layout: u64,
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
                scratch_layout,
                tape_layout,
            } => write!(
                f,
                "scratch was built for a different tape (layout \
                 {scratch_layout:#018x}, tape has {tape_layout:#018x})"
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

/// The operation of a [`TapeRun`]: one cell, or a fused selection core
/// ([`TapeOp::Sel`]). Sources (inputs and constants) never appear in runs
/// — they are loaded or prefilled before the tape executes.
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
    /// The paper's selection core with its inverter, fused into one op:
    /// `b·(a + s1) + a·¬t` over the fan-ins `[a, b, s1, t]`, computing the
    /// root `Or2` of `or2(and2(b, or2(a, s1)), and2(a, inv(t)))`.
    Sel,
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

/// The fan-ins `[a, b, s1, t]` and the inner nodes `[x, q, y, n]` of a
/// selection core rooted at `root`, if it is one the tape may fuse:
///
/// ```text
/// root = or2(x, y),  x = and2(b, q),  q = or2(a, s1),  y = and2(a, n),  n = inv(t)
/// ```
///
/// Operand order is free on every commutative gate, the `a` both inner
/// gates read must be the same node, and `q` must not be `or2(a, a)`. Each
/// inner node must be read once — by its parent in the shape — and not be
/// an output (`fanout` counts outputs), so fusing leaves no reader without
/// its value. That also makes the four inner nodes distinct from each
/// other and from the fan-ins.
fn selection_core(
    gates: &[Gate],
    fanout: &[u32],
    root: usize,
) -> Option<([NodeId; 4], [NodeId; 4])> {
    let inner = |v: NodeId| fanout[v.index()] == 1;
    let Gate::Or2(l, r) = gates[root] else {
        return None;
    };
    for (x, y) in [(l, r), (r, l)] {
        let (Gate::And2(x0, x1), Gate::And2(y0, y1)) = (gates[x.index()], gates[y.index()])
        else {
            continue;
        };
        if !inner(x) || !inner(y) {
            continue;
        }
        for (a, n) in [(y0, y1), (y1, y0)] {
            let Gate::Inv(t) = gates[n.index()] else {
                continue;
            };
            if !inner(n) {
                continue;
            }
            for (b, q) in [(x0, x1), (x1, x0)] {
                let Gate::Or2(q0, q1) = gates[q.index()] else {
                    continue;
                };
                let s1 = match (q0 == a, q1 == a) {
                    (true, false) => q1,
                    (false, true) => q0,
                    _ => continue,
                };
                if inner(q) {
                    return Some(([a, b, s1, t], [x, q, y, n]));
                }
            }
        }
    }
    None
}

/// The inner nodes `[x, q, y, n]` through which `root` computes
/// `b·(a + s1) + a·¬t` from `[a, b, s1, t]`, if the netlist wires it so:
/// the structural half of [`EvalTape::check_registers`]' proof for a fused
/// slot, independent of the matcher that chose it.
fn core_through(
    gates: &[Gate],
    root: usize,
    [a, b, s1, t]: [NodeId; 4],
) -> Option<[NodeId; 4]> {
    // The operand of a 2-input cell beside `v`.
    let beside = |(p, q): (NodeId, NodeId), v: NodeId| match (p == v, q == v) {
        (true, _) => Some(q),
        (_, true) => Some(p),
        _ => None,
    };
    let Gate::Or2(l, r) = gates[root] else {
        return None;
    };
    [(l, r), (r, l)].into_iter().find_map(|(x, y)| {
        let (Gate::And2(x0, x1), Gate::And2(y0, y1)) = (gates[x.index()], gates[y.index()])
        else {
            return None;
        };
        let q = beside((x0, x1), b)?;
        let Gate::Or2(q0, q1) = gates[q.index()] else {
            return None;
        };
        let n = beside((y0, y1), a)?;
        let wired = beside((q0, q1), a)? == s1 && gates[n.index()] == Gate::Inv(t);
        wired.then_some([x, q, y, n])
    })
}

/// The fan-ins a scheduled node reads on the tape: the four of a fused
/// selection, else the gate's own. Returns them with their count.
fn tape_fanin(gate: &Gate, fused: Option<[NodeId; 4]>) -> ([NodeId; 4], usize) {
    if let Some(f) = fused {
        return (f, 4);
    }
    let mut f = [NodeId(0); 4];
    let mut len = 0;
    for (k, v) in gate.fanin().enumerate() {
        f[k] = v;
        len = k + 1;
    }
    (f, len)
}

/// A maximal range of consecutive slots holding ops of one kind on one
/// logic level: the dispatch unit of the compiled tape.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct TapeRun {
    /// The operation shared by every slot in the run.
    pub op: TapeOp,
    /// Logic level of every op in the run (a fused core's root level).
    pub level: u32,
    /// First slot of the run.
    pub start: u32,
    /// Number of consecutive slots.
    pub len: u32,
}

/// Reusable per-worker plane buffers for [`EvalTape`] evaluation.
///
/// Holds `register_count × width.words()` `u64`s per plane. Constant
/// registers are prefilled once at construction and never overwritten —
/// the allocator never frees them — so one scratch can be reused across
/// any number of groups, which is exactly what the throughput engine's
/// streaming workers and the server's batch workers do.
///
/// The scratch records the layout fingerprint of the tape that built it
/// (register count, input and constant registers, output registers), and
/// [`EvalTape::try_planes`] refuses it for any tape with another layout.
/// It also pins the [`KernelId`] compile tier evaluation runs under. The
/// AVX2 tier can only enter a scratch after [`kernel::require`] confirmed
/// the CPU supports it, which is what makes calling the AVX2-compiled loop
/// sound.
#[derive(Clone, Debug)]
pub struct TapeScratch {
    width: PlaneWidth,
    kernel: KernelId,
    layout: u64,
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
    levels: u32,
    /// Registers one scratch holds per plane word group.
    registers: usize,
    /// Fingerprint of everything a scratch depends on (see
    /// [`TapeScratch`]).
    layout: u64,
    /// Register of input port `p`, loaded by the caller every group.
    inputs: Vec<u32>,
    /// `(register, value)`: constant registers, prefilled into every
    /// scratch.
    const_loads: Vec<(u32, bool)>,
    runs: Vec<TapeRun>,
    /// Netlist node scheduled in each slot: a source, a cell, or the root
    /// of a fused selection core.
    nodes: Vec<u32>,
    /// Inner nodes folded into fused slots: evaluated, but given no slot
    /// and no register of their own.
    absorbed: usize,
    /// Destination register per slot (a source's own register), and the
    /// fan-in registers (unused entries, and those of a source, stay 0).
    d: Vec<u32>,
    a: Vec<u32>,
    b: Vec<u32>,
    c: Vec<u32>,
    e: Vec<u32>,
    /// Output registers in declaration order.
    outputs: Vec<u32>,
}

impl EvalTape {
    /// Compiles a netlist into a tape.
    ///
    /// Infallible: the [`Netlist`] builder only constructs well-formed,
    /// topologically-ordered netlists. First every selection core the
    /// netlist holds is fused into one [`TapeOp::Sel`] slot, claiming roots
    /// from the last node down, so a root absorbed into a later match is
    /// never fused itself. The scheduled nodes are then stably re-ordered
    /// by `(level, op, original index)` — sources keep their relative order
    /// at the front — which evaluates every fan-in before its consumer and
    /// makes same-kind slots on one level contiguous. Registers are then
    /// allocated by one linear scan over that order: a slot's fan-ins are
    /// released at their last read before its destination is taken, so a
    /// slot may overwrite its own operand (every fan-in word is loaded
    /// before the result is stored).
    pub fn compile(netlist: &Netlist) -> EvalTape {
        let gates = netlist.gates();
        let levels = netlist.levels();
        let fanout = netlist.fanouts();
        let mut fused: Vec<Option<[NodeId; 4]>> = vec![None; gates.len()];
        let mut absorbed = vec![false; gates.len()];
        for root in (0..gates.len()).rev() {
            if absorbed[root] {
                continue;
            }
            if let Some((fanin, inner)) = selection_core(gates, &fanout, root) {
                fused[root] = Some(fanin);
                for v in inner {
                    absorbed[v.index()] = true;
                }
            }
        }
        let op_of = |i: usize| match fused[i] {
            Some(_) => Some(TapeOp::Sel),
            None => TapeOp::from_gate(&gates[i]),
        };

        // Sort the keys themselves: the node index makes each unique.
        let mut keys: Vec<(u32, u8, u32)> = (0..gates.len())
            .filter(|&i| !absorbed[i])
            .map(|i| {
                let rank = op_of(i).map_or(0, |op| op as u8 + 1);
                (levels[i], rank, i as u32)
            })
            .collect();
        keys.sort_unstable();
        let order: Vec<u32> = keys.into_iter().map(|(_, _, i)| i).collect();

        // Reads left per node, counted over the fan-ins the tape reads (an
        // absorbed node is read by nobody). A register is freed at its
        // value's last read, so a source nobody reads keeps its register:
        // an input's is reloaded every group and must never go to a
        // constant. A pinned node (a constant, prefilled once per scratch,
        // or an output, read after the run) keeps its register for good.
        let mut reads = vec![0u32; gates.len()];
        for &i in &order {
            let (fanin, len) = tape_fanin(&gates[i as usize], fused[i as usize]);
            for f in &fanin[..len] {
                reads[f.index()] += 1;
            }
        }
        let mut pinned: Vec<bool> = gates.iter().map(|g| matches!(g, Gate::Const(_))).collect();
        for (_, n) in netlist.outputs() {
            pinned[n.index()] = true;
        }
        let mut reg_of = vec![0u32; gates.len()];
        let mut free: Vec<u32> = Vec::with_capacity(gates.len());
        let mut registers = 0u32;
        let mut take = |free: &mut Vec<u32>| {
            free.pop().unwrap_or_else(|| {
                registers += 1;
                registers - 1
            })
        };

        let slots = order.len();
        let mut tape = EvalTape {
            levels: levels.iter().copied().max().unwrap_or(0),
            registers: 0,
            layout: 0,
            inputs: vec![0u32; netlist.input_count()],
            const_loads: Vec::new(),
            runs: Vec::new(),
            nodes: Vec::new(),
            absorbed: gates.len() - slots,
            d: vec![0u32; slots],
            a: vec![0u32; slots],
            b: vec![0u32; slots],
            c: vec![0u32; slots],
            e: vec![0u32; slots],
            outputs: Vec::with_capacity(netlist.output_count()),
        };
        for (s, &i) in order.iter().enumerate() {
            let (s32, i) = (s as u32, i as usize);
            let op = match gates[i] {
                Gate::Input(port) => {
                    reg_of[i] = take(&mut free);
                    tape.d[s] = reg_of[i];
                    tape.inputs[port as usize] = reg_of[i];
                    continue;
                }
                Gate::Const(v) => {
                    reg_of[i] = take(&mut free);
                    tape.d[s] = reg_of[i];
                    tape.const_loads.push((reg_of[i], v));
                    continue;
                }
                _ => op_of(i).expect("cell"),
            };
            let (fanin, len) = tape_fanin(&gates[i], fused[i]);
            let mut regs = [0u32; 4];
            for (k, f) in fanin[..len].iter().enumerate() {
                let f = f.index();
                regs[k] = reg_of[f];
                reads[f] -= 1;
                if reads[f] == 0 && !pinned[f] {
                    free.push(reg_of[f]);
                }
            }
            [tape.a[s], tape.b[s], tape.c[s], tape.e[s]] = regs;
            reg_of[i] = take(&mut free);
            tape.d[s] = reg_of[i];
            if reads[i] == 0 && !pinned[i] {
                // A dead cell: its value is written and never read.
                free.push(reg_of[i]);
            }
            match tape.runs.last_mut() {
                Some(r) if r.op == op && r.level == levels[i] && r.start + r.len == s32 => {
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
        tape.outputs
            .extend(netlist.outputs().map(|(_, n)| reg_of[n.index()]));
        tape.nodes = order;
        tape.registers = registers as usize;
        tape.layout = tape.layout_fingerprint();
        tape
    }

    /// FNV-1a over the register count, the input, constant and output
    /// registers: two tapes with equal fingerprints can share a scratch.
    fn layout_fingerprint(&self) -> u64 {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut mix = |x: u64| h = (h ^ x).wrapping_mul(FNV_PRIME);
        mix(self.registers as u64);
        mix(self.inputs.len() as u64);
        self.inputs.iter().for_each(|&r| mix(u64::from(r)));
        mix(self.const_loads.len() as u64);
        for &(r, v) in &self.const_loads {
            mix(u64::from(r) << 1 | u64::from(v));
        }
        mix(self.outputs.len() as u64);
        self.outputs.iter().for_each(|&r| mix(u64::from(r)));
        h
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// The netlist nodes the tape evaluates, fused or not: the scheduled
    /// slots (sources, cells and fused roots) plus the inner nodes folded
    /// into fused slots. Always the netlist's node count.
    pub fn slot_count(&self) -> usize {
        self.nodes.len() + self.absorbed
    }

    /// Number of dispatched ops per group: one per cell slot, a fused
    /// selection counting once.
    pub fn op_count(&self) -> usize {
        self.nodes.len() - self.inputs.len() - self.const_loads.len()
    }

    /// Registers per scratch: the peak number of values live at once,
    /// plus the constant and output registers that are never freed.
    pub fn register_count(&self) -> usize {
        self.registers
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
    /// constant registers prefilled, running under the `kernel` tier.
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
        let kernel = kernel::require(kernel)?;
        let w = width.words();
        let n = self.registers * w;
        // Everything starts as stable 0 so unwritten registers stay
        // well-encoded.
        let mut scratch = TapeScratch {
            width,
            kernel,
            layout: self.layout,
            z: kernel::PlaneBuf::filled(n, !0),
            o: kernel::PlaneBuf::filled(n, 0),
        };
        for &(reg, value) in &self.const_loads {
            let at = reg as usize * w..(reg as usize + 1) * w;
            scratch.z[at.clone()].fill(if value { 0 } else { !0 });
            scratch.o[at].fill(if value { !0 } else { 0 });
        }
        Ok(scratch)
    }

    /// Binds `scratch` to this tape: the plane-level evaluation entry
    /// point. See [`TapePlanes`] for the load / run / read protocol.
    ///
    /// # Errors
    ///
    /// [`TapeEvalError::ScratchMismatch`] if the scratch was built for a
    /// tape with another register layout.
    pub fn try_planes<'a>(
        &'a self,
        scratch: &'a mut TapeScratch,
    ) -> Result<TapePlanes<'a>, TapeEvalError> {
        let words = self.registers * scratch.width.words();
        if scratch.layout != self.layout || scratch.z.len() != words || scratch.o.len() != words {
            return Err(TapeEvalError::ScratchMismatch {
                scratch_layout: scratch.layout,
                tape_layout: self.layout,
            });
        }
        Ok(TapePlanes {
            tape: self,
            scratch,
        })
    }

    /// Evaluates `TritBlock`s through [`EvalTape::try_planes`], computing
    /// exactly [`Netlist::eval_block`] lane for lane at any plane width. A
    /// scratch from a different tape, a wrong input count, or disagreeing
    /// lane counts come back as a typed [`TapeEvalError`].
    ///
    /// # Errors
    ///
    /// See [`TapeEvalError`].
    pub fn try_eval_block_with(
        &self,
        inputs: &[TritBlock],
        scratch: &mut TapeScratch,
    ) -> Result<Vec<TritBlock>, TapeEvalError> {
        let mut planes = self.try_planes(scratch)?;
        if inputs.len() != self.input_count() {
            return Err(TapeEvalError::InputCount {
                got: inputs.len(),
                want: self.input_count(),
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
        let (nwords, w) = (lanes.div_ceil(LANES), planes.words());
        let mut out: Vec<TritBlock> = (0..self.output_count())
            .map(|_| TritBlock::zeros(lanes))
            .collect();
        for k0 in (0..nwords).step_by(w) {
            for (port, block) in inputs.iter().enumerate() {
                // copy_planes pads words past the block with stable 0.
                let (z, o) = planes.input_mut(port);
                block.copy_planes(k0, z, o);
            }
            planes.run();
            for (p, block) in out.iter_mut().enumerate() {
                let (z, o) = planes.output(p);
                for (j, k) in (k0..nwords.min(k0 + w)).enumerate() {
                    // set_word re-masks the tail word, so constants (which
                    // fill all 64 lanes of their register) and pad lanes
                    // end up stable 0 past the logical lane count.
                    block.set_word(k, TritWord::from_planes(z[j], o[j]));
                }
            }
        }
        Ok(out)
    }

    /// Replays the register allocation symbolically against `netlist`, the
    /// netlist this tape was compiled from, over two consecutive groups:
    ///
    /// * every register index is `< register_count()`;
    /// * the slots are netlist nodes, sources first, and the runs tile the
    ///   cell slots with each cell's own operation — a fused slot's node is
    ///   an `Or2`;
    /// * every register a single-gate slot reads holds the node the netlist
    ///   names as that fan-in, so no live value is overwritten before its
    ///   last read — including by the next group's input loads;
    /// * the four registers a fused slot reads hold nodes `[a, b, s1, t]`
    ///   from which the netlist computes its root as
    ///   `or2(and2(b, or2(a, s1)), and2(a, inv(t)))`;
    /// * the scheduled nodes and the inner nodes of the fused slots cover
    ///   the netlist exactly once;
    /// * every constant register still holds its constant after each
    ///   group, and every output register holds its output node.
    ///
    /// # Errors
    ///
    /// The first violation, described.
    pub fn check_registers(&self, netlist: &Netlist) -> Result<(), String> {
        let gates = netlist.gates();
        let regs = self.registers;
        let slots = self.nodes.len();
        if slots + self.absorbed != gates.len()
            || self.inputs.len() != netlist.input_count()
            || self.outputs.len() != netlist.output_count()
        {
            return Err("slot or port counts differ from the netlist".into());
        }
        let in_range = |what: &str, r: u32| {
            if (r as usize) < regs {
                Ok(())
            } else {
                Err(format!("{what} register {r} is not below {regs}"))
            }
        };
        let mut seen = vec![false; gates.len()];
        let mut cover = |i: usize, what: &str| {
            if std::mem::replace(&mut seen[i], true) {
                Err(format!("node {i} is covered twice ({what})"))
            } else {
                Ok(())
            }
        };
        for (s, &i) in self.nodes.iter().enumerate() {
            cover(i as usize, &format!("slot {s}"))?;
        }
        // Sources first, each loaded into the register it names.
        let sources = self.inputs.len() + self.const_loads.len();
        for s in 0..sources {
            let r = self.d[s];
            in_range(&format!("source slot {s}"), r)?;
            let loaded = match gates[self.nodes[s] as usize] {
                Gate::Input(port) => self.inputs[port as usize] == r,
                Gate::Const(v) => self.const_loads.contains(&(r, v)),
                _ => false,
            };
            if !loaded {
                return Err(format!("slot {s} is not a source loaded into register {r}"));
            }
        }
        for &r in &self.outputs {
            in_range("output", r)?;
        }
        // The runs tile the cell slots, each with its own cells' operation.
        let mut next = sources;
        let mut op = vec![TapeOp::Inv; slots];
        for run in &self.runs {
            if run.start as usize != next {
                return Err(format!("run at slot {} leaves a gap at {next}", run.start));
            }
            next += run.len as usize;
            for s in run.start as usize..next {
                for (what, r) in [
                    ("d", self.d[s]),
                    ("a", self.a[s]),
                    ("b", self.b[s]),
                    ("c", self.c[s]),
                    ("e", self.e[s]),
                ] {
                    in_range(&format!("slot {s} {what}"), r)?;
                }
                let gate = &gates[self.nodes[s] as usize];
                let fits = match run.op {
                    TapeOp::Sel => matches!(gate, Gate::Or2(..)),
                    single => TapeOp::from_gate(gate) == Some(single),
                };
                if !fits {
                    return Err(format!("slot {s} is not a {:?} cell", run.op));
                }
                op[s] = run.op;
            }
        }
        if next != slots {
            return Err(format!("runs end at slot {next}, tape has {slots}"));
        }

        // holder[r]: the netlist node register r holds, if any. Constants
        // are prefilled once per scratch, inputs loaded every group.
        let mut holder: Vec<Option<u32>> = vec![None; regs];
        let consts: Vec<usize> = (0..sources)
            .filter(|&s| matches!(gates[self.nodes[s] as usize], Gate::Const(_)))
            .collect();
        for &s in &consts {
            holder[self.d[s] as usize] = Some(self.nodes[s]);
        }
        for group in 0..2 {
            for (port, &r) in self.inputs.iter().enumerate() {
                holder[r as usize] = Some(netlist.input_node(port).index() as u32);
            }
            for s in sources..slots {
                let node = self.nodes[s];
                let fanin = [self.a[s], self.b[s], self.c[s], self.e[s]];
                if op[s] == TapeOp::Sel {
                    let held = fanin.map(|r| holder[r as usize]);
                    let inner = match held {
                        [Some(a), Some(b), Some(s1), Some(t)] => {
                            core_through(gates, node as usize, [a, b, s1, t].map(NodeId))
                        }
                        _ => None,
                    };
                    let Some(inner) = inner else {
                        return Err(format!(
                            "group {group}: fused slot {s} (node {node}) reads \
                             registers {fanin:?} holding {held:?}, which are not \
                             the pins of its selection core"
                        ));
                    };
                    if group == 0 {
                        for v in inner {
                            cover(v.index(), &format!("fused into slot {s}"))?;
                        }
                    }
                } else {
                    for (k, f) in gates[node as usize].fanin().enumerate() {
                        let got = holder[fanin[k] as usize];
                        if got != Some(f.index() as u32) {
                            return Err(format!(
                                "group {group}: slot {s} (node {node}) reads fan-in {k} \
                                 from register {} holding {got:?}, want node {}",
                                fanin[k],
                                f.index()
                            ));
                        }
                    }
                }
                holder[self.d[s] as usize] = Some(node);
            }
            for &s in &consts {
                let r = self.d[s] as usize;
                if holder[r] != Some(self.nodes[s]) {
                    return Err(format!(
                        "group {group}: constant node {} in register {r} was \
                         overwritten by {:?}",
                        self.nodes[s], holder[r]
                    ));
                }
            }
            for (p, ((_, n), &r)) in netlist.outputs().zip(&self.outputs).enumerate() {
                if holder[r as usize] != Some(n.index() as u32) {
                    return Err(format!(
                        "group {group}: output {p} register {r} holds {:?}, want \
                         node {}",
                        holder[r as usize],
                        n.index()
                    ));
                }
            }
        }
        if let Some(i) = seen.iter().position(|&c| !c) {
            return Err(format!("node {i} is neither scheduled nor fused"));
        }
        Ok(())
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
    /// sweep applying its formula — a gate's, or the fused selection
    /// core's — to each slot (see [`kernel::apply_slot`]).
    #[inline(always)]
    fn run_tape_v<const W: usize>(&self, z: &mut [u64], o: &mut [u64]) {
        assert_eq!(z.len(), self.registers * W);
        assert_eq!(o.len(), self.registers * W);
        for run in &self.runs {
            let start = run.start as usize;
            let end = start + run.len as usize;
            macro_rules! sweep {
                ($gate:ty) => {
                    for s in start..end {
                        // SAFETY: compile() gives every register index
                        // (`d`, `a`, `b`, `c`, `e`, unused fan-ins
                        // included) a value below register_count(), and
                        // the asserts above pin both buffers at
                        // register_count() × W words. `s` stays below
                        // `end <= nodes.len() == d.len() == a.len() ==
                        // b.len() == c.len() == e.len()` (compile() sizes
                        // all five to one entry per scheduled slot), so the
                        // unchecked index loads are in bounds; skipping the
                        // per-slot bounds checks is worth several percent
                        // on this loop.
                        unsafe {
                            kernel::apply_slot::<$gate, W>(
                                z,
                                o,
                                *self.d.get_unchecked(s) as usize,
                                *self.a.get_unchecked(s) as usize,
                                *self.b.get_unchecked(s) as usize,
                                *self.c.get_unchecked(s) as usize,
                                *self.e.get_unchecked(s) as usize,
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
                TapeOp::Sel => sweep!(ops::Sel),
            }
        }
    }
}

/// A scratch bound to its tape by [`EvalTape::try_planes`]: plane-level
/// I/O for one group of `words()` plane words (`64 · words()` lanes) at a
/// time, reusable for any number of groups.
///
/// The protocol per group:
///
/// 1. write all `words()` words of **every** input port's register with
///    [`TapePlanes::input_mut`] — lanes past the caller's data as stable
///    `0` (`can_zero` set, `can_one` clear), so every register stays
///    well-encoded;
/// 2. [`TapePlanes::run`];
/// 3. read the output registers in place with [`TapePlanes::output`].
///
/// An input register may be reused by a cell once the input is read for
/// the last time, so read the outputs before writing the next group's
/// inputs. Output words past the caller's lanes hold whatever the circuit
/// computes from stable `0` (constants fill all 64 lanes): mask them.
#[derive(Debug)]
pub struct TapePlanes<'a> {
    tape: &'a EvalTape,
    scratch: &'a mut TapeScratch,
}

impl TapePlanes<'_> {
    /// Plane words per register: one group is `64 · words()` lanes.
    pub fn words(&self) -> usize {
        self.scratch.width.words()
    }

    /// Number of input ports.
    pub fn input_count(&self) -> usize {
        self.tape.input_count()
    }

    /// Number of output ports.
    pub fn output_count(&self) -> usize {
        self.tape.output_count()
    }

    /// The `(can_zero, can_one)` plane words of input port `port`'s
    /// register, `words()` each, for the caller to overwrite.
    ///
    /// # Panics
    ///
    /// Panics if `port ≥ input_count()`.
    #[inline]
    pub fn input_mut(&mut self, port: usize) -> (&mut [u64], &mut [u64]) {
        let w = self.words();
        let at = self.tape.inputs[port] as usize * w;
        (
            &mut self.scratch.z[at..at + w],
            &mut self.scratch.o[at..at + w],
        )
    }

    /// Evaluates one group: every run of the tape, under the scratch's
    /// kernel tier and width.
    pub fn run(&mut self) {
        let TapeScratch {
            width,
            kernel,
            z,
            o,
            ..
        } = &mut *self.scratch;
        match width {
            PlaneWidth::X1 => self.tape.run_tape::<1>(*kernel, z, o),
            PlaneWidth::X4 => self.tape.run_tape::<4>(*kernel, z, o),
            PlaneWidth::X8 => self.tape.run_tape::<8>(*kernel, z, o),
        }
    }

    /// The `(can_zero, can_one)` plane words of output port `port`'s
    /// register after [`TapePlanes::run`], `words()` each.
    ///
    /// # Panics
    ///
    /// Panics if `port ≥ output_count()`.
    #[inline]
    pub fn output(&self, port: usize) -> (&[u64], &[u64]) {
        let w = self.words();
        let at = self.tape.outputs[port] as usize * w;
        (&self.scratch.z[at..at + w], &self.scratch.o[at..at + w])
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

    /// Evaluates through a fresh scratch at `width` under the preferred tier.
    fn eval_at(tape: &EvalTape, inputs: &[TritBlock], width: PlaneWidth) -> Vec<TritBlock> {
        let mut scratch = tape.try_scratch(width, kernel::preferred()).unwrap();
        tape.try_eval_block_with(inputs, &mut scratch).unwrap()
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
                let got = eval_at(&tape, &inputs, width);
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
            tape.inputs.len() + tape.const_loads.len()
        );
        // Runs are contiguous and level-ordered.
        let mut next = first_cell;
        let mut last_level = 0;
        for run in tape.runs() {
            assert_eq!(run.start, next, "runs must tile the cell slots");
            assert!(run.level >= last_level, "levels must not decrease");
            last_level = run.level;
            next = run.start + run.len;
        }
        assert_eq!(next as usize, tape.slot_count());
        // Every register index is in range and every read finds its value.
        tape.check_registers(&n).unwrap();
        assert!(tape.register_count() < tape.slot_count());
    }

    /// A netlist whose register allocation has every hazard: a dead input
    /// declared before a constant, constants between inputs, a dead cell,
    /// `and2(a, a)`, and outputs wired to an input and a constant.
    fn hazard_netlist() -> Netlist {
        let mut n = Netlist::new("hazards");
        let dead = n.input("dead");
        let one = n.constant(true);
        let a = n.input("a");
        let zero = n.constant(false);
        let b = n.input("b");
        let aa = n.and2(a, a);
        let _unused = n.or2(aa, b);
        let g = n.xor2(aa, one);
        let h = n.mux2(g, zero, b);
        let f = n.nand2(h, one);
        n.set_output("f", f);
        n.set_output("b", b);
        n.set_output("zero", zero);
        let _ = dead;
        n
    }

    #[test]
    fn registers_are_reused_and_never_clobber_live_values() {
        let n = hazard_netlist();
        let tape = EvalTape::compile(&n);
        tape.check_registers(&n).unwrap();
        assert!(
            tape.register_count() < tape.slot_count(),
            "no register was reused"
        );
        for lanes in [1usize, 64, 65, 600] {
            let inputs = ternary_inputs(n.input_count(), lanes);
            for width in PlaneWidth::ALL {
                // Two passes through one scratch: the second group of a
                // reused scratch sees what the first left behind.
                let mut scratch = tape.try_scratch(width, kernel::preferred()).unwrap();
                for _ in 0..2 {
                    let got = tape.try_eval_block_with(&inputs, &mut scratch).unwrap();
                    assert_eq!(got, n.eval_block(&inputs), "{lanes} lanes at {width}");
                }
            }
        }
    }

    #[test]
    fn a_dead_input_keeps_its_register_from_later_constants() {
        // The clobber this pins: were the dead input's register free from
        // the start, the constant would take it, and every group's input
        // load would overwrite the constant.
        let mut n = Netlist::new("dead-input");
        let dead = n.input("dead");
        let one = n.constant(true);
        let a = n.input("a");
        let f = n.and2(a, one);
        n.set_output("f", f);
        let tape = EvalTape::compile(&n);
        tape.check_registers(&n).unwrap();
        let (dead_reg, const_reg) = (tape.inputs[0], tape.const_loads[0].0);
        assert_ne!(dead_reg, const_reg);
        let _ = dead;
        let mut scratch = tape
            .try_scratch(PlaneWidth::X1, kernel::preferred())
            .unwrap();
        let inputs = [
            TritBlock::splat(Trit::Zero, 64),
            TritBlock::splat(Trit::One, 64),
        ];
        for _ in 0..2 {
            let out = tape.try_eval_block_with(&inputs, &mut scratch).unwrap();
            assert_eq!(out[0], TritBlock::splat(Trit::One, 64));
        }

        // The validator catches exactly that clobber when it is forced:
        // move the constant into the dead input's register.
        let mut bad = tape.clone();
        bad.const_loads[0].0 = dead_reg;
        for r in [&mut bad.d, &mut bad.a, &mut bad.b, &mut bad.c, &mut bad.e]
            .into_iter()
            .flat_map(|v| v.iter_mut())
            .filter(|r| **r == const_reg)
        {
            *r = dead_reg;
        }
        let err = bad.check_registers(&n).unwrap_err();
        assert!(err.contains("holding"), "{err}");
    }

    #[test]
    fn the_validator_rejects_broken_schedules() {
        let n = hazard_netlist();
        let tape = EvalTape::compile(&n);
        let last = tape.slot_count() - 1;

        // A register past the scratch.
        let mut bad = tape.clone();
        bad.a[last] = bad.register_count() as u32;
        assert!(bad.check_registers(&n).unwrap_err().contains("not below"));

        // A cell writing over a value that is still to be read: cell `s`
        // takes the register cell `t > s` reads its first fan-in from,
        // while that fan-in was written before `s`.
        let gates = n.gates();
        let first = tape.runs()[0].start as usize;
        let slot_of = |node: usize| tape.nodes.iter().position(|&i| i as usize == node);
        let (s, t) = (first..tape.slot_count())
            .flat_map(|t| (first..t).map(move |s| (s, t)))
            .find(|&(s, t)| {
                let f = gates[tape.nodes[t] as usize]
                    .fanin()
                    .next()
                    .unwrap()
                    .index();
                slot_of(f).unwrap() < s && tape.d[s] != tape.a[t]
            })
            .expect("the hazard netlist has a long-lived fan-in");
        let mut bad = tape.clone();
        bad.d[s] = bad.a[t];
        assert!(bad.check_registers(&n).unwrap_err().contains("holding"));

        // An output register that does not hold the output.
        let mut bad = tape.clone();
        bad.outputs[0] = bad.inputs[0];
        assert!(bad.check_registers(&n).unwrap_err().contains("output 0"));

        // The wrong netlist.
        assert!(tape.check_registers(&full_cell_netlist()).is_err());
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
        let mut scratch = tape.try_scratch(PlaneWidth::X4, kernel::preferred()).unwrap();
        let first = ternary_inputs(3, 130);
        let second: Vec<TritBlock> = (0..3)
            .map(|_| TritBlock::splat(Trit::Meta, 130))
            .collect();
        let want_first = n.eval_block(&first);
        // Interleave domains: results must not depend on scratch history.
        let mut eval = |inputs| tape.try_eval_block_with(inputs, &mut scratch).unwrap();
        assert_eq!(eval(&first), want_first);
        assert_eq!(eval(&second), n.eval_block(&second));
        assert_eq!(eval(&first), want_first);
    }

    #[test]
    fn constant_only_netlist_evaluates_to_zero_lanes() {
        let mut n = Netlist::new("const");
        let one = n.constant(true);
        let f = n.inv(one);
        n.set_output("f", f);
        let tape = EvalTape::compile(&n);
        let out = eval_at(&tape, &[], PlaneWidth::X1);
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
        let mut wrong = EvalTape::compile(&small)
            .try_scratch(PlaneWidth::X1, kernel::preferred())
            .unwrap();
        let err = tape
            .try_eval_block_with(&ternary_inputs(3, 4), &mut wrong)
            .unwrap_err();
        assert!(matches!(err, TapeEvalError::ScratchMismatch { .. }));
        assert!(err.to_string().contains("different tape"));
        assert!(matches!(
            tape.try_planes(&mut wrong),
            Err(TapeEvalError::ScratchMismatch { .. })
        ));

        // Wrong input count.
        let mut scratch = tape.try_scratch(PlaneWidth::X4, kernel::preferred()).unwrap();
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
    fn scratch_from_another_tape_is_rejected() {
        let n = full_cell_netlist();
        let mut small = Netlist::new("small");
        let a = small.input("a");
        small.set_output("a", a);
        for k in kernel::kernels() {
            let mut scratch = EvalTape::compile(&small).try_scratch(PlaneWidth::X1, k).unwrap();
            let err = EvalTape::compile(&n)
                .try_eval_block_with(&ternary_inputs(3, 1), &mut scratch)
                .unwrap_err();
            assert!(err.to_string().contains("different tape"), "{k}: {err}");
        }
    }

    #[test]
    fn scratch_of_an_equal_register_count_but_other_layout_is_rejected() {
        // Both tapes hold two registers: `and2(a, b)` reuses b's register
        // for its output, `inv(a)` with b unread reuses a's.
        let mut and = Netlist::new("and");
        let (a, b) = (and.input("a"), and.input("b"));
        let f = and.and2(a, b);
        and.set_output("f", f);
        let mut inv = Netlist::new("inv");
        let (a, _b) = (inv.input("a"), inv.input("b"));
        let f = inv.inv(a);
        inv.set_output("f", f);
        let (t_and, t_inv) = (EvalTape::compile(&and), EvalTape::compile(&inv));
        assert_eq!(t_and.register_count(), t_inv.register_count());
        assert_ne!(t_and.outputs, t_inv.outputs);
        let mut scratch = t_inv
            .try_scratch(PlaneWidth::X4, kernel::preferred())
            .unwrap();
        let err = t_and
            .try_eval_block_with(&ternary_inputs(2, 10), &mut scratch)
            .unwrap_err();
        assert_eq!(
            err,
            TapeEvalError::ScratchMismatch {
                scratch_layout: t_inv.layout,
                tape_layout: t_and.layout,
            }
        );
        // A tape with the same layout is a compatible tape: `or2` in place
        // of `and2` shares every register, so the scratch is accepted.
        let mut or = Netlist::new("or");
        let (a, b) = (or.input("a"), or.input("b"));
        let f = or.or2(a, b);
        or.set_output("f", f);
        let t_or = EvalTape::compile(&or);
        let mut scratch = t_and
            .try_scratch(PlaneWidth::X1, kernel::preferred())
            .unwrap();
        let inputs = ternary_inputs(2, 9);
        assert_eq!(
            t_or.try_eval_block_with(&inputs, &mut scratch).unwrap(),
            or.eval_block(&inputs)
        );
    }

    /// Pins of a selection core, and what to do to it before the root.
    #[derive(Clone, Copy, PartialEq)]
    enum Core {
        /// The paper's shape, operands in the order `selection` wires them.
        Plain,
        /// Every commutative gate's operands swapped.
        Swapped,
        /// `q = or2(a, s1)` also read by a second gate.
        InnerReadTwice,
        /// The inverter is also an output.
        InnerIsOutput,
        /// `or2(a, s1)` and `and2(a2, inv(t))` read different `a`s.
        UnsharedA,
        /// `q = or2(a, a)`.
        OrOfA,
        /// The root is `or2(x, x)`.
        RootOfOneAnd,
    }

    /// `f = or2(and2(b, or2(a, s1)), and2(a, inv(t)))` over five inputs,
    /// with the variation `core` names, and every node evaluated.
    fn core_netlist(core: Core) -> Netlist {
        let mut n = Netlist::new("core");
        let [a, b, s1, t, a2] = ["a", "b", "s1", "t", "a2"].map(|p| n.input(p));
        let q = if core == Core::OrOfA {
            n.or2(a, a)
        } else if core == Core::Swapped {
            n.or2(s1, a)
        } else {
            n.or2(a, s1)
        };
        let x = if core == Core::Swapped { n.and2(q, b) } else { n.and2(b, q) };
        let nt = n.inv(t);
        let y = match core {
            Core::Swapped => n.and2(nt, a),
            Core::UnsharedA => n.and2(a2, nt),
            _ => n.and2(a, nt),
        };
        let f = match core {
            Core::Swapped => n.or2(y, x),
            Core::RootOfOneAnd => n.or2(x, x),
            _ => n.or2(x, y),
        };
        n.set_output("f", f);
        if core == Core::InnerReadTwice {
            let g = n.xor2(q, b);
            n.set_output("g", g);
        }
        if core == Core::InnerIsOutput {
            n.set_output("nt", nt);
        }
        n
    }

    fn fused_ops(tape: &EvalTape) -> u32 {
        tape.runs().iter().filter(|r| r.op == TapeOp::Sel).map(|r| r.len).sum()
    }

    #[test]
    fn the_selection_core_fuses_in_either_operand_order() {
        for core in [Core::Plain, Core::Swapped] {
            let n = core_netlist(core);
            let tape = EvalTape::compile(&n);
            assert_eq!(fused_ops(&tape), 1);
            assert_eq!(tape.op_count(), 1);
            assert_eq!(tape.slot_count(), n.node_count());
            tape.check_registers(&n).unwrap();
            let inputs = ternary_inputs(n.input_count(), 3usize.pow(5));
            for width in PlaneWidth::ALL {
                assert_eq!(eval_at(&tape, &inputs, width), n.eval_block(&inputs));
            }
        }
    }

    #[test]
    fn near_misses_of_the_selection_core_do_not_fuse() {
        for core in [
            Core::InnerReadTwice,
            Core::InnerIsOutput,
            Core::UnsharedA,
            Core::OrOfA,
            Core::RootOfOneAnd,
        ] {
            let n = core_netlist(core);
            let tape = EvalTape::compile(&n);
            assert_eq!(fused_ops(&tape), 0);
            assert_eq!(tape.op_count(), n.gate_count());
            tape.check_registers(&n).unwrap();
            let inputs = ternary_inputs(n.input_count(), 3usize.pow(5));
            assert_eq!(eval_at(&tape, &inputs, PlaneWidth::X1), n.eval_block(&inputs));
        }
    }

    #[test]
    fn chained_cores_both_fuse() {
        // One core's root is a pin of the next, as in the paper's prefix
        // network: both fuse, and the second reads the first's register.
        let mut n = Netlist::new("chained");
        let [a, b, s1, t, b2, t2] = ["a", "b", "s1", "t", "b2", "t2"].map(|p| n.input(p));
        let core = |n: &mut Netlist, a, b, s1, t| {
            let q = n.or2(a, s1);
            let x = n.and2(b, q);
            let nt = n.inv(t);
            let y = n.and2(a, nt);
            n.or2(x, y)
        };
        let inner = core(&mut n, a, b, s1, t);
        let outer = core(&mut n, a, b2, inner, t2);
        n.set_output("f", outer);
        let tape = EvalTape::compile(&n);
        assert_eq!(fused_ops(&tape), 2);
        assert_eq!(tape.op_count(), 2);
        tape.check_registers(&n).unwrap();
        let inputs = ternary_inputs(n.input_count(), 3usize.pow(6));
        assert_eq!(eval_at(&tape, &inputs, PlaneWidth::X4), n.eval_block(&inputs));
    }

    #[test]
    fn the_validator_proves_fused_slots() {
        let n = core_netlist(Core::Plain);
        let tape = EvalTape::compile(&n);
        let s = tape.runs()[0].start as usize;
        assert_eq!(tape.runs()[0].op, TapeOp::Sel);

        // Pins in the wrong roles: `a` and `s1` swapped.
        let mut bad = tape.clone();
        std::mem::swap(&mut bad.a[s], &mut bad.c[s]);
        assert!(bad.check_registers(&n).unwrap_err().contains("pins"));

        // An unfused netlist of the same shape: the root's fan-ins are
        // read by another gate, so they must have registers.
        let twice = core_netlist(Core::InnerReadTwice);
        assert!(tape.check_registers(&twice).is_err());

        // A claimed inner node left out of the count.
        let mut bad = tape.clone();
        bad.absorbed -= 1;
        assert!(bad.check_registers(&n).unwrap_err().contains("counts"));
    }

    #[test]
    fn plane_io_matches_the_block_wrapper() {
        let n = full_cell_netlist();
        let tape = EvalTape::compile(&n);
        let lanes = 300;
        let inputs = ternary_inputs(n.input_count(), lanes);
        let want = n.eval_block(&inputs);
        for width in PlaneWidth::ALL {
            let mut scratch = tape.try_scratch(width, kernel::preferred()).unwrap();
            let mut planes = tape.try_planes(&mut scratch).unwrap();
            let w = planes.words();
            assert_eq!(w, width.words());
            assert_eq!((planes.input_count(), planes.output_count()), (3, 3));
            for k0 in (0..lanes.div_ceil(LANES)).step_by(w) {
                for (port, block) in inputs.iter().enumerate() {
                    let (z, o) = planes.input_mut(port);
                    block.copy_planes(k0, z, o);
                }
                planes.run();
                for (p, block) in want.iter().enumerate() {
                    let (z, o) = planes.output(p);
                    for j in 0..w {
                        let k = k0 + j;
                        if k < block.word_count() {
                            let got = TritWord::from_planes(z[j], o[j]).masked(block.word_lanes(k));
                            assert_eq!(got, block.word(k), "port {p} word {k} at {width}");
                        }
                    }
                }
            }
        }
    }
}
