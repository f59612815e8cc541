//! Gate-level netlists with ternary, metastability-aware simulation.
//!
//! This crate is the "EDA substrate" of the reproduction: the paper's design
//! flow (VHDL entry, ModelSim simulation, Cadence synthesis and place &
//! route onto the NanGate 45 nm open cell library) is replaced by a
//! self-contained gate-level model:
//!
//! * [`Netlist`] — a combinational circuit over the cell set of
//!   [`CellKind`]; built through a type-safe builder API, stored in
//!   topological order.
//! * [`eval`](Netlist::eval) / [`eval_batch`](Netlist::eval_batch) /
//!   [`eval_block`](Netlist::eval_block) — functional simulation over
//!   [`Trit`]s at three tiers (see *Simulation tiers* below).
//! * [`tech`] — a technology library with per-cell area and a linear delay
//!   model, including a NanGate-45nm-like library calibrated against the
//!   paper's post-layout figures.
//! * [`timing`] / [`area`] — static timing analysis (critical path) and
//!   area reports.
//! * [`mc`] — metastability-containment checks: cell certification and
//!   exhaustive verification that a circuit computes the metastable closure
//!   of its boolean function.
//! * [`export`] — Graphviz DOT and structural Verilog writers, plus a
//!   Verilog importer closing the loop back to a [`Netlist`].
//! * [`serdes`] — the versioned, diffable text netlist artifact format
//!   with byte-identical save/load round-trip.
//! * [`passes`] — ternary-exact optimization passes (constant folding,
//!   CSE, dead sweep, depth rebalancing) behind a [`Pass`]/[`PassManager`]
//!   framework with per-pass before/after figures.
//!
//! # Simulation tiers
//!
//! All functional simulation runs through one word-parallel core with three
//! entry points:
//!
//! 1. [`eval`](Netlist::eval) — one vector of [`Trit`]s. A convenience
//!    wrapper that packs the vector into single-lane words; use it for
//!    debugging and one-off queries, never in an inner loop.
//! 2. [`eval_batch`](Netlist::eval_batch) — up to 64 vectors packed into one
//!    [`TritWord`] per input: every gate simulates 64 test vectors with a
//!    handful of `u64` operations.
//! 3. [`eval_block`](Netlist::eval_block) — arbitrarily many vectors in one
//!    [`TritBlock`] per input, evaluated word by word with a reused
//!    node-value buffer; [`eval_batch_iter`](Netlist::eval_batch_iter)
//!    streams unbounded domains through it in chunks.
//!
//! The exhaustive pipelines (`mc` closure checks, `hazard` sweeps, the
//! 2-sort and sorting-network verifiers) all run on tier 3. A >64-lane
//! sweep in one call:
//!
//! ```
//! use mcs_logic::{Trit, TritBlock};
//! use mcs_netlist::Netlist;
//!
//! let mut n = Netlist::new("nand");
//! let a = n.input("a");
//! let b = n.input("b");
//! let f = n.nand2(a, b);
//! n.set_output("f", f);
//!
//! // 3^2 = 9 combinations, repeated to fill 90 lanes across two words.
//! let lanes_a: Vec<Trit> = (0..90).map(|i| Trit::ALL[i % 3]).collect();
//! let lanes_b: Vec<Trit> = (0..90).map(|i| Trit::ALL[(i / 3) % 3]).collect();
//! let out = n.eval_block(&[
//!     TritBlock::from_lanes(&lanes_a),
//!     TritBlock::from_lanes(&lanes_b),
//! ]);
//! assert_eq!(out[0].lanes(), 90);
//! for i in 0..90 {
//!     assert_eq!(out[0].lane(i), !(lanes_a[i] & lanes_b[i]));
//! }
//! ```
//!
//! # Metastability semantics of cells
//!
//! The paper's computational model (its Table 3) assigns AND, OR and
//! inverter cells the *metastable closure* of their boolean function —
//! Kleene's strong ternary logic — and argues the NanGate standard cells
//! actually behave this way. NAND/NOR are closures likewise. For the richer
//! cells used only by the non-containing binary baseline (XOR/XNOR/MUX2 and
//! the AOI/OAI gates), no such analysis exists, so this crate simulates them
//! **pessimistically**: any metastable input makes the output metastable.
//! That pessimism is what makes `Bin-comp` visibly non-containing in our
//! experiments, matching the paper's narrative.
//!
//! # Example
//!
//! ```
//! use mcs_logic::Trit;
//! use mcs_netlist::Netlist;
//!
//! // f = (a AND b) OR c, with containment semantics.
//! let mut n = Netlist::new("demo");
//! let a = n.input("a");
//! let b = n.input("b");
//! let c = n.input("c");
//! let ab = n.and2(a, b);
//! let f = n.or2(ab, c);
//! n.set_output("f", f);
//!
//! // A metastable a is masked by b = 0, c = 1 drives the OR: clean 1 out.
//! let out = n.eval(&[Trit::Meta, Trit::Zero, Trit::One]);
//! assert_eq!(out, vec![Trit::One]);
//! ```

pub mod area;
pub mod event_sim;
pub mod export;
pub mod gate;
pub mod hazard;
pub mod mc;
pub mod netlist;
pub mod passes;
pub mod serdes;
pub mod synth;
pub mod tape;
pub mod tech;
pub mod timing;

pub use area::AreaReport;
pub use gate::{CellKind, Gate, NodeId};
pub use mcs_logic::{Trit, TritBlock, TritWord};
pub use netlist::Netlist;
pub use passes::{
    NetlistFigures, OptimizeResult, Pass, PassManager, PassStats,
};
pub use tape::{EvalTape, TapeEvalError, TapeOp, TapePlanes, TapeRun, TapeScratch};
pub use tech::{CellSpec, CellTiming, TechLibrary};
pub use timing::TimingReport;
