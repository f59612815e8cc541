//! Comparator sorting networks, and their instantiation into complete
//! gate-level metastability-containing sorting circuits (the paper's
//! Table 8).
//!
//! A comparator network is an oblivious sequence of compare-exchange
//! elements. Plugging a `2-sort(B)` circuit into each comparator of an
//! n-channel network yields a combinational circuit sorting n valid strings
//! of width B — metastability included.
//!
//! Modules:
//!
//! * [`comparator`] — the [`Network`] type, layering
//!   and depth.
//! * [`verify`] — 0-1-principle verification with counterexamples.
//! * [`generators`] — Batcher odd-even mergesort (any n), bitonic (with
//!   standardization of reversed comparators), insertion/bubble networks.
//! * [`optimal`] — best-known networks for n ≤ 10, including the paper's
//!   `10-sort#` (29 comparators, size-optimal) and `10-sortd`
//!   (31 comparators, depth 7; found by a simulated-annealing search since
//!   retired from this repository, pinned here and 0-1-verified).
//! * [`circuit`] — network × 2-sort flavour → gate-level netlist.
//! * [`reference`](mod@reference) — software reference semantics for MC sorting networks.
//!
//! # Example
//!
//! ```
//! use mcs_networks::optimal::best_size;
//! use mcs_networks::circuit::{build_sorting_circuit, TwoSortFlavor};
//! use mcs_networks::verify::zero_one_verify;
//!
//! let net = best_size(4).unwrap(); // 5 comparators, depth 3
//! assert!(zero_one_verify(&net).is_ok());
//!
//! // Table 8, first cell: 4-sort of 2-bit inputs = 5 × 13 = 65 gates.
//! let circuit = build_sorting_circuit(&net, 2, TwoSortFlavor::default());
//! assert_eq!(circuit.gate_count(), 65);
//! ```

pub mod circuit;
pub mod comparator;
pub mod generators;
pub mod io;
pub mod optimal;
pub mod reference;
pub mod verify;

pub use circuit::{build_sorting_circuit, TwoSortFlavor};
pub use comparator::{Comparator, Network};
pub use verify::zero_one_verify;
