//! Ternary (Kleene) logic substrate for metastability-containing circuits.
//!
//! This crate models the worst-case digital abstraction of metastability used
//! by Bund, Lenzen & Medina, *Optimal Metastability-Containing Sorting
//! Networks* (DATE 2018): a signal is either a clean `0`, a clean `1`, or
//! metastable `M` — an arbitrary, possibly time-varying voltage between the
//! rails.
//!
//! The crate provides five layers:
//!
//! * [`Trit`] — a single ternary value with the gate semantics of the paper's
//!   Table 3 (Kleene strong three-valued logic for AND/OR/NOT).
//! * [`TritVec`] — a ternary bit string such as `01M0`, with parsing,
//!   formatting and the `∗` superposition operator (Definition 2.1).
//! * [`TritWord`] — 64 independent ternary lanes packed into two `u64`
//!   bit-planes, for fast batched circuit simulation.
//! * [`TritBlock`] — `N × 64` lanes backed by a vector of words, so
//!   arbitrary-size input domains batch through the same bit-plane tricks.
//! * [`closure`] — the *metastable closure* `f_M(x) = ∗ f(res(x))`
//!   (Definition 2.7): evaluate a boolean function on every resolution of the
//!   input and superpose the results.
//!
//! # Simulation tiers
//!
//! Gate-level evaluation (in `mcs-netlist`) comes in two tiers built on
//! these types, trading convenience against throughput:
//!
//! | tier | carrier | lanes | intended use |
//! |------|---------------|-------|-------------------------------------|
//! | `eval` | [`Trit`] | 1 | scalar reference, one-off queries |
//! | `eval_block` | [`TritBlock`] of [`TritWord`]s | any | exhaustive sweeps, verification |
//!
//! A >64-lane sweep stays word-parallel end to end:
//!
//! ```
//! use mcs_logic::{Trit, TritBlock};
//!
//! // 200 lanes of A, 200 lanes of B: one Kleene op per backing word.
//! let a = TritBlock::splat(Trit::Meta, 200);
//! let b: TritBlock = (0..200)
//!     .map(|i| if i % 2 == 0 { Trit::Zero } else { Trit::One })
//!     .collect();
//! let and = &a & &b;
//! assert_eq!(and.word_count(), 4); // 200 lanes in 4 words
//! assert_eq!(and.lane(0), Trit::Zero); // M AND 0 = 0
//! assert_eq!(and.lane(199), Trit::Meta); // M AND 1 = M
//! ```
//!
//! # Example
//!
//! ```
//! use mcs_logic::{Trit, TritVec};
//!
//! // Table 3: an AND gate with one stable 0 input masks metastability.
//! assert_eq!(Trit::Zero & Trit::Meta, Trit::Zero);
//! assert_eq!(Trit::One & Trit::Meta, Trit::Meta);
//!
//! // The superposition of the Gray codewords for 3 and 4 is 0M10.
//! let a: TritVec = "0010".parse().unwrap();
//! let b: TritVec = "0110".parse().unwrap();
//! assert_eq!(a.superpose(&b).to_string(), "0M10");
//! ```

pub mod block;
pub mod closure;
pub mod plane;
pub mod resolution;
pub mod table;
pub mod trit;
pub mod vec;
pub mod word;

pub use block::TritBlock;
pub use closure::{closure_fn, closure_fn_multi};
pub use plane::kernel::{KernelId, UnknownKernel};
pub use plane::{ParsePlaneWidthError, PlaneWidth};
pub use resolution::{superpose_slices, Resolutions};
pub use table::{Implicant, TruthTable};
pub use trit::{ParseTritError, Trit};
pub use vec::TritVec;
pub use word::{integer_bit_plane, transpose_fields, TritWord};
