//! Wide bit-plane tier: the runtime [`PlaneWidth`] selector for how many
//! [`TritWord`](crate::TritWord)-sized `(can_zero, can_one)` word pairs one
//! tape slot spans, and the [`kernel`] module holding the Kleene gate
//! formulas the compiled-tape evaluator applies to every word of a slot.

pub mod kernel;

use std::fmt;
use std::str::FromStr;

use crate::word::LANES;

/// Runtime selector for how many 64-lane words one tape slot spans.
///
/// The compiled-tape evaluator in `mcs-netlist` is monomorphised over the
/// slot width `W ∈ {1, 4}` ([`kernel::apply_slot`]); `PlaneWidth` is the
/// value-level handle benches and CLIs use to pick one. [`PlaneWidth::X4`]
/// is the production width; [`PlaneWidth::X1`] is the narrow reference
/// that tests and reference checksums compare against.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub enum PlaneWidth {
    /// One 64-lane word per slot (the classic [`TritWord`](crate::TritWord)
    /// layout).
    X1,
    /// Four interleaved words (256 lanes) per slot.
    #[default]
    X4,
}

impl PlaneWidth {
    /// Every width, narrow to wide.
    pub const ALL: [PlaneWidth; 2] = [PlaneWidth::X1, PlaneWidth::X4];

    /// Number of 64-lane words per slot (`1` or `4`).
    pub const fn words(self) -> usize {
        match self {
            PlaneWidth::X1 => 1,
            PlaneWidth::X4 => 4,
        }
    }

    /// Number of ternary lanes per slot (`64 × words()`).
    pub const fn lanes(self) -> usize {
        self.words() * LANES
    }
}

impl fmt::Display for PlaneWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x", self.words())
    }
}

/// Error from parsing a [`PlaneWidth`].
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct ParsePlaneWidthError(String);

impl fmt::Display for ParsePlaneWidthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid plane width {:?} (expected 1 or 4)", self.0)
    }
}

impl std::error::Error for ParsePlaneWidthError {}

impl FromStr for PlaneWidth {
    type Err = ParsePlaneWidthError;

    /// Accepts `"1"`, `"4"` and the display forms `"1x"`, `"4x"`.
    fn from_str(s: &str) -> Result<PlaneWidth, ParsePlaneWidthError> {
        match s.trim_end_matches('x') {
            "1" => Ok(PlaneWidth::X1),
            "4" => Ok(PlaneWidth::X4),
            _ => Err(ParsePlaneWidthError(s.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::kernel::{apply_slot, ops, GateOp};
    use super::*;
    use crate::TritWord;

    fn word_pattern(seed: u64) -> TritWord {
        // A deterministic well-encoded word: meta where both bits set.
        let z = seed | 0x9E37_79B9_7F4A_7C15u64.rotate_left((seed % 64) as u32);
        let o = !seed | seed.rotate_right(13);
        TritWord::from_planes(z | !(z | o), o)
    }

    /// Slot 2 of a `W`-wide plane buffer after applying `G` to slots 0, 1.
    fn apply_wide<G: GateOp, const W: usize>(a: &[TritWord], b: &[TritWord]) -> Vec<TritWord> {
        let mut z = vec![!0u64; 3 * W];
        let mut o = vec![0u64; 3 * W];
        for j in 0..W {
            (z[j], o[j]) = (a[j].can_zero_plane(), a[j].can_one_plane());
            (z[W + j], o[W + j]) = (b[j].can_zero_plane(), b[j].can_one_plane());
        }
        // SAFETY: slots 0..3 all lie within the 3-slot buffers.
        unsafe { apply_slot::<G, W>(&mut z, &mut o, 2, 0, 1, 0, 0) };
        (0..W)
            .map(|j| TritWord::from_planes(z[2 * W + j], o[2 * W + j]))
            .collect()
    }

    #[test]
    fn wide_ops_match_tritword_ops_per_word() {
        fn check<const W: usize>() {
            let aw: Vec<TritWord> = (0..W as u64).map(word_pattern).collect();
            let bw: Vec<TritWord> = (0..W as u64).map(|j| word_pattern(j + 77)).collect();
            let and = apply_wide::<ops::And2, W>(&aw, &bw);
            let or = apply_wide::<ops::Or2, W>(&aw, &bw);
            let not = apply_wide::<ops::Inv, W>(&aw, &bw);
            for j in 0..W {
                assert_eq!(and[j], aw[j] & bw[j], "AND word {j} of {W}");
                assert_eq!(or[j], aw[j] | bw[j], "OR word {j} of {W}");
                assert_eq!(not[j], !aw[j], "NOT word {j} of {W}");
            }
        }
        check::<1>();
        check::<4>();
    }

    #[test]
    fn plane_width_words_lanes_and_parse() {
        assert_eq!(PlaneWidth::X1.words(), 1);
        assert_eq!(PlaneWidth::X4.lanes(), 256);
        for w in PlaneWidth::ALL {
            assert_eq!(w.to_string().parse::<PlaneWidth>(), Ok(w));
            assert_eq!(w.words().to_string().parse::<PlaneWidth>(), Ok(w));
        }
        for refused in ["2", "8", "8x"] {
            assert_eq!(
                refused.parse::<PlaneWidth>(),
                Err(ParsePlaneWidthError(refused.to_string()))
            );
        }
        assert!("".parse::<PlaneWidth>().is_err());
    }
}
