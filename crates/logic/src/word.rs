//! [`TritWord`]: 64 independent ternary lanes packed into two bit-planes,
//! for fast batched gate-level simulation.

use std::fmt;
use std::ops::{BitAnd, BitOr, Not};

use crate::trit::Trit;

/// 64 ternary values packed into two `u64` "possibility" planes.
///
/// Lane `i` encodes the set of boolean values the signal could still take:
///
/// | value | `can_zero` bit | `can_one` bit |
/// |-------|----------------|---------------|
/// | `0`   | 1              | 0             |
/// | `1`   | 0              | 1             |
/// | `M`   | 1              | 1             |
///
/// With this encoding the Kleene gate operations of Table 3 become plain
/// word-parallel boolean operations, so one `TritWord` operation simulates a
/// gate for 64 test vectors at once:
///
/// * `AND`: output can be 0 if *either* input can be 0; can be 1 only if
///   *both* can be 1.
/// * `OR`: dual.
/// * `NOT`: swap planes.
///
/// Unused lanes should be kept at `0` (`can_zero` set); the (0,0) encoding is
/// never produced by the public API.
///
/// # Example
///
/// ```
/// use mcs_logic::{Trit, TritWord};
///
/// let a = TritWord::from_lanes(&[Trit::Zero, Trit::One, Trit::Meta]);
/// let b = TritWord::splat(Trit::Meta, 3);
/// let c = a & b;
/// assert_eq!(c.lane(0), Trit::Zero); // 0 AND M = 0
/// assert_eq!(c.lane(1), Trit::Meta); // 1 AND M = M
/// assert_eq!(c.lane(2), Trit::Meta); // M AND M = M
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct TritWord {
    can_zero: u64,
    can_one: u64,
}

/// Number of lanes in a [`TritWord`].
pub const LANES: usize = 64;

impl TritWord {
    /// All 64 lanes set to stable `0`.
    pub const ZERO: TritWord = TritWord {
        can_zero: !0,
        can_one: 0,
    };

    /// All 64 lanes set to stable `1`.
    pub const ONE: TritWord = TritWord {
        can_zero: 0,
        can_one: !0,
    };

    /// All 64 lanes metastable.
    pub const META: TritWord = TritWord {
        can_zero: !0,
        can_one: !0,
    };

    /// Creates a word with every lane equal to `t`. Lanes at index
    /// `≥ used_lanes` are forced to stable `0` so they stay well-encoded.
    ///
    /// # Panics
    ///
    /// Panics if `used_lanes > 64`.
    pub fn splat(t: Trit, used_lanes: usize) -> TritWord {
        assert!(used_lanes <= LANES);
        let mask = TritWord::lane_mask(used_lanes);
        let base = match t {
            Trit::Zero => TritWord::ZERO,
            Trit::One => TritWord::ONE,
            Trit::Meta => TritWord::META,
        };
        TritWord {
            can_zero: (base.can_zero & mask) | !mask,
            can_one: base.can_one & mask,
        }
    }

    /// Builds a word from up to 64 lane values; remaining lanes are `0`.
    ///
    /// # Panics
    ///
    /// Panics if more than 64 lanes are given.
    pub fn from_lanes(lanes: &[Trit]) -> TritWord {
        assert!(lanes.len() <= LANES, "at most 64 lanes");
        let mut w = TritWord::ZERO;
        for (i, &t) in lanes.iter().enumerate() {
            w.set_lane(i, t);
        }
        w
    }

    /// Builds a word from the raw possibility planes.
    ///
    /// # Panics
    ///
    /// Panics if any lane would be encoded as (0,0) — the impossible value.
    pub fn from_planes(can_zero: u64, can_one: u64) -> TritWord {
        assert_eq!(
            can_zero | can_one,
            !0,
            "every lane must be able to take at least one value"
        );
        TritWord { can_zero, can_one }
    }

    /// The `can_zero` plane.
    pub fn can_zero_plane(self) -> u64 {
        self.can_zero
    }

    /// The `can_one` plane.
    pub fn can_one_plane(self) -> u64 {
        self.can_one
    }

    /// Reads lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ 64`.
    pub fn lane(self, i: usize) -> Trit {
        assert!(i < LANES);
        let z = (self.can_zero >> i) & 1 == 1;
        let o = (self.can_one >> i) & 1 == 1;
        match (z, o) {
            (true, false) => Trit::Zero,
            (false, true) => Trit::One,
            (true, true) => Trit::Meta,
            (false, false) => unreachable!("invalid TritWord lane encoding"),
        }
    }

    /// Writes lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ 64`.
    pub fn set_lane(&mut self, i: usize, t: Trit) {
        assert!(i < LANES);
        let bit = 1u64 << i;
        match t {
            Trit::Zero => {
                self.can_zero |= bit;
                self.can_one &= !bit;
            }
            Trit::One => {
                self.can_zero &= !bit;
                self.can_one |= bit;
            }
            Trit::Meta => {
                self.can_zero |= bit;
                self.can_one |= bit;
            }
        }
    }

    /// Extracts the first `n` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn to_lanes(self, n: usize) -> Vec<Trit> {
        (0..n).map(|i| self.lane(i)).collect()
    }

    /// Mask of lanes (within the first `used_lanes`) that are metastable.
    pub fn meta_mask(self, used_lanes: usize) -> u64 {
        self.can_zero & self.can_one & TritWord::lane_mask(used_lanes)
    }

    /// Bit mask covering the first `n` lanes (all ones for `n ≥ 64`).
    pub const fn lane_mask(n: usize) -> u64 {
        if n >= 64 {
            !0
        } else {
            (1u64 << n) - 1
        }
    }

    /// Forces every lane at index `≥ used_lanes` to stable `0`, keeping the
    /// word well-encoded. This is how multi-word batches
    /// ([`TritBlock`](crate::TritBlock)) maintain the "unused lanes are `0`"
    /// invariant after plane-flipping operations such as NOT.
    pub fn masked(self, used_lanes: usize) -> TritWord {
        let mask = TritWord::lane_mask(used_lanes);
        TritWord {
            can_zero: (self.can_zero & mask) | !mask,
            can_one: self.can_one & mask,
        }
    }

    /// Lane-wise select: lanes whose bit in `mask` is set take their value
    /// from `a`, the others from `b`. Both operands must be well-encoded, so
    /// the result is too.
    pub fn select(mask: u64, a: TritWord, b: TritWord) -> TritWord {
        TritWord {
            can_zero: (a.can_zero & mask) | (b.can_zero & !mask),
            can_one: (a.can_one & mask) | (b.can_one & !mask),
        }
    }
}

impl Default for TritWord {
    fn default() -> TritWord {
        TritWord::ZERO
    }
}

impl BitAnd for TritWord {
    type Output = TritWord;

    #[inline]
    fn bitand(self, rhs: TritWord) -> TritWord {
        TritWord {
            can_zero: self.can_zero | rhs.can_zero,
            can_one: self.can_one & rhs.can_one,
        }
    }
}

impl BitOr for TritWord {
    type Output = TritWord;

    #[inline]
    fn bitor(self, rhs: TritWord) -> TritWord {
        TritWord {
            can_zero: self.can_zero & rhs.can_zero,
            can_one: self.can_one | rhs.can_one,
        }
    }
}

impl Not for TritWord {
    type Output = TritWord;

    #[inline]
    fn not(self) -> TritWord {
        TritWord {
            can_zero: self.can_one,
            can_one: self.can_zero,
        }
    }
}

impl fmt::Display for TritWord {
    /// Displays lane 0 first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..LANES {
            write!(f, "{}", self.lane(i))?;
        }
        Ok(())
    }
}

/// Plane of bit `i` of the 64 consecutive integers `base + l`
/// (`l = 0..64`), for `base` a multiple of 64: the building block for
/// packing an integer enumeration axis into bit-planes without touching
/// individual lanes. Bits 0–5 are fixed periodic patterns; higher bits are
/// constant across one word.
pub const fn integer_bit_plane(base: u64, i: usize) -> u64 {
    const LOW: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    if i < 6 {
        LOW[i]
    } else if (base >> i) & 1 == 1 {
        !0
    } else {
        0
    }
}

/// Transposes a 64×64 bit matrix in place: row `i` is `rows[i]`, column 0
/// its most significant bit. Afterwards bit `63 − i` of `rows[j]` is what
/// bit `63 − j` of `rows[i]` was, so a second call restores the input.
///
/// This is the lane ↔ port crossing of plane I/O: with lane `j`'s ports
/// spelled MSB first in `rows[63 − j]`, the call leaves port `p`'s 64-lane
/// word (lane `j` at bit `j`) in `rows[p]`, and back. It swaps ever smaller
/// blocks across the diagonal — 32, 16, …, 1 — in 6 · 32 masked word swaps
/// (Hacker's Delight, `transpose32` widened to 64 bits), instead of 4,096
/// single-bit moves.
///
/// ```
/// use mcs_logic::transpose64;
///
/// let mut rows = [0u64; 64];
/// rows[63] = 0b101 << 61; // lane 0 carries ports 0 and 2
/// transpose64(&mut rows);
/// assert_eq!((rows[0], rows[1], rows[2]), (1, 0, 1));
/// ```
#[inline]
pub fn transpose64(rows: &mut [u64; 64]) {
    swap_blocks::<32>(rows, 0x0000_0000_FFFF_FFFF);
    swap_blocks::<16>(rows, 0x0000_FFFF_0000_FFFF);
    swap_blocks::<8>(rows, 0x00FF_00FF_00FF_00FF);
    swap_blocks::<4>(rows, 0x0F0F_0F0F_0F0F_0F0F);
    swap_blocks::<2>(rows, 0x3333_3333_3333_3333);
    swap_blocks::<1>(rows, 0x5555_5555_5555_5555);
}

/// One round of [`transpose64`]: in every `2J × 2J` block on the
/// diagonal, swaps the top-right `J × J` quarter with the bottom-left one.
/// Row `i` of a block's top half pairs with row `i + J`; `mask` selects
/// the low `J` columns of each `2J`-column group. `J` is a constant so each
/// round unrolls into straight-line word operations.
#[inline(always)]
fn swap_blocks<const J: usize>(rows: &mut [u64; 64], mask: u64) {
    for block in (0..64).step_by(2 * J) {
        for i in block..block + J {
            let t = (rows[i] ^ (rows[i + J] >> J)) & mask;
            rows[i] ^= t;
            rows[i + J] ^= t << J;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_roundtrip() {
        let mut w = TritWord::ZERO;
        w.set_lane(0, Trit::One);
        w.set_lane(1, Trit::Meta);
        w.set_lane(63, Trit::One);
        assert_eq!(w.lane(0), Trit::One);
        assert_eq!(w.lane(1), Trit::Meta);
        assert_eq!(w.lane(2), Trit::Zero);
        assert_eq!(w.lane(63), Trit::One);
    }

    #[test]
    fn word_ops_match_scalar_ops_on_all_lane_combinations() {
        // Build words whose lanes enumerate all 9 (a, b) combinations and
        // check the packed ops against the scalar Trit ops lane by lane.
        let mut lanes_a = Vec::new();
        let mut lanes_b = Vec::new();
        for a in Trit::ALL {
            for b in Trit::ALL {
                lanes_a.push(a);
                lanes_b.push(b);
            }
        }
        let wa = TritWord::from_lanes(&lanes_a);
        let wb = TritWord::from_lanes(&lanes_b);
        let and = wa & wb;
        let or = wa | wb;
        let not_a = !wa;
        for i in 0..lanes_a.len() {
            assert_eq!(and.lane(i), lanes_a[i] & lanes_b[i], "AND lane {i}");
            assert_eq!(or.lane(i), lanes_a[i] | lanes_b[i], "OR lane {i}");
            assert_eq!(not_a.lane(i), !lanes_a[i], "NOT lane {i}");
        }
    }

    #[test]
    fn splat_keeps_unused_lanes_stable() {
        let w = TritWord::splat(Trit::Meta, 4);
        assert_eq!(w.lane(3), Trit::Meta);
        assert_eq!(w.lane(4), Trit::Zero);
        assert_eq!(w.meta_mask(4), 0b1111);
        assert_eq!(w.meta_mask(64), 0b1111);
    }

    #[test]
    fn not_of_meta_stays_meta_per_lane() {
        let w = TritWord::splat(Trit::Meta, 64);
        assert_eq!(!w, w);
    }

    #[test]
    fn constants_are_consistent() {
        for i in [0usize, 17, 63] {
            assert_eq!(TritWord::ZERO.lane(i), Trit::Zero);
            assert_eq!(TritWord::ONE.lane(i), Trit::One);
            assert_eq!(TritWord::META.lane(i), Trit::Meta);
        }
    }

    #[test]
    fn from_planes_validates() {
        let w = TritWord::from_planes(!0, 0b1);
        assert_eq!(w.lane(0), Trit::Meta);
        assert_eq!(w.lane(1), Trit::Zero);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn from_planes_rejects_empty_lane() {
        let _ = TritWord::from_planes(0, 0);
    }

    #[test]
    fn to_lanes_roundtrip() {
        let lanes = [Trit::Meta, Trit::Zero, Trit::One];
        let w = TritWord::from_lanes(&lanes);
        assert_eq!(w.to_lanes(3), lanes);
    }

    /// The per-bit definition, one bit at a time.
    fn transpose64_oracle(rows: &[u64; 64]) -> [u64; 64] {
        let mut out = [0u64; 64];
        for (i, &row) in rows.iter().enumerate() {
            for (j, o) in out.iter_mut().enumerate() {
                *o |= (row >> (63 - j) & 1) << (63 - i);
            }
        }
        out
    }

    #[test]
    fn transpose64_matches_its_per_bit_oracle_and_is_an_involution() {
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 29)
        };
        let mut cases = vec![[0u64; 64], [!0u64; 64]];
        cases.push(std::array::from_fn(|i| 1u64 << (63 - i))); // identity
        cases.push(std::array::from_fn(|i| 1u64 << i)); // anti-diagonal
        for _ in 0..32 {
            cases.push(std::array::from_fn(|_| next()));
        }
        for rows in cases {
            let mut t = rows;
            transpose64(&mut t);
            assert_eq!(t, transpose64_oracle(&rows));
            transpose64(&mut t);
            assert_eq!(t, rows);
        }
    }
}
