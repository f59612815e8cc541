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

/// Transposes the `F × F` bit block in every `F`-bit field of `rows[..F]`
/// at once: bit `c` of row `r`'s field `j` trades places with bit `r` of
/// row `c`'s field `j` (bits numbered from the least significant), so a
/// second call restores the input. `F` is a power of two, 2 ..= 64; rows
/// `F..` are left alone.
///
/// At `F = 64` this is the lane ↔ port crossing of plane I/O: with lane
/// `j`'s ports spelled MSB first in `rows[j]`, the call leaves port `p`'s
/// 64-lane word (lane `j` at bit `j`) in `rows[63 − p]`, and back. Below
/// 64 it turns 64 small values packed `F` to a word into their bit planes
/// and back. Each of the `log₂F` rounds swaps, in every `2J × 2J` block on
/// a field's diagonal, the top-right `J × J` quarter (high columns of the
/// top rows) with the bottom-left one — `J` = 32, 16, …, 1, Hacker's
/// Delight's `transpose32` widened and cut into fields — in `F/2` masked
/// word swaps per round instead of one move per bit.
///
/// ```
/// use mcs_logic::transpose_fields;
///
/// let mut rows = [0u64; 64];
/// rows[0] = 0b101 << 61; // lane 0 carries ports 0 and 2
/// transpose_fields::<64>(&mut rows);
/// assert_eq!((rows[63], rows[62], rows[61]), (1, 0, 1));
/// ```
#[inline(always)]
pub fn transpose_fields<const F: usize>(rows: &mut [u64; 64]) {
    debug_assert!(F.is_power_of_two() && (2..=64).contains(&F));
    /// One round: `mask` selects the high `J` columns of each
    /// `2J`-column group, which never reach across a field. `J` is a
    /// constant so the round unrolls into straight-line word operations.
    #[inline(always)]
    fn round<const F: usize, const J: usize>(rows: &mut [u64; 64], mask: u64) {
        for block in (0..F).step_by(2 * J) {
            for i in block..block + J {
                let t = (rows[i] ^ (rows[i + J] << J)) & mask;
                rows[i] ^= t;
                rows[i + J] ^= t >> J;
            }
        }
    }
    if F > 32 {
        round::<F, 32>(rows, 0xFFFF_FFFF_0000_0000);
    }
    if F > 16 {
        round::<F, 16>(rows, 0xFFFF_0000_FFFF_0000);
    }
    if F > 8 {
        round::<F, 8>(rows, 0xFF00_FF00_FF00_FF00);
    }
    if F > 4 {
        round::<F, 4>(rows, 0xF0F0_F0F0_F0F0_F0F0);
    }
    if F > 2 {
        round::<F, 2>(rows, 0xCCCC_CCCC_CCCC_CCCC);
    }
    round::<F, 1>(rows, 0xAAAA_AAAA_AAAA_AAAA);
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

    /// The per-bit definition at field width `F`, one bit at a time: bit
    /// `c` of row `r`'s field `j` goes to bit `r` of row `c`'s field `j`.
    fn transpose_fields_oracle<const F: usize>(rows: &[u64; 64]) -> [u64; 64] {
        let mut out = *rows;
        out[..F].fill(0);
        for (r, &row) in rows[..F].iter().enumerate() {
            for (c, o) in out[..F].iter_mut().enumerate() {
                for j in (0..64).step_by(F) {
                    *o |= (row >> (j + c) & 1) << (j + r);
                }
            }
        }
        out
    }

    fn transpose_fields_matches_its_oracle<const F: usize>() {
        let mut state = 0x5eed_u64 ^ F as u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 29)
        };
        let mut cases = vec![[0u64; 64], [!0u64; 64]];
        cases.push(std::array::from_fn(|i| 1u64 << i)); // diagonal of field 0
        cases.push(std::array::from_fn(|i| 1u64 << (63 - i))); // anti-diagonal
        for _ in 0..32 {
            cases.push(std::array::from_fn(|_| next()));
        }
        for rows in cases {
            let mut t = rows;
            transpose_fields::<F>(&mut t);
            assert_eq!(t, transpose_fields_oracle::<F>(&rows), "F = {F}");
            transpose_fields::<F>(&mut t);
            assert_eq!(t, rows, "F = {F}");
        }
    }

    #[test]
    fn transpose_fields_matches_its_per_bit_oracle_and_is_its_own_inverse() {
        transpose_fields_matches_its_oracle::<2>();
        transpose_fields_matches_its_oracle::<4>();
        transpose_fields_matches_its_oracle::<8>();
        transpose_fields_matches_its_oracle::<16>();
        transpose_fields_matches_its_oracle::<32>();
        transpose_fields_matches_its_oracle::<64>();
    }
}
