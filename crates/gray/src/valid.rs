//! Valid strings `S^B_rg` (Definition 2.3): Gray codewords, possibly
//! containing one metastable bit "between" two adjacent codewords.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use mcs_logic::{ParseTritError, Trit, TritVec};

use crate::code::gray_encode;

/// A valid string: either a stable Gray codeword `rg_B(x)`, or the
/// superposition `rg_B(x) ∗ rg_B(x+1)` of two adjacent codewords
/// (Definition 2.3).
///
/// A valid string with a metastable bit represents a measurement taken of an
/// analog value between `x` and `x+1`: once the metastability resolves, the
/// string reads either `x` or `x+1`. Valid strings are totally ordered
/// (Table 2); the order is exposed through [`ValidString::rank`] and the
/// [`Ord`] implementation.
///
/// # Example
///
/// ```
/// use mcs_gray::ValidString;
///
/// let three = ValidString::stable(4, 3)?;           // 0010
/// let wobble = ValidString::between(4, 3)?;         // 0M10, between 3 and 4
/// let four = ValidString::stable(4, 4)?;            // 0110
/// assert!(three < wobble && wobble < four);
/// assert_eq!(wobble.to_string(), "0M10");
/// # Ok::<(), mcs_gray::valid::InvalidStringError>(())
/// ```
#[derive(Clone, Eq, PartialEq, Hash, Debug)]
pub struct ValidString {
    bits: TritVec,
    /// Cached rank in the total order: `2x` for stable `rg(x)`, `2x + 1` for
    /// `rg(x) ∗ rg(x+1)`.
    rank: u64,
}

impl ValidString {
    /// Wraps a ternary string, validating that it is a valid string: at most
    /// one metastable bit, and if one is present, its two resolutions must
    /// decode to adjacent values.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidStringError`] if the string is empty, wider than 63
    /// bits, has more than one metastable bit, or its resolutions are not
    /// adjacent codewords.
    pub fn new(bits: TritVec) -> Result<ValidString, InvalidStringError> {
        let (can_zero, can_one) = planes_of(&bits);
        let rank = valid_rank(can_zero, can_one, bits.len())?;
        Ok(ValidString { bits, rank })
    }

    /// The stable valid string encoding `value`, i.e. `rg_width(value)`.
    ///
    /// # Errors
    ///
    /// Returns an error if `value ≥ 2^width` or the width is unsupported.
    pub fn stable(width: usize, value: u64) -> Result<ValidString, InvalidStringError> {
        check_width(width)?;
        if value >= (1u64 << width) {
            return Err(InvalidStringError::ValueOutOfRange { value, width });
        }
        Ok(ValidString {
            bits: gray_encode(value, width),
            rank: 2 * value,
        })
    }

    /// The valid string `rg_width(lower) ∗ rg_width(lower+1)`: a measurement
    /// caught mid-transition between `lower` and `lower + 1`.
    ///
    /// # Errors
    ///
    /// Returns an error if `lower + 1 ≥ 2^width` or the width is unsupported.
    pub fn between(width: usize, lower: u64) -> Result<ValidString, InvalidStringError> {
        check_width(width)?;
        if lower + 1 >= (1u64 << width) {
            return Err(InvalidStringError::ValueOutOfRange {
                value: lower + 1,
                width,
            });
        }
        let a = gray_encode(lower, width);
        let b = gray_encode(lower + 1, width);
        Ok(ValidString {
            bits: a.superpose(&b),
            rank: 2 * lower + 1,
        })
    }

    /// Reconstructs a valid string from its rank in the total order:
    /// rank `2x` is the stable codeword for `x`, rank `2x+1` lies between
    /// `x` and `x+1`. Ranks run from `0` to `2^{width+1} − 2`.
    ///
    /// # Errors
    ///
    /// Returns an error if the rank is out of range for the width.
    pub fn from_rank(width: usize, rank: u64) -> Result<ValidString, InvalidStringError> {
        if rank % 2 == 0 {
            ValidString::stable(width, rank / 2)
        } else {
            ValidString::between(width, rank / 2)
        }
    }

    /// Rank in the total order on valid strings (Table 2): `2x` for stable
    /// `rg(x)`, `2x+1` for `rg(x) ∗ rg(x+1)`.
    pub fn rank(&self) -> u64 {
        self.rank
    }

    /// Bit width `B`.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// The underlying ternary string.
    pub fn bits(&self) -> &TritVec {
        &self.bits
    }

    /// The string as the `(can_zero, can_one)` bit masks of [`valid_rank`]:
    /// character `i` (MSB first) is bit `width − 1 − i`.
    pub fn planes(&self) -> (u64, u64) {
        planes_of(&self.bits)
    }

    /// Consumes the valid string and returns the underlying ternary string.
    pub fn into_bits(self) -> TritVec {
        self.bits
    }

    /// Returns `true` if no bit is metastable.
    pub fn is_stable(&self) -> bool {
        self.rank % 2 == 0
    }

    /// The encoded value for stable strings, `None` if one bit is metastable.
    pub fn value(&self) -> Option<u64> {
        if self.is_stable() {
            Some(self.rank / 2)
        } else {
            None
        }
    }

    /// For a metastable string, the pair `(x, x+1)` of values it may resolve
    /// to; for a stable string, `(x, x)`.
    pub fn value_range(&self) -> (u64, u64) {
        if self.is_stable() {
            (self.rank / 2, self.rank / 2)
        } else {
            (self.rank / 2, self.rank / 2 + 1)
        }
    }

    /// The one or two stable valid strings this string may resolve to.
    pub fn stable_resolutions(&self) -> Vec<ValidString> {
        let (lo, hi) = self.value_range();
        let mut out = vec![ValidString::stable(self.width(), lo)
            .expect("resolution in range")];
        if hi != lo {
            out.push(ValidString::stable(self.width(), hi).expect("in range"));
        }
        out
    }

    /// Iterates over **all** valid strings of the given width in ascending
    /// order of the total order (Table 2 lists these for `B = 4`). There are
    /// `2^{width+1} − 1` of them.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 62 (the enumeration would not fit
    /// the rank space).
    pub fn enumerate(width: usize) -> impl Iterator<Item = ValidString> {
        assert!(width > 0 && width <= 62, "width must be in 1..=62");
        let count = (1u64 << (width + 1)) - 1;
        (0..count).map(move |rank| {
            ValidString::from_rank(width, rank).expect("rank in range")
        })
    }

    /// Number of valid strings of a given width: `2^{width+1} − 1`.
    pub fn count(width: usize) -> u64 {
        assert!(width > 0 && width <= 62);
        (1u64 << (width + 1)) - 1
    }
}

/// The one valid-string rule (Definition 2.3), on bit masks: returns the
/// rank of the `width`-bit string whose character `i` (MSB first) is bit
/// `width − 1 − i` of the two possibility planes — set in `can_zero` if it
/// may read `0`, in `can_one` if it may read `1`, in both if it is `M`.
/// Bits at or above `width` are ignored.
///
/// The string is valid iff every bit can take a value, at most one bit is
/// `M`, and the two resolutions of an `M`, Gray-decoded by prefix XOR,
/// differ by exactly 1. The checks run in that order, after the width
/// check, so [`ValidString::new`] and this rule report the same error.
///
/// ```
/// use mcs_gray::valid::{valid_rank, InvalidStringError};
///
/// // 0M10 (between 3 and 4): M at character 1, i.e. bit 2.
/// assert_eq!(valid_rank(0b1101, 0b0110, 4), Ok(7));
/// // 0M00 resolves to 0000 (0) and 0100 (7).
/// assert_eq!(
///     valid_rank(0b1111, 0b0100, 4),
///     Err(InvalidStringError::NotAdjacent { lo: 0, hi: 7 })
/// );
/// ```
///
/// # Errors
///
/// [`InvalidStringError::UnsupportedWidth`] for a width outside `1..=63`,
/// [`InvalidStringError::Unencoded`] for a bit in neither plane,
/// [`InvalidStringError::TooManyMeta`] and
/// [`InvalidStringError::NotAdjacent`] as for [`ValidString::new`].
#[inline]
pub fn valid_rank(can_zero: u64, can_one: u64, width: usize) -> Result<u64, InvalidStringError> {
    check_width(width)?;
    let mask = (1u64 << width) - 1;
    let unencoded = !(can_zero | can_one) & mask;
    if unencoded != 0 {
        return Err(InvalidStringError::Unencoded {
            position: width - 1 - (63 - unencoded.leading_zeros() as usize),
        });
    }
    let meta = can_zero & can_one & mask;
    // More than one M: clearing the lowest one leaves another.
    if meta & meta.wrapping_sub(1) != 0 {
        return Err(InvalidStringError::TooManyMeta {
            count: meta.count_ones() as usize,
        });
    }
    let count = u64::from(meta != 0);
    // The resolutions with M read as 0 and as 1 (the same string when
    // stable). Resolving M as 1 flips every decoded bit from the M
    // position down, so either may be the smaller one. No branch depends
    // on whether the key is stable, which keeps mixed traffic free of
    // mispredictions.
    let a = gray_decode_word(can_one & mask & !meta);
    let b = a ^ ((meta | meta.wrapping_sub(1)) & count.wrapping_neg());
    let (lo, hi) = (a.min(b), a.max(b));
    if hi - lo != count {
        return Err(InvalidStringError::NotAdjacent { lo, hi });
    }
    Ok(2 * lo + count)
}

/// The exact inverse of [`valid_rank`]: the `(can_zero, can_one)` masks,
/// MSB first, of the `width`-bit valid string of rank `rank`, i.e.
/// [`ValidString::from_rank`]`(width, rank)?.planes()` without building
/// the string. The Gray codes of `x = rank >> 1` and of `x + 1` are merged
/// by the rank's parity: an even rank is the stable `rg(x)`, an odd one
/// `rg(x) ∗ rg(x+1)`, whose one differing bit may read either value.
///
/// ```
/// use mcs_gray::valid::{rank_planes, valid_rank, InvalidStringError};
///
/// // Rank 7 is 0M10, between 3 and 4: M at character 1, i.e. bit 2.
/// assert_eq!(rank_planes(4, 7), Ok((0b1101, 0b0110)));
/// assert_eq!(valid_rank(0b1101, 0b0110, 4), Ok(7));
/// // The last 4-bit rank is 2^5 − 2 = 30 (1000).
/// assert_eq!(rank_planes(4, 30), Ok((0b0111, 0b1000)));
/// assert_eq!(
///     rank_planes(4, 31),
///     Err(InvalidStringError::ValueOutOfRange { value: 16, width: 4 })
/// );
/// ```
///
/// # Errors
///
/// As [`ValidString::from_rank`]: [`InvalidStringError::UnsupportedWidth`]
/// for a width outside `1..=63`, and
/// [`InvalidStringError::ValueOutOfRange`] for a rank past the width's
/// last one.
#[inline]
pub fn rank_planes(width: usize, rank: u64) -> Result<(u64, u64), InvalidStringError> {
    check_width(width)?;
    let (x, odd) = (rank >> 1, 0u64.wrapping_sub(rank & 1));
    // The largest value the string may resolve to: x, or x + 1 if odd.
    let top = x + (rank & 1);
    if top >> width != 0 {
        return Err(InvalidStringError::ValueOutOfRange { value: top, width });
    }
    let y = x + 1;
    let (g, h) = (x ^ (x >> 1), y ^ (y >> 1));
    let mask = (1u64 << width) - 1;
    Ok((!(g & (h | !odd)) & mask, g | (h & odd)))
}

/// The [`valid_rank`] masks of a string of at most 63 bits; `(0, 0)` for a
/// wider one, which [`valid_rank`] refuses on its width alone.
fn planes_of(bits: &TritVec) -> (u64, u64) {
    let (mut can_zero, mut can_one) = (0u64, 0u64);
    if bits.len() <= 63 {
        for t in bits.iter() {
            can_zero = (can_zero << 1) | u64::from(t != Trit::One);
            can_one = (can_one << 1) | u64::from(t != Trit::Zero);
        }
    }
    (can_zero, can_one)
}

/// Gray-decodes a stable codeword held in the low bits of a word: bit `k`
/// of the value is the XOR of codeword bits `k` and above.
fn gray_decode_word(mut g: u64) -> u64 {
    for shift in [1, 2, 4, 8, 16, 32] {
        g ^= g >> shift;
    }
    g
}

fn check_width(width: usize) -> Result<(), InvalidStringError> {
    if width == 0 || width > 63 {
        Err(InvalidStringError::UnsupportedWidth { width })
    } else {
        Ok(())
    }
}

impl Ord for ValidString {
    /// Orders by the total order on valid strings (Table 2). Comparing
    /// strings of different widths orders by width first.
    fn cmp(&self, other: &ValidString) -> std::cmp::Ordering {
        self.width()
            .cmp(&other.width())
            .then(self.rank.cmp(&other.rank))
    }
}

impl PartialOrd for ValidString {
    fn partial_cmp(&self, other: &ValidString) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for ValidString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bits)
    }
}

impl FromStr for ValidString {
    type Err = InvalidStringError;

    fn from_str(s: &str) -> Result<ValidString, InvalidStringError> {
        let bits: TritVec = s.parse()?;
        ValidString::new(bits)
    }
}

impl TryFrom<TritVec> for ValidString {
    type Error = InvalidStringError;

    fn try_from(bits: TritVec) -> Result<ValidString, InvalidStringError> {
        ValidString::new(bits)
    }
}

impl From<ValidString> for TritVec {
    fn from(v: ValidString) -> TritVec {
        v.bits
    }
}

impl AsRef<[Trit]> for ValidString {
    fn as_ref(&self) -> &[Trit] {
        self.bits.as_ref()
    }
}

/// Error for strings that are not valid strings in the sense of
/// Definition 2.3, or out-of-range constructor arguments.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum InvalidStringError {
    /// The width is 0 or too large for 64-bit arithmetic.
    UnsupportedWidth {
        /// Offending width.
        width: usize,
    },
    /// More than one bit is metastable.
    TooManyMeta {
        /// Number of metastable bits found.
        count: usize,
    },
    /// A bit can take neither value (possible only in raw plane words,
    /// see [`valid_rank`]).
    Unencoded {
        /// Character position of the first such bit, MSB first.
        position: usize,
    },
    /// The two resolutions decode to non-adjacent values.
    NotAdjacent {
        /// Smaller decoded value.
        lo: u64,
        /// Larger decoded value.
        hi: u64,
    },
    /// A constructor value does not fit the width.
    ValueOutOfRange {
        /// Offending value.
        value: u64,
        /// Width it had to fit in.
        width: usize,
    },
    /// The string contained a character other than `0`, `1`, `M`.
    Parse(ParseTritError),
}

impl fmt::Display for InvalidStringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidStringError::UnsupportedWidth { width } => {
                write!(f, "unsupported valid-string width {width}")
            }
            InvalidStringError::TooManyMeta { count } => {
                write!(f, "valid strings allow at most one metastable bit, found {count}")
            }
            InvalidStringError::Unencoded { position } => {
                write!(f, "bit {position} can take neither 0 nor 1")
            }
            InvalidStringError::NotAdjacent { lo, hi } => write!(
                f,
                "metastable bit resolves to non-adjacent values {lo} and {hi}"
            ),
            InvalidStringError::ValueOutOfRange { value, width } => {
                write!(f, "value {value} does not fit in {width} bits")
            }
            InvalidStringError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl Error for InvalidStringError {}

impl From<ParseTritError> for InvalidStringError {
    fn from(e: ParseTritError) -> InvalidStringError {
        InvalidStringError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::gray_decode;

    /// Table 2 of the paper: the 4-bit valid strings in ascending order.
    const TABLE_2: [&str; 31] = [
        "0000", "000M", "0001", "00M1", "0011", "001M", "0010", "0M10",
        "0110", "011M", "0111", "01M1", "0101", "010M", "0100", "M100",
        "1100", "110M", "1101", "11M1", "1111", "111M", "1110", "1M10",
        "1010", "101M", "1011", "10M1", "1001", "100M", "1000",
    ];

    #[test]
    fn enumeration_matches_table_2() {
        let got: Vec<String> = ValidString::enumerate(4)
            .map(|v| v.to_string())
            .collect();
        let want: Vec<String> = TABLE_2.iter().map(|s| s.to_string()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn count_matches_enumeration() {
        for width in 1..=8usize {
            assert_eq!(
                ValidString::enumerate(width).count() as u64,
                ValidString::count(width)
            );
        }
    }

    #[test]
    fn rank_roundtrip() {
        for width in 1..=8usize {
            for (i, v) in ValidString::enumerate(width).enumerate() {
                assert_eq!(v.rank(), i as u64);
                assert_eq!(
                    ValidString::from_rank(width, v.rank()).unwrap(),
                    v
                );
            }
        }
    }

    #[test]
    fn parse_validates() {
        assert!("0M10".parse::<ValidString>().is_ok());
        // Two metastable bits: invalid.
        assert!(matches!(
            "0MM0".parse::<ValidString>(),
            Err(InvalidStringError::TooManyMeta { count: 2 })
        ));
        // M in a position whose resolutions are not adjacent: 0M00 resolves
        // to 0000 (0) and 0100 (7).
        assert!(matches!(
            "0M00".parse::<ValidString>(),
            Err(InvalidStringError::NotAdjacent { lo: 0, hi: 7 })
        ));
        assert!(matches!(
            "".parse::<ValidString>(),
            Err(InvalidStringError::UnsupportedWidth { width: 0 })
        ));
        assert!(matches!(
            "01x2".parse::<ValidString>(),
            Err(InvalidStringError::Parse(_))
        ));
    }

    /// The exact error value of each rejected string, recorded from the
    /// resolution-decoding validator before it became a bitwise one.
    #[test]
    fn invalid_string_errors_are_pinned() {
        use InvalidStringError::*;
        let bad_char = |c| Parse(Trit::from_char(c).unwrap_err());
        let long_zero = format!("0M{}", "0".repeat(61));
        let long_one = format!("M{}", "1".repeat(62));
        let cases: Vec<(String, InvalidStringError)> = vec![
            ("MM".into(), TooManyMeta { count: 2 }),
            ("0MM0".into(), TooManyMeta { count: 2 }),
            ("MMMM".into(), TooManyMeta { count: 4 }),
            ("M0M0M0M0".into(), TooManyMeta { count: 4 }),
            ("mx".into(), TooManyMeta { count: 2 }),
            ("M".repeat(63), TooManyMeta { count: 63 }),
            ("0M0".into(), NotAdjacent { lo: 0, hi: 3 }),
            ("0M00".into(), NotAdjacent { lo: 0, hi: 7 }),
            ("M000".into(), NotAdjacent { lo: 0, hi: 15 }),
            ("1M11".into(), NotAdjacent { lo: 10, hi: 13 }),
            ("11M0".into(), NotAdjacent { lo: 8, hi: 11 }),
            ("00000M00".into(), NotAdjacent { lo: 0, hi: 7 }),
            ("M0000000".into(), NotAdjacent { lo: 0, hi: 255 }),
            (
                long_zero,
                NotAdjacent {
                    lo: 0,
                    hi: 4_611_686_018_427_387_903,
                },
            ),
            (
                long_one,
                NotAdjacent {
                    lo: 3_074_457_345_618_258_602,
                    hi: 6_148_914_691_236_517_205,
                },
            ),
            ("01x2".into(), bad_char('2')),
            ("0Z".into(), bad_char('Z')),
            ("00é0".into(), bad_char('é')),
            ("Z".repeat(64), bad_char('Z')),
            (String::new(), UnsupportedWidth { width: 0 }),
            ("0".repeat(64), UnsupportedWidth { width: 64 }),
            ("M".repeat(64), UnsupportedWidth { width: 64 }),
            ("1".repeat(80), UnsupportedWidth { width: 80 }),
        ];
        for (s, want) in cases {
            assert_eq!(s.parse::<ValidString>(), Err(want.clone()), "{s:?}");
            if let Ok(bits) = s.parse::<TritVec>() {
                assert_eq!(ValidString::new(bits), Err(want), "{s:?}");
            }
        }
    }

    #[test]
    fn valid_rank_flags_unencoded_bits_first() {
        // 0?M0 with M at position 2 would be fine; the hole at position 1
        // is reported before anything else.
        assert_eq!(
            valid_rank(0b1011, 0b0010, 4),
            Err(InvalidStringError::Unencoded { position: 1 })
        );
        assert_eq!(
            valid_rank(0, 0, 63),
            Err(InvalidStringError::Unencoded { position: 0 })
        );
        // Bits above the width are ignored.
        assert_eq!(valid_rank(!0b0110, 0b0110 | (1 << 40), 3), Ok(2 * 4));
        assert_eq!(
            valid_rank(1, 1, 64),
            Err(InvalidStringError::UnsupportedWidth { width: 64 })
        );
    }

    #[test]
    fn rank_planes_is_the_exact_inverse_of_valid_rank() {
        let check = |width: usize, rank: u64| {
            let planes = rank_planes(width, rank).unwrap();
            assert_eq!(
                valid_rank(planes.0, planes.1, width),
                Ok(rank),
                "width {width}, rank {rank}"
            );
            assert_eq!(
                planes,
                ValidString::from_rank(width, rank).unwrap().planes(),
                "width {width}, rank {rank}"
            );
        };
        for width in 1..=12 {
            for rank in 0..(1u64 << (width + 1)) - 1 {
                check(width, rank);
            }
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for width in 13..=63 {
            let count = u64::MAX >> (63 - width);
            // The first, the last and 200 pseudorandom ranks of the width.
            let mut ranks = vec![0, 1, count - 2, count - 1];
            for _ in 0..200 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                ranks.push((state >> 1) % count);
            }
            for rank in ranks {
                check(width, rank);
            }
        }
    }

    #[test]
    fn rank_planes_errors_mirror_from_rank() {
        let cases = [
            (0, 0),
            (64, 0),
            (4, 31),
            (4, 32),
            (4, u64::MAX),
            (1, 3),
            (63, u64::MAX),
        ];
        for (width, rank) in cases {
            let want = ValidString::from_rank(width, rank).unwrap_err();
            assert_eq!(
                rank_planes(width, rank),
                Err(want),
                "width {width}, rank {rank}"
            );
        }
        // The last rank of each width still encodes.
        assert_eq!(rank_planes(1, 2), Ok((0, 1)));
        assert_eq!(rank_planes(4, 30), Ok((0b0111, 0b1000)));
        assert!(rank_planes(63, u64::MAX - 1).is_ok());
    }

    #[test]
    fn every_single_meta_position_is_checked() {
        // For every codeword pair (x, x+1) the superposition is valid, and
        // placing an M anywhere else is invalid.
        let width = 5usize;
        for x in 0..(1u64 << width) {
            let g = gray_encode(x, width);
            for pos in 0..width {
                let mut bits = g.clone();
                bits[pos] = Trit::Meta;
                let ok = ValidString::new(bits).is_ok();
                // Valid iff flipping bit `pos` of rg(x) yields rg(x±1).
                let mut flipped = g.clone();
                flipped[pos] = !flipped[pos];
                let y = gray_decode(&flipped).unwrap();
                let adjacent = y == x + 1 || x == y + 1;
                assert_eq!(ok, adjacent, "x={x} pos={pos}");
            }
        }
    }

    #[test]
    fn stable_and_between_agree_with_table_2_examples() {
        assert_eq!(ValidString::stable(4, 15).unwrap().to_string(), "1000");
        assert_eq!(ValidString::between(4, 3).unwrap().to_string(), "0M10");
        assert_eq!(ValidString::between(4, 7).unwrap().to_string(), "M100");
    }

    #[test]
    fn constructor_range_errors() {
        assert!(ValidString::stable(4, 16).is_err());
        assert!(ValidString::between(4, 15).is_err()); // 15∗16 out of range
        assert!(ValidString::stable(0, 0).is_err());
        assert!(ValidString::stable(64, 0).is_err());
    }

    #[test]
    fn value_range_and_resolutions() {
        let v = ValidString::between(4, 9).unwrap();
        assert_eq!(v.value_range(), (9, 10));
        assert_eq!(v.value(), None);
        assert!(!v.is_stable());
        let rs = v.stable_resolutions();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].value(), Some(9));
        assert_eq!(rs[1].value(), Some(10));

        let s = ValidString::stable(4, 9).unwrap();
        assert_eq!(s.value_range(), (9, 9));
        assert_eq!(s.stable_resolutions(), vec![s.clone()]);
    }

    #[test]
    fn ordering_follows_rank() {
        let a = ValidString::stable(4, 3).unwrap();
        let b = ValidString::between(4, 3).unwrap();
        let c = ValidString::stable(4, 4).unwrap();
        assert!(a < b && b < c);
        let mut shuffled = vec![c.clone(), a.clone(), b.clone()];
        shuffled.sort();
        assert_eq!(shuffled, vec![a, b, c]);
    }

    #[test]
    fn observation_2_4_substrings_are_valid() {
        // Every substring of a valid string is a valid string.
        for v in ValidString::enumerate(6) {
            for i in 0..6 {
                for j in (i + 1)..=6 {
                    let sub = v.bits().slice(i, j);
                    assert!(
                        ValidString::new(sub.clone()).is_ok(),
                        "substring {sub} of {v} should be valid"
                    );
                }
            }
        }
    }

    #[test]
    fn conversions() {
        let v: ValidString = "0M10".parse().unwrap();
        let bits: TritVec = v.clone().into();
        assert_eq!(ValidString::try_from(bits).unwrap(), v);
        assert_eq!(v.as_ref().len(), 4);
        assert_eq!(v.clone().into_bits().to_string(), "0M10");
    }

    #[test]
    fn error_messages_are_informative() {
        let e = ValidString::stable(4, 99).unwrap_err();
        assert!(e.to_string().contains("99"));
        let e = "MM".parse::<ValidString>().unwrap_err();
        assert!(e.to_string().contains("at most one"));
    }
}
