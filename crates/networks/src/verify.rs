//! Sorting-network verification via the 0-1 principle.
//!
//! A comparator network sorts **all** inputs if and only if it sorts every
//! 0-1 input (Knuth, Theorem 5.3.4Z). The check runs word-parallel on the
//! [`TritWord`] tier: 64 input masks per step, one word per channel, with
//! each comparator a single Kleene AND/OR pair (`min = a ∧ b`,
//! `max = a ∨ b` — on stable lanes exactly the boolean compare-exchange).
//! That makes [`zero_one_verify`] ~64× cheaper than per-mask application.

use std::error::Error;
use std::fmt;

use mcs_logic::TritWord;

use crate::comparator::Network;

/// A 0-1 input that the network fails to sort.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct SortFailure {
    /// The failing input mask (bit `i` = channel `i`).
    pub input_mask: u64,
    /// The unsorted output mask.
    pub output_mask: u64,
    /// Channel count, for display.
    pub channels: usize,
}

impl fmt::Display for SortFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bits = |m: u64| -> String {
            (0..self.channels)
                .map(|i| if (m >> i) & 1 == 1 { '1' } else { '0' })
                .collect()
        };
        write!(
            f,
            "input {} sorts to {} (not ascending)",
            bits(self.input_mask),
            bits(self.output_mask)
        )
    }
}

impl Error for SortFailure {}

/// Returns `true` if the mask's bits are ascending over the first
/// `channels` bit positions (all zeros before all ones).
pub fn mask_is_sorted(mask: u64, channels: usize) -> bool {
    // Ascending ⇔ the set bits occupy the top of the channel range ⇔
    // mask + lowest_gap is a power-of-two-aligned run; simplest: check no
    // 1 appears before a 0.
    let mut seen_one = false;
    for i in 0..channels {
        let bit = (mask >> i) & 1 == 1;
        if bit {
            seen_one = true;
        } else if seen_one {
            return false;
        }
    }
    true
}

/// Runs the network on the 64 masks `base .. base+64` at once (lanes past
/// `used` forced to stable 0) and returns the lane mask of inputs whose
/// output is **not** ascending.
fn unsorted_lanes(network: &Network, base: u64, used: usize) -> u64 {
    let n = network.channels();
    let keep = TritWord::lane_mask(used);
    let mut ch: Vec<TritWord> = (0..n)
        .map(|i| {
            let ones = mcs_logic::integer_bit_plane(base, i) & keep;
            TritWord::from_planes(!ones, ones)
        })
        .collect();
    for comp in network.comparators() {
        let a = ch[comp.lo()];
        let b = ch[comp.hi()];
        ch[comp.lo()] = a & b; // min
        ch[comp.hi()] = a | b; // max
    }
    // A lane is unsorted iff some adjacent channel pair reads 1 then 0.
    let mut violation = 0u64;
    for c in 0..n.saturating_sub(1) {
        violation |= ch[c].can_one_plane() & ch[c + 1].can_zero_plane();
    }
    violation & keep
}

/// Verifies the network sorts every 0-1 input, 64 masks per step on the
/// word-parallel tier.
///
/// # Errors
///
/// Returns the first failing input.
///
/// # Panics
///
/// Panics if the network has more than 24 channels (2^n inputs).
pub fn zero_one_verify(network: &Network) -> Result<(), SortFailure> {
    let n = network.channels();
    assert!(n <= 24, "0-1 verification limited to 24 channels");
    let total = 1u64 << n;
    let mut base = 0u64;
    while base < total {
        let used = 64.min(total - base) as usize;
        let violation = unsorted_lanes(network, base, used);
        if violation != 0 {
            let mask = base + u64::from(violation.trailing_zeros());
            return Err(SortFailure {
                input_mask: mask,
                output_mask: network.apply_mask(mask),
                channels: n,
            });
        }
        base += 64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_sortedness() {
        assert!(mask_is_sorted(0b0000, 4));
        assert!(mask_is_sorted(0b1111, 4));
        assert!(mask_is_sorted(0b1100, 4)); // bits 2,3 set: 0011 ascending
        assert!(!mask_is_sorted(0b0101, 4));
        assert!(!mask_is_sorted(0b0001, 4)); // 1000 descending
        assert!(mask_is_sorted(0b1000, 4));
    }

    #[test]
    fn four_sorter_verifies() {
        let net = Network::from_pairs(4, [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)]);
        assert!(zero_one_verify(&net).is_ok());
    }

    #[test]
    fn broken_network_is_caught_with_counterexample() {
        // Missing the final (1,2) comparator.
        let net = Network::from_pairs(4, [(0, 1), (2, 3), (0, 2), (1, 3)]);
        let failure = zero_one_verify(&net).unwrap_err();
        // Re-apply: the counterexample really is unsorted.
        let out = net.apply_mask(failure.input_mask);
        assert_eq!(out, failure.output_mask);
        assert!(!mask_is_sorted(out, 4));
        assert!(failure.to_string().contains("not ascending"));
    }

    #[test]
    fn word_parallel_check_matches_scalar_apply_mask() {
        // The word-parallel tier and the per-mask scalar path must agree on
        // the verdict and the first failing mask, for channel counts
        // spanning partial (< 64 masks) and multiple full words, on random
        // (mostly broken) networks.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for n in [2usize, 4, 5, 6, 7, 9] {
            for _ in 0..8 {
                let size = rng.gen_range(0..12);
                let pairs: Vec<(usize, usize)> = (0..size)
                    .map(|_| {
                        let a = rng.gen_range(0..n - 1);
                        let b = rng.gen_range(a + 1..n);
                        (a, b)
                    })
                    .collect();
                let net = Network::from_pairs(n, pairs);
                // The reported counterexample is the *first* failing mask,
                // exactly as the scalar enumeration finds it.
                let first = (0..(1u64 << n))
                    .find(|&m| !mask_is_sorted(net.apply_mask(m), n));
                match (zero_one_verify(&net), first) {
                    (Ok(()), None) => {}
                    (Err(f), Some(first)) => {
                        assert_eq!(f.input_mask, first, "{net}");
                        assert_eq!(f.output_mask, net.apply_mask(first), "{net}");
                    }
                    (verdict, first) => {
                        panic!("{net}: word-parallel {verdict:?}, scalar first failure {first:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn zero_one_principle_transfers_to_integers() {
        // The point of the 0-1 principle: a 0-1-verified network sorts
        // arbitrary values. Spot-check with random integer vectors.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let net = Network::from_pairs(4, [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)]);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let mut v: Vec<u32> = (0..4).map(|_| rng.gen_range(0..100)).collect();
            net.apply(&mut v, |a, b| a <= b);
            assert!(v.windows(2).all(|w| w[0] <= w[1]), "{v:?}");
        }
    }
}
