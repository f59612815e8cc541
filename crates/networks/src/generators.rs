//! Classic sorting-network generators: Batcher's odd-even mergesort
//! (arbitrary n), bitonic sort (with standardization), insertion and bubble
//! networks.

use crate::comparator::Network;

/// Batcher's odd-even mergesort for arbitrary `n` (iterative formulation).
/// `O(n log² n)` comparators, depth `O(log² n)`; all comparators are
/// already in standard form.
///
/// ```
/// use mcs_networks::generators::batcher_odd_even;
/// use mcs_networks::verify::zero_one_verify;
///
/// let net = batcher_odd_even(10);
/// assert!(zero_one_verify(&net).is_ok());
/// ```
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn batcher_odd_even(n: usize) -> Network {
    let mut net = Network::new(n);
    if n < 2 {
        return net;
    }
    let mut p = 1usize;
    while p < n {
        let mut k = p;
        loop {
            let mut j = k % p;
            while j + k < n {
                for i in 0..k.min(n - j - k) {
                    if (i + j) / (2 * p) == (i + j + k) / (2 * p) {
                        net.push(i + j, i + j + k);
                    }
                }
                j += 2 * k;
            }
            if k == 1 {
                break;
            }
            k /= 2;
        }
        p *= 2;
    }
    net
}

/// Bitonic sorting network for arbitrary `n`, produced with descending
/// comparators and then converted to standard form by Knuth's
/// standardization procedure (exercise 5.3.4.16).
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn bitonic(n: usize) -> Network {
    assert!(n > 0, "network needs at least one channel");
    // Collect possibly non-standard comparators: (from, to) where `to`
    // receives the maximum; descending comparators have from > to.
    let mut raw: Vec<(usize, usize)> = Vec::new();
    fn sort(lo: usize, n: usize, ascending: bool, out: &mut Vec<(usize, usize)>) {
        if n <= 1 {
            return;
        }
        let m = n / 2;
        sort(lo, m, !ascending, out);
        sort(lo + m, n - m, ascending, out);
        merge(lo, n, ascending, out);
    }
    fn merge(lo: usize, n: usize, ascending: bool, out: &mut Vec<(usize, usize)>) {
        if n <= 1 {
            return;
        }
        // Greatest power of two strictly less than n.
        let mut m = 1usize;
        while m * 2 < n {
            m *= 2;
        }
        for i in lo..lo + n - m {
            if ascending {
                out.push((i, i + m));
            } else {
                out.push((i + m, i));
            }
        }
        merge(lo, m, ascending, out);
        merge(lo + m, n - m, ascending, out);
    }
    sort(0, n, true, &mut raw);
    standardize(n, raw)
}

/// Knuth's standardization: a comparator `[j:i]` with `j > i` (maximum to
/// the lower channel) is replaced by `[i:j]` and channels `i`, `j` are
/// exchanged in all subsequent comparators. The result is a standard
/// network sorting ascending.
pub fn standardize(channels: usize, mut comps: Vec<(usize, usize)>) -> Network {
    for k in 0..comps.len() {
        let (from, to) = comps[k];
        if from > to {
            comps[k] = (to, from);
            for later in comps.iter_mut().skip(k + 1) {
                let swap = |x: usize| {
                    if x == from {
                        to
                    } else if x == to {
                        from
                    } else {
                        x
                    }
                };
                *later = (swap(later.0), swap(later.1));
            }
        }
    }
    Network::from_pairs(channels, comps)
}

/// Insertion-sort network: `n(n−1)/2` comparators, depth `2n − 3`.
pub fn insertion(n: usize) -> Network {
    let mut net = Network::new(n);
    for i in 1..n {
        for j in (0..i).rev() {
            net.push(j, j + 1);
        }
    }
    net
}

/// Bubble-sort network: same size as insertion, written in bubble order.
pub fn bubble(n: usize) -> Network {
    let mut net = Network::new(n);
    for pass in 0..n.saturating_sub(1) {
        for j in 0..n - 1 - pass {
            net.push(j, j + 1);
        }
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::zero_one_verify;

    #[test]
    fn batcher_sorts_all_sizes_up_to_20() {
        for n in 1..=20usize {
            let net = batcher_odd_even(n);
            zero_one_verify(&net).unwrap_or_else(|e| panic!("batcher({n}): {e}"));
        }
    }

    #[test]
    fn batcher_known_sizes() {
        // Batcher's odd-even merge sort uses 1/5/19/63 comparators at n = 2/4/8/16.
        assert_eq!(batcher_odd_even(2).size(), 1);
        assert_eq!(batcher_odd_even(4).size(), 5);
        assert_eq!(batcher_odd_even(8).size(), 19);
        assert_eq!(batcher_odd_even(16).size(), 63);
        // Depth is O(log² n): 10 layers at n = 16.
        assert_eq!(batcher_odd_even(16).depth(), 10);
    }

    #[test]
    fn bitonic_sorts_all_sizes_up_to_20() {
        for n in 1..=20usize {
            let net = bitonic(n);
            zero_one_verify(&net).unwrap_or_else(|e| panic!("bitonic({n}): {e}"));
        }
    }

    #[test]
    fn bitonic_known_power_of_two_counts() {
        // n·log(n)·(log(n)+1)/4 comparators for powers of two.
        for (n, want) in [(2usize, 1usize), (4, 6), (8, 24), (16, 80)] {
            assert_eq!(bitonic(n).size(), want, "bitonic({n})");
        }
    }

    #[test]
    fn standardization_produces_equivalent_standard_network() {
        // A hand-built non-standard network: reversed comparator then a
        // standard one; standardization must keep it a valid sorter.
        let raw = vec![(1usize, 0usize), (0, 1)];
        let net = standardize(2, raw);
        assert!(zero_one_verify(&net).is_ok());
        for c in net.comparators() {
            assert!(c.lo() < c.hi());
        }
    }

    #[test]
    fn insertion_and_bubble_sort_everything() {
        for n in 1..=10usize {
            zero_one_verify(&insertion(n)).unwrap();
            zero_one_verify(&bubble(n)).unwrap();
            assert_eq!(insertion(n).size(), n * (n - 1) / 2);
            assert_eq!(bubble(n).size(), n * (n - 1) / 2);
        }
        // Insertion and bubble networks have the same ASAP depth 2n−3.
        for n in 3..=10usize {
            assert_eq!(insertion(n).depth(), 2 * n - 3, "insertion({n})");
            assert_eq!(bubble(n).depth(), 2 * n - 3, "bubble({n})");
        }
    }

    #[test]
    fn batcher_for_ten_channels() {
        // The generic fallback the paper's Table 8 would use if no optimal
        // network were known: n = 10.
        let net = batcher_odd_even(10);
        assert!(net.size() >= 29, "cannot beat the proven optimum");
        assert!(net.size() <= 34, "Batcher(10) should be close to optimal");
    }
}
