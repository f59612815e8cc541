//! Best-known sorting networks for small channel counts.
//!
//! The paper's Table 8 uses: optimal networks for `n ∈ {4, 7}` (optimal in
//! both size and depth), `10-sort#` — the 29-comparator size-optimal
//! 10-sorter (Codish et al., "25 comparators is optimal when sorting 9
//! inputs (and 29 for 10)"), and `10-sortd` — a depth-optimal 10-sorter
//! (depth 7, 31 comparators; Bundala & Závodný).
//!
//! Every network returned here is verified by the 0-1 principle in this
//! module's tests; the classic lists follow Knuth (TAOCP vol. 3, §5.3.4)
//! and the cited papers. The depth-optimal 9- and 10-channel entries were
//! found by a simulated-annealing search (since retired from this
//! repository), pinned here and 0-1-verified.

use crate::comparator::Network;

/// The best-known **size-optimal** sorting network for `n ≤ 10` channels
/// (proven optimal for all these sizes). Returns `None` for other sizes —
/// fall back to [`crate::generators::batcher_odd_even`].
///
/// Sizes: 0, 1, 3, 5, 9, 12, 16, 19, 25, 29 for n = 1 … 10.
pub fn best_size(n: usize) -> Option<Network> {
    let pairs: &[(usize, usize)] = match n {
        1 => &[],
        2 => &[(0, 1)],
        3 => &[(1, 2), (0, 2), (0, 1)],
        4 => &[(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)],
        5 => &[
            (0, 1),
            (3, 4),
            (2, 4),
            (2, 3),
            (1, 4),
            (0, 3),
            (0, 2),
            (1, 3),
            (1, 2),
        ],
        6 => &[
            (1, 2),
            (4, 5),
            (0, 2),
            (3, 5),
            (0, 1),
            (3, 4),
            (2, 5),
            (0, 3),
            (1, 4),
            (2, 4),
            (1, 3),
            (2, 3),
        ],
        7 => &[
            (1, 2),
            (3, 4),
            (5, 6),
            (0, 2),
            (3, 5),
            (4, 6),
            (0, 1),
            (4, 5),
            (2, 6),
            (0, 4),
            (1, 5),
            (0, 3),
            (2, 5),
            (1, 3),
            (2, 4),
            (2, 3),
        ],
        8 => &[
            (0, 1),
            (2, 3),
            (4, 5),
            (6, 7),
            (0, 2),
            (1, 3),
            (4, 6),
            (5, 7),
            (1, 2),
            (5, 6),
            (0, 4),
            (3, 7),
            (1, 5),
            (2, 6),
            (1, 4),
            (3, 6),
            (2, 4),
            (3, 5),
            (3, 4),
        ],
        9 => &[
            (0, 1),
            (3, 4),
            (6, 7),
            (1, 2),
            (4, 5),
            (7, 8),
            (0, 1),
            (3, 4),
            (6, 7),
            (0, 3),
            (3, 6),
            (0, 3),
            (1, 4),
            (4, 7),
            (1, 4),
            (2, 5),
            (5, 8),
            (2, 5),
            (1, 3),
            (5, 7),
            (2, 6),
            (4, 6),
            (2, 4),
            (2, 3),
            (5, 6),
        ],
        10 => &[
            (4, 9),
            (3, 8),
            (2, 7),
            (1, 6),
            (0, 5),
            (1, 4),
            (6, 9),
            (0, 3),
            (5, 8),
            (0, 2),
            (3, 6),
            (7, 9),
            (0, 1),
            (2, 4),
            (5, 7),
            (8, 9),
            (1, 2),
            (4, 6),
            (7, 8),
            (3, 5),
            (2, 5),
            (6, 8),
            (1, 3),
            (4, 7),
            (2, 3),
            (6, 7),
            (3, 4),
            (5, 6),
            (4, 5),
        ],
        _ => return None,
    };
    Some(Network::from_pairs(n, pairs.iter().copied()))
}

/// The best-known **depth-optimal** sorting network for `n ≤ 10` channels.
/// Depths: 0, 1, 3, 3, 5, 5, 6, 6, 7, 7 for n = 1 … 10 (all proven
/// optimal). Returns `None` for other sizes.
///
/// For `n ∈ {4, 7}` the networks are optimal in both measures, as the paper
/// notes. The `n = 9, 10` entries (depth 7) were found by the retired
/// simulated-annealing search, pinned here and 0-1-verified.
pub fn best_depth(n: usize) -> Option<Network> {
    match n {
        1..=4 => best_size(n), // also depth-optimal
        5 => Some(Network::from_pairs(
            5,
            // Depth-5 9-comparator 5-sorter (optimal in both measures).
            [
                (0, 1),
                (2, 3),
                (1, 3),
                (2, 4),
                (0, 2),
                (1, 4),
                (1, 2),
                (3, 4),
                (2, 3),
            ],
        )),
        6 => Some(Network::from_pairs(
            6,
            // Depth-5, 12-comparator 6-sorter (optimal in both measures).
            [
                (0, 5),
                (1, 3),
                (2, 4),
                (1, 2),
                (3, 4),
                (0, 3),
                (2, 5),
                (0, 1),
                (2, 3),
                (4, 5),
                (1, 2),
                (3, 4),
            ],
        )),
        7 => Some(Network::from_pairs(
            7,
            // Depth-6, 16-comparator 7-sorter (optimal in both measures;
            // the paper's 7-sort).
            [
                (0, 6),
                (2, 3),
                (4, 5),
                (0, 2),
                (1, 4),
                (3, 6),
                (0, 1),
                (2, 5),
                (3, 4),
                (1, 2),
                (4, 6),
                (2, 3),
                (4, 5),
                (1, 2),
                (3, 4),
                (5, 6),
            ],
        )),
        8 => Some(Network::from_pairs(
            8,
            // Depth-6, 19-comparator 8-sorter (optimal in both measures).
            [
                (0, 2),
                (1, 3),
                (4, 6),
                (5, 7),
                (0, 4),
                (1, 5),
                (2, 6),
                (3, 7),
                (0, 1),
                (2, 3),
                (4, 5),
                (6, 7),
                (2, 4),
                (3, 5),
                (1, 4),
                (3, 6),
                (1, 2),
                (3, 4),
                (5, 6),
            ],
        )),
        9 => Some(Network::from_pairs(9, DEPTH_OPT_9.iter().copied())),
        10 => Some(Network::from_pairs(10, DEPTH_OPT_10.iter().copied())),
        _ => None,
    }
}

/// Depth-7, 26-comparator network for 9 channels, found by the retired
/// simulated-annealing search (seed 1), pinned here and 0-1-verified.
const DEPTH_OPT_9: [(usize, usize); 26] = [
    (3, 8),
    (1, 4),
    (0, 5),
    (6, 7),
    (5, 6),
    (0, 4),
    (1, 3),
    (2, 7),
    (4, 6),
    (0, 5),
    (2, 3),
    (7, 8),
    (6, 8),
    (0, 7),
    (1, 2),
    (3, 5),
    (4, 7),
    (2, 3),
    (0, 1),
    (5, 6),
    (5, 7),
    (1, 2),
    (3, 4),
    (6, 7),
    (2, 3),
    (4, 5),
];

/// Depth-7, 31-comparator network for 10 channels — the paper's `10-sortd`
/// parameters, found by the retired simulated-annealing search (saturated
/// matchings, seed 712), pinned here and 0-1-verified.
const DEPTH_OPT_10: [(usize, usize); 31] = [
    (0, 1),
    (2, 3),
    (4, 5),
    (6, 7),
    (8, 9),
    (2, 6),
    (4, 7),
    (1, 9),
    (3, 5),
    (0, 8),
    (5, 7),
    (0, 6),
    (3, 9),
    (1, 8),
    (2, 4),
    (0, 2),
    (3, 6),
    (1, 4),
    (5, 8),
    (7, 9),
    (1, 2),
    (4, 6),
    (3, 5),
    (7, 8),
    (2, 3),
    (4, 5),
    (6, 7),
    (3, 4),
    (5, 6),
    (1, 2),
    (7, 8),
];

/// The paper's `10-sort#`: the size-optimal 29-comparator 10-sorter.
pub fn ten_sort_size() -> Network {
    best_size(10).expect("10 is covered")
}

/// The paper's `10-sortd`: a depth-optimal (depth 7) 10-sorter with 31
/// comparators.
pub fn ten_sort_depth() -> Network {
    best_depth(10).expect("10 is covered")
}

/// Proven optimal comparator counts for n = 1 … 10 (Codish et al. 2014 and
/// earlier results collected in Knuth).
pub const OPTIMAL_SIZES: [usize; 10] = [0, 1, 3, 5, 9, 12, 16, 19, 25, 29];

/// Proven optimal depths for n = 1 … 10 (Bundala & Závodný 2014).
pub const OPTIMAL_DEPTHS: [usize; 10] = [0, 1, 3, 3, 5, 5, 6, 6, 7, 7];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::zero_one_verify;

    #[test]
    fn all_size_optimal_networks_sort() {
        for n in 1..=10usize {
            let net = best_size(n).unwrap();
            zero_one_verify(&net)
                .unwrap_or_else(|e| panic!("best_size({n}): {e}"));
            assert_eq!(net.size(), OPTIMAL_SIZES[n - 1], "size of best_size({n})");
        }
        assert!(best_size(11).is_none());
    }

    #[test]
    fn all_depth_optimal_networks_sort() {
        for n in 1..=10usize {
            let net = best_depth(n).unwrap();
            zero_one_verify(&net)
                .unwrap_or_else(|e| panic!("best_depth({n}): {e}"));
            assert_eq!(
                net.depth(),
                OPTIMAL_DEPTHS[n - 1],
                "depth of best_depth({n})"
            );
        }
        assert!(best_depth(11).is_none());
    }

    #[test]
    fn paper_network_parameters() {
        // Table 8 relies on: 4-sort = 5 CE; 7-sort = 16 CE; 10-sort# = 29
        // CE; 10-sortd = 31 CE at depth 7.
        assert_eq!(best_size(4).unwrap().size(), 5);
        assert_eq!(best_size(7).unwrap().size(), 16);
        assert_eq!(ten_sort_size().size(), 29);
        assert_eq!(ten_sort_depth().size(), 31);
        assert_eq!(ten_sort_depth().depth(), 7);
    }

    #[test]
    fn size_optimal_never_beaten_by_depth_optimal() {
        for n in 1..=10usize {
            assert!(
                best_depth(n).unwrap().size() >= best_size(n).unwrap().size(),
                "n={n}"
            );
        }
    }
}
