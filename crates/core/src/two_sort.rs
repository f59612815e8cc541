//! The complete `2-sort(B)` circuit of Figure 5, and simulation helpers.

use std::fmt;

use mcs_gray::ValidString;
use mcs_logic::{Trit, TritBlock, TritVec, TritWord};
use mcs_netlist::Netlist;

use crate::diamond::{DiamondOp, StatePair};
use crate::outm::{out_block, out_block_initial};
use crate::ppc::{prefix_network, PrefixTopology};

/// Builds the metastability-containing `2-sort(B)` circuit (Figure 5).
///
/// * Inputs (port order): `g0 … g{B−1}`, `h0 … h{B−1}` — two B-bit valid
///   strings, most significant (the paper's bit 1) first.
/// * Outputs: `max0 … max{B−1}`, `min0 … min{B−1}` —
///   `max^rg_M{g,h}` and `min^rg_M{g,h}`.
///
/// With the default [`PrefixTopology::LadnerFischer`] this is the paper's
/// circuit: depth `O(log B)` and exactly 13 / 55 / 169 / 407 gates for
/// B = 2 / 4 / 8 / 16. Other topologies trade area against depth (see the
/// ablation bench).
///
/// ```
/// use mcs_core::ppc::PrefixTopology;
/// use mcs_core::two_sort::build_two_sort;
///
/// let c = build_two_sort(16, PrefixTopology::LadnerFischer);
/// assert_eq!(c.gate_count(), 407);
/// ```
///
/// # Panics
///
/// Panics if `width` is 0 or exceeds 63.
pub fn build_two_sort(width: usize, topology: PrefixTopology) -> Netlist {
    build_two_sort_ext(width, topology, false)
}

/// [`build_two_sort`] with the footnote-1 optimisation toggle: when
/// `leaf_inverter_sharing` is set, prefix operators whose right operand is
/// a leaf pair `δ̂_i = (ḡ_i, h_i)` reuse the original input wire `g_i` as
/// the complement of `ḡ_i`, saving one inverter each. Functionally
/// identical (the tests verify both variants exhaustively); the paper's
/// published gate counts correspond to the *unoptimised* circuit.
///
/// ```
/// use mcs_core::ppc::PrefixTopology;
/// use mcs_core::two_sort::build_two_sort_ext;
///
/// let plain = build_two_sort_ext(16, PrefixTopology::LadnerFischer, false);
/// let shared = build_two_sort_ext(16, PrefixTopology::LadnerFischer, true);
/// assert_eq!(plain.gate_count(), 407);
/// assert!(shared.gate_count() < 407);
/// ```
///
/// # Panics
///
/// Panics if `width` is 0 or exceeds 63.
pub fn build_two_sort_ext(
    width: usize,
    topology: PrefixTopology,
    leaf_inverter_sharing: bool,
) -> Netlist {
    assert!(width > 0 && width <= 63, "width must be in 1..=63");
    let mut n = Netlist::new(format!("two_sort_{}_{}", width, topology.name()));
    let g: Vec<_> = (0..width).map(|i| n.input(format!("g{i}"))).collect();
    let h: Vec<_> = (0..width).map(|i| n.input(format!("h{i}"))).collect();

    // First column: the state before bit 0 is the initial state, so the
    // out_M block degenerates to one OR and one AND.
    let mut maxs = Vec::with_capacity(width);
    let mut mins = Vec::with_capacity(width);
    let (mx0, mn0) = out_block_initial(&mut n, g[0], h[0]);
    maxs.push(mx0);
    mins.push(mn0);

    if width > 1 {
        // δ̂_i = N(g_i h_i) = (ḡ_i, h_i) for i = 0 … B−2 (the last pair is
        // consumed directly by the last out_M column).
        let mut bypass: Vec<(mcs_netlist::NodeId, mcs_netlist::NodeId)> =
            Vec::new();
        let deltas: Vec<Vec<_>> = (0..width - 1)
            .map(|i| {
                let ginv = n.inv(g[i]);
                if leaf_inverter_sharing {
                    bypass.push((ginv, g[i]));
                }
                vec![ginv, h[i]]
            })
            .collect();
        let op = if leaf_inverter_sharing {
            DiamondOp::with_leaf_bypass(bypass)
        } else {
            DiamondOp::new()
        };
        let prefixes = prefix_network(&mut n, &op, &deltas, topology);
        for i in 1..width {
            let s = StatePair {
                x1: prefixes[i - 1][0],
                x2: prefixes[i - 1][1],
            };
            let (mx, mn) = out_block(&mut n, s, g[i], h[i]);
            maxs.push(mx);
            mins.push(mn);
        }
    }

    for (i, &mx) in maxs.iter().enumerate() {
        n.set_output(format!("max{i}"), mx);
    }
    for (i, &mn) in mins.iter().enumerate() {
        n.set_output(format!("min{i}"), mn);
    }
    n
}

/// Runs a `2-sort(B)` netlist on two valid strings, returning
/// `(max, min)` as raw ternary strings.
///
/// Works with any circuit following the [`build_two_sort`] port convention
/// (including the baseline implementations).
///
/// # Panics
///
/// Panics if the widths disagree with the netlist's port count.
pub fn simulate_two_sort(
    netlist: &Netlist,
    g: &ValidString,
    h: &ValidString,
) -> (TritVec, TritVec) {
    let width = g.width();
    assert_eq!(h.width(), width, "input widths differ");
    assert_eq!(netlist.input_count(), 2 * width, "port count mismatch");
    let mut inputs = Vec::with_capacity(2 * width);
    inputs.extend(g.bits().iter());
    inputs.extend(h.bits().iter());
    let out = netlist.eval(&inputs);
    let max: TritVec = out[..width].iter().copied().collect();
    let min: TritVec = out[width..].iter().copied().collect();
    (max, min)
}

/// Arbitrary-size batched variant of [`simulate_two_sort`]: any number of
/// input pairs stream through one [`Netlist::eval_block`] call. Returns
/// `(max, min)` per pair, in order.
///
/// # Panics
///
/// Panics if the widths are inconsistent or the netlist's port count does
/// not match.
pub fn simulate_two_sort_block(
    netlist: &Netlist,
    pairs: &[(ValidString, ValidString)],
) -> Vec<(TritVec, TritVec)> {
    assert!(!pairs.is_empty(), "at least one pair");
    let width = pairs[0].0.width();
    assert_eq!(netlist.input_count(), 2 * width, "port count mismatch");
    let lanes = pairs.len();
    for (g, h) in pairs {
        assert_eq!(g.width(), width, "inconsistent widths");
        assert_eq!(h.width(), width, "inconsistent widths");
    }
    // Column-major packing: one contiguous lane vector per input port.
    let mut col: Vec<Trit> = Vec::with_capacity(lanes);
    let mut blocks: Vec<TritBlock> = Vec::with_capacity(2 * width);
    for i in 0..width {
        col.clear();
        col.extend(pairs.iter().map(|(g, _)| g.bits()[i]));
        blocks.push(TritBlock::from_lanes(&col));
    }
    for i in 0..width {
        col.clear();
        col.extend(pairs.iter().map(|(_, h)| h.bits()[i]));
        blocks.push(TritBlock::from_lanes(&col));
    }
    let out = netlist.eval_block(&blocks);
    // Column-major unpacking through the same contiguous form.
    let cols: Vec<Vec<Trit>> = out.iter().map(TritBlock::to_lanes).collect();
    (0..lanes)
        .map(|lane| {
            let max: TritVec = (0..width).map(|i| cols[i][lane]).collect();
            let min: TritVec =
                (0..width).map(|i| cols[width + i][lane]).collect();
            (max, min)
        })
        .collect()
}

/// Largest width [`verify_two_sort_exhaustive`] accepts: the pair count
/// grows as `4^width` (≈ 10⁹ pairs at width 14).
pub const MAX_EXHAUSTIVE_WIDTH: usize = 14;

/// Why [`verify_two_sort_exhaustive`] rejected or failed a circuit.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum TwoSortVerifyError {
    /// The width is 0 or exceeds [`MAX_EXHAUSTIVE_WIDTH`]; the enumeration
    /// would be empty or prohibitively large.
    WidthUnsupported {
        /// The requested width.
        width: usize,
    },
    /// The first pair of valid strings the circuit mis-sorts.
    Mismatch {
        /// First input.
        g: ValidString,
        /// Second input.
        h: ValidString,
        /// Circuit max output.
        got_max: TritVec,
        /// Circuit min output.
        got_min: TritVec,
        /// Specified max (`max^rg_M`).
        want_max: TritVec,
        /// Specified min (`min^rg_M`).
        want_min: TritVec,
    },
}

impl fmt::Display for TwoSortVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TwoSortVerifyError::WidthUnsupported { width } => write!(
                f,
                "exhaustive verification limited to widths 1..={MAX_EXHAUSTIVE_WIDTH} \
                 (got {width}; the pair count grows as 4^width)"
            ),
            TwoSortVerifyError::Mismatch {
                g,
                h,
                got_max,
                got_min,
                want_max,
                want_min,
            } => write!(
                f,
                "mismatch for g={g} h={h}: got ({got_max}, {got_min}), \
                 want ({want_max}, {want_min})"
            ),
        }
    }
}

impl std::error::Error for TwoSortVerifyError {}

/// Exhaustively checks a 2-sort netlist against the order specification on
/// **all pairs** of valid strings of the given width, entirely on the
/// word-parallel block tier. Returns the number of pairs checked.
///
/// The whole `h` axis is packed into [`TritBlock`] columns once (lane =
/// rank, ascending); for each `g` the circuit is evaluated over every `h`
/// in one [`Netlist::eval_block`] call. Because the lanes are rank-ordered
/// and the specification is exactly the rank order (`max` is whichever
/// input has the larger rank — [`mcs_gray::order::max_min_spec`]), the
/// expected outputs are a word-level select between the `g` splat and the
/// `h` column at the contiguous lane threshold `rank(h) ≤ rank(g)`, and
/// the comparison is word-equality — no per-lane work on the happy path.
///
/// # Errors
///
/// [`TwoSortVerifyError::WidthUnsupported`] if `width` is 0 or exceeds
/// [`MAX_EXHAUSTIVE_WIDTH`] (formerly a panic); otherwise the first
/// mismatching pair.
///
/// # Panics
///
/// Panics if the netlist's port count does not match `width`.
pub fn verify_two_sort_exhaustive(
    netlist: &Netlist,
    width: usize,
) -> Result<u64, TwoSortVerifyError> {
    if width == 0 || width > MAX_EXHAUSTIVE_WIDTH {
        return Err(TwoSortVerifyError::WidthUnsupported { width });
    }
    assert_eq!(netlist.input_count(), 2 * width, "port count mismatch");
    let all: Vec<ValidString> = ValidString::enumerate(width).collect();
    let lanes = all.len(); // lane index == rank, by enumeration order
    let words = lanes.div_ceil(64);

    // Input blocks: ports 0..width are the g splats (refilled per g),
    // ports width..2*width are the h columns (packed once).
    let mut inputs: Vec<TritBlock> = Vec::with_capacity(2 * width);
    for _ in 0..width {
        inputs.push(TritBlock::zeros(lanes));
    }
    for i in 0..width {
        let col: Vec<_> = all.iter().map(|h| h.bits()[i]).collect();
        inputs.push(TritBlock::from_lanes(&col));
    }

    let mut checked = 0u64;
    for g in &all {
        for i in 0..width {
            inputs[i].fill(g.bits()[i]);
        }
        let out = netlist.eval_block(&inputs);
        let g_rank = g.rank() as usize;
        for w in 0..words {
            // Lanes (ranks) `≤ g_rank` within this word: there, max = g.
            let base = w * 64;
            let le_mask = if g_rank >= base + 63 {
                !0u64
            } else if g_rank < base {
                0
            } else {
                TritWord::lane_mask(g_rank - base + 1)
            };
            let mut diff = 0u64;
            for i in 0..width {
                let gw = inputs[i].word(w);
                let hw = inputs[width + i].word(w);
                let want_max = TritWord::select(le_mask, gw, hw);
                let want_min = TritWord::select(le_mask, hw, gw);
                for (got, want) in [
                    (out[i].word(w), want_max),
                    (out[width + i].word(w), want_min),
                ] {
                    diff |= (got.can_zero_plane() ^ want.can_zero_plane())
                        | (got.can_one_plane() ^ want.can_one_plane());
                }
            }
            if diff != 0 {
                // Accumulated over every output bit of the word, so the
                // lowest set bit really is the first mismatching pair.
                let lane = base + diff.trailing_zeros() as usize;
                let h = &all[lane];
                let (wmx, wmn) = mcs_gray::order::max_min_spec(g, h);
                return Err(TwoSortVerifyError::Mismatch {
                    g: g.clone(),
                    h: h.clone(),
                    got_max: (0..width).map(|j| out[j].lane(lane)).collect(),
                    got_min: (0..width)
                        .map(|j| out[width + j].lane(lane))
                        .collect(),
                    want_max: wmx.bits().clone(),
                    want_min: wmn.bits().clone(),
                });
            }
        }
        checked += lanes as u64;
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_gray::order::max_min_spec;
    use mcs_netlist::mc::assert_mc_cells_only;

    #[test]
    fn paper_gate_counts_table_7() {
        // The headline numbers: 13 / 55 / 169 / 407 gates.
        for (width, gates) in [(2usize, 13usize), (4, 55), (8, 169), (16, 407)] {
            let c = build_two_sort(width, PrefixTopology::LadnerFischer);
            assert_eq!(c.gate_count(), gates, "2-sort({width})");
        }
    }

    #[test]
    fn width_1_is_an_or_and_pair() {
        let c = build_two_sort(1, PrefixTopology::LadnerFischer);
        assert_eq!(c.gate_count(), 2);
        let g = ValidString::stable(1, 0).unwrap();
        let h = ValidString::stable(1, 1).unwrap();
        let (mx, mn) = simulate_two_sort(&c, &g, &h);
        assert_eq!(mx.to_string(), "1");
        assert_eq!(mn.to_string(), "0");
    }

    #[test]
    fn gate_count_is_linear_in_width() {
        // O(B) gates: the increment per extra bit is bounded (≤ 31 = one
        // diamond + one out block + inverter + one extra output-stage op).
        let mut prev = build_two_sort(2, PrefixTopology::LadnerFischer).gate_count();
        for width in 3..=32usize {
            let now = build_two_sort(width, PrefixTopology::LadnerFischer).gate_count();
            assert!(now > prev, "monotone");
            assert!(now - prev <= 31, "width {width} jumped by {}", now - prev);
            prev = now;
        }
    }

    #[test]
    fn uses_only_mc_certified_cells() {
        for width in [2usize, 5, 16] {
            let c = build_two_sort(width, PrefixTopology::LadnerFischer);
            assert!(assert_mc_cells_only(&c).is_ok());
        }
    }

    #[test]
    fn depth_grows_logarithmically() {
        let d4 = build_two_sort(4, PrefixTopology::LadnerFischer).depth();
        let d16 = build_two_sort(16, PrefixTopology::LadnerFischer).depth();
        let d32 = build_two_sort(32, PrefixTopology::LadnerFischer).depth();
        let d64 = build_two_sort(63, PrefixTopology::LadnerFischer).depth();
        assert!(d16 > d4);
        // Doubling the width adds a constant number of levels.
        assert!(d32 - d16 <= 6, "d32={d32} d16={d16}");
        assert!(d64 - d32 <= 6, "d63={d64} d32={d32}");
    }

    #[test]
    fn exhaustive_width_1_to_6() {
        for width in 1..=6usize {
            let c = build_two_sort(width, PrefixTopology::LadnerFischer);
            let checked = verify_two_sort_exhaustive(&c, width).unwrap();
            let n = ValidString::count(width);
            assert_eq!(checked, n * n, "width {width}");
        }
    }

    #[test]
    fn exhaustive_width_8_batched() {
        let c = build_two_sort(8, PrefixTopology::LadnerFischer);
        let checked = verify_two_sort_exhaustive(&c, 8).unwrap();
        assert_eq!(checked, 511 * 511);
    }

    #[test]
    fn all_topologies_are_functionally_equivalent() {
        for topology in PrefixTopology::ALL {
            let c = build_two_sort(5, topology);
            verify_two_sort_exhaustive(&c, 5)
                .unwrap_or_else(|e| panic!("{}: {e}", topology.name()));
        }
    }

    #[test]
    fn wide_inputs_random_spotcheck() {
        // Width 32: random valid-string pairs against the spec.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let width = 32usize;
        let c = build_two_sort(width, PrefixTopology::LadnerFischer);
        let mut rng = StdRng::seed_from_u64(0x2504_7318);
        let max_rank = (1u64 << (width + 1)) - 2;
        for _ in 0..500 {
            let g = ValidString::from_rank(width, rng.gen_range(0..=max_rank)).unwrap();
            let h = ValidString::from_rank(width, rng.gen_range(0..=max_rank)).unwrap();
            let (mx, mn) = simulate_two_sort(&c, &g, &h);
            let (wmx, wmn) = max_min_spec(&g, &h);
            assert_eq!(mx, *wmx.bits(), "max of {g},{h}");
            assert_eq!(mn, *wmn.bits(), "min of {g},{h}");
        }
    }

    #[test]
    fn outputs_are_valid_strings() {
        let c = build_two_sort(6, PrefixTopology::LadnerFischer);
        for g in ValidString::enumerate(6).step_by(7) {
            for h in ValidString::enumerate(6).step_by(5) {
                let (mx, mn) = simulate_two_sort(&c, &g, &h);
                assert!(ValidString::new(mx).is_ok());
                assert!(ValidString::new(mn).is_ok());
            }
        }
    }

    #[test]
    fn footnote_1_variant_is_equivalent_and_smaller() {
        // Exhaustive equivalence for small widths …
        for width in 2..=6usize {
            let opt = build_two_sort_ext(width, PrefixTopology::LadnerFischer, true);
            verify_two_sort_exhaustive(&opt, width).unwrap();
        }
        // … and the inverter savings grow with B: one inverter per prefix
        // operator whose right operand is a leaf δ̂ (including leaves that
        // pass through into inner recursion levels) — B − 2 in total.
        for (width, saved) in [(2usize, 0usize), (4, 2), (8, 6), (16, 14)] {
            let plain =
                build_two_sort_ext(width, PrefixTopology::LadnerFischer, false);
            let opt =
                build_two_sort_ext(width, PrefixTopology::LadnerFischer, true);
            assert_eq!(
                plain.gate_count() - opt.gate_count(),
                saved,
                "width {width}"
            );
        }
    }

    #[test]
    fn exhaustive_width_12_runs_on_the_block_tier() {
        // The lifted cap: all (2^13 − 1)² ≈ 67M pairs at width 12, checked
        // word-parallel. This is the issue's acceptance bar.
        let width = 12usize;
        let c = build_two_sort(width, PrefixTopology::LadnerFischer);
        let checked = verify_two_sort_exhaustive(&c, width).unwrap();
        let n = ValidString::count(width);
        assert_eq!(checked, n * n);
    }

    #[test]
    fn width_cap_is_an_error_not_a_panic() {
        // Width above MAX_EXHAUSTIVE_WIDTH (and width 0) must be reported,
        // not asserted.
        let c = build_two_sort(4, PrefixTopology::LadnerFischer);
        for bad in [0usize, MAX_EXHAUSTIVE_WIDTH + 1, 63] {
            match verify_two_sort_exhaustive(&c, bad) {
                Err(TwoSortVerifyError::WidthUnsupported { width }) => {
                    assert_eq!(width, bad);
                }
                other => panic!("expected WidthUnsupported, got {other:?}"),
            }
        }
        let msg = verify_two_sort_exhaustive(&c, MAX_EXHAUSTIVE_WIDTH + 1)
            .unwrap_err()
            .to_string();
        assert!(msg.contains(&MAX_EXHAUSTIVE_WIDTH.to_string()), "{msg}");
    }

    #[test]
    fn mismatch_error_reports_the_offending_pair() {
        // A "2-sort" that swaps max and min fails immediately, and the
        // error carries a genuine counterexample.
        let mut swapped = Netlist::new("swapped");
        let g0 = swapped.input("g0");
        let h0 = swapped.input("h0");
        let mx = swapped.and2(g0, h0); // wrong: AND is min
        let mn = swapped.or2(g0, h0);
        swapped.set_output("max0", mx);
        swapped.set_output("min0", mn);
        match verify_two_sort_exhaustive(&swapped, 1) {
            Err(TwoSortVerifyError::Mismatch { g, h, got_max, want_max, .. }) => {
                let (wmx, _) = max_min_spec(&g, &h);
                assert_eq!(&want_max, wmx.bits());
                assert_ne!(got_max, want_max);
            }
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn closure_check_block_and_scalar_verdicts_agree_on_two_sort_4() {
        // The issue's regression: the certified 2-sort(4) must get the
        // *identical verdict* from the old scalar closure path and the new
        // block path over all 3^8 ternary inputs — here, closure-exact.
        use mcs_netlist::mc::{
            verify_closure_exhaustive, verify_closure_exhaustive_scalar,
        };
        let c = build_two_sort(4, PrefixTopology::LadnerFischer);
        let block = verify_closure_exhaustive(&c);
        let scalar = verify_closure_exhaustive_scalar(&c);
        assert_eq!(block, scalar);
        assert!(block.is_ok(), "2-sort(4) implements the closure: {block:?}");
        // And on the valid-string domain (where containment is claimed),
        // the block-batched domain check passes.
        use mcs_netlist::mc::verify_closure_on;
        let all: Vec<ValidString> = ValidString::enumerate(4).collect();
        let domain: Vec<Vec<mcs_logic::Trit>> = all
            .iter()
            .flat_map(|g| {
                all.iter().map(move |h| {
                    let mut v: Vec<mcs_logic::Trit> =
                        g.bits().iter().collect();
                    v.extend(h.bits().iter());
                    v
                })
            })
            .collect();
        let refs: Vec<&[mcs_logic::Trit]> =
            domain.iter().map(|v| v.as_slice()).collect();
        verify_closure_on(&c, refs).expect("MC on valid-string pairs");
    }

    #[test]
    fn block_simulation_agrees_with_scalar_past_64_pairs() {
        let c = build_two_sort(5, PrefixTopology::LadnerFischer);
        let all: Vec<ValidString> = ValidString::enumerate(5).collect();
        let pairs: Vec<(ValidString, ValidString)> = all
            .iter()
            .flat_map(|g| all.iter().map(move |h| (g.clone(), h.clone())))
            .take(300)
            .collect();
        let blocked = simulate_two_sort_block(&c, &pairs);
        assert_eq!(blocked.len(), 300);
        for ((g, h), out) in pairs.iter().zip(&blocked) {
            assert_eq!(&simulate_two_sort(&c, g, h), out);
        }
    }

    #[test]
    fn batch_and_scalar_agree() {
        let c = build_two_sort(4, PrefixTopology::LadnerFischer);
        let pairs: Vec<(ValidString, ValidString)> = ValidString::enumerate(4)
            .step_by(2)
            .zip({
                let mut v: Vec<ValidString> = ValidString::enumerate(4).collect();
                v.reverse();
                v.into_iter().step_by(2)
            })
            .take(40)
            .collect();
        let batched = simulate_two_sort_block(&c, &pairs);
        for ((g, h), (bmx, bmn)) in pairs.iter().zip(batched) {
            let (smx, smn) = simulate_two_sort(&c, g, h);
            assert_eq!(bmx, smx);
            assert_eq!(bmn, smn);
        }
    }
}
