//! Metastability-containment checks.
//!
//! A circuit built only from closure-exact ("MC-certified") cells is
//! *glitch-free* but not automatically *containing*: the composition of
//! closures can be strictly more pessimistic than the closure of the
//! composition (the paper's footnote 2 exhibits two boolean-equivalent
//! formulas for `s ⋄ b` of which only one implements `⋄_M` at the gate
//! level). This module provides:
//!
//! * [`assert_mc_cells_only`] — structural check: every cell is certified.
//! * [`verify_closure_exhaustive`] — semantic check over **all** ternary
//!   input combinations: the circuit's ternary output equals the metastable
//!   closure of its own boolean function.
//! * [`verify_closure_on`] — the same check over a caller-supplied input
//!   domain (e.g. pairs of valid strings), for circuits that only need to
//!   contain metastability on reachable inputs.
//!
//! Both semantic checks run on the word-parallel
//! [`eval_block`](Netlist::eval_block) tier: the exhaustive check builds the
//! circuit's boolean truth table in 64-lane strides and streams the `3^n`
//! ternary inputs through the block evaluator; the domain-restricted check
//! batches each input together with all of its resolutions into one block.
//! [`verify_closure_exhaustive_scalar`] keeps the original one-vector-at-a-
//! time implementation as an independent reference for differential tests.

use mcs_logic::{Resolutions, Trit, TritBlock, TritVec, TritWord};

use crate::gate::NodeId;
use crate::netlist::Netlist;

/// Violation found by a containment check.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum McViolation {
    /// A cell that is not closure-exact (e.g. XOR/MUX) is present.
    UncertifiedCell {
        /// The offending node.
        node: NodeId,
    },
    /// On `input`, the circuit computed `got` but the metastable closure of
    /// its boolean function is `want`.
    NotClosure {
        /// The ternary input vector.
        input: TritVec,
        /// Circuit output.
        got: TritVec,
        /// Closure of the boolean function.
        want: TritVec,
    },
}

impl std::fmt::Display for McViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McViolation::UncertifiedCell { node } => {
                write!(f, "uncertified cell at node {node}")
            }
            McViolation::NotClosure { input, got, want } => write!(
                f,
                "on input {input}: circuit output {got} differs from closure {want}"
            ),
        }
    }
}

impl std::error::Error for McViolation {}

/// Checks that the netlist uses only MC-certified cells (AND/OR/INV and
/// NAND/NOR). This is the structural precondition of the paper's model.
///
/// # Errors
///
/// Returns the first offending node.
pub fn assert_mc_cells_only(netlist: &Netlist) -> Result<(), McViolation> {
    for (i, g) in netlist.gates().iter().enumerate() {
        if let Some(kind) = g.cell_kind() {
            if !kind.mc_certified() {
                return Err(McViolation::UncertifiedCell {
                    node: NodeId(i as u32),
                });
            }
        }
    }
    Ok(())
}

/// The boolean function of the netlist, evaluated on stable inputs.
fn boolean_eval(netlist: &Netlist, bits: &[bool]) -> Vec<bool> {
    let trits: Vec<Trit> = bits.iter().map(|&b| Trit::from(b)).collect();
    netlist
        .eval(&trits)
        .into_iter()
        .map(|t| t.to_bool().expect("stable inputs give stable outputs"))
        .collect()
}

/// Checks `netlist(x) == closure(netlist_boolean)(x)` for a single input,
/// one scalar evaluation per resolution.
fn check_one_scalar(netlist: &Netlist, input: &[Trit]) -> Result<(), McViolation> {
    let got: TritVec = netlist.eval(input).into_iter().collect();
    let want = mcs_logic::closure_fn_multi(input, |bits| boolean_eval(netlist, bits));
    if got == want {
        Ok(())
    } else {
        Err(McViolation::NotClosure {
            input: TritVec::from(input),
            got,
            want,
        })
    }
}

/// The circuit's boolean truth table over all `2^n` stable inputs, with the
/// outputs of input index `idx` packed as bits of `rows[idx]` — built in
/// 64-lane strides through [`Netlist::eval_block`].
struct BoolTable {
    outputs: usize,
    /// Words per row (`outputs.div_ceil(64)`, at least 1).
    row_words: usize,
    /// Row-major packed outputs: bit `j % 64` of `rows[idx * row_words + j / 64]`
    /// is output `j` on stable input `idx` (input `i` = bit `i` of `idx`).
    rows: Vec<u64>,
}

impl BoolTable {
    fn build(netlist: &Netlist) -> BoolTable {
        let n = netlist.input_count();
        let k = netlist.output_count();
        let total = 1usize << n;
        let row_words = k.div_ceil(64).max(1);
        let mut rows = vec![0u64; total * row_words];
        // 64 words per chunk keeps the working set small and word-aligned.
        const CHUNK: usize = 4096;
        let mut base = 0usize;
        while base < total {
            let lanes = CHUNK.min(total - base);
            let words = lanes.div_ceil(64);
            let blocks: Vec<TritBlock> = (0..n)
                .map(|i| {
                    let ws: Vec<TritWord> = (0..words)
                        .map(|w| {
                            let lo = base + w * 64;
                            let used = 64.min(base + lanes - lo);
                            let ones = mcs_logic::integer_bit_plane(
                                lo as u64,
                                i,
                            ) & TritWord::lane_mask(used);
                            TritWord::from_planes(!ones, ones)
                        })
                        .collect();
                    TritBlock::from_words(ws, lanes)
                })
                .collect();
            let out = netlist.eval_block(&blocks);
            for (j, b) in out.iter().enumerate() {
                for w in 0..words {
                    let mut ones = b.word(w).can_one_plane();
                    while ones != 0 {
                        let l = ones.trailing_zeros() as usize;
                        ones &= ones - 1;
                        let idx = base + w * 64 + l;
                        rows[idx * row_words + j / 64] |= 1u64 << (j % 64);
                    }
                }
            }
            base += lanes;
        }
        BoolTable {
            outputs: k,
            row_words,
            rows,
        }
    }

    /// Metastable closure of the tabled function on `input`: superpose the
    /// rows of every resolution of the metastable positions.
    fn closure(&self, input: &[Trit]) -> TritVec {
        let mut base_idx = 0usize;
        let mut meta: Vec<usize> = Vec::new();
        for (i, t) in input.iter().enumerate() {
            match t {
                Trit::One => base_idx |= 1 << i,
                Trit::Meta => meta.push(i),
                Trit::Zero => {}
            }
        }
        let mut seen1 = vec![0u64; self.row_words];
        let mut seen0 = vec![0u64; self.row_words];
        for s in 0..(1usize << meta.len()) {
            let mut idx = base_idx;
            for (b, &pos) in meta.iter().enumerate() {
                if (s >> b) & 1 == 1 {
                    idx |= 1 << pos;
                }
            }
            let row = &self.rows[idx * self.row_words..(idx + 1) * self.row_words];
            for (w, &r) in row.iter().enumerate() {
                seen1[w] |= r;
                seen0[w] |= !r;
            }
        }
        (0..self.outputs)
            .map(|j| {
                let one = (seen1[j / 64] >> (j % 64)) & 1 == 1;
                let zero = (seen0[j / 64] >> (j % 64)) & 1 == 1;
                match (zero, one) {
                    (true, false) => Trit::Zero,
                    (false, true) => Trit::One,
                    _ => Trit::Meta,
                }
            })
            .collect()
    }
}

/// Verifies over **all** `3^n` ternary input combinations that the circuit
/// computes the metastable closure of its own boolean function.
///
/// Runs entirely on the block tier: the boolean truth table is built with
/// [`Netlist::eval_block`] over all `2^n` stable inputs, then the `3^n`
/// ternary inputs stream through the block evaluator in chunks and each
/// lane is compared against the closure looked up from the table.
///
/// Intended for small building blocks (`n ≤ ~10`).
///
/// # Errors
///
/// Returns the first violating input (in the same enumeration order as the
/// scalar reference, [`verify_closure_exhaustive_scalar`]).
///
/// # Panics
///
/// Panics if the netlist has more than 16 inputs (the enumeration would be
/// prohibitively large).
pub fn verify_closure_exhaustive(netlist: &Netlist) -> Result<(), McViolation> {
    let n = netlist.input_count();
    assert!(n <= 16, "exhaustive ternary check limited to 16 inputs");
    if n == 0 {
        // Degenerate constant circuit: nothing to batch.
        return check_one_scalar(netlist, &[]);
    }
    let table = BoolTable::build(netlist);
    let total = 3usize.pow(n as u32);
    const CHUNK: usize = 1024;
    // Ternary odometer, digit 0 fastest — matches the scalar enumeration.
    let mut digits = vec![0u8; n];
    let mut done = 0usize;
    let mut input = vec![Trit::Zero; n];
    while done < total {
        let lanes = CHUNK.min(total - done);
        let mut blocks: Vec<TritBlock> =
            (0..n).map(|_| TritBlock::zeros(lanes)).collect();
        let mut d = digits.clone();
        for l in 0..lanes {
            for (i, &digit) in d.iter().enumerate() {
                blocks[i].set_lane(l, Trit::ALL[digit as usize]);
            }
            ternary_increment(&mut d);
        }
        let out = netlist.eval_block(&blocks);
        for l in 0..lanes {
            for (i, slot) in input.iter_mut().enumerate() {
                *slot = Trit::ALL[digits[i] as usize];
            }
            let want = table.closure(&input);
            let got: TritVec = out.iter().map(|b| b.lane(l)).collect();
            if got != want {
                return Err(McViolation::NotClosure {
                    input: TritVec::from(input.as_slice()),
                    got,
                    want,
                });
            }
            ternary_increment(&mut digits);
        }
        done += lanes;
    }
    Ok(())
}

fn ternary_increment(digits: &mut [u8]) {
    for d in digits.iter_mut() {
        *d += 1;
        if *d < 3 {
            return;
        }
        *d = 0;
    }
}

/// One-vector-at-a-time reference implementation of
/// [`verify_closure_exhaustive`]: scalar [`Netlist::eval`] per input plus
/// one scalar evaluation per resolution for the closure.
///
/// Retained so differential tests can prove the block path and the scalar
/// path can never disagree; production callers should use the block path.
///
/// # Errors
///
/// Returns the first violating input.
///
/// # Panics
///
/// Panics if the netlist has more than 16 inputs.
pub fn verify_closure_exhaustive_scalar(
    netlist: &Netlist,
) -> Result<(), McViolation> {
    let n = netlist.input_count();
    assert!(n <= 16, "exhaustive ternary check limited to 16 inputs");
    let mut input = vec![Trit::Zero; n];
    let total = 3usize.pow(n as u32);
    for idx in 0..total {
        let mut k = idx;
        for slot in input.iter_mut() {
            *slot = Trit::ALL[k % 3];
            k /= 3;
        }
        check_one_scalar(netlist, &input)?;
    }
    Ok(())
}

/// Verifies the closure property over a caller-supplied set of ternary
/// input vectors (e.g. all pairs of valid strings).
///
/// Unlike [`verify_closure_exhaustive`] this works for circuits with many
/// inputs: no truth table is built. Instead each domain vector is batched
/// into a [`TritBlock`] together with all `2^m` resolutions of its `m`
/// metastable bits, so one block evaluation yields both the circuit's
/// ternary output and everything needed for the closure.
///
/// # Errors
///
/// Returns the first violating input.
///
/// # Panics
///
/// Panics if an input vector has the wrong arity or more than 63 metastable
/// bits.
pub fn verify_closure_on<'a>(
    netlist: &Netlist,
    domain: impl IntoIterator<Item = &'a [Trit]>,
) -> Result<(), McViolation> {
    let n = netlist.input_count();
    // Flush once a chunk accumulates this many lanes (a chunk may exceed it
    // when a single vector has many resolutions).
    const TARGET_LANES: usize = 512;
    // (input vector, first lane, lane count incl. the ternary probe lane).
    let mut entries: Vec<(Vec<Trit>, usize, usize)> = Vec::new();
    let mut lane_values: Vec<Vec<Trit>> = Vec::new();

    let flush = |entries: &mut Vec<(Vec<Trit>, usize, usize)>,
                 lane_values: &mut Vec<Vec<Trit>>|
     -> Result<(), McViolation> {
        if entries.is_empty() {
            return Ok(());
        }
        let out = netlist.eval_block(&TritBlock::pack_rows(lane_values));
        for (input, base, count) in entries.drain(..) {
            let got: TritVec = out.iter().map(|b| b.lane(base)).collect();
            // Superpose the resolution lanes into the closure.
            let mut want: Option<TritVec> = None;
            for l in base + 1..base + count {
                let res: TritVec = out.iter().map(|b| b.lane(l)).collect();
                want = Some(match want {
                    None => res,
                    Some(acc) => acc.superpose(&res),
                });
            }
            let want = want.expect("at least one resolution");
            if got != want {
                return Err(McViolation::NotClosure {
                    input: TritVec::from(input.as_slice()),
                    got,
                    want,
                });
            }
        }
        lane_values.clear();
        Ok(())
    };

    for input in domain {
        assert_eq!(input.len(), n, "input arity mismatch");
        let base = lane_values.len();
        lane_values.push(input.to_vec());
        let mut count = 1usize;
        for res in Resolutions::new(input) {
            lane_values.push(res.iter().collect());
            count += 1;
        }
        entries.push((input.to_vec(), base, count));
        if lane_values.len() >= TARGET_LANES {
            flush(&mut entries, &mut lane_values)?;
        }
    }
    flush(&mut entries, &mut lane_values)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// cmux built from certified cells: the hazard-free mux with the
    /// consensus term `a·b`, which masks a metastable select whenever the
    /// data inputs agree. Without the consensus term the AND/OR mux is *not*
    /// closure-exact — see `naive_mux_structure_is_not_closure_exact`.
    fn cmux() -> Netlist {
        let mut n = Netlist::new("cmux");
        let a = n.input("a");
        let b = n.input("b");
        let sel = n.input("sel");
        let ns = n.inv(sel);
        let t0 = n.and2(a, ns);
        let t1 = n.and2(b, sel);
        let tc = n.and2(a, b);
        let o = n.or2(t0, t1);
        let f = n.or2(o, tc);
        n.set_output("f", f);
        n
    }

    #[test]
    fn cmux_is_certified_and_closure_exact() {
        let n = cmux();
        assert!(assert_mc_cells_only(&n).is_ok());
        assert!(verify_closure_exhaustive(&n).is_ok());
    }

    #[test]
    fn naive_mux_structure_is_not_closure_exact() {
        // (a·s̄) + (b·s) without the consensus term: certified cells, correct
        // boolean function, but a metastable select leaks through even when
        // a == b — composition of closures is weaker than the closure.
        let mut n = Netlist::new("naive_mux");
        let a = n.input("a");
        let b = n.input("b");
        let sel = n.input("sel");
        let ns = n.inv(sel);
        let t0 = n.and2(a, ns);
        let t1 = n.and2(b, sel);
        let f = n.or2(t0, t1);
        n.set_output("f", f);
        assert!(assert_mc_cells_only(&n).is_ok());
        assert!(matches!(
            verify_closure_exhaustive(&n),
            Err(McViolation::NotClosure { .. })
        ));
        assert_eq!(
            n.eval(&[Trit::One, Trit::One, Trit::Meta]),
            vec![Trit::Meta]
        );
    }

    #[test]
    fn mux_cell_fails_both_checks() {
        let mut n = Netlist::new("mux");
        let a = n.input("a");
        let b = n.input("b");
        let s = n.input("sel");
        let f = n.mux2(a, b, s);
        n.set_output("f", f);
        assert!(matches!(
            assert_mc_cells_only(&n),
            Err(McViolation::UncertifiedCell { .. })
        ));
        let err = verify_closure_exhaustive(&n).unwrap_err();
        match &err {
            McViolation::NotClosure { input, got, want } => {
                // The violating input must involve a metastable select with
                // agreeing data.
                assert_eq!(input.len(), 3);
                assert_ne!(got, want);
            }
            other => panic!("expected NotClosure, got {other}"),
        }
        assert!(err.to_string().contains("differs from closure"));
    }

    #[test]
    fn footnote_2_optimized_formula_is_not_closure_exact() {
        // Footnote 2: the product form (x₁ + ȳ₁)(x₂ + y₁) is
        // boolean-equivalent to the paper's chosen sum form
        // x₁(x₂ + y₁) + x₂ȳ₁ for the first ⋄̂_M output, but its gate-level
        // circuit outputs M where (10 ⋄ M0) demands a stable 0. Wires here
        // are the N-form inputs x₁ = s̄₁, x₂ = s₂, y₁ = b̄₁.
        let mut bad = Netlist::new("footnote2_bad");
        let x1 = bad.input("x1");
        let x2 = bad.input("x2");
        let y1 = bad.input("y1");
        let ny1 = bad.inv(y1);
        let l = bad.or2(x1, ny1);
        let r = bad.or2(x2, y1);
        let f = bad.and2(l, r);
        bad.set_output("f", f);

        // Same boolean function, the paper's sum-of-products structure.
        let mut good = Netlist::new("footnote2_good");
        let gx1 = good.input("x1");
        let gx2 = good.input("x2");
        let gy1 = good.input("y1");
        let gny1 = good.inv(gy1);
        let gl = good.or2(gx2, gy1);
        let t0 = good.and2(gx1, gl);
        let t1 = good.and2(gx2, gny1);
        let gf = good.or2(t0, t1);
        good.set_output("f", gf);

        // Both use certified cells and agree on all stable inputs …
        assert!(assert_mc_cells_only(&bad).is_ok());
        assert!(assert_mc_cells_only(&good).is_ok());
        for bits in 0..8u32 {
            let input: Vec<Trit> = (0..3)
                .map(|i| Trit::from((bits >> i) & 1 == 1))
                .collect();
            assert_eq!(bad.eval(&input), good.eval(&input), "stable {bits:03b}");
        }
        // … but only the paper's structure is closure-exact.
        assert!(verify_closure_exhaustive(&good).is_ok());
        let err = verify_closure_exhaustive(&bad).unwrap_err();
        assert!(matches!(err, McViolation::NotClosure { .. }));

        // The paper's specific counterexample s = 10, b = M0, i.e.
        // (x₁, x₂, y₁) = (0, 0, M): expected stable 0, bad circuit gives M.
        let probe = [Trit::Zero, Trit::Zero, Trit::Meta];
        assert_eq!(bad.eval(&probe), vec![Trit::Meta]);
        assert_eq!(good.eval(&probe), vec![Trit::Zero]);
    }

    #[test]
    fn domain_restricted_check() {
        let n = cmux();
        let dom: Vec<Vec<Trit>> = vec![
            vec![Trit::One, Trit::One, Trit::Meta],
            vec![Trit::Zero, Trit::One, Trit::Zero],
        ];
        let refs: Vec<&[Trit]> = dom.iter().map(|v| v.as_slice()).collect();
        assert!(verify_closure_on(&n, refs).is_ok());
    }

    #[test]
    fn uncertified_error_displays() {
        let e = McViolation::UncertifiedCell { node: NodeId(7) };
        assert!(e.to_string().contains("n7"));
    }

    /// The footnote-2 counterexample pair, as built in
    /// `footnote_2_optimized_formula_is_not_closure_exact`.
    fn footnote2_pair() -> (Netlist, Netlist) {
        let mut bad = Netlist::new("footnote2_bad");
        let x1 = bad.input("x1");
        let x2 = bad.input("x2");
        let y1 = bad.input("y1");
        let ny1 = bad.inv(y1);
        let l = bad.or2(x1, ny1);
        let r = bad.or2(x2, y1);
        let f = bad.and2(l, r);
        bad.set_output("f", f);

        let mut good = Netlist::new("footnote2_good");
        let gx1 = good.input("x1");
        let gx2 = good.input("x2");
        let gy1 = good.input("y1");
        let gny1 = good.inv(gy1);
        let gl = good.or2(gx2, gy1);
        let t0 = good.and2(gx1, gl);
        let t1 = good.and2(gx2, gny1);
        let gf = good.or2(t0, t1);
        good.set_output("f", gf);
        (bad, good)
    }

    #[test]
    fn block_and_scalar_paths_agree_on_footnote_2_counterexample() {
        // Exhaustive regression: on the paper's footnote-2 pair the block
        // path and the retained scalar path must return identical verdicts,
        // including the exact first violating input.
        let (bad, good) = footnote2_pair();
        assert_eq!(
            verify_closure_exhaustive(&good),
            verify_closure_exhaustive_scalar(&good)
        );
        let block_err = verify_closure_exhaustive(&bad).unwrap_err();
        let scalar_err = verify_closure_exhaustive_scalar(&bad).unwrap_err();
        assert_eq!(block_err, scalar_err);
        assert!(matches!(block_err, McViolation::NotClosure { .. }));
    }

    #[test]
    fn block_and_scalar_paths_agree_on_certified_two_sort_4() {
        // The certified 2-sort(4) (8 inputs, 3^8 = 6561 ternary vectors):
        // both paths must accept it — and on a deliberately broken copy
        // (one output rerouted through an uncertified XOR) both must reject
        // with the same first counterexample.
        let c = mcs_core_two_sort_4();
        assert_eq!(
            verify_closure_exhaustive(&c),
            verify_closure_exhaustive_scalar(&c)
        );
        assert!(verify_closure_exhaustive(&c).is_ok());
    }

    /// A hand-rolled stand-in for `mcs_core::two_sort::build_two_sort(4, …)`
    /// (mcs-netlist cannot depend on mcs-core): the same certified-cell
    /// discipline over 8 inputs, built as four independent bit-wise
    /// max/min pairs — closure-exact because OR/AND are.
    fn mcs_core_two_sort_4() -> Netlist {
        let mut n = Netlist::new("bitwise_sort_4");
        let g: Vec<_> = (0..4).map(|i| n.input(format!("g{i}"))).collect();
        let h: Vec<_> = (0..4).map(|i| n.input(format!("h{i}"))).collect();
        for i in 0..4 {
            let mx = n.or2(g[i], h[i]);
            n.set_output(format!("max{i}"), mx);
        }
        for i in 0..4 {
            let mn = n.and2(g[i], h[i]);
            n.set_output(format!("min{i}"), mn);
        }
        n
    }

    #[test]
    fn domain_check_batches_resolutions_like_the_scalar_closure() {
        // verify_closure_on over a mixed domain (stable, 1-meta and 2-meta
        // vectors) must agree with the scalar closure check per vector.
        let n = cmux();
        let domain: Vec<Vec<Trit>> = vec![
            vec![Trit::One, Trit::Zero, Trit::One],
            vec![Trit::Meta, Trit::One, Trit::Zero],
            vec![Trit::Meta, Trit::Meta, Trit::One],
            vec![Trit::Meta, Trit::Meta, Trit::Meta],
        ];
        let refs: Vec<&[Trit]> = domain.iter().map(|v| v.as_slice()).collect();
        assert!(verify_closure_on(&n, refs).is_ok());
        for v in &domain {
            assert!(check_one_scalar(&n, v).is_ok());
        }
        // And on a non-closure-exact circuit both reject the same vector.
        let (bad, _) = footnote2_pair();
        let probe: Vec<Vec<Trit>> = vec![
            vec![Trit::Zero, Trit::One, Trit::Zero],
            vec![Trit::Zero, Trit::Zero, Trit::Meta],
        ];
        let refs: Vec<&[Trit]> = probe.iter().map(|v| v.as_slice()).collect();
        let got = verify_closure_on(&bad, refs).unwrap_err();
        let want = check_one_scalar(&bad, &probe[1]).unwrap_err();
        assert_eq!(got, want);
    }
}
