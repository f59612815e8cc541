//! Glitch (hazard) analysis for single-input transitions.
//!
//! The paper remarks that its circuits are "purely combinational and
//! glitch-free (as they are MC)". This module makes that checkable: during
//! a transition of one input bit, model the changing bit as `M` (an unknown
//! intermediate voltage). An output that reads the *same stable value*
//! before and after the transition must hold that value **throughout** —
//! if the ternary simulation reports `M` during the transition, the output
//! may glitch in real hardware.
//!
//! For closure-exact (MC) circuits this can never happen: the during-value
//! is the closure over both endpoint input vectors, and if both endpoints
//! agree the closure is their common value. Circuits with uncertified cells
//! (or with the footnote-2 formula structure) do glitch.

use mcs_logic::{Trit, TritBlock};

use crate::netlist::Netlist;

/// A potential glitch found by [`check_transition`] or
/// [`glitch_free_all_single_bit`].
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct Glitch {
    /// Index of the transitioning input.
    pub input: usize,
    /// The stable input vector before the transition.
    pub before: Vec<Trit>,
    /// Output port index that may glitch.
    pub output: usize,
    /// The stable value the output holds at both endpoints.
    pub held_value: Trit,
}

impl std::fmt::Display for Glitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "output {} may glitch (holds {}) while input {} transitions",
            self.output, self.held_value, self.input
        )
    }
}

impl std::error::Error for Glitch {}

/// Checks one single-bit transition: flips `input` of `before` and models
/// the in-flight value as `M`. Returns a [`Glitch`] for the first output
/// that is stable and equal at both endpoints but metastable mid-flight.
///
/// # Errors
///
/// Returns the first potential glitch.
///
/// # Panics
///
/// Panics if `before` has the wrong arity, `input` is out of range, or
/// `before[input]` is not stable.
pub fn check_transition(
    netlist: &Netlist,
    before: &[Trit],
    input: usize,
) -> Result<(), Glitch> {
    assert_eq!(before.len(), netlist.input_count(), "input arity");
    let old = before[input];
    let new = !old.to_bool().map(Trit::from).expect("transitioning bit must be stable");

    // One block evaluation with three lanes: before / after / during.
    let blocks: Vec<TritBlock> = before
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            if i == input {
                TritBlock::from_lanes(&[t, new, Trit::Meta])
            } else {
                TritBlock::splat(t, 3)
            }
        })
        .collect();
    let out = netlist.eval_block(&blocks);

    for (k, o) in out.iter().enumerate() {
        let (b, a, d) = (o.lane(0), o.lane(1), o.lane(2));
        if b == a && b.is_stable() && d.is_meta() {
            return Err(Glitch {
                input,
                before: before.to_vec(),
                output: k,
                held_value: b,
            });
        }
    }
    Ok(())
}

/// Checks every single-bit transition from every vector in `vectors`.
/// Returns the number of transitions checked.
///
/// All transitions of a vector are packed into one [`TritBlock`]
/// evaluation (lane 0: the vector itself; lanes `2t+1`, `2t+2`: the
/// after/during states of its `t`-th stable input), and vectors are
/// gathered into chunks so the words stay full — the sweep runs on the
/// word-parallel tier instead of three scalar evaluations per transition.
///
/// # Errors
///
/// Returns the first potential glitch.
pub fn glitch_free_all_single_bit<'a>(
    netlist: &Netlist,
    vectors: impl IntoIterator<Item = &'a [Trit]>,
) -> Result<u64, Glitch> {
    let n = netlist.input_count();
    // Flush once this many lanes have accumulated (a single vector may
    // exceed it; its 2n+1 lanes still go in one chunk).
    const TARGET_LANES: usize = 512;
    // (before vector, first lane, transitioning input indices).
    let mut entries: Vec<(Vec<Trit>, usize, Vec<usize>)> = Vec::new();
    let mut lane_values: Vec<Vec<Trit>> = Vec::new();

    let flush = |entries: &mut Vec<(Vec<Trit>, usize, Vec<usize>)>,
                 lane_values: &mut Vec<Vec<Trit>>|
     -> Result<(), Glitch> {
        if entries.is_empty() {
            return Ok(());
        }
        let out = netlist.eval_block(&TritBlock::pack_rows(lane_values));
        for (before, base, transitions) in entries.drain(..) {
            for (t, &input) in transitions.iter().enumerate() {
                for (k, o) in out.iter().enumerate() {
                    let b = o.lane(base);
                    let a = o.lane(base + 2 * t + 1);
                    let d = o.lane(base + 2 * t + 2);
                    if b == a && b.is_stable() && d.is_meta() {
                        return Err(Glitch {
                            input,
                            before: before.clone(),
                            output: k,
                            held_value: b,
                        });
                    }
                }
            }
        }
        lane_values.clear();
        Ok(())
    };

    let mut checked = 0;
    for before in vectors {
        assert_eq!(before.len(), n, "input arity");
        let transitions: Vec<usize> =
            (0..n).filter(|&i| before[i].is_stable()).collect();
        if transitions.is_empty() {
            continue;
        }
        checked += transitions.len() as u64;
        let base = lane_values.len();
        lane_values.push(before.to_vec());
        for &input in &transitions {
            let new = !before[input]
                .to_bool()
                .map(Trit::from)
                .expect("transitioning bit is stable");
            let mut after = before.to_vec();
            after[input] = new;
            lane_values.push(after);
            let mut during = before.to_vec();
            during[input] = Trit::Meta;
            lane_values.push(during);
        }
        entries.push((before.to_vec(), base, transitions));
        if lane_values.len() >= TARGET_LANES {
            flush(&mut entries, &mut lane_values)?;
        }
    }
    flush(&mut entries, &mut lane_values)?;
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic static-1 hazard: f = a·s̄ + b·s with a = b = 1 glitches
    /// while s transitions (missing consensus term).
    #[test]
    fn naive_mux_has_static_hazard() {
        let mut n = Netlist::new("naive_mux");
        let a = n.input("a");
        let b = n.input("b");
        let s = n.input("sel");
        let ns = n.inv(s);
        let t0 = n.and2(a, ns);
        let t1 = n.and2(b, s);
        let f = n.or2(t0, t1);
        n.set_output("f", f);
        let before = [Trit::One, Trit::One, Trit::Zero];
        let g = check_transition(&n, &before, 2).unwrap_err();
        assert_eq!(g.output, 0);
        assert_eq!(g.held_value, Trit::One);
        assert!(g.to_string().contains("may glitch"));
    }

    #[test]
    fn hazard_free_mux_passes() {
        // Adding the consensus term a·b removes the hazard.
        let mut n = Netlist::new("cmux");
        let a = n.input("a");
        let b = n.input("b");
        let s = n.input("sel");
        let ns = n.inv(s);
        let t0 = n.and2(a, ns);
        let t1 = n.and2(b, s);
        let tc = n.and2(a, b);
        let o = n.or2(t0, t1);
        let f = n.or2(o, tc);
        n.set_output("f", f);
        // All 8 stable vectors, all 3 transitions each.
        let vectors: Vec<Vec<Trit>> = (0..8u32)
            .map(|m| (0..3).map(|i| Trit::from((m >> i) & 1 == 1)).collect())
            .collect();
        let refs: Vec<&[Trit]> = vectors.iter().map(|v| v.as_slice()).collect();
        let checked = glitch_free_all_single_bit(&n, refs).expect("hazard-free");
        assert_eq!(checked, 24);
    }

    #[test]
    fn closure_exact_circuits_are_glitch_free_by_construction() {
        // Any circuit passing verify_closure_exhaustive is glitch-free for
        // single-bit transitions: spot-check with the paper's selection
        // formula structure.
        let mut n = Netlist::new("sum_form");
        let x1 = n.input("x1");
        let x2 = n.input("x2");
        let y1 = n.input("y1");
        let ny1 = n.inv(y1);
        let l = n.or2(x2, y1);
        let t0 = n.and2(x1, l);
        let t1 = n.and2(x2, ny1);
        let f = n.or2(t0, t1);
        n.set_output("f", f);
        crate::mc::verify_closure_exhaustive(&n).expect("closure-exact");
        let vectors: Vec<Vec<Trit>> = (0..8u32)
            .map(|m| (0..3).map(|i| Trit::from((m >> i) & 1 == 1)).collect())
            .collect();
        let refs: Vec<&[Trit]> = vectors.iter().map(|v| v.as_slice()).collect();
        assert!(glitch_free_all_single_bit(&n, refs).is_ok());
    }
}
