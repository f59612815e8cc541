//! Kernel conformance suite: every plane-kernel compile tier is
//! bit-identical.
//!
//! The tape's plane kernels ([`mcs::logic::plane::kernel`]) are one set of
//! `u64` gate formulas compiled in two tiers (baseline and AVX2), and the
//! tier choice must be *unobservable* in the output: for every netlist,
//! every plane width, and every lane count — including the masked-tail
//! edge grid (0, 1, 63, 64, 65, 1000 lanes) — both tiers produce
//! byte-identical plane words, and both agree lane-for-lane with the
//! [`Netlist::eval_block`] interpreter. That includes metastability
//! poisoning: an `M` operand must poison XOR / MUX / AO21 outputs
//! identically under either tier.
//!
//! The suite honours the `MCS_KERNEL` environment override by *restricting*
//! the kernels under test to the forced tier (plus the scalar reference it
//! is compared against), so CI can run the whole file once per tier and a
//! forced run is never silently vacuous.

use mcs::core::{selection, SelectionInputs};
use mcs::logic::plane::kernel::{self, ops, GateOp, KernelId, UnknownKernel};
use mcs::logic::{PlaneWidth, Trit, TritBlock};
use mcs::netlist::{EvalTape, Netlist, TapeOp};
use proptest::prelude::*;

/// Recipe for one random gate: cell selector plus three source selectors.
#[derive(Clone, Debug)]
struct GateRecipe {
    kind: u8,
    a: usize,
    b: usize,
    c: usize,
}

/// Random recipes over the full cell set (kinds 0..12): certified cells,
/// constants, and every pessimistic cell, plus planted selection cores
/// (kind 12) that the tape fuses — so every `TapeOp` kernel body is
/// exercised under every backend.
fn full_strategy(
    max_gates: usize,
) -> impl Strategy<Value = (usize, Vec<GateRecipe>)> {
    (2usize..=5).prop_flat_map(move |inputs| {
        let gates = proptest::collection::vec(
            (0u8..13, 0usize..1000, 0usize..1000, 0usize..1000)
                .prop_map(|(kind, a, b, c)| GateRecipe { kind, a, b, c }),
            1..max_gates,
        );
        (Just(inputs), gates)
    })
}

/// Materialises a recipe into a netlist (same scheme as
/// `tape_differential.rs`): sources index any previously created node, so
/// the circuit is always well-formed and acyclic.
fn build(inputs: usize, recipes: &[GateRecipe]) -> Netlist {
    let mut n = Netlist::new("random");
    let mut nodes = Vec::new();
    for i in 0..inputs {
        nodes.push(n.input(format!("i{i}")));
    }
    for r in recipes {
        let a = nodes[r.a % nodes.len()];
        let b = nodes[r.b % nodes.len()];
        let c = nodes[r.c % nodes.len()];
        let out = match r.kind {
            0 => n.and2(a, b),
            1 => n.or2(a, b),
            2 => n.inv(a),
            3 => n.nand2(a, b),
            4 => n.nor2(a, b),
            5 => n.constant(false),
            6 => n.constant(true),
            7 => n.xor2(a, b),
            8 => n.xnor2(a, b),
            9 => n.mux2(a, b, c),
            10 => n.andnot2(a, b),
            11 => n.ao21(a, b, c),
            _ => {
                // The paper's selection core with an inverter on `sel2`;
                // only the root is kept, so the tape fuses it.
                let sel2 = n.inv(nodes[(r.c / 7) % nodes.len()]);
                selection(&mut n, SelectionInputs { a, b, sel1: c, sel2 })
            }
        };
        nodes.push(out);
    }
    for (k, &node) in nodes.iter().rev().take(3).enumerate() {
        n.set_output(format!("o{k}"), node);
    }
    n.set_output("o_in", nodes[0]);
    n
}

/// Deterministic ternary input blocks spanning `lanes` lanes.
fn input_blocks(inputs: usize, seed_bits: &[u8], lanes: usize) -> Vec<TritBlock> {
    (0..inputs)
        .map(|i| {
            TritBlock::from_lanes(
                &(0..lanes)
                    .map(|lane| {
                        Trit::ALL[seed_bits[(lane * inputs + i) % seed_bits.len()]
                            as usize]
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// The masked-tail edge grid: empty, single-lane, one-off-the-word
/// boundary on both sides, exactly one word, and a many-word count that is
/// not a multiple of 64.
const EDGE_LANES: [usize; 6] = [0, 1, 63, 64, 65, 1000];

/// The tiers this run must prove conformant: every available tier by
/// default; under `MCS_KERNEL` the forced tier plus the scalar reference.
/// Always contains `Scalar`, so a forced-AVX2 run still compares against
/// the baseline build rather than only itself.
fn kernels_under_test() -> Vec<KernelId> {
    let mut ks = match kernel::from_env().expect("MCS_KERNEL must parse") {
        Some(k) => vec![KernelId::Scalar, k],
        None => kernel::kernels(),
    };
    ks.dedup();
    ks
}

/// Asserts that under every kernel under test and every plane width, the
/// tape agrees with `eval_block` lane for lane — which also proves the
/// tiers agree with *each other* byte for byte.
fn assert_kernels_match(n: &Netlist, tape: &EvalTape, inputs: &[TritBlock]) {
    let want = n.eval_block(inputs);
    for k in kernels_under_test() {
        for width in PlaneWidth::ALL {
            let mut scratch = tape
                .try_scratch(width, k)
                .expect("kernels_under_test() only lists available tiers");
            let got = tape
                .try_eval_block_with(inputs, &mut scratch)
                .expect("inputs fit the tape");
            assert_eq!(want.len(), got.len());
            for (out, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(w.lanes(), g.lanes(), "output {out} lane count");
                if let Some(lane) = w.first_mismatch(g) {
                    panic!(
                        "kernel {k} width {width} output {out} lane {lane}: \
                         eval_block {:?}, tape {:?}",
                        w.lane(lane),
                        g.lane(lane)
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random full-cell-set netlists: every tier × every plane width is
    /// lane-for-lane identical to the interpreter on a >64-lane block
    /// (full words plus a masked tail in the same evaluation).
    #[test]
    fn every_kernel_is_lane_for_lane_equivalent(
        (inputs, recipes) in full_strategy(40),
        seed_bits in proptest::collection::vec(0u8..3, 500),
    ) {
        let n = build(inputs, &recipes);
        let tape = EvalTape::compile(&n);
        assert_kernels_match(&n, &tape, &input_blocks(inputs, &seed_bits, 200));
    }

    /// The masked-tail edge grid through one reused scratch per tier: a
    /// 1000-lane evaluation dirties the scratch before shorter and empty
    /// evaluations reuse it, so a tier that leaked stale tail bits between
    /// calls would be caught here. Proves per-tier statelessness of
    /// `TapeScratch` reuse.
    #[test]
    fn edge_lane_counts_with_scratch_reuse_per_kernel(
        (inputs, recipes) in full_strategy(25),
        seed_bits in proptest::collection::vec(0u8..3, 300),
    ) {
        let n = build(inputs, &recipes);
        let tape = EvalTape::compile(&n);
        for k in kernels_under_test() {
            for width in PlaneWidth::ALL {
                let mut scratch = tape.try_scratch(width, k)
                    .expect("kernels_under_test() only lists available tiers");
                prop_assert_eq!(scratch.kernel(), k);
                for &lanes in EDGE_LANES.iter().rev() {
                    let blocks = input_blocks(inputs, &seed_bits, lanes);
                    let want = n.eval_block(&blocks);
                    let got = tape.try_eval_block_with(&blocks, &mut scratch)
                        .expect("inputs fit the tape");
                    for (out, (w, g)) in want.iter().zip(&got).enumerate() {
                        prop_assert_eq!(w.lanes(), g.lanes());
                        prop_assert_eq!(
                            w.first_mismatch(g),
                            None,
                            "kernel {} output {} at {} lanes, width {}",
                            k, out, lanes, width
                        );
                    }
                }
            }
        }
    }
}

/// Metastability containment is backend-invariant: on input vectors that
/// mix `M` into every port pattern, the poisoning cells (XOR, XNOR, MUX,
/// ANDNOT, AO21) and the certified cells propagate `M` identically under
/// every tier. The 3^3 = 27 exhaustive ternary patterns are tiled past a
/// word boundary so full-word lanes and masked tail lanes both carry `M`.
#[test]
fn meta_poison_propagates_identically_under_every_kernel() {
    let mut n = Netlist::new("poison");
    let a = n.input("a");
    let b = n.input("b");
    let c = n.input("c");
    let cells = [
        n.and2(a, b),
        n.or2(a, b),
        n.inv(a),
        n.nand2(a, b),
        n.nor2(a, b),
        n.xor2(a, b),
        n.xnor2(a, b),
        n.mux2(a, b, c),
        n.andnot2(a, b),
        n.ao21(a, b, c),
    ];
    for (k, &cell) in cells.iter().enumerate() {
        n.set_output(format!("o{k}"), cell);
    }

    // All 27 ternary patterns over (a, b, c), tiled out to 130 lanes: two
    // full 64-lane words plus a 2-lane masked tail.
    let lanes = 130usize;
    let pattern = |i: usize| Trit::ALL[i % 3];
    let blocks: Vec<TritBlock> = (0..3)
        .map(|port| {
            TritBlock::from_lanes(
                &(0..lanes)
                    .map(|lane| pattern(lane / 3usize.pow(port as u32)))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();

    let tape = EvalTape::compile(&n);
    assert_kernels_match(&n, &tape, &blocks);
}

/// The fused selection op is the paper's selection circuit: on all 3^4
/// ternary pin combinations, `ops::Sel` equals [`Netlist::eval`] of
/// `mcs_core::selection` with an inverter on `sel2`, and the compiled tape
/// of that netlist — one fused op — agrees under every tier.
#[test]
fn sel_is_the_selection_circuit_with_an_inverter_on_sel2() {
    let mut n = Netlist::new("selection");
    let [a, b, sel1, t] = ["a", "b", "sel1", "t"].map(|p| n.input(p));
    let sel2 = n.inv(t);
    let f = selection(&mut n, SelectionInputs { a, b, sel1, sel2 });
    n.set_output("f", f);
    let splat = |trit: Trit| match trit {
        Trit::Zero => (!0u64, 0u64),
        Trit::One => (0, !0),
        Trit::Meta => (!0, !0),
    };
    let mut lanes: Vec<Vec<Trit>> = vec![Vec::new(); 4];
    for combo in 0..81usize {
        let pins: Vec<Trit> = (0..4).map(|k| Trit::ALL[combo / 3usize.pow(k) % 3]).collect();
        let want = n.eval(&pins)[0];
        let [pa, pb, ps1, pt] = [0, 1, 2, 3].map(|k| splat(pins[k]));
        assert_eq!(ops::Sel::eval(pa, pb, ps1, pt), splat(want), "pins {pins:?}");
        for (k, &p) in pins.iter().enumerate() {
            lanes[k].push(p);
        }
    }
    let tape = EvalTape::compile(&n);
    assert_eq!(tape.op_count(), 1);
    assert_eq!(tape.runs()[0].op, TapeOp::Sel);
    let blocks: Vec<TritBlock> = lanes.iter().map(|l| TritBlock::from_lanes(l)).collect();
    assert_kernels_match(&n, &tape, &blocks);
}

/// The paper's own circuit: a certified 4×2 sorting circuit streams every
/// edge lane count through every tier identically.
#[test]
fn sorting_circuit_matches_under_every_kernel_on_edge_lanes() {
    use mcs::networks::circuit::{build_sorting_circuit, TwoSortFlavor};
    use mcs::networks::optimal::best_size;

    let net = best_size(4).unwrap();
    let circuit = build_sorting_circuit(&net, 2, TwoSortFlavor::Paper);
    let tape = EvalTape::compile(&circuit);
    let seed_bits: Vec<u8> = (0..997u32).map(|i| (i % 3) as u8).collect();
    for lanes in EDGE_LANES {
        assert_kernels_match(
            &circuit,
            &tape,
            &input_blocks(circuit.input_count(), &seed_bits, lanes),
        );
    }
}

/// Introspection invariants: the portable kernel is always available and
/// listed first, `preferred()` is the last listed kernel, and every listed
/// kernel round-trips through its name and passes `require`.
#[test]
fn kernel_introspection_invariants() {
    let ks = kernel::kernels();
    assert!(!ks.is_empty());
    assert_eq!(ks[0], KernelId::Scalar);
    assert_eq!(*ks.last().unwrap(), kernel::preferred());
    for &k in &ks {
        assert!(kernel::available(k));
        assert_eq!(kernel::require(k), Ok(k));
        assert_eq!(k.name().parse::<KernelId>(), Ok(k));
    }
    // Unknown names — including the retired `neon` — are a typed parse
    // error, not a panic.
    for name in ["sse9", "neon"] {
        assert!(name.parse::<KernelId>().is_err());
        assert_eq!(
            kernel::parse_override(Some(name)),
            Err(UnknownKernel::Name(name.to_string()))
        );
    }
    assert_eq!(kernel::parse_override(Some("  ")), Ok(None));
    assert_eq!(kernel::parse_override(None), Ok(None));
}

/// An unavailable tier is refused with a typed error from `try_scratch`,
/// never a panic — the contract the `MCS_KERNEL` override plumbing in the
/// bins relies on. Every tier is either accepted or refused according to
/// `available`, and the refusal itself is pinned through the pure
/// `require_on`, so the test bites on hosts with and without AVX2.
#[test]
fn unavailable_backends_are_refused_with_a_typed_error() {
    let mut n = Netlist::new("tiny");
    let a = n.input("a");
    let b = n.input("b");
    let g = n.and2(a, b);
    n.set_output("o", g);
    let tape = EvalTape::compile(&n);
    for k in KernelId::ALL {
        match tape.try_scratch(PlaneWidth::X4, k) {
            Ok(scratch) => {
                assert!(kernel::available(k));
                assert_eq!(scratch.kernel(), k);
            }
            Err(err) => {
                assert!(!kernel::available(k));
                assert_eq!(err, UnknownKernel::Unavailable(k));
            }
        }
    }
    let err = kernel::require_on(KernelId::Avx2, false)
        .expect_err("avx2 must be refused without the feature");
    // The refusal names the tier and the available alternatives.
    let msg = err.to_string();
    assert!(msg.contains("avx2"), "{msg}");
    assert!(msg.contains("scalar"), "{msg}");
}
