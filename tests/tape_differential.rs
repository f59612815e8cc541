//! Differential suite for the compiled evaluation tape.
//!
//! The tape contract is *lane-for-lane exactness*: for every netlist the
//! compiler accepts, [`EvalTape::try_eval_block_with`] must agree with
//! [`Netlist::eval_block`] on every lane, at every plane width, at every
//! lane count — including the masked-tail edge cases (0, 1, 63, 64, 65,
//! 1000 lanes) where stale bits in the unused tail of the last word would
//! otherwise leak between chunks. The generators reuse the
//! `pass_differential.rs` recipe pattern over the **full** cell set
//! (certified cells, constants, and every pessimistic cell), so every
//! `TapeOp` kernel is exercised against the interpreter it replaces.
//!
//! Random gates almost never form the paper's selection core, so the
//! generators also plant it (built by [`mcs::core::selection`] with an
//! inverter on `sel2`), which the tape fuses into one `TapeOp::Sel`; the
//! hazard generator also plants it with its inverter exposed to later
//! gates, a near miss that must not fuse. The fused-op count of every
//! paper 2-sort is pinned, and the other 2-sort flavours and the
//! pass-optimised 8-channel artifact are checked lane for lane.
//!
//! The suite also pins the streaming edges of `eval_batch_iter` (domains
//! that are not multiples of its internal 64-lane words) — the block-eval
//! edge cases the tape path must reproduce bit for bit.

use mcs::core::{selection, SelectionInputs};
use mcs::logic::plane::kernel;
use mcs::logic::{PlaneWidth, Trit, TritBlock};
use mcs::netlist::{EvalTape, Netlist, NodeId, TapeOp};
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
/// (kind 12).
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

/// The paper's selection core `b·(a + s1) + a·¬t`, with `t` picked from
/// `nodes` by `r.c / 7`: returns its inverter and its root. While nothing
/// else reads the inverter, the inner nodes keep a fan-out of one and the
/// tape fuses the core.
fn plant_selection(n: &mut Netlist, nodes: &[NodeId], r: &GateRecipe) -> (NodeId, NodeId) {
    let pick = |k: usize| nodes[k % nodes.len()];
    let sel2 = n.inv(pick(r.c / 7));
    let (a, b, sel1) = (pick(r.a), pick(r.b), pick(r.c));
    (sel2, selection(n, SelectionInputs { a, b, sel1, sel2 }))
}

/// Materialises a recipe into a netlist: sources index any previously
/// created node (mod current count), so the circuit is always well-formed
/// and acyclic. Kinds 0–4 are the certified cells, 5/6 constants, 7–11
/// the pessimistic cells, 12 a planted selection core.
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
            _ => plant_selection(&mut n, &nodes, r).1,
        };
        nodes.push(out);
    }
    // Expose the last few nodes as outputs, plus a raw input port so the
    // tape's input-passthrough path is always covered.
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

/// Evaluates through a fresh scratch at `width` under the preferred tier.
fn eval_at(tape: &EvalTape, inputs: &[TritBlock], width: PlaneWidth) -> Vec<TritBlock> {
    let mut scratch = tape
        .try_scratch(width, kernel::preferred())
        .expect("the preferred tier is available");
    tape.try_eval_block_with(inputs, &mut scratch)
        .expect("inputs fit the tape")
}

/// Asserts tape ≡ `eval_block` lane for lane at every plane width.
fn assert_tape_matches(n: &Netlist, tape: &EvalTape, inputs: &[TritBlock]) {
    let want = n.eval_block(inputs);
    for width in PlaneWidth::ALL {
        let got = eval_at(tape, inputs, width);
        assert_eq!(want.len(), got.len());
        for (k, (w, g)) in want.iter().zip(&got).enumerate() {
            assert_eq!(w.lanes(), g.lanes(), "output {k} lane count");
            if let Some(lane) = w.first_mismatch(g) {
                panic!(
                    "output {k} lane {lane} diverged at plane width {width}: \
                     eval_block {:?}, tape {:?}",
                    w.lane(lane),
                    g.lane(lane)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random full-cell-set netlists: the tape agrees with `eval_block`
    /// lane for lane at every plane width on a >64-lane block.
    #[test]
    fn tape_is_lane_for_lane_equivalent(
        (inputs, recipes) in full_strategy(40),
        seed_bits in proptest::collection::vec(0u8..3, 500),
    ) {
        let n = build(inputs, &recipes);
        let tape = EvalTape::compile(&n);
        assert_tape_matches(&n, &tape, &input_blocks(inputs, &seed_bits, 200));
    }

    /// The masked-tail grid: every edge lane count agrees at every plane
    /// width, through one reused scratch — stale tail bits from a longer
    /// earlier evaluation must never leak into a shorter later one.
    #[test]
    fn tape_edge_lane_counts_with_scratch_reuse(
        (inputs, recipes) in full_strategy(25),
        seed_bits in proptest::collection::vec(0u8..3, 300),
    ) {
        let n = build(inputs, &recipes);
        let tape = EvalTape::compile(&n);
        for width in PlaneWidth::ALL {
            let mut scratch = tape.try_scratch(width, kernel::preferred())
                .expect("the preferred tier is available");
            // Descending: the 1000-lane run dirties the scratch before the
            // short and empty runs reuse it.
            for &lanes in EDGE_LANES.iter().rev() {
                let blocks = input_blocks(inputs, &seed_bits, lanes);
                let want = n.eval_block(&blocks);
                let got = tape.try_eval_block_with(&blocks, &mut scratch)
                    .expect("inputs fit the tape");
                for (k, (w, g)) in want.iter().zip(&got).enumerate() {
                    prop_assert_eq!(w.lanes(), g.lanes());
                    prop_assert_eq!(
                        w.first_mismatch(g),
                        None,
                        "output {} at {} lanes, width {}",
                        k,
                        lanes,
                        width
                    );
                }
            }
        }
    }

    /// `eval_batch_iter` streaming edges: domains that straddle its
    /// internal chunking agree element-wise with whole-domain `eval_block`.
    #[test]
    fn eval_batch_iter_edge_domains_match_eval_block(
        (inputs, recipes) in full_strategy(25),
        seed_bits in proptest::collection::vec(0u8..3, 300),
    ) {
        let n = build(inputs, &recipes);
        for lanes in [0usize, 1, 63, 65, 255, 257] {
            let blocks = input_blocks(inputs, &seed_bits, lanes);
            let domain: Vec<Vec<Trit>> = (0..lanes)
                .map(|lane| blocks.iter().map(|b| b.lane(lane)).collect())
                .collect();
            let streamed: Vec<Vec<Trit>> =
                n.eval_batch_iter(domain).collect();
            prop_assert_eq!(streamed.len(), lanes);
            let block = n.eval_block(&blocks);
            for (lane, out) in streamed.iter().enumerate() {
                for (k, &t) in out.iter().enumerate() {
                    prop_assert_eq!(
                        t,
                        block[k].lane(lane),
                        "lane {} output {}",
                        lane,
                        k
                    );
                }
            }
        }
    }
}

/// Random netlists built to stress register allocation: inputs and
/// constants declared anywhere among the cells (so some inputs are dead
/// and constants sit between inputs), `and2(a, a)`, dead cells, outputs
/// on any node — inputs and constants included — and planted selection
/// cores, fusable or with an inner node exposed.
fn hazard_strategy() -> impl Strategy<Value = (Vec<GateRecipe>, Vec<usize>)> {
    (
        proptest::collection::vec(
            (0u8..18, 0usize..1000, 0usize..1000, 0usize..1000)
                .prop_map(|(kind, a, b, c)| GateRecipe { kind, a, b, c }),
            1..60,
        ),
        proptest::collection::vec(0usize..1000, 1..6),
    )
}

/// Materialises a hazard recipe: kinds 0–11 as in [`build`], 12 a new
/// input, 13 a constant, 14 `and2(a, a)`, 15 an `or2` nobody reads, 16 a
/// planted selection core, 17 one whose inverter later gates and outputs
/// may also read (fusable only while they do not).
fn build_hazards(recipes: &[GateRecipe], outputs: &[usize]) -> Netlist {
    let mut n = Netlist::new("hazards");
    let mut nodes = vec![n.input("i0")];
    for (k, r) in recipes.iter().enumerate() {
        let a = nodes[r.a % nodes.len()];
        let b = nodes[r.b % nodes.len()];
        let c = nodes[r.c % nodes.len()];
        let out = match r.kind {
            0 => n.and2(a, b),
            1 => n.or2(a, b),
            2 => n.inv(a),
            3 => n.nand2(a, b),
            4 => n.nor2(a, b),
            5 | 13 => n.constant(r.b % 2 == 1),
            6 => n.constant(true),
            7 => n.xor2(a, b),
            8 => n.xnor2(a, b),
            9 => n.mux2(a, b, c),
            10 => n.andnot2(a, b),
            11 => n.ao21(a, b, c),
            12 => n.input(format!("i{k}")),
            14 => n.and2(a, a),
            15 => {
                n.or2(a, b);
                continue;
            }
            16 => plant_selection(&mut n, &nodes, r).1,
            _ => {
                let (inv, root) = plant_selection(&mut n, &nodes, r);
                nodes.push(inv);
                root
            }
        };
        nodes.push(out);
    }
    for (k, &o) in outputs.iter().enumerate() {
        n.set_output(format!("o{k}"), nodes[o % nodes.len()]);
    }
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The register-allocation validator: replaying the schedule finds
    /// every read holding the node the netlist names, no constant or
    /// output overwritten, and every index below `register_count()`; and
    /// the tape still agrees with `eval_block` through one reused scratch.
    #[test]
    fn register_allocation_replays_on_random_netlists(
        (recipes, outputs) in hazard_strategy(),
        seed_bits in proptest::collection::vec(0u8..3, 300),
    ) {
        let n = build_hazards(&recipes, &outputs);
        let tape = EvalTape::compile(&n);
        prop_assert_eq!(tape.check_registers(&n), Ok(()));
        prop_assert!(tape.register_count() <= tape.slot_count());
        let blocks = input_blocks(n.input_count(), &seed_bits, 130);
        let want = n.eval_block(&blocks);
        for width in PlaneWidth::ALL {
            let mut scratch = tape.try_scratch(width, kernel::preferred())
                .expect("the preferred tier is available");
            for _ in 0..2 {
                let got = tape.try_eval_block_with(&blocks, &mut scratch)
                    .expect("inputs fit the tape");
                prop_assert_eq!(&got, &want, "width {}", width);
            }
        }
    }
}

/// The paper's own circuit on the edge grid: a certified 4×2 sorting
/// circuit streams every edge lane count through the tape identically to
/// the interpreter, at every plane width.
#[test]
fn sorting_circuit_tape_matches_on_edge_lane_counts() {
    use mcs::networks::circuit::{build_sorting_circuit, TwoSortFlavor};
    use mcs::networks::optimal::best_size;

    let net = best_size(4).unwrap();
    let circuit = build_sorting_circuit(&net, 2, TwoSortFlavor::Paper);
    let tape = EvalTape::compile(&circuit);
    let seed_bits: Vec<u8> = (0..997u32).map(|i| (i % 3) as u8).collect();
    for lanes in EDGE_LANES {
        assert_tape_matches(
            &circuit,
            &tape,
            &input_blocks(circuit.input_count(), &seed_bits, lanes),
        );
    }
}

/// Compiling twice yields identical schedules, and evaluating twice yields
/// identical blocks — the tape layer adds no nondeterminism.
#[test]
fn tape_compile_and_eval_are_deterministic() {
    use mcs::networks::circuit::{build_sorting_circuit, TwoSortFlavor};
    use mcs::networks::optimal::best_size;

    let net = best_size(4).unwrap();
    let circuit = build_sorting_circuit(&net, 2, TwoSortFlavor::Paper);
    let t1 = EvalTape::compile(&circuit);
    let t2 = EvalTape::compile(&circuit);
    assert_eq!(t1.slot_count(), t2.slot_count());
    assert_eq!(t1.run_count(), t2.run_count());
    let seed_bits: Vec<u8> = (0..617u32).map(|i| ((i * 7) % 3) as u8).collect();
    let blocks = input_blocks(circuit.input_count(), &seed_bits, 321);
    let a = eval_at(&t1, &blocks, PlaneWidth::X1);
    let b = eval_at(&t2, &blocks, PlaneWidth::X1);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.first_mismatch(y), None);
    }
}

/// Ops the tape fuses into `TapeOp::Sel`.
fn fused_ops(tape: &EvalTape) -> usize {
    tape.runs()
        .iter()
        .filter(|r| r.op == TapeOp::Sel)
        .map(|r| r.len as usize)
        .sum()
}

/// The planted recipe fuses: a 40-gate netlist of every cell kind with
/// five planted cores fuses each one, so the generators above do reach
/// `TapeOp::Sel`.
#[test]
fn planted_selection_cores_fuse() {
    let recipes: Vec<GateRecipe> = (0..40)
        .map(|k| GateRecipe {
            kind: if k % 8 == 3 { 12 } else { (k % 12) as u8 },
            a: 7 * k,
            b: 13 * k + 1,
            c: 29 * k + 2,
        })
        .collect();
    let n = build(4, &recipes);
    let tape = EvalTape::compile(&n);
    tape.check_registers(&n).unwrap();
    assert_eq!(fused_ops(&tape), 5);
    assert_eq!(tape.op_count(), n.gate_count() - 4 * 5);
    assert_eq!(tape.slot_count(), n.node_count());
    let seed_bits: Vec<u8> = (0..499u32).map(|i| (i * 5 % 3) as u8).collect();
    assert_tape_matches(&n, &tape, &input_blocks(4, &seed_bits, 200));
}

/// Every paper 2-sort — Ladner–Fischer and each explicit prefix topology,
/// B = 2..16 — fuses exactly its selection circuits: two per `⋄̂_M` block
/// of the prefix network (`C(B − 1)` blocks) and two per `out_M` block
/// (`B − 1`), 78 at B = 16. The rest stays single-gate, the allocation
/// replays, and the tape matches `eval_block` lane for lane.
#[test]
fn paper_two_sorts_fuse_every_selection_circuit() {
    use mcs::core::ppc::PrefixTopology;
    use mcs::networks::circuit::TwoSortFlavor;

    let seed_bits: Vec<u8> = (0..701u32).map(|i| (i * 7 % 3) as u8).collect();
    let flavours = std::iter::once((TwoSortFlavor::Paper, PrefixTopology::LadnerFischer)).chain(
        PrefixTopology::ALL
            .into_iter()
            .map(|t| (TwoSortFlavor::PaperWithTopology(t), t)),
    );
    for (flavour, topology) in flavours {
        for width in 2..=16 {
            let n = flavour.build(width);
            let tape = EvalTape::compile(&n);
            let want = 2 * (topology.op_count(width - 1) + (width - 1));
            assert_eq!(fused_ops(&tape), want, "{flavour:?} B = {width}");
            assert_eq!(tape.op_count(), n.gate_count() - 4 * want);
            assert_eq!(tape.slot_count(), n.node_count());
            tape.check_registers(&n)
                .unwrap_or_else(|e| panic!("{flavour:?} B = {width}: {e}"));
            assert_tape_matches(&n, &tape, &input_blocks(n.input_count(), &seed_bits, 130));
        }
    }
    let paper16 = EvalTape::compile(&TwoSortFlavor::Paper.build(16));
    assert_eq!(fused_ops(&paper16), 78);
}

/// The other 2-sort flavours and the pass-optimised 8-channel artifact
/// carry whatever shapes they carry: the tape still replays and matches
/// `eval_block` lane for lane on them.
#[test]
fn other_flavours_and_the_optimised_artifact_match_eval_block() {
    use mcs::netlist::serdes;
    use mcs::networks::circuit::TwoSortFlavor;

    let seed_bits: Vec<u8> = (0..883u32).map(|i| (i * 11 % 3) as u8).collect();
    let mut circuits: Vec<(String, Netlist)> = Vec::new();
    for flavour in [
        TwoSortFlavor::Bund2017,
        TwoSortFlavor::Serial2016,
        TwoSortFlavor::BinComp,
    ] {
        for width in [2, 3, 8, 16] {
            circuits.push((format!("{flavour:?} B = {width}"), flavour.build(width)));
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/eight_sort_2b_opt.mcsnl");
    let text = std::fs::read_to_string(path).expect("the optimised artifact is committed");
    circuits.push(("eight_sort_2b_opt".into(), serdes::from_text(&text).unwrap()));
    for (name, n) in &circuits {
        let tape = EvalTape::compile(n);
        tape.check_registers(n)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(tape.slot_count(), n.node_count(), "{name}");
        let inputs = input_blocks(n.input_count(), &seed_bits, 200);
        for k in kernel::kernels() {
            for width in PlaneWidth::ALL {
                let mut scratch = tape.try_scratch(width, k).unwrap();
                let got = tape.try_eval_block_with(&inputs, &mut scratch).unwrap();
                assert_eq!(got, n.eval_block(&inputs), "{name} under {k} at {width}");
            }
        }
    }
}
