//! Round-trip property tests for the serialization subsystem: random and
//! synthesized netlists must survive
//! `save → load → save` **byte-identically** in the text artifact form
//! (the one loadable netlist format) and evaluate lane-for-lane equal under
//! `eval_block` after reload.

use mcs::logic::{Trit, TritBlock, TruthTable};
use mcs::netlist::mc::verify_closure_exhaustive;
use mcs::netlist::serdes;
use mcs::netlist::synth::sop_for_table;
use mcs::netlist::Netlist;
use mcs::networks::optimal::best_size;
use proptest::prelude::*;

/// Strategy: one ternary value.
fn trit_strategy() -> impl Strategy<Value = Trit> {
    prop_oneof![Just(Trit::Zero), Just(Trit::One), Just(Trit::Meta)]
}

/// Recipe for one random certified gate (fan-in selectors taken modulo the
/// nodes built so far, so the netlist is always well-formed).
#[derive(Clone, Debug)]
struct GateRecipe {
    kind: u8,
    a: usize,
    b: usize,
    c: usize,
}

/// Strategy: an input count and gate list covering the *full* cell set
/// (certified and uncertified — the formats must carry both).
fn netlist_strategy() -> impl Strategy<Value = (usize, Vec<GateRecipe>)> {
    (2usize..=5).prop_flat_map(|inputs| {
        let gates = proptest::collection::vec(
            (0u8..10, 0usize..10_000, 0usize..10_000, 0usize..10_000)
                .prop_map(|(kind, a, b, c)| GateRecipe { kind, a, b, c }),
            1..40,
        );
        (Just(inputs), gates)
    })
}

/// Materialises a recipe, exercising constants and every gate kind.
fn build_netlist(inputs: usize, recipes: &[GateRecipe]) -> Netlist {
    let mut n = Netlist::new("roundtrip");
    let mut nodes = Vec::new();
    for i in 0..inputs {
        nodes.push(n.input(format!("i{i}")));
    }
    nodes.push(n.constant(false));
    nodes.push(n.constant(true));
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
            5 => n.xor2(a, b),
            6 => n.xnor2(a, b),
            7 => n.mux2(a, b, c),
            8 => n.andnot2(a, b),
            _ => n.ao21(a, b, c),
        };
        nodes.push(out);
    }
    for (k, &node) in nodes.iter().rev().take(3).enumerate() {
        n.set_output(format!("o{k}"), node);
    }
    n
}

/// Asserts two netlists produce identical output blocks on the given
/// 100-lane random domain (multi-word `eval_block` path).
fn assert_blocks_equal(x: &Netlist, y: &Netlist, trits: &[Trit], inputs: usize) {
    let blocks: Vec<TritBlock> = (0..inputs)
        .map(|i| {
            TritBlock::from_lanes(
                &(0..100).map(|l| trits[l * 5 + i]).collect::<Vec<_>>(),
            )
        })
        .collect();
    let got = y.eval_block(&blocks);
    let want = x.eval_block(&blocks);
    for (o, (g, w)) in got.iter().zip(&want).enumerate() {
        for lane in 0..100 {
            assert_eq!(g.lane(lane), w.lane(lane), "output {o} lane {lane}");
        }
    }
}

proptest! {
    /// Random netlists over the full cell set survive save→load→save
    /// byte-identically and evaluate lane-for-lane equal under `eval_block`.
    #[test]
    fn netlist_artifacts_roundtrip_byte_identically(
        (inputs, recipes) in netlist_strategy(),
        trits in proptest::collection::vec(trit_strategy(), 100 * 5),
    ) {
        let n = build_netlist(inputs, &recipes);
        let text = serdes::to_text(&n).expect("serialises");
        let from_text = serdes::from_text(&text).expect("text loads");
        prop_assert_eq!(&from_text, &n);
        prop_assert_eq!(serdes::to_text(&from_text).expect("reserialises"), text);
        assert_blocks_equal(&n, &from_text, &trits, inputs);
    }

    /// Closure-exactly synthesized netlists reload byte-identically and
    /// **re-verify**: the loaded circuit still computes the metastable
    /// closure of its boolean function.
    #[test]
    fn synthesized_netlists_roundtrip_and_reverify(
        arity in 2usize..=3,
        bits in 0u64..256,
    ) {
        let table = TruthTable::from_bits(arity, bits % (1 << (1 << arity)));
        let mut n = Netlist::new("sop");
        let inputs: Vec<_> = (0..arity).map(|k| n.input(format!("x{k}"))).collect();
        let f = sop_for_table(&mut n, &table, &inputs);
        n.set_output("f", f);
        let text = serdes::to_text(&n).expect("serialises");
        let loaded = serdes::from_text(&text).expect("loads");
        prop_assert_eq!(&loaded, &n);
        prop_assert_eq!(serdes::to_text(&loaded).expect("reserialises"), text);
        verify_closure_exhaustive(&loaded).expect("loaded SOP re-verifies");
    }
}

/// A full sorting circuit (network × 2-sort) — the biggest netlists the
/// repo produces — survives the text trip, the only loadable format.
#[test]
fn sorting_circuit_roundtrips_through_all_formats() {
    use mcs::networks::circuit::{build_sorting_circuit, TwoSortFlavor};
    let circuit = build_sorting_circuit(
        &best_size(4).unwrap(),
        3,
        TwoSortFlavor::Paper,
    );
    let text = serdes::to_text(&circuit).unwrap();
    let text_trip = serdes::from_text(&text).unwrap();
    assert_eq!(text_trip, circuit);
    assert_eq!(serdes::to_text(&text_trip).unwrap(), text);
}
