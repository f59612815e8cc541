//! Round-trip property tests for the serialization subsystem: random
//! certified networks and synthesized netlists must survive
//! `save → load → save` **byte-identically** in the text artifact form,
//! evaluate lane-for-lane equal under `eval_block` after reload, and — for the Verilog path — re-import to an
//! evaluation-equivalent netlist.

use mcs::logic::{Trit, TritBlock, TruthTable};
use mcs::netlist::export::{from_verilog, to_verilog};
use mcs::netlist::mc::verify_closure_exhaustive;
use mcs::netlist::serdes;
use mcs::netlist::synth::sop_for_table;
use mcs::netlist::Netlist;
use mcs::networks::generators::{batcher_odd_even, bitonic, insertion};
use mcs::networks::io::NetworkArtifact;
use mcs::networks::optimal::{best_depth, best_size};
use mcs::networks::Network;
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

/// Strategy: a random comparator network (not necessarily a sorter — the
/// formats must carry any standard-form network).
fn network_strategy() -> impl Strategy<Value = Network> {
    (2usize..=12).prop_flat_map(|channels| {
        let pairs = proptest::collection::vec(
            (0usize..10_000, 0usize..10_000),
            0..40,
        );
        (Just(channels), pairs).prop_map(|(channels, raw)| {
            let mut net = Network::new(channels);
            for (x, y) in raw {
                let a = x % channels;
                let b = y % channels;
                if a != b {
                    net.push(a.min(b), a.max(b));
                }
            }
            net
        })
    })
}

proptest! {
    /// Random networks survive save→load→save byte-identically, with the
    /// master seed preserved.
    #[test]
    fn network_artifacts_roundtrip_byte_identically(
        net in network_strategy(),
        seed in 0u64..=u64::MAX / 2,
    ) {
        let artifact = NetworkArtifact::new(net, seed);
        let text = artifact.to_text();
        let from_text = NetworkArtifact::from_text(&text).expect("text loads");
        prop_assert_eq!(&from_text, &artifact);
        prop_assert_eq!(from_text.to_text(), text);
        // A second full cycle pins save→load→save, not just load→save.
        prop_assert_eq!(
            NetworkArtifact::from_text(&from_text.to_text()).expect("reloads"),
            from_text
        );
    }

    /// Version compatibility: the same random networks, hand-written in
    /// the v1 text layout, still load — as artifacts equal to their v2
    /// counterparts.
    #[test]
    fn headerless_v1_artifacts_still_load(
        net in network_strategy(),
        seed in 0u64..=u64::MAX / 2,
    ) {
        let expected = NetworkArtifact::new(net.clone(), seed);
        // v1 text: the v2 writer's output with the version swapped (the
        // two versions share one layout).
        let v1_text = expected
            .to_text()
            .replacen("mcs-network v2\n", "mcs-network v1\n", 1);
        let from_text = NetworkArtifact::from_text(&v1_text).expect("v1 text loads");
        prop_assert_eq!(&from_text, &expected);
        // Re-saving a v1 load writes the current (v2) bytes.
        prop_assert_eq!(from_text.to_text(), expected.to_text());
    }

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

    /// The Verilog loop: writer output re-imports to a netlist that agrees
    /// with the original lane-for-lane under `eval_block`.
    #[test]
    fn verilog_roundtrip_is_evaluation_equivalent(
        (inputs, recipes) in netlist_strategy(),
        trits in proptest::collection::vec(trit_strategy(), 100 * 5),
    ) {
        let n = build_netlist(inputs, &recipes);
        let reimported = from_verilog(&to_verilog(&n)).expect("writer output imports");
        prop_assert_eq!(reimported.gate_count(), n.gate_count());
        prop_assert_eq!(reimported.cell_counts(), n.cell_counts());
        assert_blocks_equal(&n, &reimported, &trits, inputs);
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

/// Every certified (0-1-verified) network in the seed — the optimal tables
/// and the three classic generators — survives the round trip
/// byte-identically and re-verifies after reload.
#[test]
fn certified_networks_roundtrip_and_reverify() {
    let mut nets: Vec<Network> = Vec::new();
    for n in 2..=10usize {
        nets.push(best_size(n).unwrap());
        nets.push(best_depth(n).unwrap());
        nets.push(batcher_odd_even(n));
        nets.push(bitonic(n));
        nets.push(insertion(n));
    }
    for net in nets {
        let artifact = NetworkArtifact::new(net, 2018);
        let text_trip = NetworkArtifact::from_text(&artifact.to_text()).unwrap();
        assert_eq!(text_trip, artifact);
        assert_eq!(text_trip.to_text(), artifact.to_text());
        text_trip.reverify().expect("loaded network re-verifies");
    }
}

/// A full sorting circuit (network × 2-sort) — the biggest netlists the
/// repo produces — survives the text and Verilog trips.
#[test]
fn sorting_circuit_roundtrips_through_all_formats() {
    use mcs::networks::circuit::{build_sorting_circuit, TwoSortFlavor};
    let circuit = build_sorting_circuit(
        &best_size(4).unwrap(),
        3,
        TwoSortFlavor::Paper,
    );
    let text_trip = serdes::from_text(&serdes::to_text(&circuit).unwrap()).unwrap();
    assert_eq!(text_trip, circuit);
    let v_trip = from_verilog(&to_verilog(&circuit)).unwrap();
    assert_eq!(v_trip.gate_count(), circuit.gate_count());
    // 200 random-ish ternary lanes through all three netlists at once.
    let k = circuit.input_count();
    let blocks: Vec<TritBlock> = (0..k)
        .map(|i| {
            TritBlock::from_lanes(
                &(0..200)
                    .map(|l| Trit::ALL[(l * 7 + i * 13 + l * i) % 3])
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let want = circuit.eval_block(&blocks);
    for (name, other) in [
        ("text", &text_trip),
        ("verilog", &v_trip),
    ] {
        let got = other.eval_block(&blocks);
        for (o, (g, w)) in got.iter().zip(&want).enumerate() {
            for lane in 0..200 {
                assert_eq!(g.lane(lane), w.lane(lane), "{name} output {o} lane {lane}");
            }
        }
    }
}
