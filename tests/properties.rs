//! Property-based tests (proptest) over the whole stack: random valid
//! strings, random widths, random networks.

use mcs::prelude::*;
use mcs::gray::code::{gray_decode, gray_encode, parity};
use mcs::gray::fsm::{diamond_m, Fsm};
use mcs::logic::{closure_fn, Trit, TritBlock};
use mcs::netlist::Netlist;
use proptest::prelude::*;

/// Strategy: a width in 1..=16 and a valid-string rank for that width.
fn valid_string_strategy() -> impl Strategy<Value = ValidString> {
    (1usize..=16).prop_flat_map(|width| {
        let max_rank = (1u64 << (width + 1)) - 2;
        (Just(width), 0..=max_rank)
            .prop_map(|(w, r)| ValidString::from_rank(w, r).expect("in range"))
    })
}

/// Strategy: a pair of valid strings of the same width.
fn valid_pair_strategy() -> impl Strategy<Value = (ValidString, ValidString)> {
    (1usize..=12).prop_flat_map(|width| {
        let max_rank = (1u64 << (width + 1)) - 2;
        (Just(width), 0..=max_rank, 0..=max_rank).prop_map(|(w, a, b)| {
            (
                ValidString::from_rank(w, a).expect("in range"),
                ValidString::from_rank(w, b).expect("in range"),
            )
        })
    })
}

/// Strategy: one ternary value, via the union combinator.
fn trit_strategy() -> impl Strategy<Value = Trit> {
    prop_oneof![Just(Trit::Zero), Just(Trit::One), Just(Trit::Meta)]
}

/// Recipe for one random certified gate: a cell choice plus two fan-in
/// selectors (taken modulo the nodes built so far, so the netlist is always
/// well-formed and topological).
#[derive(Clone, Debug)]
struct GateRecipe {
    kind: u8,
    a: usize,
    b: usize,
}

/// Strategy: an input count and a gate list for a random certified netlist.
fn netlist_strategy() -> impl Strategy<Value = (usize, Vec<GateRecipe>)> {
    (2usize..=6).prop_flat_map(|inputs| {
        let kind = prop_oneof![
            Just(0u8), // and2
            Just(1),   // or2
            Just(2),   // inv
            Just(3),   // nand2
            Just(4),   // nor2
        ];
        let gates = proptest::collection::vec(
            (kind, 0usize..10_000, 0usize..10_000)
                .prop_map(|(kind, a, b)| GateRecipe { kind, a, b }),
            1..48,
        );
        (Just(inputs), gates)
    })
}

/// Materialises a recipe into a certified-cells netlist with 3 outputs.
fn build_netlist(inputs: usize, recipes: &[GateRecipe]) -> Netlist {
    let mut n = Netlist::new("differential");
    let mut nodes = Vec::new();
    for i in 0..inputs {
        nodes.push(n.input(format!("i{i}")));
    }
    for r in recipes {
        let a = nodes[r.a % nodes.len()];
        let b = nodes[r.b % nodes.len()];
        let out = match r.kind {
            0 => n.and2(a, b),
            1 => n.or2(a, b),
            2 => n.inv(a),
            3 => n.nand2(a, b),
            _ => n.nor2(a, b),
        };
        nodes.push(out);
    }
    for (k, &node) in nodes.iter().rev().take(3).enumerate() {
        n.set_output(format!("o{k}"), node);
    }
    n
}

proptest! {
    /// The differential harness of the batch refactor: on random certified
    /// netlists and random ternary input sets, the simulation paths —
    /// scalar `eval`, multi-word `eval_block` (at >64 lanes), single-word
    /// `eval_block` over each 64-lane chunk, and the settled state of the
    /// event-driven simulator — must agree lane for lane.
    #[test]
    fn eval_tiers_and_event_sim_agree_lane_for_lane(
        (inputs, recipes) in netlist_strategy(),
        trits in proptest::collection::vec(trit_strategy(), 100 * 6),
    ) {
        let n = build_netlist(inputs, &recipes);
        // 100 lanes: forces eval_block onto its multi-word path.
        let lanes: Vec<Vec<Trit>> = (0..100)
            .map(|l| (0..inputs).map(|i| trits[l * 6 + i]).collect())
            .collect();

        // Tier 1: scalar reference.
        let scalar: Vec<Vec<Trit>> = lanes.iter().map(|v| n.eval(v)).collect();

        // Tier 2: one multi-word block evaluation.
        let blocks: Vec<TritBlock> = (0..inputs)
            .map(|i| lanes.iter().map(|v| v[i]).collect())
            .collect();
        let block_out = n.eval_block(&blocks);
        prop_assert_eq!(block_out[0].word_count(), 2);
        for (l, want) in scalar.iter().enumerate() {
            for (j, &w) in want.iter().enumerate() {
                prop_assert_eq!(block_out[j].lane(l), w, "block lane {l} out {j}");
            }
        }

        // Tier 2 again, one single-word block per 64-lane chunk.
        for (c, chunk) in lanes.chunks(64).enumerate() {
            let chunk_blocks: Vec<TritBlock> = (0..inputs)
                .map(|i| chunk.iter().map(|v| v[i]).collect())
                .collect();
            let batch_out = n.eval_block(&chunk_blocks);
            for (l, want) in scalar[c * 64..].iter().take(chunk.len()).enumerate() {
                for (j, &w) in want.iter().enumerate() {
                    prop_assert_eq!(batch_out[j].lane(l), w, "batch lane {l}");
                }
            }
        }

        // The event-driven simulator, driven from an all-zero reset
        // to each lane's input vector, must settle to the same outputs.
        use mcs::netlist::event_sim::EventSim;
        use mcs::netlist::TechLibrary;
        let lib = TechLibrary::paper_calibrated();
        for (l, v) in lanes.iter().take(8).enumerate() {
            let mut sim = EventSim::new(&n, &lib, &vec![Trit::Zero; inputs]);
            let changes: Vec<(usize, Trit)> =
                v.iter().copied().enumerate().collect();
            let _ = sim.apply(&changes);
            prop_assert_eq!(&sim.output_values(), &scalar[l], "event_sim lane {l}");
        }
    }

    /// `eval_batch_iter` streams any domain through the block tier and
    /// yields exactly the scalar results, in order.
    #[test]
    fn batch_iter_matches_scalar_stream(
        (inputs, recipes) in netlist_strategy(),
        trits in proptest::collection::vec(trit_strategy(), 70 * 6),
        len in 0usize..70,
    ) {
        let n = build_netlist(inputs, &recipes);
        let domain: Vec<Vec<Trit>> = (0..len)
            .map(|l| (0..inputs).map(|i| trits[l * 6 + i]).collect())
            .collect();
        let streamed: Vec<Vec<Trit>> =
            n.eval_batch_iter(domain.iter().map(Vec::as_slice)).collect();
        prop_assert_eq!(streamed.len(), domain.len());
        for (v, got) in domain.iter().zip(&streamed) {
            prop_assert_eq!(got, &n.eval(v));
        }
    }

    /// The two closure-check implementations (block tier vs retained scalar
    /// reference) return identical verdicts on random certified netlists —
    /// including identical first counterexamples on circuits that are not
    /// closure-exact.
    #[test]
    fn closure_check_block_and_scalar_verdicts_agree(
        (inputs, recipes) in netlist_strategy(),
    ) {
        use mcs::netlist::mc::{
            verify_closure_exhaustive, verify_closure_exhaustive_scalar,
        };
        let n = build_netlist(inputs, &recipes);
        prop_assert_eq!(
            verify_closure_exhaustive(&n),
            verify_closure_exhaustive_scalar(&n)
        );
    }

    #[test]
    fn gray_roundtrip(width in 1usize..=32, x in 0u64..u64::MAX) {
        let x = x % (1u64 << width);
        let g = gray_encode(x, width);
        prop_assert_eq!(gray_decode(&g), Some(x));
        prop_assert_eq!(parity(&g), Some(x % 2 == 1));
    }

    #[test]
    fn gray_adjacent_codes_differ_in_one_bit(width in 1usize..=32, x in 0u64..u64::MAX) {
        let x = x % ((1u64 << width) - 1).max(1);
        if x + 1 < (1u64 << width) {
            let a = gray_encode(x, width);
            let b = gray_encode(x + 1, width);
            let diff = a.iter().zip(b.iter()).filter(|(p, q)| p != q).count();
            prop_assert_eq!(diff, 1);
        }
    }

    #[test]
    fn valid_string_rank_roundtrip(v in valid_string_strategy()) {
        let back = ValidString::from_rank(v.width(), v.rank()).expect("rank valid");
        prop_assert_eq!(back, v);
    }

    #[test]
    fn spec_and_closure_agree(pair in valid_pair_strategy()) {
        let (g, h) = pair;
        let (smx, smn) = max_min_spec(&g, &h);
        let (cmx, cmn) = max_min_closure(&g, &h);
        prop_assert_eq!(smx.bits(), &cmx);
        prop_assert_eq!(smn.bits(), &cmn);
    }

    #[test]
    fn circuit_matches_spec(pair in valid_pair_strategy()) {
        let (g, h) = pair;
        let circuit = build_two_sort(g.width(), PrefixTopology::LadnerFischer);
        let (mx, mn) = simulate_two_sort(&circuit, &g, &h);
        let (smx, smn) = max_min_spec(&g, &h);
        prop_assert_eq!(&mx, smx.bits());
        prop_assert_eq!(&mn, smn.bits());
        // Outputs are valid strings again.
        prop_assert!(ValidString::new(mx).is_ok());
        prop_assert!(ValidString::new(mn).is_ok());
    }

    #[test]
    fn theorem_4_1_on_random_valid_strings(pair in valid_pair_strategy()) {
        // ⋄_M iterated left-to-right equals the definitional closure at
        // every prefix, and any random parenthesisation agrees.
        let (g, h) = pair;
        let fsm = Fsm::new();
        let width = g.width();
        for i in 0..=width {
            prop_assert_eq!(
                fsm.prefix_state_iterated(&g, &h, i),
                fsm.prefix_state_closure(&g, &h, i)
            );
        }
        // Balanced-tree evaluation.
        fn tree(items: &[(Trit, Trit)]) -> (Trit, Trit) {
            match items.len() {
                1 => items[0],
                n => diamond_m(tree(&items[..n / 2]), tree(&items[n / 2..])),
            }
        }
        let items: Vec<(Trit, Trit)> = (0..width)
            .map(|k| (g.bits()[k], h.bits()[k]))
            .collect();
        prop_assert_eq!(
            tree(&items),
            fsm.prefix_state_iterated(&g, &h, width)
        );
    }

    #[test]
    fn closure_monotone_in_information(bits in proptest::collection::vec(0u8..3, 1..8)) {
        // Replacing a stable input with M can only move outputs toward M
        // (information monotonicity of the closure), checked on a majority
        // function.
        let input: Vec<Trit> = bits.iter().map(|&b| Trit::ALL[b as usize]).collect();
        let maj = |b: &[bool]| b.iter().filter(|&&x| x).count() * 2 > b.len();
        let out = closure_fn(&input, maj);
        for i in 0..input.len() {
            if input[i].is_stable() {
                let mut weaker = input.clone();
                weaker[i] = Trit::Meta;
                let weaker_out = closure_fn(&weaker, maj);
                // weaker_out must be out or M.
                prop_assert!(weaker_out == out || weaker_out == Trit::Meta);
            }
        }
    }

    #[test]
    fn certified_circuits_are_information_monotone(pair in valid_pair_strategy()) {
        // Weakening an input (stable → M) can only weaken outputs: for the
        // MC 2-sort, each output trit either stays or becomes M. This is
        // the semantic backbone of worst-case metastability analysis.
        let (g, h) = pair;
        let circuit = build_two_sort(g.width(), PrefixTopology::LadnerFischer);
        let mut inputs: Vec<Trit> = Vec::new();
        inputs.extend(g.bits().iter());
        inputs.extend(h.bits().iter());
        let base = circuit.eval(&inputs);
        for i in 0..inputs.len() {
            if inputs[i].is_stable() {
                let mut weaker = inputs.clone();
                weaker[i] = Trit::Meta;
                let out = circuit.eval(&weaker);
                for (b, w) in base.iter().zip(&out) {
                    prop_assert!(
                        w == b || w.is_meta(),
                        "output refined under weaker input: {b} -> {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn two_sort_idempotent_and_commutative(pair in valid_pair_strategy()) {
        let (g, h) = pair;
        let circuit = build_two_sort(g.width(), PrefixTopology::LadnerFischer);
        let (mx1, mn1) = simulate_two_sort(&circuit, &g, &h);
        let (mx2, mn2) = simulate_two_sort(&circuit, &h, &g);
        prop_assert_eq!(&mx1, &mx2);
        prop_assert_eq!(&mn1, &mn2);
        // Applying the sorted pair again is the identity.
        let sg = ValidString::new(mx1.clone()).expect("valid");
        let sh = ValidString::new(mn1.clone()).expect("valid");
        let (mx3, mn3) = simulate_two_sort(&circuit, &sh, &sg);
        prop_assert_eq!(mx3, mx1);
        prop_assert_eq!(mn3, mn1);
    }
}
