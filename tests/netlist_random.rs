//! Property tests over *random certified netlists*: structural invariants
//! of the simulation substrate itself, independent of the paper's specific
//! circuits.

use mcs::logic::{Trit, TritBlock};
use mcs::netlist::mc::assert_mc_cells_only;
use mcs::netlist::Netlist;
use proptest::prelude::*;

/// Recipe for one random gate: cell selector plus two source selectors.
#[derive(Clone, Debug)]
struct GateRecipe {
    kind: u8,
    a: usize,
    b: usize,
}

fn recipe_strategy(max_gates: usize) -> impl Strategy<Value = (usize, Vec<GateRecipe>)> {
    (2usize..=5).prop_flat_map(move |inputs| {
        let gates = proptest::collection::vec(
            (0u8..4, 0usize..1000, 0usize..1000)
                .prop_map(|(kind, a, b)| GateRecipe { kind, a, b }),
            1..max_gates,
        );
        (Just(inputs), gates)
    })
}

/// Materialises a recipe into a certified-cells netlist: sources index any
/// previously created node (mod current count), so the circuit is always
/// well-formed and acyclic.
fn build(inputs: usize, recipes: &[GateRecipe]) -> Netlist {
    let mut n = Netlist::new("random");
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
            _ => {
                let x = n.nand2(a, b);
                n.nor2(x, b)
            }
        };
        nodes.push(out);
    }
    // Expose the last few nodes as outputs.
    for (k, &node) in nodes.iter().rev().take(3).enumerate() {
        n.set_output(format!("o{k}"), node);
    }
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// 64-lane block simulation agrees with scalar simulation lane by
    /// lane on random circuits and random ternary inputs.
    #[test]
    fn batch_matches_scalar_on_random_circuits(
        (inputs, recipes) in recipe_strategy(40),
        seed_bits in proptest::collection::vec(0u8..3, 64 * 5),
    ) {
        let n = build(inputs, &recipes);
        prop_assert!(assert_mc_cells_only(&n).is_ok());
        // 64 lanes of random inputs.
        let lanes: Vec<Vec<Trit>> = (0..64)
            .map(|lane| {
                (0..inputs)
                    .map(|i| Trit::ALL[seed_bits[lane * 5 + i] as usize])
                    .collect()
            })
            .collect();
        let blocks: Vec<TritBlock> = (0..inputs)
            .map(|i| lanes.iter().map(|l| l[i]).collect())
            .collect();
        let batched = n.eval_block(&blocks);
        for (lane, input) in lanes.iter().enumerate() {
            let scalar = n.eval(input);
            for (w, s) in batched.iter().zip(&scalar) {
                prop_assert_eq!(w.lane(lane), *s);
            }
        }
    }

    /// Certified circuits are information-monotone: weakening any single
    /// input (stable → M) can only keep or weaken each output.
    #[test]
    fn random_certified_circuits_are_monotone(
        (inputs, recipes) in recipe_strategy(30),
        bits in proptest::collection::vec(0u8..2, 5),
    ) {
        let n = build(inputs, &recipes);
        let stable: Vec<Trit> = (0..inputs)
            .map(|i| Trit::from(bits[i % bits.len()] == 1))
            .collect();
        let base = n.eval(&stable);
        for i in 0..inputs {
            let mut weaker = stable.clone();
            weaker[i] = Trit::Meta;
            let out = n.eval(&weaker);
            for (b, w) in base.iter().zip(&out) {
                prop_assert!(*w == *b || w.is_meta());
            }
        }
    }

    /// Stable inputs always produce stable outputs on certified circuits
    /// (no spontaneous metastability).
    #[test]
    fn stable_in_stable_out(
        (inputs, recipes) in recipe_strategy(40),
        bits in proptest::collection::vec(0u8..2, 5),
    ) {
        let n = build(inputs, &recipes);
        let stable: Vec<Trit> = (0..inputs)
            .map(|i| Trit::from(bits[i % bits.len()] == 1))
            .collect();
        for t in n.eval(&stable) {
            prop_assert!(t.is_stable());
        }
    }

    /// The event-driven simulator settles to the functional evaluation on
    /// random circuits and random single-input transitions.
    #[test]
    fn event_sim_settles_to_functional_eval(
        (inputs, recipes) in recipe_strategy(25),
        bits in proptest::collection::vec(0u8..2, 5),
        flip in 0usize..5,
    ) {
        use mcs::netlist::event_sim::EventSim;
        use mcs::netlist::TechLibrary;
        let n = build(inputs, &recipes);
        let start: Vec<Trit> = (0..inputs)
            .map(|i| Trit::from(bits[i % bits.len()] == 1))
            .collect();
        let flip = flip % inputs;
        let mut target = start.clone();
        target[flip] = !target[flip];
        let lib = TechLibrary::paper_calibrated();
        let mut sim = EventSim::new(&n, &lib, &start);
        let _ = sim.apply(&[(flip, target[flip])]);
        prop_assert_eq!(sim.output_values(), n.eval(&target));
    }
}
