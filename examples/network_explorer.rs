//! Explore the sorting-network landscape: classic generators vs the
//! best-known optimal networks, verified on the spot, instantiated into
//! gate-level MC circuits, and exported for inspection.
//!
//! Run: `cargo run --release --example network_explorer`
//! (writes DOT/Verilog files under `target/explorer/`)

use std::fs;

use mcs::prelude::*;
use mcs_netlist::export::{to_dot, to_verilog};
use mcs_netlist::serdes;
use mcs_networks::generators::{batcher_odd_even, bitonic, insertion};
use mcs_networks::optimal::{best_depth, best_size, OPTIMAL_DEPTHS, OPTIMAL_SIZES};
use mcs_networks::verify::zero_one_verify;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:>3} {:>14} {:>14} {:>14} {:>14}",
        "n", "insertion", "batcher", "bitonic", "best-known"
    );
    println!(
        "{:>3} {:>14} {:>14} {:>14} {:>14}",
        "", "size/depth", "size/depth", "size/depth", "size/depth"
    );
    for n in 2..=10usize {
        let ins = insertion(n);
        let bat = batcher_odd_even(n);
        let bit = bitonic(n);
        let opt_s = best_size(n).expect("n <= 10");
        let opt_d = best_depth(n).expect("n <= 10");
        for net in [&ins, &bat, &bit, &opt_s, &opt_d] {
            zero_one_verify(net)?;
        }
        println!(
            "{n:>3} {:>11}/{:<2} {:>11}/{:<2} {:>11}/{:<2} {:>8}/{:<2}({}/{})",
            ins.size(),
            ins.depth(),
            bat.size(),
            bat.depth(),
            bit.size(),
            bit.depth(),
            opt_s.size(),
            opt_d.depth(),
            OPTIMAL_SIZES[n - 1],
            OPTIMAL_DEPTHS[n - 1],
        );
    }

    // How much silicon does the optimal network save at the gate level?
    println!("\n10-channel, 8-bit MC sorting circuits:");
    for (name, net) in [
        ("insertion", insertion(10)),
        ("batcher", batcher_odd_even(10)),
        ("10-sort# (29 CE)", best_size(10).expect("covered")),
        ("10-sortd (depth-opt)", best_depth(10).expect("covered")),
    ] {
        let circuit = build_sorting_circuit(&net, 8, TwoSortFlavor::Paper);
        let lib = TechLibrary::paper_calibrated();
        let area = AreaReport::of(&circuit, &lib).total_um2();
        let delay = TimingReport::of(&circuit, &lib).delay_ps();
        println!(
            "  {name:<22} {:>6} comparators  {:>7} gates  {area:>10.0} µm²  {delay:>6.0} ps",
            net.size(),
            circuit.gate_count()
        );
    }

    // Export the 2-sort(4) for inspection with Graphviz or an EDA flow.
    let dir = std::path::Path::new("target/explorer");
    fs::create_dir_all(dir)?;
    let two_sort = build_two_sort(4, PrefixTopology::LadnerFischer);
    fs::write(dir.join("two_sort_4.dot"), to_dot(&two_sort))?;
    fs::write(dir.join("two_sort_4.v"), to_verilog(&two_sort))?;
    let four_sort = build_sorting_circuit(
        &best_size(4).expect("covered"),
        2,
        TwoSortFlavor::Paper,
    );
    fs::write(dir.join("four_sort_2b.v"), to_verilog(&four_sort))?;
    // The Verilog is an export only; the native text artifact is the form
    // that loads back.
    fs::write(dir.join("four_sort_2b.mcsnl"), serdes::to_text(&four_sort)?)?;
    assert_eq!(
        serdes::from_text(&fs::read_to_string(dir.join("four_sort_2b.mcsnl"))?)?,
        four_sort
    );
    println!(
        "\nexported: target/explorer/{{two_sort_4.dot, two_sort_4.v, four_sort_2b.v, \
         four_sort_2b.mcsnl}}"
    );
    Ok(())
}
