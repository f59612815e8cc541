//! Benchmark harness: regenerates every table and figure of the paper.
//!
//! Binaries (run with `cargo run -p mcs-bench --release --bin <name>`):
//!
//! * `repro_figure1` — Figure 1: area, delay and gate count of 2-sort(B)
//!   versus the DATE 2017 state of the art, B ∈ {2, 4, 8, 16}.
//! * `repro_table7` — Table 7: 2-sort(B) for this paper, \[2\] and Bin-comp.
//! * `repro_table8` — Table 8: complete n-channel sorting networks
//!   (4-sort, 7-sort, 10-sort#, 10-sortd) × B ∈ {2, 4, 8, 16} × designs.
//! * `ablation_prefix` — prefix-topology ablation (not in the paper):
//!   Ladner–Fischer vs serial vs Sklansky vs unshared recursion.
//! * `synth_circuit` — synthesis driver: network ([`engine::cell_network`]:
//!   the optimal table up to 10 channels, Batcher beyond) × 2-sort
//!   flavour → full gate-level netlist, re-verified, measured, and
//!   saved/loaded as netlist artifacts (`--save`/`--load`).
//! * `throughput` — sustained-throughput benchmark: streams millions of
//!   Gray-code vectors through the verified [`engine::Engine`] across
//!   worker threads, reporting sorted vectors per second as
//!   `BENCH_throughput.json` (see [`throughput`]).
//! * `sort_server` — batching, backpressured serving layer over the same
//!   [`engine::Engine`]: framed valid-string requests on stdin or a
//!   localhost TCP socket, coalesced into shared plane words and sorted
//!   deterministically (see [`server`]).
//!
//! Library modules: [`engine`] (the one verified circuit and compiled tape
//! behind both), [`artifact`] (netlist artifacts as text, re-checked
//! on load, plus the Verilog and DOT exports), [`verify`] (the gate-level 0-1 check), [`metrics`] (latency
//! histograms) and [`published`] (the paper's numbers).
//!
//! The Criterion benches (`cargo bench -p mcs-bench`) time the same
//! construction + analysis pipelines and the gate-level simulator.
//!
//! All area/delay numbers come from the calibrated technology model in
//! `mcs-netlist`; gate counts are exact (see `EXPERIMENTS.md` for
//! paper-vs-measured tables).

pub mod artifact;
pub mod engine;
mod json;
pub mod metrics;
pub mod published;
pub mod server;
pub mod throughput;
pub mod verify;

use mcs_netlist::{AreaReport, Netlist, TechLibrary, TimingReport};

/// One measured row: the three metrics the paper reports, plus logic depth.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Measurement {
    /// Standard-cell count (the paper's "# gates").
    pub gates: usize,
    /// Logic depth in levels.
    pub depth: u32,
    /// Modelled post-layout area (µm²).
    pub area_um2: f64,
    /// Modelled critical-path delay (ps).
    pub delay_ps: f64,
}

/// Measures a netlist under a technology library.
pub fn measure(netlist: &Netlist, lib: &TechLibrary) -> Measurement {
    Measurement {
        gates: netlist.gate_count(),
        depth: netlist.depth(),
        area_um2: AreaReport::of(netlist, lib).total_um2(),
        delay_ps: TimingReport::of(netlist, lib).delay_ps(),
    }
}

/// Formats one table row: label + gates/area/delay.
pub fn format_row(label: &str, m: &Measurement) -> String {
    format!(
        "{label:<28} {:>7}  {:>11.3}  {:>8.0}  {:>6}",
        m.gates, m.area_um2, m.delay_ps, m.depth
    )
}

/// Prints the standard table header matching [`format_row`].
pub fn print_header(title: &str) {
    println!("\n== {title} ==");
    println!(
        "{:<28} {:>7}  {:>11}  {:>8}  {:>6}",
        "circuit", "gates", "area[µm²]", "delay[ps]", "depth"
    );
}

/// Relative change in percent, `100·(1 − new/old)` (positive = improvement).
pub fn improvement_pct(new: f64, old: f64) -> f64 {
    100.0 * (1.0 - new / old)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_core::ppc::PrefixTopology;
    use mcs_core::two_sort::build_two_sort;

    #[test]
    fn measurement_of_two_sort_16() {
        let c = build_two_sort(16, PrefixTopology::LadnerFischer);
        let m = measure(&c, &TechLibrary::paper_calibrated());
        assert_eq!(m.gates, 407);
        // Calibrated area must land within 1% of the paper's 548.016 µm².
        assert!(
            (m.area_um2 - 548.016).abs() / 548.016 < 0.01,
            "area {:.3}",
            m.area_um2
        );
        // Delay in the right regime (paper: 805 ps).
        assert!(m.delay_ps > 400.0 && m.delay_ps < 1200.0, "{}", m.delay_ps);
    }

    #[test]
    fn helpers_format() {
        let m = Measurement {
            gates: 13,
            depth: 4,
            area_um2: 17.486,
            delay_ps: 119.0,
        };
        let row = format_row("2-sort(2)", &m);
        assert!(row.contains("13"));
        assert!(row.contains("17.486"));
        assert!((improvement_pct(548.016, 1928.262) - 71.58).abs() < 0.01);
    }
}
