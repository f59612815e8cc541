//! Golden-file snapshot tests for every writer: `export::to_dot`,
//! `export::to_verilog` and the netlist artifact text format, pinned on
//! the seed's certified netlists.
//!
//! The goldens live in `tests/golden/` and are committed: any format drift
//! shows up as a reviewable diff. To regenerate after an *intentional*
//! format change (which must also bump the artifact format version):
//!
//! ```text
//! MCS_REGEN_GOLDEN=1 cargo test --test golden_export
//! ```

use std::fs;
use std::path::PathBuf;

use mcs::netlist::export::{to_dot, to_verilog};
use mcs::netlist::serdes;
use mcs::netlist::Netlist;
use mcs::networks::circuit::{build_sorting_circuit, TwoSortFlavor};
use mcs::networks::optimal::best_size;
use mcs::prelude::*;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the committed golden file, or rewrites the
/// golden when `MCS_REGEN_GOLDEN` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("MCS_REGEN_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {name} ({e}); regenerate with MCS_REGEN_GOLDEN=1")
    });
    assert_eq!(
        actual, want,
        "{name} drifted from its golden; if intentional, bump the format \
         version and regenerate with MCS_REGEN_GOLDEN=1"
    );
}

/// The paper's 2-sort(2) — the seed's smallest certified netlist (13
/// gates, exhaustively MC-verified elsewhere in the suite).
fn two_sort_2() -> Netlist {
    build_two_sort(2, PrefixTopology::LadnerFischer)
}

/// The 4-channel, 2-bit full sorting circuit (Table 8's first cell).
fn four_sort_2b() -> Netlist {
    build_sorting_circuit(
        &best_size(4).expect("n=4 table"),
        2,
        TwoSortFlavor::Paper,
    )
}

/// The 8-channel, 2-bit full sorting circuit (247 gates pre-optimization).
fn eight_sort_2b() -> Netlist {
    build_sorting_circuit(
        &best_size(8).expect("n=8 table"),
        2,
        TwoSortFlavor::Paper,
    )
}

/// The standard pass pipeline under the calibrated library — the same
/// configuration `synth_circuit --optimize` runs, so these goldens pin
/// the optimizer's output structurally, not just its figures.
fn optimize(netlist: &Netlist) -> Netlist {
    mcs::netlist::PassManager::standard()
        .run(netlist, &TechLibrary::paper_calibrated())
        .netlist
}

#[test]
fn dot_of_two_sort_2_matches_golden() {
    assert_golden("two_sort_2.dot", &to_dot(&two_sort_2()));
}

#[test]
fn verilog_of_two_sort_2_matches_golden() {
    assert_golden("two_sort_2.v", &to_verilog(&two_sort_2()));
}

#[test]
fn verilog_of_four_sort_2b_matches_golden() {
    assert_golden("four_sort_2b.v", &to_verilog(&four_sort_2b()));
}

#[test]
fn dot_of_four_sort_2b_matches_golden() {
    assert_golden("four_sort_2b.dot", &to_dot(&four_sort_2b()));
}

#[test]
fn netlist_artifact_of_two_sort_2_matches_golden() {
    assert_golden(
        "two_sort_2.mcsnl",
        &serdes::to_text(&two_sort_2()).expect("serialises"),
    );
}

#[test]
fn optimized_netlist_artifact_of_four_sort_2b_matches_golden() {
    assert_golden(
        "four_sort_2b_opt.mcsnl",
        &serdes::to_text(&optimize(&four_sort_2b())).expect("serialises"),
    );
}

#[test]
fn optimized_netlist_artifact_of_eight_sort_2b_matches_golden() {
    assert_golden(
        "eight_sort_2b_opt.mcsnl",
        &serdes::to_text(&optimize(&eight_sort_2b())).expect("serialises"),
    );
}

#[test]
fn optimized_goldens_reload_as_the_reoptimized_build() {
    // Determinism pin: the committed optimized artifact is exactly what
    // optimizing today's builder output produces, and it really is
    // smaller than the unoptimized circuit it came from.
    for (golden, build) in [
        ("four_sort_2b_opt.mcsnl", four_sort_2b as fn() -> Netlist),
        ("eight_sort_2b_opt.mcsnl", eight_sort_2b),
    ] {
        let source = fs::read_to_string(golden_path(golden))
            .unwrap_or_else(|e| panic!("missing golden {golden}: {e}"));
        let loaded = serdes::from_text(&source).expect("golden loads");
        let original = build();
        assert_eq!(loaded, optimize(&original), "{golden}");
        assert!(
            loaded.gate_count() < original.gate_count(),
            "{golden}: {} vs {}",
            loaded.gate_count(),
            original.gate_count()
        );
    }
}

#[test]
fn golden_netlist_artifact_reloads_identical() {
    let source = fs::read_to_string(golden_path("two_sort_2.mcsnl"))
        .expect("missing golden two_sort_2.mcsnl");
    let loaded = serdes::from_text(&source).expect("golden loads");
    assert_eq!(loaded, two_sort_2());
}
