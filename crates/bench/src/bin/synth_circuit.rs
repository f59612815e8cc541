//! Synthesis driver: comparator network × 2-sort flavour → a complete
//! gate-level MC sorting circuit, re-verified, measured, optionally
//! optimized, and cached as a netlist artifact.
//!
//! Usage:
//!
//! ```text
//! synth_circuit [--channels N] [--width B] [--flavor paper|bund2017|serial2016|bincomp]
//!               [--network <network artifact>] [--optimize] [--save <path>]
//! synth_circuit --load <path> [--channels N] [--width B] [--optimize] [--save <path>]
//! ```
//!
//! The network comes from the best-known optimal tables (`--channels`,
//! n ≤ 10) or — the cache path — from a saved network artifact (such as
//! `tests/golden/eight_sort_best.mcsn`) via `--network`, re-verified with
//! the 0-1 principle on load. The instantiated circuit is then re-verified at gate
//! level (every 0-1 channel pattern must sort), measured under the
//! calibrated technology model, and optionally written with `--save`; the
//! extension picks the format (`.mcsnl` netlist artifact, `.v` structural
//! Verilog, `.dot` Graphviz).
//!
//! `--optimize` runs the standard `mcs-netlist` pass pipeline (dead sweep,
//! constant folding + strength reduction, CSE, depth rebalancing) to a
//! fixpoint and prints a `repro_table7`-style before/after report: one row
//! per changed pass application, then the optimized row and the relative
//! improvement. The optimized netlist is re-verified (certified cells +
//! gate-level 0-1 sweep) and its area/delay figures are independently
//! recomputed and cross-checked against the optimizer's reported
//! after-stats — a mismatch is a typed error, not a panic. With `--save`,
//! the optimized netlist is what gets written.
//!
//! `--load` reverses the trip: a cached netlist artifact (any loadable
//! format, including Verilog) is loaded, re-verified at gate level against
//! `--channels`/`--width`, optionally optimized, measured, and re-exported
//! through `--save` — so the binary doubles as a format converter
//! (`--load c.mcsnl --save c.v`).

use std::fmt;
use std::path::Path;
use std::process::ExitCode;

use mcs_bench::artifact::{
    load_netlist, load_network, save_netlist, ArtifactError,
};
use mcs_bench::verify::{zero_one_circuit_check, CircuitVerifyError};
use mcs_bench::{format_row, improvement_pct, measure, print_header};
use mcs_netlist::mc::assert_mc_cells_only;
use mcs_netlist::passes::PassManager;
use mcs_netlist::{Netlist, NetlistFigures, TechLibrary};
use mcs_networks::circuit::{build_sorting_circuit, TwoSortFlavor};
use mcs_networks::io::NetworkArtifact;
use mcs_networks::optimal::best_size;

/// Everything that can go wrong in the driver, as typed variants instead
/// of bare strings — `StatsMismatch` in particular turns the "optimizer
/// reported figures the netlist does not have" case into a first-class
/// error instead of a trusted header or a panic.
#[derive(Debug)]
enum SynthError {
    /// Bad command line.
    Usage(String),
    /// Loading or saving an artifact failed.
    Artifact(ArtifactError),
    /// A gate-level re-verification failed (0-1 sweep, cell certification).
    Verification(String),
    /// The optimizer's reported after-figures disagree with an independent
    /// recomputation on the optimized netlist.
    StatsMismatch {
        metric: &'static str,
        reported: f64,
        recomputed: f64,
    },
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::Usage(msg) => write!(f, "{msg}"),
            SynthError::Artifact(e) => write!(f, "{e}"),
            SynthError::Verification(msg) => {
                write!(f, "re-verification failed: {msg}")
            }
            SynthError::StatsMismatch {
                metric,
                reported,
                recomputed,
            } => write!(
                f,
                "optimizer stats mismatch: reported {metric} {reported} but \
                 recomputation gives {recomputed}"
            ),
        }
    }
}

impl From<ArtifactError> for SynthError {
    fn from(e: ArtifactError) -> SynthError {
        SynthError::Artifact(e)
    }
}

impl From<CircuitVerifyError> for SynthError {
    fn from(e: CircuitVerifyError) -> SynthError {
        SynthError::Verification(e.to_string())
    }
}

/// Runs the standard pass pipeline on `netlist`, prints the before/after
/// report, re-verifies the result and cross-checks the reported figures.
fn optimize(
    netlist: Netlist,
    channels: usize,
    width: usize,
    lib: &TechLibrary,
) -> Result<Netlist, SynthError> {
    let was_certified = assert_mc_cells_only(&netlist).is_ok();
    let result = PassManager::standard().run(&netlist, lib);
    for s in result.stats.iter().filter(|s| s.changed) {
        println!(
            "  [round {}] {:<11} gates {} -> {}  area {:.3} -> {:.3}  \
             delay {:.0} -> {:.0}  depth {} -> {}",
            s.round,
            s.pass,
            s.before.gates,
            s.after.gates,
            s.before.area_um2,
            s.after.area_um2,
            s.before.delay_ps,
            s.after.delay_ps,
            s.before.depth,
            s.after.depth,
        );
    }
    let optimized = result.netlist.clone();

    // The optimized circuit must re-pass everything the input did.
    if was_certified {
        if let Err(e) = assert_mc_cells_only(&optimized) {
            return Err(SynthError::Verification(format!(
                "optimizer left the certified cell set: {e}"
            )));
        }
    }
    zero_one_circuit_check(&optimized, channels, width)?;

    // Never trust reported figures: recompute on the netlist we actually
    // hold and require agreement with the optimizer's after-stats.
    let reported = result.after();
    let recomputed = NetlistFigures::of(&optimized, lib);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(1.0);
    if reported.gates != recomputed.gates {
        return Err(SynthError::StatsMismatch {
            metric: "gates",
            reported: reported.gates as f64,
            recomputed: recomputed.gates as f64,
        });
    }
    if reported.depth != recomputed.depth {
        return Err(SynthError::StatsMismatch {
            metric: "depth",
            reported: reported.depth as f64,
            recomputed: recomputed.depth as f64,
        });
    }
    if !close(reported.area_um2, recomputed.area_um2) {
        return Err(SynthError::StatsMismatch {
            metric: "area_um2",
            reported: reported.area_um2,
            recomputed: recomputed.area_um2,
        });
    }
    if !close(reported.delay_ps, recomputed.delay_ps) {
        return Err(SynthError::StatsMismatch {
            metric: "delay_ps",
            reported: reported.delay_ps,
            recomputed: recomputed.delay_ps,
        });
    }

    let before = result.before();
    println!("{}", format_row("optimized", &measure(&optimized, lib)));
    println!(
        "  improvement: gates {:.1}%  area {:.1}%  delay {:.1}%  \
         ({} fixpoint rounds)",
        improvement_pct(recomputed.gates as f64, before.gates as f64),
        improvement_pct(recomputed.area_um2, before.area_um2),
        improvement_pct(recomputed.delay_ps, before.delay_ps),
        result.rounds,
    );
    Ok(optimized)
}

fn run() -> Result<(), SynthError> {
    let mut channels = 4usize;
    let mut width = 2usize;
    let mut flavor = TwoSortFlavor::Paper;
    let mut network_path: Option<String> = None;
    let mut save: Option<String> = None;
    let mut load_path: Option<String> = None;
    let mut do_optimize = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| SynthError::Usage(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--channels" => {
                channels = value("--channels")?.parse().map_err(|e| {
                    SynthError::Usage(format!("--channels: {e}"))
                })?;
            }
            "--width" => {
                width = value("--width")?
                    .parse()
                    .map_err(|e| SynthError::Usage(format!("--width: {e}")))?;
            }
            "--flavor" => {
                let v = value("--flavor")?;
                flavor = match v.as_str() {
                    "paper" => TwoSortFlavor::Paper,
                    "bund2017" => TwoSortFlavor::Bund2017,
                    "serial2016" => TwoSortFlavor::Serial2016,
                    "bincomp" => TwoSortFlavor::BinComp,
                    other => {
                        return Err(SynthError::Usage(format!(
                            "unknown flavor {other:?}"
                        )))
                    }
                };
            }
            "--network" => network_path = Some(value("--network")?),
            "--save" => save = Some(value("--save")?),
            "--load" => load_path = Some(value("--load")?),
            "--optimize" => do_optimize = true,
            other => {
                return Err(SynthError::Usage(format!(
                    "unknown argument {other:?}"
                )))
            }
        }
    }
    if width == 0 || width > 63 {
        return Err(SynthError::Usage("--width must be in 1..=63".into()));
    }

    let lib = TechLibrary::paper_calibrated();
    let netlist = if let Some(path) = load_path {
        // Cache hit: load, then re-verify at gate level before trusting it.
        let netlist = load_netlist(Path::new(&path))?;
        zero_one_circuit_check(&netlist, channels, width).map_err(|e| {
            SynthError::Verification(format!("{path}: {e}"))
        })?;
        eprintln!("loaded and re-verified {path}: {netlist}");
        netlist
    } else {
        let artifact: NetworkArtifact = if let Some(path) = network_path {
            // The cache path: a saved network is loaded (and re-verified by
            // the loader) instead of taken from the optimal tables.
            let a = load_network(Path::new(&path))?;
            eprintln!(
                "loaded cached network {path}: {} (seed {})",
                a.network, a.master_seed
            );
            channels = a.network.channels();
            a
        } else {
            match best_size(channels) {
                Some(net) => NetworkArtifact::new(net, 0),
                None => {
                    return Err(SynthError::Usage(format!(
                        "no optimal table for {channels} channels; pass --network <artifact>"
                    )))
                }
            }
        };
        let netlist = build_sorting_circuit(&artifact.network, width, flavor);
        if flavor != TwoSortFlavor::BinComp {
            // MC flavours must stay within the certified cell set.
            if let Err(e) = assert_mc_cells_only(&netlist) {
                return Err(SynthError::Verification(format!(
                    "uncertified cell in MC flavour: {e}"
                )));
            }
        }
        zero_one_circuit_check(&netlist, channels, width).map_err(|e| {
            SynthError::Verification(format!("instantiated circuit: {e}"))
        })?;
        netlist
    };

    print_header(&format!("{channels}-channel × {width}-bit sorting circuit"));
    println!("{}", format_row(netlist.name(), &measure(&netlist, &lib)));

    let netlist = if do_optimize {
        optimize(netlist, channels, width, &lib)?
    } else {
        netlist
    };

    if let Some(path) = save {
        save_netlist(Path::new(&path), &netlist)?;
        eprintln!("saved netlist artifact to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("synth_circuit: {e}");
            ExitCode::from(1)
        }
    }
}
