//! Sustained-throughput benchmark: streams millions of Gray-code vectors
//! through compiled sorting-circuit tapes and reports **sorted vectors per
//! second** per `(n, B)` cell.
//!
//! Usage:
//!
//! ```text
//! throughput [--vectors N] [--workers W] [--planes 1|4] [--seed S]
//!            [--kernels scalar,avx2] [--chunk-lanes L]
//!            [--cells nxB[,nxB...]] [--json PATH]
//! ```
//!
//! Defaults: the full paper-adjacent grid n ∈ {4, 8, 16} × B ∈ {2, 4, 8, 16},
//! 1 M vectors per cell, one worker per core, 4-wide planes (`--planes 1`
//! runs the 1-wide reference width), results written
//! to `BENCH_throughput.json`.
//!
//! `--kernels` runs every cell once per listed kernel tier (side-by-side
//! rows in the table and the JSON); without it the `MCS_KERNEL` environment
//! override applies, falling back to the best tier this CPU supports.
//! Unknown names and tiers the CPU cannot run are refused with a typed
//! error and a nonzero exit.
//!
//! Every cell pre-flights a sample before the timed loop runs: its
//! generated inputs must be the valid strings of their ranks, the tape's
//! outputs at the 4-wide width must be those strings sorted, and the
//! 1-wide width must produce the same output words. Only a failing sample
//! runs the `Netlist::eval_block` interpreter, which names the fault. The
//! reported checksum is byte-identical across runs, worker counts and
//! plane widths (it depends only on the input stream and `--chunk-lanes`).
//! Per-chunk eval-latency quantiles (p50/p99 in the table, the full
//! p50/p90/p99/p99.9/max set in the JSON) ride along as observational
//! columns — they never influence the checksum.

use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;

use mcs_bench::throughput::{
    report_json, run_cell, CellReport, ThroughputConfig, ThroughputError,
};
use mcs_logic::plane::kernel::{self, KernelId, UnknownKernel};
use mcs_logic::PlaneWidth;

#[derive(Debug)]
enum CliError {
    Usage(String),
    Kernel(UnknownKernel),
    Cell(ThroughputError),
    Io(PathBuf, std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Kernel(e) => write!(f, "{e}"),
            CliError::Cell(e) => write!(f, "{e}"),
            CliError::Io(path, e) => {
                write!(f, "writing {}: {e}", path.display())
            }
        }
    }
}

impl From<ThroughputError> for CliError {
    fn from(e: ThroughputError) -> CliError {
        CliError::Cell(e)
    }
}

impl From<UnknownKernel> for CliError {
    fn from(e: UnknownKernel) -> CliError {
        CliError::Kernel(e)
    }
}

/// Parses one `nxB` cell spec (e.g. `8x2`).
fn parse_cell(spec: &str) -> Result<(usize, usize), CliError> {
    let bad = || {
        CliError::Usage(format!(
            "bad cell {spec:?}: expected nxB, e.g. 8x2"
        ))
    };
    let (n, b) = spec.split_once(['x', 'X']).ok_or_else(bad)?;
    Ok((
        n.trim().parse().map_err(|_| bad())?,
        b.trim().parse().map_err(|_| bad())?,
    ))
}

fn run() -> Result<(), CliError> {
    let mut vectors = 1_000_000u64;
    let mut workers = 0usize;
    let mut planes = PlaneWidth::default();
    let mut seed: Option<u64> = None;
    let mut chunk_lanes = 8192usize;
    let mut cells: Vec<(usize, usize)> = Vec::new();
    let mut kernels: Vec<KernelId> = Vec::new();
    let mut json: PathBuf = PathBuf::from("BENCH_throughput.json");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--vectors" => {
                vectors = value("--vectors")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--vectors: {e}")))?;
            }
            "--workers" => {
                workers = value("--workers")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--workers: {e}")))?;
            }
            "--planes" => {
                planes = value("--planes")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("--planes: {e}")))?;
            }
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| CliError::Usage(format!("--seed: {e}")))?,
                );
            }
            "--chunk-lanes" => {
                chunk_lanes = value("--chunk-lanes")?.parse().map_err(|e| {
                    CliError::Usage(format!("--chunk-lanes: {e}"))
                })?;
            }
            "--cells" => {
                for spec in value("--cells")?.split(',') {
                    cells.push(parse_cell(spec)?);
                }
            }
            "--kernels" => {
                for name in value("--kernels")?.split(',') {
                    kernels.push(kernel::require(name.parse()?)?);
                }
            }
            "--json" => json = PathBuf::from(value("--json")?),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown argument {other:?}"
                )))
            }
        }
    }
    if cells.is_empty() {
        cells = [4usize, 8, 16]
            .into_iter()
            .flat_map(|n| [2usize, 4, 8, 16].into_iter().map(move |b| (n, b)))
            .collect();
    }
    if kernels.is_empty() {
        // MCS_KERNEL forces one tier; unset means the best available.
        kernels.push(kernel::from_env()?.unwrap_or_else(kernel::preferred));
    }

    let mut template = ThroughputConfig::new(0, 0);
    template.vectors = vectors;
    template.workers = workers;
    template.plane_width = planes;
    template.chunk_lanes = chunk_lanes;
    if let Some(s) = seed {
        template.seed = s;
    }

    println!(
        "== sustained throughput ({} vectors/cell, {} planes) ==",
        vectors, planes
    );
    println!(
        "{:>4} {:>4}  {:>5} {:>7} {:>6}  {:>3} {:>7}  {:>10}  {:>14}  {:>16}  {:>18}",
        "n", "B", "CEs", "gates", "depth", "thr", "kernel", "elapsed[s]",
        "vectors/s", "eval p50/p99[µs]", "checksum"
    );
    let mut reports: Vec<CellReport> = Vec::new();
    for (channels, width) in cells {
        // Side-by-side tier rows per cell: same stream, same checksum.
        for &k in &kernels {
            let cfg = ThroughputConfig {
                channels,
                width,
                kernel: k,
                ..template
            };
            let r = run_cell(&cfg)?;
            println!(
                "{:>4} {:>4}  {:>5} {:>7} {:>6}  {:>3} {:>7}  {:>10.3}  {:>14.0}  {:>16}  0x{:016x}",
                r.channels,
                r.width,
                r.comparators,
                r.gates,
                r.depth,
                r.workers,
                r.kernel.name(),
                r.elapsed.as_secs_f64(),
                r.vectors_per_s(),
                format!(
                    "{}/{}",
                    r.eval_latency.quantile(0.50) / 1_000,
                    r.eval_latency.quantile(0.99) / 1_000
                ),
                r.checksum,
            );
            reports.push(r);
        }
    }

    let doc = report_json(template.seed, chunk_lanes, &reports);
    std::fs::write(&json, doc).map_err(|e| CliError::Io(json.clone(), e))?;
    eprintln!("wrote {}", json.display());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("throughput: {e}");
            ExitCode::from(1)
        }
    }
}
