//! `sort_server`: serve certified MC sorting over stdin/stdout or TCP.
//!
//! Usage:
//!
//! ```text
//! sort_server [--channels N] [--width B] [--workers W] [--planes 1|4|8]
//!             [--max-batch L] [--linger-us U | --linger-ms M]
//!             [--queue-depth D] [--timeout-ms T] [--circuit PATH]
//!             [--listen ADDR] [--stats-json PATH] [--quiet]
//! ```
//!
//! Defaults: a 4-channel × 2-bit circuit built from the stock cell network
//! (optimal table for small `n`, Batcher odd-even beyond), one worker per
//! core, 4-wide planes, 256-lane batches, 2 ms linger, 4096-request queue,
//! no per-request timeout, stdin/stdout mode.
//!
//! `--circuit PATH` loads a saved netlist artifact (e.g. an optimized
//! golden from `tests/golden/` or a `synth_circuit --save` output) instead
//! of building one; it is re-verified with the gate-level 0-1 sweep before
//! serving. `--listen 127.0.0.1:0` switches to TCP mode and prints the
//! bound address as `listening <addr>` on stderr.
//!
//! The plane kernel tier follows the best one this CPU supports; set
//! `MCS_KERNEL=scalar|avx2` to force one. Unknown names and tiers the CPU
//! cannot run are refused before any worker starts.
//!
//! The frame protocol, coalescing and backpressure semantics are
//! documented in [`mcs_bench::server`]; stdin-mode output is byte-identical
//! across worker counts, plane widths and kernels. Timing is observational
//! only:
//! `stats` response lines and the `--stats-json PATH` dump (the versioned
//! `mcs-serverstats-v1` document, written on exit) carry per-stage latency
//! quantiles without perturbing any sorted output byte.

use std::fmt;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use mcs_bench::artifact::{load_netlist, ArtifactError};
use mcs_bench::server::{
    serve_lines, serve_tcp, stats_json, ServerConfig, ServerError, SortEngine,
};
use mcs_logic::plane::kernel::{self, UnknownKernel};
use mcs_logic::PlaneWidth;

#[derive(Debug)]
enum CliError {
    Usage(String),
    Kernel(UnknownKernel),
    Artifact(ArtifactError),
    Server(ServerError),
    Io(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Kernel(e) => write!(f, "{e}"),
            CliError::Artifact(e) => write!(f, "loading circuit: {e}"),
            CliError::Server(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl From<UnknownKernel> for CliError {
    fn from(e: UnknownKernel) -> CliError {
        CliError::Kernel(e)
    }
}

impl From<ArtifactError> for CliError {
    fn from(e: ArtifactError) -> CliError {
        CliError::Artifact(e)
    }
}

impl From<ServerError> for CliError {
    fn from(e: ServerError) -> CliError {
        CliError::Server(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError::Io(e)
    }
}

fn run() -> Result<(), CliError> {
    let mut cfg = ServerConfig::new(4, 2);
    if let Some(k) = kernel::from_env()? {
        cfg.kernel = k;
    }
    let mut circuit: Option<PathBuf> = None;
    let mut listen: Option<String> = None;
    let mut stats_path: Option<PathBuf> = None;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
        };
        let parse_usize = |name: &str, v: String| {
            v.parse::<usize>()
                .map_err(|e| CliError::Usage(format!("{name}: {e}")))
        };
        let parse_u64 = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|e| CliError::Usage(format!("{name}: {e}")))
        };
        match arg.as_str() {
            "--channels" => cfg.channels = parse_usize("--channels", value("--channels")?)?,
            "--width" => cfg.width = parse_usize("--width", value("--width")?)?,
            "--workers" => cfg.workers = parse_usize("--workers", value("--workers")?)?,
            "--planes" => {
                cfg.plane_width = value("--planes")?
                    .parse::<PlaneWidth>()
                    .map_err(|e| CliError::Usage(format!("--planes: {e}")))?;
            }
            "--max-batch" => cfg.max_batch = parse_usize("--max-batch", value("--max-batch")?)?,
            "--linger-us" => {
                cfg.max_linger =
                    Duration::from_micros(parse_u64("--linger-us", value("--linger-us")?)?);
            }
            "--linger-ms" => {
                cfg.max_linger =
                    Duration::from_millis(parse_u64("--linger-ms", value("--linger-ms")?)?);
            }
            "--queue-depth" => {
                cfg.queue_depth = parse_usize("--queue-depth", value("--queue-depth")?)?;
            }
            "--timeout-ms" => {
                cfg.request_timeout = Some(Duration::from_millis(parse_u64(
                    "--timeout-ms",
                    value("--timeout-ms")?,
                )?));
            }
            "--circuit" => circuit = Some(PathBuf::from(value("--circuit")?)),
            "--listen" => listen = Some(value("--listen")?),
            "--stats-json" => {
                stats_path = Some(PathBuf::from(value("--stats-json")?));
            }
            "--quiet" => quiet = true,
            other => {
                return Err(CliError::Usage(format!("unknown argument {other:?}")));
            }
        }
    }

    let engine = match circuit {
        Some(path) => {
            let netlist = load_netlist(&path)?;
            SortEngine::from_netlist(cfg, &netlist)?
        }
        None => SortEngine::new(cfg)?,
    };

    let report = match listen {
        Some(addr) => {
            let listener = TcpListener::bind(&addr)?;
            eprintln!("listening {}", listener.local_addr()?);
            serve_tcp(&engine, listener)?
        }
        None => {
            let stdin = std::io::stdin();
            // `Stdout` is `Send` (needed by the writer thread) and already
            // line-buffered; locking it here would pin it to this thread.
            serve_lines(&engine, stdin.lock(), std::io::stdout())?
        }
    };
    if let Some(path) = stats_path {
        std::fs::write(&path, stats_json(&report))?;
    }
    if !quiet {
        eprintln!(
            "served {} rejected {} batches {} workers {}",
            report.served, report.rejected, report.batches, report.workers
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sort_server: {e}");
            ExitCode::from(1)
        }
    }
}
