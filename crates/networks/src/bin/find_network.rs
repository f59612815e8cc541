//! Offline search driver: rediscovers depth-optimal sorting networks.
//!
//! Usage:
//!
//! ```text
//! find_network <channels> <max_depth> [target_size] [seconds] [seed] [workers]
//!              [--warm-start <path>] [--save <path>]
//! find_network --load <path>
//! ```
//!
//! Runs the parallel simulated-annealing driver of `mcs_networks::search`:
//! independent restarts, seeded from the master seed, are sharded across
//! worker threads (0 = one per available core) under a wall-clock budget,
//! printing every improvement of the shared best-so-far to stderr. Because
//! the run is wall-clock-capped, restarts are truncated at
//! timing-dependent points: unlike a pure iteration-budget run, two
//! invocations may return different (equally valid) networks.
//!
//! The result is reported on stdout as a **network artifact**
//! (`mcs_networks::io::NetworkArtifact` text form) — the exact bytes
//! `--save` writes, so `find_network … > net.mcsn` and
//! `find_network … --save net.mcsn` produce the same cacheable file. The
//! header carries the format version, channels, size, depth and the master
//! seed for review diffs; a Rust array literal (for pinning into
//! `optimal.rs`) goes to stderr.
//!
//! `--load` closes the cache loop: the artifact is loaded, **re-verified** with the 0-1 principle, and
//! re-emitted through the same writer — a cache can never silently serve a
//! non-sorting network.
//!
//! `--warm-start` resumes a hunt from a cached artifact instead of
//! restarting from scratch: the incumbent is loaded, re-verified, and
//! checked against `<channels>` and `<max_depth>` (a disagreement is a
//! typed error on stderr, never a panic) before it seeds every restart.
//! The run refines in the free search space with the extended
//! (permutation + relocation) move set, never returns a network larger
//! than the incumbent, and stamps warm-start provenance — the incumbent's
//! seed and size, as `parent-seed` / `parent-size` header lines — into the
//! reported artifact. Composing `--warm-start` with `--save` makes a long
//! hunt a chain of cheap budgeted runs:
//!
//! ```text
//! find_network 10 8 31 60 2018 0 --save hunt.mcsn
//! find_network 10 8 30 60 2018 0 --warm-start hunt.mcsn --save hunt.mcsn
//! find_network 10 8 29 600 2019 0 --warm-start hunt.mcsn --save hunt.mcsn
//! ```

use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Duration;

use mcs_networks::io::{NetworkArtifact, WarmStartProvenance};
use mcs_networks::search::{
    parallel_search_with_progress, MoveSet, ParallelSearchConfig, SearchSpace,
    WarmStartError,
};
use mcs_networks::Network;

/// Prints the artifact through the single shared formatting path: the
/// stdout report **is** the artifact text, and `--save` writes the same
/// bytes.
fn report(artifact: &NetworkArtifact, save: Option<&str>) -> ExitCode {
    let text = artifact.to_text();
    print!("{text}");
    if let Some(path) = save {
        if let Err(e) = std::fs::write(path, text.as_bytes()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(3);
        }
        eprintln!("saved artifact to {path}");
    }
    let net = &artifact.network;
    let pairs: Vec<String> = net
        .comparators()
        .iter()
        .map(|c| format!("({}, {})", c.lo(), c.hi()))
        .collect();
    eprintln!(
        "// {}-channel, depth {}, {} comparators",
        net.channels(),
        net.depth(),
        net.size()
    );
    eprintln!("[{}]", pairs.join(", "));
    ExitCode::SUCCESS
}

/// Loads an artifact, re-verifies it, and re-reports it through the
/// shared writer.
fn load(path: &str, save: Option<&str>) -> ExitCode {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(3);
        }
    };
    let artifact = match NetworkArtifact::from_slice(&bytes) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(3);
        }
    };
    // The cache contract: nothing leaves the loader unverified.
    if let Err(e) = artifact.reverify() {
        eprintln!("{path}: {e}");
        return ExitCode::from(4);
    }
    eprintln!(
        "loaded and re-verified {path}: {} (seed {})",
        artifact.network, artifact.master_seed
    );
    report(&artifact, save)
}

fn main() -> ExitCode {
    // Flags may appear anywhere; positional args keep their order.
    let mut positional: Vec<String> = Vec::new();
    let mut save: Option<String> = None;
    let mut load_path: Option<String> = None;
    let mut warm_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--save" => match args.next() {
                Some(p) => save = Some(p),
                None => {
                    eprintln!("--save needs a path");
                    return ExitCode::from(2);
                }
            },
            "--load" => match args.next() {
                Some(p) => load_path = Some(p),
                None => {
                    eprintln!("--load needs a path");
                    return ExitCode::from(2);
                }
            },
            "--warm-start" => match args.next() {
                Some(p) => warm_path = Some(p),
                None => {
                    eprintln!("--warm-start needs a path");
                    return ExitCode::from(2);
                }
            },
            other if other.starts_with("--") => {
                eprintln!(
                    "unknown flag {other:?}\nusage: find_network <channels> \
                     <max_depth> [target_size] [seconds] [seed] [workers] \
                     [--warm-start <path>] [--save <path>] | \
                     find_network --load <path>"
                );
                return ExitCode::from(2);
            }
            _ => positional.push(arg),
        }
    }
    if let Some(path) = load_path {
        // --load re-emits a cached artifact; it runs no search, so a
        // simultaneous --warm-start would be silently dead. Reject the
        // combination like any other misuse.
        if warm_path.is_some() {
            eprintln!(
                "--load and --warm-start are mutually exclusive: --load \
                 re-emits a cached artifact without searching, --warm-start \
                 seeds a new search from one"
            );
            return ExitCode::from(2);
        }
        return load(&path, save.as_deref());
    }

    // Positional args, all unsigned integers; a typo is a usage error, not
    // a panic.
    fn numeric<T: std::str::FromStr>(
        positional: &[String],
        index: usize,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        match positional.get(index) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| format!("{name} must be an unsigned integer, got {s:?}")),
        }
    }
    let parsed = (|| -> Result<(usize, usize, usize, u64, u64, usize), String> {
        if positional.len() > 6 {
            return Err(format!("too many arguments: {:?}", &positional[6..]));
        }
        Ok((
            numeric(&positional, 0, "channels", 9)?,
            numeric(&positional, 1, "max_depth", 7)?,
            numeric(&positional, 2, "target_size", 0)?,
            numeric(&positional, 3, "seconds", 60)?,
            numeric(&positional, 4, "seed", 1)?,
            numeric(&positional, 5, "workers", 0)?,
        ))
    })();
    let (channels, max_depth, target_size, seconds, seed, workers) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let mut config = ParallelSearchConfig::new(channels, max_depth);
    config.iterations = 2_000_000;
    config.restarts = u64::MAX / 2; // the wall clock is the real budget
    config.master_seed = seed;
    config.workers = workers;
    config.stop_at_size = (target_size > 0).then_some(target_size);
    config.wall_clock = Some(Duration::from_secs(seconds));
    // The saturated matching space is better shaped for depth-optimal
    // hunting but needs even channel counts.
    config.space = if channels.is_multiple_of(2) {
        SearchSpace::Saturated
    } else {
        SearchSpace::Free
    };

    // Warm start: reload the incumbent, re-verify it, and reject any
    // disagreement with the CLI instance (channels, depth budget) as a
    // typed error before any search state exists. Refinement runs in the
    // free space (a saturated candidate is a stack of perfect matchings,
    // which an arbitrary incumbent is not) with the extended move set.
    let mut provenance: Option<WarmStartProvenance> = None;
    if let Some(path) = &warm_path {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::from(3);
            }
        };
        let incumbent = match NetworkArtifact::from_slice(&bytes) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(3);
            }
        };
        config.space = SearchSpace::Free;
        config.moves = MoveSet::Extended;
        if let Err(e) = config.warm_start_from_artifact(&incumbent) {
            eprintln!("{path}: {e}");
            return ExitCode::from(match e {
                WarmStartError::Artifact(_) => 4,
                WarmStartError::Config(_) => 2,
            });
        }
        eprintln!(
            "warm start: resuming from {path}: {} (seed {})",
            incumbent.network, incumbent.master_seed
        );
        provenance = Some(WarmStartProvenance {
            parent_seed: incumbent.master_seed,
            parent_size: incumbent.network.size() as u32,
        });
    }

    // Track the best network ever published, not just the driver's answer:
    // with a stop-at-size target, the deterministic reduce returns the hit
    // from the lowest restart index, which a luckier higher-index restart
    // may have beaten — and this offline hunt wants the smallest network,
    // not the reproducible one (the wall clock already forfeits that).
    let best_published: Mutex<Option<Network>> = Mutex::new(None);
    let found = parallel_search_with_progress(&config, |size, net| {
        eprintln!("new best: {size} comparators, depth {}", net.depth());
        // A panicked progress callback elsewhere poisons the mutex but
        // cannot corrupt the Option inside — recover the value rather
        // than cascading the panic.
        *best_published
            .lock()
            .unwrap_or_else(|p| p.into_inner()) = Some(net.clone());
    });
    let found = found.map(|answer| {
        let published = best_published
            .into_inner()
            .unwrap_or_else(|p| p.into_inner());
        match (answer, published) {
            (Some(a), Some(p)) => Some(if p.size() < a.size() { p } else { a }),
            (a, p) => a.or(p),
        }
    });

    match found {
        Ok(Some(net)) => {
            if net.depth() > max_depth {
                // A search-driver invariant violation, reported like any
                // other bad artifact — never a panic.
                eprintln!(
                    "search returned a depth-{} network over the depth \
                     budget {max_depth}; refusing to report it",
                    net.depth()
                );
                return ExitCode::from(4);
            }
            let mut artifact = NetworkArtifact::new(net, seed);
            // Warm-started results carry their lineage in the header.
            artifact.provenance = provenance;
            // The same re-verification gate the cache loader applies.
            if let Err(e) = artifact.reverify() {
                eprintln!("searched network failed re-verification: {e}");
                return ExitCode::from(4);
            }
            report(&artifact, save.as_deref())
        }
        Ok(None) => {
            eprintln!("no sorter found within budget");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("invalid search configuration: {e}");
            ExitCode::from(2)
        }
    }
}
