//! Text serialisation of comparator networks.
//!
//! Two layers:
//!
//! 1. The de-facto standard notation used by sorting-network tools and
//!    papers ([`to_layer_string`] / [`parse_network`]):
//!
//!    ```text
//!    [(0,1),(2,3)],[(0,2),(1,3)],[(1,2)]
//!    ```
//!
//!    Layers are bracketed groups of `(lo,hi)` pairs; whitespace is
//!    ignored. A flat list without layer brackets is also accepted (each
//!    comparator then forms its own sequential step; greedy relayering
//!    recovers the parallel structure).
//!
//! 2. The versioned **artifact format** ([`NetworkArtifact`]) used to cache
//!    networks across runs: a header carrying the format version, channel
//!    count, size, depth and a seed (the master seed of the run that found
//!    the network, 0 when unknown), followed by one comparator per line in
//!    execution order — diffable in review, byte-identical under
//!    `save → load → save`.
//!    Loaders recompute every header figure and reject artifacts on any
//!    mismatch, and [`NetworkArtifact::reverify`]
//!    re-runs 0-1-principle verification so a cache can never silently
//!    serve a non-sorting network.
//!
//! ```text
//! mcs-network v2
//! channels 4
//! size 5
//! depth 3
//! seed 2018
//! (0,1)
//! (2,3)
//! (0,2)
//! (1,3)
//! (1,2)
//! end
//! ```
//!
//! The version is bumped on any incompatible change; unknown versions are
//! rejected, never guessed at. Older versions down to
//! [`ARTIFACT_MIN_VERSION`] remain loadable: a v1 artifact has the same
//! layout and loads as a v2 artifact — re-saving it writes the current
//! version. Any other header line after `seed` (such as the warm-start
//! provenance lines a since-retired search once wrote) is not a comparator
//! and is rejected as a typed error.

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use crate::comparator::Network;
use crate::verify::{zero_one_verify, SortFailure};

/// Formats a network in layered notation (greedy ASAP layers).
///
/// ```
/// use mcs_networks::io::to_layer_string;
/// use mcs_networks::Network;
///
/// let net = Network::from_pairs(4, [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)]);
/// assert_eq!(
///     to_layer_string(&net),
///     "[(0,1),(2,3)],[(0,2),(1,3)],[(1,2)]"
/// );
/// ```
pub fn to_layer_string(network: &Network) -> String {
    let mut out = String::new();
    for (k, layer) in network.layers().iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, c) in layer.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("({},{})", c.lo(), c.hi()));
        }
        out.push(']');
    }
    out
}

/// Parses layered or flat comparator-list notation. The channel count is
/// inferred as one past the highest channel mentioned, unless `channels`
/// overrides it.
///
/// # Errors
///
/// Returns [`ParseNetworkError`] on malformed input, non-standard pairs
/// (`lo ≥ hi`) or out-of-range channels.
pub fn parse_network(
    text: &str,
    channels: Option<usize>,
) -> Result<Network, ParseNetworkError> {
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let cleaned: String = text
        .chars()
        .filter(|c| !c.is_whitespace() && *c != '[' && *c != ']' && *c != ';')
        .collect();
    // Adjacent pairs may touch after bracket removal: "(0,1)(1,2)".
    let cleaned = cleaned.replace(")(", "),(");
    for chunk in cleaned.split("),(") {
        let chunk = chunk.trim_matches(|c| c == '(' || c == ')' || c == ',');
        if chunk.is_empty() {
            continue;
        }
        let (a, b) = chunk.split_once(',').ok_or_else(|| ParseNetworkError {
            detail: format!("expected `lo,hi` in {chunk:?}"),
        })?;
        let lo: usize = a.parse().map_err(|_| ParseNetworkError {
            detail: format!("bad channel number {a:?}"),
        })?;
        let hi: usize = b.parse().map_err(|_| ParseNetworkError {
            detail: format!("bad channel number {b:?}"),
        })?;
        if lo >= hi {
            return Err(ParseNetworkError {
                detail: format!("non-standard comparator ({lo},{hi})"),
            });
        }
        pairs.push((lo, hi));
    }
    let needed = pairs.iter().map(|&(_, h)| h + 1).max().unwrap_or(1);
    let n = channels.unwrap_or(needed);
    if n < needed {
        return Err(ParseNetworkError {
            detail: format!("channel count {n} too small, need {needed}"),
        });
    }
    Ok(Network::from_pairs(n, pairs))
}

/// Error from [`parse_network`].
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct ParseNetworkError {
    detail: String,
}

impl fmt::Display for ParseNetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid network notation: {}", self.detail)
    }
}

impl Error for ParseNetworkError {}

impl FromStr for Network {
    type Err = ParseNetworkError;

    fn from_str(s: &str) -> Result<Network, ParseNetworkError> {
        parse_network(s, None)
    }
}

// ---------------------------------------------------------------------------
// The versioned network artifact format
// ---------------------------------------------------------------------------

/// Format version written by this module.
pub const ARTIFACT_VERSION: u32 = 2;

/// Oldest format version the loaders still accept. v1 artifacts share the
/// v2 layout; they load as v2 artifacts.
pub const ARTIFACT_MIN_VERSION: u32 = 1;

/// Magic first line of the text artifact (followed by ` v<version>`).
pub const ARTIFACT_TEXT_MAGIC: &str = "mcs-network";

/// The largest channel count [`NetworkArtifact::reverify`] will check
/// exhaustively (2^n 0-1 inputs; matches [`zero_one_verify`]'s bound).
pub const MAX_VERIFY_CHANNELS: usize = 24;

/// A comparator network plus the master seed its cache entry carries (0
/// when unknown — e.g. a hand-written or generator-built network).
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct NetworkArtifact {
    /// The network, comparators in execution order.
    pub network: Network,
    /// Master seed of the run that found it (0 = unknown).
    pub master_seed: u64,
}

/// Error from the [`NetworkArtifact`] loaders and [`NetworkArtifact::reverify`].
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum NetworkArtifactError {
    /// Input ended before the structure was complete.
    Truncated {
        /// What the loader was reading when the input ran out.
        context: &'static str,
    },
    /// The magic tag is not this format's.
    BadMagic,
    /// The format version is not [`ARTIFACT_VERSION`].
    UnsupportedVersion {
        /// The version found in the artifact.
        found: u32,
    },
    /// A header line that does not parse.
    Header {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        detail: String,
    },
    /// A comparator that does not parse or is not standard form.
    Comparator {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        detail: String,
    },
    /// A comparator channel at or beyond the declared channel count.
    ChannelOutOfRange {
        /// 1-based line number.
        line: usize,
        /// The offending channel.
        channel: usize,
        /// The declared channel count.
        channels: usize,
    },
    /// A header figure that disagrees with the reconstructed network.
    CountMismatch {
        /// Which header field.
        field: &'static str,
        /// Value claimed by the header.
        header: u64,
        /// Value recomputed from the body.
        actual: u64,
    },
    /// Re-verification found a 0-1 input the network does not sort.
    NotASorter {
        /// The failing input.
        failure: SortFailure,
    },
    /// The network is too wide for exhaustive 0-1 re-verification.
    TooWideToVerify {
        /// The channel count.
        channels: usize,
    },
}

impl fmt::Display for NetworkArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkArtifactError::Truncated { context } => {
                write!(f, "truncated artifact while reading {context}")
            }
            NetworkArtifactError::BadMagic => {
                write!(f, "not an mcs-network artifact")
            }
            NetworkArtifactError::UnsupportedVersion { found } => write!(
                f,
                "unsupported format version {found} (this build reads \
                 v{ARTIFACT_MIN_VERSION}..=v{ARTIFACT_VERSION})"
            ),
            NetworkArtifactError::Header { line, detail } => {
                write!(f, "line {line}: {detail}")
            }
            NetworkArtifactError::Comparator { line, detail } => {
                write!(f, "line {line}: {detail}")
            }
            NetworkArtifactError::ChannelOutOfRange { line, channel, channels } => {
                write!(
                    f,
                    "line {line}: channel {channel} out of range for {channels} channels"
                )
            }
            NetworkArtifactError::CountMismatch { field, header, actual } => {
                write!(f, "header claims {field} {header} but the body has {actual}")
            }
            NetworkArtifactError::NotASorter { failure } => {
                write!(f, "artifact does not sort: {failure}")
            }
            NetworkArtifactError::TooWideToVerify { channels } => write!(
                f,
                "{channels} channels exceed the exhaustive 0-1 bound of {MAX_VERIFY_CHANNELS}"
            ),
        }
    }
}

impl Error for NetworkArtifactError {}

impl NetworkArtifact {
    /// Wraps a network with the master seed that found it.
    pub fn new(network: Network, master_seed: u64) -> NetworkArtifact {
        NetworkArtifact {
            network,
            master_seed,
        }
    }

    /// Serialises in the canonical text form (one comparator per line, in
    /// execution order, under the versioned header). Byte-identical under
    /// `save → load → save`.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("{ARTIFACT_TEXT_MAGIC} v{ARTIFACT_VERSION}\n"));
        s.push_str(&format!("channels {}\n", self.network.channels()));
        s.push_str(&format!("size {}\n", self.network.size()));
        s.push_str(&format!("depth {}\n", self.network.depth()));
        s.push_str(&format!("seed {}\n", self.master_seed));
        for c in self.network.comparators() {
            s.push_str(&format!("({},{})\n", c.lo(), c.hi()));
        }
        s.push_str("end\n");
        s
    }

    /// Loads from the text form.
    ///
    /// # Errors
    ///
    /// Typed [`NetworkArtifactError`]s on any malformed input; never
    /// panics. Every header figure is recomputed and cross-checked.
    pub fn from_text(text: &str) -> Result<NetworkArtifact, NetworkArtifactError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim_end()));
        let (_, magic) = lines.next().ok_or(NetworkArtifactError::Truncated {
            context: "magic line",
        })?;
        let version_token = magic
            .strip_prefix(ARTIFACT_TEXT_MAGIC)
            .map(str::trim)
            .ok_or(NetworkArtifactError::BadMagic)?;
        let version: u32 = version_token
            .strip_prefix('v')
            .and_then(|v| v.parse().ok())
            .ok_or(NetworkArtifactError::BadMagic)?;
        if !(ARTIFACT_MIN_VERSION..=ARTIFACT_VERSION).contains(&version) {
            return Err(NetworkArtifactError::UnsupportedVersion { found: version });
        }
        let mut header_field = |key: &str| -> Result<u64, NetworkArtifactError> {
            let (line, l) = lines.next().ok_or(NetworkArtifactError::Truncated {
                context: "header",
            })?;
            let value = l
                .strip_prefix(key)
                .map(str::trim)
                .filter(|v| !v.is_empty())
                .ok_or_else(|| NetworkArtifactError::Header {
                    line,
                    detail: format!("expected `{key} <value>`, found {l:?}"),
                })?;
            value.parse().map_err(|_| NetworkArtifactError::Header {
                line,
                detail: format!("bad {key} value {value:?}"),
            })
        };
        let channels_figure = header_field("channels")?;
        let size = header_field("size")?;
        let depth = header_field("depth")?;
        let seed = header_field("seed")?;
        // Channel counts are capped at u16::MAX: a wider figure must be a
        // typed error here, not a panic in `Comparator::new` later.
        if channels_figure == 0 || channels_figure > u64::from(u16::MAX) {
            return Err(NetworkArtifactError::Header {
                line: 2,
                detail: format!(
                    "channel count {channels_figure} outside 1..={}",
                    u16::MAX
                ),
            });
        }
        let channels = channels_figure as usize;
        let mut network = Network::new(channels);
        let mut saw_end = false;
        for (line, l) in &mut lines {
            if l == "end" {
                saw_end = true;
                break;
            }
            let body = l
                .strip_prefix('(')
                .and_then(|b| b.strip_suffix(')'))
                .ok_or_else(|| NetworkArtifactError::Comparator {
                    line,
                    detail: format!("expected `(lo,hi)`, found {l:?}"),
                })?;
            let (a, b) = body.split_once(',').ok_or_else(|| {
                NetworkArtifactError::Comparator {
                    line,
                    detail: format!("expected `lo,hi` in {body:?}"),
                }
            })?;
            let parse = |t: &str| -> Result<usize, NetworkArtifactError> {
                t.trim().parse().map_err(|_| NetworkArtifactError::Comparator {
                    line,
                    detail: format!("bad channel number {t:?}"),
                })
            };
            let (lo, hi) = (parse(a)?, parse(b)?);
            if lo >= hi {
                return Err(NetworkArtifactError::Comparator {
                    line,
                    detail: format!("non-standard comparator ({lo},{hi})"),
                });
            }
            if hi >= channels {
                return Err(NetworkArtifactError::ChannelOutOfRange {
                    line,
                    channel: hi,
                    channels,
                });
            }
            network.push(lo, hi);
        }
        if !saw_end {
            return Err(NetworkArtifactError::Truncated {
                context: "body (missing `end`)",
            });
        }
        // A concatenated or corrupt cache entry must not half-load as its
        // first artifact.
        for (line, l) in lines {
            if !l.trim().is_empty() {
                return Err(NetworkArtifactError::Header {
                    line,
                    detail: format!("unexpected content after `end`: {l:?}"),
                });
            }
        }
        check_figures(&network, size, depth)?;
        Ok(NetworkArtifact {
            network,
            master_seed: seed,
        })
    }

    /// Loads from raw file bytes — the single dispatch point for
    /// file-based loaders (`synth_circuit --network`, `mcs-bench`'s cache
    /// helpers).
    ///
    /// # Errors
    ///
    /// [`NetworkArtifactError::BadMagic`] for bytes that are not UTF-8;
    /// otherwise whatever [`NetworkArtifact::from_text`] returns.
    pub fn from_slice(bytes: &[u8]) -> Result<NetworkArtifact, NetworkArtifactError> {
        let text =
            std::str::from_utf8(bytes).map_err(|_| NetworkArtifactError::BadMagic)?;
        NetworkArtifact::from_text(text)
    }

    /// Re-runs 0-1-principle verification on the loaded network — the
    /// gatekeeper between a cache and its consumers: a cache can never
    /// silently serve a non-sorting network.
    ///
    /// # Errors
    ///
    /// [`NetworkArtifactError::NotASorter`] with the failing input, or
    /// [`NetworkArtifactError::TooWideToVerify`] beyond
    /// [`MAX_VERIFY_CHANNELS`] channels (instead of a 2^n blow-up).
    pub fn reverify(&self) -> Result<(), NetworkArtifactError> {
        if self.network.channels() > MAX_VERIFY_CHANNELS {
            return Err(NetworkArtifactError::TooWideToVerify {
                channels: self.network.channels(),
            });
        }
        zero_one_verify(&self.network)
            .map_err(|failure| NetworkArtifactError::NotASorter { failure })
    }
}

/// Cross-checks the header's size/depth figures against the parsed body.
fn check_figures(
    network: &Network,
    size: u64,
    depth: u64,
) -> Result<(), NetworkArtifactError> {
    if size != network.size() as u64 {
        return Err(NetworkArtifactError::CountMismatch {
            field: "size",
            header: size,
            actual: network.size() as u64,
        });
    }
    if depth != network.depth() as u64 {
        return Err(NetworkArtifactError::CountMismatch {
            field: "depth",
            header: depth,
            actual: network.depth() as u64,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::{best_depth, best_size};

    #[test]
    fn roundtrip_all_optimal_networks() {
        for n in 2..=10usize {
            for net in [best_size(n).unwrap(), best_depth(n).unwrap()] {
                let text = to_layer_string(&net);
                let back = parse_network(&text, Some(n)).unwrap();
                // Layer order may differ from insertion order, but the
                // function is identical on every 0-1 input.
                assert!(zero_one_verify(&back).is_ok(), "n={n} {text}");
                assert_eq!(back.size(), net.size());
                assert_eq!(back.depth(), net.depth());
                for mask in 0..(1u64 << n) {
                    assert_eq!(back.apply_mask(mask), net.apply_mask(mask));
                }
            }
        }
    }

    #[test]
    fn parses_flat_and_spaced_notation() {
        let a: Network = "(0,1), (2,3) , (0,2),(1,3),(1,2)".parse().unwrap();
        assert_eq!(a.size(), 5);
        assert_eq!(a.depth(), 3);
        let b = parse_network("[(0,1)];[(1,2)]", None).unwrap();
        assert_eq!(b.channels(), 3);
        assert_eq!(b.size(), 2);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!("(1,0)".parse::<Network>().is_err()); // non-standard
        assert!("(a,b)".parse::<Network>().is_err());
        assert!("(1)".parse::<Network>().is_err());
        assert!(parse_network("(0,5)", Some(3)).is_err()); // too few channels
        let e = "(2,2)".parse::<Network>().unwrap_err();
        assert!(e.to_string().contains("non-standard"));
    }

    #[test]
    fn empty_input_gives_trivial_network() {
        let net = parse_network("", Some(4)).unwrap();
        assert_eq!(net.size(), 0);
        assert_eq!(net.channels(), 4);
    }

    #[test]
    fn artifact_text_roundtrip_is_byte_identical() {
        for n in 2..=10usize {
            for net in [best_size(n).unwrap(), best_depth(n).unwrap()] {
                let artifact = NetworkArtifact::new(net.clone(), 2018);
                let text = artifact.to_text();
                let back = NetworkArtifact::from_text(&text).unwrap();
                assert_eq!(back, artifact, "n={n}");
                assert_eq!(back.to_text(), text, "n={n}");
                assert_eq!(back.network.comparators(), net.comparators());
                assert!(back.reverify().is_ok());
            }
        }
    }

    #[test]
    fn artifact_text_matches_the_documented_example() {
        let artifact = NetworkArtifact::new(
            Network::from_pairs(4, [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)]),
            2018,
        );
        assert_eq!(
            artifact.to_text(),
            "mcs-network v2\nchannels 4\nsize 5\ndepth 3\nseed 2018\n\
             (0,1)\n(2,3)\n(0,2)\n(1,3)\n(1,2)\nend\n"
        );
    }

    #[test]
    fn headerless_v1_text_artifacts_still_load() {
        // The exact bytes PR 4's writer produced.
        let v1 = "mcs-network v1\nchannels 4\nsize 5\ndepth 3\nseed 2018\n\
                  (0,1)\n(2,3)\n(0,2)\n(1,3)\n(1,2)\nend\n";
        let loaded = NetworkArtifact::from_text(v1).unwrap();
        assert_eq!(loaded.master_seed, 2018);
        assert_eq!(loaded.network.size(), 5);
        loaded.reverify().unwrap();
        // Re-saving writes the current version (not byte-identical to v1).
        assert!(loaded.to_text().starts_with("mcs-network v2\n"));
    }

    /// The provenance header lines of the retired warm-start search
    /// (parent seed and size) are no longer part of the format, in either
    /// version: they reach the comparator parser and come back as a typed
    /// error, never a panic or a silently dropped line.
    #[test]
    fn malformed_provenance_is_a_typed_error() {
        for version in ["v1", "v2"] {
            let text = format!(
                "mcs-network {version}\nchannels 4\nsize 5\ndepth 3\nseed 2018\n\
                 parent-seed 7\nparent-size 33\n\
                 (0,1)\n(2,3)\n(0,2)\n(1,3)\n(1,2)\nend\n"
            );
            assert!(matches!(
                NetworkArtifact::from_text(&text),
                Err(NetworkArtifactError::Comparator { line: 6, .. })
            ));
            assert!(matches!(
                NetworkArtifact::from_slice(text.as_bytes()),
                Err(NetworkArtifactError::Comparator { line: 6, .. })
            ));
        }
    }

    #[test]
    fn artifact_truncation_and_magic_errors_are_typed() {
        assert_eq!(
            NetworkArtifact::from_text(""),
            Err(NetworkArtifactError::Truncated { context: "magic line" })
        );
        assert_eq!(
            NetworkArtifact::from_text("mcs-network v1\nchannels 4\n"),
            Err(NetworkArtifactError::Truncated { context: "header" })
        );
        assert_eq!(
            NetworkArtifact::from_text("garbage\n"),
            Err(NetworkArtifactError::BadMagic)
        );
        assert_eq!(
            NetworkArtifact::from_text(
                "mcs-network v9\nchannels 2\nsize 0\ndepth 0\nseed 0\nend\n"
            ),
            Err(NetworkArtifactError::UnsupportedVersion { found: 9 })
        );
        // A body that never reaches `end`.
        let full = NetworkArtifact::new(best_size(4).unwrap(), 1).to_text();
        let cut = &full[..full.len() - "end\n".len()];
        assert_eq!(
            NetworkArtifact::from_text(cut),
            Err(NetworkArtifactError::Truncated {
                context: "body (missing `end`)"
            })
        );
    }

    #[test]
    fn artifact_rejects_out_of_range_and_nonstandard_channels() {
        let out = "mcs-network v1\nchannels 3\nsize 1\ndepth 1\nseed 0\n(0,5)\nend\n";
        assert_eq!(
            NetworkArtifact::from_text(out),
            Err(NetworkArtifactError::ChannelOutOfRange {
                line: 6,
                channel: 5,
                channels: 3
            })
        );
        let nonstd = "mcs-network v1\nchannels 3\nsize 1\ndepth 1\nseed 0\n(2,1)\nend\n";
        assert!(matches!(
            NetworkArtifact::from_text(nonstd),
            Err(NetworkArtifactError::Comparator { line: 6, .. })
        ));
        let zero = "mcs-network v1\nchannels 0\nsize 0\ndepth 0\nseed 0\nend\n";
        assert!(matches!(
            NetworkArtifact::from_text(zero),
            Err(NetworkArtifactError::Header { .. })
        ));
    }

    #[test]
    fn artifact_rejects_oversized_channel_counts_without_panicking() {
        // Channel figures beyond u16 must be a typed error, not a
        // downstream panic in Comparator::new.
        let wide = "mcs-network v1\nchannels 70000\nsize 1\ndepth 1\nseed 0\n(0,69999)\nend\n";
        assert!(matches!(
            NetworkArtifact::from_text(wide),
            Err(NetworkArtifactError::Header { line: 2, .. })
        ));
        let wide_empty = "mcs-network v1\nchannels 70000\nsize 0\ndepth 0\nseed 0\nend\n";
        assert!(matches!(
            NetworkArtifact::from_text(wide_empty),
            Err(NetworkArtifactError::Header { line: 2, .. })
        ));
    }

    #[test]
    fn artifact_rejects_trailing_content_after_end() {
        let artifact = NetworkArtifact::new(best_size(4).unwrap(), 1);
        // Concatenated cache entries must not half-load as the first one.
        let doubled = artifact.to_text() + &artifact.to_text();
        assert!(matches!(
            NetworkArtifact::from_text(&doubled),
            Err(NetworkArtifactError::Header { .. })
        ));
        // Trailing blank lines are fine (editors add them).
        let padded = artifact.to_text() + "\n  \n";
        assert_eq!(NetworkArtifact::from_text(&padded).unwrap(), artifact);
    }

    /// Both text versions load from raw bytes.
    #[test]
    fn from_slice_sniffs_both_forms() {
        let artifact = NetworkArtifact::new(best_size(5).unwrap(), 9);
        assert_eq!(
            NetworkArtifact::from_slice(artifact.to_text().as_bytes()).unwrap(),
            artifact
        );
        let v1 = artifact.to_text().replacen("mcs-network v2", "mcs-network v1", 1);
        assert_eq!(NetworkArtifact::from_slice(v1.as_bytes()).unwrap(), artifact);
        assert_eq!(
            NetworkArtifact::from_slice(b"\xff\xfe not an artifact"),
            Err(NetworkArtifactError::BadMagic)
        );
    }

    #[test]
    fn artifact_rejects_count_mismatches() {
        let fewer = "mcs-network v1\nchannels 3\nsize 2\ndepth 1\nseed 0\n(0,1)\nend\n";
        assert_eq!(
            NetworkArtifact::from_text(fewer),
            Err(NetworkArtifactError::CountMismatch {
                field: "size",
                header: 2,
                actual: 1
            })
        );
        let depth = "mcs-network v1\nchannels 3\nsize 2\ndepth 1\nseed 0\n(0,1)\n(0,1)\nend\n";
        assert_eq!(
            NetworkArtifact::from_text(depth),
            Err(NetworkArtifactError::CountMismatch {
                field: "depth",
                header: 1,
                actual: 2
            })
        );
    }

    /// Bytes laid out like a binary artifact (`MCSN` magic, little-endian
    /// figures), whole, truncated at every length or with trailing bytes,
    /// are refused with a typed error, never a panic.
    #[test]
    fn artifact_binary_truncation_and_trailing_bytes_are_typed() {
        let mut bytes = b"MCSN".to_vec();
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&4u16.to_le_bytes());
        bytes.extend_from_slice(&2018u64.to_le_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&[1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0]);
        for cut in 0..=bytes.len() {
            let err = NetworkArtifact::from_slice(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    NetworkArtifactError::Truncated { .. } | NetworkArtifactError::BadMagic
                ),
                "prefix of {cut} bytes gave {err:?}"
            );
        }
        bytes.extend_from_slice(b"junk");
        assert_eq!(
            NetworkArtifact::from_slice(&bytes),
            Err(NetworkArtifactError::BadMagic)
        );
    }

    #[test]
    fn reverify_rejects_non_sorters_and_oversize_networks() {
        // Two channels, no comparators: input 0b01 stays unsorted.
        let bogus = NetworkArtifact::new(Network::new(2), 0);
        assert!(matches!(
            bogus.reverify(),
            Err(NetworkArtifactError::NotASorter { .. })
        ));
        let wide = NetworkArtifact::new(Network::new(30), 0);
        assert_eq!(
            wide.reverify(),
            Err(NetworkArtifactError::TooWideToVerify { channels: 30 })
        );
        assert!(NetworkArtifact::new(best_size(5).unwrap(), 0).reverify().is_ok());
    }

    #[test]
    fn artifact_errors_display_usefully() {
        let e = NetworkArtifactError::ChannelOutOfRange {
            line: 6,
            channel: 9,
            channels: 4,
        };
        assert!(e.to_string().contains("channel 9"));
        let e = NetworkArtifactError::UnsupportedVersion { found: 4 };
        assert!(e.to_string().contains("version 4"));
        let bogus = NetworkArtifact::new(Network::new(2), 0);
        let e = bogus.reverify().unwrap_err();
        assert!(e.to_string().contains("does not sort"));
    }
}
