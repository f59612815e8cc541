//! Artifact cache plumbing for the bench binaries: save netlists in the
//! repo's text formats and load the one form that reads back. The loader
//! re-checks every structural figure, and `synth_circuit` re-verifies each
//! loaded circuit at gate level, so a cache can never silently serve a
//! wrong artifact.
//!
//! Every artifact is text. On load the format is sniffed by content, not
//! trusted from the file name: only `mcs-netlist v…` (the netlist artifact,
//! see [`mcs_netlist::serdes`]) loads. Anything else, the write-only
//! Verilog and DOT exports included, is [`ArtifactError::UnknownFormat`].
//!
//! On save the format follows the extension, matched **case-insensitively**
//! (`FOO.V` is Verilog too): `.v` Verilog, `.dot` Graphviz, `.mcsnl` (or
//! no extension at all) the artifact form. Any other
//! extension is a typed
//! [`ArtifactError::UnknownExtension`] — a typo like `.mcsbn` must fail
//! loudly at save time, not produce a file the loader then rejects with a
//! misleading format error.

use std::fmt;
use std::path::Path;

use mcs_netlist::export::{to_dot, to_verilog};
use mcs_netlist::serdes::{self, SerdesError};
use mcs_netlist::Netlist;

/// Error from the artifact cache helpers.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem failure (path included in the message).
    Io(String),
    /// The bytes are none of the known artifact formats.
    UnknownFormat,
    /// A save path whose extension names no supported format.
    UnknownExtension {
        /// The offending extension (without the dot), as given.
        extension: String,
    },
    /// A netlist artifact that fails to load.
    Netlist(SerdesError),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io(m) => write!(f, "{m}"),
            ArtifactError::UnknownFormat => {
                write!(f, "not a recognised artifact format")
            }
            ArtifactError::UnknownExtension { extension } => write!(
                f,
                "extension {extension:?} names no supported artifact format"
            ),
            ArtifactError::Netlist(e) => write!(f, "netlist artifact: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<SerdesError> for ArtifactError {
    fn from(e: SerdesError) -> Self {
        ArtifactError::Netlist(e)
    }
}

/// The save path's extension, lowercased for case-insensitive format
/// dispatch: `None` for no extension at all, the typed error for one that
/// is not valid UTF-8 (it cannot name a known format).
fn extension_of(path: &Path) -> Result<Option<String>, ArtifactError> {
    match path.extension() {
        None => Ok(None),
        Some(ext) => match ext.to_str() {
            Some(s) => Ok(Some(s.to_ascii_lowercase())),
            None => Err(ArtifactError::UnknownExtension {
                extension: ext.to_string_lossy().into_owned(),
            }),
        },
    }
}

fn read(path: &Path) -> Result<Vec<u8>, ArtifactError> {
    std::fs::read(path)
        .map_err(|e| ArtifactError::Io(format!("cannot read {}: {e}", path.display())))
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), ArtifactError> {
    std::fs::write(path, bytes)
        .map_err(|e| ArtifactError::Io(format!("cannot write {}: {e}", path.display())))
}

/// Loads a cached netlist artifact (`mcs-netlist` text).
///
/// Structural validity (node references, header figures) is re-checked by
/// the loaders; semantic re-verification is the caller's policy — see
/// `synth_circuit`'s 0-1 check for the sorting-circuit case.
///
/// # Errors
///
/// Any load failure, or [`ArtifactError::UnknownFormat`] when the bytes
/// do not start with the netlist artifact magic.
pub fn load_netlist(path: &Path) -> Result<Netlist, ArtifactError> {
    let bytes = read(path)?;
    let text = std::str::from_utf8(&bytes).map_err(|_| ArtifactError::UnknownFormat)?;
    if text.starts_with(mcs_netlist::serdes::TEXT_MAGIC) {
        return Ok(serdes::from_text(text)?);
    }
    Err(ArtifactError::UnknownFormat)
}

/// Saves a netlist; the extension (matched case-insensitively) picks the
/// format: `.v` structural Verilog, `.dot` Graphviz, `.mcsnl` or no
/// extension the netlist artifact.
///
/// # Errors
///
/// Filesystem failures, a name the artifact formats cannot carry, or
/// [`ArtifactError::UnknownExtension`] for an extension that names no
/// netlist format.
pub fn save_netlist(path: &Path, netlist: &Netlist) -> Result<(), ArtifactError> {
    match extension_of(path)?.as_deref() {
        Some("v") => write(path, to_verilog(netlist).as_bytes()),
        Some("dot") => write(path, to_dot(netlist).as_bytes()),
        Some("mcsnl") | None => write(path, serdes::to_text(netlist)?.as_bytes()),
        Some(other) => Err(ArtifactError::UnknownExtension {
            extension: other.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mcs-artifact-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn extensions_match_case_insensitively() {
        // The format choice must not depend on the case the shell happened
        // to use.
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let f = n.nand2(a, b);
        n.set_output("f", f);
        for name in ["n_upper.MCSNL", "n_mixed.McSnL"] {
            let path = temp_path(name);
            save_netlist(&path, &n).unwrap();
            let back = load_netlist(&path).unwrap();
            assert_eq!(back.gate_count(), n.gate_count(), "{name}");
        }
        let path = temp_path("n_upper.V");
        save_netlist(&path, &n).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("module "), "V must be Verilog: {text}");
    }

    #[test]
    fn unknown_save_extensions_are_typed_errors() {
        // A typo'd extension errors at save time instead of writing a file
        // the loader will reject with a misleading message, and so do the
        // extensions of binary forms this repo does not write and of the
        // retired network format.
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let f = n.nand2(a, b);
        n.set_output("f", f);
        for ext in ["json", "mcsbn", "mcsnb", "mcsnlb", "MCSNLB", "mcsn", "MCSN"] {
            match save_netlist(&temp_path(&format!("n.{ext}")), &n) {
                Err(ArtifactError::UnknownExtension { extension }) => {
                    assert_eq!(extension, ext.to_ascii_lowercase());
                }
                other => panic!("{ext}: expected UnknownExtension, got {other:?}"),
            }
        }
        // No extension at all stays the text form (pipes, tempfiles).
        let bare = temp_path("netlist_no_ext");
        save_netlist(&bare, &n).unwrap();
        assert_eq!(load_netlist(&bare).unwrap().gate_count(), n.gate_count());
    }

    #[test]
    fn corrupt_netlist_cache_entries_are_refused() {
        // Bytes laid out like a binary netlist artifact, valid UTF-8 or
        // not, a comparator-network file of the retired `mcs-network`
        // format (what `synth_circuit --load` gets from an old network
        // cache) and a structural Verilog module (an export, not an
        // artifact): a typed load error, not a panic.
        let path = temp_path("corrupt.mcsnl");
        let old_network =
            b"mcs-network v2\nchannels 4\nsize 5\ndepth 3\nseed 0\n(0,1)\n(2,3)\n(0,2)\n(1,3)\n(1,2)\nend\n";
        let verilog = b"module t (a, f);\n  input a;\n  output f;\n  assign f = a;\nendmodule\n";
        for binary in [
            &b"MCSB\x01\x00\x01\x00\x00\x00t"[..],
            b"MCSB\x01\x00\xff\xfe",
            old_network,
            verilog,
        ] {
            std::fs::write(&path, binary).unwrap();
            assert!(matches!(
                load_netlist(&path),
                Err(ArtifactError::UnknownFormat)
            ));
        }
    }

    #[test]
    fn netlist_cache_roundtrips_text_and_refuses_exports() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let f = n.nand2(a, b);
        n.set_output("f", f);
        for name in ["n.mcsnl", "n_no_ext"] {
            let path = temp_path(name);
            save_netlist(&path, &n).unwrap();
            let back = load_netlist(&path).unwrap();
            assert_eq!(back.gate_count(), n.gate_count(), "{name}");
            use mcs_logic::Trit;
            for x in Trit::ALL {
                for y in Trit::ALL {
                    assert_eq!(back.eval(&[x, y]), n.eval(&[x, y]), "{name}");
                }
            }
        }
        // Verilog and DOT are write-only: loading either back reports an
        // unknown format.
        for name in ["n.v", "n.dot"] {
            let path = temp_path(name);
            save_netlist(&path, &n).unwrap();
            assert!(
                matches!(load_netlist(&path), Err(ArtifactError::UnknownFormat)),
                "{name}"
            );
        }
    }
}
