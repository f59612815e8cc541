//! Netlist serialisation: a compact, versioned, serde-free artifact format.
//!
//! The on-disk form of a [`Netlist`] is text ([`to_text`] / [`from_text`]):
//! line-oriented, diffable, suitable for golden files and code review. The
//! writer emits a single canonical form, so `save → load → save` is
//! byte-identical.
//!
//! # Text format, version 1
//!
//! ```text
//! mcs-netlist v1
//! name sample-2
//! nodes 6 inputs 2 outputs 1 gates 3 depth 3
//! n0 input a
//! n1 input b
//! n2 const 1
//! n3 and2 n0 n1
//! n4 inv n3
//! n5 mux2 n4 n2 n0
//! output n5 f
//! end
//! ```
//!
//! One line per node, in topological order; node ids are explicit and must
//! be contiguous (`n0, n1, …`), so a diff shows exactly which gate changed.
//! The `nodes/inputs/outputs/gates/depth` header is redundant on purpose:
//! the loader recomputes every figure and rejects the artifact on any
//! mismatch, so a hand-edited or truncated file cannot silently load.
//! Input port order is the order of `input` lines; names extend to the end
//! of the line (any bytes but newlines).
//!
//! # Versioning policy
//!
//! The version after the magic (`v1`) is bumped on **any**
//! incompatible change — new opcode, reordered header field, changed
//! operand encoding. Loaders reject versions they do not know
//! ([`SerdesError::UnsupportedVersion`]) instead of guessing: a cache miss
//! is always recoverable, a silently misparsed netlist is not.
//!
//! # Errors
//!
//! All loaders return typed [`SerdesError`]s and never panic on malformed
//! input; node references are validated to point strictly backwards
//! (topological order) before any builder call.

use std::fmt;

use crate::gate::{Gate, NodeId};
use crate::netlist::Netlist;

/// Format version written by this module and the only one it accepts.
pub const FORMAT_VERSION: u32 = 1;

/// Magic first line of the text format (followed by ` v<version>`).
pub const TEXT_MAGIC: &str = "mcs-netlist";

/// Error produced by the artifact loaders (and, for unserialisable names,
/// by the writers).
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum SerdesError {
    /// Input ended before the structure was complete.
    Truncated {
        /// What the loader was reading when the input ran out.
        context: &'static str,
    },
    /// The magic tag is not this format's.
    BadMagic,
    /// The format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// The version found in the artifact.
        found: u32,
    },
    /// A line that does not parse.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Human-readable description.
        detail: String,
    },
    /// A node reference that is out of range or not strictly backwards.
    BadNodeRef {
        /// 1-based line number.
        line: usize,
        /// The offending reference.
        detail: String,
    },
    /// A gate id that was already defined.
    DuplicateGateId {
        /// 1-based line number.
        line: usize,
        /// The repeated id.
        id: u32,
    },
    /// A gate id that skips ahead of the topological sequence.
    NonContiguousGateId {
        /// 1-based line number.
        line: usize,
        /// The id the sequence requires next.
        expected: u32,
        /// The id found instead.
        found: u32,
    },
    /// A header figure that disagrees with the reconstructed netlist.
    CountMismatch {
        /// Which header field.
        field: &'static str,
        /// Value claimed by the header.
        header: u64,
        /// Value recomputed from the body.
        actual: u64,
    },
    /// A name that the format cannot carry (embedded newline).
    UnserializableName {
        /// The offending name.
        name: String,
    },
}

impl fmt::Display for SerdesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerdesError::Truncated { context } => {
                write!(f, "truncated artifact while reading {context}")
            }
            SerdesError::BadMagic => write!(f, "not an mcs-netlist artifact"),
            SerdesError::UnsupportedVersion { found } => write!(
                f,
                "unsupported format version {found} (this build reads v{FORMAT_VERSION})"
            ),
            SerdesError::Syntax { line, detail } => {
                write!(f, "line {line}: {detail}")
            }
            SerdesError::BadNodeRef { line, detail } => {
                write!(f, "line {line}: bad node reference: {detail}")
            }
            SerdesError::DuplicateGateId { line, id } => {
                write!(f, "line {line}: duplicate gate id n{id}")
            }
            SerdesError::NonContiguousGateId { line, expected, found } => write!(
                f,
                "line {line}: gate id n{found} out of sequence (expected n{expected})"
            ),
            SerdesError::CountMismatch { field, header, actual } => write!(
                f,
                "header claims {field} {header} but the body has {actual}"
            ),
            SerdesError::UnserializableName { name } => {
                write!(f, "name {name:?} contains a newline and cannot be serialised")
            }
        }
    }
}

impl std::error::Error for SerdesError {}

fn check_name(name: &str) -> Result<(), SerdesError> {
    if name.contains('\n') || name.contains('\r') {
        return Err(SerdesError::UnserializableName {
            name: name.to_string(),
        });
    }
    Ok(())
}

/// The opcode mnemonic of a gate (also the text-format keyword).
fn opcode(g: &Gate) -> &'static str {
    match g {
        Gate::Input(_) => "input",
        Gate::Const(_) => "const",
        Gate::Inv(_) => "inv",
        Gate::And2(..) => "and2",
        Gate::Or2(..) => "or2",
        Gate::Nand2(..) => "nand2",
        Gate::Nor2(..) => "nor2",
        Gate::Xor2(..) => "xor2",
        Gate::Xnor2(..) => "xnor2",
        Gate::Mux2 { .. } => "mux2",
        Gate::AndNot2(..) => "andnot2",
        Gate::Ao21 { .. } => "ao21",
    }
}

// ---------------------------------------------------------------------------
// Text format
// ---------------------------------------------------------------------------

/// Serialises the netlist in the canonical text form.
///
/// # Errors
///
/// [`SerdesError::UnserializableName`] if the netlist name or any port name
/// contains a newline; every name the builder API is normally given (and
/// everything this repo generates) serialises.
pub fn to_text(netlist: &Netlist) -> Result<String, SerdesError> {
    use std::fmt::Write as _;

    check_name(netlist.name())?;
    for n in netlist.input_names() {
        check_name(n)?;
    }
    for (n, _) in netlist.outputs() {
        check_name(n)?;
    }
    let mut s = String::new();
    let _ = writeln!(s, "{TEXT_MAGIC} v{FORMAT_VERSION}");
    let _ = writeln!(s, "name {}", netlist.name());
    let _ = writeln!(
        s,
        "nodes {} inputs {} outputs {} gates {} depth {}",
        netlist.node_count(),
        netlist.input_count(),
        netlist.output_count(),
        netlist.gate_count(),
        netlist.depth()
    );
    let input_names: Vec<&str> = netlist.input_names().collect();
    for (i, g) in netlist.gates().iter().enumerate() {
        let _ = write!(s, "n{i} {}", opcode(g));
        match g {
            Gate::Input(port) => {
                let _ = write!(s, " {}", input_names[*port as usize]);
            }
            Gate::Const(b) => {
                let _ = write!(s, " {}", u8::from(*b));
            }
            _ => {
                for dep in g.fanin() {
                    let _ = write!(s, " n{}", dep.index());
                }
            }
        }
        s.push('\n');
    }
    for (name, node) in netlist.outputs() {
        let _ = writeln!(s, "output n{} {}", node.index(), name);
    }
    s.push_str("end\n");
    Ok(s)
}

/// Header figures carried (redundantly) by the format and re-checked on
/// load.
struct Header {
    nodes: u64,
    inputs: u64,
    outputs: u64,
    gates: u64,
    depth: u64,
}

impl Header {
    fn check(&self, n: &Netlist) -> Result<(), SerdesError> {
        let figures: [(&'static str, u64, u64); 5] = [
            ("nodes", self.nodes, n.node_count() as u64),
            ("inputs", self.inputs, n.input_count() as u64),
            ("outputs", self.outputs, n.output_count() as u64),
            ("gates", self.gates, n.gate_count() as u64),
            ("depth", self.depth, u64::from(n.depth())),
        ];
        for (field, header, actual) in figures {
            if header != actual {
                return Err(SerdesError::CountMismatch {
                    field,
                    header,
                    actual,
                });
            }
        }
        Ok(())
    }
}

/// Parses a `n<k>` node reference that must point strictly backwards.
fn parse_node_ref(
    token: &str,
    built: usize,
    line: usize,
) -> Result<NodeId, SerdesError> {
    let idx: u32 = token
        .strip_prefix('n')
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| SerdesError::BadNodeRef {
            line,
            detail: format!("{token:?} is not a node reference"),
        })?;
    if (idx as usize) >= built {
        return Err(SerdesError::BadNodeRef {
            line,
            detail: format!(
                "n{idx} is not defined yet (forward or out-of-range reference)"
            ),
        });
    }
    Ok(NodeId(idx))
}

/// Loads a netlist from the text format.
///
/// # Errors
///
/// Typed [`SerdesError`]s on any malformed input; never panics.
pub fn from_text(text: &str) -> Result<Netlist, SerdesError> {
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));

    // Magic + version.
    let (_, magic) = lines.next().ok_or(SerdesError::Truncated {
        context: "magic line",
    })?;
    let version_token = magic
        .strip_prefix(TEXT_MAGIC)
        .map(str::trim)
        .ok_or(SerdesError::BadMagic)?;
    let version: u32 = version_token
        .strip_prefix('v')
        .and_then(|v| v.parse().ok())
        .ok_or(SerdesError::BadMagic)?;
    if version != FORMAT_VERSION {
        return Err(SerdesError::UnsupportedVersion { found: version });
    }

    // Name.
    let (line_no, name_line) = lines.next().ok_or(SerdesError::Truncated {
        context: "name line",
    })?;
    let name = match name_line.strip_prefix("name ") {
        Some(rest) => rest,
        None if name_line == "name" => "",
        None => {
            return Err(SerdesError::Syntax {
                line: line_no,
                detail: format!("expected `name …`, found {name_line:?}"),
            })
        }
    };

    // Counts header.
    let (line_no, counts_line) = lines.next().ok_or(SerdesError::Truncated {
        context: "counts header",
    })?;
    let tokens: Vec<&str> = counts_line.split_whitespace().collect();
    let field = |key: &str, at: usize| -> Result<u64, SerdesError> {
        if tokens.get(at).copied() != Some(key) {
            return Err(SerdesError::Syntax {
                line: line_no,
                detail: format!("expected `{key} <count>` in counts header"),
            });
        }
        tokens
            .get(at + 1)
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| SerdesError::Syntax {
                line: line_no,
                detail: format!("bad {key} count"),
            })
    };
    let header = Header {
        nodes: field("nodes", 0)?,
        inputs: field("inputs", 2)?,
        outputs: field("outputs", 4)?,
        gates: field("gates", 6)?,
        depth: field("depth", 8)?,
    };

    // Body: node lines, then output lines, then `end`.
    let mut netlist = Netlist::new(name);
    let mut saw_end = false;
    let mut outputs: Vec<(String, NodeId)> = Vec::new();
    for (line_no, line) in &mut lines {
        let line = line.trim_end_matches(['\r']);
        if line == "end" {
            saw_end = true;
            break;
        }
        let (head, rest) = match line.split_once(' ') {
            Some((h, r)) => (h, r),
            None => {
                return Err(SerdesError::Syntax {
                    line: line_no,
                    detail: format!("unrecognised line {line:?}"),
                })
            }
        };
        if head == "output" {
            let (node_tok, out_name) =
                rest.split_once(' ').unwrap_or((rest, ""));
            let node = parse_node_ref(node_tok, netlist.node_count(), line_no)?;
            outputs.push((out_name.to_string(), node));
            continue;
        }
        // A node definition: `n<k> <opcode> <args…>`.
        let id: u32 = head.strip_prefix('n').and_then(|t| t.parse().ok()).ok_or_else(
            || SerdesError::Syntax {
                line: line_no,
                detail: format!("expected a node id, found {head:?}"),
            },
        )?;
        let expected = u32::try_from(netlist.node_count()).expect("u32 nodes");
        if id < expected {
            return Err(SerdesError::DuplicateGateId { line: line_no, id });
        }
        if id > expected {
            return Err(SerdesError::NonContiguousGateId {
                line: line_no,
                expected,
                found: id,
            });
        }
        let (op, args) = rest.split_once(' ').unwrap_or((rest, ""));
        let built = netlist.node_count();
        let refs = |count: usize| -> Result<Vec<NodeId>, SerdesError> {
            let toks: Vec<&str> = args.split_whitespace().collect();
            if toks.len() != count {
                return Err(SerdesError::Syntax {
                    line: line_no,
                    detail: format!(
                        "{op} takes {count} operand(s), found {}",
                        toks.len()
                    ),
                });
            }
            toks.iter().map(|t| parse_node_ref(t, built, line_no)).collect()
        };
        match op {
            "input" => {
                let _ = netlist.input(args);
            }
            "const" => match args {
                "0" => {
                    let _ = netlist.constant(false);
                }
                "1" => {
                    let _ = netlist.constant(true);
                }
                _ => {
                    return Err(SerdesError::Syntax {
                        line: line_no,
                        detail: format!("const takes 0 or 1, found {args:?}"),
                    })
                }
            },
            "inv" => {
                let r = refs(1)?;
                let _ = netlist.inv(r[0]);
            }
            "and2" | "or2" | "nand2" | "nor2" | "xor2" | "xnor2" | "andnot2" => {
                let r = refs(2)?;
                let _ = match op {
                    "and2" => netlist.and2(r[0], r[1]),
                    "or2" => netlist.or2(r[0], r[1]),
                    "nand2" => netlist.nand2(r[0], r[1]),
                    "nor2" => netlist.nor2(r[0], r[1]),
                    "xor2" => netlist.xor2(r[0], r[1]),
                    "xnor2" => netlist.xnor2(r[0], r[1]),
                    _ => netlist.andnot2(r[0], r[1]),
                };
            }
            "mux2" => {
                let r = refs(3)?;
                let _ = netlist.mux2(r[0], r[1], r[2]);
            }
            "ao21" => {
                let r = refs(3)?;
                let _ = netlist.ao21(r[0], r[1], r[2]);
            }
            _ => {
                return Err(SerdesError::Syntax {
                    line: line_no,
                    detail: format!("unknown opcode {op:?}"),
                })
            }
        }
    }
    if !saw_end {
        return Err(SerdesError::Truncated {
            context: "body (missing `end`)",
        });
    }
    // A concatenated or corrupt cache entry must not half-load as its
    // first artifact.
    for (line_no, line) in lines {
        if !line.trim().is_empty() {
            return Err(SerdesError::Syntax {
                line: line_no,
                detail: format!("unexpected content after `end`: {line:?}"),
            });
        }
    }
    for (name, node) in outputs {
        netlist.set_output(name, node);
    }
    header.check(&netlist)?;
    Ok(netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_logic::Trit;

    /// A netlist exercising every opcode, both sources and shared fan-in.
    fn kitchen_sink() -> Netlist {
        let mut n = Netlist::new("kitchen sink");
        let a = n.input("a");
        let b = n.input("b");
        let zero = n.constant(false);
        let one = n.constant(true);
        let i = n.inv(a);
        let g1 = n.and2(a, b);
        let g2 = n.or2(i, g1);
        let g3 = n.nand2(g2, one);
        let g4 = n.nor2(g3, zero);
        let g5 = n.xor2(g4, a);
        let g6 = n.xnor2(g5, b);
        let g7 = n.mux2(g5, g6, a);
        let g8 = n.andnot2(g7, i);
        let g9 = n.ao21(g8, a, b);
        let c = n.input("late input");
        let g10 = n.and2(g9, c);
        n.set_output("f", g10);
        n.set_output("g", g7);
        n
    }

    fn eval_equal(x: &Netlist, y: &Netlist) {
        assert_eq!(x.input_count(), y.input_count());
        assert_eq!(x.output_count(), y.output_count());
        let k = x.input_count();
        for i in 0..3usize.pow(k as u32) {
            let mut v = Vec::with_capacity(k);
            let mut rest = i;
            for _ in 0..k {
                v.push(Trit::ALL[rest % 3]);
                rest /= 3;
            }
            assert_eq!(x.eval(&v), y.eval(&v), "on {v:?}");
        }
    }

    #[test]
    fn text_roundtrip_is_byte_identical_and_eval_equal() {
        let n = kitchen_sink();
        let text = to_text(&n).unwrap();
        let back = from_text(&text).unwrap();
        assert_eq!(to_text(&back).unwrap(), text);
        assert_eq!(back.name(), n.name());
        assert_eq!(
            back.input_names().collect::<Vec<_>>(),
            n.input_names().collect::<Vec<_>>()
        );
        assert_eq!(back.gates(), n.gates());
        eval_equal(&n, &back);
    }

    #[test]
    fn text_format_matches_the_documented_example() {
        let mut n = Netlist::new("sample-2");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.constant(true);
        let x = n.and2(a, b);
        let y = n.inv(x);
        let z = n.mux2(y, c, a);
        n.set_output("f", z);
        assert_eq!(
            to_text(&n).unwrap(),
            "mcs-netlist v1\n\
             name sample-2\n\
             nodes 6 inputs 2 outputs 1 gates 3 depth 3\n\
             n0 input a\n\
             n1 input b\n\
             n2 const 1\n\
             n3 and2 n0 n1\n\
             n4 inv n3\n\
             n5 mux2 n4 n2 n0\n\
             output n5 f\n\
             end\n"
        );
    }

    #[test]
    fn truncated_header_is_a_typed_error() {
        assert_eq!(
            from_text(""),
            Err(SerdesError::Truncated { context: "magic line" })
        );
        assert_eq!(
            from_text("mcs-netlist v1\n"),
            Err(SerdesError::Truncated { context: "name line" })
        );
        assert_eq!(
            from_text("mcs-netlist v1\nname x\n"),
            Err(SerdesError::Truncated { context: "counts header" })
        );
        // A body that never reaches `end` is truncated, not loaded.
        let full = to_text(&kitchen_sink()).unwrap();
        let cut = &full[..full.len() - "end\n".len()];
        assert_eq!(
            from_text(cut),
            Err(SerdesError::Truncated { context: "body (missing `end`)" })
        );
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        assert_eq!(from_text("totally not it\n"), Err(SerdesError::BadMagic));
        assert_eq!(
            from_text("mcs-netlist v2\nname x\nnodes 0 inputs 0 outputs 0 gates 0 depth 0\nend\n"),
            Err(SerdesError::UnsupportedVersion { found: 2 })
        );
    }

    #[test]
    fn duplicate_and_noncontiguous_gate_ids_are_rejected() {
        let dup = "mcs-netlist v1\nname x\nnodes 2 inputs 2 outputs 0 gates 0 depth 0\n\
                   n0 input a\nn0 input b\nend\n";
        assert_eq!(
            from_text(dup),
            Err(SerdesError::DuplicateGateId { line: 5, id: 0 })
        );
        let gap = "mcs-netlist v1\nname x\nnodes 2 inputs 2 outputs 0 gates 0 depth 0\n\
                   n0 input a\nn2 input b\nend\n";
        assert_eq!(
            from_text(gap),
            Err(SerdesError::NonContiguousGateId {
                line: 5,
                expected: 1,
                found: 2
            })
        );
    }

    #[test]
    fn forward_and_out_of_range_refs_are_rejected() {
        let fwd = "mcs-netlist v1\nname x\nnodes 2 inputs 1 outputs 0 gates 1 depth 1\n\
                   n0 input a\nn1 inv n1\nend\n";
        assert!(matches!(
            from_text(fwd),
            Err(SerdesError::BadNodeRef { line: 5, .. })
        ));
        let out = "mcs-netlist v1\nname x\nnodes 1 inputs 1 outputs 1 gates 0 depth 0\n\
                   n0 input a\noutput n7 f\nend\n";
        assert!(matches!(
            from_text(out),
            Err(SerdesError::BadNodeRef { line: 5, .. })
        ));
    }

    #[test]
    fn count_mismatches_are_rejected() {
        let wrong = "mcs-netlist v1\nname x\nnodes 1 inputs 1 outputs 0 gates 3 depth 0\n\
                     n0 input a\nend\n";
        assert_eq!(
            from_text(wrong),
            Err(SerdesError::CountMismatch {
                field: "gates",
                header: 3,
                actual: 0
            })
        );
        // Depth is recomputed too: a tampered depth figure cannot load.
        let n = kitchen_sink();
        let depth = u64::from(n.depth());
        let tampered = to_text(&n).unwrap().replacen(
            &format!("depth {depth}"),
            &format!("depth {}", depth + 1),
            1,
        );
        assert_eq!(
            from_text(&tampered),
            Err(SerdesError::CountMismatch {
                field: "depth",
                header: depth + 1,
                actual: depth
            })
        );
    }

    #[test]
    fn bad_opcodes_and_operand_arity_are_rejected() {
        let op = "mcs-netlist v1\nname x\nnodes 1 inputs 0 outputs 0 gates 1 depth 0\n\
                  n0 frobnicate n0\nend\n";
        assert!(matches!(from_text(op), Err(SerdesError::Syntax { line: 4, .. })));
        let arity = "mcs-netlist v1\nname x\nnodes 2 inputs 1 outputs 0 gates 1 depth 1\n\
                     n0 input a\nn1 and2 n0\nend\n";
        assert!(matches!(
            from_text(arity),
            Err(SerdesError::Syntax { line: 5, .. })
        ));
        let cst = "mcs-netlist v1\nname x\nnodes 1 inputs 0 outputs 0 gates 0 depth 0\n\
                   n0 const 2\nend\n";
        assert!(matches!(from_text(cst), Err(SerdesError::Syntax { line: 4, .. })));
    }

    /// Text laid out like a binary artifact (`MCSB` magic, then raw
    /// figures), whole, truncated at every length or with trailing bytes,
    /// is refused with a typed error, never a panic.
    #[test]
    fn binary_truncation_and_trailing_bytes_are_rejected() {
        let binary = "MCSB\u{1}\0\u{3}\0\0\0kit\u{2}\0\0\0";
        for cut in 0..=binary.len() {
            let err = from_text(&binary[..cut]).unwrap_err();
            assert!(
                matches!(err, SerdesError::Truncated { .. } | SerdesError::BadMagic),
                "prefix of {cut} bytes gave {err:?}"
            );
        }
        assert_eq!(
            from_text(&format!("{binary}junk")),
            Err(SerdesError::BadMagic)
        );
    }

    #[test]
    fn names_with_spaces_survive_and_newlines_are_rejected() {
        let mut n = Netlist::new("spaced out name");
        let a = n.input("port with spaces");
        n.set_output("out with spaces", a);
        let text = to_text(&n).unwrap();
        let back = from_text(&text).unwrap();
        assert_eq!(back.name(), "spaced out name");
        assert_eq!(back.input_names().next(), Some("port with spaces"));
        assert_eq!(back.outputs().next().unwrap().0, "out with spaces");
        assert_eq!(to_text(&back).unwrap(), text);

        let mut bad = Netlist::new("two\nlines");
        let _ = bad.input("a");
        assert!(matches!(
            to_text(&bad),
            Err(SerdesError::UnserializableName { .. })
        ));
    }

    #[test]
    fn trailing_content_after_end_is_rejected() {
        // Concatenated cache entries must not half-load as the first one.
        let text = to_text(&kitchen_sink()).unwrap();
        let doubled = text.clone() + &text;
        assert!(matches!(
            from_text(&doubled),
            Err(SerdesError::Syntax { .. })
        ));
        // Trailing blank lines are fine (editors add them).
        let padded = text + "\n   \n";
        assert_eq!(from_text(&padded).unwrap(), kitchen_sink());
    }

    #[test]
    fn empty_netlist_roundtrips() {
        let n = Netlist::new("empty");
        let text = to_text(&n).unwrap();
        let back = from_text(&text).unwrap();
        assert_eq!(back.node_count(), 0);
        assert_eq!(to_text(&back).unwrap(), text);
    }

    #[test]
    fn errors_display_usefully() {
        let msgs = [
            SerdesError::Truncated { context: "magic line" }.to_string(),
            SerdesError::BadMagic.to_string(),
            SerdesError::UnsupportedVersion { found: 3 }.to_string(),
            SerdesError::DuplicateGateId { line: 7, id: 4 }.to_string(),
            SerdesError::CountMismatch {
                field: "gates",
                header: 2,
                actual: 1,
            }
            .to_string(),
        ];
        for m in &msgs {
            assert!(!m.is_empty());
        }
        assert!(msgs[2].contains("version 3"));
        assert!(msgs[3].contains("n4"));
    }
}
