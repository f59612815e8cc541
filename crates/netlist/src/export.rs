//! Netlist export: Graphviz DOT and structural Verilog, export only.
//!
//! These exporters make the generated circuits inspectable with standard
//! tooling and provide a bridge to a conventional EDA flow (the Verilog is
//! plain structural code over the NanGate-style cell names). Nothing reads
//! either format back: the one loadable netlist form is the
//! `mcs-netlist` text artifact of [`crate::serdes`].

use std::fmt::Write as _;

use crate::gate::{CellKind, Gate};
use crate::netlist::Netlist;

/// Renders the netlist as a Graphviz DOT digraph.
///
/// Inputs are drawn as boxes, constants as diamonds, cells as ellipses
/// labelled with their cell name, outputs as double circles.
pub fn to_dot(netlist: &Netlist) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "digraph \"{}\" {{", netlist.name());
    let _ = writeln!(s, "  rankdir=LR;");
    let input_names: Vec<&str> = netlist.input_names().collect();
    for (i, g) in netlist.gates().iter().enumerate() {
        match g {
            Gate::Input(port) => {
                let _ = writeln!(
                    s,
                    "  n{i} [shape=box,label=\"{}\"];",
                    input_names[*port as usize]
                );
            }
            Gate::Const(b) => {
                let _ = writeln!(
                    s,
                    "  n{i} [shape=diamond,label=\"{}\"];",
                    u8::from(*b)
                );
            }
            _ => {
                let kind = g.cell_kind().expect("non-source gate has a cell");
                let _ = writeln!(s, "  n{i} [label=\"{}\"];", kind.cell_name());
            }
        }
        for dep in g.fanin() {
            let _ = writeln!(s, "  n{} -> n{i};", dep.index());
        }
    }
    for (idx, (name, node)) in netlist.outputs().enumerate() {
        let _ = writeln!(s, "  out{idx} [shape=doublecircle,label=\"{name}\"];");
        let _ = writeln!(s, "  n{} -> out{idx};", node.index());
    }
    let _ = writeln!(s, "}}");
    s
}

/// Renders the netlist as structural Verilog over the NanGate-style cells.
///
/// Uncertified cells (XOR/XNOR/MUX2) are emitted like any other instance;
/// whether to allow them is the caller's policy (see
/// [`crate::mc::assert_mc_cells_only`]).
pub fn to_verilog(netlist: &Netlist) -> String {
    let sanitized: String = netlist
        .name()
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    let mut s = String::new();
    let input_names: Vec<&str> = netlist.input_names().collect();
    let ports: Vec<String> = input_names
        .iter()
        .map(|n| n.to_string())
        .chain(netlist.outputs().map(|(n, _)| n.to_string()))
        .collect();
    let _ = writeln!(s, "module {sanitized} ({});", ports.join(", "));
    for n in &input_names {
        let _ = writeln!(s, "  input {n};");
    }
    for (n, _) in netlist.outputs() {
        let _ = writeln!(s, "  output {n};");
    }
    for (i, g) in netlist.gates().iter().enumerate() {
        if g.cell_kind().is_some() || matches!(g, Gate::Const(_)) {
            let _ = writeln!(s, "  wire n{i};");
        }
    }
    let wire = |idx: usize| -> String {
        match &netlist.gates()[idx] {
            Gate::Input(port) => input_names[*port as usize].to_string(),
            _ => format!("n{idx}"),
        }
    };
    for (i, g) in netlist.gates().iter().enumerate() {
        let deps: Vec<String> = g.fanin().map(|d| wire(d.index())).collect();
        match g {
            Gate::Input(_) => {}
            Gate::Const(b) => {
                let _ = writeln!(s, "  assign n{i} = 1'b{};", u8::from(*b));
            }
            Gate::Mux2 { .. } => {
                // NanGate MUX2 pin order: A (sel=0), B (sel=1), S.
                let _ = writeln!(
                    s,
                    "  {} u{i} (.A({}), .B({}), .S({}), .Z(n{i}));",
                    CellKind::Mux2.cell_name(),
                    deps[0],
                    deps[1],
                    deps[2]
                );
            }
            Gate::Ao21 { .. } => {
                let _ = writeln!(
                    s,
                    "  {} u{i} (.A({}), .B1({}), .B2({}), .Z(n{i}));",
                    CellKind::Ao21.cell_name(),
                    deps[0],
                    deps[1],
                    deps[2]
                );
            }
            _ => {
                let kind = g.cell_kind().expect("cell");
                let pins = match deps.len() {
                    1 => format!(".A({}), .ZN(n{i})", deps[0]),
                    2 => format!(".A1({}), .A2({}), .ZN(n{i})", deps[0], deps[1]),
                    _ => unreachable!("cells have 1 or 2 pins here"),
                };
                let _ = writeln!(s, "  {} u{i} ({pins});", kind.cell_name());
            }
        }
    }
    for (name, node) in netlist.outputs() {
        let _ = writeln!(s, "  assign {name} = {};", wire(node.index()));
    }
    let _ = writeln!(s, "endmodule");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    fn sample() -> Netlist {
        let mut n = Netlist::new("sample-2");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.constant(true);
        let x = n.and2(a, b);
        let y = n.inv(x);
        let z = n.mux2(y, c, a);
        n.set_output("f", z);
        n
    }

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let dot = to_dot(&sample());
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("AND2_X1"));
        assert!(dot.contains("INV_X1"));
        assert!(dot.contains("MUX2_X1"));
        assert!(dot.contains("shape=box,label=\"a\""));
        assert!(dot.contains("doublecircle"));
        // Edge count: and2 (2) + inv (1) + mux (3) + output (1) = 7.
        assert_eq!(dot.matches(" -> ").count(), 7);
    }

    #[test]
    fn verilog_is_structurally_complete() {
        let v = to_verilog(&sample());
        assert!(v.starts_with("module sample_2 (a, b, f);"));
        assert!(v.contains("input a;"));
        assert!(v.contains("output f;"));
        assert!(v.contains("AND2_X1"));
        assert!(v.contains(".S("));
        assert!(v.contains("assign f = "));
        assert!(v.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn verilog_uses_port_names_for_input_wires() {
        let v = to_verilog(&sample());
        // The AND instance must reference ports a/b directly.
        assert!(v.contains(".A1(a), .A2(b)"));
    }

    #[test]
    fn verilog_writer_spells_every_cell_kind() {
        let mut n = Netlist::new("all_cells");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let zero = n.constant(false);
        let i = n.inv(a);
        let g1 = n.and2(a, b);
        let g2 = n.or2(i, g1);
        let g3 = n.nand2(g2, b);
        let g4 = n.nor2(g3, zero);
        let g5 = n.xor2(g4, a);
        let g6 = n.xnor2(g5, b);
        let g7 = n.mux2(g5, g6, c);
        let g8 = n.andnot2(g7, i);
        let g9 = n.ao21(g8, a, c);
        n.set_output("f", g9);
        n.set_output("direct", a); // output bound straight to an input
        let v = to_verilog(&n);
        let lines: Vec<&str> = v.lines().collect();
        let want = [
            "  assign n3 = 1'b0;",
            "  INV_X1 u4 (.A(a), .ZN(n4));",
            "  AND2_X1 u5 (.A1(a), .A2(b), .ZN(n5));",
            "  OR2_X1 u6 (.A1(n4), .A2(n5), .ZN(n6));",
            "  NAND2_X1 u7 (.A1(n6), .A2(b), .ZN(n7));",
            "  NOR2_X1 u8 (.A1(n7), .A2(n3), .ZN(n8));",
            "  XOR2_X1 u9 (.A1(n8), .A2(a), .ZN(n9));",
            "  XNOR2_X1 u10 (.A1(n9), .A2(b), .ZN(n10));",
            // NanGate MUX2: A is the sel = 0 data input, B the sel = 1 one.
            "  MUX2_X1 u11 (.A(n9), .B(n10), .S(c), .Z(n11));",
            "  AND2B1_X1 u12 (.A1(n11), .A2(n4), .ZN(n12));",
            // AO21 computes A + B1·B2.
            "  AO21_X1 u13 (.A(n12), .B1(a), .B2(c), .Z(n13));",
            "  assign f = n13;",
            "  assign direct = a;",
        ];
        for line in want {
            assert!(lines.contains(&line), "missing {line:?} in:\n{v}");
        }
        for kind in CellKind::ALL {
            let spelled = format!("  {} u", kind.cell_name());
            assert!(
                want.iter().any(|l| l.starts_with(&spelled)),
                "{kind} has no pinned instance line"
            );
        }
    }
}
