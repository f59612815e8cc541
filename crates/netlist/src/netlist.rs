//! The [`Netlist`] container and its builder API.

use std::collections::BTreeMap;
use std::fmt;

use mcs_logic::{Trit, TritBlock, TritWord};

use crate::gate::{CellKind, Gate, NodeId};

/// A combinational gate-level netlist.
///
/// Nodes are stored in topological order by construction: every builder
/// method only accepts already-created [`NodeId`]s, so a single forward pass
/// evaluates the circuit. Primary inputs and outputs are named.
///
/// # Example
///
/// ```
/// use mcs_logic::Trit;
/// use mcs_netlist::Netlist;
///
/// let mut n = Netlist::new("xor_from_mc_cells");
/// let a = n.input("a");
/// let b = n.input("b");
/// let nb = n.inv(b);
/// let na = n.inv(a);
/// let t0 = n.and2(a, nb);
/// let t1 = n.and2(na, b);
/// let f = n.or2(t0, t1);
/// n.set_output("f", f);
///
/// assert_eq!(n.gate_count(), 5);
/// assert_eq!(n.eval(&[Trit::One, Trit::Zero]), vec![Trit::One]);
/// ```
#[derive(Clone, Eq, PartialEq, Debug)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    input_names: Vec<String>,
    input_nodes: Vec<NodeId>,
    outputs: Vec<(String, NodeId)>,
}

impl Netlist {
    /// Creates an empty netlist with a human-readable name.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            gates: Vec::new(),
            input_names: Vec::new(),
            input_nodes: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The netlist name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn push(&mut self, g: Gate) -> NodeId {
        for dep in g.fanin() {
            assert!(
                dep.index() < self.gates.len(),
                "gate references a node that does not exist yet"
            );
        }
        let id = NodeId(
            u32::try_from(self.gates.len()).expect("netlist exceeds u32 nodes"),
        );
        self.gates.push(g);
        id
    }

    /// Adds a named primary input and returns its node.
    pub fn input(&mut self, name: impl Into<String>) -> NodeId {
        let port = u32::try_from(self.input_names.len()).expect("too many inputs");
        let id = self.push(Gate::Input(port));
        self.input_names.push(name.into());
        self.input_nodes.push(id);
        id
    }

    /// Adds a constant-0 or constant-1 driver.
    pub fn constant(&mut self, value: bool) -> NodeId {
        self.push(Gate::Const(value))
    }

    /// Adds an inverter.
    pub fn inv(&mut self, a: NodeId) -> NodeId {
        self.push(Gate::Inv(a))
    }

    /// Adds a 2-input AND.
    pub fn and2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::And2(a, b))
    }

    /// Adds a 2-input OR.
    pub fn or2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Or2(a, b))
    }

    /// Adds a 2-input NAND.
    pub fn nand2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Nand2(a, b))
    }

    /// Adds a 2-input NOR.
    pub fn nor2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Nor2(a, b))
    }

    /// Adds a 2-input XOR (uncertified cell; see crate docs).
    pub fn xor2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Xor2(a, b))
    }

    /// Adds a 2-input XNOR (uncertified cell).
    pub fn xnor2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Xnor2(a, b))
    }

    /// Adds a 2:1 mux (uncertified cell): `sel ? d1 : d0`.
    pub fn mux2(&mut self, d0: NodeId, d1: NodeId, sel: NodeId) -> NodeId {
        self.push(Gate::Mux2 { d0, d1, sel })
    }

    /// Adds an AND-with-inverted-input cell (uncertified): `a · b̄`.
    pub fn andnot2(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::AndNot2(a, b))
    }

    /// Adds an AND-OR cell (uncertified): `a + (b · c)`.
    pub fn ao21(&mut self, a: NodeId, b: NodeId, c: NodeId) -> NodeId {
        self.push(Gate::Ao21 { a, b, c })
    }

    /// Balanced AND over one or more nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn and_tree(&mut self, nodes: &[NodeId]) -> NodeId {
        self.tree(nodes, Netlist::and2)
    }

    /// Balanced OR over one or more nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn or_tree(&mut self, nodes: &[NodeId]) -> NodeId {
        self.tree(nodes, Netlist::or2)
    }

    fn tree(
        &mut self,
        nodes: &[NodeId],
        mut op: impl FnMut(&mut Netlist, NodeId, NodeId) -> NodeId,
    ) -> NodeId {
        assert!(!nodes.is_empty(), "tree over an empty node set");
        let mut layer: Vec<NodeId> = nodes.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    op(self, pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            layer = next;
        }
        layer[0]
    }

    /// Declares a named primary output driven by `node`.
    pub fn set_output(&mut self, name: impl Into<String>, node: NodeId) {
        assert!(node.index() < self.gates.len(), "unknown output node");
        self.outputs.push((name.into(), node));
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.input_names.len()
    }

    /// Number of primary outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Input names in port order.
    pub fn input_names(&self) -> impl Iterator<Item = &str> {
        self.input_names.iter().map(String::as_str)
    }

    /// Output `(name, node)` pairs in declaration order.
    pub fn outputs(&self) -> impl Iterator<Item = (&str, NodeId)> {
        self.outputs.iter().map(|(n, id)| (n.as_str(), *id))
    }

    /// Node of the `i`-th primary input.
    pub fn input_node(&self, i: usize) -> NodeId {
        self.input_nodes[i]
    }

    /// All gates in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Total node count (including inputs and constants).
    pub fn node_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of standard cells (excludes inputs and constants) — the
    /// paper's "# gates" metric.
    pub fn gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.cell_kind().is_some()).count()
    }

    /// Cell histogram: kind → count.
    pub fn cell_counts(&self) -> BTreeMap<CellKind, usize> {
        let mut map = BTreeMap::new();
        for g in &self.gates {
            if let Some(k) = g.cell_kind() {
                *map.entry(k).or_insert(0) += 1;
            }
        }
        map
    }

    /// Fanout of every node: number of gate inputs plus primary outputs the
    /// node drives.
    pub fn fanouts(&self) -> Vec<u32> {
        let mut fo = vec![0u32; self.gates.len()];
        for g in &self.gates {
            for dep in g.fanin() {
                fo[dep.index()] += 1;
            }
        }
        for (_, node) in &self.outputs {
            fo[node.index()] += 1;
        }
        fo
    }

    /// Logic level of every node: inputs/constants at level 0, each cell one
    /// above its deepest fan-in.
    pub fn levels(&self) -> Vec<u32> {
        let mut lvl = vec![0u32; self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            if g.cell_kind().is_some() {
                lvl[i] = 1 + g.fanin().map(|d| lvl[d.index()]).max().unwrap_or(0);
            }
        }
        lvl
    }

    /// Circuit depth in logic levels: the maximum level over primary
    /// outputs. Zero for a netlist without outputs.
    pub fn depth(&self) -> u32 {
        let lvl = self.levels();
        self.outputs
            .iter()
            .map(|(_, n)| lvl[n.index()])
            .max()
            .unwrap_or(0)
    }

    /// Instantiates (flattens) another netlist into this one: `other`'s
    /// primary inputs are driven by `input_nodes`, all its gates are copied,
    /// and the nodes corresponding to `other`'s outputs are returned in
    /// declaration order.
    ///
    /// This is the hierarchical-design primitive: a sorting network
    /// instantiates one 2-sort subcircuit per comparator with it.
    ///
    /// # Panics
    ///
    /// Panics if `input_nodes.len()` differs from `other.input_count()`.
    pub fn append(&mut self, other: &Netlist, input_nodes: &[NodeId]) -> Vec<NodeId> {
        assert_eq!(
            input_nodes.len(),
            other.input_count(),
            "instance of {} needs {} input nodes",
            other.name,
            other.input_count()
        );
        let mut remap: Vec<NodeId> = Vec::with_capacity(other.gates.len());
        for g in &other.gates {
            let new_id = match *g {
                Gate::Input(port) => input_nodes[port as usize],
                Gate::Const(b) => self.constant(b),
                Gate::Inv(a) => self.inv(remap[a.index()]),
                Gate::And2(a, b) => self.and2(remap[a.index()], remap[b.index()]),
                Gate::Or2(a, b) => self.or2(remap[a.index()], remap[b.index()]),
                Gate::Nand2(a, b) => self.nand2(remap[a.index()], remap[b.index()]),
                Gate::Nor2(a, b) => self.nor2(remap[a.index()], remap[b.index()]),
                Gate::Xor2(a, b) => self.xor2(remap[a.index()], remap[b.index()]),
                Gate::Xnor2(a, b) => self.xnor2(remap[a.index()], remap[b.index()]),
                Gate::Mux2 { d0, d1, sel } => self.mux2(
                    remap[d0.index()],
                    remap[d1.index()],
                    remap[sel.index()],
                ),
                Gate::AndNot2(a, b) => {
                    self.andnot2(remap[a.index()], remap[b.index()])
                }
                Gate::Ao21 { a, b, c } => self.ao21(
                    remap[a.index()],
                    remap[b.index()],
                    remap[c.index()],
                ),
            };
            remap.push(new_id);
        }
        other
            .outputs
            .iter()
            .map(|(_, n)| remap[n.index()])
            .collect()
    }

    /// Evaluates all nodes for one input vector; returns every node value.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`Netlist::input_count`].
    pub fn eval_full(&self, inputs: &[Trit]) -> Vec<Trit> {
        assert_eq!(
            inputs.len(),
            self.input_count(),
            "wrong number of input values for {}",
            self.name
        );
        let mut values: Vec<Trit> = Vec::with_capacity(self.gates.len());
        for g in &self.gates {
            let v = match g {
                Gate::Input(port) => inputs[*port as usize],
                _ => g.eval(|n| values[n.index()]),
            };
            values.push(v);
        }
        values
    }

    /// Evaluates the netlist for one input vector; returns the outputs in
    /// declaration order.
    ///
    /// This is the scalar reference tier: it reads the outputs from
    /// [`Netlist::eval_full`], which applies each gate's [`Trit`] formula
    /// ([`Gate::eval`]) once. It also covers a netlist without primary
    /// inputs, which [`Netlist::eval_block`] cannot carry. Hot loops should
    /// use [`Netlist::eval_block`] instead of calling this per vector.
    ///
    /// # Panics
    ///
    /// Panics if the input count is wrong.
    pub fn eval(&self, inputs: &[Trit]) -> Vec<Trit> {
        let values = self.eval_full(inputs);
        self.outputs
            .iter()
            .map(|(_, n)| values[n.index()])
            .collect()
    }

    /// Block evaluation: each [`TritBlock`] carries an arbitrary number of
    /// independent test vectors (lanes) for the corresponding input; returns
    /// one block per output. All input blocks must share a lane count.
    /// Lanes are carried by the inputs, so a netlist without primary inputs
    /// evaluates to zero-lane outputs — use [`Netlist::eval`] (or
    /// [`Netlist::eval_batch_iter`], which special-cases it) for
    /// constant-only circuits.
    ///
    /// This is the default hot path for exhaustive checks: the circuit is
    /// evaluated word by word through the bit-plane Kleene operations of
    /// [`Gate::eval_word`], with one node-value buffer reused across words.
    ///
    /// # Panics
    ///
    /// Panics if the input count is wrong or the lane counts disagree.
    pub fn eval_block(&self, inputs: &[TritBlock]) -> Vec<TritBlock> {
        assert_eq!(
            inputs.len(),
            self.input_count(),
            "wrong number of input blocks for {}",
            self.name
        );
        let lanes = inputs.first().map_or(0, TritBlock::lanes);
        for b in inputs {
            assert_eq!(b.lanes(), lanes, "input blocks must share a lane count");
        }
        let mut out: Vec<TritBlock> = self
            .outputs
            .iter()
            .map(|_| TritBlock::zeros(lanes))
            .collect();
        let mut values: Vec<TritWord> = vec![TritWord::ZERO; self.gates.len()];
        for k in 0..lanes.div_ceil(64) {
            for i in 0..self.gates.len() {
                let (done, rest) = values.split_at_mut(i);
                rest[0] = match &self.gates[i] {
                    Gate::Input(port) => inputs[*port as usize].word(k),
                    g => g.eval_word(|n| done[n.index()]),
                };
            }
            for (o, (_, n)) in out.iter_mut().zip(&self.outputs) {
                o.set_word(k, values[n.index()]);
            }
        }
        out
    }

    /// Streams an arbitrary-size input domain through the word-parallel
    /// evaluator: input vectors are gathered into [`TritBlock`] chunks,
    /// evaluated with [`Netlist::eval_block`], and yielded back one output
    /// vector per input vector, in order.
    ///
    /// ```
    /// use mcs_logic::Trit;
    /// use mcs_netlist::Netlist;
    ///
    /// let mut n = Netlist::new("and");
    /// let a = n.input("a");
    /// let b = n.input("b");
    /// let f = n.and2(a, b);
    /// n.set_output("f", f);
    ///
    /// // A 100-vector domain runs in two 64-lane words, not 100 evals.
    /// let domain: Vec<Vec<Trit>> = (0..100)
    ///     .map(|i| vec![Trit::ALL[i % 3], Trit::One])
    ///     .collect();
    /// let outs: Vec<Vec<Trit>> = n.eval_batch_iter(domain.clone()).collect();
    /// assert_eq!(outs.len(), 100);
    /// assert_eq!(outs[0], vec![Trit::Zero]); // 0 AND 1
    /// assert_eq!(outs[2], vec![Trit::Meta]); // M AND 1
    /// ```
    ///
    /// # Panics
    ///
    /// The returned iterator panics if an input vector has the wrong arity.
    pub fn eval_batch_iter<'n, I>(
        &'n self,
        domain: I,
    ) -> impl Iterator<Item = Vec<Trit>> + 'n
    where
        I: IntoIterator + 'n,
        I::Item: AsRef<[Trit]>,
    {
        /// Lanes per streamed chunk: a few words keeps the node-value
        /// buffer hot without holding much of the domain in memory.
        const CHUNK_LANES: usize = 256;
        let mut it = domain.into_iter();
        let mut ready: std::collections::VecDeque<Vec<Trit>> =
            std::collections::VecDeque::new();
        std::iter::from_fn(move || {
            if let Some(v) = ready.pop_front() {
                return Some(v);
            }
            let chunk: Vec<I::Item> = it.by_ref().take(CHUNK_LANES).collect();
            if chunk.is_empty() {
                return None;
            }
            if self.input_count() == 0 {
                // Constant-only netlist: lanes are carried by input blocks,
                // so there is nothing to batch — evaluate once per item.
                for v in &chunk {
                    assert_eq!(v.as_ref().len(), 0, "wrong number of input values");
                    ready.push_back(self.eval(&[]));
                }
                return ready.pop_front();
            }
            for v in &chunk {
                assert_eq!(
                    v.as_ref().len(),
                    self.input_count(),
                    "wrong number of input values for {}",
                    self.name
                );
            }
            let out = self.eval_block(&TritBlock::pack_rows(&chunk));
            for lane in 0..chunk.len() {
                ready.push_back(out.iter().map(|b| b.lane(lane)).collect());
            }
            ready.pop_front()
        })
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} inputs, {} outputs, {} gates, depth {}",
            self.name,
            self.input_count(),
            self.output_count(),
            self.gate_count(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_logic::TritBlock;

    fn mux_from_mc_cells(n: &mut Netlist) -> (NodeId, NodeId, NodeId, NodeId) {
        // Hazard-free cmux: (a·s̄) + (b·s) + (a·b). The consensus term a·b
        // makes the circuit contain a metastable select when a == b.
        let a = n.input("a");
        let b = n.input("b");
        let sel = n.input("sel");
        let ns = n.inv(sel);
        let t0 = n.and2(a, ns);
        let t1 = n.and2(b, sel);
        let tc = n.and2(a, b);
        let o = n.or2(t0, t1);
        let f = n.or2(o, tc);
        n.set_output("f", f);
        (a, b, sel, f)
    }

    #[test]
    fn builder_and_counters() {
        let mut n = Netlist::new("t");
        mux_from_mc_cells(&mut n);
        assert_eq!(n.input_count(), 3);
        assert_eq!(n.output_count(), 1);
        assert_eq!(n.gate_count(), 6);
        assert_eq!(n.node_count(), 9);
        let counts = n.cell_counts();
        assert_eq!(counts[&CellKind::And2], 3);
        assert_eq!(counts[&CellKind::Or2], 2);
        assert_eq!(counts[&CellKind::Inv], 1);
        // inv → and → or → or along the select path.
        assert_eq!(n.depth(), 4);
        assert_eq!(
            n.input_names().collect::<Vec<_>>(),
            vec!["a", "b", "sel"]
        );
        assert!(n.to_string().contains("6 gates"));
    }

    #[test]
    fn eval_boolean_truth_table() {
        let mut n = Netlist::new("t");
        mux_from_mc_cells(&mut n);
        for a in [Trit::Zero, Trit::One] {
            for b in [Trit::Zero, Trit::One] {
                for s in [Trit::Zero, Trit::One] {
                    let want = if s == Trit::One { b } else { a };
                    assert_eq!(n.eval(&[a, b, s]), vec![want]);
                }
            }
        }
    }

    #[test]
    fn cmux_contains_metastability_unlike_mux_cell() {
        // The AND/OR/INV mux masks a metastable select when a == b …
        let mut cmux = Netlist::new("cmux");
        mux_from_mc_cells(&mut cmux);
        assert_eq!(
            cmux.eval(&[Trit::One, Trit::One, Trit::Meta]),
            vec![Trit::One]
        );
        // … while the monolithic MUX2 cell does not.
        let mut m = Netlist::new("mux_cell");
        let a = m.input("a");
        let b = m.input("b");
        let s = m.input("sel");
        let f = m.mux2(a, b, s);
        m.set_output("f", f);
        assert_eq!(
            m.eval(&[Trit::One, Trit::One, Trit::Meta]),
            vec![Trit::Meta]
        );
    }

    #[test]
    fn batch_matches_scalar() {
        let mut n = Netlist::new("t");
        mux_from_mc_cells(&mut n);
        // Enumerate all 27 combinations across lanes.
        let mut lanes: Vec<[Trit; 3]> = Vec::new();
        for a in Trit::ALL {
            for b in Trit::ALL {
                for s in Trit::ALL {
                    lanes.push([a, b, s]);
                }
            }
        }
        let blocks: Vec<TritBlock> = (0..3)
            .map(|i| {
                TritBlock::from_lanes(
                    &lanes.iter().map(|l| l[i]).collect::<Vec<_>>(),
                )
            })
            .collect();
        let out = n.eval_block(&blocks);
        for (lane, combo) in lanes.iter().enumerate() {
            let scalar = n.eval(combo.as_slice());
            assert_eq!(out[0].lane(lane), scalar[0], "lane {lane} {combo:?}");
        }
    }

    #[test]
    fn block_matches_scalar_past_64_lanes() {
        let mut n = Netlist::new("t");
        mux_from_mc_cells(&mut n);
        // 3 full passes over the 27 ternary combos = 81 lanes (> one word).
        let lanes: Vec<[Trit; 3]> = (0..81)
            .map(|i| {
                let k = i % 27;
                [Trit::ALL[k % 3], Trit::ALL[(k / 3) % 3], Trit::ALL[k / 9]]
            })
            .collect();
        let blocks: Vec<TritBlock> = (0..3)
            .map(|i| {
                TritBlock::from_lanes(
                    &lanes.iter().map(|l| l[i]).collect::<Vec<_>>(),
                )
            })
            .collect();
        let out = n.eval_block(&blocks);
        assert_eq!(out[0].lanes(), 81);
        assert_eq!(out[0].word_count(), 2);
        for (lane, combo) in lanes.iter().enumerate() {
            let scalar = n.eval(combo.as_slice());
            assert_eq!(out[0].lane(lane), scalar[0], "lane {lane} {combo:?}");
        }
    }

    #[test]
    fn batch_iter_streams_in_order() {
        let mut n = Netlist::new("t");
        mux_from_mc_cells(&mut n);
        let domain: Vec<Vec<Trit>> = (0..300)
            .map(|i| {
                vec![Trit::ALL[i % 3], Trit::ALL[(i / 3) % 3], Trit::ALL[(i / 9) % 3]]
            })
            .collect();
        let streamed: Vec<Vec<Trit>> =
            n.eval_batch_iter(domain.iter().map(Vec::as_slice)).collect();
        assert_eq!(streamed.len(), 300);
        for (v, got) in domain.iter().zip(&streamed) {
            assert_eq!(got, &n.eval(v));
        }
        // Empty domain yields nothing.
        assert_eq!(
            n.eval_batch_iter(std::iter::empty::<Vec<Trit>>()).count(),
            0
        );
    }

    #[test]
    fn batch_iter_handles_constant_only_netlists() {
        // No primary inputs: lanes have no carrier, so the streaming tier
        // must fall back to per-item scalar evaluation instead of
        // collapsing to zero lanes.
        let mut n = Netlist::new("const");
        let one = n.constant(true);
        let f = n.inv(one);
        n.set_output("f", f);
        assert_eq!(n.eval(&[]), vec![Trit::Zero]);
        let domain: Vec<Vec<Trit>> = vec![Vec::new(), Vec::new()];
        let outs: Vec<Vec<Trit>> = n.eval_batch_iter(domain).collect();
        assert_eq!(outs, vec![vec![Trit::Zero], vec![Trit::Zero]]);
    }

    #[test]
    fn block_eval_with_constants_masks_tail() {
        // Constants splat to all 64 lanes internally; the output block must
        // still mask unused lanes back to stable 0.
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let one = n.constant(true);
        let f = n.or2(a, one);
        n.set_output("f", f);
        let out = n.eval_block(&[TritBlock::splat(Trit::Zero, 3)]);
        assert_eq!(out[0].to_lanes(), vec![Trit::One; 3]);
        assert_eq!(out[0].word(0).lane(3), Trit::Zero, "tail must stay 0");
    }

    #[test]
    fn trees_fold_correctly() {
        let mut n = Netlist::new("t");
        let ins: Vec<NodeId> = (0..5).map(|i| n.input(format!("i{i}"))).collect();
        let all = n.and_tree(&ins);
        let any = n.or_tree(&ins);
        n.set_output("all", all);
        n.set_output("any", any);
        let v = |bits: [bool; 5]| -> Vec<Trit> {
            bits.iter().map(|&b| Trit::from(b)).collect()
        };
        assert_eq!(
            n.eval(&v([true; 5])),
            vec![Trit::One, Trit::One]
        );
        assert_eq!(
            n.eval(&v([true, true, false, true, true])),
            vec![Trit::Zero, Trit::One]
        );
        assert_eq!(n.eval(&v([false; 5])), vec![Trit::Zero, Trit::Zero]);
        // Balanced tree over 5 leaves has depth 3.
        assert_eq!(n.depth(), 3);
    }

    #[test]
    fn constants_drive_values() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let one = n.constant(true);
        let f = n.and2(a, one);
        n.set_output("f", f);
        assert_eq!(n.eval(&[Trit::Meta]), vec![Trit::Meta]);
        assert_eq!(n.eval(&[Trit::One]), vec![Trit::One]);
        // Constants do not count as gates.
        assert_eq!(n.gate_count(), 1);
    }

    #[test]
    fn fanouts_include_outputs() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let x = n.inv(a);
        let y = n.and2(x, x);
        n.set_output("y", y);
        n.set_output("y2", y);
        let fo = n.fanouts();
        assert_eq!(fo[a.index()], 1);
        assert_eq!(fo[x.index()], 2); // both AND pins
        assert_eq!(fo[y.index()], 2); // two outputs
    }

    #[test]
    fn append_flattens_subcircuits() {
        // A half adder as a subcircuit, instantiated twice.
        let mut ha = Netlist::new("half_adder");
        let a = ha.input("a");
        let b = ha.input("b");
        let s = ha.xor2(a, b);
        let c = ha.and2(a, b);
        ha.set_output("sum", s);
        ha.set_output("carry", c);

        let mut top = Netlist::new("top");
        let x = top.input("x");
        let y = top.input("y");
        let z = top.input("z");
        let first = top.append(&ha, &[x, y]);
        let second = top.append(&ha, &[first[0], z]);
        top.set_output("s", second[0]);
        top.set_output("c1", first[1]);
        top.set_output("c2", second[1]);
        assert_eq!(top.gate_count(), 4);
        // 1 + 1 + 0: sum = x ⊕ y ⊕ z = 0, both carries …
        let out = top.eval(&[Trit::One, Trit::One, Trit::Zero]);
        assert_eq!(out, vec![Trit::Zero, Trit::One, Trit::Zero]);
        let out = top.eval(&[Trit::One, Trit::Zero, Trit::One]);
        assert_eq!(out, vec![Trit::Zero, Trit::Zero, Trit::One]);
    }

    #[test]
    #[should_panic(expected = "needs 2 input nodes")]
    fn append_checks_input_arity() {
        let mut ha = Netlist::new("sub");
        let a = ha.input("a");
        let b = ha.input("b");
        let s = ha.and2(a, b);
        ha.set_output("s", s);
        let mut top = Netlist::new("top");
        let x = top.input("x");
        let _ = top.append(&ha, &[x]);
    }

    #[test]
    #[should_panic(expected = "wrong number of input values")]
    fn eval_checks_arity() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        n.set_output("a", a);
        let _ = n.eval(&[]);
    }
}
