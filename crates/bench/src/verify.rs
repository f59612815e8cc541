//! Shared gate-level re-verification for the bench binaries and the
//! throughput engine.
//!
//! The 0-1-principle sweep lived inside `synth_circuit`; it is hoisted here
//! so every consumer of a sorting circuit — the synthesis driver, the
//! `scaling` bench (when it trusts an optimized golden artifact) and the
//! throughput engine — re-verifies through one implementation with one
//! typed error.
//!
//! # What "check" is
//!
//! [`zero_one_tape_check`] certifies a netlist through an [`EvalTape`]
//! compiled from it, in two steps:
//!
//! 1. [`EvalTape::check_registers`] proves that the tape's data flow is
//!    the netlist's, slot by slot and pin by pin, fused selection cores
//!    included. A failure is [`CircuitVerifyError::TapeMismatch`].
//! 2. The sweep runs every 0-1 channel pattern (channel value replicated
//!    across its B bits — the rank-0 and rank-max valid strings) through
//!    the tape, 256 patterns per group, with the input and expected
//!    output plane words built directly: pattern `m` is lane `m`, channel
//!    `c < 6` is a fixed lane pattern and channel `c ≥ 6` is a whole word,
//!    and output channel `c` must be 1 exactly on the lanes with
//!    `popcount(m) ≥ n − c`. Both sets of words depend on the channel and
//!    not on its bit, so each is built once per channel and group, every
//!    port of the channel is filled from them, and the mismatches of all
//!    ports are ORed into one word. Every output bit of every pattern is
//!    compared; only a group with a mismatch is rescanned lane by lane, in
//!    `(pattern, channel, bit)` order, for the
//!    [`CircuitVerifyError::NotSorting`] report.
//!
//! This certifies the netlist as strongly as interpreting it with
//! [`Netlist::eval_block`] would: the sweep passes on the tape,
//! `check_registers` proves that the tape computes the netlist's function
//! gate for gate, and the `kernel_conformance` suite proves that each plane
//! formula equals [`Gate::eval_word`](mcs_netlist::Gate::eval_word). It
//! also certifies the tape that actually streams.
//! [`zero_one_circuit_check`] is the netlist-only entry point: it compiles
//! a tape and runs the same check.

use std::fmt;

use mcs_logic::plane::kernel::{self, KernelId, UnknownKernel};
use mcs_logic::{PlaneWidth, Trit, TritWord};
use mcs_netlist::{EvalTape, Netlist, TapePlanes};

/// Largest channel count the gate-level 0-1 sweep enumerates (2^n lanes).
pub const MAX_CHECK_CHANNELS: usize = 20;

/// A failed gate-level sorting-circuit re-verification.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum CircuitVerifyError {
    /// The exhaustive sweep would need more than `2^MAX_CHECK_CHANNELS`
    /// lanes.
    TooManyChannels {
        /// Requested channel count.
        channels: usize,
    },
    /// The netlist's port counts do not match `channels × width`.
    PortMismatch {
        /// Primary input count of the netlist.
        inputs: usize,
        /// Primary output count of the netlist.
        outputs: usize,
        /// Expected channel count.
        channels: usize,
        /// Expected bit width.
        width: usize,
    },
    /// A 0-1 pattern came out unsorted.
    NotSorting {
        /// The failing 0-1 channel pattern (bit `c` = channel `c`'s value).
        pattern: usize,
        /// Output channel with the wrong value.
        channel: usize,
        /// Bit within the channel.
        bit: usize,
        /// Observed output.
        got: Trit,
        /// Expected output.
        want: Trit,
    },
    /// The tape under check does not replay the netlist
    /// ([`EvalTape::check_registers`]); the text names the first violation.
    TapeMismatch(String),
    /// The sweep's kernel tier cannot run on this CPU.
    Kernel(UnknownKernel),
}

impl fmt::Display for CircuitVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitVerifyError::TooManyChannels { channels } => write!(
                f,
                "{channels} channels exceed the exhaustive 0-1 bound of \
                 {MAX_CHECK_CHANNELS}"
            ),
            CircuitVerifyError::PortMismatch {
                inputs,
                outputs,
                channels,
                width,
            } => write!(
                f,
                "port counts ({inputs} in / {outputs} out) disagree with \
                 {channels} channels × {width} bits"
            ),
            CircuitVerifyError::NotSorting {
                pattern,
                channel,
                bit,
                got,
                want,
            } => write!(
                f,
                "0-1 pattern {pattern:#b}: out{channel}_b{bit} = {got}, \
                 want {want}"
            ),
            CircuitVerifyError::TapeMismatch(why) => {
                write!(f, "compiled tape disagrees with the netlist: {why}")
            }
            CircuitVerifyError::Kernel(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CircuitVerifyError {}

/// Gate-level 0-1-principle re-verification of `netlist`: compiles it and
/// runs [`zero_one_tape_check`] under the best kernel tier of this CPU.
///
/// # Errors
///
/// See [`CircuitVerifyError`].
pub fn zero_one_circuit_check(
    netlist: &Netlist,
    channels: usize,
    width: usize,
) -> Result<(), CircuitVerifyError> {
    if channels > MAX_CHECK_CHANNELS {
        return Err(CircuitVerifyError::TooManyChannels { channels });
    }
    check_ports(netlist, channels, width)?;
    let tape = EvalTape::compile(netlist);
    zero_one_tape_check(netlist, &tape, kernel::preferred(), channels, width)
}

/// The port-count check: `channels × width` inputs and outputs.
///
/// # Errors
///
/// [`CircuitVerifyError::PortMismatch`].
pub(crate) fn check_ports(
    netlist: &Netlist,
    channels: usize,
    width: usize,
) -> Result<(), CircuitVerifyError> {
    if netlist.input_count() != channels * width
        || netlist.output_count() != channels * width
    {
        return Err(CircuitVerifyError::PortMismatch {
            inputs: netlist.input_count(),
            outputs: netlist.output_count(),
            channels,
            width,
        });
    }
    Ok(())
}

/// `LANE_PATTERN[c]`: the lanes `i` of a plane word with bit `c` set, i.e.
/// channel `c < 6`'s value across the 64 patterns of one word.
const LANE_PATTERN: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// `AT_LEAST[t]`: the lanes `i` of a plane word with `popcount(i) ≥ t`.
const AT_LEAST: [u64; 8] = {
    let mut table = [0u64; 8];
    let mut i = 0;
    while i < 64 {
        let mut t = 0;
        while t <= (i as u64).count_ones() as usize {
            table[t] |= 1 << i;
            t += 1;
        }
        i += 1;
    }
    table
};

/// The 0-1-principle sweep of `netlist` on `tape`, a tape compiled from
/// it, evaluated under `kernel`: every 0-1 channel pattern must leave the
/// circuit sorted ascending. See the [module docs](self).
///
/// # Errors
///
/// [`CircuitVerifyError::TooManyChannels`] and
/// [`CircuitVerifyError::PortMismatch`] first, then
/// [`CircuitVerifyError::TapeMismatch`] if `tape` does not replay
/// `netlist`, [`CircuitVerifyError::Kernel`] if `kernel` cannot run here,
/// and the first [`CircuitVerifyError::NotSorting`] pattern.
pub fn zero_one_tape_check(
    netlist: &Netlist,
    tape: &EvalTape,
    kernel: KernelId,
    channels: usize,
    width: usize,
) -> Result<(), CircuitVerifyError> {
    if channels > MAX_CHECK_CHANNELS {
        return Err(CircuitVerifyError::TooManyChannels { channels });
    }
    check_ports(netlist, channels, width)?;
    tape.check_registers(netlist).map_err(CircuitVerifyError::TapeMismatch)?;
    // The sweep's plane width, and the words of one group.
    const WIDTH: PlaneWidth = PlaneWidth::X4;
    const GROUP: usize = WIDTH.words();
    let mut scratch = tape
        .try_scratch(WIDTH, kernel)
        .map_err(CircuitVerifyError::Kernel)?;
    let mut planes = tape
        .try_planes(&mut scratch)
        .map_err(|e| CircuitVerifyError::TapeMismatch(e.to_string()))?;
    let patterns = 1usize << channels;
    let words = patterns.div_ceil(64);
    // Per word of the group: the patterns `64k ..` that exist (lanes past
    // 2^n stay stable 0), and one channel's input and expected words.
    let (mut live, mut ones, mut want) = ([0u64; GROUP], [0u64; GROUP], [0u64; GROUP]);
    for k0 in (0..words).step_by(GROUP) {
        for (j, live) in live.iter_mut().enumerate() {
            *live = TritWord::lane_mask(patterns.saturating_sub(64 * (k0 + j)));
        }
        for c in 0..channels {
            for (j, (word, &live)) in ones.iter_mut().zip(&live).enumerate() {
                let k = k0 + j;
                let ones = match LANE_PATTERN.get(c) {
                    Some(&pattern) => pattern,
                    None if (k >> (c - 6)) & 1 == 1 => !0,
                    None => 0,
                };
                *word = ones & live;
            }
            for port in c * width..(c + 1) * width {
                let (z, o) = planes.input_mut(port);
                for ((z, o), &ones) in z.iter_mut().zip(o).zip(&ones) {
                    (*z, *o) = (!ones, ones);
                }
            }
        }
        planes.run();
        let mut mismatch = 0;
        for c in 0..channels {
            for (j, want) in want.iter_mut().enumerate() {
                // Lane i of word k is pattern 64k + i, with popcount(k) +
                // popcount(i) ones; ascending, channel c is 1 iff at least
                // n − c of them are.
                let need = (channels - c).saturating_sub((k0 + j).count_ones() as usize);
                *want = AT_LEAST[need.min(7)];
            }
            for port in c * width..(c + 1) * width {
                let (z, o) = planes.output(port);
                for (((&z, &o), &want), &live) in z.iter().zip(o).zip(&want).zip(&live) {
                    mismatch |= ((z ^ !want) | (o ^ want)) & live;
                }
            }
        }
        if mismatch != 0 {
            let unsorted = first_unsorted(&planes, k0, patterns, channels, width);
            // The lane scan decides; the word filter may only ever flag a
            // group that holds a mismatch.
            debug_assert!(unsorted.is_some(), "the word filter flagged a sorted group");
            if let Some(e) = unsorted {
                return Err(e);
            }
        }
    }
    Ok(())
}

/// The first unsorted output of the group at word `k0`, scanning lane by
/// lane in `(pattern, channel, bit)` order.
fn first_unsorted(
    planes: &TapePlanes<'_>,
    k0: usize,
    patterns: usize,
    channels: usize,
    width: usize,
) -> Option<CircuitVerifyError> {
    let first = 64 * k0;
    let last = patterns.min(first + 64 * planes.words());
    for m in first..last {
        let (j, i) = ((m - first) / 64, m % 64);
        let ones = m.count_ones() as usize;
        for c in 0..channels {
            let want = Trit::from(c >= channels - ones);
            for b in 0..width {
                let (z, o) = planes.output(c * width + b);
                let got = TritWord::from_planes(z[j], o[j]).lane(i);
                if got != want {
                    return Some(CircuitVerifyError::NotSorting {
                        pattern: m,
                        channel: c,
                        bit: b,
                        got,
                        want,
                    });
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_logic::TritBlock;
    use mcs_netlist::{serdes, Gate, NodeId};
    use mcs_networks::circuit::{build_sorting_circuit, TwoSortFlavor};
    use mcs_networks::optimal::best_size;

    /// The interpreter-based check this module shipped before the sweep
    /// moved onto the tape, kept unchanged as the oracle: every 0-1
    /// channel pattern (channel value replicated across its B bits — the
    /// rank-0 and rank-max valid strings) must leave the circuit sorted
    /// ascending. One `eval_block` call over all 2^n patterns.
    fn interpreter_check(
        netlist: &Netlist,
        channels: usize,
        width: usize,
    ) -> Result<(), CircuitVerifyError> {
        if channels > MAX_CHECK_CHANNELS {
            return Err(CircuitVerifyError::TooManyChannels { channels });
        }
        if netlist.input_count() != channels * width
            || netlist.output_count() != channels * width
        {
            return Err(CircuitVerifyError::PortMismatch {
                inputs: netlist.input_count(),
                outputs: netlist.output_count(),
                channels,
                width,
            });
        }
        let lanes = 1usize << channels;
        let inputs: Vec<TritBlock> = (0..channels * width)
            .map(|port| {
                let c = port / width;
                TritBlock::from_lanes(
                    &(0..lanes)
                        .map(|m| Trit::from((m >> c) & 1 == 1))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let out = netlist.eval_block(&inputs);
        for m in 0..lanes {
            let ones = (m as u64).count_ones() as usize;
            for c in 0..channels {
                // Ascending: the `ones` maxima land on the top channels.
                let want = Trit::from(c >= channels - ones);
                for b in 0..width {
                    let got = out[c * width + b].lane(m);
                    if got != want {
                        return Err(CircuitVerifyError::NotSorting {
                            pattern: m,
                            channel: c,
                            bit: b,
                            got,
                            want,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// `gates` and `outputs` rebuilt into a netlist with `n`'s inputs.
    fn rebuild(n: &Netlist, gates: &[Gate], outputs: &[(String, NodeId)]) -> Netlist {
        let mut m = Netlist::new(n.name());
        let mut names = n.input_names();
        for &g in gates {
            match g {
                Gate::Input(_) => m.input(names.next().expect("one name per input")),
                Gate::Const(v) => m.constant(v),
                Gate::Inv(a) => m.inv(a),
                Gate::And2(a, b) => m.and2(a, b),
                Gate::Or2(a, b) => m.or2(a, b),
                Gate::Nand2(a, b) => m.nand2(a, b),
                Gate::Nor2(a, b) => m.nor2(a, b),
                Gate::Xor2(a, b) => m.xor2(a, b),
                Gate::Xnor2(a, b) => m.xnor2(a, b),
                Gate::Mux2 { d0, d1, sel } => m.mux2(d0, d1, sel),
                Gate::AndNot2(a, b) => m.andnot2(a, b),
                Gate::Ao21 { a, b, c } => m.ao21(a, b, c),
            };
        }
        for (name, node) in outputs {
            m.set_output(name.clone(), *node);
        }
        m
    }

    /// `n` and its mutants: two output wires swapped (channel 0's last bit
    /// and channel n − 1's bit 0), the first fan-in of a middle cell retargeted
    /// to input 0, a middle `And2` ↔ `Or2` swapped, and the last output
    /// tied to constant 0.
    fn mutants(n: &Netlist, channels: usize, width: usize) -> Vec<(&'static str, Netlist)> {
        let gates = n.gates().to_vec();
        let outputs: Vec<(String, NodeId)> =
            n.outputs().map(|(name, node)| (name.to_string(), node)).collect();
        let middle = |pick: fn(&Gate) -> bool| {
            (gates.len() / 2..gates.len())
                .chain(0..gates.len() / 2)
                .find(|&i| pick(&gates[i]))
        };
        let mut all = vec![("original", n.clone())];

        // Different bits of two channels, so the first failing pattern
        // fails twice and the report's (channel, bit) order shows.
        let mut swapped = outputs.clone();
        let (lo, hi) = (width - 1, (channels - 1) * width);
        (swapped[lo].1, swapped[hi].1) = (swapped[hi].1, swapped[lo].1);
        all.push(("outputs swapped", rebuild(n, &gates, &swapped)));

        if let Some(i) = middle(|g| g.cell_kind().is_some()) {
            let to = n.input_node(0);
            let mut g = gates.clone();
            g[i] = match g[i] {
                Gate::Inv(_) => Gate::Inv(to),
                Gate::And2(_, b) => Gate::And2(to, b),
                Gate::Or2(_, b) => Gate::Or2(to, b),
                Gate::Nand2(_, b) => Gate::Nand2(to, b),
                Gate::Nor2(_, b) => Gate::Nor2(to, b),
                Gate::Xor2(_, b) => Gate::Xor2(to, b),
                Gate::Xnor2(_, b) => Gate::Xnor2(to, b),
                Gate::Mux2 { d1, sel, .. } => Gate::Mux2 { d0: to, d1, sel },
                Gate::AndNot2(_, b) => Gate::AndNot2(to, b),
                Gate::Ao21 { b, c, .. } => Gate::Ao21 { a: to, b, c },
                source => source,
            };
            all.push(("fan-in retargeted", rebuild(n, &g, &outputs)));
        }

        if let Some(i) = middle(|g| matches!(g, Gate::And2(..) | Gate::Or2(..))) {
            let mut g = gates.clone();
            g[i] = match g[i] {
                Gate::And2(a, b) => Gate::Or2(a, b),
                Gate::Or2(a, b) => Gate::And2(a, b),
                other => other,
            };
            all.push(("and/or swapped", rebuild(n, &g, &outputs)));
        }

        let (last, rest) = outputs.split_last().expect("a sorter has outputs");
        let mut tied = rebuild(n, &gates, rest);
        let zero = tied.constant(false);
        tied.set_output(last.0.clone(), zero);
        all.push(("output tied to 0", tied));
        all
    }

    /// Asserts that the tape check of every mutant of `circuit` returns
    /// exactly the oracle's `Result`, under every kernel tier, and returns
    /// the mutants that failed.
    fn assert_matches_oracle(
        label: &str,
        circuit: &Netlist,
        channels: usize,
        width: usize,
    ) -> Vec<&'static str> {
        let mut failed = Vec::new();
        for (kind, m) in mutants(circuit, channels, width) {
            let want = interpreter_check(&m, channels, width);
            assert_eq!(
                zero_one_circuit_check(&m, channels, width),
                want,
                "{label}, {kind}"
            );
            let tape = EvalTape::compile(&m);
            for k in kernel::kernels() {
                assert_eq!(
                    zero_one_tape_check(&m, &tape, k, channels, width),
                    want,
                    "{label}, {kind}, kernel {k}"
                );
            }
            if kind == "original" {
                assert_eq!(want, Ok(()), "{label}");
            } else if want.is_err() {
                failed.push(kind);
            }
        }
        failed
    }

    #[test]
    fn the_tape_check_equals_the_interpreter_oracle_on_sorters_and_mutants() {
        let mut failed = Vec::new();
        for channels in 2..=8 {
            let net = best_size(channels).unwrap();
            for width in [1, 2, 3, 5] {
                let c = build_sorting_circuit(&net, width, TwoSortFlavor::Paper);
                failed.extend(assert_matches_oracle(
                    &format!("{channels}x{width}"),
                    &c,
                    channels,
                    width,
                ));
            }
        }
        // Every kind of mutant breaks some sorter, so the equality above is
        // exercised on failures, not just on passes.
        for kind in [
            "outputs swapped",
            "fan-in retargeted",
            "and/or swapped",
            "output tied to 0",
        ] {
            assert!(failed.contains(&kind), "no {kind} mutant failed");
        }
    }

    #[test]
    fn the_tape_check_equals_the_oracle_on_other_flavours_and_the_optimised_artifact() {
        for flavor in [
            TwoSortFlavor::Bund2017,
            TwoSortFlavor::Serial2016,
            TwoSortFlavor::BinComp,
        ] {
            for channels in [3, 4, 6] {
                let net = best_size(channels).unwrap();
                for width in [2, 3, 5] {
                    let c = build_sorting_circuit(&net, width, flavor);
                    let label = format!("{} {channels}x{width}", flavor.name());
                    assert_matches_oracle(&label, &c, channels, width);
                }
            }
        }
        let text = include_str!("../../../tests/golden/eight_sort_2b_opt.mcsnl");
        let opt = serdes::from_text(text).unwrap();
        let failed = assert_matches_oracle("eight_sort_2b_opt", &opt, 8, 2);
        assert!(!failed.is_empty());
    }

    #[test]
    fn a_mutant_reports_the_oracles_first_pattern_channel_and_bit() {
        let net = best_size(4).unwrap();
        let c = build_sorting_circuit(&net, 3, TwoSortFlavor::Paper);
        let (_, tied) = mutants(&c, 4, 3).pop().unwrap();
        // Output out3_b2 is stuck at 0: pattern 1 puts its one on channel 3.
        assert_eq!(
            zero_one_circuit_check(&tied, 4, 3),
            Err(CircuitVerifyError::NotSorting {
                pattern: 1,
                channel: 3,
                bit: 2,
                got: Trit::Zero,
                want: Trit::One,
            })
        );
    }

    #[test]
    fn accepts_the_16x16_stock_cell() {
        let net = crate::engine::cell_network(16);
        let c = build_sorting_circuit(&net, 16, TwoSortFlavor::Paper);
        assert_eq!(zero_one_circuit_check(&c, 16, 16), Ok(()));
    }

    #[test]
    fn a_tape_from_another_netlist_is_a_typed_mismatch() {
        let net = best_size(4).unwrap();
        let a = build_sorting_circuit(&net, 4, TwoSortFlavor::Paper);
        let b = build_sorting_circuit(&net, 4, TwoSortFlavor::Bund2017);
        assert_ne!(a.gates(), b.gates());
        let tape_b = EvalTape::compile(&b);
        let err = zero_one_tape_check(&a, &tape_b, kernel::preferred(), 4, 4).unwrap_err();
        assert!(
            matches!(&err, CircuitVerifyError::TapeMismatch(why) if !why.is_empty()),
            "{err:?}"
        );
        // Its own tape passes.
        assert_eq!(
            zero_one_tape_check(&b, &tape_b, kernel::preferred(), 4, 4),
            Ok(())
        );
    }

    #[test]
    fn tape_mismatch_display_is_pinned() {
        let err = CircuitVerifyError::TapeMismatch(
            "slot or port counts differ from the netlist".into(),
        );
        assert_eq!(
            err.to_string(),
            "compiled tape disagrees with the netlist: slot or port counts \
             differ from the netlist"
        );
    }

    #[test]
    fn accepts_a_real_sorting_circuit() {
        let net = best_size(4).unwrap();
        let c = build_sorting_circuit(&net, 2, TwoSortFlavor::Paper);
        assert_eq!(zero_one_circuit_check(&c, 4, 2), Ok(()));
    }

    #[test]
    fn rejects_port_mismatch_and_big_n() {
        let net = best_size(4).unwrap();
        let c = build_sorting_circuit(&net, 2, TwoSortFlavor::Paper);
        assert!(matches!(
            zero_one_circuit_check(&c, 4, 4),
            Err(CircuitVerifyError::PortMismatch { .. })
        ));
        assert!(matches!(
            zero_one_circuit_check(&c, 40, 2),
            Err(CircuitVerifyError::TooManyChannels { .. })
        ));
    }

    #[test]
    fn rejects_a_non_sorting_netlist() {
        // Identity wiring is not a sorter: pattern 0b01 must move the one
        // up, identity leaves it on channel 0.
        let mut n = Netlist::new("identity");
        let ins: Vec<_> = (0..4).map(|i| n.input(format!("ch{i}_b0"))).collect();
        for (i, &node) in ins.iter().enumerate() {
            n.set_output(format!("out{i}_b0"), node);
        }
        let err = zero_one_circuit_check(&n, 4, 1).unwrap_err();
        assert_eq!(Err(err.clone()), interpreter_check(&n, 4, 1));
        assert!(matches!(
            err,
            CircuitVerifyError::NotSorting {
                pattern: 1,
                channel: 0,
                bit: 0,
                ..
            }
        ));
        assert!(err.to_string().contains("out"));
    }
}
