//! Plane kernels: the ten Kleene gate formulas and the fused selection op
//! over `u64` possibility planes, and the two compile tiers the tape
//! evaluator runs them under.
//!
//! The compiled-tape evaluator in `mcs-netlist` spends essentially all of
//! its time doing bitwise AND/OR over `u64` plane words. The formulas
//! ([`GateOp`] impls below) are written once, over plain `u64`, and
//! [`apply_slot`] applies one to every word of a tape register; the compiler
//! vectorises that word loop itself. A [`KernelId`] names the instruction
//! set the evaluator's loop is compiled for, not a separate implementation:
//!
//! | tier | compiled for | gated on |
//! |------|--------------|----------|
//! | [`KernelId::Scalar`] | the build's baseline target features | always available |
//! | [`KernelId::Avx2`] | the same source under `#[target_feature(enable = "avx2")]` | x86-64 + runtime `avx2` |
//!
//! **Bit-exactness is the contract.** Both tiers compile the identical
//! pure-bitwise source, so they compute the identical plane words —
//! including masked tails and meta-poison propagation. The kernel
//! conformance suite (`tests/kernel_conformance.rs`) re-proves this
//! differentially on every run.
//!
//! Selection is runtime: [`preferred()`] picks the best tier the CPU
//! supports, [`kernels()`] lists every usable one for tests to iterate, and
//! the `MCS_KERNEL={scalar,avx2}` environment variable (read via
//! [`from_env()`]) forces a specific tier, refusing with a typed
//! [`UnknownKernel`] error — never a panic — when the name is unknown or
//! the tier cannot run on this CPU. Availability is a pure function of the
//! detected CPU feature ([`available_on`], [`require_on`]), so the refusal
//! is testable on any host.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::str::FromStr;

/// One cache line of plane words — the allocation unit of [`PlaneBuf`].
#[repr(C, align(64))]
#[derive(Copy, Clone)]
struct CacheLine([u64; 8]);

/// A cache-line-aligned plane buffer.
///
/// `Vec<u64>` only guarantees 8-byte alignment, so on x86-64 half of all
/// 32-byte vector loads against it straddle a cache-line boundary and cost
/// a split access. Backing the evaluator's plane scratch with 64-byte
/// aligned lines keeps every whole-vector load and store the compiler
/// emits inside one line, for any slot stride that is a multiple of the
/// vector width.
///
/// Dereferences to `[u64]` of the exact requested length, so it drops in
/// wherever a plane slice is indexed or split; the padding words of the
/// final line are allocated but never exposed.
#[derive(Clone)]
pub struct PlaneBuf {
    lines: Vec<CacheLine>,
    words: usize,
}

impl fmt::Debug for PlaneBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlaneBuf").field("words", &self.words).finish()
    }
}

impl PlaneBuf {
    /// A buffer of `words` plane words, every word set to `fill`.
    pub fn filled(words: usize, fill: u64) -> PlaneBuf {
        PlaneBuf {
            lines: vec![CacheLine([fill; 8]); words.div_ceil(8)],
            words,
        }
    }
}

impl Deref for PlaneBuf {
    type Target = [u64];
    #[inline]
    fn deref(&self) -> &[u64] {
        // SAFETY: the allocation holds `words.div_ceil(8) * 8 >= words`
        // initialised `u64`s, contiguous by `repr(C)`.
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr().cast(), self.words) }
    }
}

impl DerefMut for PlaneBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        // SAFETY: as in `Deref`, and the borrow is exclusive.
        unsafe {
            std::slice::from_raw_parts_mut(self.lines.as_mut_ptr().cast(), self.words)
        }
    }
}

/// Identifier for one compile tier of the plane kernels.
///
/// The default is [`KernelId::Scalar`] — the tier that exists on every
/// target — so zero-initialised reports are always valid; runtime entry
/// points should start from [`preferred()`] instead.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug, Default)]
pub enum KernelId {
    /// The formulas compiled for the build's baseline target features.
    #[default]
    Scalar,
    /// The same formulas compiled with AVX2 enabled (x86-64 only).
    Avx2,
}

impl KernelId {
    /// Every tier this build knows about, portable first.
    pub const ALL: [KernelId; 2] = [KernelId::Scalar, KernelId::Avx2];

    /// The lower-case name used by `MCS_KERNEL`, reports and JSON fields.
    pub const fn name(self) -> &'static str {
        match self {
            KernelId::Scalar => "scalar",
            KernelId::Avx2 => "avx2",
        }
    }
}

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for KernelId {
    type Err = UnknownKernel;

    /// Accepts the [`KernelId::name`] forms, case-insensitively.
    fn from_str(s: &str) -> Result<KernelId, UnknownKernel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(KernelId::Scalar),
            "avx2" => Ok(KernelId::Avx2),
            _ => Err(UnknownKernel::Name(s.to_string())),
        }
    }
}

/// Typed refusal from kernel selection. Selection never panics: an
/// unrecognised `MCS_KERNEL` value or a tier the current CPU cannot run
/// surfaces as one of these variants for the caller to report.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum UnknownKernel {
    /// The name is not one of `scalar`, `avx2`.
    Name(String),
    /// The tier exists but this CPU (or this build target) cannot run it.
    Unavailable(KernelId),
}

impl fmt::Display for UnknownKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownKernel::Name(s) => {
                write!(f, "unknown kernel {s:?} (expected scalar or avx2)")
            }
            UnknownKernel::Unavailable(k) => {
                write!(f, "kernel `{k}` is not available on this cpu (available:")?;
                for (i, a) in kernels().iter().enumerate() {
                    write!(f, "{}{a}", if i == 0 { " " } else { ", " })?;
                }
                write!(f, ")")
            }
        }
    }
}

impl std::error::Error for UnknownKernel {}

/// Whether the current CPU has AVX2, detected at runtime (always `false`
/// off x86-64).
fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether `kernel` can run on a CPU whose `avx2` feature is `avx2`:
/// [`KernelId::Scalar`] always can, [`KernelId::Avx2`] exactly when the
/// feature is present.
pub const fn available_on(kernel: KernelId, avx2: bool) -> bool {
    match kernel {
        KernelId::Scalar => true,
        KernelId::Avx2 => avx2,
    }
}

/// Whether `kernel` can run on the current CPU ([`available_on`] with the
/// detected feature).
pub fn available(kernel: KernelId) -> bool {
    available_on(kernel, avx2_detected())
}

/// Every tier usable on the current CPU, portable first.
pub fn kernels() -> Vec<KernelId> {
    KernelId::ALL.into_iter().filter(|&k| available(k)).collect()
}

/// The best tier available on the current CPU.
pub fn preferred() -> KernelId {
    *kernels().last().expect("scalar kernel is always available")
}

/// Checks that `kernel` can run on a CPU whose `avx2` feature is `avx2`,
/// passing it through if so.
///
/// # Errors
///
/// [`UnknownKernel::Unavailable`] when it cannot.
pub fn require_on(kernel: KernelId, avx2: bool) -> Result<KernelId, UnknownKernel> {
    if available_on(kernel, avx2) {
        Ok(kernel)
    } else {
        Err(UnknownKernel::Unavailable(kernel))
    }
}

/// Checks that `kernel` can run here, passing it through if so.
///
/// # Errors
///
/// [`UnknownKernel::Unavailable`] when this CPU cannot run it.
pub fn require(kernel: KernelId) -> Result<KernelId, UnknownKernel> {
    require_on(kernel, avx2_detected())
}

/// Environment variable that forces a specific tier.
pub const ENV_VAR: &str = "MCS_KERNEL";

/// Parses an optional `MCS_KERNEL`-style override.
///
/// `None` (variable unset) and empty/whitespace values mean "no override";
/// otherwise the value must name an [`available`] tier.
pub fn parse_override(value: Option<&str>) -> Result<Option<KernelId>, UnknownKernel> {
    match value {
        None => Ok(None),
        Some(s) if s.trim().is_empty() => Ok(None),
        Some(s) => require(s.parse()?).map(Some),
    }
}

/// Reads the [`ENV_VAR`] override from the process environment.
///
/// Returns `Ok(None)` when unset (callers fall back to [`preferred()`]),
/// `Ok(Some(k))` for a valid forced tier, and a typed [`UnknownKernel`]
/// — never a panic — for unknown names or unavailable tiers. A value
/// that is not valid UTF-8 is reported as an unknown name.
pub fn from_env() -> Result<Option<KernelId>, UnknownKernel> {
    match std::env::var_os(ENV_VAR) {
        None => Ok(None),
        Some(v) => match v.to_str() {
            Some(s) => parse_override(Some(s)),
            None => Err(UnknownKernel::Name(v.to_string_lossy().into_owned())),
        },
    }
}

/// One gate's Kleene plane formula over a single `u64` word of lanes.
///
/// The operands are `(can_zero, can_one)` plane pairs in the [`TritWord`]
/// encoding (`0 = (1,0)`, `1 = (0,1)`, `M = (1,1)`); unary ops read only
/// `a`, binary ops `a`/`b`, ternary ops `a`/`b`/`c`, and the fused
/// selection op [`ops::Sel`] all four. Pessimistic (non-MC-certified)
/// cells fold their `meta_poison` step into the formula so the result is a
/// single pure bitwise expression.
///
/// [`TritWord`]: crate::TritWord
pub trait GateOp {
    /// Evaluates the formula on one word of lanes.
    fn eval(a: (u64, u64), b: (u64, u64), c: (u64, u64), e: (u64, u64)) -> (u64, u64);
}

/// The meta mask `can_zero ∧ can_one` of one operand.
#[inline(always)]
fn meta((z, o): (u64, u64)) -> u64 {
    z & o
}

/// Namespaced marker types, one per tape gate kind.
pub mod ops {
    use super::{meta, GateOp};

    /// Kleene NOT: swap the planes.
    pub struct Inv;

    impl GateOp for Inv {
        #[inline(always)]
        fn eval(
            (za, oa): (u64, u64),
            _b: (u64, u64),
            _c: (u64, u64),
            _e: (u64, u64),
        ) -> (u64, u64) {
            (oa, za)
        }
    }

    /// Kleene AND: `z = za ∨ zb`, `o = oa ∧ ob`.
    pub struct And2;

    impl GateOp for And2 {
        #[inline(always)]
        fn eval(
            (za, oa): (u64, u64),
            (zb, ob): (u64, u64),
            _c: (u64, u64),
            _e: (u64, u64),
        ) -> (u64, u64) {
            (za | zb, oa & ob)
        }
    }

    /// Kleene OR: `z = za ∧ zb`, `o = oa ∨ ob`.
    pub struct Or2;

    impl GateOp for Or2 {
        #[inline(always)]
        fn eval(
            (za, oa): (u64, u64),
            (zb, ob): (u64, u64),
            _c: (u64, u64),
            _e: (u64, u64),
        ) -> (u64, u64) {
            (za & zb, oa | ob)
        }
    }

    /// Kleene NAND: NOT of [`And2`].
    pub struct Nand2;

    impl GateOp for Nand2 {
        #[inline(always)]
        fn eval(
            (za, oa): (u64, u64),
            (zb, ob): (u64, u64),
            _c: (u64, u64),
            _e: (u64, u64),
        ) -> (u64, u64) {
            (oa & ob, za | zb)
        }
    }

    /// Kleene NOR: NOT of [`Or2`].
    pub struct Nor2;

    impl GateOp for Nor2 {
        #[inline(always)]
        fn eval(
            (za, oa): (u64, u64),
            (zb, ob): (u64, u64),
            _c: (u64, u64),
            _e: (u64, u64),
        ) -> (u64, u64) {
            (oa | ob, za & zb)
        }
    }

    /// Pessimistic XOR: `(a ∧ ¬b) ∨ (¬a ∧ b)`, poisoned by either meta.
    pub struct Xor2;

    impl GateOp for Xor2 {
        #[inline(always)]
        fn eval(a: (u64, u64), b: (u64, u64), _c: (u64, u64), _e: (u64, u64)) -> (u64, u64) {
            let ((za, oa), (zb, ob)) = (a, b);
            let m = meta(a) | meta(b);
            let z = (za | ob) & (oa | zb);
            let o = (oa & zb) | (za & ob);
            (z | m, o | m)
        }
    }

    /// Pessimistic XNOR: `(a ∧ b) ∨ (¬a ∧ ¬b)`, poisoned by either meta.
    pub struct Xnor2;

    impl GateOp for Xnor2 {
        #[inline(always)]
        fn eval(a: (u64, u64), b: (u64, u64), _c: (u64, u64), _e: (u64, u64)) -> (u64, u64) {
            let ((za, oa), (zb, ob)) = (a, b);
            let m = meta(a) | meta(b);
            let z = (za | zb) & (oa | ob);
            let o = (oa & ob) | (za & zb);
            (z | m, o | m)
        }
    }

    /// Pessimistic 2:1 mux `(v1 ∧ sel) ∨ (v0 ∧ ¬sel)` with `a = v0`,
    /// `b = v1`, `c = sel`, poisoned by a metastable select.
    pub struct Mux2;

    impl GateOp for Mux2 {
        #[inline(always)]
        fn eval(v0: (u64, u64), v1: (u64, u64), sel: (u64, u64), _e: (u64, u64)) -> (u64, u64) {
            let ((z0, o0), (z1, o1), (zs, os)) = (v0, v1, sel);
            let m = meta(sel);
            let z = (z1 | zs) & (z0 | os);
            let o = (o1 & os) | (o0 & zs);
            (z | m, o | m)
        }
    }

    /// Pessimistic AND-NOT `a ∧ ¬b`, poisoned by either meta.
    pub struct AndNot2;

    impl GateOp for AndNot2 {
        #[inline(always)]
        fn eval(a: (u64, u64), b: (u64, u64), _c: (u64, u64), _e: (u64, u64)) -> (u64, u64) {
            let ((za, oa), (zb, ob)) = (a, b);
            let m = meta(a) | meta(b);
            (za | ob | m, (oa & zb) | m)
        }
    }

    /// Pessimistic AND-OR `a ∨ (b ∧ c)`, poisoned by any meta.
    pub struct Ao21;

    impl GateOp for Ao21 {
        #[inline(always)]
        fn eval(a: (u64, u64), b: (u64, u64), c: (u64, u64), _e: (u64, u64)) -> (u64, u64) {
            let ((za, oa), (zb, ob), (zc, oc)) = (a, b, c);
            let m = meta(a) | meta(b) | meta(c);
            let z = za & (zb | zc);
            let o = oa | (ob & oc);
            (z | m, o | m)
        }
    }

    /// The paper's selection core with its inverter folded in:
    /// `b·(a + s1) + a·¬t`, with `a`, `b`, `s1 = c` and `t = e`. It is the
    /// Kleene composition `Or2(And2(b, Or2(a, s1)), And2(a, Inv(t)))`, so it
    /// contains metastability exactly as those five gates do; the inverter
    /// is a plane swap and costs nothing.
    pub struct Sel;

    impl GateOp for Sel {
        #[inline(always)]
        fn eval(a: (u64, u64), b: (u64, u64), s1: (u64, u64), t: (u64, u64)) -> (u64, u64) {
            let ((za, oa), (zb, ob), (zs, os), (zt, ot)) = (a, b, s1, t);
            let z = (zb | (za & zs)) & (za | ot);
            let o = (ob & (oa | os)) | (oa & zt);
            (z, o)
        }
    }
}

/// Reads the `W` words of slot `s` from a plane buffer.
///
/// # Safety
///
/// `(s + 1) * W` words must be readable from `p`.
#[inline(always)]
unsafe fn load<const W: usize>(p: *const u64, s: usize) -> [u64; W] {
    // SAFETY: the caller guarantees the slot lies inside the buffer, and
    // `[u64; W]` has the alignment of `u64`.
    unsafe { p.add(s * W).cast::<[u64; W]>().read() }
}

/// Applies gate `G` to one `W`-word tape register: reads the fanin
/// registers `a`, `b`, `c`, `e` from the `z`/`o` plane buffers and writes
/// register `dst`. All fan-in words are loaded before any result word is
/// stored, which leaves the compiler free to turn the word loop into
/// whole-vector operations.
///
/// Fanins a gate does not read may be any in-bounds register (the loads
/// are dead and eliminated after inlining); only [`ops::Sel`] reads `e`.
///
/// # Safety
///
/// `z.len() == o.len()`, and `(s + 1) * W <= z.len()` for each of `dst`,
/// `a`, `b`, `c`, `e`.
///
/// Reads happen before the write, so fan-ins may alias each other and
/// `dst`: the tape's register allocator relies on this to reuse a fan-in's
/// register for the result.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub unsafe fn apply_slot<G: GateOp, const W: usize>(
    z: &mut [u64],
    o: &mut [u64],
    dst: usize,
    a: usize,
    b: usize,
    c: usize,
    e: usize,
) {
    debug_assert_eq!(z.len(), o.len());
    for s in [dst, a, b, c, e] {
        debug_assert!((s + 1) * W <= z.len(), "slot {s} out of bounds");
    }
    let zp = z.as_mut_ptr();
    let op = o.as_mut_ptr();
    // SAFETY: the caller guarantees every slot lies within both buffers.
    let (za, oa, zb, ob, zc, oc, ze, oe) = unsafe {
        (
            load::<W>(zp, a),
            load::<W>(op, a),
            load::<W>(zp, b),
            load::<W>(op, b),
            load::<W>(zp, c),
            load::<W>(op, c),
            load::<W>(zp, e),
            load::<W>(op, e),
        )
    };
    let mut rz = [0u64; W];
    let mut ro = [0u64; W];
    for j in 0..W {
        (rz[j], ro[j]) = G::eval(
            (za[j], oa[j]),
            (zb[j], ob[j]),
            (zc[j], oc[j]),
            (ze[j], oe[j]),
        );
    }
    // SAFETY: as above; every load has completed.
    unsafe {
        zp.add(dst * W).cast::<[u64; W]>().write(rz);
        op.add(dst * W).cast::<[u64; W]>().write(ro);
    }
}

#[cfg(test)]
mod tests {
    use super::ops::*;
    use super::*;
    use crate::TritWord;

    /// Deterministic well-encoded plane pair (meta wherever both bits set).
    fn planes(seed: u64) -> (u64, u64) {
        let z = seed ^ 0x9E37_79B9_7F4A_7C15u64.rotate_left((seed % 64) as u32);
        let o = !seed | seed.rotate_right(13);
        (z | !(z | o), o)
    }

    fn word(p: (u64, u64)) -> TritWord {
        TritWord::from_planes(p.0, p.1)
    }

    /// Reference results from the `TritWord` Kleene operators, with the
    /// pessimistic cells poisoned to `M` wherever `meta_mask` marks an
    /// operand metastable.
    fn reference(op: usize, a: TritWord, b: TritWord, c: TritWord) -> TritWord {
        let meta = |w: TritWord| w.meta_mask(64);
        let poison = |w: TritWord, m: u64| TritWord::select(m, TritWord::META, w);
        let m2 = meta(a) | meta(b);
        match op {
            0 => !a,
            1 => a & b,
            2 => a | b,
            3 => !(a & b),
            4 => !(a | b),
            5 => poison((a & !b) | (!a & b), m2),
            6 => poison((a & b) | (!a & !b), m2),
            7 => poison((b & c) | (a & !c), meta(c)),
            8 => poison(a & !b, m2),
            9 => poison(a | (b & c), m2 | meta(c)),
            _ => unreachable!(),
        }
    }

    fn kernel_result<G: GateOp>(a: (u64, u64), b: (u64, u64), c: (u64, u64)) -> TritWord {
        word(G::eval(a, b, c, (0, 0)))
    }

    #[test]
    fn gate_formulas_match_tritword_reference() {
        for seed in 0..64u64 {
            let (a, b, c) = (planes(seed), planes(seed + 101), planes(seed + 999));
            let got: [TritWord; 10] = [
                kernel_result::<Inv>(a, b, c),
                kernel_result::<And2>(a, b, c),
                kernel_result::<Or2>(a, b, c),
                kernel_result::<Nand2>(a, b, c),
                kernel_result::<Nor2>(a, b, c),
                kernel_result::<Xor2>(a, b, c),
                kernel_result::<Xnor2>(a, b, c),
                kernel_result::<Mux2>(a, b, c),
                kernel_result::<AndNot2>(a, b, c),
                kernel_result::<Ao21>(a, b, c),
            ];
            for (op, &r) in got.iter().enumerate() {
                assert_eq!(
                    r,
                    reference(op, word(a), word(b), word(c)),
                    "op {op} seed {seed}"
                );
            }
            // The fourth operand is read by `Sel` only.
            let e = planes(seed + 4242);
            assert_eq!(word(Ao21::eval(a, b, c, e)), kernel_result::<Ao21>(a, b, c));
            let sel = (word(b) & (word(a) | word(c))) | (word(a) & !word(e));
            assert_eq!(word(Sel::eval(a, b, c, e)), sel, "Sel seed {seed}");
        }
    }

    /// `Sel` is the composition of the five single-gate formulas it
    /// replaces, on all 3^4 ternary operand combinations.
    #[test]
    fn sel_is_the_composed_selection_core_on_all_81_inputs() {
        const Z: (u64, u64) = (0, 0);
        // Every lane of a splat word carries the same trit.
        let splat = |trit: u32| match trit {
            0 => (!0, 0),
            1 => (0, !0),
            _ => (!0, !0),
        };
        for combo in 0..81u32 {
            let [a, b, s1, t] = [0, 1, 2, 3].map(|k| splat(combo / 3u32.pow(k) % 3));
            let q = Or2::eval(a, s1, Z, Z);
            let x = And2::eval(b, q, Z, Z);
            let y = And2::eval(a, Inv::eval(t, Z, Z, Z), Z, Z);
            let want = Or2::eval(x, y, Z, Z);
            assert_eq!(Sel::eval(a, b, s1, t), want, "combination {combo}");
        }
    }

    #[test]
    fn apply_slot_scalar_matches_direct_formula() {
        // 5 slots × W=4 words: slot 4 = Mux2(slot 0, slot 1, slot 2), then
        // Sel(slot 0, slot 1, slot 2, slot 3).
        const W: usize = 4;
        let mut z = vec![0u64; 5 * W];
        let mut o = vec![0u64; 5 * W];
        for (j, (zz, oo)) in (0..4 * W as u64).map(planes).enumerate() {
            z[j] = zz;
            o[j] = oo;
        }
        let at = |z: &[u64], o: &[u64], s: usize, j: usize| (z[s * W + j], o[s * W + j]);
        // SAFETY: slots 0..5 all lie within the 5-slot buffers.
        unsafe { apply_slot::<Mux2, W>(&mut z, &mut o, 4, 0, 1, 2, 0) };
        for j in 0..W {
            let [a, b, c] = [0, 1, 2].map(|s| at(&z, &o, s, j));
            assert_eq!(at(&z, &o, 4, j), Mux2::eval(a, b, c, (0, 0)), "Mux2 word {j}");
        }
        // SAFETY: as above.
        unsafe { apply_slot::<Sel, W>(&mut z, &mut o, 4, 0, 1, 2, 3) };
        for j in 0..W {
            let [a, b, c, e] = [0, 1, 2, 3].map(|s| at(&z, &o, s, j));
            assert_eq!(at(&z, &o, 4, j), Sel::eval(a, b, c, e), "Sel word {j}");
        }
    }

    #[test]
    fn apply_slot_may_overwrite_a_fanin_in_place() {
        const W: usize = 2;
        let fill = || {
            let mut z = vec![0u64; 4 * W];
            let mut o = vec![0u64; 4 * W];
            for (j, (zz, oo)) in (0..4 * W as u64).map(planes).enumerate() {
                z[j] = zz;
                o[j] = oo;
            }
            (z, o)
        };
        let at = |z: &[u64], o: &[u64], s: usize, j: usize| (z[s * W + j], o[s * W + j]);

        let (mut z, mut o) = fill();
        let expect: Vec<(u64, u64)> = (0..W)
            .map(|j| And2::eval(at(&z, &o, 0, j), at(&z, &o, 1, j), (0, 0), (0, 0)))
            .collect();
        // SAFETY: in-bounds slots.
        unsafe { apply_slot::<And2, W>(&mut z, &mut o, 0, 0, 1, 1, 0) };
        for j in 0..W {
            assert_eq!(at(&z, &o, 0, j), expect[j], "And2 word {j}");
        }

        // The destination aliases the 4th fan-in, and `a` is read twice.
        let (mut z, mut o) = fill();
        let expect: Vec<(u64, u64)> = (0..W)
            .map(|j| {
                let (a, b, t) = (at(&z, &o, 0, j), at(&z, &o, 1, j), at(&z, &o, 3, j));
                Sel::eval(a, b, a, t)
            })
            .collect();
        // SAFETY: in-bounds slots.
        unsafe { apply_slot::<Sel, W>(&mut z, &mut o, 3, 0, 1, 0, 3) };
        for j in 0..W {
            assert_eq!(at(&z, &o, 3, j), expect[j], "Sel word {j}");
        }
    }

    #[test]
    fn ids_names_and_parsing_round_trip() {
        for k in KernelId::ALL {
            assert_eq!(k.name().parse::<KernelId>(), Ok(k));
            assert_eq!(k.to_string(), k.name());
            assert_eq!(k.name().to_uppercase().parse::<KernelId>(), Ok(k));
        }
        assert_eq!(KernelId::ALL, [KernelId::Scalar, KernelId::Avx2]);
        for name in ["sse9", "neon"] {
            assert_eq!(
                name.parse::<KernelId>(),
                Err(UnknownKernel::Name(name.to_string()))
            );
        }
        assert_eq!(KernelId::default(), KernelId::Scalar);
    }

    #[test]
    fn kernels_lists_scalar_first_and_only_available_backends() {
        let ks = kernels();
        assert_eq!(ks.first(), Some(&KernelId::Scalar));
        for &k in &ks {
            assert!(available(k), "{k} listed but unavailable");
            assert_eq!(require(k), Ok(k));
        }
        assert!(ks.contains(&preferred()));
        for k in KernelId::ALL {
            if !ks.contains(&k) {
                assert_eq!(require(k), Err(UnknownKernel::Unavailable(k)));
            }
        }
    }

    #[test]
    fn preferred_is_the_widest_available_backend() {
        let want = if available(KernelId::Avx2) {
            KernelId::Avx2
        } else {
            KernelId::Scalar
        };
        assert_eq!(preferred(), want);
    }

    #[test]
    fn availability_is_a_pure_function_of_the_avx2_feature() {
        for avx2 in [false, true] {
            assert!(available_on(KernelId::Scalar, avx2));
            assert_eq!(available_on(KernelId::Avx2, avx2), avx2);
            assert_eq!(require_on(KernelId::Scalar, avx2), Ok(KernelId::Scalar));
        }
        assert_eq!(require_on(KernelId::Avx2, true), Ok(KernelId::Avx2));
        // The refusal a CPU without AVX2 gives, on any host: it names the
        // refused tier and the always-available alternative.
        let err = require_on(KernelId::Avx2, false).unwrap_err();
        assert_eq!(err, UnknownKernel::Unavailable(KernelId::Avx2));
        let msg = err.to_string();
        assert!(msg.contains("`avx2`") && msg.contains("scalar"), "{msg}");
    }

    #[test]
    fn parse_override_handles_unset_empty_unknown_and_unavailable() {
        assert_eq!(parse_override(None), Ok(None));
        assert_eq!(parse_override(Some("")), Ok(None));
        assert_eq!(parse_override(Some("  ")), Ok(None));
        assert_eq!(parse_override(Some("scalar")), Ok(Some(KernelId::Scalar)));
        for name in ["turbo", "neon"] {
            assert_eq!(
                parse_override(Some(name)),
                Err(UnknownKernel::Name(name.to_string()))
            );
        }
        for k in KernelId::ALL {
            let parsed = parse_override(Some(k.name()));
            if available(k) {
                assert_eq!(parsed, Ok(Some(k)));
            } else {
                assert_eq!(parsed, Err(UnknownKernel::Unavailable(k)));
            }
        }
        // The error messages render without panicking and name the input.
        let msg = UnknownKernel::Name("x".into()).to_string();
        assert!(msg.contains("\"x\"") && msg.contains("avx2"), "{msg}");
    }
}
