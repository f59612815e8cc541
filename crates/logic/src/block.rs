//! [`TritBlock`]: an arbitrary-size batch of ternary lanes built from
//! [`TritWord`]s — the multi-word tier of the simulation stack.

use std::fmt;
use std::ops::{BitAnd, BitOr, Not};

use crate::trit::Trit;
use crate::word::{TritWord, LANES};

/// `N × 64` independent ternary lanes: a `Vec<TritWord>` plus a logical
/// lane count.
///
/// Where [`TritWord`] caps a batch at 64 test vectors, a `TritBlock` carries
/// any number of lanes, so whole input domains (all valid-string pairs, all
/// `3^n` ternary vectors, …) stream through the word-parallel evaluator in
/// one shape. The Kleene operations apply word-wise; lanes at index
/// `≥ lanes()` are kept at stable `0`, so the `(0,0)`-never-produced
/// encoding invariant documented on [`TritWord`] holds for every word,
/// including the partially-used last one.
///
/// # Example
///
/// A 100-lane sweep — more than one word can hold:
///
/// ```
/// use mcs_logic::{Trit, TritBlock};
///
/// let lanes: Vec<Trit> = (0..100)
///     .map(|i| if i % 3 == 0 { Trit::Meta } else { Trit::One })
///     .collect();
/// let a = TritBlock::from_lanes(&lanes);
/// let b = TritBlock::splat(Trit::One, 100);
/// let c = &a & &b;
/// assert_eq!(c.lanes(), 100);
/// assert_eq!(c.lane(0), Trit::Meta); // M AND 1 = M
/// assert_eq!(c.lane(98), Trit::One); // 1 AND 1 = 1
/// assert_eq!(c.word_count(), 2);
/// ```
#[derive(Clone, Eq, PartialEq, Hash, Debug, Default)]
pub struct TritBlock {
    words: Vec<TritWord>,
    lanes: usize,
}

impl TritBlock {
    /// A block of `lanes` lanes, all stable `0`.
    pub fn zeros(lanes: usize) -> TritBlock {
        TritBlock {
            words: vec![TritWord::ZERO; lanes.div_ceil(LANES)],
            lanes,
        }
    }

    /// A block with every lane equal to `t`.
    pub fn splat(t: Trit, lanes: usize) -> TritBlock {
        let mut b = TritBlock::zeros(lanes);
        b.fill(t);
        b
    }

    /// Builds a block from individual lane values.
    pub fn from_lanes(lanes: &[Trit]) -> TritBlock {
        let mut b = TritBlock::zeros(lanes.len());
        for (chunk, word) in lanes.chunks(LANES).zip(&mut b.words) {
            *word = TritWord::from_lanes(chunk);
        }
        b
    }

    /// Builds a block from raw words. The tail of the last word is re-masked
    /// to stable `0` so the unused-lane invariant holds.
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` differs from `lanes.div_ceil(64)`.
    pub fn from_words(mut words: Vec<TritWord>, lanes: usize) -> TritBlock {
        assert_eq!(
            words.len(),
            lanes.div_ceil(LANES),
            "word count does not match lane count"
        );
        if let Some(last) = words.last_mut() {
            *last = last.masked(tail_lanes(lanes));
        }
        TritBlock { words, lanes }
    }

    /// Number of logical lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// `true` if the block has no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes == 0
    }

    /// Number of backing words (`lanes().div_ceil(64)`).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// The backing words. Unused lanes of the last word are stable `0`.
    pub fn words(&self) -> &[TritWord] {
        &self.words
    }

    /// Word `k` (lanes `64k .. 64k+63`).
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ word_count()`.
    pub fn word(&self, k: usize) -> TritWord {
        self.words[k]
    }

    /// Copies the plane pair of words `first ..` into `z`/`o`, padding
    /// words past the block's end with stable `0` so the destination stays
    /// well-encoded — the single-pass input-pack path of the compiled-tape
    /// evaluator.
    ///
    /// # Panics
    ///
    /// Panics if `z` and `o` have different lengths.
    pub fn copy_planes(&self, first: usize, z: &mut [u64], o: &mut [u64]) {
        assert_eq!(z.len(), o.len(), "plane buffers must have equal length");
        for (j, (zw, ow)) in z.iter_mut().zip(o.iter_mut()).enumerate() {
            let w = self
                .words
                .get(first + j)
                .copied()
                .unwrap_or(TritWord::ZERO);
            *zw = w.can_zero_plane();
            *ow = w.can_one_plane();
        }
    }

    /// Overwrites word `k`, re-masking the tail if `k` is the last word.
    ///
    /// # Panics
    ///
    /// Panics if `k ≥ word_count()`.
    pub fn set_word(&mut self, k: usize, w: TritWord) {
        self.words[k] = if k + 1 == self.words.len() {
            w.masked(tail_lanes(self.lanes))
        } else {
            w
        };
    }

    /// Number of lanes used in word `k` (64 for all but possibly the last).
    pub fn word_lanes(&self, k: usize) -> usize {
        if k + 1 == self.words.len() {
            tail_lanes(self.lanes)
        } else {
            LANES
        }
    }

    /// Re-splats every lane to `t` in place, keeping the lane count.
    pub fn fill(&mut self, t: Trit) {
        let n = self.words.len();
        for (k, word) in self.words.iter_mut().enumerate() {
            *word = TritWord::splat(
                t,
                if k + 1 == n { tail_lanes(self.lanes) } else { LANES },
            );
        }
    }

    /// Reads lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ lanes()`.
    pub fn lane(&self, i: usize) -> Trit {
        assert!(i < self.lanes, "lane {i} out of range (block has {})", self.lanes);
        self.words[i / LANES].lane(i % LANES)
    }

    /// Writes lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ lanes()`.
    pub fn set_lane(&mut self, i: usize, t: Trit) {
        assert!(i < self.lanes, "lane {i} out of range (block has {})", self.lanes);
        self.words[i / LANES].set_lane(i % LANES, t);
    }

    /// Extracts all lanes.
    pub fn to_lanes(&self) -> Vec<Trit> {
        self.iter_lanes().collect()
    }

    /// Iterates over the lanes in order.
    pub fn iter_lanes(&self) -> impl Iterator<Item = Trit> + '_ {
        (0..self.lanes).map(move |i| self.lane(i))
    }

    /// Transposes lane-major rows into port-major blocks: block `p` carries
    /// `rows[i][p]` at lane `i`. This is the packing step of a batching
    /// evaluator — each row is one test vector (or one serving request),
    /// each output block one circuit port; row `i` reads back as
    /// [`TritBlock::lane`]`(i)` of each block. Pad lanes past `rows.len()`
    /// stay stable `0`, so the blocks feed straight into `eval_block`-style
    /// consumers.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all share one length.
    ///
    /// # Example
    ///
    /// ```
    /// use mcs_logic::{Trit, TritBlock};
    ///
    /// let rows = [
    ///     [Trit::Zero, Trit::One],
    ///     [Trit::Meta, Trit::Zero],
    /// ];
    /// let blocks = TritBlock::pack_rows(&rows);
    /// assert_eq!(blocks.len(), 2);          // one block per port
    /// assert_eq!(blocks[0].lanes(), 2);     // one lane per row
    /// assert_eq!(blocks[0].lane(1), Trit::Meta);
    /// let row0: Vec<Trit> = blocks.iter().map(|b| b.lane(0)).collect();
    /// assert_eq!(row0, [Trit::Zero, Trit::One]);
    /// ```
    pub fn pack_rows<R: AsRef<[Trit]>>(rows: &[R]) -> Vec<TritBlock> {
        let ports = rows.first().map_or(0, |r| r.as_ref().len());
        for row in rows {
            assert_eq!(row.as_ref().len(), ports, "rows must share a length");
        }
        let lanes = rows.len();
        let mut blocks: Vec<TritBlock> = (0..ports)
            .map(|_| TritBlock::zeros(lanes))
            .collect();
        for (k, chunk) in rows.chunks(LANES).enumerate() {
            for (p, block) in blocks.iter_mut().enumerate() {
                let mut z = 0u64;
                let mut o = 0u64;
                for (j, row) in chunk.iter().enumerate() {
                    match row.as_ref()[p] {
                        Trit::Zero => z |= 1 << j,
                        Trit::One => o |= 1 << j,
                        Trit::Meta => {
                            z |= 1 << j;
                            o |= 1 << j;
                        }
                    }
                }
                // Pad lanes keep the stable-0 encoding invariant.
                z |= !TritWord::lane_mask(chunk.len());
                block.set_word(k, TritWord::from_planes(z, o));
            }
        }
        blocks
    }

    /// Index of the first lane where `self` and `other` differ, or `None`
    /// if they are lane-for-lane equal.
    ///
    /// # Panics
    ///
    /// Panics if the lane counts differ.
    pub fn first_mismatch(&self, other: &TritBlock) -> Option<usize> {
        assert_eq!(self.lanes, other.lanes, "lane count mismatch");
        for (k, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            if a != b {
                let diff = (a.can_zero_plane() ^ b.can_zero_plane())
                    | (a.can_one_plane() ^ b.can_one_plane());
                return Some(k * LANES + diff.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// Lanes used in the last word of a block with `lanes` total lanes.
fn tail_lanes(lanes: usize) -> usize {
    if lanes == 0 {
        0
    } else {
        let rem = lanes % LANES;
        if rem == 0 {
            LANES
        } else {
            rem
        }
    }
}

fn zip_words(
    a: &TritBlock,
    b: &TritBlock,
    op: impl Fn(TritWord, TritWord) -> TritWord,
) -> TritBlock {
    assert_eq!(a.lanes, b.lanes, "lane count mismatch");
    TritBlock {
        words: a
            .words
            .iter()
            .zip(&b.words)
            .map(|(&x, &y)| op(x, y))
            .collect(),
        lanes: a.lanes,
    }
}

impl BitAnd for &TritBlock {
    type Output = TritBlock;

    /// Lane-wise Kleene AND.
    ///
    /// # Panics
    ///
    /// Panics if the lane counts differ.
    fn bitand(self, rhs: &TritBlock) -> TritBlock {
        zip_words(self, rhs, |x, y| x & y)
    }
}

impl BitOr for &TritBlock {
    type Output = TritBlock;

    /// Lane-wise Kleene OR.
    ///
    /// # Panics
    ///
    /// Panics if the lane counts differ.
    fn bitor(self, rhs: &TritBlock) -> TritBlock {
        zip_words(self, rhs, |x, y| x | y)
    }
}

impl Not for &TritBlock {
    type Output = TritBlock;

    /// Lane-wise Kleene NOT. The unused tail (which NOT would flip to
    /// stable `1`) is re-masked to stable `0`.
    fn not(self) -> TritBlock {
        let mut out = TritBlock {
            words: self.words.iter().map(|&w| !w).collect(),
            lanes: self.lanes,
        };
        if let Some(last) = out.words.last_mut() {
            *last = last.masked(tail_lanes(out.lanes));
        }
        out
    }
}

impl fmt::Display for TritBlock {
    /// Displays lane 0 first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in self.iter_lanes() {
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

impl FromIterator<Trit> for TritBlock {
    fn from_iter<I: IntoIterator<Item = Trit>>(iter: I) -> TritBlock {
        let lanes: Vec<Trit> = iter.into_iter().collect();
        TritBlock::from_lanes(&lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks the unused-lane invariant: every lane of every word past the
    /// logical lane count reads as stable `0` (in particular, never (0,0)).
    fn assert_tail_invariant(b: &TritBlock) {
        for k in 0..b.word_count() {
            let used = b.word_lanes(k);
            for i in used..LANES {
                assert_eq!(
                    b.word(k).lane(i),
                    Trit::Zero,
                    "unused lane {i} of word {k} not stable 0"
                );
            }
        }
    }

    #[test]
    fn pack_rows_transposes_and_masks_at_edge_lane_counts() {
        for lanes in [0usize, 1, 63, 64, 65, 130] {
            let rows: Vec<Vec<Trit>> = (0..lanes)
                .map(|i| (0..3).map(|p| Trit::ALL[(i + p) % 3]).collect())
                .collect();
            let blocks = TritBlock::pack_rows(&rows);
            assert_eq!(blocks.len(), if lanes == 0 { 0 } else { 3 });
            for (p, b) in blocks.iter().enumerate() {
                assert_eq!(b.lanes(), lanes);
                assert_tail_invariant(b);
                for (i, row) in rows.iter().enumerate() {
                    assert_eq!(b.lane(i), row[p], "lane {i} port {p}");
                }
            }
        }
    }

    #[test]
    fn pack_rows_matches_from_lanes_per_port() {
        let rows: Vec<Vec<Trit>> = (0..100)
            .map(|i| (0..4).map(|p| Trit::ALL[(i * 7 + p) % 3]).collect())
            .collect();
        let blocks = TritBlock::pack_rows(&rows);
        for p in 0..4 {
            let column: Vec<Trit> = rows.iter().map(|r| r[p]).collect();
            assert_eq!(blocks[p], TritBlock::from_lanes(&column), "port {p}");
        }
    }

    #[test]
    #[should_panic(expected = "share a length")]
    fn pack_rows_rejects_ragged_rows() {
        let rows = vec![vec![Trit::Zero, Trit::One], vec![Trit::Meta]];
        let _ = TritBlock::pack_rows(&rows);
    }

    #[test]
    fn edge_lane_counts_roundtrip_and_stay_masked() {
        // The boundary cases named in the issue: 0, 1, 63, 64, 65, 1000.
        for lanes in [0usize, 1, 63, 64, 65, 1000] {
            let values: Vec<Trit> =
                (0..lanes).map(|i| Trit::ALL[i % 3]).collect();
            let b = TritBlock::from_lanes(&values);
            assert_eq!(b.lanes(), lanes);
            assert_eq!(b.word_count(), lanes.div_ceil(64));
            assert_eq!(b.to_lanes(), values, "{lanes} lanes");
            assert_tail_invariant(&b);

            for t in Trit::ALL {
                let s = TritBlock::splat(t, lanes);
                assert!(s.iter_lanes().all(|v| v == t));
                assert_tail_invariant(&s);
                // NOT flips used lanes only; the tail stays stable 0.
                let n = !&s;
                assert!(n.iter_lanes().all(|v| v == !t));
                assert_tail_invariant(&n);
            }
        }
    }

    #[test]
    fn kleene_ops_match_scalar_per_lane_across_word_boundaries() {
        // 65 lanes: lane 64 exercises the second word.
        let lanes = 65usize;
        let a: Vec<Trit> = (0..lanes).map(|i| Trit::ALL[i % 3]).collect();
        let b: Vec<Trit> = (0..lanes).map(|i| Trit::ALL[(i / 3) % 3]).collect();
        let ba = TritBlock::from_lanes(&a);
        let bb = TritBlock::from_lanes(&b);
        let and = &ba & &bb;
        let or = &ba | &bb;
        let not = !&ba;
        for i in 0..lanes {
            assert_eq!(and.lane(i), a[i] & b[i], "AND lane {i}");
            assert_eq!(or.lane(i), a[i] | b[i], "OR lane {i}");
            assert_eq!(not.lane(i), !a[i], "NOT lane {i}");
        }
        assert_tail_invariant(&and);
        assert_tail_invariant(&or);
        assert_tail_invariant(&not);
    }

    #[test]
    fn copy_planes_matches_word_accessors_and_pads_with_stable_zero() {
        let b: TritBlock = (0..130).map(|i| Trit::ALL[i % 3]).collect();
        // Offset 1, window of 4: words 1..3 real, words 4..5 padding.
        let mut z = [0u64; 4];
        let mut o = [0u64; 4];
        b.copy_planes(1, &mut z, &mut o);
        for j in 0..4 {
            let want = if 1 + j < b.word_count() {
                b.word(1 + j)
            } else {
                TritWord::ZERO
            };
            assert_eq!(z[j], want.can_zero_plane(), "z word {j}");
            assert_eq!(o[j], want.can_one_plane(), "o word {j}");
        }
        // A window entirely past the end is all stable 0.
        b.copy_planes(7, &mut z, &mut o);
        assert_eq!(z, [!0u64; 4]);
        assert_eq!(o, [0u64; 4]);
        // An empty window is a no-op.
        b.copy_planes(0, &mut [], &mut []);
    }

    #[test]
    fn set_word_remasks_tail() {
        let mut b = TritBlock::zeros(65);
        b.set_word(1, TritWord::META);
        assert_eq!(b.lane(64), Trit::Meta);
        assert_tail_invariant(&b);
        // from_words applies the same masking.
        let c = TritBlock::from_words(vec![TritWord::META; 2], 65);
        assert_eq!(c.lane(63), Trit::Meta);
        assert_eq!(c.lane(64), Trit::Meta);
        assert_tail_invariant(&c);
        assert!(c.iter_lanes().all(|t| t == Trit::Meta));
    }

    #[test]
    fn fill_and_set_lane() {
        let mut b = TritBlock::zeros(130);
        b.fill(Trit::Meta);
        assert!(b.iter_lanes().all(|t| t == Trit::Meta));
        assert_tail_invariant(&b);
        b.set_lane(129, Trit::One);
        assert_eq!(b.lane(129), Trit::One);
        assert_eq!(b.iter_lanes().filter(|&t| t == Trit::Meta).count(), 129);
    }

    #[test]
    fn first_mismatch_reports_lowest_differing_lane() {
        let a = TritBlock::splat(Trit::One, 200);
        let mut b = a.clone();
        assert_eq!(a.first_mismatch(&b), None);
        b.set_lane(150, Trit::Meta);
        b.set_lane(199, Trit::Zero);
        assert_eq!(a.first_mismatch(&b), Some(150));
    }

    #[test]
    fn empty_block_is_well_behaved() {
        let b = TritBlock::zeros(0);
        assert!(b.is_empty());
        assert_eq!(b.word_count(), 0);
        assert_eq!(b.to_lanes(), Vec::new());
        let c = !&b;
        assert_eq!(c, b);
        assert_eq!(b.first_mismatch(&c), None);
    }

    #[test]
    fn display_and_collect() {
        let b: TritBlock =
            [Trit::Zero, Trit::Meta, Trit::One].into_iter().collect();
        assert_eq!(b.to_string(), "0M1");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lane_bounds_are_logical_not_physical() {
        // Lane 70 exists physically (word 1) but not logically.
        let b = TritBlock::zeros(65);
        let _ = b.lane(70);
    }
}
