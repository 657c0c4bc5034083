//! Bit-packed occupancy bitmap — SIGMA's native compression metadata.
//!
//! Sec. IV-C of the paper: every element of a matrix carries one bit that
//! says whether it is non-zero. The metadata cost is therefore a constant
//! `rows * cols` bits irrespective of sparsity, which is what makes the
//! format attractive for *arbitrary, unstructured* sparsity.

/// A 2-D bit matrix marking the non-zero positions of a matrix.
///
/// Bits are stored row-major, packed into `u64` words.
///
/// ```
/// use sigma_matrix::Bitmap;
/// let mut bm = Bitmap::new(2, 3);
/// bm.set(0, 1, true);
/// bm.set(1, 2, true);
/// assert_eq!(bm.count_ones(), 2);
/// assert!(bm.get(0, 1));
/// assert!(!bm.get(0, 0));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitmap {
    rows: usize,
    cols: usize,
    words: Vec<u64>,
}

impl Bitmap {
    /// Creates an all-zero bitmap of the given shape.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        let bits = rows * cols;
        Self { rows, cols, words: vec![0; bits.div_ceil(64)] }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn index(&self, r: usize, c: usize) -> (usize, u32) {
        debug_assert!(r < self.rows && c < self.cols);
        let bit = r * self.cols + c;
        (bit / 64, (bit % 64) as u32)
    }

    /// Bit at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if out of bounds; release builds return an
    /// arbitrary in-buffer bit only when indices are in range of the buffer,
    /// so callers must stay in bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(r < self.rows && c < self.cols, "bitmap index ({r},{c}) out of bounds");
        let (w, b) = self.index(r, c);
        (self.words[w] >> b) & 1 == 1
    }

    /// Sets the bit at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: bool) {
        assert!(r < self.rows && c < self.cols, "bitmap index ({r},{c}) out of bounds");
        let (w, b) = self.index(r, c);
        if v {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Number of set bits (non-zero elements).
    #[inline]
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Popcount of the bit range `[start, end)` over the packed words:
    /// whole words in the interior, masked partial words at the edges.
    fn count_ones_bit_range(&self, start: usize, end: usize) -> usize {
        if start >= end {
            return 0;
        }
        let (sw, sb) = (start / 64, (start % 64) as u32);
        let (ew, eb) = (end / 64, (end % 64) as u32);
        if sw == ew {
            let width = eb - sb;
            let mask = ((1u64 << width) - 1) << sb;
            return (self.words[sw] & mask).count_ones() as usize;
        }
        let mut n = (self.words[sw] >> sb).count_ones() as usize;
        n += self.words[sw + 1..ew].iter().map(|w| w.count_ones() as usize).sum::<usize>();
        if eb > 0 {
            n += (self.words[ew] & ((1u64 << eb) - 1)).count_ones() as usize;
        }
        n
    }

    /// Number of backing `u64` storage words.
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// The packed storage words, writable: bit `p & 63` of word `p >> 6`
    /// is row-major position `p = r * cols + c`. The generators' fast
    /// path; callers must leave bits past `rows * cols` clear.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// XORs `mask` into storage word `word` — a bitmap-word upset in the
    /// sparsity controller's metadata SRAM. Bits past the logical end of
    /// the bitmap are masked off so the corruption cannot create
    /// out-of-range occupancy. Returns the bits actually flipped (zero
    /// when `mask` only touches bits past the end).
    ///
    /// # Panics
    ///
    /// Panics if `word >= word_count()`.
    pub fn xor_word(&mut self, word: usize, mask: u64) -> u64 {
        let flipped = self.in_range(word, mask);
        self.words[word] ^= flipped;
        flipped
    }

    /// `mask` restricted to the bits of storage word `word` that lie
    /// before the logical end; panics if the word does not exist.
    fn in_range(&self, word: usize, mask: u64) -> u64 {
        assert!(word < self.words.len(), "bitmap word {word} out of range");
        let valid = (self.rows * self.cols).saturating_sub(word * 64).min(64);
        if valid == 64 {
            mask
        } else {
            mask & ((1u64 << valid) - 1)
        }
    }

    /// Number of set bits in row `r` (word-at-a-time popcount; rows are
    /// contiguous bit ranges in the row-major packing).
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    #[must_use]
    pub fn row_count_ones(&self, r: usize) -> usize {
        assert!(r < self.rows, "bitmap row {r} out of bounds");
        self.count_ones_bit_range(r * self.cols, (r + 1) * self.cols)
    }

    /// Number of set bits in column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    #[must_use]
    pub fn col_count_ones(&self, c: usize) -> usize {
        (0..self.rows).filter(|&r| self.get(r, c)).count()
    }

    /// OR of all bits in row `r` — one step of the controller's `REGOR`
    /// computation (Fig. 5, Step ii). Word-at-a-time with early exit.
    #[inline]
    #[must_use]
    pub fn row_or(&self, r: usize) -> bool {
        assert!(r < self.rows, "bitmap row {r} out of bounds");
        let (start, end) = (r * self.cols, (r + 1) * self.cols);
        if start >= end {
            return false;
        }
        let (sw, sb) = (start / 64, (start % 64) as u32);
        let (ew, eb) = (end / 64, (end % 64) as u32);
        if sw == ew {
            let mask = ((1u64 << (eb - sb)) - 1) << sb;
            return self.words[sw] & mask != 0;
        }
        if self.words[sw] >> sb != 0 {
            return true;
        }
        if self.words[sw + 1..ew].iter().any(|&w| w != 0) {
            return true;
        }
        eb > 0 && self.words[ew] & ((1u64 << eb) - 1) != 0
    }

    /// The column vector of per-row ORs — the full `REGOR` register file of
    /// the sparsity controller (Fig. 5, Step ii).
    #[must_use]
    pub fn rows_or(&self) -> Vec<bool> {
        (0..self.rows).map(|r| self.row_or(r)).collect()
    }

    /// The row vector of per-column ORs: `REGOR` of an operand whose
    /// contraction runs along the columns (a streaming operand stored
    /// transposed). Each row is ORed in 64 columns at a time.
    #[must_use]
    pub fn cols_or(&self) -> Vec<bool> {
        let mut acc = vec![0u64; self.cols.div_ceil(64)];
        for r in 0..self.rows {
            for (j, a) in acc.iter_mut().enumerate() {
                *a |= self.row_word(r, j);
            }
        }
        (0..self.cols).map(|c| (acc[c / 64] >> (c % 64)) & 1 == 1).collect()
    }

    /// Number of set bits in row `r` whose column is set in `mask` (bit
    /// `c % 64` of `mask[c / 64]` marks column `c`; missing words read as
    /// zero). Word-at-a-time, skipping zero mask words.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[must_use]
    pub fn row_count_ones_masked(&self, r: usize, mask: &[u64]) -> usize {
        assert!(r < self.rows, "bitmap row {r} out of bounds");
        let words = self.cols.div_ceil(64);
        mask.iter()
            .take(words)
            .enumerate()
            .filter(|&(_, &m)| m != 0)
            .map(|(j, &m)| (self.row_word(r, j) & m).count_ones() as usize)
            .sum()
    }

    /// Columns `64 j ..` of row `r` (at most 64, fewer in a row's last
    /// word), shifted down to bit 0: the row's `j`-th word as if rows were
    /// padded to whole words.
    #[inline]
    fn row_word(&self, r: usize, j: usize) -> u64 {
        let len = (self.cols - 64 * j).min(64);
        let start = r * self.cols + 64 * j;
        let (w, o) = (start / 64, start % 64);
        let mut x = self.words[w] >> o;
        if o + len > 64 {
            x |= self.words[w + 1] << (64 - o);
        }
        if len < 64 {
            x &= (1u64 << len) - 1;
        }
        x
    }

    /// [`Bitmap::xor_word`] applied to this bitmap's transpose: `mask`
    /// flips the bits of storage word `word` of the `cols x rows`
    /// row-major packing, which are this bitmap's `(r, c)` for transpose
    /// bits `c * rows + r`. Bits past the logical end are masked off.
    /// Returns the bits actually flipped, in the transpose's word.
    ///
    /// # Panics
    ///
    /// Panics if `word >= word_count()`.
    pub fn xor_transposed_word(&mut self, word: usize, mask: u64) -> u64 {
        let flipped = self.in_range(word, mask);
        let mut bits = flipped;
        while bits != 0 {
            let i = word * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let (c, r) = (i / self.rows, i % self.rows);
            let (w, b) = self.index(r, c);
            self.words[w] ^= 1 << b;
        }
        flipped
    }

    /// Element-wise AND with another bitmap of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "bitmap shape mismatch");
        let mut out = self.clone();
        for (w, o) in out.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
        out
    }

    /// The metadata size of the bitmap format in bits: exactly one bit per
    /// element (the value SIGMA reports in Fig. 7).
    #[must_use]
    pub fn metadata_bits(&self) -> u64 {
        self.rows as u64 * self.cols as u64
    }

    /// Iterator over `(row, col)` coordinates of set bits in row-major
    /// order — the order in which the SIGMA controller assigns counter
    /// values to stationary elements (Fig. 5, Step v).
    ///
    /// Skips zero words and walks set bits with `trailing_zeros`, and a
    /// row cursor that only moves forward finds each bit's row without a
    /// division, so cost scales with `nnz + words + rows`, not
    /// `rows * cols`. Bits past the logical end are never set
    /// (`set`/`xor_word` maintain that invariant), so the word scan cannot
    /// yield out-of-range coordinates; a 0-column bitmap has no words.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            bitmap: self,
            word_idx: 0,
            pending: self.words.first().copied().unwrap_or(0),
            row: 0,
            row_start: 0,
        }
    }

    /// Per-column popcounts over a set of rows: `counts[c]` becomes the
    /// number of rows `r` in `rows` with bit `(r, c)` set — the stationary
    /// engine's per-fold send counts when the streaming operand is stored
    /// `K x S`, one contraction row per listed row.
    ///
    /// Word-at-a-time, 64 columns per pass: the listed rows' words are
    /// summed into bit-sliced counters (plane `b` holds bit `b` of the 64
    /// columns' counts), four rows at a time through a carry-save adder,
    /// and each plane's set bits are unpacked once at the end. Cost scales
    /// with `rows.len() * row words + cols * log2(rows.len())`, not with
    /// the rows' set bits.
    ///
    /// # Panics
    ///
    /// Panics if a listed row is out of bounds or `counts.len() != cols`.
    pub fn col_count_ones_in_rows(&self, rows: &[usize], counts: &mut [u64]) {
        assert_eq!(counts.len(), self.cols, "one count per column");
        assert!(rows.iter().all(|&r| r < self.rows), "bitmap row out of bounds");
        let planes = (usize::BITS - rows.len().leading_zeros()) as usize;
        for (j, out) in counts.chunks_mut(64).enumerate() {
            let mut sliced = [0u64; usize::BITS as usize];
            let sliced = &mut sliced[..planes];
            let mut quads = rows.chunks_exact(4);
            for quad in &mut quads {
                let [a, b, c, d] =
                    [quad[0], quad[1], quad[2], quad[3]].map(|r| self.row_word(r, j));
                // a + b + c + d = ones + 2 * (carry_abc + carry_d).
                let ab = a ^ b;
                let abc = ab ^ c;
                let carry_abc = (a & b) | (ab & c);
                let carry_d = abc & d;
                add_sliced(sliced, 0, abc ^ d);
                add_sliced(sliced, 1, carry_abc ^ carry_d);
                add_sliced(sliced, 2, carry_abc & carry_d);
            }
            for &r in quads.remainder() {
                add_sliced(sliced, 0, self.row_word(r, j));
            }
            out.fill(0);
            for (b, &plane) in sliced.iter().enumerate() {
                let mut bits = plane;
                while bits != 0 {
                    out[bits.trailing_zeros() as usize] += 1 << b;
                    bits &= bits - 1;
                }
            }
        }
    }

    /// The transpose of this bitmap.
    #[must_use]
    pub fn transposed(&self) -> Bitmap {
        let mut out = Bitmap::new(self.cols, self.rows);
        for (r, c) in self.iter_ones() {
            out.set(c, r, true);
        }
        out
    }

    /// Density (fraction of set bits), in `[0, 1]`.
    #[must_use]
    pub fn density(&self) -> f64 {
        if self.rows * self.cols == 0 {
            return 0.0;
        }
        self.count_ones() as f64 / (self.rows * self.cols) as f64
    }
}

/// Adds `carry` (one bit per column) times `2^from` into bit-sliced
/// counters: a ripple carry from plane `from` up, stopping once no column
/// carries.
/// The caller sizes `planes` so that no count overflows the top plane.
fn add_sliced(planes: &mut [u64], from: usize, mut carry: u64) {
    for plane in &mut planes[from..] {
        if carry == 0 {
            return;
        }
        let next = *plane & carry;
        *plane ^= carry;
        carry = next;
    }
}

/// Word-skipping iterator over the set bits of a [`Bitmap`] in row-major
/// order (see [`Bitmap::iter_ones`]).
#[derive(Debug, Clone)]
pub struct OnesIter<'a> {
    bitmap: &'a Bitmap,
    word_idx: usize,
    pending: u64,
    /// Row of the last yielded bit (0 before the first).
    row: usize,
    /// Bit address of `row`'s first column: `row * cols`.
    row_start: usize,
}

impl Iterator for OnesIter<'_> {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        while self.pending == 0 {
            self.word_idx += 1;
            self.pending = *self.bitmap.words.get(self.word_idx)?;
        }
        let tz = self.pending.trailing_zeros() as usize;
        self.pending &= self.pending - 1;
        let bit = self.word_idx * 64 + tz;
        // A set bit implies `cols > 0`, so the cursor reaches its row.
        while bit - self.row_start >= self.bitmap.cols {
            self.row += 1;
            self.row_start += self.bitmap.cols;
        }
        Some((self.row, bit - self.row_start))
    }
}

impl std::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Bitmap {}x{} ({} ones)", self.rows, self.cols, self.count_ones())?;
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{}", u8::from(self.get(r, c)))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker(rows: usize, cols: usize) -> Bitmap {
        let mut b = Bitmap::new(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if (r + c) % 2 == 0 {
                    b.set(r, c, true);
                }
            }
        }
        b
    }

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bitmap::new(3, 70); // spans multiple u64 words
        b.set(2, 69, true);
        b.set(0, 0, true);
        assert!(b.get(2, 69));
        assert!(b.get(0, 0));
        assert!(!b.get(1, 35));
        b.set(2, 69, false);
        assert!(!b.get(2, 69));
    }

    #[test]
    fn count_ones_counts() {
        let b = checker(4, 4);
        assert_eq!(b.count_ones(), 8);
        assert_eq!(b.row_count_ones(0), 2);
        assert_eq!(b.col_count_ones(1), 2);
    }

    #[test]
    fn row_or_and_regor() {
        let mut b = Bitmap::new(3, 4);
        b.set(1, 2, true);
        assert_eq!(b.rows_or(), vec![false, true, false]);
        assert!(b.row_or(1));
        assert!(!b.row_or(0));
    }

    #[test]
    fn and_intersects() {
        let a = checker(4, 4);
        let mut b = Bitmap::new(4, 4);
        b.set(0, 0, true);
        b.set(0, 1, true);
        let c = a.and(&b);
        assert_eq!(c.count_ones(), 1);
        assert!(c.get(0, 0));
    }

    #[test]
    fn metadata_is_one_bit_per_element() {
        assert_eq!(Bitmap::new(1632, 36548).metadata_bits(), 1632 * 36548);
    }

    #[test]
    fn iter_ones_row_major_order() {
        let mut b = Bitmap::new(2, 3);
        b.set(1, 0, true);
        b.set(0, 2, true);
        let v: Vec<_> = b.iter_ones().collect();
        assert_eq!(v, vec![(0, 2), (1, 0)]);
    }

    #[test]
    fn iter_ones_cursor_matches_the_division_form() {
        let division = |b: &Bitmap| -> Vec<(usize, usize)> {
            let mut out = Vec::new();
            for (w, &word) in b.words.iter().enumerate() {
                let mut pending = word;
                while pending != 0 {
                    let bit = w * 64 + pending.trailing_zeros() as usize;
                    pending &= pending - 1;
                    out.push((bit / b.cols(), bit % b.cols()));
                }
            }
            out
        };
        for cols in [1, 63, 64, 65, 130] {
            let rows = 7;
            let mut b = Bitmap::new(rows, cols);
            // Rows 1, 2 and 5 stay empty; the last bit sits in the last word.
            for r in [0, 3, 4, 6] {
                for c in (r % 3..cols).step_by(r + 2) {
                    b.set(r, c, true);
                }
            }
            b.set(rows - 1, cols - 1, true);
            let fast: Vec<_> = b.iter_ones().collect();
            assert_eq!(fast, division(&b), "cols {cols}");
            assert_eq!(fast.last(), Some(&(rows - 1, cols - 1)), "cols {cols}");
            // Only the very last bit: every row before it is empty.
            let mut last = Bitmap::new(rows, cols);
            last.set(rows - 1, cols - 1, true);
            assert_eq!(last.iter_ones().collect::<Vec<_>>(), vec![(rows - 1, cols - 1)]);
        }
        // 0-column bitmaps have no words, so the cursor never runs.
        for rows in [0, 1, 5, 1000] {
            assert_eq!(Bitmap::new(rows, 0).iter_ones().next(), None);
        }
        assert_eq!(Bitmap::new(0, 5).iter_ones().next(), None);
    }

    #[test]
    fn xor_word_flips_bits_and_masks_tail() {
        let mut bm = Bitmap::new(3, 3); // 9 bits -> one word, 9 valid bits
        assert_eq!(bm.word_count(), 1);
        assert_eq!(bm.xor_word(0, u64::MAX), 0x1ff);
        // Only the 9 in-range bits may flip.
        assert_eq!(bm.count_ones(), 9);
        assert_eq!(bm.xor_word(0, 0b101), 0b101);
        // A mask entirely past the logical end flips nothing.
        assert_eq!(bm.xor_word(0, 1 << 9), 0);
        assert!(!bm.get(0, 0));
        assert!(bm.get(0, 1));
        assert!(!bm.get(0, 2));
        assert_eq!(bm.count_ones(), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn xor_word_out_of_range_panics() {
        let _ = Bitmap::new(2, 2).xor_word(1, 1);
    }

    #[test]
    fn row_ops_agree_with_per_bit_reference_across_word_boundaries() {
        // 5 x 137 spans many words with rows straddling word boundaries.
        let mut b = Bitmap::new(5, 137);
        for i in 0..(5 * 137) {
            if i % 7 == 0 || i % 31 == 3 {
                b.set(i / 137, i % 137, true);
            }
        }
        for r in 0..5 {
            let reference = (0..137).filter(|&c| b.get(r, c)).count();
            assert_eq!(b.row_count_ones(r), reference, "row {r}");
            assert_eq!(b.row_or(r), reference > 0, "row {r}");
        }
        let naive: Vec<(usize, usize)> = (0..5)
            .flat_map(|r| (0..137).map(move |c| (r, c)))
            .filter(|&(r, c)| b.get(r, c))
            .collect();
        let fast: Vec<_> = b.iter_ones().collect();
        assert_eq!(fast, naive, "iter_ones must stay row-major");
    }

    #[test]
    fn row_ops_on_word_aligned_and_empty_shapes() {
        let mut b = Bitmap::new(3, 64); // rows exactly word-aligned
        b.set(1, 0, true);
        b.set(1, 63, true);
        assert_eq!(b.row_count_ones(0), 0);
        assert_eq!(b.row_count_ones(1), 2);
        assert!(b.row_or(1));
        assert!(!b.row_or(2));
        let empty = Bitmap::new(4, 0);
        assert_eq!(empty.row_count_ones(2), 0);
        assert!(!empty.row_or(0));
        assert_eq!(empty.iter_ones().count(), 0);
    }

    /// Per-bit reference check of every word-level row helper on one shape.
    fn assert_row_helpers_match_reference(b: &Bitmap) {
        for r in 0..b.rows() {
            let reference: Vec<usize> = (0..b.cols()).filter(|&c| b.get(r, c)).collect();
            assert_eq!(b.row_count_ones(r), reference.len(), "row_count_ones row {r}");
            assert_eq!(b.row_or(r), !reference.is_empty(), "row_or row {r}");
            let mut counts = vec![0; b.cols()];
            b.col_count_ones_in_rows(&[r], &mut counts);
            let fast: Vec<usize> = (0..b.cols()).filter(|&c| counts[c] == 1).collect();
            assert_eq!(fast, reference, "col_count_ones_in_rows row {r}");
            assert!(counts.iter().all(|&n| n <= 1), "row {r}");
        }
        // Every row, listed twice, in a scrambled order.
        let rows: Vec<usize> = (0..b.rows()).rev().chain(0..b.rows()).collect();
        let mut counts = vec![0; b.cols()];
        b.col_count_ones_in_rows(&rows, &mut counts);
        for (c, &n) in counts.iter().enumerate() {
            assert_eq!(n, 2 * b.col_count_ones(c) as u64, "col_count_ones_in_rows col {c}");
        }
        let naive: Vec<(usize, usize)> = (0..b.rows())
            .flat_map(|r| (0..b.cols()).map(move |c| (r, c)))
            .filter(|&(r, c)| b.get(r, c))
            .collect();
        let fast: Vec<_> = b.iter_ones().collect();
        assert_eq!(fast, naive, "iter_ones must stay row-major");
    }

    #[test]
    fn row_helpers_on_empty_rows_and_empty_shapes() {
        // All-zero rows between populated ones.
        let mut b = Bitmap::new(5, 70);
        b.set(0, 69, true);
        b.set(4, 0, true);
        assert_row_helpers_match_reference(&b);
        for r in 1..4 {
            assert_eq!(b.row_count_ones(r), 0);
            assert!(!b.row_or(r));
        }
        // Zero-column shape: every row is an empty bit range.
        let degenerate = Bitmap::new(4, 0);
        assert_row_helpers_match_reference(&degenerate);
        // Fully empty but non-degenerate bitmap.
        assert_row_helpers_match_reference(&Bitmap::new(3, 100));
    }

    #[test]
    fn row_helpers_on_exact_word_multiples() {
        // cols = 64 and 128: rows land exactly on word boundaries, so the
        // edge masks must degenerate to whole words without shifting by 64.
        for cols in [64usize, 128] {
            let mut b = Bitmap::new(3, cols);
            for c in 0..cols {
                if c % 3 == 0 {
                    b.set(0, c, true);
                }
            }
            b.set(1, 0, true);
            b.set(1, 63, true);
            b.set(1, cols - 1, true);
            assert_row_helpers_match_reference(&b);
            assert_eq!(b.row_count_ones(0), cols.div_ceil(3));
            let mut counts = vec![0; cols];
            b.col_count_ones_in_rows(&[1], &mut counts);
            let edges: Vec<usize> = (0..cols).filter(|&c| counts[c] == 1).collect();
            if cols == 64 {
                assert_eq!(edges, vec![0, 63]);
            } else {
                assert_eq!(edges, vec![0, 63, 127]);
            }
        }
        // A single 64-wide row occupying exactly one full word.
        let mut one = Bitmap::new(1, 64);
        one.xor_word(0, u64::MAX);
        assert_eq!(one.row_count_ones(0), 64);
        let mut counts = vec![0; 64];
        one.col_count_ones_in_rows(&[0, 0, 0], &mut counts);
        assert_eq!(counts, vec![3; 64]);
    }

    #[test]
    fn row_helpers_on_trailing_partial_words() {
        // cols = 65 and 100: every row straddles word boundaries at
        // unaligned offsets and the last row ends in a partial word.
        for cols in [65usize, 100] {
            let mut b = Bitmap::new(4, cols);
            for i in 0..(4 * cols) {
                if i % 5 == 0 || i % 17 == 2 {
                    b.set(i / cols, i % cols, true);
                }
            }
            // Force bits at every row's first and last column so both
            // edge masks are exercised with occupancy.
            for r in 0..4 {
                b.set(r, 0, true);
                b.set(r, cols - 1, true);
            }
            assert_row_helpers_match_reference(&b);
            // Neighboring rows must not leak through the masks: clearing
            // a whole row leaves adjacent rows untouched.
            let mut cleared = b.clone();
            for c in 0..cols {
                cleared.set(2, c, false);
            }
            assert_eq!(cleared.row_count_ones(2), 0);
            assert!(!cleared.row_or(2));
            assert_eq!(cleared.row_count_ones(1), b.row_count_ones(1));
            assert_eq!(cleared.row_count_ones(3), b.row_count_ones(3));
            assert_row_helpers_match_reference(&cleared);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn col_count_ones_in_rows_out_of_bounds_panics() {
        Bitmap::new(2, 8).col_count_ones_in_rows(&[2], &mut [0; 8]);
    }

    #[test]
    fn col_count_ones_in_rows_carries_through_every_plane() {
        // 1..=300 copies of a full row: counts that need up to nine
        // planes, with carries rippling through all of them at 255/256.
        let mut b = Bitmap::new(2, 70);
        for c in 0..70 {
            b.set(1, c, true);
        }
        for n in [1usize, 2, 3, 7, 8, 255, 256, 300] {
            let rows = vec![1; n];
            let mut counts = vec![u64::MAX; 70];
            b.col_count_ones_in_rows(&rows, &mut counts);
            assert_eq!(counts, vec![n as u64; 70], "{n} copies");
        }
        let mut counts = vec![9; 70];
        b.col_count_ones_in_rows(&[], &mut counts);
        assert_eq!(counts, vec![0; 70]);
    }

    #[test]
    fn transposed_word_ops_match_the_transpose() {
        // Shapes whose rows and columns straddle word edges, plus empty
        // rows and columns and a zero-column shape.
        for (rows, cols) in [(5, 137), (7, 64), (3, 65), (70, 3), (1, 1), (4, 0), (9, 130)] {
            let mut b = Bitmap::new(rows, cols);
            for i in 0..rows * cols {
                if (i % 7 == 0 || i % 31 == 3) && i / cols != 2 && i % cols != 1 {
                    b.set(i / cols, i % cols, true);
                }
            }
            let t = b.transposed();
            assert_eq!(b.cols_or(), t.rows_or(), "{rows}x{cols}");
            let mut mask = vec![0u64; cols.div_ceil(64)];
            for c in (0..cols).filter(|c| c % 3 != 1) {
                mask[c / 64] |= 1 << (c % 64);
            }
            for r in 0..rows {
                let reference = (0..cols).filter(|&c| b.get(r, c) && c % 3 != 1).count();
                assert_eq!(b.row_count_ones_masked(r, &mask), reference, "{rows}x{cols} row {r}");
                assert_eq!(b.row_count_ones_masked(r, &[]), 0);
            }
            for word in 0..b.word_count() {
                for mask in [u64::MAX, 0x0f0f_0f0f_0f0f_0f0f, 1 << 63, 0] {
                    let mut got = b.clone();
                    let mut want = t.clone();
                    let flipped = got.xor_transposed_word(word, mask);
                    assert_eq!(flipped, want.xor_word(word, mask), "{rows}x{cols} word {word}");
                    assert_eq!(got, want.transposed(), "{rows}x{cols} word {word}");
                }
            }
        }
    }

    #[test]
    fn transpose_moves_bits() {
        let mut b = Bitmap::new(2, 3);
        b.set(0, 2, true);
        let t = b.transposed();
        assert!(t.get(2, 0));
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.count_ones(), 1);
    }

    #[test]
    fn density_fraction() {
        assert!((checker(4, 4).density() - 0.5).abs() < 1e-12);
        assert_eq!(Bitmap::new(2, 2).density(), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        let _ = Bitmap::new(2, 2).get(2, 0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn and_shape_mismatch_panics() {
        let _ = Bitmap::new(2, 2).and(&Bitmap::new(2, 3));
    }
}
