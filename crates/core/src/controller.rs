//! The global sparsity controller — the bitmap walkthrough of Fig. 5.
//!
//! For each GEMM the controller consumes the two bitmap-compressed
//! operands and produces the mapping that drives the datapath:
//!
//! 1. **REGOR** (Step ii): a row-wise OR across the streaming bitmap —
//!    one bit per contraction index `k` saying whether *any* streaming
//!    element with that `k` exists.
//! 2. **stationary′** (Step ii): the stationary bitmap AND-ed with REGOR,
//!    dropping stationary non-zeros that would only ever multiply zeros.
//! 3. **Counter assignment / folds** (Steps iii–v): stationary′ non-zeros
//!    are packed row-major onto the multipliers; when they exceed the
//!    array, execution folds. Each contiguous run of one stationary group
//!    (a row of the canonical stationary operand) becomes one FAN cluster
//!    (`vecID`).
//! 4. **SRC–DEST tables** (Step v): per Flex-DPE pairs of streaming-value
//!    counter → multiplier counter, from which the Benes routing bits are
//!    derived (Step vi).
//! 5. **Output bitmap** (Step v): which outputs will receive any non-zero
//!    contribution.
//!
//! The controller works in a *canonical orientation*: the stationary
//! operand is a `G × K` matrix whose rows are dot-product groups and whose
//! columns are the contraction dimension; the streaming operand is
//! `K × S` with one streamed vector per step. Either operand may be
//! stored in the other orientation ([`Operand`]): weight-stationary keeps
//! `KN` stationary with its columns as the groups, and streams `MK` with
//! its rows as the steps, and the training GEMMs `AᵀB` and `ABᵀ` read
//! their transposed operand the same way. The plan reads the stored
//! matrices; no transposed copy is built.

use sigma_matrix::{Bitmap, SparseMatrix};

/// The order in which stationary′ non-zeros are packed into folds.
///
/// * [`PackingOrder::GroupMajor`] — the Fig. 5 walkthrough order:
///   row-major over the stationary operand, so a fold holds a run of
///   complete dot-product groups. Minimizes cross-fold partial sums.
/// * [`PackingOrder::ContractionMajor`] — a fold holds a contiguous
///   *contraction slice* across **all** groups. Every streamed value in
///   the slice is multicast to up to `groups` multipliers, minimizing
///   SRAM traffic and per-step sends (the better choice when the
///   streaming bandwidth is narrow), at the cost of partial sums for
///   every group accumulating across folds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PackingOrder {
    /// Row-major over groups (the paper's walkthrough order).
    #[default]
    GroupMajor,
    /// Contraction-slice-major across all groups.
    ContractionMajor,
}

/// A stored matrix read as itself or, with `transposed`, as its
/// transpose: an operand in either orientation, copied in neither.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Operand<'a> {
    /// The matrix as stored.
    pub matrix: &'a SparseMatrix,
    /// Whether the operand is the transpose of `matrix`.
    pub transposed: bool,
}

impl<'a> Operand<'a> {
    /// `matrix` as stored.
    pub fn new(matrix: &'a SparseMatrix) -> Self {
        Self { matrix, transposed: false }
    }

    /// This operand's transpose.
    #[must_use]
    pub fn t(self) -> Self {
        Self { transposed: !self.transposed, ..self }
    }

    /// Rows of the operand (columns of the stored matrix when transposed).
    pub fn rows(&self) -> usize {
        if self.transposed {
            self.matrix.cols()
        } else {
            self.matrix.rows()
        }
    }

    /// Columns of the operand.
    pub fn cols(&self) -> usize {
        if self.transposed {
            self.matrix.rows()
        } else {
            self.matrix.cols()
        }
    }

    /// The operand's stored `(row, col, value)` entries in the stored
    /// matrix's row-major order, with coordinates in the operand's own
    /// orientation.
    pub fn entries(self) -> impl Iterator<Item = (usize, usize, f32)> + 'a {
        let t = self.transposed;
        self.matrix.iter().map(move |(r, c, v)| if t { (c, r, v) } else { (r, c, v) })
    }

    /// The operand as a matrix of its own: the stored one, or its
    /// [`SparseMatrix::transposed`] copy. Test builds only, where the
    /// tick oracle takes canonical matrices.
    #[cfg(test)]
    pub fn to_matrix(self) -> SparseMatrix {
        if self.transposed {
            self.matrix.transposed()
        } else {
            self.matrix.clone()
        }
    }
}

/// One stationary′ non-zero mapped onto a multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappedElement {
    /// Dot-product group (row of the canonical stationary operand).
    pub group: usize,
    /// Contraction index (column of the canonical stationary operand).
    pub contraction: usize,
    /// The stationary value held in the multiplier's buffer.
    pub value: f32,
}

/// One stationary fold: the slice of stationary′ resident on the array at
/// once, with its FAN cluster assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fold {
    /// Mapped elements in PE order (packed, `len() <= total_pes`).
    pub elements: Vec<MappedElement>,
    /// `vec_ids[i]` is the FAN cluster of PE `i` (dense rank of the
    /// element's group within this fold); `None` for unoccupied PEs.
    /// Length equals `total_pes`.
    pub vec_ids: Vec<Option<u32>>,
    /// Cluster id → group index.
    pub cluster_groups: Vec<usize>,
    /// Sorted distinct contraction indices present in this fold — the
    /// streaming values that must be fetched per step while this fold is
    /// resident.
    pub distinct_contractions: Vec<usize>,
}

impl Fold {
    /// Number of occupied PEs.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.elements.len()
    }
}

/// The controller's complete mapping plan for one GEMM.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerPlan {
    /// REGOR bits: `stream_or[k]` is true when streaming row `k` has any
    /// non-zero.
    pub stream_or: Vec<bool>,
    /// Non-zeros surviving the stationary′ filter.
    pub stationary_prime_nnz: u64,
    /// Stationary non-zeros dropped because no streaming partner exists.
    pub dropped_stationary: u64,
    /// The stationary folds, in execution order.
    pub folds: Vec<Fold>,
}

impl ControllerPlan {
    /// Builds the plan for a canonical `G × K` stationary operand and a
    /// `K × S` streaming bitmap, on an array of `total_pes` multipliers.
    ///
    /// # Panics
    ///
    /// Panics if the operands' contraction dimensions disagree or
    /// `total_pes == 0`.
    #[must_use]
    pub fn build(stationary: &SparseMatrix, streaming: &Bitmap, total_pes: usize) -> Self {
        Self::build_with_order(stationary, streaming, total_pes, PackingOrder::GroupMajor)
    }

    /// Like [`ControllerPlan::build`] with an explicit [`PackingOrder`].
    ///
    /// # Panics
    ///
    /// Panics if the operands' contraction dimensions disagree or
    /// `total_pes == 0`.
    #[must_use]
    pub fn build_with_order(
        stationary: &SparseMatrix,
        streaming: &Bitmap,
        total_pes: usize,
        order: PackingOrder,
    ) -> Self {
        Self::build_oriented(Operand::new(stationary), streaming, false, total_pes, order)
    }

    /// [`ControllerPlan::build_with_order`] on operands in either
    /// orientation: `stationary` is the `G × K` operand, and `streaming`
    /// is the `K × S` streaming bitmap, or its `S × K` transpose when
    /// `stream_transposed`.
    ///
    /// # Panics
    ///
    /// Panics if the operands' contraction dimensions disagree or
    /// `total_pes == 0`.
    pub(crate) fn build_oriented(
        stationary: Operand<'_>,
        streaming: &Bitmap,
        stream_transposed: bool,
        total_pes: usize,
        order: PackingOrder,
    ) -> Self {
        let stream_k = if stream_transposed { streaming.cols() } else { streaming.rows() };
        let kdim = stationary.cols();
        assert_eq!(kdim, stream_k, "stationary K ({kdim}) must equal streaming K ({stream_k})");
        assert!(total_pes > 0, "total_pes must be non-zero");

        // Step ii: REGOR + stationary' filter, and steps iii-v: cut into
        // folds, assign clusters.
        let stream_or = if stream_transposed { streaming.cols_or() } else { streaming.rows_or() };
        let chunks: Vec<Vec<MappedElement>> = match order {
            PackingOrder::GroupMajor => Self::group_major_folds(stationary, &stream_or, total_pes),
            PackingOrder::ContractionMajor => {
                // One fold of unbounded size holds every element.
                let mut all = Self::group_major_folds(stationary, &stream_or, usize::MAX);
                Self::contraction_major_folds(all.pop().unwrap_or_default(), total_pes)
            }
        };
        let nnz = chunks.iter().map(Vec::len).sum::<usize>() as u64;
        let dropped = stationary.matrix.nnz() as u64 - nnz;
        let mut folds = Vec::new();
        // One bit per contraction index, reused across folds: marking a
        // fold's contractions and draining the set words in order yields
        // them sorted and distinct without a sort.
        let mut seen = vec![0u64; kdim.div_ceil(64)];
        for chunk in chunks {
            let mut vec_ids = vec![None; total_pes];
            let mut cluster_groups = Vec::new();
            for (i, e) in chunk.iter().enumerate() {
                let new_cluster = cluster_groups.last() != Some(&e.group);
                if new_cluster {
                    cluster_groups.push(e.group);
                }
                #[allow(clippy::cast_possible_truncation)]
                let cid = (cluster_groups.len() - 1) as u32;
                vec_ids[i] = Some(cid);
                seen[e.contraction / 64] |= 1 << (e.contraction % 64);
            }
            let distinct = seen.iter().map(|w| w.count_ones() as usize).sum();
            let mut contractions = Vec::with_capacity(distinct);
            for (w, word) in seen.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    contractions.push(w * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                }
            }
            folds.push(Fold {
                elements: chunk,
                vec_ids,
                cluster_groups,
                distinct_contractions: contractions,
            });
        }

        ControllerPlan { stream_or, stationary_prime_nnz: nnz, dropped_stationary: dropped, folds }
    }

    /// Step ii's stationary′ elements in group-major order, each group's
    /// contractions ascending, cut into folds of `total_pes`. A stored
    /// `G × K` operand is read in row-major order. A transposed one
    /// (stored `K × G`) takes one counting pass for each group's first
    /// slot, then one row-major pass that places every element straight
    /// into its fold, which fills each group in ascending contraction
    /// order.
    fn group_major_folds(
        stationary: Operand<'_>,
        stream_or: &[bool],
        total_pes: usize,
    ) -> Vec<Vec<MappedElement>> {
        let m = stationary.matrix;
        let mut folds = Vec::new();
        if !stationary.transposed {
            let mut fold = Vec::new();
            for (seen, (group, contraction, value)) in m.iter().enumerate() {
                if !stream_or[contraction] {
                    continue;
                }
                if fold.len() == total_pes {
                    folds.push(std::mem::take(&mut fold));
                }
                if fold.is_empty() {
                    fold.reserve_exact(total_pes.min(m.nnz() - seen));
                }
                fold.push(MappedElement { group, contraction, value });
            }
            if !fold.is_empty() {
                folds.push(fold);
            }
            return folds;
        }
        let mut counts = vec![0usize; m.cols()];
        for (k, g) in m.bitmap().iter_ones() {
            counts[g] += usize::from(stream_or[k]);
        }
        // Each group's first slot as (fold, offset).
        let mut slot = Vec::with_capacity(counts.len());
        let mut next = 0usize;
        for &count in &counts {
            slot.push((next / total_pes, next % total_pes));
            next += count;
        }
        let empty = MappedElement { group: 0, contraction: 0, value: 0.0 };
        let mut start = 0;
        while start < next {
            let len = total_pes.min(next - start);
            folds.push(vec![empty; len]);
            start += len;
        }
        for (contraction, group, value) in m.iter() {
            if stream_or[contraction] {
                let (f, o) = &mut slot[group];
                folds[*f][*o] = MappedElement { group, contraction, value };
                *o += 1;
                if *o == total_pes {
                    *f += 1;
                    *o = 0;
                }
            }
        }
        folds
    }

    /// Builds contraction-major folds: greedily grow a contiguous
    /// contraction range until its element count would exceed the array,
    /// then emit the fold with its elements ordered by (group, k) so FAN
    /// clusters stay contiguous. A single contraction column larger than
    /// the array is split across folds.
    fn contraction_major_folds(
        mapped: Vec<MappedElement>,
        total_pes: usize,
    ) -> Vec<Vec<MappedElement>> {
        // Bucket by contraction index (mapped arrives (group, k)-sorted).
        let mut by_k: std::collections::BTreeMap<usize, Vec<MappedElement>> =
            std::collections::BTreeMap::new();
        for e in mapped {
            by_k.entry(e.contraction).or_default().push(e);
        }
        let mut folds: Vec<Vec<MappedElement>> = Vec::new();
        let mut current: Vec<MappedElement> = Vec::new();
        for (_, column) in by_k {
            let mut column = column;
            // Oversized columns split across folds on their own.
            while current.len() + column.len() > total_pes {
                let room = total_pes - current.len();
                let rest = column.split_off(room.min(column.len()));
                current.extend(column);
                current.sort_by_key(|e| (e.group, e.contraction));
                folds.push(std::mem::take(&mut current));
                column = rest;
            }
            current.extend(column);
        }
        if !current.is_empty() {
            current.sort_by_key(|e| (e.group, e.contraction));
            folds.push(current);
        }
        folds
    }

    /// Step v's output bitmap: output `(group, step)` is set when some
    /// non-zero stationary element of `group` meets a non-zero streaming
    /// element at `step`.
    #[must_use]
    pub fn output_bitmap(&self, streaming: &Bitmap, groups: usize) -> Bitmap {
        let steps = streaming.cols();
        let mut out = Bitmap::new(groups, steps);
        for fold in &self.folds {
            for e in &fold.elements {
                for s in 0..steps {
                    if streaming.get(e.contraction, s) {
                        out.set(e.group, s, true);
                    }
                }
            }
        }
        out
    }

    /// Step v's SRC–DEST table for one fold, one Flex-DPE and one
    /// streaming step: pairs of (streaming counter, multiplier counter).
    ///
    /// The streaming counter is the rank of the non-zero within the
    /// streamed vector (it resets each step); the multiplier counter is
    /// the PE's index within its Flex-DPE (it resets at `dpe_size`,
    /// Fig. 5 Step v).
    #[must_use]
    pub fn src_dest_table(
        &self,
        fold_idx: usize,
        dpe: usize,
        dpe_size: usize,
        streaming: &Bitmap,
        step: usize,
    ) -> Vec<(u32, u32)> {
        let fold = &self.folds[fold_idx];
        // Streaming counters: rank of each set bit in column `step`.
        let mut src_counter = vec![None; streaming.rows()];
        let mut rank = 0u32;
        for (k, slot) in src_counter.iter_mut().enumerate() {
            if streaming.get(k, step) {
                *slot = Some(rank);
                rank += 1;
            }
        }
        let lo = dpe * dpe_size;
        let hi = (lo + dpe_size).min(fold.elements.len());
        let mut table = Vec::new();
        if lo >= fold.elements.len() {
            return table;
        }
        for (slot, e) in fold.elements[lo..hi].iter().enumerate() {
            if let Some(src) = src_counter[e.contraction] {
                #[allow(clippy::cast_possible_truncation)]
                table.push((src, slot as u32));
            }
        }
        table
    }

    /// Naive Benes routing bits for a SRC–DEST table entry (Step vi):
    /// the signed offset `dest − src` the walkthrough example uses.
    #[must_use]
    pub fn routing_offset(src: u32, dest: u32) -> i64 {
        i64::from(dest) - i64::from(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_matrix::Matrix;

    /// The Fig. 5-style toy operands: MK stationary (4x4), KN streaming (4x3).
    fn toy() -> (SparseMatrix, Bitmap) {
        let stat = SparseMatrix::from_dense(&Matrix::from_rows(&[
            &[1.0, 0.0, 2.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0],
            &[3.0, 4.0, 0.0, 5.0],
            &[0.0, 0.0, 6.0, 0.0],
        ]));
        // Streaming occupancy (only the metadata matters here):
        //   k0: steps {0, 2}, k1: step {1}, k2: steps {0, 1},
        //   k3: never streams — REGOR filters it.
        let mut streaming = Bitmap::new(4, 3);
        for (k, step) in [(0, 0), (0, 2), (1, 1), (2, 0), (2, 1)] {
            streaming.set(k, step, true);
        }
        (stat, streaming)
    }

    #[test]
    fn regor_filters_useless_stationary() {
        let (stat, stream) = toy();
        let plan = ControllerPlan::build(&stat, &stream, 16);
        assert_eq!(plan.stream_or, vec![true, true, true, false]);
        // Element (2, 3) = 5.0 is dropped: k=3 has no streaming partner.
        assert_eq!(plan.dropped_stationary, 1);
        assert_eq!(plan.stationary_prime_nnz, 5);
    }

    #[test]
    fn clusters_follow_groups() {
        let (stat, stream) = toy();
        let plan = ControllerPlan::build(&stat, &stream, 16);
        assert_eq!(plan.folds.len(), 1);
        let fold = &plan.folds[0];
        assert_eq!(fold.occupied(), 5);
        // Groups 0, 2, 3 survive; group 1 is empty.
        assert_eq!(fold.cluster_groups, vec![0, 2, 3]);
        assert_eq!(&fold.vec_ids[..5], &[Some(0), Some(0), Some(1), Some(1), Some(2)]);
        assert_eq!(fold.vec_ids[5], None);
        assert_eq!(fold.distinct_contractions, vec![0, 1, 2]);
    }

    #[test]
    fn folding_splits_at_pe_capacity() {
        let (stat, stream) = toy();
        let plan = ControllerPlan::build(&stat, &stream, 2);
        assert_eq!(plan.folds.len(), 3); // 5 elements on 2 PEs
        assert_eq!(plan.folds[0].occupied(), 2);
        assert_eq!(plan.folds[2].occupied(), 1);
        // A group split across folds appears in both folds' clusters.
        assert_eq!(plan.folds[1].cluster_groups, vec![2]);
    }

    #[test]
    fn output_bitmap_marks_nonzero_outputs() {
        let (stat, stream) = toy();
        let plan = ControllerPlan::build(&stat, &stream, 16);
        let out = plan.output_bitmap(&stream, 4);
        // Group 0 holds k={0,2}: steps 0 (k0,k2), 1 (k2), 2 (k0) are set.
        assert!(out.get(0, 0) && out.get(0, 1) && out.get(0, 2));
        // Group 1 is empty.
        assert!(!out.get(1, 0) && !out.get(1, 1) && !out.get(1, 2));
        // Group 3 holds k=2: steps 0 and 1.
        assert!(out.get(3, 0) && out.get(3, 1) && !out.get(3, 2));
    }

    #[test]
    fn src_dest_tables_pair_counters() {
        let (stat, stream) = toy();
        let plan = ControllerPlan::build(&stat, &stream, 4);
        // Fold 0 on one 4-wide DPE: elements (0,k0) (0,k2) (2,k0) (2,k1).
        // Step 0 streams k0 (rank 0) and k2 (rank 1).
        let t = plan.src_dest_table(0, 0, 4, &stream, 0);
        assert_eq!(t, vec![(0, 0), (1, 1), (0, 2)]);
        // Step 1 streams k1 (rank 0) and k2 (rank 1).
        let t1 = plan.src_dest_table(0, 0, 4, &stream, 1);
        assert_eq!(t1, vec![(1, 1), (0, 3)]);
        // Out-of-range DPE yields an empty table.
        assert!(plan.src_dest_table(0, 1, 4, &stream, 0).is_empty());
    }

    #[test]
    fn routing_offsets() {
        assert_eq!(ControllerPlan::routing_offset(0, 3), 3);
        assert_eq!(ControllerPlan::routing_offset(3, 0), -3);
    }

    #[test]
    fn fully_dense_maps_everything() {
        let stat = SparseMatrix::from_dense(&Matrix::from_fn(3, 3, |_, _| 1.0));
        let stream = Bitmap::new(3, 2);
        let mut stream = stream;
        for k in 0..3 {
            stream.set(k, 0, true);
        }
        let plan = ControllerPlan::build(&stat, &stream, 16);
        assert_eq!(plan.stationary_prime_nnz, 9);
        assert_eq!(plan.dropped_stationary, 0);
    }

    #[test]
    fn all_zero_streaming_drops_all() {
        let stat = SparseMatrix::from_dense(&Matrix::from_fn(3, 3, |_, _| 1.0));
        let stream = Bitmap::new(3, 2);
        let plan = ControllerPlan::build(&stat, &stream, 16);
        assert_eq!(plan.stationary_prime_nnz, 0);
        assert_eq!(plan.dropped_stationary, 9);
        assert!(plan.folds.is_empty());
    }

    #[test]
    fn contraction_major_limits_sends_per_fold() {
        // 16 groups x 8 contractions, dense, on 32 PEs: group-major folds
        // span 4 full rows (8 distinct k each); contraction-major folds
        // span 2 k-columns across all 16 groups (2 distinct k each).
        let stat = SparseMatrix::from_dense(&Matrix::from_fn(16, 8, |_, _| 1.0));
        let mut stream = Bitmap::new(8, 3);
        for kk in 0..8 {
            stream.set(kk, 0, true);
        }
        let gm = ControllerPlan::build_with_order(&stat, &stream, 32, PackingOrder::GroupMajor);
        let cm =
            ControllerPlan::build_with_order(&stat, &stream, 32, PackingOrder::ContractionMajor);
        assert_eq!(gm.folds.len(), 4);
        assert_eq!(cm.folds.len(), 4);
        assert_eq!(gm.folds[0].distinct_contractions.len(), 8);
        assert_eq!(cm.folds[0].distinct_contractions.len(), 2);
        // Same total work either way.
        let total = |p: &ControllerPlan| -> usize { p.folds.iter().map(Fold::occupied).sum() };
        assert_eq!(total(&gm), total(&cm));
    }

    #[test]
    fn contraction_major_keeps_clusters_contiguous() {
        let stat = SparseMatrix::from_dense(&Matrix::from_fn(6, 7, |g, k| {
            if (g + k) % 3 == 0 {
                1.0
            } else {
                0.0
            }
        }));
        let mut stream = Bitmap::new(7, 2);
        for kk in 0..7 {
            stream.set(kk, 0, true);
        }
        let cm =
            ControllerPlan::build_with_order(&stat, &stream, 8, PackingOrder::ContractionMajor);
        for fold in &cm.folds {
            // Contiguity: every vecID forms a single run.
            let mut seen = std::collections::HashSet::new();
            let mut prev = None;
            for id in fold.vec_ids.iter().flatten() {
                if prev != Some(*id) {
                    assert!(seen.insert(*id), "cluster {id} split in {fold:?}");
                }
                prev = Some(*id);
            }
            // Elements sorted by (group, k) within the fold.
            for w in fold.elements.windows(2) {
                assert!((w[0].group, w[0].contraction) <= (w[1].group, w[1].contraction));
            }
        }
    }

    #[test]
    fn oversized_contraction_column_splits() {
        // One k-column with more non-zeros than the array.
        let stat = SparseMatrix::from_dense(&Matrix::from_fn(10, 1, |_, _| 1.0));
        let mut stream = Bitmap::new(1, 1);
        stream.set(0, 0, true);
        let cm =
            ControllerPlan::build_with_order(&stat, &stream, 4, PackingOrder::ContractionMajor);
        assert_eq!(cm.folds.len(), 3);
        assert_eq!(cm.folds[0].occupied(), 4);
        assert_eq!(cm.folds[2].occupied(), 2);
    }

    #[test]
    fn distinct_contractions_equal_sort_and_dedup() {
        use sigma_matrix::gen::{sparse_uniform, Density};
        // Random plans in both packing orders, with contraction dims that
        // straddle the 64-bit words of the set, some folds split one
        // column and some span many.
        let mut folds = 0;
        for seed in 0..24u64 {
            let groups = 1 + (seed as usize * 7) % 23;
            let k = [1, 63, 64, 65, 130, 300][seed as usize % 6];
            let density = Density::new(0.05 + 0.1 * (seed % 9) as f64).unwrap();
            let stat = sparse_uniform(groups, k, density, seed);
            let stream = sparse_uniform(k, 3, Density::new(0.7).unwrap(), seed ^ 0xFACE);
            for pes in [4, 16, 128] {
                for order in [PackingOrder::GroupMajor, PackingOrder::ContractionMajor] {
                    let plan = ControllerPlan::build_with_order(&stat, stream.bitmap(), pes, order);
                    for fold in &plan.folds {
                        let mut expect: Vec<usize> =
                            fold.elements.iter().map(|e| e.contraction).collect();
                        expect.sort_unstable();
                        expect.dedup();
                        assert_eq!(fold.distinct_contractions, expect, "seed {seed} {order:?}");
                        folds += 1;
                    }
                }
            }
        }
        assert!(folds > 500, "only {folds} folds checked");
    }

    #[test]
    fn transposed_operands_plan_like_their_transposed_copies() {
        use sigma_matrix::gen::{sparse_uniform, Density};
        // Stationary stored K x G and streaming stored S x K, with
        // contraction dims that straddle word edges, folds that split
        // groups, and groups or contractions left empty by REGOR.
        let mut plans = 0;
        for seed in 0..18u64 {
            let groups = 1 + (seed as usize * 5) % 19;
            let k = [1, 63, 64, 65, 130, 7][seed as usize % 6];
            let steps = 1 + (seed as usize * 3) % 11;
            let density = |i: u64| Density::new(0.05 + 0.12 * ((seed + i) % 8) as f64).unwrap();
            let stat_kg = sparse_uniform(k, groups, density(0), seed);
            let stream_sk = sparse_uniform(steps, k, density(3), seed ^ 0xBEEF);
            let stat_gk = stat_kg.transposed();
            let stream_ks = stream_sk.bitmap().transposed();
            for pes in [4, 16, 128] {
                for order in [PackingOrder::GroupMajor, PackingOrder::ContractionMajor] {
                    let want = ControllerPlan::build_with_order(&stat_gk, &stream_ks, pes, order);
                    for (stationary, stream, by_step) in [
                        (Operand::new(&stat_kg).t(), stream_sk.bitmap(), true),
                        (Operand::new(&stat_kg).t(), &stream_ks, false),
                        (Operand::new(&stat_gk), stream_sk.bitmap(), true),
                    ] {
                        let got =
                            ControllerPlan::build_oriented(stationary, stream, by_step, pes, order);
                        assert_eq!(got, want, "seed {seed} pes {pes} {order:?} {by_step}");
                        plans += 1;
                    }
                }
            }
        }
        assert_eq!(plans, 18 * 3 * 2 * 3);
    }

    #[test]
    #[should_panic(expected = "must equal streaming K")]
    fn dimension_mismatch_panics() {
        let stat = SparseMatrix::from_dense(&Matrix::zeros(2, 3));
        let stream = Bitmap::new(4, 2);
        let _ = ControllerPlan::build(&stat, &stream, 4);
    }
}
