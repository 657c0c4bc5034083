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
//! `K × S` with one streamed vector per step. The engine maps either
//! GEMM dataflow onto this orientation (weight-stationary transposes the
//! `KN` operand; input-stationary uses `MK` directly).

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
        assert_eq!(
            stationary.cols(),
            streaming.rows(),
            "stationary K ({}) must equal streaming K ({})",
            stationary.cols(),
            streaming.rows()
        );
        assert!(total_pes > 0, "total_pes must be non-zero");

        // Step ii: REGOR + stationary' filter.
        let stream_or = streaming.rows_or();
        let mut mapped = Vec::new();
        let mut dropped = 0u64;
        for (g, k, v) in stationary.iter() {
            if stream_or[k] {
                mapped.push(MappedElement { group: g, contraction: k, value: v });
            } else {
                dropped += 1;
            }
        }
        let nnz = mapped.len() as u64;

        // Steps iii-v: cut into folds, assign clusters.
        let chunks: Vec<Vec<MappedElement>> = match order {
            PackingOrder::GroupMajor => {
                mapped.chunks(total_pes).map(<[MappedElement]>::to_vec).collect()
            }
            PackingOrder::ContractionMajor => Self::contraction_major_folds(mapped, total_pes),
        };
        let mut folds = Vec::new();
        for chunk in chunks {
            let mut vec_ids = vec![None; total_pes];
            let mut cluster_groups = Vec::new();
            let mut contractions = Vec::new();
            for (i, e) in chunk.iter().enumerate() {
                let new_cluster = cluster_groups.last() != Some(&e.group);
                if new_cluster {
                    cluster_groups.push(e.group);
                }
                #[allow(clippy::cast_possible_truncation)]
                let cid = (cluster_groups.len() - 1) as u32;
                vec_ids[i] = Some(cid);
                contractions.push(e.contraction);
            }
            contractions.sort_unstable();
            contractions.dedup();
            folds.push(Fold {
                elements: chunk,
                vec_ids,
                cluster_groups,
                distinct_contractions: contractions,
            });
        }

        ControllerPlan { stream_or, stationary_prime_nnz: nnz, dropped_stationary: dropped, folds }
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
    pub fn output_bitmap(
        &self,
        stationary: &SparseMatrix,
        streaming: &Bitmap,
        groups: usize,
    ) -> Bitmap {
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
        let _ = stationary; // shape context only; elements already filtered
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
        let out = plan.output_bitmap(&stat, &stream, 4);
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
    #[should_panic(expected = "must equal streaming K")]
    fn dimension_mismatch_panics() {
        let stat = SparseMatrix::from_dense(&Matrix::zeros(2, 3));
        let stream = Bitmap::new(4, 2);
        let _ = ControllerPlan::build(&stat, &stream, 4);
    }
}
