//! FAN — the Forwarding Adder Network (Sec. IV-A-2, Fig. 6 of the paper).
//!
//! FAN is SIGMA's novel reduction topology: a binary adder tree laid out
//! *in order* (adder `i` sits between multiplier outputs `i` and `i+1`)
//! and augmented with forwarding links between adder levels, so that
//! several *variable-sized, non-power-of-two* dot products can reduce
//! concurrently and correctly — something a plain binary adder tree cannot
//! do (partials of different dot products would collide on the way up).
//!
//! ## Topology
//!
//! For `N` multipliers there are `N − 1` adders, `adderID ∈ 0..N-1`. The
//! level of adder `i` is the number of trailing ones of `i`
//! ([`Fan::adder_level`]): even adders are level 0 and combine adjacent
//! multiplier pairs; adder `4k+1` is level 1; the single top adder
//! `N/2 − 1` is level `log₂N − 1`. Each adder at level `L` additionally
//! owns forwarding links to adders `i ± 2^(l−1)` for every `l ∈ 1..=L`
//! (the paper's pseudocode) — these, plus an N-to-2 mux in front of each
//! adder from level 2 upward, let partial sums *bypass* adders belonging
//! to other dot products.
//!
//! ## Routing (Fig. 6c)
//!
//! Every multiplier output carries a `vecID` naming the dot product
//! (cluster) it belongs to; clusters occupy contiguous multiplier ranges.
//! Adder `i` accumulates iff `vecID[i] == vecID[i+1]`; a level-0 adder
//! with unequal vecIDs bypasses both values upward. A segment spanning
//! leaves `a..=b` therefore performs its adds at exactly the adders
//! `a..b`, and completes one cycle after its highest-level adder fires:
//! `completion = max(level(i) for i in a..b) + 1` cycles. The wave
//! pipeline advances one adder level per cycle, so the full-array latency
//! is `log₂N` cycles and a new reduction wave can be issued every cycle.
//!
//! [`Fan::reduce`] executes this faithfully on real `f32` data — same add
//! order, same adder activations, same per-segment completion times.
//!
//! ## Add order: the ruler tree
//!
//! Adder levels follow the ruler sequence `trailing_ones(i)`. Between two
//! adders of the same level `L` there is always one of a higher level, so
//! every leaf range `s..=e` has a *unique* highest-level adder `h`
//! ([`top_adder`]). All other adders of the range sit strictly below it,
//! and the network fires one level per cycle, so `h` fires last: it joins
//! the fully reduced halves `s..=h` and `h+1..=e`. Applied recursively,
//! a cluster's sum is exactly `reduce(s..=h) + reduce(h+1..=e)`, down to
//! single leaves. The walk ([`ruler_reduce`]) fires the cluster's adders
//! level by level, as the hardware schedule does, in place: a partial
//! sum lives at its interval's leftmost leaf, and a level-`L` adder `h`
//! adds the partial at `h + 1` into the one at `max(s, h + 1 − 2^L)`.
//! It needs no working state beyond the leaves. The cluster completes
//! one cycle after `h` fires, at `level(h) + 1`.
//!
//! ## One pass per chunk
//!
//! In the hardware every adder of a level fires in the same cycle for
//! all clusters of a wave, and [`Fan::reduce_chunk`] adds values the same
//! way: once per wave, not once per cluster. An aligned block of `2^k`
//! leaves (its first leaf a multiple of `2^k`) is a FAN subtree, and its
//! top adder is the one between its halves. No adder outside the block
//! splits it, so a cluster that contains the block reduces it exactly as
//! the subtree does. The pass therefore sums every aligned subtree of the
//! chunk once, level by level, and then builds each cluster `s..=e` from
//! O(log N) subtree sums in the ruler association. The half `s..=h` is a
//! left fold of aligned blocks of growing size, the half `h+1..=e` a
//! right fold of blocks of shrinking size, and adder `h` joins the two.
//! [`Fan::reduce_into`] and the engine's No-Local-Reuse waves both reduce
//! through it. [`FanProgram`](crate::FanProgram) walks the ruler tree
//! ([`ruler_reduce`]) once per layout to record the add schedule, and its
//! replay corrupts stuck adders the same way.

use crate::fault::AdderFault;
use crate::{is_power_of_two, log2_ceil};
use std::error::Error;
use std::fmt;

/// Errors from FAN construction and reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FanError {
    /// The network size is not a power of two (or is < 2).
    NotPowerOfTwo(usize),
    /// Input slices do not match the network size.
    SizeMismatch {
        /// Network size.
        expected: usize,
        /// Slice length provided.
        actual: usize,
    },
    /// A `vecID` appeared in two non-adjacent runs: clusters must occupy
    /// contiguous multiplier ranges.
    NonContiguousSegments(u32),
}

impl fmt::Display for FanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FanError::NotPowerOfTwo(n) => {
                write!(f, "fan size must be a power of two >= 2, got {n}")
            }
            FanError::SizeMismatch { expected, actual } => {
                write!(f, "input length {actual} does not match fan size {expected}")
            }
            FanError::NonContiguousSegments(id) => {
                write!(f, "vecID {id} occupies non-contiguous multiplier ranges")
            }
        }
    }
}

impl Error for FanError {}

/// One completed dot-product sum emerging from the FAN.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentSum {
    /// The cluster (dot product) identifier.
    pub vec_id: u32,
    /// The reduced value.
    pub value: f32,
    /// Inclusive range of multiplier (leaf) indices the cluster occupied.
    pub leaf_range: (usize, usize),
    /// Cycles after wave issue at which this sum is available. A
    /// single-multiplier cluster bypasses every adder (0 cycles); a
    /// cluster whose highest enabled adder is at level `L` completes at
    /// `L + 1`. 64-bit like every other cycle counter, so downstream
    /// accumulation never narrows.
    pub completion_cycles: u64,
}

/// Result of pushing one wave of multiplier outputs through the FAN.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FanReduction {
    /// One sum per cluster, in left-to-right leaf order.
    pub sums: Vec<SegmentSum>,
    /// Number of floating-point additions performed (adder activations).
    pub adds_performed: usize,
    /// Completion time of the slowest cluster in this wave, in cycles.
    pub critical_cycles: u64,
}

/// Reusable working state for [`Fan::reduce_into`] and
/// [`Fan::reduce_chunk`].
///
/// Holds the contiguity check's run list and the wave's subtree sums,
/// overwritten (not dropped) between waves, so a warmed scratch makes
/// the reduction allocation-free in steady state.
#[derive(Debug, Clone, Default)]
pub struct FanScratch {
    /// One vecID per run, sorted for the contiguity check; a Vec (not a
    /// hash set) keeps the hot loop allocation-free after warmup and
    /// independent of per-process hasher state.
    seen: Vec<u32>,
    /// The sums of the wave's aligned subtrees, level by level: level
    /// `k` (blocks of `2^k` leaves) starts at `2N − (2N >> k)`, so level
    /// 0 is the leaves themselves.
    subtrees: Vec<f32>,
}

/// The highest-level adder among `s..e`, the adders joining leaves
/// `s..=e` (`s < e`). It is unique, and it fires last.
///
/// Adder `a` has level `trailing_zeros(a + 1)`, so this is the number in
/// `s+1..=e` with the most trailing zeros, minus one: `e` with every bit
/// below the highest bit where `s` and `e` differ cleared.
#[inline]
#[must_use]
pub(crate) fn top_adder(s: usize, e: usize) -> usize {
    debug_assert!(s < e);
    let b = (s ^ e).ilog2();
    (e & !((1usize << b) - 1)) - 1
}

/// Completion cycle of a cluster on leaves `s..=e`: 0 for a singleton
/// (pure bypass), else one cycle after its top adder fires.
#[inline]
pub(crate) fn completion_cycles(s: usize, e: usize) -> u64 {
    if s == e {
        0
    } else {
        u64::from(top_adder(s, e).trailing_ones()) + 1
    }
}

/// Walks the ruler tree of the cluster on leaves `s..=e` (see the module
/// docs) level by level: `join(a, h)` fires adder `h`, adding the reduced
/// partial held at leaf `h + 1` into the one held at leaf `a`, the
/// leftmost leaf of the left half. Every add comes after the adds that
/// reduce both of its operands, so performing the adds in call order
/// ends with the cluster's sum at leaf `s`.
pub(crate) fn ruler_reduce(s: usize, e: usize, mut join: impl FnMut(usize, usize)) {
    if s == e {
        return;
    }
    for level in 0..=top_adder(s, e).trailing_ones() {
        // Level-`L` adders sit at `2^L − 1` modulo `2^(L+1)`.
        let half = 1usize << level;
        let mut h = (s & !(2 * half - 1)) + half - 1;
        if h < s {
            h += 2 * half;
        }
        while h < e {
            join(s.max(h + 1 - half), h);
            h += 2 * half;
        }
    }
}

/// Calls `cluster(vec_id, s, e)` for every maximal run `s..=e` of one
/// vecID, left to right, then checks that no vecID formed two runs
/// (the smallest such id is reported). `seen` is working storage.
pub(crate) fn for_each_cluster(
    vec_ids: &[Option<u32>],
    seen: &mut Vec<u32>,
    mut cluster: impl FnMut(u32, usize, usize),
) -> Result<(), FanError> {
    seen.clear();
    let mut s = 0;
    while s < vec_ids.len() {
        let Some(id) = vec_ids[s] else {
            s += 1;
            continue;
        };
        let mut e = s;
        while vec_ids.get(e + 1) == Some(&Some(id)) {
            e += 1;
        }
        seen.push(id);
        cluster(id, s, e);
        s = e + 1;
    }
    seen.sort_unstable();
    match seen.windows(2).find(|w| w[0] == w[1]) {
        Some(dup) => Err(FanError::NonContiguousSegments(dup[0])),
        None => Ok(()),
    }
}

/// A Forwarding Adder Network over `N` multiplier outputs.
///
/// ```
/// use sigma_interconnect::Fan;
/// let fan = Fan::new(8)?;
/// // Three clusters: |a a a|b b|c c c| — sizes 3, 2, 3.
/// let values = [1.0, 2.0, 3.0, 10.0, 20.0, 100.0, 200.0, 300.0];
/// let ids = [0, 0, 0, 1, 1, 2, 2, 2].map(Some);
/// let red = fan.reduce(&values, &ids)?;
/// assert_eq!(red.sums.len(), 3);
/// assert_eq!(red.sums[0].value, 6.0);
/// assert_eq!(red.sums[1].value, 30.0);
/// assert_eq!(red.sums[2].value, 600.0);
/// assert_eq!(red.adds_performed, 5); // (3-1) + (2-1) + (3-1)
/// # Ok::<(), sigma_interconnect::FanError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fan {
    size: usize,
}

impl Fan {
    /// Creates a FAN over `size` multiplier outputs.
    ///
    /// # Errors
    ///
    /// Returns [`FanError::NotPowerOfTwo`] unless `size` is a power of two
    /// and at least 2.
    pub fn new(size: usize) -> Result<Self, FanError> {
        if !is_power_of_two(size) || size < 2 {
            return Err(FanError::NotPowerOfTwo(size));
        }
        Ok(Self { size })
    }

    /// Creates a FAN, rounding `size` up to the next power of two
    /// (minimum 2) instead of failing. For static tables whose shapes
    /// are known-good by construction; prefer [`Fan::new`] when invalid
    /// input should be reported.
    #[must_use]
    pub fn new_clamped(size: usize) -> Self {
        Self { size: size.max(2).next_power_of_two() }
    }

    /// Number of multiplier (leaf) inputs.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of adders: `N − 1`.
    #[must_use]
    pub fn adder_count(&self) -> usize {
        self.size - 1
    }

    /// Number of adder levels: `log₂N`.
    #[must_use]
    pub fn level_count(&self) -> u32 {
        log2_ceil(self.size)
    }

    /// Pipeline latency of a full-width reduction wave: `log₂N` cycles.
    #[must_use]
    pub fn latency_cycles(&self) -> u64 {
        u64::from(self.level_count())
    }

    /// The level of adder `id`: the number of trailing ones in its binary
    /// representation (adder `i` sits between leaves `i` and `i+1`).
    ///
    /// # Panics
    ///
    /// Panics if `id >= adder_count()`.
    #[inline]
    #[must_use]
    pub fn adder_level(&self, id: usize) -> u32 {
        assert!(id < self.adder_count(), "adder id {id} out of range");
        (id as u64).trailing_ones()
    }

    /// Total directed forwarding links in the topology, per the paper's
    /// pseudocode: adder `i` at level `L` links to `i ± 2^(l−1)` for
    /// `l ∈ 1..=L`, clipped to existing adders. Level-`L` links are the
    /// natural binary-tree child links; the rest are FAN's additions.
    #[must_use]
    pub fn forwarding_link_count(&self) -> usize {
        let n_adders = self.adder_count();
        let mut links = 0usize;
        for i in 0..n_adders {
            let level = self.adder_level(i);
            for lvl in 1..=level {
                let off = 1usize << (lvl - 1);
                if i >= off {
                    links += 1;
                }
                if i + off < n_adders {
                    links += 1;
                }
            }
        }
        links
    }

    /// Count of the 2-input muxes in front of adders from level 2 upward
    /// (the "N-to-2 mux" cost of Fig. 6's overhead discussion).
    #[must_use]
    pub fn mux_count(&self) -> usize {
        (0..self.adder_count()).filter(|&i| self.adder_level(i) >= 2).count() * 2
    }

    /// Pushes one wave of multiplier outputs through the network.
    ///
    /// `values[i]` is multiplier `i`'s product; `vec_ids[i]` names the
    /// cluster it belongs to, or `None` for an idle multiplier. Clusters
    /// must occupy contiguous leaf ranges (SIGMA's controller always maps
    /// them that way).
    ///
    /// The returned [`FanReduction`] contains each cluster's sum, computed
    /// with the hardware's exact association order (adders fire level by
    /// level), plus activation and timing counts.
    ///
    /// # Errors
    ///
    /// * [`FanError::SizeMismatch`] if slice lengths differ from `size`.
    /// * [`FanError::NonContiguousSegments`] if a `vecID` appears in two
    ///   separate runs.
    pub fn reduce(
        &self,
        values: &[f32],
        vec_ids: &[Option<u32>],
    ) -> Result<FanReduction, FanError> {
        self.reduce_with_faults(values, vec_ids, &[])
    }

    /// [`Fan::reduce`] with persistent stuck-at defects on selected
    /// adders: every activation of a faulted adder has the corresponding
    /// output bit latched (see [`crate::fault::AdderFault`]). An empty
    /// `faults` slice is byte-identical to [`Fan::reduce`]; adders whose
    /// ids never activate (because no cluster spans them) corrupt
    /// nothing.
    ///
    /// # Errors
    ///
    /// Same as [`Fan::reduce`].
    pub fn reduce_with_faults(
        &self,
        values: &[f32],
        vec_ids: &[Option<u32>],
        faults: &[AdderFault],
    ) -> Result<FanReduction, FanError> {
        let mut scratch = FanScratch::default();
        let mut out = FanReduction::default();
        self.reduce_into(values, vec_ids, faults, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Reduces the clusters of one wave of up to `size` leaves in one
    /// pass (see the module docs): every aligned subtree of `leaves` is
    /// summed once, then each cluster is built from O(log N) subtree
    /// sums in the hardware's association order. `clusters` yields each
    /// cluster's inclusive leaf range `s..=e` with a caller's tag, left
    /// to right and disjoint; idle leaves between clusters are allowed.
    /// `sum(tag, value, completion_cycles)` receives each cluster's sum
    /// in the same order: a singleton bypasses every adder (0 cycles),
    /// a wider cluster completes one cycle after its top adder fires.
    ///
    /// Every add fires one adder, and each fault in `faults` on that
    /// adder corrupts the sum right after the add, in slice order: a
    /// subtree's add at its top adder, a fold's add at the adder between
    /// its two blocks, the final add at the cluster's top adder. An
    /// empty slice takes a path that never consults the list.
    ///
    /// # Panics
    ///
    /// Debug-asserts `leaves.len() <= size` and that every cluster lies
    /// within `leaves`.
    pub fn reduce_chunk<T>(
        &self,
        leaves: &[f32],
        clusters: impl IntoIterator<Item = (usize, usize, T)>,
        faults: &[AdderFault],
        scratch: &mut FanScratch,
        sum: impl FnMut(T, f32, u64),
    ) {
        let subtrees = &mut scratch.subtrees;
        if faults.is_empty() {
            self.chunk_pass(leaves, clusters, subtrees, sum, |x, y, _| x + y);
        } else {
            self.chunk_pass(leaves, clusters, subtrees, sum, |x, y, adder| {
                let mut sum = x + y;
                for fault in faults.iter().filter(|f| f.adder == adder) {
                    sum = fault.corrupt(sum);
                }
                sum
            });
        }
    }

    /// [`Fan::reduce_chunk`]'s pass, where `join(x, y, adder)` is the add
    /// `x + y` fired at `adder`.
    #[inline]
    fn chunk_pass<T>(
        &self,
        leaves: &[f32],
        clusters: impl IntoIterator<Item = (usize, usize, T)>,
        subtrees: &mut Vec<f32>,
        mut sum: impl FnMut(T, f32, u64),
        join: impl Fn(f32, f32, usize) -> f32,
    ) {
        let n = leaves.len();
        debug_assert!(n <= self.size, "{n} leaves on a {} fan", self.size);
        let level_start = |k: u32| 2 * self.size - ((2 * self.size) >> k);
        subtrees.resize(2 * self.size, 0.0);
        subtrees[..n].copy_from_slice(leaves);
        // Level `k` from level `k − 1`: only the blocks that fit in `n`
        // leaves, each added at its top adder, between its halves.
        for k in 1..=self.level_count() {
            let half = 1usize << (k - 1);
            let (below, level) = subtrees.split_at_mut(level_start(k));
            let pairs = below[level_start(k - 1)..].chunks_exact(2);
            for (i, (node, pair)) in level[..n >> k].iter_mut().zip(pairs).enumerate() {
                *node = join(pair[0], pair[1], (2 * i + 1) * half - 1);
            }
        }
        let block = |p: usize, k: u32| subtrees[level_start(k) + (p >> k)];
        for (s, e, tag) in clusters {
            debug_assert!(s <= e && e < n, "cluster {s}..={e} outside {n} leaves");
            if s == e {
                sum(tag, leaves[s], 0);
                continue;
            }
            let h = top_adder(s, e);
            let top = h.trailing_ones();
            // `s..=h` ends on a multiple of `2^top` and spans at most
            // `2^top` leaves: blocks of growing size, each added on the
            // right of the partial at the adder just left of it.
            let k = s.trailing_zeros().min(top);
            let mut left = block(s, k);
            let mut p = s + (1 << k);
            while p <= h {
                let k = p.trailing_zeros();
                left = join(left, block(p, k), p - 1);
                p += 1 << k;
            }
            // `h+1..=e` starts on a multiple of `2^top`: one block per set
            // bit of its length, largest first, reduced from the right,
            // each added at the adder just right of it.
            let (mut q, mut rest) = (e + 1, e - h);
            let k = rest.trailing_zeros();
            q -= 1 << k;
            let mut right = block(q, k);
            rest &= rest - 1;
            while rest != 0 {
                let k = rest.trailing_zeros();
                q -= 1 << k;
                right = join(block(q, k), right, q + (1 << k) - 1);
                rest &= rest - 1;
            }
            sum(tag, join(left, right, h), u64::from(top) + 1);
        }
    }

    /// Allocation-free [`Fan::reduce_with_faults`]: the wave's sums are
    /// written into `out` (cleared first) and all working state lives in
    /// `scratch`, so a warmed `(scratch, out)` pair performs zero heap
    /// allocations per wave. Produces byte-identical results to
    /// [`Fan::reduce`] / [`Fan::reduce_with_faults`] — same add order,
    /// same activation counts, same completion times.
    ///
    /// # Errors
    ///
    /// Same as [`Fan::reduce`]; on error `out` holds an empty reduction.
    pub fn reduce_into(
        &self,
        values: &[f32],
        vec_ids: &[Option<u32>],
        faults: &[AdderFault],
        scratch: &mut FanScratch,
        out: &mut FanReduction,
    ) -> Result<(), FanError> {
        out.sums.clear();
        out.adds_performed = 0;
        out.critical_cycles = 0;
        if values.len() != self.size {
            return Err(FanError::SizeMismatch { expected: self.size, actual: values.len() });
        }
        if vec_ids.len() != self.size {
            return Err(FanError::SizeMismatch { expected: self.size, actual: vec_ids.len() });
        }
        // The layout first, one entry per cluster, then one pass fills
        // in the sums.
        let mut adds = 0usize;
        let mut critical = 0u64;
        let walked = for_each_cluster(vec_ids, &mut scratch.seen, |vec_id, s, e| {
            let cycles = completion_cycles(s, e);
            adds += e - s;
            critical = critical.max(cycles);
            out.sums.push(SegmentSum {
                vec_id,
                value: 0.0,
                leaf_range: (s, e),
                completion_cycles: cycles,
            });
        });
        if let Err(e) = walked {
            out.sums.clear();
            return Err(e);
        }
        let clusters = out.sums.iter_mut().map(|c| (c.leaf_range.0, c.leaf_range.1, c));
        self.reduce_chunk(values, clusters, faults, scratch, |c, value, _| c.value = value);
        out.adds_performed = adds;
        out.critical_cycles = critical;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::StuckLevel;
    use crate::FanProgram;

    fn ids(spec: &[i64]) -> Vec<Option<u32>> {
        spec.iter().map(|&x| if x < 0 { None } else { Some(x as u32) }).collect()
    }

    /// The level-by-level interval merge the hardware schedule describes:
    /// at each level, every adder whose flanking intervals are adjacent
    /// and share a cluster fires, merging them. The bitwise oracle for
    /// [`Fan::reduce_into`] and [`FanProgram`].
    fn reduce_level_by_level(
        fan: &Fan,
        values: &[f32],
        vec_ids: &[Option<u32>],
        faults: &[AdderFault],
    ) -> Result<FanReduction, FanError> {
        let size = fan.size();
        let mut seen: Vec<u32> = Vec::new();
        let mut prev: Option<u32> = None;
        for id in vec_ids {
            if let Some(cur) = *id {
                if prev != Some(cur) {
                    seen.push(cur);
                }
            }
            prev = *id;
        }
        seen.sort_unstable();
        if let Some(dup) = seen.windows(2).find(|w| w[0] == w[1]) {
            return Err(FanError::NonContiguousSegments(dup[0]));
        }
        let mut intervals: Vec<(usize, usize, f32)> = Vec::new();
        let mut completion = vec![u64::MAX; size];
        for (i, id) in vec_ids.iter().enumerate() {
            if id.is_some() {
                intervals.push((i, i, values[i]));
                let left_same = i > 0 && vec_ids[i - 1] == *id;
                let right_same = i + 1 < size && vec_ids[i + 1] == *id;
                if !left_same && !right_same {
                    completion[i] = 0;
                }
            }
        }
        let mut adds = 0usize;
        for lvl in 0..fan.level_count() {
            let mut i = 0;
            while i + 1 < intervals.len() {
                let (s0, e0, v0) = intervals[i];
                let (s1, e1, v1) = intervals[i + 1];
                let same_cluster = e0 + 1 == s1 && vec_ids[e0] == vec_ids[s1];
                if same_cluster && fan.adder_level(e0) == lvl {
                    let mut sum = v0 + v1;
                    for fault in faults.iter().filter(|f| f.adder == e0) {
                        sum = fault.corrupt(sum);
                    }
                    intervals[i] = (s0, e1, sum);
                    intervals.remove(i + 1);
                    adds += 1;
                    let whole = (s0 == 0 || vec_ids[s0 - 1] != vec_ids[s0])
                        && (e1 + 1 == size || vec_ids[e1 + 1] != vec_ids[e1]);
                    if whole {
                        completion[s0] = u64::from(lvl) + 1;
                    }
                    continue;
                }
                i += 1;
            }
        }
        let sums: Vec<SegmentSum> = intervals
            .iter()
            .map(|&(s, e, value)| SegmentSum {
                vec_id: vec_ids[s].unwrap(),
                value,
                leaf_range: (s, e),
                completion_cycles: completion[s],
            })
            .collect();
        assert!(sums.iter().all(|s| s.completion_cycles != u64::MAX));
        let critical_cycles = sums.iter().map(|s| s.completion_cycles).max().unwrap_or(0);
        Ok(FanReduction { sums, adds_performed: adds, critical_cycles })
    }

    fn assert_reductions_bitwise_eq(got: &FanReduction, want: &FanReduction, ctx: &str) {
        assert_eq!(got.adds_performed, want.adds_performed, "{ctx}: adds");
        assert_eq!(got.critical_cycles, want.critical_cycles, "{ctx}: critical");
        assert_eq!(got.sums.len(), want.sums.len(), "{ctx}: cluster count");
        for (g, w) in got.sums.iter().zip(&want.sums) {
            assert_eq!(g.vec_id, w.vec_id, "{ctx}");
            assert_eq!(g.leaf_range, w.leaf_range, "{ctx}: vecID {}", w.vec_id);
            assert_eq!(g.completion_cycles, w.completion_cycles, "{ctx}: vecID {}", w.vec_id);
            assert_eq!(g.value.to_bits(), w.value.to_bits(), "{ctx}: vecID {}", w.vec_id);
        }
    }

    /// splitmix64: a seeded, dependency-free generator for the property
    /// test below.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A random layout of `size` leaves: runs of idle leaves, singletons
    /// and clusters up to the full width. With `straddle`, one cluster is
    /// forced across the top adder `size/2 - 1`.
    fn random_layout(size: usize, straddle: bool, rng: &mut u64) -> Vec<Option<u32>> {
        let mut layout = vec![None; size];
        let mut id = 0u32;
        let mut i = 0;
        while i < size {
            let r = next(rng);
            let len = match r % 4 {
                0 => 1,
                1 => 1 + (r >> 8) as usize % 4,
                2 => 1 + (r >> 8) as usize % size,
                _ => 1 + (r >> 8) as usize % 16,
            };
            let end = (i + len).min(size);
            if !(r >> 40).is_multiple_of(5) {
                layout[i..end].fill(Some(id));
                id += 1;
            }
            i = end;
        }
        if straddle {
            let mid = size / 2;
            let lo = mid - 1 - next(rng) as usize % mid;
            let hi = mid + next(rng) as usize % mid;
            layout[lo..=hi].fill(Some(id));
            // A run that covered all of `lo..=hi` would now resume past
            // `hi`; idle its tail to keep every cluster contiguous.
            if let Some(left) = lo.checked_sub(1).and_then(|l| layout[l]) {
                for v in &mut layout[hi + 1..] {
                    if *v == Some(left) {
                        *v = None;
                    }
                }
            }
        }
        layout
    }

    #[test]
    fn ruler_tree_matches_the_level_by_level_oracle() {
        let mut rng = 0x5eed_f00d_u64;
        let (mut active_faults, mut idle_faults) = (0usize, 0usize);
        let mut scratch = FanScratch::default();
        let mut out = FanReduction::default();
        let mut program = FanProgram::default();
        for log in 1..=8 {
            let size = 1usize << log;
            let fan = Fan::new(size).unwrap();
            for case in 0..96 {
                let ctx = format!("size {size} case {case}");
                let layout = random_layout(size, case % 3 == 0, &mut rng);
                let values: Vec<f32> = (0..size)
                    .map(|_| match next(&mut rng) % 8 {
                        0 => 0.0,
                        1 => -0.0,
                        r => {
                            (r as f32 - 4.5)
                                * f32::from_bits(next(&mut rng) as u32 >> 9 | 0x3f00_0000)
                        }
                    })
                    .collect();
                let clean = reduce_level_by_level(&fan, &values, &layout, &[]).unwrap();
                fan.reduce_into(&values, &layout, &[], &mut scratch, &mut out).unwrap();
                assert_reductions_bitwise_eq(&out, &clean, &ctx);

                program.compile(&fan, &layout).unwrap();
                let mut work = values.clone();
                program.execute_into(&mut work, &mut out);
                assert_reductions_bitwise_eq(&out, &clean, &format!("{ctx} (program)"));

                // Stuck adders, up to three, possibly repeated, on adders
                // that fire and on adders no cluster spans.
                let faults: Vec<AdderFault> = (0..1 + next(&mut rng) % 3)
                    .map(|_| AdderFault {
                        adder: next(&mut rng) as usize % fan.adder_count(),
                        bit: (next(&mut rng) % 32) as u32,
                        level: if next(&mut rng).is_multiple_of(2) {
                            StuckLevel::Zero
                        } else {
                            StuckLevel::One
                        },
                    })
                    .collect();
                for f in &faults {
                    if layout[f.adder].is_some() && layout[f.adder] == layout[f.adder + 1] {
                        active_faults += 1;
                    } else {
                        idle_faults += 1;
                    }
                }
                let faulted = reduce_level_by_level(&fan, &values, &layout, &faults).unwrap();
                fan.reduce_into(&values, &layout, &faults, &mut scratch, &mut out).unwrap();
                assert_reductions_bitwise_eq(&out, &faulted, &format!("{ctx} {faults:?}"));

                // The compiled replay's adder hook: one lane, same faults.
                let mut work = values.clone();
                program.execute_lanes(&mut work, 1, &faults);
                assert_eq!(program.output_count(), faulted.sums.len(), "{ctx}");
                for ((vec_id, slot), want) in program.outputs().zip(&faulted.sums) {
                    assert_eq!(vec_id, want.vec_id, "{ctx}");
                    let got = work[slot];
                    assert_eq!(got.to_bits(), want.value.to_bits(), "{ctx} (program) {faults:?}");
                }
            }
        }
        assert!(active_faults > 100 && idle_faults > 100, "{active_faults} / {idle_faults}");
    }

    /// The chunk pass against the level-by-level oracle, cluster by
    /// cluster: full and partial chunks, layouts with idle leaves and
    /// tilings of singletons and runs (as No-Local-Reuse waves are), one
    /// cluster in three forced across the midpoint, and up to three
    /// stuck adders drawn level first, so every level carries faults.
    /// Values and stuck bits stay finite: where two NaNs meet, the
    /// payload kept may depend on how the add was compiled.
    #[test]
    fn reduce_chunk_matches_the_level_by_level_oracle() {
        let mut rng = 0xc1a5_7e75_u64;
        let mut scratch = FanScratch::default();
        let (mut corrupted, mut partial, mut straddling) = (0usize, 0usize, 0usize);
        let mut active_levels = [0usize; 8];
        for log in 1..=8u32 {
            let size = 1usize << log;
            let fan = Fan::new(size).unwrap();
            for case in 0..96 {
                let len =
                    if case % 4 == 3 { 1 + next(&mut rng) as usize % (size - 1) } else { size };
                partial += usize::from(len < size);
                let mut layout = random_layout(size, case % 3 == 0, &mut rng);
                let mut id = layout.iter().flatten().max().map_or(0, |&m| m + 1);
                for (i, leaf) in layout.iter_mut().enumerate() {
                    if i >= len {
                        *leaf = None;
                    } else if case % 2 == 1 && leaf.is_none() {
                        *leaf = Some(id);
                        id += 1;
                    }
                }
                let values: Vec<f32> = (0..size)
                    .map(|_| match next(&mut rng) % 8 {
                        0 => 0.0,
                        1 => -0.0,
                        r => {
                            (r as f32 - 4.5)
                                * (f32::from_bits(next(&mut rng) as u32 >> 9 | 0x3f80_0000) - 1.5)
                        }
                    })
                    .collect();
                let faults: Vec<AdderFault> = (0..next(&mut rng) % 4)
                    .map(|_| {
                        let level = next(&mut rng) as usize % log as usize;
                        let block = next(&mut rng) as usize % (size >> (level + 1));
                        let bit = (next(&mut rng) % 24) as u32;
                        AdderFault {
                            adder: (2 * block + 1) * (1 << level) - 1,
                            bit: if bit == 23 { 31 } else { bit },
                            level: if next(&mut rng).is_multiple_of(2) {
                                StuckLevel::Zero
                            } else {
                                StuckLevel::One
                            },
                        }
                    })
                    .collect();
                for f in &faults {
                    if layout[f.adder].is_some() && layout[f.adder] == layout[f.adder + 1] {
                        active_levels[fan.adder_level(f.adder) as usize] += 1;
                    }
                }
                let clean = reduce_level_by_level(&fan, &values, &layout, &[]).unwrap();
                let faulted = reduce_level_by_level(&fan, &values, &layout, &faults).unwrap();
                let ctx = format!("size {size} case {case} len {len} {faults:?}");
                for (want, fault_list) in [(&clean, &[][..]), (&faulted, &faults[..])] {
                    let mut seen = 0;
                    let clusters = want.sums.iter().map(|w| (w.leaf_range.0, w.leaf_range.1, w));
                    fan.reduce_chunk(
                        &values[..len],
                        clusters,
                        fault_list,
                        &mut scratch,
                        |w, v, c| {
                            let (s, e) = w.leaf_range;
                            assert_eq!(v.to_bits(), w.value.to_bits(), "{ctx}: leaves {s}..={e}");
                            assert_eq!(c, w.completion_cycles, "{ctx}: leaves {s}..={e}");
                            seen += 1;
                        },
                    );
                    assert_eq!(seen, want.sums.len(), "{ctx}");
                }
                for (c, f) in clean.sums.iter().zip(&faulted.sums) {
                    corrupted += usize::from(c.value.to_bits() != f.value.to_bits());
                    let (s, e) = c.leaf_range;
                    straddling += usize::from(s < size / 2 && e >= size / 2);
                }
            }
        }
        assert!(corrupted > 50, "the stuck adders must change some sums ({corrupted})");
        assert!(partial > 100 && straddling > 100, "{partial} partial, {straddling} straddling");
        for (level, &n) in active_levels.iter().enumerate() {
            assert!(n > 2, "level {level} carried {n} stuck adders that fire");
        }
    }

    #[test]
    fn top_adder_is_the_unique_highest_level_adder() {
        let fan = Fan::new(256).unwrap();
        for s in 0..256 {
            for e in s + 1..256 {
                let h = top_adder(s, e);
                assert!((s..e).contains(&h), "{s}..={e}: {h}");
                let level = fan.adder_level(h);
                assert!((s..e).all(|a| a == h || fan.adder_level(a) < level), "{s}..={e}");
            }
        }
    }

    #[test]
    fn non_contiguous_layouts_fail_like_the_oracle() {
        let fan = Fan::new(8).unwrap();
        let values = [1.0f32; 8];
        let mut program = FanProgram::default();
        for spec in [[0, 1, 0, 1, 2, 2, 2, 2], [3, 3, -1, 3, 1, -1, 1, 0], [5, 4, 4, 5, 4, 5, 6, 6]]
        {
            let layout = ids(&spec);
            let want = reduce_level_by_level(&fan, &values, &layout, &[]).unwrap_err();
            assert_eq!(fan.reduce(&values, &layout), Err(want.clone()));
            assert_eq!(program.compile(&fan, &layout), Err(want));
        }
    }

    #[test]
    fn size_validation() {
        assert!(Fan::new(2).is_ok());
        assert!(Fan::new(128).is_ok());
        assert_eq!(Fan::new(0), Err(FanError::NotPowerOfTwo(0)));
        assert_eq!(Fan::new(6), Err(FanError::NotPowerOfTwo(6)));
    }

    #[test]
    fn adder_levels_match_paper_layout() {
        let fan = Fan::new(32).unwrap();
        // Level 0 adders are the even ones; top adder is 15 at level 4.
        assert_eq!(fan.adder_level(0), 0);
        assert_eq!(fan.adder_level(2), 0);
        assert_eq!(fan.adder_level(1), 1);
        assert_eq!(fan.adder_level(5), 1);
        assert_eq!(fan.adder_level(3), 2);
        assert_eq!(fan.adder_level(7), 3);
        assert_eq!(fan.adder_level(15), 4);
        assert_eq!(fan.adder_count(), 31);
        assert_eq!(fan.level_count(), 5);
    }

    #[test]
    fn single_full_reduction() {
        let fan = Fan::new(8).unwrap();
        let values: Vec<f32> = (1..=8).map(|x| x as f32).collect();
        let v = ids(&[0, 0, 0, 0, 0, 0, 0, 0]);
        let r = fan.reduce(&values, &v).unwrap();
        assert_eq!(r.sums.len(), 1);
        assert_eq!(r.sums[0].value, 36.0);
        assert_eq!(r.adds_performed, 7);
        assert_eq!(r.critical_cycles, 3); // log2(8)
        assert_eq!(r.sums[0].leaf_range, (0, 7));
    }

    #[test]
    fn non_power_of_two_segments() {
        // The paper's motivating example: (a0 a1 a2 | b0 b1 | c0 c1 c2).
        let fan = Fan::new(8).unwrap();
        let values = [1.0, 1.0, 1.0, 2.0, 2.0, 4.0, 4.0, 4.0];
        let v = ids(&[0, 0, 0, 1, 1, 2, 2, 2]);
        let r = fan.reduce(&values, &v).unwrap();
        let sums: Vec<f32> = r.sums.iter().map(|s| s.value).collect();
        assert_eq!(sums, vec![3.0, 4.0, 12.0]);
        assert_eq!(r.adds_performed, 2 + 1 + 2);
    }

    #[test]
    fn singleton_segments_bypass() {
        let fan = Fan::new(4).unwrap();
        let values = [5.0, 6.0, 7.0, 8.0];
        let v = ids(&[0, 1, 2, 3]);
        let r = fan.reduce(&values, &v).unwrap();
        assert_eq!(r.adds_performed, 0);
        assert_eq!(r.critical_cycles, 0);
        assert_eq!(r.sums.len(), 4);
        for (i, s) in r.sums.iter().enumerate() {
            assert_eq!(s.value, values[i]);
            assert_eq!(s.completion_cycles, 0);
        }
    }

    #[test]
    fn idle_leaves_are_skipped() {
        let fan = Fan::new(8).unwrap();
        let values = [1.0, 2.0, 0.0, 0.0, 3.0, 4.0, 0.0, 0.0];
        let v = ids(&[0, 0, -1, -1, 1, 1, -1, -1]);
        let r = fan.reduce(&values, &v).unwrap();
        assert_eq!(r.sums.len(), 2);
        assert_eq!(r.sums[0].value, 3.0);
        assert_eq!(r.sums[1].value, 7.0);
    }

    #[test]
    fn boundary_crossing_pair_uses_high_adder() {
        // Leaves 3 and 4 share a cluster: their only connecting adder is
        // adder 3 at level 2 (for N=8), so completion takes 3 cycles even
        // though the cluster has just 2 elements.
        let fan = Fan::new(8).unwrap();
        let values = [1.0, 1.0, 1.0, 10.0, 20.0, 1.0, 1.0, 1.0];
        let v = ids(&[0, 1, 2, 3, 3, 4, 5, 6]);
        let r = fan.reduce(&values, &v).unwrap();
        let s = r.sums.iter().find(|s| s.vec_id == 3).unwrap();
        assert_eq!(s.value, 30.0);
        assert_eq!(s.completion_cycles, 3);
        assert_eq!(r.adds_performed, 1);
    }

    #[test]
    fn adds_equal_sum_of_segment_sizes_minus_one() {
        let fan = Fan::new(16).unwrap();
        let values = [1.0f32; 16];
        let v = ids(&[0, 0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3]);
        let r = fan.reduce(&values, &v).unwrap();
        assert_eq!(r.adds_performed, 4 + 1 + 5 + 2);
        let sums: Vec<f32> = r.sums.iter().map(|s| s.value).collect();
        assert_eq!(sums, vec![5.0, 2.0, 6.0, 3.0]);
    }

    #[test]
    fn rejects_non_contiguous() {
        let fan = Fan::new(4).unwrap();
        let values = [1.0f32; 4];
        let v = ids(&[0, 1, 0, 1]);
        assert_eq!(fan.reduce(&values, &v), Err(FanError::NonContiguousSegments(0)));
        // None breaks a run: same id on both sides is non-contiguous.
        let v2 = ids(&[0, -1, 0, 1]);
        assert_eq!(fan.reduce(&values, &v2), Err(FanError::NonContiguousSegments(0)));
    }

    #[test]
    fn rejects_size_mismatch() {
        let fan = Fan::new(4).unwrap();
        assert!(matches!(
            fan.reduce(&[1.0; 3], &ids(&[0, 0, 0])),
            Err(FanError::SizeMismatch { expected: 4, actual: 3 })
        ));
    }

    #[test]
    fn forwarding_links_and_muxes_grow_with_size() {
        let f8 = Fan::new(8).unwrap();
        let f64 = Fan::new(64).unwrap();
        assert!(f64.forwarding_link_count() > f8.forwarding_link_count());
        assert!(f64.mux_count() > f8.mux_count());
        // N=4: adders 0,1,2 with levels 0,1,0: adder 1 has links to 0 and 2.
        let f4 = Fan::new(4).unwrap();
        assert_eq!(f4.forwarding_link_count(), 2);
        assert_eq!(f4.mux_count(), 0);
    }

    #[test]
    fn stuck_adder_corrupts_only_activations_through_it() {
        use crate::fault::{AdderFault, StuckLevel};
        let fan = Fan::new(8).unwrap();
        let values = [1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0];
        let v = ids(&[0, 0, 0, 0, 1, 1, 1, 1]);
        // Adder 5 (level 1) belongs to cluster 1's reduction; latch its
        // sign bit high. Cluster 0 must be untouched.
        let fault = AdderFault { adder: 5, bit: 31, level: StuckLevel::One };
        let r = fan.reduce_with_faults(&values, &v, &[fault]).unwrap();
        assert_eq!(r.sums[0].value, 10.0, "cluster 0 does not pass through adder 5");
        // Cluster 1: level 0 gives (10+20)=30 at adder 4 and (30+40)=70 at
        // adder 6; level 1 at adder 5 computes 30+70=100 -> sign forced -> -100.
        assert_eq!(r.sums[1].value, -100.0);
        // Empty fault slice is byte-identical to the plain reduce.
        let clean = fan.reduce(&values, &v).unwrap();
        assert_eq!(fan.reduce_with_faults(&values, &v, &[]).unwrap(), clean);
        // A fault on an adder no cluster spans changes nothing.
        let idle = AdderFault { adder: 3, bit: 31, level: StuckLevel::One };
        assert_eq!(fan.reduce_with_faults(&values, &v, &[idle]).unwrap(), clean);
    }

    #[test]
    fn reduce_into_matches_reduce_with_reused_scratch() {
        let fan = Fan::new(16).unwrap();
        let mut scratch = FanScratch::default();
        let mut out = FanReduction::default();
        let waves: Vec<(Vec<f32>, Vec<Option<u32>>)> = vec![
            ((0..16).map(|x| x as f32).collect(), ids(&[0; 16])),
            (
                (0..16).map(|x| (x * 2) as f32).collect(),
                ids(&[0, 0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3]),
            ),
            (vec![1.0; 16], ids(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15])),
            (vec![2.0; 16], ids(&[-1, 0, 0, -1, 1, 1, 1, -1, -1, 2, 2, 2, 2, -1, 3, 3])),
        ];
        for (values, v) in &waves {
            let reference = fan.reduce(values, v).unwrap();
            fan.reduce_into(values, v, &[], &mut scratch, &mut out).unwrap();
            assert_eq!(out, reference, "scratch reuse must not change results");
        }
    }

    #[test]
    fn reduce_into_clears_output_on_error() {
        let fan = Fan::new(4).unwrap();
        let mut scratch = FanScratch::default();
        let mut out = FanReduction::default();
        fan.reduce_into(&[1.0; 4], &ids(&[0, 0, 1, 1]), &[], &mut scratch, &mut out).unwrap();
        assert_eq!(out.sums.len(), 2);
        let err = fan.reduce_into(&[1.0; 4], &ids(&[0, 1, 0, 1]), &[], &mut scratch, &mut out);
        assert_eq!(err, Err(FanError::NonContiguousSegments(0)));
        assert!(out.sums.is_empty(), "stale sums must not survive an error");
    }

    #[test]
    fn latency_is_log2() {
        assert_eq!(Fan::new(128).unwrap().latency_cycles(), 7);
        assert_eq!(Fan::new(2).unwrap().latency_cycles(), 1);
    }
}
