//! Compiled FAN schedules: the structural half of a reduction wave,
//! factored out of the per-cycle loop.
//!
//! Which adders fire, in what order, where each cluster's partial
//! accumulates, and when each sum completes do not depend on the
//! multiplier *values* — they are a pure function of the `vecID` layout,
//! which SIGMA fixes once per fold when the stationary operand is loaded.
//! A [`FanProgram`] walks the same ruler tree as
//! [`Fan::reduce_into`](crate::Fan::reduce_into) (see the `fan` module
//! docs) once at load time and records:
//!
//! * the add sequence as `(dst, src)` leaf positions, level by level per
//!   cluster. Partial sums live at each interval's leftmost leaf, so
//!   every adder `h` whose left half starts at leaf `a` becomes
//!   `work[a] += work[h + 1]` after both halves are reduced — the
//!   hardware's association order, and
//! * the output template: one entry per cluster in left-to-right leaf
//!   order with its `vecID`, leaf range, accumulator slot, and
//!   completion cycle.
//!
//! [`FanProgram::execute_lanes`] then replays the adds over a tile of
//! waves at once, held slot-major and lane-minor, so each compiled add
//! is one add over contiguous lanes: the stationary dataflows stream
//! many vectors through one layout, and the simulator reduces a block
//! of consecutive steps per replay.
//! [`FanProgram::execute_into`] is its one-lane case, which also emits
//! the output template as a [`FanReduction`]. Either way each wave sees
//! the hardware's exact association order, so its sums are **bitwise
//! identical** to [`Fan::reduce_into`](crate::Fan::reduce_into) at a
//! fraction of the cost.
//!
//! The replay also takes stuck FAN adders. A compiled add `(dst, src)`
//! fires adder `src - 1` (the walk joins at adder `h` by adding leaf
//! `h + 1`), so each fault on that adder corrupts the sum right after
//! the add, in slice order, exactly as
//! [`Fan::reduce_chunk`](crate::Fan::reduce_chunk) does. The simulator
//! replays a faulted wave as one lane: a stuck bit can make a NaN with
//! its own payload, and where two such NaNs meet, scalar and vector adds
//! may keep different payloads, so only the one-lane scalar replay is
//! bitwise the runtime walk.
//!
//! The compiled `critical_cycles` doubles as the network's
//! *latency-until-quiescent* ([`FanProgram::latency_until_quiescent`]):
//! the number of cycles after the final wave issue until every adder has
//! drained, which the simulator charges once per fold as its add latency
//! instead of stepping the tree tick by tick.

use crate::fan::{completion_cycles, for_each_cluster, ruler_reduce};
use crate::fan::{Fan, FanError, FanReduction, SegmentSum};
use crate::fault::AdderFault;

/// One cluster output in a compiled FAN schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ProgramOutput {
    /// Cluster identifier.
    vec_id: u32,
    /// Leaf slot where the cluster's final partial accumulates (its
    /// leftmost leaf).
    slot: usize,
    /// Inclusive leaf range the cluster occupies.
    leaf_range: (usize, usize),
    /// Cycles after wave issue at which the sum is available.
    completion_cycles: u64,
}

/// A compiled, value-independent FAN reduction schedule.
///
/// Compile once per stationary load with [`FanProgram::compile`], then
/// replay per streaming wave with [`FanProgram::execute_into`], or per
/// block of waves with [`FanProgram::execute_lanes`]. All three calls
/// are allocation-free once the internal buffers are warm, so the
/// simulator's steady-state hot loop stays heap-quiet.
///
/// ```
/// use sigma_interconnect::{Fan, FanProgram, FanReduction};
/// let fan = Fan::new(8)?;
/// let ids = [0, 0, 0, 1, 1, 2, 2, 2].map(Some);
/// let mut program = FanProgram::default();
/// program.compile(&fan, &ids)?;
/// let mut work = [1.0, 2.0, 3.0, 10.0, 20.0, 100.0, 200.0, 300.0];
/// let mut out = FanReduction::default();
/// program.execute_into(&mut work, &mut out);
/// let reference = fan.reduce(&[1.0, 2.0, 3.0, 10.0, 20.0, 100.0, 200.0, 300.0], &ids)?;
/// assert_eq!(out, reference);
/// # Ok::<(), sigma_interconnect::FanError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct FanProgram {
    /// Ordered add schedule: `work[dst] += work[src]`, each add after
    /// both of its operands are reduced.
    adds: Vec<(usize, usize)>,
    /// Cluster outputs in left-to-right leaf order.
    outputs: Vec<ProgramOutput>,
    /// Completion time of the slowest cluster.
    critical_cycles: u64,
    /// Leaf count the program was compiled for.
    size: usize,
    /// `true` after a successful [`FanProgram::compile`].
    valid: bool,
    /// Contiguity-check scratch, reused across compilations.
    seen: Vec<u32>,
}

impl FanProgram {
    /// The block width [`FanProgram::execute_lanes`] is compiled for: a
    /// replay over exactly this many lanes (or one) runs fixed-length
    /// loops, any other count runtime-length ones. Callers that stream in
    /// blocks use it as their block width; 128 leaves of it are 16 KiB.
    pub const BLOCK_LANES: usize = 32;

    /// Compiles the add schedule and output template for one `vecID`
    /// layout on `fan`. Reuses internal buffers, so recompilation is
    /// allocation-free once warm.
    ///
    /// # Errors
    ///
    /// Same layout errors as [`Fan::reduce`](crate::Fan::reduce):
    /// [`FanError::SizeMismatch`] and
    /// [`FanError::NonContiguousSegments`]. On error the program is
    /// cleared and [`FanProgram::is_valid`] returns `false`.
    pub fn compile(&mut self, fan: &Fan, vec_ids: &[Option<u32>]) -> Result<(), FanError> {
        self.adds.clear();
        self.outputs.clear();
        self.critical_cycles = 0;
        self.size = fan.size();
        self.valid = false;
        if vec_ids.len() != fan.size() {
            return Err(FanError::SizeMismatch { expected: fan.size(), actual: vec_ids.len() });
        }
        let (adds, outputs) = (&mut self.adds, &mut self.outputs);
        let mut critical = 0u64;
        let walked = for_each_cluster(vec_ids, &mut self.seen, |vec_id, s, e| {
            ruler_reduce(s, e, |a, h| adds.push((a, h + 1)));
            let cycles = completion_cycles(s, e);
            critical = critical.max(cycles);
            outputs.push(ProgramOutput {
                vec_id,
                slot: s,
                leaf_range: (s, e),
                completion_cycles: cycles,
            });
        });
        if let Err(e) = walked {
            self.adds.clear();
            self.outputs.clear();
            return Err(e);
        }
        self.critical_cycles = critical;
        self.valid = true;
        Ok(())
    }

    /// Replays the compiled add schedule over one wave of multiplier
    /// products, writing the reduction into `out` (cleared first).
    ///
    /// `work` is consumed in place: slots belonging to active clusters
    /// are overwritten with partial sums as the schedule fires. Idle
    /// leaves are never read, so callers need not zero them. The result
    /// is bitwise identical to
    /// [`Fan::reduce_into`](crate::Fan::reduce_into) on the same values
    /// and the compiled `vecID` layout — same add order, same activation
    /// counts, same completion times. This is the one-lane case of
    /// [`FanProgram::execute_lanes`].
    ///
    /// # Panics
    ///
    /// Panics (via slice indexing) if `work` is shorter than the
    /// compiled network size. Debug-asserts that the program is valid.
    pub fn execute_into(&self, work: &mut [f32], out: &mut FanReduction) {
        debug_assert!(work.len() >= self.size);
        self.execute_lanes(work, 1, &[]);
        out.sums.clear();
        out.sums.reserve(self.outputs.len());
        for o in &self.outputs {
            out.sums.push(SegmentSum {
                vec_id: o.vec_id,
                value: work[o.slot],
                leaf_range: o.leaf_range,
                completion_cycles: o.completion_cycles,
            });
        }
        out.adds_performed = self.adds.len();
        out.critical_cycles = self.critical_cycles;
    }

    /// Replays the compiled add schedule over `lanes` independent waves at
    /// once. `tile` holds the waves slot-major and lane-minor: leaf `i` of
    /// wave `j` is `tile[i * lanes + j]`. Each compiled add
    /// `work[dst] += work[src]` becomes one add over `lanes` contiguous
    /// values, so every wave sees exactly the f32 adds, in exactly the
    /// order, that [`FanProgram::execute_into`] applies to it alone.
    /// Cluster `o`'s sum for wave `j` ends at `tile[slot * lanes + j]`,
    /// with `(vec_id, slot)` from [`FanProgram::outputs`]. Idle leaves
    /// are never read.
    ///
    /// Every activation of a stuck adder in `faults` is corrupted right
    /// after its add, by each fault on that adder in slice order (see the
    /// module docs); an empty slice replays the plain adds.
    ///
    /// # Panics
    ///
    /// Panics (via slice indexing) if `tile` is shorter than
    /// `lanes` times the highest active leaf. Debug-asserts that the
    /// program is valid.
    pub fn execute_lanes(&self, tile: &mut [f32], lanes: usize, faults: &[AdderFault]) {
        debug_assert!(self.valid, "execute_lanes on an invalid FanProgram");
        let adds = &self.adds;
        match (lanes, faults.is_empty()) {
            (1, true) => replay_lanes(adds, tile, 1, &[]),
            (Self::BLOCK_LANES, true) => replay_lanes(adds, tile, Self::BLOCK_LANES, &[]),
            (_, true) => replay_lanes(adds, tile, lanes, &[]),
            (1, false) => replay_lanes(adds, tile, 1, faults),
            (_, false) => replay_lanes(adds, tile, lanes, faults),
        }
    }

    /// The output template: one `(vec_id, slot)` pair per cluster in
    /// left-to-right leaf order, `slot` being the leaf where the
    /// cluster's sum ends after a replay.
    pub fn outputs(&self) -> impl ExactSizeIterator<Item = (u32, usize)> + '_ {
        self.outputs.iter().map(|o| (o.vec_id, o.slot))
    }

    /// `true` after a successful [`FanProgram::compile`]; `false` for a
    /// fresh program or after a compile error.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Number of adder activations per wave (constant across waves).
    #[must_use]
    pub fn adds_performed(&self) -> usize {
        self.adds.len()
    }

    /// Number of cluster sums emitted per wave.
    #[must_use]
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Completion time of the slowest cluster — the cycles needed after
    /// the final wave issue for the tree to drain completely. This is
    /// the fold's add latency the simulator charges in one step: between
    /// wave issue and `now + latency_until_quiescent()` nothing
    /// observable happens at the network boundary.
    #[must_use]
    pub fn latency_until_quiescent(&self) -> u64 {
        self.critical_cycles
    }

    /// Alias for [`FanProgram::latency_until_quiescent`], matching the
    /// `critical_cycles` field of [`FanReduction`].
    #[must_use]
    pub fn critical_cycles(&self) -> u64 {
        self.critical_cycles
    }
}

/// The add replay over `lanes` lanes, corrupting each add of a stuck
/// adder after it fires. Always inlined, so a constant `lanes` compiles to
/// fixed-length loops and an empty `faults` to the plain adds.
#[inline(always)]
fn replay_lanes(adds: &[(usize, usize)], tile: &mut [f32], lanes: usize, faults: &[AdderFault]) {
    for &(dst, src) in adds {
        // A partial sum accumulates at its interval's leftmost leaf, so
        // `dst < src` and the two lane runs never overlap.
        let (left, right) = tile.split_at_mut(src * lanes);
        let sums = &mut left[dst * lanes..][..lanes];
        for (d, &s) in sums.iter_mut().zip(&right[..lanes]) {
            *d += s;
        }
        for fault in faults.iter().filter(|f| f.adder == src - 1) {
            for d in sums.iter_mut() {
                *d = fault.corrupt(*d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fan::FanScratch;

    fn ids(spec: &[i64]) -> Vec<Option<u32>> {
        spec.iter().map(|&x| if x < 0 { None } else { Some(x as u32) }).collect()
    }

    fn assert_program_matches_reduce(fan: &Fan, vec_ids: &[Option<u32>], values: &[f32]) {
        let reference = fan.reduce(values, vec_ids).unwrap();
        let mut program = FanProgram::default();
        program.compile(fan, vec_ids).unwrap();
        let mut work = values.to_vec();
        let mut out = FanReduction::default();
        program.execute_into(&mut work, &mut out);
        assert_eq!(out, reference, "compiled replay must match reduce bitwise");
        assert_eq!(program.adds_performed(), reference.adds_performed);
        assert_eq!(program.critical_cycles(), reference.critical_cycles);
        assert_eq!(program.output_count(), reference.sums.len());
    }

    #[test]
    fn matches_reduce_on_representative_layouts() {
        let fan8 = Fan::new(8).unwrap();
        let vals8: Vec<f32> = (1..=8).map(|x| x as f32 * 1.5 - 7.0).collect();
        assert_program_matches_reduce(&fan8, &ids(&[0; 8]), &vals8);
        assert_program_matches_reduce(&fan8, &ids(&[0, 0, 0, 1, 1, 2, 2, 2]), &vals8);
        assert_program_matches_reduce(&fan8, &ids(&[0, 1, 2, 3, 3, 4, 5, 6]), &vals8);
        assert_program_matches_reduce(&fan8, &ids(&[0, 0, -1, -1, 1, 1, -1, -1]), &vals8);
        assert_program_matches_reduce(&fan8, &ids(&[-1; 8]), &vals8);

        let fan16 = Fan::new(16).unwrap();
        let vals16: Vec<f32> = (0..16).map(|x| (x * x) as f32 - 40.0).collect();
        assert_program_matches_reduce(
            &fan16,
            &ids(&[0, 0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3]),
            &vals16,
        );
        assert_program_matches_reduce(
            &fan16,
            &ids(&[-1, 0, 0, -1, 1, 1, 1, -1, -1, 2, 2, 2, 2, -1, 3, 3]),
            &vals16,
        );
    }

    #[test]
    fn replay_is_bitwise_identical_across_many_waves() {
        // One compile, many value waves — the stationary engine's usage
        // pattern. Values include negatives, zeros of both signs, and
        // magnitudes chosen to exercise rounding, so "bitwise" is a real
        // claim rather than an approximate one.
        let fan = Fan::new(16).unwrap();
        let layout = ids(&[0, 0, 0, 0, 0, 1, 1, 2, 2, 2, 2, 2, 2, -1, 3, 3]);
        let mut program = FanProgram::default();
        program.compile(&fan, &layout).unwrap();
        let mut scratch = FanScratch::default();
        let mut reference = FanReduction::default();
        let mut out = FanReduction::default();
        let mut work = [0.0f32; 16];
        let mut x = 0x2545f491u32;
        for _ in 0..64 {
            let mut values = [0.0f32; 16];
            for v in values.iter_mut() {
                // xorshift-derived mix of magnitudes and signs.
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                *v = (x as f32 / u32::MAX as f32 - 0.5) * 1e3;
                if x & 7 == 0 {
                    *v = 0.0;
                }
                if x & 15 == 1 {
                    *v = -0.0;
                }
            }
            fan.reduce_into(&values, &layout, &[], &mut scratch, &mut reference).unwrap();
            work.copy_from_slice(&values);
            program.execute_into(&mut work, &mut out);
            assert_eq!(out.adds_performed, reference.adds_performed);
            assert_eq!(out.critical_cycles, reference.critical_cycles);
            assert_eq!(out.sums.len(), reference.sums.len());
            for (a, b) in out.sums.iter().zip(reference.sums.iter()) {
                assert_eq!(a.vec_id, b.vec_id);
                assert_eq!(a.leaf_range, b.leaf_range);
                assert_eq!(a.completion_cycles, b.completion_cycles);
                assert_eq!(a.value.to_bits(), b.value.to_bits(), "sums must match bit-for-bit");
            }
        }
    }

    #[test]
    fn execute_lanes_matches_one_lane_replays_bitwise() {
        // Random layouts (contiguous clusters with idle gaps) at every size
        // up to 128, replayed over 1 to 33 lanes at once (the one-lane and
        // block-width cases included), must leave each
        // lane's cluster sums bit-equal to replaying that lane alone. The
        // lanes mix ordinary values with ±0.0, ±inf, ±f32::MAX and NaN.
        // The NaN is the hardware's own (inf - inf), the only one finite
        // operands can produce: when two NaNs of different payloads meet,
        // IEEE 754 leaves the result's payload open, and the compiler may
        // commute an add differently in scalar and vector code.
        let nan = std::hint::black_box(f32::INFINITY) - f32::INFINITY;
        let special = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, nan, f32::MAX, -f32::MAX];
        let mut x = 0x9e37_79b9u32;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x as usize
        };
        for size in (1..=7).map(|log| 1usize << log) {
            let fan = Fan::new(size).unwrap();
            for lanes in [1, 2, 7, 31, 32, 33, 32, 1] {
                let mut layout = vec![None; size];
                let (mut id, mut leaf) = (0u32, 0usize);
                while leaf < size {
                    let len = (1 + next() % 6).min(size - leaf);
                    if next() % 4 != 0 {
                        layout[leaf..leaf + len].fill(Some(id));
                        id += 1;
                    }
                    leaf += len;
                }
                let mut program = FanProgram::default();
                program.compile(&fan, &layout).unwrap();
                let waves: Vec<Vec<f32>> = (0..lanes)
                    .map(|_| {
                        (0..size)
                            .map(|_| match next() {
                                r if r % 3 == 0 => special[(r >> 8) % special.len()],
                                r => ((r % 100_000) as f32 / 100_000.0 - 0.5) * 1e3,
                            })
                            .collect()
                    })
                    .collect();
                let mut tile = vec![0.0f32; size * lanes];
                for (j, wave) in waves.iter().enumerate() {
                    for (leaf, &v) in wave.iter().enumerate() {
                        tile[leaf * lanes + j] = v;
                    }
                }
                program.execute_lanes(&mut tile, lanes, &[]);
                let mut out = FanReduction::default();
                for (j, wave) in waves.iter().enumerate() {
                    let mut work = wave.clone();
                    program.execute_into(&mut work, &mut out);
                    assert_eq!(out.sums.len(), program.outputs().len());
                    for (sum, (vec_id, slot)) in out.sums.iter().zip(program.outputs()) {
                        assert_eq!((sum.vec_id, sum.leaf_range.0), (vec_id, slot));
                        let lane = tile[slot * lanes + j];
                        assert_eq!(
                            lane.to_bits(),
                            sum.value.to_bits(),
                            "size {size}, lane {j} of {lanes}, cluster {vec_id}: {lane} vs {}",
                            sum.value
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn idle_leaves_are_never_read() {
        let fan = Fan::new(8).unwrap();
        let layout = ids(&[0, 0, -1, -1, 1, 1, -1, -1]);
        let mut program = FanProgram::default();
        program.compile(&fan, &layout).unwrap();
        // Poison idle slots with NaN: if the replay read them, the sums
        // would be NaN.
        let mut work = [1.0, 2.0, f32::NAN, f32::NAN, 3.0, 4.0, f32::NAN, f32::NAN];
        let mut out = FanReduction::default();
        program.execute_into(&mut work, &mut out);
        assert_eq!(out.sums.len(), 2);
        assert_eq!(out.sums[0].value, 3.0);
        assert_eq!(out.sums[1].value, 7.0);
    }

    #[test]
    fn rejects_bad_layouts_and_marks_invalid() {
        let fan = Fan::new(4).unwrap();
        let mut program = FanProgram::default();
        assert!(!program.is_valid());
        assert_eq!(
            program.compile(&fan, &ids(&[0, 1, 0, 1])),
            Err(FanError::NonContiguousSegments(0))
        );
        assert!(!program.is_valid());
        assert!(matches!(
            program.compile(&fan, &ids(&[0, 0, 0])),
            Err(FanError::SizeMismatch { expected: 4, actual: 3 })
        ));
        assert!(!program.is_valid());
        // A later good compile recovers.
        program.compile(&fan, &ids(&[0, 0, 1, 1])).unwrap();
        assert!(program.is_valid());
        assert_eq!(program.adds_performed(), 2);
        assert_eq!(program.output_count(), 2);
    }

    #[test]
    fn quiescent_latency_matches_critical_cycles() {
        let fan = Fan::new(8).unwrap();
        let mut program = FanProgram::default();
        // Boundary-crossing pair: completion 3 even with a single add.
        program.compile(&fan, &ids(&[0, 1, 2, 3, 3, 4, 5, 6])).unwrap();
        assert_eq!(program.latency_until_quiescent(), 3);
        // All-singleton layout is quiescent immediately.
        program.compile(&fan, &ids(&[0, 1, 2, 3, 4, 5, 6, 7])).unwrap();
        assert_eq!(program.latency_until_quiescent(), 0);
    }

    #[test]
    fn recompile_is_allocation_free_shape() {
        // Not the counting-allocator test (that lives in sigma-core's
        // alloc_free harness) — just check buffers are reused: capacity
        // does not shrink and results stay correct after recompiles.
        let fan = Fan::new(8).unwrap();
        let mut program = FanProgram::default();
        program.compile(&fan, &ids(&[0, 0, 0, 0, 1, 1, 1, 1])).unwrap();
        let adds_cap = program.adds.capacity();
        program.compile(&fan, &ids(&[0, 1, 2, 3, 4, 5, 6, 7])).unwrap();
        assert!(program.adds.capacity() >= adds_cap.min(1));
        assert_eq!(program.adds_performed(), 0);
        program.compile(&fan, &ids(&[0, 0, 0, 0, 1, 1, 1, 1])).unwrap();
        assert_eq!(program.adds_performed(), 6);
    }
}
