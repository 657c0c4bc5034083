//! The Flexible Dot Product Engine (Sec. IV-A) as an explicit
//! microarchitectural unit: `k` multipliers with stationary-value
//! buffers, a Benes distribution network, and a FAN reduction tree.
//!
//! [`FlexDpe`] executes one Flex-DPE's share of a fold: load stationary
//! values into multiplier buffers (Fig. 5 Step iv), then accept one
//! streamed vector per cycle, multiply, and reduce the products through
//! FAN per the cluster (`vecID`) assignment. The engine composes many of
//! these into the full SIGMA array; the unit is also usable standalone,
//! as in `examples/walkthrough_fig5.rs`.
//!
//! ## Hot-loop design
//!
//! The stationary store is *flattened* — dense `values`/`contractions`
//! arrays plus a `u64` occupancy bitmask instead of `Vec<Option<..>>` —
//! and the unit owns its scratch state (the one-lane product buffer, the
//! armed adder-fault list, the compiled [`FanProgram`]), so a warmed unit
//! loads and steps without allocating.
//!
//! Loading does no routing. The loading unicast sends value `i` to
//! multiplier `i` for a prefix of the slots, a pattern the Benes network
//! always delivers (`sigma-interconnect` proves it at every size up to
//! 1024), and the engine charges the paper's latch-free O(1) distribution
//! as a fixed cycle. The unit still counts route-cache hits and misses:
//! a miss is the first load of a prefix length, the load a controller that
//! memoizes switch settings would have to configure.
//!
//! Both step functions perform **zero heap allocations** once warm
//! (`crates/core/tests/alloc_free.rs`):
//!
//! * [`FlexDpe::step_block`] — the engine's streaming step. It takes a
//!   block of consecutive streamed vectors from a dense, row-major
//!   `K x S` streaming buffer (the streaming operand's own orientation)
//!   and fills a caller-owned tile slot-major and lane-minor, so each
//!   multiplier's products over the block are one contiguous run. The
//!   FAN schedule compiled at load time then replays once for the whole
//!   block ([`FanProgram::execute_lanes`]): every multiply and add runs
//!   over contiguous lanes, and each lane sees the f32 ops, in the
//!   order, of a step of its own. Under an armed [`FaultInjector`] the
//!   block is one step: port, multiplier and adder faults perturb the
//!   wave, and the replay corrupts the unit's stuck adders after they
//!   fire.
//! * [`FlexDpe::step_compiled`] — one streamed vector: the one-lane case
//!   of the same product pass and replay, returning the reduction.
//!
//! Only stationary dataflows use this unit. No-Local-Reuse keeps nothing
//! in the multiplier buffers, so the engine streams its pairs straight
//! into [`Fan::reduce_chunk`] instead.

use crate::config::SigmaError;
use crate::controller::MappedElement;
use crate::fault::{AdderFault, FaultInjector};
use sigma_interconnect::{BenesNetwork, Fan, FanProgram, FanReduction};
use sigma_telemetry::{Counter, Hist, Telemetry};

/// The result of streaming one vector through a Flex-DPE.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DpeStep {
    /// Per-cluster sums out of the FAN.
    pub reduction: FanReduction,
    /// Multiplications whose streamed operand was non-zero.
    pub useful_macs: usize,
}

/// One k-multiplier Flexible Dot Product Engine.
#[derive(Debug, Clone)]
pub struct FlexDpe {
    size: usize,
    benes: BenesNetwork,
    fan: Fan,
    /// Stationary values, slot-indexed (0.0 in unoccupied slots).
    values: Vec<f32>,
    /// Contraction index per slot (meaningful only where occupied).
    contractions: Vec<usize>,
    /// Occupancy bitmask, one bit per multiplier slot.
    occupied_words: Vec<u64>,
    vec_ids: Vec<Option<u32>>,
    occupied_count: usize,
    // Reusable hot-loop state.
    /// The one-lane tile of [`FlexDpe::step_compiled`].
    products: Vec<f32>,
    /// The stuck adders armed on this unit, refilled by every armed step.
    adder_faults: Vec<AdderFault>,
    /// The FAN add schedule compiled once per load: the schedule is a pure
    /// function of the `vecID` layout, so the stationary engine replays
    /// it per streamed wave instead of re-deriving the reduction structure
    /// ([`FlexDpe::step_compiled`]).
    program: FanProgram,
    /// One bit per prefix length `0..=size` this unit has loaded. The
    /// loading request is a function of the length alone, so the first
    /// load of a length is the only one a memoizing controller routes.
    loaded_lengths: Vec<u64>,
    route_hits: u64,
    route_misses: u64,
    telemetry: Telemetry,
}

impl FlexDpe {
    /// Creates an engine with `size` multipliers.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::DpeSizeNotPowerOfTwo`] unless `size` is a
    /// power of two at least 2 (required by the Benes/FAN networks).
    pub fn new(size: usize) -> Result<Self, SigmaError> {
        let benes = BenesNetwork::new(size).map_err(|_| SigmaError::DpeSizeNotPowerOfTwo(size))?;
        let fan = Fan::new(size).map_err(|_| SigmaError::DpeSizeNotPowerOfTwo(size))?;
        Ok(Self {
            size,
            benes,
            fan,
            values: vec![0.0; size],
            contractions: vec![0; size],
            occupied_words: vec![0; size.div_ceil(64)],
            vec_ids: vec![None; size],
            occupied_count: 0,
            products: vec![0.0; size],
            adder_faults: Vec::new(),
            program: FanProgram::default(),
            loaded_lengths: vec![0; (size + 1).div_ceil(64)],
            route_hits: 0,
            route_misses: 0,
            telemetry: Telemetry::off(),
        })
    }

    /// Number of multipliers.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Occupied multiplier buffers.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.occupied_count
    }

    /// The FAN cluster ids currently configured.
    #[must_use]
    pub fn vec_ids(&self) -> &[Option<u32>] {
        &self.vec_ids
    }

    /// Route-cache `(hits, misses)` over this unit's loads: a miss is the
    /// first load of a prefix length, a hit every later load of it.
    #[must_use]
    pub fn route_counts(&self) -> (u64, u64) {
        (self.route_hits, self.route_misses)
    }

    /// Attaches a telemetry handle (share one across units to aggregate).
    /// A disabled handle — the default — makes every recording site an
    /// inlined no-op, keeping the hot loops allocation-free and branch-
    /// cheap; recording through an enabled handle is atomic adds only, so
    /// the loops stay allocation-free either way.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    #[inline]
    fn slot_occupied(&self, slot: usize) -> bool {
        (self.occupied_words[slot / 64] >> (slot % 64)) & 1 == 1
    }

    /// Loads stationary elements into the first `elements.len()`
    /// multiplier buffers, with their FAN cluster assignment, and counts
    /// the load as a route-cache miss or hit ([`FlexDpe::route_counts`]).
    /// The loading unicast is not routed (see the module docs). A warmed
    /// unit loads without allocating, whatever the prefix length.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::DpeSizeNotPowerOfTwo`] if more elements than
    /// multipliers are supplied (size abuse), and [`SigmaError::Internal`]
    /// if `vec_ids` assigns a cluster to a multiplier past the elements.
    ///
    /// # Panics
    ///
    /// Panics if `elements.len() != vec_ids-prefix` invariants are
    /// violated (`vec_ids.len() != size`).
    pub fn load(
        &mut self,
        elements: &[MappedElement],
        vec_ids: &[Option<u32>],
    ) -> Result<(), SigmaError> {
        if elements.len() > self.size {
            return Err(SigmaError::DpeSizeNotPowerOfTwo(elements.len()));
        }
        assert_eq!(vec_ids.len(), self.size, "vec_ids must cover every multiplier");
        let len = elements.len();
        if vec_ids[len..].iter().any(Option::is_some) {
            return Err(SigmaError::Internal("vecID on an unloaded multiplier".to_string()));
        }
        let bit = 1u64 << (len % 64);
        let cold = self.loaded_lengths[len / 64] & bit == 0;
        self.loaded_lengths[len / 64] |= bit;
        if cold {
            self.route_misses += 1;
        } else {
            self.route_hits += 1;
        }
        self.telemetry.add(Counter::BenesLoads, 1);
        if self.telemetry.is_enabled() {
            self.telemetry
                .observe(Hist::MultiplierOccupancyPct, (elements.len() * 100 / self.size) as u64);
        }

        // In-place refill of the flattened stationary store. Only
        // occupied slots carry clusters, so no step reads an unoccupied
        // product.
        self.values.fill(0.0);
        self.occupied_words.fill(0);
        for (slot, e) in elements.iter().enumerate() {
            self.values[slot] = e.value;
            self.contractions[slot] = e.contraction;
            self.occupied_words[slot / 64] |= 1 << (slot % 64);
        }
        self.vec_ids.copy_from_slice(vec_ids);
        self.occupied_count = elements.len();
        // Compile the FAN add schedule for this vecID layout. Compilation
        // fails only for non-contiguous cluster layouts, which per-step
        // reduction would reject anyway; the program is simply marked
        // invalid and [`FlexDpe::step_compiled`] refuses to run.
        let _ = self.program.compile(&self.fan, &self.vec_ids);
        Ok(())
    }

    /// Clears the stationary buffers (fold retirement) in place — no
    /// reallocation.
    pub fn clear(&mut self) {
        self.values.fill(0.0);
        self.occupied_words.fill(0);
        self.vec_ids.fill(None);
        self.occupied_count = 0;
        // An all-idle layout compiles to the (valid) empty program.
        let _ = self.program.compile(&self.fan, &self.vec_ids);
    }

    /// Allocation-free streaming step over a block of `lanes` consecutive
    /// streamed vectors on the *compiled* FAN schedule. This is the
    /// engine's one datapath step, clean or faulted.
    ///
    /// `stream` is a dense, row-major streaming buffer with `stride`
    /// values per contraction row, offset to the block's first step:
    /// contraction `c`'s operand in lane `j` is `stream[c * stride + j]`.
    /// The product pass fills `tile[slot * lanes + j]`, then the add
    /// schedule compiled at [`FlexDpe::load`] time replays once over all
    /// lanes ([`FanProgram::execute_lanes`]). Cluster `vec_id`'s sum for
    /// lane `j` ends at `tile[slot * lanes + j]`, for each `(vec_id, slot)`
    /// of [`FlexDpe::outputs`]. Returns the useful MACs (non-zero
    /// operands) over all lanes.
    ///
    /// `faults` arms a [`FaultInjector`] as `(injector, dpe_index,
    /// cycle)`: `dpe_index` names this unit in the injector's site space
    /// and `cycle` stamps any fault that fires. Fault stamps are per step,
    /// so an armed block is one lane. Its operands are gathered into the
    /// tile, Benes delivery faults perturb them, multiplier-output faults
    /// perturb the products, and the unit's stuck adders corrupt the
    /// replay. An injector that fires nothing leaves the step bitwise
    /// equal to a clean one. The stuck adders are listed into a buffer
    /// the unit keeps, so a warmed armed step allocates nothing either
    /// (the first firing of a fault still records it in the injector).
    ///
    /// Records **no** per-step telemetry: the engine batches the per-step
    /// counters per fold (they are constants of the layout, see
    /// [`FlexDpe::record_steps_telemetry`]), so recording here would
    /// double-count.
    ///
    /// # Errors
    ///
    /// [`SigmaError::Internal`] if no valid program is compiled (a
    /// non-contiguous layout was loaded, or nothing was loaded yet), or
    /// if an armed block is not exactly one lane.
    ///
    /// # Panics
    ///
    /// Panics if `stream` does not cover `lanes` operands of every
    /// contraction row the loaded elements reference, or `tile` holds
    /// fewer than `lanes` values per occupied slot.
    pub fn step_block(
        &mut self,
        stream: &[f32],
        stride: usize,
        lanes: usize,
        tile: &mut [f32],
        faults: Option<(&mut FaultInjector<'_>, usize, u64)>,
    ) -> Result<usize, SigmaError> {
        self.check_program()?;
        let occ = self.occupied_prefix();
        let (values, contractions) = (&self.values[..occ], &self.contractions[..occ]);
        let Some((injector, dpe, cycle)) = faults else {
            let useful = if lanes == FanProgram::BLOCK_LANES {
                multiply_lanes(values, contractions, stream, stride, FanProgram::BLOCK_LANES, tile)
            } else {
                multiply_lanes(values, contractions, stream, stride, lanes, tile)
            };
            self.program.execute_lanes(tile, lanes, &[]);
            return Ok(useful);
        };
        if lanes != 1 {
            return Err(SigmaError::Internal(format!("armed Flex-DPE step over {lanes} lanes")));
        }
        let products = &mut tile[..occ];
        for (x, &c) in products.iter_mut().zip(contractions) {
            *x = stream[c * stride];
        }
        injector.apply_port_faults(dpe, products, cycle);
        let mut useful = 0usize;
        for (slot, (p, &v)) in products.iter_mut().zip(values).enumerate() {
            useful += usize::from(*p != 0.0);
            *p = injector.apply_multiplier(dpe, slot, v * *p, cycle);
        }
        injector.adder_faults(dpe, cycle, &mut self.adder_faults);
        self.program.execute_lanes(tile, 1, &self.adder_faults);
        Ok(useful)
    }

    /// The output template of the compiled FAN schedule: one
    /// `(vec_id, slot)` pair per cluster, `slot` being the tile row where
    /// [`FlexDpe::step_block`] leaves the cluster's sums.
    pub fn outputs(&self) -> impl ExactSizeIterator<Item = (u32, usize)> + '_ {
        self.program.outputs()
    }

    /// One streamed vector through the compiled FAN schedule: the
    /// one-lane case of [`FlexDpe::step_block`]'s product pass and
    /// replay, with the reduction written into `out`. `column` is the
    /// dense contraction-indexed streamed vector.
    ///
    /// # Errors
    ///
    /// Same as [`FlexDpe::step_block`].
    ///
    /// # Panics
    ///
    /// Panics if `column` does not cover every contraction index the
    /// loaded elements reference.
    pub fn step_compiled(&mut self, column: &[f32], out: &mut DpeStep) -> Result<(), SigmaError> {
        self.check_program()?;
        let occ = self.occupied_prefix();
        out.useful_macs = multiply_lanes(
            &self.values[..occ],
            &self.contractions[..occ],
            column,
            1,
            1,
            &mut self.products,
        );
        self.program.execute_into(&mut self.products, &mut out.reduction);
        Ok(())
    }

    fn check_program(&self) -> Result<(), SigmaError> {
        if self.program.is_valid() {
            Ok(())
        } else {
            Err(SigmaError::Internal("Flex-DPE step without a valid compiled FAN program".into()))
        }
    }

    /// The occupied slot count. Occupancy is always a contiguous prefix
    /// (`load` packs elements into slots `0..len`), so the step functions
    /// run over plain slices instead of walking the occupancy words.
    #[inline]
    fn occupied_prefix(&self) -> usize {
        let occ = self.occupied_count;
        debug_assert_eq!(
            self.occupied_words.iter().map(|w| w.count_ones() as usize).sum::<usize>(),
            occ,
            "occupancy words out of sync with occupied_count"
        );
        debug_assert!(occ == 0 || self.slot_occupied(occ - 1), "occupancy must be a prefix");
        occ
    }

    /// Cycles until the FAN is quiescent after the last streamed wave of
    /// the current load — the drain the engine charges once per fold.
    /// Zero when nothing is loaded (the empty program drains instantly).
    #[must_use]
    pub fn drain_cycles(&self) -> u64 {
        self.program.latency_until_quiescent()
    }

    /// Batch-records the per-step telemetry of `steps` waves of the
    /// current layout. Every
    /// per-step quantity except useful MACs is a pure function of the
    /// loaded layout — `n` waves add `n×` the same counter deltas and
    /// observe the same histogram value `n` times — so the stationary
    /// engine calls this once per fold and the resulting registry state
    /// is identical to `steps` individual recordings. Useful MACs are
    /// data-dependent; the engine accumulates those separately.
    pub fn record_steps_telemetry(&self, steps: u64) {
        if !self.telemetry.is_enabled() || steps == 0 {
            return;
        }
        self.telemetry.add(Counter::StreamSteps, steps);
        let adds = self.program.adds_performed() as u64;
        let outs = self.program.output_count() as u64;
        self.telemetry.add(Counter::FanAdds, adds * steps);
        self.telemetry.add(Counter::FanClusterSums, outs * steps);
        self.telemetry.observe_n(
            Hist::FanAdderOccupancyPct,
            adds * 100 / (self.fan.adder_count() as u64).max(1),
            steps,
        );
        self.telemetry.observe_n(
            Hist::FanLinkOccupancyPct,
            outs * 100 / (self.fan.forwarding_link_count() as u64).max(1),
            steps,
        );
    }

    /// Latency components of this engine: (distribution, multiply,
    /// reduction-levels) in cycles — the paper's "1-cycle distribution,
    /// 1-cycle multiplication, 1-cycle per reduction level" pipeline.
    #[must_use]
    pub fn pipeline_depths(&self) -> (u64, u64, u64) {
        (self.benes.traversal_latency_cycles(), 1, self.fan.latency_cycles())
    }

    /// The lockstep oracle's reference step: operands through a closure,
    /// fresh buffers per wave, and the reduction re-derived by
    /// [`Fan::reduce_with_faults`] — nothing shared with the compiled
    /// program, so the oracle checks the production steps rather than
    /// mirroring them. An empty injector makes it a plain step.
    #[cfg(test)]
    pub(crate) fn step_reference(
        &self,
        operand: &dyn Fn(usize) -> f32,
        injector: &mut FaultInjector<'_>,
        dpe_index: usize,
        cycle: u64,
    ) -> Result<DpeStep, SigmaError> {
        let mut delivered = vec![0.0f32; self.size];
        let mut occupied = vec![false; self.size];
        for slot in 0..self.size {
            if self.slot_occupied(slot) {
                delivered[slot] = operand(self.contractions[slot]);
                occupied[slot] = true;
            }
        }
        injector.apply_port_faults(dpe_index, &mut delivered[..self.occupied_count], cycle);

        let mut products = vec![0.0f32; self.size];
        let mut useful = 0usize;
        for slot in 0..self.size {
            if occupied[slot] {
                let v = delivered[slot];
                if v != 0.0 {
                    useful += 1;
                }
                products[slot] =
                    injector.apply_multiplier(dpe_index, slot, self.values[slot] * v, cycle);
            }
        }
        let mut adder_faults = Vec::new();
        injector.adder_faults(dpe_index, cycle, &mut adder_faults);
        let reduction = self
            .fan
            .reduce_with_faults(&products, &self.vec_ids, &adder_faults)
            .map_err(|_| SigmaError::DpeSizeNotPowerOfTwo(self.size))?;
        Ok(DpeStep { reduction, useful_macs: useful })
    }
}

/// The product pass of the compiled steps: `tile[s * lanes + j] =
/// values[s] * stream[contractions[s] * stride + j]` for every slot `s`
/// and lane `j`, returning how many operands were non-zero (the useful
/// MACs). Each slot's lanes are one contiguous run in both buffers.
/// Always inlined, so a constant `lanes` compiles to fixed-length loops.
#[inline(always)]
fn multiply_lanes(
    values: &[f32],
    contractions: &[usize],
    stream: &[f32],
    stride: usize,
    lanes: usize,
    tile: &mut [f32],
) -> usize {
    let mut useful = 0usize;
    let rows = tile[..values.len() * lanes].chunks_exact_mut(lanes);
    for ((&v, &c), products) in values.iter().zip(contractions).zip(rows) {
        for (p, &x) in products.iter_mut().zip(&stream[c * stride..][..lanes]) {
            useful += usize::from(x != 0.0);
            *p = v * x;
        }
    }
    useful
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elements(spec: &[(usize, usize, f32)]) -> Vec<MappedElement> {
        spec.iter()
            .map(|&(group, contraction, value)| MappedElement { group, contraction, value })
            .collect()
    }

    /// The streamed column `x[k] = f(k)` for `k < len`.
    fn column(len: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..len).map(f).collect()
    }

    /// One compiled step into a fresh output.
    fn step(dpe: &mut FlexDpe, col: &[f32]) -> DpeStep {
        let mut out = DpeStep::default();
        dpe.step_compiled(col, &mut out).unwrap();
        out
    }

    fn ids(spec: &[i64], size: usize) -> Vec<Option<u32>> {
        let mut v: Vec<Option<u32>> =
            spec.iter().map(|&x| if x < 0 { None } else { Some(x as u32) }).collect();
        v.resize(size, None);
        v
    }

    #[test]
    fn construction_validates_size() {
        assert!(FlexDpe::new(16).is_ok());
        assert!(FlexDpe::new(3).is_err());
        assert!(FlexDpe::new(0).is_err());
    }

    #[test]
    fn load_and_step_computes_dot_products() {
        let mut dpe = FlexDpe::new(8).unwrap();
        // Two clusters: group 0 holds k={0,1,2}, group 1 holds k={1,3}.
        let els = elements(&[(0, 0, 2.0), (0, 1, 3.0), (0, 2, 4.0), (1, 1, 5.0), (1, 3, 6.0)]);
        dpe.load(&els, &ids(&[0, 0, 0, 1, 1], 8)).unwrap();
        assert_eq!(dpe.occupied(), 5);

        // Streamed vector: x[k] = k + 1.
        let step = step(&mut dpe, &column(4, |k| (k + 1) as f32));
        assert_eq!(step.useful_macs, 5);
        let sums: Vec<f32> = step.reduction.sums.iter().map(|s| s.value).collect();
        // group0: 2*1 + 3*2 + 4*3 = 20; group1: 5*2 + 6*4 = 34.
        assert_eq!(sums, vec![20.0, 34.0]);
    }

    #[test]
    fn step_functions_match_the_reference_step_bitwise() {
        // The compiled step, the block step armed with an injector that
        // never fires, and the oracle's reference step must agree bit for
        // bit — same products, same f32 association order, same drain.
        let plan = crate::fault::FaultPlan::none();
        let mut dpe = FlexDpe::new(8).unwrap();
        let els = elements(&[(0, 0, 2.5), (0, 1, -3.0), (0, 2, 4.0), (1, 1, 0.5), (1, 3, -6.0)]);
        dpe.load(&els, &ids(&[0, 0, 0, 1, 1], 8)).unwrap();
        let mut a = DpeStep::default();
        let mut tile = [f32::NAN; 8];
        let mut check = |dpe: &mut FlexDpe, col: &[f32], ctx: &str| {
            let mut quiet = FaultInjector::new(&plan);
            let reference = dpe.step_reference(&|k| col[k], &mut quiet, 0, 0).unwrap();
            dpe.step_compiled(col, &mut a).unwrap();
            let useful = dpe.step_block(col, 1, 1, &mut tile, Some((&mut quiet, 0, 0))).unwrap();
            assert_eq!(dpe.drain_cycles(), reference.reduction.critical_cycles, "{ctx}");
            assert_eq!(a.useful_macs, reference.useful_macs, "{ctx}");
            assert_eq!(useful, reference.useful_macs, "{ctx}");
            assert_eq!(a.reduction.adds_performed, reference.reduction.adds_performed);
            assert_eq!(a.reduction.critical_cycles, reference.reduction.critical_cycles);
            assert_eq!(a.reduction.sums.len(), reference.reduction.sums.len(), "{ctx}");
            assert_eq!(dpe.outputs().len(), reference.reduction.sums.len(), "{ctx}");
            let sums = a.reduction.sums.iter().zip(dpe.outputs());
            for ((x, (vec_id, slot)), y) in sums.zip(&reference.reduction.sums) {
                assert_eq!((x.vec_id, vec_id), (y.vec_id, y.vec_id), "{ctx}");
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "{ctx}");
                assert_eq!(tile[slot].to_bits(), y.value.to_bits(), "{ctx}");
            }
            assert!(quiet.fired().is_empty());
        };
        for wave in 0..6 {
            // Include zeros and negative zero among the streamed values.
            let col = column(4, |k| match (k + wave) % 4 {
                0 => 0.0,
                1 => -0.0,
                2 => 1.5 + wave as f32,
                _ => -2.25,
            });
            check(&mut dpe, &col, &format!("wave {wave}"));
        }
        // Reload with a different layout: the program recompiles.
        dpe.load(&elements(&[(2, 0, 1.0), (3, 1, 7.0)]), &ids(&[0, 1], 8)).unwrap();
        check(&mut dpe, &[2.0, 3.0], "reloaded");
    }

    #[test]
    fn block_step_lanes_match_the_reference_step_bitwise() {
        // A block of 6 streamed vectors, held row-major (K x 6) and offset
        // to its first step: every lane of the tile must carry the
        // reference step's cluster sums for its vector, bit for bit.
        let plan = crate::fault::FaultPlan::none();
        let mut dpe = FlexDpe::new(8).unwrap();
        let els = elements(&[(0, 0, 2.5), (0, 1, -3.0), (0, 2, 4.0), (1, 1, 0.5), (1, 3, -6.0)]);
        dpe.load(&els, &ids(&[0, 0, 0, 1, 1], 8)).unwrap();
        let (s0, lanes, stride) = (2, 6, 9);
        let value = |k: usize, step: usize| match (k + step) % 5 {
            0 => 0.0,
            1 => -0.0,
            2 => 1.5 + step as f32,
            3 => f32::MAX,
            _ => -2.25,
        };
        let stream: Vec<f32> = (0..4 * stride).map(|i| value(i / stride, i % stride)).collect();
        let mut tile = vec![f32::NAN; 8 * lanes];
        let useful = dpe.step_block(&stream[s0..], stride, lanes, &mut tile, None).unwrap();
        let mut expected_useful = 0;
        for j in 0..lanes {
            let mut quiet = FaultInjector::new(&plan);
            let reference = dpe.step_reference(&|k| value(k, s0 + j), &mut quiet, 0, 0).unwrap();
            expected_useful += reference.useful_macs;
            assert_eq!(dpe.outputs().len(), reference.reduction.sums.len());
            for ((vec_id, slot), sum) in dpe.outputs().zip(&reference.reduction.sums) {
                assert_eq!(vec_id, sum.vec_id);
                assert_eq!(tile[slot * lanes + j].to_bits(), sum.value.to_bits(), "lane {j}");
            }
        }
        assert_eq!(useful, expected_useful);
    }

    #[test]
    fn armed_block_step_applies_port_multiplier_and_adder_faults() {
        use crate::fault::{FaultKind, FaultPlan, FaultSite, StuckLevel};
        let mut dpe = FlexDpe::new(4).unwrap();
        // One cluster over slots 0..3: x0*1 + x1*2 + x2*4, summed at slot 0.
        let els = elements(&[(0, 0, 1.0), (0, 1, 2.0), (0, 2, 4.0)]);
        dpe.load(&els, &ids(&[0, 0, 0], 4)).unwrap();
        let col = [1.0f32, 1.0, 1.0];
        let mut tile = [0.0f32; 4];
        let mut step = |dpe: &mut FlexDpe, inj: &mut FaultInjector<'_>, d: usize, cycle: u64| {
            let useful = dpe.step_block(&col, 1, 1, &mut tile, Some((inj, d, cycle))).unwrap();
            (tile[0], useful)
        };
        // Port 1 dropped: its product vanishes and stops being useful.
        let drop =
            FaultPlan::single(FaultSite::BenesPort { dpe: 2, port: 1 }, FaultKind::DroppedPort);
        let mut inj = FaultInjector::new(&drop);
        assert_eq!(step(&mut dpe, &mut inj, 2, 9), (5.0, 2));
        assert_eq!(inj.fired()[0].cycle, 9);
        // The same plan on another unit fires nothing.
        let mut other = FaultInjector::new(&drop);
        assert_eq!(step(&mut dpe, &mut other, 0, 9), (7.0, 3));
        assert!(other.fired().is_empty());
        // A sign-stuck multiplier output and a sign-stuck root adder.
        let mult = FaultPlan::single(
            FaultSite::MultiplierOutput { dpe: 0, slot: 2 },
            FaultKind::StuckBit { bit: 31, level: StuckLevel::One },
        );
        assert_eq!(step(&mut dpe, &mut FaultInjector::new(&mult), 0, 0).0, -1.0);
        let adder = FaultPlan::single(
            FaultSite::FanAdder { dpe: 0, adder: 1 },
            FaultKind::StuckBit { bit: 31, level: StuckLevel::One },
        );
        let (sum, _) = step(&mut dpe, &mut FaultInjector::new(&adder), 0, 0);
        assert!(sum < 0.0, "the root add is forced negative");
        // Fault stamps are per step: an armed block must be one lane.
        let mut wide = [0.0f32; 8];
        let armed = Some((&mut inj, 2, 9));
        let err = dpe.step_block(&[1.0; 6], 2, 2, &mut wide, armed).unwrap_err();
        assert!(matches!(err, SigmaError::Internal(_)), "{err:?}");
    }

    #[test]
    fn step_compiled_without_load_is_rejected() {
        let mut dpe = FlexDpe::new(4).unwrap();
        let mut out = DpeStep::default();
        // Freshly constructed: no program compiled yet.
        assert!(dpe.step_compiled(&[1.0], &mut out).is_err());
        dpe.load(&elements(&[(0, 0, 1.0)]), &ids(&[0], 4)).unwrap();
        assert!(dpe.step_compiled(&[1.0], &mut out).is_ok());
        assert_eq!(out.reduction.sums[0].value, 1.0);
        // clear() recompiles the empty (valid) program.
        dpe.clear();
        assert!(dpe.step_compiled(&[1.0], &mut out).is_ok());
        assert!(out.reduction.sums.is_empty());
        assert_eq!(dpe.drain_cycles(), 0);
    }

    #[test]
    fn repeated_loads_hit_the_route_cache() {
        let mut dpe = FlexDpe::new(16).unwrap();
        let els = elements(&[(0, 0, 1.0), (0, 1, 2.0), (1, 2, 3.0)]);
        for _ in 0..5 {
            dpe.load(&els, &ids(&[0, 0, 1], 16)).unwrap();
        }
        assert_eq!(dpe.route_counts(), (4, 1), "one miss per distinct prefix length");
    }

    #[test]
    fn route_counts_key_on_every_prefix_length() {
        // Lengths 0 and `size` are distinct: a bitset that folded one into
        // the other would count the first 16 as a hit.
        let mut dpe = FlexDpe::new(16).unwrap();
        let els: Vec<MappedElement> =
            (0..16).map(|k| MappedElement { group: 0, contraction: k, value: 1.0 }).collect();
        for len in [3, 3, 0, 16, 0, 16, 5] {
            dpe.load(&els[..len], &ids(&vec![0; len], 16)).unwrap();
        }
        let (hits, misses) = dpe.route_counts();
        assert_eq!((misses, hits), (4, 3));
    }

    #[test]
    fn zero_operands_are_not_useful() {
        let mut dpe = FlexDpe::new(4).unwrap();
        dpe.load(&elements(&[(0, 0, 1.0), (0, 1, 1.0)]), &ids(&[0, 0], 4)).unwrap();
        let step = step(&mut dpe, &[3.0, 0.0]);
        assert_eq!(step.useful_macs, 1);
        assert_eq!(step.reduction.sums[0].value, 3.0);
    }

    #[test]
    fn clear_empties_buffers() {
        let mut dpe = FlexDpe::new(4).unwrap();
        dpe.load(&elements(&[(0, 0, 1.0)]), &ids(&[0], 4)).unwrap();
        assert_eq!(dpe.occupied(), 1);
        dpe.clear();
        assert_eq!(dpe.occupied(), 0);
        let step = step(&mut dpe, &[1.0]);
        assert!(step.reduction.sums.is_empty());
    }

    #[test]
    fn overload_rejected() {
        let mut dpe = FlexDpe::new(2).unwrap();
        let els = elements(&[(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0)]);
        assert!(dpe.load(&els, &ids(&[0, 0], 2)).is_err());
        // A cluster on a multiplier past the loaded elements.
        assert!(dpe.load(&els[..1], &ids(&[0, 0], 2)).is_err());
    }

    #[test]
    fn pipeline_depths_match_paper() {
        let dpe = FlexDpe::new(128).unwrap();
        let (dist, mul, red) = dpe.pipeline_depths();
        assert_eq!(dist, 1); // O(1) Benes traversal
        assert_eq!(mul, 1);
        assert_eq!(red, 7); // log2(128) reduction levels
    }

    #[test]
    fn telemetry_counts_loads_and_steps() {
        let mut dpe = FlexDpe::new(8).unwrap();
        let t = Telemetry::enabled();
        dpe.set_telemetry(t.clone());
        let els = elements(&[(0, 0, 2.0), (0, 1, 3.0)]);
        dpe.load(&els, &ids(&[0, 0], 8)).unwrap();
        dpe.load(&els, &ids(&[0, 0], 8)).unwrap();
        // Steps record nothing themselves; the engine batches them.
        let out = step(&mut dpe, &[1.0, 2.0]);
        assert_eq!(t.counter(Counter::StreamSteps), 0);
        dpe.record_steps_telemetry(1);
        assert_eq!(t.counter(Counter::BenesLoads), 2);
        assert_eq!(t.counter(Counter::StreamSteps), 1);
        assert_eq!(out.useful_macs, 2);
        assert_eq!(t.counter(Counter::FanClusterSums), 1);
        let snap = t.snapshot();
        assert_eq!(snap.hist("multiplier_occupancy_pct").unwrap().count, 2);
        assert_eq!(snap.hist("fan_adder_occupancy_pct").unwrap().count, 1);
    }

    #[test]
    fn variable_sized_clusters_coexist() {
        // One 1-wide, one 4-wide and one 3-wide dot product share the DPE:
        // the flexibility a rigid array lacks.
        let mut dpe = FlexDpe::new(8).unwrap();
        let els = elements(&[
            (0, 0, 1.0),
            (1, 0, 1.0),
            (1, 1, 1.0),
            (1, 2, 1.0),
            (1, 3, 1.0),
            (2, 1, 2.0),
            (2, 2, 2.0),
            (2, 3, 2.0),
        ]);
        dpe.load(&els, &ids(&[0, 1, 1, 1, 1, 2, 2, 2], 8)).unwrap();
        let step = step(&mut dpe, &[1.0; 4]);
        let sums: Vec<f32> = step.reduction.sums.iter().map(|s| s.value).collect();
        assert_eq!(sums, vec![1.0, 4.0, 6.0]);
        assert_eq!(step.reduction.adds_performed, 3 + 2);
    }
}
