//! Verifies the allocation-free claim for the simulation hot loops: after
//! a warmup pass, `FlexDpe::load` (of a repeated or a first-seen prefix
//! length), the engine's block step `FlexDpe::step_block` (clean, and as
//! a one-lane step armed with a Benes-port fault, a multiplier stuck bit
//! and a stuck adder), the one-vector step `FlexDpe::step_compiled` and
//! `Fan::reduce_into` perform **zero** heap allocations; recording
//! telemetry adds as many allocations to a stationary GEMM whatever its
//! number of folds; and a No-Local-Reuse GEMM allocates as often whatever
//! its number of useful pairs.
//!
//! A counting `#[global_allocator]` makes the claim checkable instead of
//! aspirational. This file intentionally holds a single `#[test]`: the
//! counter is process-wide, and sibling tests running on other threads
//! would pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sigma_core::{
    Dataflow, DpeStep, FaultInjector, FaultKind, FaultPlan, FaultSite, FlexDpe, MappedElement,
    SigmaConfig, SigmaSim,
};
use sigma_interconnect::{Fan, FanReduction, FanScratch, StuckLevel};
use sigma_matrix::gen::{sparse_uniform, Density};
use sigma_matrix::SparseMatrix;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations performed while running `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

/// Minimum allocation count over `n` attempts (robust against one-off
/// lazy initialization inside the standard library).
fn min_allocations_over<R>(n: usize, mut f: impl FnMut() -> R) -> u64 {
    (0..n).map(|_| allocations_during(&mut f).0).min().unwrap()
}

/// Streamed columns `x[k] = k + shift` over the fold's 8 contraction
/// indices, built before any measurement starts.
fn columns(shifts: usize) -> Vec<Vec<f32>> {
    (0..shifts).map(|s| (0..8).map(|k| k as f32 + s as f32).collect()).collect()
}

fn elements(spec: &[(usize, usize, f32)]) -> Vec<MappedElement> {
    spec.iter()
        .map(|&(group, contraction, value)| MappedElement { group, contraction, value })
        .collect()
}

#[test]
fn warmed_hot_loops_do_not_allocate() {
    const SIZE: usize = 64;
    let mut dpe = FlexDpe::new(SIZE).unwrap();

    // An irregular three-cluster fold.
    let els = elements(&[
        (0, 0, 2.0),
        (0, 3, 1.5),
        (0, 5, -1.0),
        (1, 1, 4.0),
        (1, 2, 0.5),
        (2, 0, 3.0),
        (2, 4, 2.5),
        (2, 6, 1.0),
        (2, 7, -2.0),
    ]);
    let mut ids: Vec<Option<u32>> = vec![None; SIZE];
    for (slot, id) in [0u32, 0, 0, 1, 1, 2, 2, 2, 2].iter().enumerate() {
        ids[slot] = Some(*id);
    }

    // Warmup: scratch capacity growth, first reduction.
    dpe.load(&els, &ids).unwrap();
    let cols = columns(4);
    let mut out = DpeStep::default();
    dpe.step_compiled(&cols[0], &mut out).unwrap();
    assert_eq!(dpe.route_counts(), (0, 1));

    // Steady state: reloading the same fold pattern (a route-cache hit)
    // refills the flattened store in place — zero allocations.
    let reload = min_allocations_over(3, || dpe.load(&els, &ids).unwrap());
    assert_eq!(reload, 0, "warmed load allocated {reload} times");
    assert_eq!(dpe.route_counts(), (3, 1));

    // Streaming: multiply + compiled FAN replay through reused scratch.
    let mut wave = 0usize;
    let stepping = min_allocations_over(3, || {
        wave += 1;
        dpe.step_compiled(&cols[wave], &mut out).unwrap();
    });
    assert_eq!(stepping, 0, "warmed step_compiled allocated {stepping} times");
    assert_eq!(out.useful_macs, 9);

    // The engine's block step: products and the FAN replay run over a
    // caller-owned tile, 32 streamed vectors at a time, from a row-major
    // 8 x 40 streaming buffer.
    const STEPS: usize = 40;
    let stream: Vec<f32> = (0..8 * STEPS).map(|i| (i % 7) as f32 - 1.0).collect();
    let mut tile = vec![0.0f32; SIZE * 32];
    dpe.step_block(&stream, STEPS, 32, &mut tile, None).unwrap();
    let mut block = 0usize;
    let blocking = min_allocations_over(3, || {
        block += 1;
        dpe.step_block(&stream[block..], STEPS, 32, &mut tile, None).unwrap()
    });
    assert_eq!(blocking, 0, "warmed step_block allocated {blocking} times");

    // The armed one-lane step with every datapath fault kind on this unit:
    // a dropped Benes port, a stuck multiplier-output bit and a stuck
    // adder. The injector reuses its port scratch and the unit lists the
    // adder faults into a buffer it keeps, so once the first step has
    // recorded the firings, stepping allocates nothing.
    let plan = FaultPlan::single(FaultSite::BenesPort { dpe: 0, port: 1 }, FaultKind::DroppedPort)
        .with_event(
            FaultSite::MultiplierOutput { dpe: 0, slot: 2 },
            FaultKind::StuckBit { bit: 31, level: StuckLevel::One },
        )
        .with_event(
            FaultSite::FanAdder { dpe: 0, adder: 0 },
            FaultKind::StuckBit { bit: 30, level: StuckLevel::One },
        );
    let mut injector = FaultInjector::new(&plan);
    dpe.step_block(&stream, STEPS, 1, &mut tile, Some((&mut injector, 0, 0))).unwrap();
    assert_eq!(injector.fired().len(), 3);
    let mut step = 0u64;
    let faulted = min_allocations_over(3, || {
        step += 1;
        let armed = Some((&mut injector, 0, step));
        dpe.step_block(&stream[step as usize..], STEPS, 1, &mut tile, armed).unwrap()
    });
    assert_eq!(faulted, 0, "warmed armed step_block allocated {faulted} times");

    // A prefix length the unit has never loaded (a route-cache miss) loads
    // without allocating too: counting it routes nothing, and the FAN
    // program recompiles into the capacity the longer layout left.
    let short_ids: Vec<Option<u32>> = ids[..5].iter().copied().chain([None; SIZE - 5]).collect();
    let (first_seen, ()) = allocations_during(|| dpe.load(&els[..5], &short_ids).unwrap());
    assert_eq!(first_seen, 0, "first load of a new prefix length allocated {first_seen} times");
    assert_eq!(dpe.route_counts(), (3, 2));

    // The runtime FAN walk in isolation.
    let fan = Fan::new(SIZE).unwrap();
    let mut products = vec![0.0f32; SIZE];
    for (slot, p) in products.iter_mut().enumerate().take(9) {
        *p = slot as f32 + 1.0;
    }
    let mut scratch = FanScratch::default();
    let mut red = FanReduction::default();
    fan.reduce_into(&products, &ids, &[], &mut scratch, &mut red).unwrap();
    let reducing = min_allocations_over(3, || {
        fan.reduce_into(&products, &ids, &[], &mut scratch, &mut red).unwrap();
    });
    assert_eq!(reducing, 0, "warmed reduce_into allocated {reducing} times");
    assert_eq!(red.sums.len(), 3);

    // Recording telemetry allocates nothing per fold or step: histograms
    // are preallocated atomics. On the production path, a telemetry-on
    // run of a stationary GEMM allocates as many times more than a
    // telemetry-off run as it does on a GEMM with 4x the folds.
    let is = SigmaConfig::new(4, 16, 64, Dataflow::InputStationary).unwrap();
    let (off, on) = (SigmaSim::new(is).unwrap(), SigmaSim::new(is.with_telemetry(true)).unwrap());
    let half = Density::new(0.5).unwrap();
    let b = sparse_uniform(32, 24, half, 15);
    let (a, a4) = (sparse_uniform(16, 32, half, 16), sparse_uniform(64, 32, half, 17));
    let extra = |a: &SparseMatrix| {
        let run = |sim: &SigmaSim| min_allocations_over(3, || sim.run_gemm(a, &b).unwrap());
        (run(&on) - run(&off), off.run_gemm(a, &b).unwrap().stats.folds)
    };
    let ((short, folds), (long, folds4)) = (extra(&a), extra(&a4));
    assert!(folds >= 2 && folds4 >= 4 * folds, "{folds} vs {folds4} folds");
    assert_eq!(long, short, "telemetry allocations grew with the fold count");

    // No-Local-Reuse holds no per-pair storage: a GEMM with 8x the
    // contraction, so about 8x the useful pairs and waves, allocates
    // exactly as often (operand packing, one wave, the result).
    let nlr = SigmaSim::new(SigmaConfig::new(4, 16, 64, Dataflow::NoLocalReuse).unwrap()).unwrap();
    let half = Density::new(0.5).unwrap();
    let (a, b) = (sparse_uniform(24, 64, half, 11), sparse_uniform(64, 24, half, 12));
    let (a8, b8) = (sparse_uniform(24, 512, half, 13), sparse_uniform(512, 24, half, 14));
    let (short, run) = allocations_during(|| nlr.run_gemm(&a, &b).unwrap());
    let (long, run8) = allocations_during(|| nlr.run_gemm(&a8, &b8).unwrap());
    assert!(run8.stats.useful_macs > 6 * run.stats.useful_macs, "{run8:?}");
    assert!(run8.stats.folds > 6 * run.stats.folds);
    assert_eq!(long, short, "NLR allocations grew with the pair count");

    // Sanity: the counter itself is live (an intentional allocation is
    // seen), so the zeros above are meaningful.
    let (n, v) = allocations_during(|| vec![1u8; 4096]);
    assert!(n > 0, "allocation counter failed to observe a Vec allocation");
    drop(v);
}
