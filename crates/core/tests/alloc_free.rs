//! Verifies the allocation-free claim for the simulation hot loops: after
//! a warmup pass, `FlexDpe::load` (route-cache hit), the engine's
//! streaming step `FlexDpe::step_compiled` (telemetry off and on) and
//! `Fan::reduce_into` perform **zero** heap allocations.
//!
//! A counting `#[global_allocator]` makes the claim checkable instead of
//! aspirational. This file intentionally holds a single `#[test]`: the
//! counter is process-wide, and sibling tests running on other threads
//! would pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sigma_core::{DpeStep, FlexDpe, MappedElement, Telemetry};
use sigma_interconnect::{Fan, FanReduction, FanScratch};

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

    // Warmup: cold route, scratch capacity growth, first reduction.
    dpe.load(&els, &ids).unwrap();
    let cols = columns(4);
    let mut out = DpeStep::default();
    dpe.step_compiled(&cols[0], &mut out).unwrap();
    assert_eq!(dpe.route_cache().misses(), 1);

    // Steady state: reloading the same fold pattern hits the route cache
    // and refills the flattened store in place — zero allocations.
    let reload = min_allocations_over(3, || dpe.load(&els, &ids).unwrap());
    assert_eq!(reload, 0, "warmed load allocated {reload} times");
    assert!(dpe.route_cache().hits() >= 3);

    // Streaming: multiply + compiled FAN replay through reused scratch.
    let mut wave = 0usize;
    let stepping = min_allocations_over(3, || {
        wave += 1;
        dpe.step_compiled(&cols[wave], &mut out).unwrap();
    });
    assert_eq!(stepping, 0, "warmed step_compiled allocated {stepping} times");
    assert_eq!(out.useful_macs, 9);

    // The FAN reduction path in isolation, as the NLR dataflow drives it.
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

    // Telemetry-enabled hot loops are allocation-free too: counters and
    // histograms are preallocated atomics, so recording is an array index
    // plus a relaxed fetch_add.
    let mut tdpe = FlexDpe::new(SIZE).unwrap();
    tdpe.set_telemetry(Telemetry::enabled());
    tdpe.load(&els, &ids).unwrap();
    let mut tout = DpeStep::default();
    tdpe.step_compiled(&cols[0], &mut tout).unwrap();
    tdpe.record_steps_telemetry(1);
    let treload = min_allocations_over(3, || tdpe.load(&els, &ids).unwrap());
    assert_eq!(treload, 0, "telemetry-enabled load allocated {treload} times");
    // The engine steps, then batch-records the fold's per-step telemetry.
    let tstepping = min_allocations_over(3, || {
        tdpe.step_compiled(&cols[1], &mut tout).unwrap();
        tdpe.record_steps_telemetry(1);
    });
    assert_eq!(tstepping, 0, "telemetry-enabled step_compiled allocated {tstepping} times");

    // A disabled telemetry handle is byte-identical to never attaching
    // one: the datapath never branches on telemetry for anything but
    // recording, so the step outputs match bit for bit.
    let mut plain = FlexDpe::new(SIZE).unwrap();
    let mut disabled = FlexDpe::new(SIZE).unwrap();
    disabled.set_telemetry(Telemetry::off());
    plain.load(&els, &ids).unwrap();
    disabled.load(&els, &ids).unwrap();
    let mut out_plain = DpeStep::default();
    let mut out_disabled = DpeStep::default();
    let col: Vec<f32> = (0..8).map(|k| k as f32 * 0.5 - 1.0).collect();
    plain.step_compiled(&col, &mut out_plain).unwrap();
    disabled.step_compiled(&col, &mut out_disabled).unwrap();
    assert_eq!(out_plain, out_disabled);
    for (a, b) in out_plain.reduction.sums.iter().zip(&out_disabled.reduction.sums) {
        assert_eq!(a.value.to_bits(), b.value.to_bits(), "cluster {} diverged bitwise", a.vec_id);
    }

    // Sanity: the counter itself is live (an intentional allocation is
    // seen), so the zeros above are meaningful.
    let (n, v) = allocations_during(|| vec![1u8; 4096]);
    assert!(n > 0, "allocation counter failed to observe a Vec allocation");
    drop(v);
}
