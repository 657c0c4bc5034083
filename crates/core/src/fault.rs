//! Deterministic fault injection for the SIGMA datapath model.
//!
//! DNN training runs for days on thousands of accelerators, so SIGMA-class
//! hardware must assume datapath upsets *will* happen. This module models
//! them: a [`FaultPlan`] names faults by physical site ([`FaultSite`]) and
//! behaviour ([`FaultKind`]), and a [`FaultInjector`] arms the plan for
//! one run, perturbing values exactly where the real defect would — the
//! multiplier output latch, a FAN adder, a Benes output port, or a word of
//! the sparsity controller's bitmap SRAM.
//!
//! Everything is deterministic: the same plan over the same operands fires
//! the same faults at the same cycles, and an empty plan leaves the
//! simulation byte-identical to an un-instrumented run (asserted by
//! property tests in `sigma-bench`). Detection and recovery live in
//! [`SigmaSim::run_gemm_checked`](crate::SigmaSim::run_gemm_checked),
//! which pairs the injector with the ABFT checksums of `sigma_matrix::abft`.

use sigma_interconnect::{flip_bit, force_bit};
pub use sigma_interconnect::{AdderFault, StuckLevel};
use sigma_matrix::Bitmap;

/// A physical location in the modeled datapath where a fault can live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The output latch of one multiplier (`slot`) in one Flex-DPE.
    MultiplierOutput {
        /// Index of the Flex-DPE (0-based, in fold activation order).
        dpe: usize,
        /// Multiplier slot within the DPE.
        slot: usize,
    },
    /// One adder node of a Flex-DPE's FAN reduction tree.
    FanAdder {
        /// Index of the Flex-DPE.
        dpe: usize,
        /// Adder id in the FAN's 1..size numbering.
        adder: usize,
    },
    /// One output port of a Flex-DPE's Benes distribution network (the
    /// streamed operand delivered to that multiplier slot).
    BenesPort {
        /// Index of the Flex-DPE.
        dpe: usize,
        /// Output port / multiplier slot.
        port: usize,
    },
    /// One `u64` word of the streaming operand's bitmap metadata in the
    /// sparsity controller's SRAM.
    BitmapWord {
        /// Storage word index.
        word: usize,
    },
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSite::MultiplierOutput { dpe, slot } => write!(f, "mult[{dpe}.{slot}]"),
            FaultSite::FanAdder { dpe, adder } => write!(f, "fan-adder[{dpe}.{adder}]"),
            FaultSite::BenesPort { dpe, port } => write!(f, "benes-port[{dpe}.{port}]"),
            FaultSite::BitmapWord { word } => write!(f, "bitmap-word[{word}]"),
        }
    }
}

/// How a fault perturbs the value at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient single-event upset: XORs one bit of the value the
    /// *first* time the site is exercised, then disappears. Meaningful on
    /// [`FaultSite::MultiplierOutput`] and [`FaultSite::BenesPort`].
    TransientFlip {
        /// IEEE-754 bit position to flip (0 = LSB of mantissa, 31 = sign).
        bit: u32,
    },
    /// A persistent stuck-at defect: forces one bit of the value every
    /// time the site is exercised. Meaningful on
    /// [`FaultSite::MultiplierOutput`] and [`FaultSite::FanAdder`].
    StuckBit {
        /// IEEE-754 bit position.
        bit: u32,
        /// The level the bit is stuck at.
        level: StuckLevel,
    },
    /// The Benes port never delivers: the multiplier sees 0.0 every cycle.
    /// Meaningful on [`FaultSite::BenesPort`].
    DroppedPort,
    /// A wrong switch state: the port persistently receives the operand
    /// destined for port `from` instead of its own.
    /// Meaningful on [`FaultSite::BenesPort`].
    MisroutedPort {
        /// The port whose operand is (incorrectly) delivered here.
        from: usize,
    },
    /// XORs `mask` into the bitmap storage word once, before the
    /// controller builds its mapping. Meaningful on
    /// [`FaultSite::BitmapWord`].
    CorruptWord {
        /// Bits to flip in the `u64` word.
        mask: u64,
    },
}

impl FaultKind {
    /// `true` for one-shot faults that disappear after firing once.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, FaultKind::TransientFlip { .. } | FaultKind::CorruptWord { .. })
    }
}

/// One planned fault: a site plus a behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Where the fault lives.
    pub site: FaultSite,
    /// What it does to the value there.
    pub kind: FaultKind,
}

/// A deterministic set of faults to arm for a run.
///
/// The default (and [`FaultPlan::none`]) is empty: running with an empty
/// plan is byte-identical to running without instrumentation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan (injects nothing).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with exactly one fault.
    #[must_use]
    pub fn single(site: FaultSite, kind: FaultKind) -> Self {
        Self { events: vec![FaultEvent { site, kind }] }
    }

    /// Adds another fault (builder style).
    #[must_use]
    pub fn with_event(mut self, site: FaultSite, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { site, kind });
        self
    }

    /// The planned events.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` when nothing is planned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of planned events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Canonical string naming every planned fault, in plan order. An
    /// empty plan renders as `f1;` — byte-identical runs demand
    /// byte-identical plans, so result caches fold this into the cell
    /// key. The leading `f1` is the key's own layout revision.
    #[must_use]
    pub fn canonical_key(&self) -> String {
        use std::fmt::Write as _;
        let mut key = String::from("f1;");
        for event in &self.events {
            let _ = write!(key, "{}:", event.site);
            match event.kind {
                FaultKind::TransientFlip { bit } => {
                    let _ = write!(key, "flip[{bit}]");
                }
                FaultKind::StuckBit { bit, level } => {
                    let level = match level {
                        StuckLevel::Zero => 0,
                        StuckLevel::One => 1,
                    };
                    let _ = write!(key, "stuck[{bit}={level}]");
                }
                FaultKind::DroppedPort => key.push_str("dropped"),
                FaultKind::MisroutedPort { from } => {
                    let _ = write!(key, "misrouted[{from}]");
                }
                FaultKind::CorruptWord { mask } => {
                    let _ = write!(key, "corrupt[{mask:016x}]");
                }
            }
            key.push(';');
        }
        key
    }
}

/// A fault that actually fired during a run, stamped with where and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiredFault {
    /// Total-cycle timestamp at which the fault first perturbed a value.
    pub cycle: u64,
    /// The site it fired at.
    pub site: FaultSite,
    /// The behaviour that fired.
    pub kind: FaultKind,
}

/// Per-run fault accounting, mirrored into
/// [`CycleStats`](crate::CycleStats) by the checked-run entry points.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Fault events that fired (perturbed at least one value).
    pub injected: u64,
    /// ABFT detections (one per checksum pass that flagged the result).
    pub detected: u64,
    /// Successful remediations (in-place correction or recompute) with
    /// the result verified clean afterwards.
    pub corrected: u64,
    /// Runs whose final result is wrong: undetected by the checksums or
    /// uncorrectable within the recompute budget.
    pub escaped: u64,
}

/// What happened, fault-wise, during one (possibly recomputed) run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// Every fault that fired, with cycle and site.
    pub fired: Vec<FiredFault>,
    /// The injected/detected/corrected/escaped tally.
    pub counters: FaultCounters,
    /// Number of full datapath executions (1 = no recompute needed).
    pub attempts: u32,
    /// `true` when the first attempt's result differed from the
    /// fault-free result by more than the verification tolerance — i.e.
    /// the fault had a *numeric* effect rather than being masked.
    pub numeric_effect: bool,
}

/// Arms a [`FaultPlan`] for one run and applies it site by site.
///
/// The engine threads an `Option<&mut FaultInjector>` through its
/// datapath; `None` (the default) costs nothing and changes nothing.
/// Transient events are consumed on first firing and stay consumed across
/// ABFT recomputes — a single-event upset does not recur — while stuck-at
/// and misroute defects keep applying on every attempt.
#[derive(Debug)]
pub struct FaultInjector<'a> {
    plan: &'a FaultPlan,
    /// One-shot events already consumed (index-parallel with the plan).
    consumed: Vec<bool>,
    /// Events whose first firing has been recorded (persistent faults
    /// keep applying but are only recorded once).
    recorded: Vec<bool>,
    fired: Vec<FiredFault>,
    /// Pre-fault operand copy reused by [`FaultInjector::apply_port_faults`].
    port_scratch: Vec<f32>,
}

impl<'a> FaultInjector<'a> {
    /// Arms `plan` for one run.
    #[must_use]
    pub fn new(plan: &'a FaultPlan) -> Self {
        let n = plan.events.len();
        Self {
            plan,
            consumed: vec![false; n],
            recorded: vec![false; n],
            fired: Vec::new(),
            port_scratch: Vec::new(),
        }
    }

    /// `true` when the plan is empty (nothing will ever fire).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// The faults that have fired so far.
    #[must_use]
    pub fn fired(&self) -> &[FiredFault] {
        &self.fired
    }

    /// Stable-sorts by cycle the faults fired after the first `from`
    /// entries. A scheduler that runs one unit through all its steps before
    /// the next unit records faults unit-major; the sort restores the
    /// step-major (cycle, then unit) order of a cycle-by-cycle walk. Only
    /// sort within one fold: cycles restart with every run attempt.
    pub(crate) fn sort_fired_since(&mut self, from: usize) {
        self.fired[from..].sort_by_key(|f| f.cycle);
    }

    fn record(&mut self, idx: usize, cycle: u64) {
        if !self.recorded[idx] {
            self.recorded[idx] = true;
            let e = self.plan.events[idx];
            self.fired.push(FiredFault { cycle, site: e.site, kind: e.kind });
        }
    }

    /// Applies the pending bitmap-word corruptions (one-shot) to a copy
    /// of `bitmap`, the streaming operand's metadata. A fault's word
    /// indexes the canonical `K x S` bitmap; with `transposed` the stored
    /// `bitmap` is its `S x K` transpose, and the word's bits land on
    /// their transposed positions ([`Bitmap::xor_transposed_word`]). A
    /// corruption is recorded as fired only when it flips an in-range
    /// bit: a word past the end, or a mask whose bits all lie past the
    /// bitmap's logical end, changes nothing and is consumed silently.
    /// Returns the corrupted copy, in the stored orientation, or `None`
    /// when no bit flipped.
    pub fn corrupt_bitmap(
        &mut self,
        bitmap: &Bitmap,
        transposed: bool,
        cycle: u64,
    ) -> Option<Bitmap> {
        let mut corrupted: Option<Bitmap> = None;
        for idx in 0..self.plan.events.len() {
            let e = self.plan.events[idx];
            let (FaultSite::BitmapWord { word }, FaultKind::CorruptWord { mask }) =
                (e.site, e.kind)
            else {
                continue;
            };
            if self.consumed[idx] {
                continue;
            }
            self.consumed[idx] = true;
            if word >= bitmap.word_count() {
                continue;
            }
            let copy = corrupted.get_or_insert_with(|| bitmap.clone());
            let flipped = if transposed {
                copy.xor_transposed_word(word, mask)
            } else {
                copy.xor_word(word, mask)
            };
            if flipped != 0 {
                self.record(idx, cycle);
            }
        }
        corrupted.filter(|bm| bm != bitmap)
    }

    /// Replaces the contents of `out` with the stuck-at defects armed on
    /// `dpe`'s FAN adders, in plan order, recording each as fired the first
    /// time that DPE reduces with it armed. A caller that reuses `out`
    /// lists the faults without allocating once it has held them all.
    pub fn adder_faults(&mut self, dpe: usize, cycle: u64, out: &mut Vec<AdderFault>) {
        out.clear();
        for idx in 0..self.plan.events.len() {
            let e = self.plan.events[idx];
            if let (FaultSite::FanAdder { dpe: d, adder }, FaultKind::StuckBit { bit, level }) =
                (e.site, e.kind)
            {
                if d == dpe {
                    self.record(idx, cycle);
                    out.push(AdderFault { adder, bit, level });
                }
            }
        }
    }

    /// Applies Benes delivery faults to the operands arriving at `dpe`'s
    /// occupied multiplier slots (`delivered[slot]`, a contiguous prefix)
    /// — faults only fire where a delivery actually happens. A misrouted
    /// port reads the pre-fault operand of port `from`, or 0.0 when that
    /// port is idle.
    pub fn apply_port_faults(&mut self, dpe: usize, delivered: &mut [f32], cycle: u64) {
        let mut original = std::mem::take(&mut self.port_scratch);
        original.clear();
        original.extend_from_slice(delivered);
        for idx in 0..self.plan.events.len() {
            let e = self.plan.events[idx];
            let FaultSite::BenesPort { dpe: d, port } = e.site else { continue };
            if d != dpe || port >= delivered.len() {
                continue;
            }
            match e.kind {
                FaultKind::DroppedPort => {
                    delivered[port] = 0.0;
                    self.record(idx, cycle);
                }
                FaultKind::MisroutedPort { from } => {
                    delivered[port] = original.get(from).copied().unwrap_or(0.0);
                    self.record(idx, cycle);
                }
                FaultKind::TransientFlip { bit } if !self.consumed[idx] => {
                    self.consumed[idx] = true;
                    delivered[port] = flip_bit(delivered[port], bit);
                    self.record(idx, cycle);
                }
                _ => {}
            }
        }
        self.port_scratch = original;
    }

    /// Applies multiplier-output faults to the product computed at
    /// `(dpe, slot)`, returning the (possibly corrupted) value.
    #[must_use]
    pub fn apply_multiplier(&mut self, dpe: usize, slot: usize, product: f32, cycle: u64) -> f32 {
        let mut v = product;
        for idx in 0..self.plan.events.len() {
            let e = self.plan.events[idx];
            let FaultSite::MultiplierOutput { dpe: d, slot: s } = e.site else { continue };
            if d != dpe || s != slot {
                continue;
            }
            match e.kind {
                FaultKind::TransientFlip { bit } if !self.consumed[idx] => {
                    self.consumed[idx] = true;
                    v = flip_bit(v, bit);
                    self.record(idx, cycle);
                }
                FaultKind::StuckBit { bit, level } => {
                    v = force_bit(v, bit, level);
                    self.record(idx, cycle);
                }
                _ => {}
            }
        }
        v
    }

    /// Consumes the injector into a report (counters hold only the
    /// injected tally; detection/correction is filled in by the checked
    /// run entry points).
    #[must_use]
    pub fn into_report(self) -> FaultReport {
        let injected = self.fired.len() as u64;
        FaultReport {
            fired: self.fired,
            counters: FaultCounters { injected, ..FaultCounters::default() },
            attempts: 1,
            numeric_effect: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::none();
        let mut inj = FaultInjector::new(&plan);
        assert!(inj.is_empty());
        let mut delivered = [1.0f32, 2.0];
        inj.apply_port_faults(0, &mut delivered, 0);
        assert_eq!(delivered, [1.0, 2.0]);
        assert_eq!(inj.apply_multiplier(0, 0, 3.5, 0), 3.5);
        let mut adder = vec![AdderFault { adder: 1, bit: 0, level: StuckLevel::One }];
        inj.adder_faults(0, 0, &mut adder);
        assert!(adder.is_empty(), "the buffer is replaced, not appended to");
        assert!(inj.corrupt_bitmap(&Bitmap::new(2, 2), false, 0).is_none());
        assert!(inj.into_report().fired.is_empty());
    }

    #[test]
    fn transient_flip_fires_exactly_once() {
        let plan = FaultPlan::single(
            FaultSite::MultiplierOutput { dpe: 1, slot: 3 },
            FaultKind::TransientFlip { bit: 31 },
        );
        let mut inj = FaultInjector::new(&plan);
        // Wrong site: untouched.
        assert_eq!(inj.apply_multiplier(1, 2, 4.0, 10), 4.0);
        // First hit on the site: sign flip.
        assert_eq!(inj.apply_multiplier(1, 3, 4.0, 11), -4.0);
        // Second hit: the transient is gone.
        assert_eq!(inj.apply_multiplier(1, 3, 4.0, 12), 4.0);
        let report = inj.into_report();
        assert_eq!(report.fired.len(), 1);
        assert_eq!(report.fired[0].cycle, 11);
        assert_eq!(report.counters.injected, 1);
    }

    #[test]
    fn stuck_bit_is_persistent_but_recorded_once() {
        let plan = FaultPlan::single(
            FaultSite::MultiplierOutput { dpe: 0, slot: 0 },
            FaultKind::StuckBit { bit: 31, level: StuckLevel::One },
        );
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.apply_multiplier(0, 0, 2.0, 5), -2.0);
        assert_eq!(inj.apply_multiplier(0, 0, 2.0, 6), -2.0);
        assert_eq!(inj.fired().len(), 1);
        assert_eq!(inj.fired()[0].cycle, 5);
    }

    #[test]
    fn port_faults_drop_misroute_and_flip() {
        let plan =
            FaultPlan::single(FaultSite::BenesPort { dpe: 0, port: 0 }, FaultKind::DroppedPort)
                .with_event(
                    FaultSite::BenesPort { dpe: 0, port: 1 },
                    FaultKind::MisroutedPort { from: 2 },
                )
                .with_event(
                    FaultSite::BenesPort { dpe: 0, port: 2 },
                    FaultKind::TransientFlip { bit: 31 },
                );
        let mut inj = FaultInjector::new(&plan);
        let mut d = [10.0f32, 20.0, 30.0];
        inj.apply_port_faults(0, &mut d, 7);
        // Drop, misroute (pre-fault value of port 2), sign-flip.
        assert_eq!(d, [0.0, 30.0, -30.0]);
        // Persistent faults keep applying; the transient is spent.
        let mut d2 = [10.0f32, 20.0, 30.0];
        inj.apply_port_faults(0, &mut d2, 8);
        assert_eq!(d2, [0.0, 30.0, 30.0]);
        // Ports past the occupied prefix never fire, and a misroute from
        // an idle port delivers 0.0.
        let mut d3 = [1.0f32, 1.0];
        inj.apply_port_faults(0, &mut d3, 9);
        assert_eq!(d3, [0.0, 0.0]);
        let mut d4: [f32; 0] = [];
        inj.apply_port_faults(0, &mut d4, 10);
        assert_eq!(inj.fired().len(), 3);
    }

    #[test]
    fn bitmap_corruptions_drain_once() {
        let plan = FaultPlan::single(
            FaultSite::BitmapWord { word: 2 },
            FaultKind::CorruptWord { mask: 0b1010 },
        );
        let clean = Bitmap::new(12, 16); // 192 bits: three words
        let mut inj = FaultInjector::new(&plan);
        let corrupted = inj.corrupt_bitmap(&clean, false, 0).unwrap();
        assert!(corrupted.get(8, 1) && corrupted.get(8, 3));
        assert_eq!(corrupted.count_ones(), 2);
        assert_eq!(inj.fired().len(), 1);
        assert!(inj.corrupt_bitmap(&clean, false, 0).is_none());
        assert_eq!(inj.fired().len(), 1);
    }

    #[test]
    fn bitmap_corruptions_keep_the_canonical_word_on_a_transposed_store() {
        // Canonical 12 x 10 (two words, the second partly past the end),
        // stored as its 10 x 12 transpose.
        let mut canonical = Bitmap::new(12, 10);
        for i in (0..120).step_by(7) {
            canonical.set(i / 10, i % 10, true);
        }
        let stored = canonical.transposed();
        for (word, mask) in [(0, u64::MAX), (1, 0x0f0f_0f0f_0f0f_0f0f), (1, 1 << 60), (2, 1)] {
            let plan =
                FaultPlan::single(FaultSite::BitmapWord { word }, FaultKind::CorruptWord { mask });
            let (mut on_canonical, mut on_stored) =
                (FaultInjector::new(&plan), FaultInjector::new(&plan));
            let want = on_canonical.corrupt_bitmap(&canonical, false, 3);
            let got = on_stored.corrupt_bitmap(&stored, true, 3);
            assert_eq!(got, want.map(|bm| bm.transposed()), "word {word} mask {mask:#x}");
            assert_eq!(on_stored.fired(), on_canonical.fired(), "word {word} mask {mask:#x}");
        }
    }

    #[test]
    fn bitmap_corruptions_that_flip_nothing_are_not_recorded() {
        // 12 x 10 = 120 bits: word 1 holds bits 64..120, so bit 60 of word
        // 1 lies past the logical end, and words 2 and 3 do not exist.
        let clean = Bitmap::new(12, 10);
        for (word, mask) in [(2, 1u64), (3, 1 << 5), (1, 1 << 60)] {
            let plan =
                FaultPlan::single(FaultSite::BitmapWord { word }, FaultKind::CorruptWord { mask });
            let mut inj = FaultInjector::new(&plan);
            assert!(inj.corrupt_bitmap(&clean, false, 0).is_none(), "word {word} mask {mask:#x}");
            assert!(inj.fired().is_empty(), "word {word} mask {mask:#x}");
        }
        // Only the in-range half of a straddling mask fires.
        let plan = FaultPlan::single(
            FaultSite::BitmapWord { word: 1 },
            FaultKind::CorruptWord { mask: (1 << 60) | 1 },
        )
        .with_event(FaultSite::BitmapWord { word: 7 }, FaultKind::CorruptWord { mask: 1 });
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.corrupt_bitmap(&clean, false, 0).unwrap().count_ones(), 1);
        assert_eq!(inj.fired().len(), 1);
    }

    #[test]
    fn adder_faults_filter_by_dpe() {
        let plan = FaultPlan::single(
            FaultSite::FanAdder { dpe: 3, adder: 5 },
            FaultKind::StuckBit { bit: 30, level: StuckLevel::Zero },
        );
        let mut inj = FaultInjector::new(&plan);
        let mut f = Vec::new();
        inj.adder_faults(0, 0, &mut f);
        assert!(f.is_empty());
        inj.adder_faults(3, 4, &mut f);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].adder, 5);
        assert_eq!(inj.fired().len(), 1);
    }

    #[test]
    fn sites_and_kinds_classify_and_display() {
        assert!(FaultKind::TransientFlip { bit: 4 }.is_transient());
        assert!(FaultKind::CorruptWord { mask: 1 }.is_transient());
        assert!(!FaultKind::DroppedPort.is_transient());
        assert!(!FaultKind::StuckBit { bit: 0, level: StuckLevel::One }.is_transient());
        assert_eq!(FaultSite::MultiplierOutput { dpe: 1, slot: 2 }.to_string(), "mult[1.2]");
        assert_eq!(FaultSite::BitmapWord { word: 7 }.to_string(), "bitmap-word[7]");
    }

    #[test]
    fn plan_builders_compose() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        let p = p.with_event(FaultSite::BitmapWord { word: 0 }, FaultKind::CorruptWord { mask: 1 });
        assert_eq!(p.len(), 1);
        assert_eq!(p.events()[0].site, FaultSite::BitmapWord { word: 0 });
    }

    #[test]
    fn plan_canonical_key_renders_every_kind() {
        assert_eq!(FaultPlan::none().canonical_key(), "f1;");
        let plan = FaultPlan::single(
            FaultSite::MultiplierOutput { dpe: 1, slot: 2 },
            FaultKind::TransientFlip { bit: 30 },
        )
        .with_event(
            FaultSite::FanAdder { dpe: 0, adder: 3 },
            FaultKind::StuckBit { bit: 22, level: StuckLevel::One },
        )
        .with_event(FaultSite::BenesPort { dpe: 2, port: 5 }, FaultKind::DroppedPort)
        .with_event(FaultSite::BenesPort { dpe: 2, port: 6 }, FaultKind::MisroutedPort { from: 1 })
        .with_event(FaultSite::BitmapWord { word: 4 }, FaultKind::CorruptWord { mask: 0xff });
        assert_eq!(
            plan.canonical_key(),
            "f1;mult[1.2]:flip[30];fan-adder[0.3]:stuck[22=1];benes-port[2.5]:dropped;\
             benes-port[2.6]:misrouted[1];bitmap-word[4]:corrupt[00000000000000ff];"
        );
        // Order matters: the same events in a different order are a
        // different plan (faults interact), so keys must differ too.
        let swapped = FaultPlan::single(
            FaultSite::FanAdder { dpe: 0, adder: 3 },
            FaultKind::StuckBit { bit: 22, level: StuckLevel::One },
        )
        .with_event(
            FaultSite::MultiplierOutput { dpe: 1, slot: 2 },
            FaultKind::TransientFlip { bit: 30 },
        );
        assert_ne!(
            plan.canonical_key()[..40],
            swapped.canonical_key()[..40],
            "event order is part of the key"
        );
    }
}
