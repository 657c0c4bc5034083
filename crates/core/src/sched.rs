//! Deterministic event queue for the epoch-driven simulation core.
//!
//! A lockstep tick loop pays one iteration per streaming cycle per
//! Flex-DPE even when nothing interesting happens. The event scheduler
//! instead lets each actor (the stationary loader, the streaming
//! front-end, and the FAN drain) register its *next interesting cycle*,
//! and the engine jumps the cycle cursor straight there, batching all
//! word-level occupancy/statistics updates for the skipped stretch.
//!
//! Determinism (sigma-lint D1) is by construction:
//!
//! * Events are keyed `(cycle, seq)` in a [`BTreeMap`], so pops are
//!   totally ordered — first by cycle, then by insertion sequence. Two
//!   events scheduled for the same cycle fire in the order they were
//!   pushed, independent of hash state or allocation addresses.
//! * `seq` is a monotone counter owned by the queue; no wall-clock time,
//!   no randomness, no pointer identity ever enters the ordering.
//!
//! The engine's handlers therefore produce an identical event history —
//! and identical statistics, traces, fault reports and outputs — on every
//! run, which is what lets the engine's unit tests assert bitwise
//! equality against a tick-loop oracle that only exists in test builds.

use std::collections::BTreeMap;

/// What the engine should do when the cycle cursor reaches an event.
///
/// The per-fold protocol is a three-stage chain: `LoadFold(f)` charges
/// the (visible) stationary load and schedules `Stream(f)`; `Stream(f)`
/// batches the whole streaming phase — live steps compute, dead runs
/// fast-forward — and schedules `Drain(f)`; `Drain(f)` charges the final
/// FAN drain (the fold's `latency_until_quiescent`) and schedules
/// `LoadFold(f + 1)` if another fold remains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Load stationary fold `.0` into the Flex-DPEs.
    LoadFold(usize),
    /// Stream the moving matrix through fold `.0`.
    Stream(usize),
    /// Drain the last reduction wave of fold `.0`.
    Drain(usize),
}

/// A deterministic time-ordered event queue keyed by simulation cycle.
///
/// See the module docs for the determinism argument. The queue is
/// intentionally minimal: the engine is the only producer and consumer,
/// and events carry indices (not closures) so the whole schedule is
/// inspectable and `Debug`-printable.
#[derive(Debug, Default)]
pub struct EventQueue {
    events: BTreeMap<(u64, u64), Event>,
    seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute `cycle`. Events at the same cycle
    /// fire in push order.
    pub fn push(&mut self, cycle: u64, event: Event) {
        self.events.insert((cycle, self.seq), event);
        self.seq += 1;
    }

    /// Pops the earliest event, returning `(cycle, event)`; `None` when
    /// the schedule has quiesced.
    pub fn pop(&mut self) -> Option<(u64, Event)> {
        let key = *self.events.keys().next()?;
        let event = self.events.remove(&key)?;
        Some((key.0, event))
    }

    /// The cycle of the earliest pending event, if any.
    #[must_use]
    pub fn peek_cycle(&self) -> Option<u64> {
        self.events.keys().next().map(|&(cycle, _)| cycle)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_cycle_order() {
        let mut q = EventQueue::new();
        q.push(10, Event::Stream(0));
        q.push(3, Event::LoadFold(0));
        q.push(7, Event::Drain(0));
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_cycle(), Some(3));
        assert_eq!(q.pop(), Some((3, Event::LoadFold(0))));
        assert_eq!(q.pop(), Some((7, Event::Drain(0))));
        assert_eq!(q.pop(), Some((10, Event::Stream(0))));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn same_cycle_ties_break_by_push_order() {
        let mut q = EventQueue::new();
        q.push(5, Event::Drain(1));
        q.push(5, Event::LoadFold(2));
        q.push(5, Event::Stream(3));
        assert_eq!(q.pop(), Some((5, Event::Drain(1))));
        assert_eq!(q.pop(), Some((5, Event::LoadFold(2))));
        assert_eq!(q.pop(), Some((5, Event::Stream(3))));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(4, Event::LoadFold(0));
        assert_eq!(q.pop(), Some((4, Event::LoadFold(0))));
        // A later push at an earlier cycle still pops first.
        q.push(9, Event::Drain(0));
        q.push(6, Event::Stream(0));
        assert_eq!(q.pop(), Some((6, Event::Stream(0))));
        assert_eq!(q.pop(), Some((9, Event::Drain(0))));
    }
}
