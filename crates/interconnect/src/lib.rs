//! Flexible interconnect models for the SIGMA reproduction.
//!
//! SIGMA's Flex-DPE (Sec. IV-A of [Qin et al., HPCA 2020]) is built from two
//! specialized networks:
//!
//! * a **distribution network** — a [Benes network](benes::BenesNetwork)
//!   that loads/streams operands from SRAM to the multipliers in O(1)
//!   (non-blocking, multicast-capable), and
//! * a **reduction network** — the novel [Forwarding Adder Network
//!   (FAN)](fan::Fan), a binary adder tree augmented with forwarding links
//!   so that *non-power-of-two, variable-sized* dot products reduce
//!   spatially in O(log₂ N) cycles.
//!
//! The paper compares these against simpler or costlier alternatives:
//! crossbars, buses, butterflies and meshes for distribution
//! ([`alternatives`]), and linear (temporal / spatio-temporal) reduction and
//! MAERI's ART for reduction ([`reduction`], Fig. 6b). All of those models
//! live here too.
//!
//! Everything is *functional*, not just analytic: the Benes model routes
//! real values through real switch states, and FAN reduces real `f32`
//! values through real adder levels — both are property-tested.
//!
//! [Qin et al., HPCA 2020]: https://doi.org/10.1109/HPCA47549.2020.00015

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alternatives;
pub mod benes;
pub mod fan;
pub mod fault;
pub mod program;
pub mod reduction;
pub mod route_cache;

pub use benes::{BenesConfig, BenesError, BenesNetwork, SwitchState};
pub use fan::{Fan, FanError, FanReduction, FanScratch, SegmentSum};
pub use fault::{flip_bit, force_bit, AdderFault, StuckLevel};
pub use program::FanProgram;
pub use reduction::{ReductionKind, ReductionNetwork};
pub use route_cache::RouteCache;

/// `true` if `n` is a power of two (and non-zero).
#[must_use]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// `ceil(log2(n))` for `n >= 1`.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn log2_ceil(n: usize) -> u32 {
    assert!(n > 0, "log2_ceil(0) is undefined");
    usize::BITS - (n - 1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_of_two_check() {
        assert!(is_power_of_two(1));
        assert!(is_power_of_two(64));
        assert!(!is_power_of_two(0));
        assert!(!is_power_of_two(48));
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(128), 7);
        assert_eq!(log2_ceil(129), 8);
    }
}
