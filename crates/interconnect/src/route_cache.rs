//! Memoized Benes routing keyed by the multicast request pattern.
//!
//! [`RouteCache`] memoizes the [`BenesConfig`] that
//! [`BenesNetwork::route_monotone_multicast`] derives for each exact
//! request vector. The simulator no longer uses it: a Flex-DPE charges its
//! identity-prefix loading unicast without routing it (the
//! `identity_prefixes_deliver_at_every_size` test in [`crate::benes`]
//! proves that pattern routes). The type stays as a component benchmark
//! of a hot (memoized) route against a cold one.
//!
//! Entries live in a `BTreeMap` (ordered comparisons, no per-process
//! hasher state), and a hit performs no heap allocation: the lookup key is
//! built in a reusable scratch buffer. A hit returns the very
//! configuration the cold router produced.

use crate::benes::{BenesConfig, BenesError, BenesNetwork};
use std::collections::BTreeMap;

/// A request slot in the canonical key encoding: `u32::MAX` encodes `None`,
/// anything else the source index. Network sizes are far below `u32::MAX`,
/// and keys of different lengths cannot collide, so the encoding is exact.
type RouteSlot = u32;

const NONE_SLOT: RouteSlot = u32::MAX;

/// Memoizes Benes switch configurations by request pattern.
///
/// ```
/// use sigma_interconnect::{BenesNetwork, RouteCache};
/// let net = BenesNetwork::new(8)?;
/// let mut cache = RouteCache::new();
/// let req: Vec<Option<usize>> = (0..8).map(|o| Some(o / 2)).collect();
/// let a = cache.route_monotone_multicast(&net, &req)?.clone();
/// let b = cache.route_monotone_multicast(&net, &req)?.clone();
/// assert_eq!(a, b);
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(cache.misses(), 1);
/// # Ok::<(), sigma_interconnect::BenesError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct RouteCache {
    index: BTreeMap<Box<[RouteSlot]>, usize>,
    configs: Vec<BenesConfig>,
    /// Reusable key buffer so cache hits do not allocate.
    key_buf: Vec<RouteSlot>,
    hits: u64,
    misses: u64,
}

impl RouteCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lookups served from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that had to route cold.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Memoizing [`BenesNetwork::route_monotone_multicast`]: returns the
    /// cached switch configuration for this exact request pattern, routing
    /// cold (and remembering the result) on first sight.
    ///
    /// # Errors
    ///
    /// Same as [`BenesNetwork::route_monotone_multicast`]; errors are
    /// neither cached nor counted.
    pub fn route_monotone_multicast(
        &mut self,
        net: &BenesNetwork,
        src: &[Option<usize>],
    ) -> Result<&BenesConfig, BenesError> {
        self.key_buf.clear();
        #[allow(clippy::cast_possible_truncation)]
        self.key_buf.extend(src.iter().map(|s| s.map_or(NONE_SLOT, |x| x as RouteSlot)));
        if let Some(&idx) = self.index.get(self.key_buf.as_slice()) {
            self.hits += 1;
            return Ok(&self.configs[idx]);
        }
        let cfg = net.route_monotone_multicast(src)?;
        self.misses += 1;
        let idx = self.configs.len();
        self.configs.push(cfg);
        self.index.insert(self.key_buf.clone().into_boxed_slice(), idx);
        Ok(&self.configs[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(n: usize) -> BenesNetwork {
        BenesNetwork::new(n).unwrap()
    }

    #[test]
    fn monotone_hits_return_the_identical_config() {
        let net = net(16);
        let mut cache = RouteCache::new();
        let req: Vec<Option<usize>> = (0..16).map(|o| Some(o / 3)).collect();
        let cold = net.route_monotone_multicast(&req).unwrap();
        let first = cache.route_monotone_multicast(&net, &req).unwrap().clone();
        let second = cache.route_monotone_multicast(&net, &req).unwrap().clone();
        assert_eq!(first, cold);
        assert_eq!(second, cold);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn distinct_patterns_are_distinct_entries() {
        let net = net(8);
        let mut cache = RouteCache::new();
        for shift in 0..4usize {
            let req: Vec<Option<usize>> = (0..8).map(|o| Some((o / 2 + shift).min(7))).collect();
            cache.route_monotone_multicast(&net, &req).unwrap();
        }
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn gap_position_distinguishes_keys() {
        // [Some(1), None] and [None, Some(1)] must not collide.
        let net = net(4);
        let mut cache = RouteCache::new();
        let a = vec![Some(1), None, None, None];
        let b = vec![None, Some(1), None, None];
        cache.route_monotone_multicast(&net, &a).unwrap();
        cache.route_monotone_multicast(&net, &b).unwrap();
        assert_eq!(cache.misses(), 2);
        let cfg_a = cache.route_monotone_multicast(&net, &a).unwrap().clone();
        let inputs: Vec<Option<usize>> = (0..4).map(Some).collect();
        assert_eq!(cfg_a.apply(&inputs)[0], Some(1));
    }

    #[test]
    fn errors_are_propagated_not_cached() {
        let net = net(4);
        let mut cache = RouteCache::new();
        let bad = vec![Some(2), Some(1), None, None];
        for _ in 0..2 {
            assert_eq!(
                cache.route_monotone_multicast(&net, &bad).unwrap_err(),
                BenesError::NotMonotone
            );
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 0), "failed routes are not counted");
    }

    #[test]
    fn sizes_share_a_cache_without_collisions() {
        let n4 = net(4);
        let n8 = net(8);
        let mut cache = RouteCache::new();
        cache.route_monotone_multicast(&n4, &[Some(0); 4]).unwrap();
        cache.route_monotone_multicast(&n8, &[Some(0); 8]).unwrap();
        assert_eq!(cache.misses(), 2, "length is part of the key");
    }
}
