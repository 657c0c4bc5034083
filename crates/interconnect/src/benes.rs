//! Benes distribution network (Sec. IV-A-1 of the SIGMA paper).
//!
//! A Benes network of size `N` (a power of two) is a non-blocking
//! multistage network built from tiny 2x2 switches: an input column of
//! `N/2` switches, two recursively nested Benes networks of size `N/2`, and
//! an output column of `N/2` switches — `2·log₂N − 1` switch stages in
//! total. SIGMA uses it as the Flex-DPE's distribution network because it
//! is non-blocking like a crossbar (any source reaches any destination
//! without contention) at `O(N log N)` cost instead of `O(N²)`, and its
//! latch-free switches give O(1) (single-cycle) distribution.
//!
//! Two routing algorithms are provided:
//!
//! * [`BenesNetwork::route_permutation`] — the classic *looping algorithm*
//!   that realizes any permutation of inputs to outputs.
//! * [`BenesNetwork::route_monotone_multicast`] — multicast routing for
//!   *monotone* requests (the non-decreasing source pattern SIGMA's
//!   controller produces when broadcasting one streaming value to the
//!   contiguous group of multipliers holding matching stationary
//!   elements). Switches are broadcast-capable, matching the paper's
//!   "multicasts within the Benes network" support.
//!
//! Both return a [`BenesConfig`] of concrete switch states which can be
//! *executed* on real data with [`BenesConfig::apply`], so the routing is
//! verified end-to-end rather than assumed.

use crate::{is_power_of_two, log2_ceil};
use std::error::Error;
use std::fmt;

/// State of one 2x2 switch.
///
/// A switch has two inputs `(i0, i1)` and two outputs `(o0, o1)`. The two
/// control bits of the paper (one selecting the vertical output, one the
/// diagonal) give exactly these four useful states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchState {
    /// `o0 = i0`, `o1 = i1`.
    Straight,
    /// `o0 = i1`, `o1 = i0`.
    Cross,
    /// `o0 = o1 = i0` (multicast the upper input).
    BroadcastUpper,
    /// `o0 = o1 = i1` (multicast the lower input).
    BroadcastLower,
}

impl SwitchState {
    /// Applies the switch to a pair of optional values.
    #[inline]
    #[must_use]
    pub fn apply<T: Clone>(&self, i0: Option<T>, i1: Option<T>) -> (Option<T>, Option<T>) {
        match self {
            SwitchState::Straight => (i0, i1),
            SwitchState::Cross => (i1, i0),
            SwitchState::BroadcastUpper => (i0.clone(), i0),
            SwitchState::BroadcastLower => (i1.clone(), i1),
        }
    }
}

/// A routed configuration of a Benes network: one state per switch,
/// organized recursively exactly like the hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenesConfig {
    /// A size-2 network: a single switch.
    Leaf(SwitchState),
    /// A size-N network: input column, two size-N/2 subnetworks, output
    /// column.
    Node {
        /// Input-column switch states; switch `i` takes external inputs
        /// `(2i, 2i+1)` and feeds upper-subnet port `i` (its `o0`) and
        /// lower-subnet port `i` (its `o1`).
        input: Vec<SwitchState>,
        /// The upper size-N/2 subnetwork.
        upper: Box<BenesConfig>,
        /// The lower size-N/2 subnetwork.
        lower: Box<BenesConfig>,
        /// Output-column switch states; switch `j` takes upper-subnet
        /// output `j` (its `i0`) and lower-subnet output `j` (its `i1`)
        /// and drives external outputs `(2j, 2j+1)`.
        output: Vec<SwitchState>,
    },
}

impl BenesConfig {
    /// Network size (number of input/output ports) of this configuration.
    #[must_use]
    pub fn size(&self) -> usize {
        match self {
            BenesConfig::Leaf(_) => 2,
            BenesConfig::Node { input, .. } => input.len() * 2,
        }
    }

    /// Flattens the configuration into per-stage switch states, outermost
    /// input column first, then the recursively interleaved subnetwork
    /// columns, then the output columns — `2·log₂N − 1` stages of `N/2`
    /// switches. Within a stage, switch `i` of the upper subnetwork comes
    /// before switch `i` of the lower one.
    #[must_use]
    pub fn stages(&self) -> Vec<Vec<SwitchState>> {
        match self {
            BenesConfig::Leaf(s) => vec![vec![*s]],
            BenesConfig::Node { input, upper, lower, output } => {
                let up = upper.stages();
                let low = lower.stages();
                debug_assert_eq!(up.len(), low.len());
                let mut stages = Vec::with_capacity(up.len() + 2);
                stages.push(input.clone());
                for (u, l) in up.into_iter().zip(low) {
                    let mut merged = u;
                    merged.extend(l);
                    stages.push(merged);
                }
                stages.push(output.clone());
                stages
            }
        }
    }

    /// Serializes the configuration into the two control bits per switch
    /// the paper describes (Fig. 5 Step iv): bit 0 selects the vertical
    /// (cross) output, bit 1 enables the diagonal broadcast. Stage-major,
    /// switch-major, low bit first.
    #[must_use]
    pub fn control_bits(&self) -> Vec<bool> {
        let mut bits = Vec::new();
        for stage in self.stages() {
            for s in stage {
                let (cross, broadcast) = match s {
                    SwitchState::Straight => (false, false),
                    SwitchState::Cross => (true, false),
                    SwitchState::BroadcastUpper => (false, true),
                    SwitchState::BroadcastLower => (true, true),
                };
                bits.push(cross);
                bits.push(broadcast);
            }
        }
        bits
    }

    /// Reconstructs a configuration from control bits for a network of
    /// `size` ports (the inverse of [`BenesConfig::control_bits`]).
    ///
    /// # Errors
    ///
    /// Returns [`BenesError::NotPowerOfTwo`] for invalid sizes or
    /// [`BenesError::SizeMismatch`] when the bit count is wrong
    /// (`2 · switches` bits are required).
    pub fn from_control_bits(size: usize, bits: &[bool]) -> Result<Self, BenesError> {
        let net = BenesNetwork::new(size)?;
        let expected = 2 * net.switch_count();
        if bits.len() != expected {
            return Err(BenesError::SizeMismatch { expected, actual: bits.len() });
        }
        let states: Vec<SwitchState> = bits
            .chunks(2)
            .map(|b| match (b[0], b[1]) {
                (false, false) => SwitchState::Straight,
                (true, false) => SwitchState::Cross,
                (false, true) => SwitchState::BroadcastUpper,
                (true, true) => SwitchState::BroadcastLower,
            })
            .collect();
        // Rebuild stage structure, then fold back into the recursion.
        let stage_len = size / 2;
        let stages: Vec<Vec<SwitchState>> =
            states.chunks(stage_len).map(<[SwitchState]>::to_vec).collect();
        Ok(Self::from_stages(&stages))
    }

    /// Rebuilds the recursive form from flattened stages (inverse of
    /// [`BenesConfig::stages`]).
    fn from_stages(stages: &[Vec<SwitchState>]) -> Self {
        if stages.len() == 1 {
            debug_assert_eq!(stages[0].len(), 1);
            return BenesConfig::Leaf(stages[0][0]);
        }
        // Each inner stage holds the upper subnetwork's switches followed
        // by the lower's.
        let inner = &stages[1..stages.len() - 1];
        let per_sub = stages[0].len() / 2;
        let upper_stages: Vec<Vec<SwitchState>> =
            inner.iter().map(|st| st[..per_sub].to_vec()).collect();
        let lower_stages: Vec<Vec<SwitchState>> =
            inner.iter().map(|st| st[per_sub..].to_vec()).collect();
        BenesConfig::Node {
            input: stages[0].clone(),
            upper: Box::new(Self::from_stages(&upper_stages)),
            lower: Box::new(Self::from_stages(&lower_stages)),
            output: stages[stages.len() - 1].clone(),
        }
    }

    /// Executes the configuration: pushes `inputs` through every switch
    /// stage and returns what arrives at each output port.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the network size.
    #[must_use]
    pub fn apply<T: Clone>(&self, inputs: &[Option<T>]) -> Vec<Option<T>> {
        assert_eq!(inputs.len(), self.size(), "input count must equal network size");
        match self {
            BenesConfig::Leaf(s) => {
                let (o0, o1) = s.apply(inputs[0].clone(), inputs[1].clone());
                vec![o0, o1]
            }
            BenesConfig::Node { input, upper, lower, output } => {
                let half = input.len();
                let mut up_in = Vec::with_capacity(half);
                let mut low_in = Vec::with_capacity(half);
                for (i, s) in input.iter().enumerate() {
                    let (o0, o1) = s.apply(inputs[2 * i].clone(), inputs[2 * i + 1].clone());
                    up_in.push(o0);
                    low_in.push(o1);
                }
                let up_out = upper.apply(&up_in);
                let low_out = lower.apply(&low_in);
                let mut out = Vec::with_capacity(half * 2);
                for (j, s) in output.iter().enumerate() {
                    let (o0, o1) = s.apply(up_out[j].clone(), low_out[j].clone());
                    out.push(o0);
                    out.push(o1);
                }
                out
            }
        }
    }
}

/// Errors from Benes construction and routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenesError {
    /// The requested network size is not a power of two (or is < 2).
    NotPowerOfTwo(usize),
    /// A request vector's length does not match the network size.
    SizeMismatch {
        /// Network size.
        expected: usize,
        /// Request length provided.
        actual: usize,
    },
    /// A permutation request repeated or omitted a source.
    NotPermutation,
    /// A multicast request was not monotone (non-decreasing sources).
    NotMonotone,
    /// A request referenced a source index outside the network.
    SourceOutOfRange(usize),
    /// A routing invariant failed mid-recursion. This indicates a bug in
    /// the routing algorithm (or a violated precondition that validation
    /// missed); it is surfaced as an error instead of a panic so a sweep
    /// harness can degrade gracefully.
    Internal(&'static str),
}

impl fmt::Display for BenesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenesError::NotPowerOfTwo(n) => {
                write!(f, "benes network size must be a power of two >= 2, got {n}")
            }
            BenesError::SizeMismatch { expected, actual } => {
                write!(f, "request length {actual} does not match network size {expected}")
            }
            BenesError::NotPermutation => write!(f, "request is not a permutation of the inputs"),
            BenesError::NotMonotone => {
                write!(f, "multicast request sources must be non-decreasing across outputs")
            }
            BenesError::SourceOutOfRange(s) => write!(f, "source index {s} is out of range"),
            BenesError::Internal(what) => write!(f, "benes routing invariant violated: {what}"),
        }
    }
}

impl Error for BenesError {}

/// A Benes network of a fixed power-of-two size.
///
/// ```
/// use sigma_interconnect::BenesNetwork;
/// let net = BenesNetwork::new(8)?;
/// // Route the reversal permutation and push values through it.
/// let src: Vec<usize> = (0..8).rev().collect();
/// let cfg = net.route_permutation(&src)?;
/// let inputs: Vec<Option<u32>> = (0..8).map(Some).collect();
/// let outputs = cfg.apply(&inputs);
/// assert_eq!(outputs[0], Some(7));
/// assert_eq!(outputs[7], Some(0));
/// # Ok::<(), sigma_interconnect::BenesError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenesNetwork {
    size: usize,
}

impl BenesNetwork {
    /// Creates a network with `size` input and output ports.
    ///
    /// # Errors
    ///
    /// Returns [`BenesError::NotPowerOfTwo`] unless `size` is a power of
    /// two and at least 2.
    pub fn new(size: usize) -> Result<Self, BenesError> {
        if !is_power_of_two(size) || size < 2 {
            return Err(BenesError::NotPowerOfTwo(size));
        }
        Ok(Self { size })
    }

    /// Creates a network, rounding `size` up to the next power of two
    /// (minimum 2) instead of failing. For static tables whose shapes
    /// are known-good by construction; prefer [`BenesNetwork::new`] when
    /// invalid input should be reported.
    #[must_use]
    pub fn new_clamped(size: usize) -> Self {
        Self { size: size.max(2).next_power_of_two() }
    }

    /// Number of ports.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of switch stages: `2·log₂N − 1`.
    #[must_use]
    pub fn stage_count(&self) -> u32 {
        2 * log2_ceil(self.size) - 1
    }

    /// Total number of 2x2 switches: `stages · N/2`.
    #[must_use]
    pub fn switch_count(&self) -> usize {
        self.stage_count() as usize * self.size / 2
    }

    /// Distribution latency in cycles. The paper uses latch-free switches,
    /// so an entire traversal completes in a single cycle (O(1)
    /// communication, Sec. IV-A-1).
    #[must_use]
    pub fn traversal_latency_cycles(&self) -> u64 {
        1
    }

    /// Routes a permutation: output `o` receives input `src[o]`.
    ///
    /// Uses the classic looping algorithm, which 2-colors sources so that
    /// the two sources sharing an input switch and the two sources demanded
    /// by an output switch always take different subnetworks.
    ///
    /// # Errors
    ///
    /// * [`BenesError::SizeMismatch`] if `src.len() != size`.
    /// * [`BenesError::NotPermutation`] if `src` repeats or omits an input.
    pub fn route_permutation(&self, src: &[usize]) -> Result<BenesConfig, BenesError> {
        if src.len() != self.size {
            return Err(BenesError::SizeMismatch { expected: self.size, actual: src.len() });
        }
        let mut seen = vec![false; self.size];
        for &s in src {
            if s >= self.size {
                return Err(BenesError::SourceOutOfRange(s));
            }
            if seen[s] {
                return Err(BenesError::NotPermutation);
            }
            seen[s] = true;
        }
        route_perm(src)
    }

    /// Routes a monotone multicast: output `o` receives input `src[o]`
    /// when `Some`, where the sequence of `Some` sources is non-decreasing.
    ///
    /// This is exactly the pattern SIGMA's distribution needs: compressed
    /// stationary/streaming values enter in order on the low ports and each
    /// must reach a contiguous, ordered group of multipliers — including
    /// one-to-many broadcast of a streaming value to every multiplier that
    /// holds a matching stationary element.
    ///
    /// # Errors
    ///
    /// * [`BenesError::SizeMismatch`] if `src.len() != size`.
    /// * [`BenesError::NotMonotone`] if `Some` sources ever decrease.
    /// * [`BenesError::SourceOutOfRange`] if a source index is too large.
    pub fn route_monotone_multicast(
        &self,
        src: &[Option<usize>],
    ) -> Result<BenesConfig, BenesError> {
        if src.len() != self.size {
            return Err(BenesError::SizeMismatch { expected: self.size, actual: src.len() });
        }
        let mut last: Option<usize> = None;
        for &s in src.iter().flatten() {
            if s >= self.size {
                return Err(BenesError::SourceOutOfRange(s));
            }
            if let Some(prev) = last {
                if s < prev {
                    return Err(BenesError::NotMonotone);
                }
            }
            last = Some(s);
        }
        route_multicast(src, 0, &mut MulticastScratch::default())
    }
}

/// Reusable per-recursion-depth buffers for [`route_multicast`].
///
/// The multicast recursion visits `N − 1` network nodes and needs five
/// working vectors per node; allocating them fresh dominates cold-routing
/// cost on wide networks. The scratch keeps one set per depth (sub-requests
/// at the same depth are processed sequentially, so siblings can share),
/// so one route allocates per depth rather than per node.
#[derive(Debug, Clone, Default)]
struct MulticastScratch {
    levels: Vec<MulticastLevel>,
}

#[derive(Debug, Clone, Default)]
struct MulticastLevel {
    /// Distinct demanded sources, increasing.
    sources: Vec<usize>,
    /// `paired_with_next[s] = Some(t)` when some output switch demands the
    /// distinct pair `(s, t)`.
    paired_with_next: Vec<Option<usize>>,
    /// Greedy subnet color per source port.
    color_of: Vec<Option<u8>>,
    /// Sub-request for the upper half-size network.
    up_src: Vec<Option<usize>>,
    /// Sub-request for the lower half-size network.
    low_src: Vec<Option<usize>>,
}

/// Recursive looping-algorithm permutation routing. `src[o]` = input index.
fn route_perm(src: &[usize]) -> Result<BenesConfig, BenesError> {
    let n = src.len();
    if n == 2 {
        return Ok(BenesConfig::Leaf(if src[0] == 0 {
            SwitchState::Straight
        } else {
            SwitchState::Cross
        }));
    }
    let half = n / 2;

    // out_partner[x] = the other source demanded by x's output switch.
    let mut out_partner = vec![0usize; n];
    for j in 0..half {
        out_partner[src[2 * j]] = src[2 * j + 1];
        out_partner[src[2 * j + 1]] = src[2 * j];
    }

    // 2-color sources: color[x] = 0 => upper subnet, 1 => lower.
    // Constraints: x and x^1 differ (same input switch); x and
    // out_partner[x] differ (same output switch). Cycles formed by these
    // two perfect matchings are even, so alternating assignment works.
    let mut color: Vec<Option<u8>> = vec![None; n];
    for start in 0..n {
        if color[start].is_some() {
            continue;
        }
        let mut x = start;
        let c = 0u8;
        loop {
            color[x] = Some(c);
            let sib = x ^ 1;
            if color[sib].is_some() {
                break;
            }
            color[sib] = Some(1 - c);
            // out_partner[sib] must differ from sib, i.e. it takes color c.
            x = out_partner[sib];
            if color[x].is_some() {
                break;
            }
        }
    }
    let color: Vec<u8> = color
        .into_iter()
        .map(|c| c.ok_or(BenesError::Internal("looping left a source uncolored")))
        .collect::<Result<_, _>>()?;

    // Input switch states and the input-switch index carrying each source.
    let mut input_states = Vec::with_capacity(half);
    for i in 0..half {
        debug_assert_ne!(color[2 * i], color[2 * i + 1], "looping produced same-subnet siblings");
        input_states.push(if color[2 * i] == 0 {
            SwitchState::Straight
        } else {
            SwitchState::Cross
        });
    }

    // Sub-permutations: upper subnet output port j carries the color-0
    // source of output switch j, originating at its input-switch index.
    let mut up_src = Vec::with_capacity(half);
    let mut low_src = Vec::with_capacity(half);
    let mut output_states = Vec::with_capacity(half);
    for j in 0..half {
        let (a, b) = (src[2 * j], src[2 * j + 1]);
        debug_assert_ne!(color[a], color[b], "looping produced same-subnet output pair");
        if color[a] == 0 {
            up_src.push(a / 2);
            low_src.push(b / 2);
            output_states.push(SwitchState::Straight);
        } else {
            up_src.push(b / 2);
            low_src.push(a / 2);
            output_states.push(SwitchState::Cross);
        }
    }

    Ok(BenesConfig::Node {
        input: input_states,
        upper: Box::new(route_perm(&up_src)?),
        lower: Box::new(route_perm(&low_src)?),
        output: output_states,
    })
}

/// Recursive monotone-multicast routing. `src[o]` = Some(input) or None.
///
/// Because the request is monotone, any two sources that conflict (share an
/// input switch or an output switch) are *adjacent* in source order, so the
/// conflict graph is a path and greedy alternating coloring suffices; the
/// sub-requests are again monotone, giving routability by induction.
fn route_multicast(
    src: &[Option<usize>],
    depth: usize,
    scratch: &mut MulticastScratch,
) -> Result<BenesConfig, BenesError> {
    let n = src.len();
    if n == 2 {
        let state = match (src[0], src[1]) {
            (None, None) => SwitchState::Straight,
            (Some(a), Some(b)) if a == b => {
                if a == 0 {
                    SwitchState::BroadcastUpper
                } else {
                    SwitchState::BroadcastLower
                }
            }
            (Some(a), Some(_)) => {
                if a == 0 {
                    SwitchState::Straight
                } else {
                    SwitchState::Cross
                }
            }
            (Some(a), None) => {
                if a == 0 {
                    SwitchState::Straight
                } else {
                    SwitchState::Cross
                }
            }
            (None, Some(b)) => {
                if b == 1 {
                    SwitchState::Straight
                } else {
                    SwitchState::Cross
                }
            }
        };
        return Ok(BenesConfig::Leaf(state));
    }
    let half = n / 2;
    if scratch.levels.len() <= depth {
        scratch.levels.push(MulticastLevel::default());
    }
    let mut lv = std::mem::take(&mut scratch.levels[depth]);
    let MulticastLevel { sources, paired_with_next, color_of, up_src, low_src } = &mut lv;

    // Distinct demanded sources in increasing order.
    sources.clear();
    for &s in src.iter().flatten() {
        if sources.last() != Some(&s) {
            sources.push(s);
        }
    }

    // An output switch demanding two distinct sources always pairs a
    // source with its *successor* in source order (the request is
    // monotone, so the demanded sources are non-decreasing across output
    // ports). One pass precomputes those pairings so the greedy coloring
    // below runs in O(n) instead of rescanning every output switch per
    // source.
    paired_with_next.clear();
    paired_with_next.resize(n, None);
    for j in 0..half {
        if let (Some(a), Some(b)) = (src[2 * j], src[2 * j + 1]) {
            if a != b {
                paired_with_next[a] = Some(b);
            }
        }
    }

    // Greedy path coloring: consecutive sources must differ when they share
    // an input switch or are demanded together by some output switch.
    // Indexed by source port (sources are < n), deterministic by
    // construction — no hash-map involved.
    color_of.clear();
    color_of.resize(n, None);
    let mut prev_color = 0u8;
    for (idx, &s) in sources.iter().enumerate() {
        if idx == 0 {
            color_of[s] = Some(0u8);
            prev_color = 0;
            continue;
        }
        let p = sources[idx - 1];
        let same_input_switch = p / 2 == s / 2;
        let same_output_switch = paired_with_next[p] == Some(s);
        let c = if same_input_switch || same_output_switch { 1 - prev_color } else { prev_color };
        color_of[s] = Some(c);
        prev_color = c;
    }

    // Input switch states.
    let mut input_states = Vec::with_capacity(half);
    for i in 0..half {
        let c0 = color_of[2 * i];
        let c1 = color_of[2 * i + 1];
        let state = match (c0, c1) {
            (Some(a), Some(b)) => {
                debug_assert_ne!(a, b, "sibling sources colored to the same subnet");
                if a == 0 {
                    SwitchState::Straight
                } else {
                    SwitchState::Cross
                }
            }
            (Some(a), None) => {
                if a == 0 {
                    SwitchState::Straight
                } else {
                    SwitchState::Cross
                }
            }
            (None, Some(b)) => {
                if b == 1 {
                    SwitchState::Straight
                } else {
                    SwitchState::Cross
                }
            }
            (None, None) => SwitchState::Straight,
        };
        input_states.push(state);
    }

    // Sub-requests and output switch states.
    let subnet_of = |s: usize| {
        color_of
            .get(s)
            .copied()
            .flatten()
            .ok_or(BenesError::Internal("multicast source missing a subnet color"))
    };
    up_src.clear();
    up_src.resize(half, None);
    low_src.clear();
    low_src.resize(half, None);
    let mut output_states = Vec::with_capacity(half);
    for j in 0..half {
        let (a, b) = (src[2 * j], src[2 * j + 1]);
        let state = match (a, b) {
            (Some(a), Some(b)) if a == b => {
                let c = subnet_of(a)?;
                if c == 0 {
                    up_src[j] = Some(a / 2);
                    SwitchState::BroadcastUpper
                } else {
                    low_src[j] = Some(a / 2);
                    SwitchState::BroadcastLower
                }
            }
            (Some(a), Some(b)) => {
                let (ca, cb) = (subnet_of(a)?, subnet_of(b)?);
                debug_assert_ne!(ca, cb, "output pair colored to the same subnet");
                if ca == 0 {
                    up_src[j] = Some(a / 2);
                    low_src[j] = Some(b / 2);
                    SwitchState::Straight
                } else {
                    up_src[j] = Some(b / 2);
                    low_src[j] = Some(a / 2);
                    SwitchState::Cross
                }
            }
            (Some(a), None) => {
                if subnet_of(a)? == 0 {
                    up_src[j] = Some(a / 2);
                    SwitchState::Straight
                } else {
                    low_src[j] = Some(a / 2);
                    SwitchState::Cross
                }
            }
            (None, Some(b)) => {
                if subnet_of(b)? == 1 {
                    low_src[j] = Some(b / 2);
                    SwitchState::Straight
                } else {
                    up_src[j] = Some(b / 2);
                    SwitchState::Cross
                }
            }
            (None, None) => SwitchState::Straight,
        };
        output_states.push(state);
    }

    // Move the sub-request buffers out and park the rest of this level's
    // scratch before recursing, so deeper levels (and later siblings at
    // this depth) reuse their own buffers.
    let up = std::mem::take(up_src);
    let low = std::mem::take(low_src);
    scratch.levels[depth] = lv;
    let upper = route_multicast(&up, depth + 1, scratch)?;
    let lower = route_multicast(&low, depth + 1, scratch)?;
    scratch.levels[depth].up_src = up;
    scratch.levels[depth].low_src = low;

    Ok(BenesConfig::Node {
        input: input_states,
        upper: Box::new(upper),
        lower: Box::new(lower),
        output: output_states,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_perm(n: usize, src: &[usize]) {
        let net = BenesNetwork::new(n).unwrap();
        let cfg = net.route_permutation(src).unwrap();
        let inputs: Vec<Option<usize>> = (0..n).map(Some).collect();
        let out = cfg.apply(&inputs);
        for (o, &s) in src.iter().enumerate() {
            assert_eq!(out[o], Some(s), "output {o} of perm {src:?}");
        }
    }

    fn check_multicast(n: usize, src: &[Option<usize>]) {
        let net = BenesNetwork::new(n).unwrap();
        let cfg = net.route_monotone_multicast(src).unwrap();
        let inputs: Vec<Option<usize>> = (0..n).map(Some).collect();
        let out = cfg.apply(&inputs);
        for (o, &s) in src.iter().enumerate() {
            if let Some(s) = s {
                assert_eq!(out[o], Some(s), "output {o} of multicast {src:?}");
            }
        }
    }

    #[test]
    fn size_validation() {
        assert!(BenesNetwork::new(2).is_ok());
        assert!(BenesNetwork::new(128).is_ok());
        assert_eq!(BenesNetwork::new(0), Err(BenesError::NotPowerOfTwo(0)));
        assert_eq!(BenesNetwork::new(1), Err(BenesError::NotPowerOfTwo(1)));
        assert_eq!(BenesNetwork::new(12), Err(BenesError::NotPowerOfTwo(12)));
    }

    #[test]
    fn structure_metrics() {
        let net = BenesNetwork::new(8).unwrap();
        assert_eq!(net.stage_count(), 5);
        assert_eq!(net.switch_count(), 20);
        assert_eq!(net.traversal_latency_cycles(), 1);
        let n2 = BenesNetwork::new(2).unwrap();
        assert_eq!(n2.stage_count(), 1);
        assert_eq!(n2.switch_count(), 1);
    }

    #[test]
    fn identity_permutation() {
        for n in [2usize, 4, 8, 16, 32] {
            let src: Vec<usize> = (0..n).collect();
            check_perm(n, &src);
        }
    }

    #[test]
    fn reversal_permutation() {
        for n in [2usize, 4, 8, 16, 64] {
            let src: Vec<usize> = (0..n).rev().collect();
            check_perm(n, &src);
        }
    }

    #[test]
    fn rotation_permutations() {
        let n = 16;
        for r in 0..n {
            let src: Vec<usize> = (0..n).map(|o| (o + r) % n).collect();
            check_perm(n, &src);
        }
    }

    #[test]
    fn rejects_non_permutation() {
        let net = BenesNetwork::new(4).unwrap();
        assert_eq!(net.route_permutation(&[0, 0, 1, 2]), Err(BenesError::NotPermutation));
        assert_eq!(
            net.route_permutation(&[0, 1]),
            Err(BenesError::SizeMismatch { expected: 4, actual: 2 })
        );
        assert_eq!(net.route_permutation(&[0, 1, 2, 7]), Err(BenesError::SourceOutOfRange(7)));
    }

    #[test]
    fn broadcast_one_to_all() {
        for n in [2usize, 4, 8, 32] {
            let src = vec![Some(0usize); n];
            check_multicast(n, &src);
        }
    }

    #[test]
    fn multicast_contiguous_groups() {
        // Source 0 -> outputs 0..3, source 1 -> outputs 3..6, source 5 -> 6..8.
        let src = vec![Some(0), Some(0), Some(0), Some(1), Some(1), Some(1), Some(5), Some(5)];
        check_multicast(8, &src);
    }

    #[test]
    fn multicast_with_gaps() {
        let src = vec![Some(1), Some(1), None, Some(3), None, None, Some(6), None];
        check_multicast(8, &src);
    }

    /// The Flex-DPE loading unicast — value `i` to multiplier `i` for a
    /// prefix of length `p` — routes and delivers at every size up to 1024
    /// and every prefix length. `FlexDpe::load` charges this pattern
    /// without routing it, so this is where its routability is proven.
    #[test]
    fn identity_prefixes_deliver_at_every_size() {
        for n in (1..=10).map(|log| 1usize << log) {
            for p in 0..=n {
                let src: Vec<Option<usize>> = (0..n).map(|i| (i < p).then_some(i)).collect();
                check_multicast(n, &src);
            }
        }
    }

    #[test]
    fn multicast_rejects_decreasing() {
        let net = BenesNetwork::new(4).unwrap();
        assert_eq!(
            net.route_monotone_multicast(&[Some(2), Some(1), None, None]),
            Err(BenesError::NotMonotone)
        );
    }

    #[test]
    fn multicast_empty_request() {
        check_multicast(8, &[None; 8]);
    }

    #[test]
    fn switch_state_semantics() {
        assert_eq!(SwitchState::Straight.apply(Some(1), Some(2)), (Some(1), Some(2)));
        assert_eq!(SwitchState::Cross.apply(Some(1), Some(2)), (Some(2), Some(1)));
        assert_eq!(SwitchState::BroadcastUpper.apply(Some(1), Some(2)), (Some(1), Some(1)));
        assert_eq!(SwitchState::BroadcastLower.apply(Some(1), Some(2)), (Some(2), Some(2)));
    }

    #[test]
    fn stages_flatten_to_expected_shape() {
        let net = BenesNetwork::new(8).unwrap();
        let cfg = net.route_permutation(&[7, 6, 5, 4, 3, 2, 1, 0]).unwrap();
        let stages = cfg.stages();
        assert_eq!(stages.len(), 5); // 2*log2(8) - 1
        assert!(stages.iter().all(|s| s.len() == 4));
    }

    #[test]
    fn control_bits_roundtrip_permutation() {
        for n in [4usize, 8, 16, 32] {
            let net = BenesNetwork::new(n).unwrap();
            let src: Vec<usize> = (0..n).rev().collect();
            let cfg = net.route_permutation(&src).unwrap();
            let bits = cfg.control_bits();
            assert_eq!(bits.len(), 2 * net.switch_count());
            let back = BenesConfig::from_control_bits(n, &bits).unwrap();
            assert_eq!(back, cfg);
            // And the reconstructed config still routes correctly.
            let inputs: Vec<Option<usize>> = (0..n).map(Some).collect();
            let out = back.apply(&inputs);
            for (o, &s) in src.iter().enumerate() {
                assert_eq!(out[o], Some(s));
            }
        }
    }

    #[test]
    fn control_bits_roundtrip_multicast() {
        let net = BenesNetwork::new(16).unwrap();
        let req: Vec<Option<usize>> = (0..16).map(|o| Some(o / 3)).collect();
        let cfg = net.route_monotone_multicast(&req).unwrap();
        let back = BenesConfig::from_control_bits(16, &cfg.control_bits()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn from_control_bits_validates_length() {
        assert!(matches!(
            BenesConfig::from_control_bits(8, &[false; 3]),
            Err(BenesError::SizeMismatch { .. })
        ));
        assert!(matches!(
            BenesConfig::from_control_bits(6, &[]),
            Err(BenesError::NotPowerOfTwo(6))
        ));
    }

    #[test]
    fn error_display() {
        assert!(BenesError::NotPowerOfTwo(3).to_string().contains("power of two"));
        assert!(BenesError::NotMonotone.to_string().contains("non-decreasing"));
    }
}
