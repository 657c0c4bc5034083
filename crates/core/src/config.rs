//! SIGMA configuration: array geometry, bandwidth, and dataflow.

use crate::controller::PackingOrder;
use std::error::Error;
use std::fmt;

/// The dataflows SIGMA supports (Sec. IV-D, Fig. 4d/e).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataflow {
    /// `N-sta, M-str`: the `KN` (weight) matrix is stationary, the `MK`
    /// (input) matrix streams — the TPU-style weight-stationary dataflow.
    WeightStationary,
    /// `M-sta, N-str`: the `MK` (input) matrix is stationary, the `KN`
    /// matrix streams — input-stationary.
    InputStationary,
    /// `MK-str, KN-str`: No Local Reuse. Only useful multiplication pairs
    /// are streamed; nothing is stationary. 100% compute utilization at
    /// the cost of double operand bandwidth (Fig. 4e, Fig. 10).
    NoLocalReuse,
}

impl Dataflow {
    /// All dataflows in Fig. 10's order.
    pub const ALL: [Dataflow; 3] =
        [Dataflow::WeightStationary, Dataflow::InputStationary, Dataflow::NoLocalReuse];

    /// Display name using the paper's notation.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Dataflow::WeightStationary => "N-sta, M-str",
            Dataflow::InputStationary => "M-sta, N-str",
            Dataflow::NoLocalReuse => "M-str, N-str",
        }
    }
}

impl fmt::Display for Dataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors from SIGMA configuration and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigmaError {
    /// Flex-DPE size must be a power of two (for the Benes/FAN networks).
    DpeSizeNotPowerOfTwo(usize),
    /// At least one Flex-DPE is required.
    NoDpes,
    /// Bandwidth must be non-zero.
    ZeroBandwidth,
    /// GEMM operand inner dimensions disagree.
    DimensionMismatch {
        /// `A` is `m x k_a`.
        k_a: usize,
        /// `B` is `k_b x n`.
        k_b: usize,
    },
    /// A GEMM operand contains NaN or infinity; the datapath model is
    /// only defined over finite values.
    NonFiniteInput {
        /// Which operand (`"A"` or `"B"`).
        operand: &'static str,
    },
    /// An internal simulator invariant was violated (a bug, not a user
    /// error); carried instead of panicking so sweep drivers can record
    /// the cell and continue.
    Internal(String),
}

impl fmt::Display for SigmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SigmaError::DpeSizeNotPowerOfTwo(s) => {
                write!(f, "flex-dpe size must be a power of two >= 2, got {s}")
            }
            SigmaError::NoDpes => write!(f, "at least one flex-dpe is required"),
            SigmaError::ZeroBandwidth => write!(f, "input bandwidth must be non-zero"),
            SigmaError::DimensionMismatch { k_a, k_b } => {
                write!(f, "inner dimensions disagree: A has K={k_a}, B has K={k_b}")
            }
            SigmaError::NonFiniteInput { operand } => {
                write!(f, "operand {operand} contains a non-finite value (NaN or infinity)")
            }
            SigmaError::Internal(what) => {
                write!(f, "internal simulator invariant violated: {what}")
            }
        }
    }
}

impl Error for SigmaError {}

/// Configuration of a SIGMA instance.
///
/// The paper's evaluated instance is 128 Flex-DPEs of 128 multipliers each
/// with 128 words/cycle of SRAM read bandwidth ([`SigmaConfig::paper`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigmaConfig {
    num_dpes: usize,
    dpe_size: usize,
    input_bandwidth: usize,
    stream_bandwidth: usize,
    dataflow: Dataflow,
    double_buffered: bool,
    packing: PackingOrder,
    telemetry: bool,
}

impl SigmaConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// * [`SigmaError::NoDpes`] if `num_dpes == 0`.
    /// * [`SigmaError::DpeSizeNotPowerOfTwo`] if `dpe_size` is not a power
    ///   of two at least 2 (the Benes and FAN networks require it).
    /// * [`SigmaError::ZeroBandwidth`] if `input_bandwidth == 0`.
    pub fn new(
        num_dpes: usize,
        dpe_size: usize,
        input_bandwidth: usize,
        dataflow: Dataflow,
    ) -> Result<Self, SigmaError> {
        if num_dpes == 0 {
            return Err(SigmaError::NoDpes);
        }
        if dpe_size < 2 || !dpe_size.is_power_of_two() {
            return Err(SigmaError::DpeSizeNotPowerOfTwo(dpe_size));
        }
        if input_bandwidth == 0 {
            return Err(SigmaError::ZeroBandwidth);
        }
        Ok(Self {
            num_dpes,
            dpe_size,
            input_bandwidth,
            stream_bandwidth: input_bandwidth,
            dataflow,
            double_buffered: false,
            packing: PackingOrder::GroupMajor,
            telemetry: false,
        })
    }

    /// Creates a configuration, repairing invalid geometry instead of
    /// failing: `num_dpes` is raised to at least 1, `dpe_size` is rounded
    /// up to the next power of two (minimum 2), and `input_bandwidth` is
    /// raised to at least 1. Useful for static tables and benchmark
    /// registries whose shapes are known-good by construction; prefer
    /// [`SigmaConfig::new`] when invalid input should be reported.
    #[must_use]
    pub fn clamped(
        num_dpes: usize,
        dpe_size: usize,
        input_bandwidth: usize,
        dataflow: Dataflow,
    ) -> Self {
        let num_dpes = num_dpes.max(1);
        let dpe_size = dpe_size.max(2).next_power_of_two();
        let input_bandwidth = input_bandwidth.max(1);
        Self {
            num_dpes,
            dpe_size,
            input_bandwidth,
            stream_bandwidth: input_bandwidth,
            dataflow,
            double_buffered: false,
            packing: PackingOrder::GroupMajor,
            telemetry: false,
        }
    }

    /// The paper's evaluated instance: 128 Flex-DPE-128 (16384 PEs),
    /// 128 words/cycle SRAM *loading* bandwidth, weight-stationary by
    /// default. Following Sec. VI-A ("we allow greater input bandwidth to
    /// distribute larger chunks of the streaming matrix in one cycle"),
    /// the streaming side is array-wide.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            num_dpes: 128,
            dpe_size: 128,
            input_bandwidth: 128,
            stream_bandwidth: 128 * 128,
            dataflow: Dataflow::WeightStationary,
            double_buffered: false,
            packing: PackingOrder::GroupMajor,
            telemetry: false,
        }
    }

    /// Number of Flex-DPEs.
    #[must_use]
    pub fn num_dpes(&self) -> usize {
        self.num_dpes
    }

    /// Multipliers per Flex-DPE.
    #[must_use]
    pub fn dpe_size(&self) -> usize {
        self.dpe_size
    }

    /// Total multipliers (PEs).
    #[must_use]
    pub fn total_pes(&self) -> usize {
        self.num_dpes * self.dpe_size
    }

    /// SRAM read bandwidth (unique words per cycle) for loading the
    /// stationary operand.
    #[must_use]
    pub fn input_bandwidth(&self) -> usize {
        self.input_bandwidth
    }

    /// Distribution bandwidth (unique words per cycle) for the streaming
    /// operand. Defaults to the loading bandwidth; the paper's evaluation
    /// widens it (Sec. VI-A).
    #[must_use]
    pub fn stream_bandwidth(&self) -> usize {
        self.stream_bandwidth
    }

    /// Whether stationary loads are double-buffered: when enabled, fold
    /// `i+1`'s loading overlaps fold `i`'s streaming, hiding all but the
    /// first load (and any residue when loads exceed the streaming time).
    /// The paper's Table II treats loading as *not* overlapped; this
    /// switch exists for the ablation study.
    #[must_use]
    pub fn double_buffered(&self) -> bool {
        self.double_buffered
    }

    /// Returns a copy with double-buffered stationary loading.
    #[must_use]
    pub fn with_double_buffering(mut self, enabled: bool) -> Self {
        self.double_buffered = enabled;
        self
    }

    /// The stationary fold packing order (see [`PackingOrder`]).
    #[must_use]
    pub fn packing_order(&self) -> PackingOrder {
        self.packing
    }

    /// Returns a copy with a different fold packing order.
    #[must_use]
    pub fn with_packing_order(mut self, packing: PackingOrder) -> Self {
        self.packing = packing;
        self
    }

    /// Whether the engine records telemetry (default: off). Telemetry is
    /// observational only — counters and histograms accumulate in a
    /// [`sigma_telemetry::Telemetry`] registry, and simulated outputs and
    /// cycle statistics are identical either way.
    #[must_use]
    pub fn telemetry(&self) -> bool {
        self.telemetry
    }

    /// Returns a copy with telemetry recording on or off.
    #[must_use]
    pub fn with_telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Returns a copy with a different streaming bandwidth.
    ///
    /// # Errors
    ///
    /// [`SigmaError::ZeroBandwidth`] if `bw == 0`.
    pub fn with_stream_bandwidth(mut self, bw: usize) -> Result<Self, SigmaError> {
        if bw == 0 {
            return Err(SigmaError::ZeroBandwidth);
        }
        self.stream_bandwidth = bw;
        Ok(self)
    }

    /// Returns a copy with a different streaming bandwidth, clamped to
    /// at least 1 word/cycle instead of failing on zero.
    #[must_use]
    pub fn with_stream_bandwidth_clamped(mut self, bw: usize) -> Self {
        self.stream_bandwidth = bw.max(1);
        self
    }

    /// The configured dataflow.
    #[must_use]
    pub fn dataflow(&self) -> Dataflow {
        self.dataflow
    }

    /// Returns a copy with a different dataflow.
    #[must_use]
    pub fn with_dataflow(mut self, dataflow: Dataflow) -> Self {
        self.dataflow = dataflow;
        self
    }

    /// Returns a copy with a different bandwidth.
    ///
    /// # Errors
    ///
    /// [`SigmaError::ZeroBandwidth`] if `bw == 0`.
    pub fn with_bandwidth(mut self, bw: usize) -> Result<Self, SigmaError> {
        if bw == 0 {
            return Err(SigmaError::ZeroBandwidth);
        }
        self.input_bandwidth = bw;
        Ok(self)
    }

    /// Canonical string naming every knob that can influence a simulated
    /// result — geometry, bandwidths, dataflow, buffering and packing. Two
    /// configurations with equal keys produce bitwise-identical
    /// [`EngineRun`]s on identical operands, so result caches key cells by
    /// this string (plus workload and seed) instead of by the lossy display
    /// name.
    ///
    /// Telemetry is excluded: it is observational only. The leading `c3`
    /// is this key's own layout revision; bump it when a knob is added,
    /// renamed or removed.
    ///
    /// [`EngineRun`]: crate::engine_api::EngineRun
    #[must_use]
    pub fn canonical_key(&self) -> String {
        let packing = match self.packing {
            PackingOrder::GroupMajor => "group",
            PackingOrder::ContractionMajor => "contraction",
        };
        let dataflow = match self.dataflow {
            Dataflow::WeightStationary => "ws",
            Dataflow::InputStationary => "is",
            Dataflow::NoLocalReuse => "nlr",
        };
        format!(
            "c3;dpes={};dpe={};ibw={};sbw={};df={dataflow};dbuf={};pack={packing}",
            self.num_dpes,
            self.dpe_size,
            self.input_bandwidth,
            self.stream_bandwidth,
            u8::from(self.double_buffered),
        )
    }
}

impl Default for SigmaConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config() {
        let c = SigmaConfig::paper();
        assert_eq!(c.total_pes(), 16384);
        assert_eq!(c.num_dpes(), 128);
        assert_eq!(c.dpe_size(), 128);
        assert_eq!(c.input_bandwidth(), 128);
        assert_eq!(SigmaConfig::default(), c);
    }

    #[test]
    fn validation() {
        assert_eq!(
            SigmaConfig::new(0, 128, 128, Dataflow::WeightStationary),
            Err(SigmaError::NoDpes)
        );
        assert_eq!(
            SigmaConfig::new(4, 48, 128, Dataflow::WeightStationary),
            Err(SigmaError::DpeSizeNotPowerOfTwo(48))
        );
        assert_eq!(
            SigmaConfig::new(4, 1, 128, Dataflow::WeightStationary),
            Err(SigmaError::DpeSizeNotPowerOfTwo(1))
        );
        assert_eq!(
            SigmaConfig::new(4, 64, 0, Dataflow::WeightStationary),
            Err(SigmaError::ZeroBandwidth)
        );
        assert!(SigmaConfig::new(4, 64, 32, Dataflow::NoLocalReuse).is_ok());
    }

    #[test]
    fn with_modifiers() {
        let c = SigmaConfig::paper().with_dataflow(Dataflow::InputStationary);
        assert_eq!(c.dataflow(), Dataflow::InputStationary);
        let c2 = c.with_bandwidth(256).unwrap();
        assert_eq!(c2.input_bandwidth(), 256);
        assert!(c.with_bandwidth(0).is_err());
        assert!(!c.telemetry());
        assert!(c.with_telemetry(true).telemetry());
    }

    #[test]
    fn clamped_repairs_geometry() {
        let c = SigmaConfig::clamped(0, 48, 0, Dataflow::WeightStationary);
        assert_eq!(c.num_dpes(), 1);
        assert_eq!(c.dpe_size(), 64);
        assert_eq!(c.input_bandwidth(), 1);
        // Valid geometry passes through unchanged and matches new().
        let a = SigmaConfig::clamped(4, 64, 32, Dataflow::NoLocalReuse);
        let b = SigmaConfig::new(4, 64, 32, Dataflow::NoLocalReuse).unwrap();
        assert_eq!(a, b);
        assert_eq!(c.with_stream_bandwidth_clamped(0).stream_bandwidth(), 1);
        assert_eq!(c.with_stream_bandwidth_clamped(256).stream_bandwidth(), 256);
    }

    #[test]
    fn dataflow_names() {
        assert_eq!(Dataflow::WeightStationary.to_string(), "N-sta, M-str");
        assert_eq!(Dataflow::NoLocalReuse.name(), "M-str, N-str");
        assert_eq!(Dataflow::ALL.len(), 3);
    }

    #[test]
    fn error_display() {
        assert!(SigmaError::DimensionMismatch { k_a: 3, k_b: 4 }.to_string().contains("K=3"));
    }

    #[test]
    fn canonical_key_covers_every_result_affecting_knob() {
        let base = SigmaConfig::new(2, 8, 16, Dataflow::WeightStationary).unwrap();
        assert_eq!(base.canonical_key(), "c3;dpes=2;dpe=8;ibw=16;sbw=16;df=ws;dbuf=0;pack=group");
        let key = base.canonical_key();
        // Every knob that changes simulated results must change the key.
        let variants = [
            SigmaConfig::new(4, 8, 16, Dataflow::WeightStationary).unwrap(),
            SigmaConfig::new(2, 16, 16, Dataflow::WeightStationary).unwrap(),
            base.with_bandwidth(32).unwrap(),
            base.with_stream_bandwidth_clamped(8),
            base.with_dataflow(Dataflow::InputStationary),
            base.with_dataflow(Dataflow::NoLocalReuse),
            base.with_double_buffering(true),
            base.with_packing_order(PackingOrder::ContractionMajor),
        ];
        let mut keys: Vec<String> = variants.iter().map(SigmaConfig::canonical_key).collect();
        keys.push(key.clone());
        let distinct: std::collections::BTreeSet<&String> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "all knob variants key distinctly");
        // Telemetry is observational and must NOT perturb the key.
        assert_eq!(base.with_telemetry(true).canonical_key(), key);
    }
}
