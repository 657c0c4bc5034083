//! Named GEMM suites from the paper's workload characterization.
//!
//! Shapes come from three places:
//!
//! * the example dimensions of Fig. 1b (Transformer / GNMT / NCF /
//!   DeepBench);
//! * the GEMMs the evaluation text calls out explicitly (2048-4096-32,
//!   1024-16-500000, 2048-1-128, and Fig. 7's 1632-x-36548 matrix);
//! * Baidu DeepBench's published training GEMM list (a representative
//!   subset).
//!
//! Dimensions are (M, N, K) with `C[M,N] = A[M,K] x B[K,N]`, matching
//! Fig. 1a.

use sigma_matrix::GemmShape;

/// Source workload of a GEMM kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Transformer (324M-parameter big model, LM1B).
    Transformer,
    /// Google NMT, 8-layer, WMT De-En.
    Gnmt,
    /// Neural collaborative filtering.
    Ncf,
    /// Baidu DeepBench training kernels.
    DeepBench,
    /// Shapes called out in the paper's evaluation section itself.
    Evaluation,
}

impl Workload {
    /// Display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Transformer => "Transformer",
            Workload::Gnmt => "GNMT",
            Workload::Ncf => "NCF",
            Workload::DeepBench => "DeepBench",
            Workload::Evaluation => "Evaluation",
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A GEMM kernel with its provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NamedGemm {
    /// Source workload.
    pub workload: Workload,
    /// Layer / kernel description.
    pub layer: &'static str,
    /// The GEMM dimensions.
    pub shape: GemmShape,
}

impl std::fmt::Display for NamedGemm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{} {}", self.workload, self.layer, self.shape)
    }
}

/// The Fig. 1b-style example suite: GEMMs from the four characterized
/// workloads, spanning tall-skinny to fat-short.
#[must_use]
pub fn fig1b_suite() -> Vec<NamedGemm> {
    let g =
        |workload, layer, m, n, k| NamedGemm { workload, layer, shape: GemmShape::new(m, n, k) };
    vec![
        // Transformer big: d_model 1024, d_ff 4096, vocab 32k, seq 512.
        g(Workload::Transformer, "QKV proj (fwd)", 512, 3072, 1024),
        g(Workload::Transformer, "attn out proj", 512, 1024, 1024),
        g(Workload::Transformer, "FFN-1", 512, 4096, 1024),
        g(Workload::Transformer, "FFN-2", 512, 1024, 4096),
        g(Workload::Transformer, "logits (tied embed)", 512, 32_768, 1024),
        // GNMT 8-layer: hidden 1024, vocab 32k, low decode batch.
        g(Workload::Gnmt, "encoder LSTM gates", 128, 4096, 2048),
        g(Workload::Gnmt, "decoder LSTM gates", 320, 3072, 4096),
        g(Workload::Gnmt, "attention score", 128, 2048, 4096),
        g(Workload::Gnmt, "softmax proj", 1632, 36_548, 1024),
        // NCF: embedding-MLP tower, tiny contraction dims.
        g(Workload::Ncf, "MLP-1", 256, 256, 128),
        g(Workload::Ncf, "MLP-2", 256, 128, 256),
        g(Workload::Ncf, "GMF output", 2048, 1, 128),
        // DeepBench assorted training kernels.
        g(Workload::DeepBench, "speech fwd", 5124, 9124, 2560),
        g(Workload::DeepBench, "speech low-batch", 35, 8457, 2560),
        g(Workload::DeepBench, "rnn update", 7680, 16, 2560),
        g(Workload::DeepBench, "conv-as-gemm", 3072, 128, 1024),
        g(Workload::DeepBench, "lstm 1760 b16", 1760, 16, 1760),
        g(Workload::DeepBench, "lstm 1760 b128", 1760, 128, 1760),
        g(Workload::DeepBench, "lstm 2048 b32", 2048, 32, 2048),
        g(Workload::DeepBench, "lstm 4096 b16", 4096, 16, 4096),
        g(Workload::DeepBench, "speech vocab", 512, 16, 500_000),
    ]
}

/// The GEMMs the evaluation section discusses explicitly (Fig. 11/12).
#[must_use]
pub fn evaluation_suite() -> Vec<NamedGemm> {
    let g = |layer, m, n, k| NamedGemm {
        workload: Workload::Evaluation,
        layer,
        shape: GemmShape::new(m, n, k),
    };
    vec![
        g("dense regular", 2048, 2048, 2048),
        g("low-K irregular", 2048, 4096, 32),
        g("huge-N irregular", 1024, 16, 500_000),
        g("tiny-N (GMF)", 2048, 1, 128),
        g("tall softmax proj", 1632, 36_548, 1024),
        g("decoder gates", 320, 3072, 4096),
        g("attention score", 128, 2048, 4096),
    ]
}

/// A representative subset of DeepBench's training GEMM list.
#[must_use]
pub fn deepbench_suite() -> Vec<NamedGemm> {
    fig1b_suite().into_iter().filter(|g| g.workload == Workload::DeepBench).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_are_non_empty_and_distinct() {
        let all = fig1b_suite();
        assert!(all.len() >= 12);
        let uniq: std::collections::HashSet<_> = all.iter().map(|g| g.shape).collect();
        assert_eq!(uniq.len(), all.len(), "duplicate shapes in suite");
    }

    #[test]
    fn suite_spans_irregularity() {
        let shapes = fig1b_suite();
        assert!(shapes.iter().any(|g| g.shape.irregularity() > 100.0), "has tall-skinny");
        assert!(shapes.iter().any(|g| g.shape.irregularity() < 8.0), "has near-regular");
    }

    #[test]
    fn evaluation_suite_contains_paper_callouts() {
        let s = evaluation_suite();
        assert!(s.iter().any(|g| g.shape == GemmShape::new(2048, 4096, 32)));
        assert!(s.iter().any(|g| g.shape == GemmShape::new(1024, 16, 500_000)));
        assert!(s.iter().any(|g| g.shape == GemmShape::new(2048, 1, 128)));
    }

    #[test]
    fn deepbench_subset_filtered() {
        assert!(deepbench_suite().iter().all(|g| g.workload == Workload::DeepBench));
        assert!(!deepbench_suite().is_empty());
    }

    #[test]
    fn display_forms() {
        let g = &fig1b_suite()[0];
        let txt = g.to_string();
        assert!(txt.contains("Transformer"));
        assert!(txt.contains('/'));
    }
}
