//! Flex-DPU composition: scheduling multiple GEMMs over the Flex-DPE pool
//! (Sec. IV-B).
//!
//! SIGMA's NoC statically partitions the Flex-DPEs into contiguous groups
//! — Flexible Dot Product Units — one per concurrently running GEMM.
//! [`DpuAllocator`] splits the pool in proportion to each GEMM's useful
//! MACs and charges each DPU's switch configuration and per-fold
//! boundary-partial merges on the [`MeshNoc`]; the switches are
//! configured once per mapping, with no dynamic routing.

use crate::config::{SigmaConfig, SigmaError};
use crate::model::{estimate_best, GemmProblem};
use crate::noc::{MeshNoc, NocStats};
use crate::stats::CycleStats;

/// The assignment of one GEMM to a contiguous range of Flex-DPEs.
#[derive(Debug, Clone, PartialEq)]
pub struct DpuAllocation {
    /// Index of the GEMM in the submitted batch.
    pub gemm: usize,
    /// First Flex-DPE of the DPU.
    pub first_dpe: usize,
    /// Number of Flex-DPEs in the DPU.
    pub num_dpes: usize,
    /// Estimated stats for the GEMM on its DPU.
    pub stats: CycleStats,
    /// Inter-DPE NoC accounting: static configuration of the DPU's
    /// switches plus the per-fold boundary-partial merges.
    pub noc: NocStats,
}

/// Partitions the Flex-DPE pool across a batch of GEMMs and estimates the
/// batch makespan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpuAllocator {
    config: SigmaConfig,
}

impl DpuAllocator {
    /// Creates an allocator over the full SIGMA instance.
    #[must_use]
    pub fn new(config: SigmaConfig) -> Self {
        Self { config }
    }

    /// Splits the Flex-DPE pool proportionally to each GEMM's useful work,
    /// guaranteeing each GEMM at least one Flex-DPE.
    ///
    /// # Errors
    ///
    /// Returns [`SigmaError::NoDpes`] if the batch has more GEMMs than
    /// there are Flex-DPEs, or is empty.
    pub fn partition(&self, problems: &[GemmProblem]) -> Result<Vec<usize>, SigmaError> {
        if problems.is_empty() || problems.len() > self.config.num_dpes() {
            return Err(SigmaError::NoDpes);
        }
        let total_work: f64 = problems.iter().map(GemmProblem::useful_macs).sum();
        let pool = self.config.num_dpes();
        let mut shares: Vec<usize> = problems
            .iter()
            .map(|p| {
                if total_work <= 0.0 {
                    1
                } else {
                    (((p.useful_macs() / total_work) * pool as f64).floor() as usize).max(1)
                }
            })
            .collect();
        // Distribute any leftover DPEs to the largest jobs; trim overflow
        // from the largest shares.
        loop {
            let used: usize = shares.iter().sum();
            match used.cmp(&pool) {
                std::cmp::Ordering::Equal => break,
                std::cmp::Ordering::Less => {
                    // `problems` is non-empty (checked on entry).
                    let Some(i) = (0..shares.len()).max_by(|&a, &b| {
                        problems[a]
                            .useful_macs()
                            .partial_cmp(&problems[b].useful_macs())
                            .unwrap_or(std::cmp::Ordering::Equal)
                    }) else {
                        break;
                    };
                    shares[i] += 1;
                }
                std::cmp::Ordering::Greater => {
                    // Shares exceed the pool only when some share > 1.
                    let Some(i) =
                        (0..shares.len()).filter(|&i| shares[i] > 1).max_by_key(|&i| shares[i])
                    else {
                        break;
                    };
                    shares[i] -= 1;
                }
            }
        }
        Ok(shares)
    }

    /// Allocates DPUs for a batch and estimates every GEMM's stats and the
    /// batch makespan (all DPUs run concurrently).
    ///
    /// # Errors
    ///
    /// See [`DpuAllocator::partition`].
    pub fn run_batch(
        &self,
        problems: &[GemmProblem],
    ) -> Result<(Vec<DpuAllocation>, u64), SigmaError> {
        let shares = self.partition(problems)?;
        let mesh = MeshNoc::new(self.config.num_dpes());
        let mut allocations = Vec::with_capacity(problems.len());
        let mut first = 0usize;
        let mut makespan = 0u64;
        for (i, (p, &dpes)) in problems.iter().zip(&shares).enumerate() {
            let sub = SigmaConfig::new(
                dpes,
                self.config.dpe_size(),
                // The SRAM bandwidth is shared in proportion to pool share.
                (self.config.input_bandwidth() * dpes / self.config.num_dpes()).max(1),
                self.config.dataflow(),
            )?;
            let (_, stats) = estimate_best(&sub, p);
            let range = first..first + dpes;
            let mut noc = mesh.configure_dpu(&range);
            for _ in 0..stats.folds {
                noc = noc.merged(&mesh.merge_boundary_partials(&range));
            }
            makespan = makespan.max(stats.total_cycles());
            allocations.push(DpuAllocation {
                gemm: i,
                first_dpe: first,
                num_dpes: dpes,
                stats,
                noc,
            });
            first += dpes;
        }
        Ok((allocations, makespan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Dataflow;
    use sigma_matrix::GemmShape;

    fn cfg() -> SigmaConfig {
        SigmaConfig::new(16, 32, 32, Dataflow::WeightStationary).unwrap()
    }

    #[test]
    fn partition_is_proportional_and_complete() {
        let alloc = DpuAllocator::new(cfg());
        let problems = [
            GemmProblem::dense(GemmShape::new(256, 256, 256)),
            GemmProblem::dense(GemmShape::new(64, 64, 64)),
        ];
        let shares = alloc.partition(&problems).unwrap();
        assert_eq!(shares.iter().sum::<usize>(), 16);
        assert!(shares[0] > shares[1], "bigger GEMM gets more DPEs: {shares:?}");
        assert!(shares[1] >= 1);
    }

    #[test]
    fn partition_rejects_bad_batches() {
        let alloc = DpuAllocator::new(cfg());
        assert!(alloc.partition(&[]).is_err());
        let too_many = vec![GemmProblem::dense(GemmShape::new(8, 8, 8)); 17];
        assert!(alloc.partition(&too_many).is_err());
    }

    #[test]
    fn run_batch_covers_pool_contiguously() {
        let alloc = DpuAllocator::new(cfg());
        let problems = [
            GemmProblem::dense(GemmShape::new(128, 128, 128)),
            GemmProblem::sparse(GemmShape::new(128, 128, 128), 0.2, 0.5),
            GemmProblem::dense(GemmShape::new(32, 32, 32)),
        ];
        let (allocs, makespan) = alloc.run_batch(&problems).unwrap();
        assert_eq!(allocs.len(), 3);
        let mut next = 0;
        for a in &allocs {
            assert_eq!(a.first_dpe, next, "DPUs must be contiguous");
            next += a.num_dpes;
            assert!(a.stats.total_cycles() <= makespan);
        }
        assert_eq!(next, 16);
        assert_eq!(makespan, allocs.iter().map(|a| a.stats.total_cycles()).max().unwrap());
    }

    #[test]
    fn equal_jobs_get_equal_shares() {
        let alloc = DpuAllocator::new(cfg());
        let problems = vec![GemmProblem::dense(GemmShape::new(64, 64, 64)); 4];
        let shares = alloc.partition(&problems).unwrap();
        assert_eq!(shares, vec![4, 4, 4, 4]);
    }

    #[test]
    fn zero_work_batch_still_allocates() {
        let alloc = DpuAllocator::new(cfg());
        let problems = vec![GemmProblem::sparse(GemmShape::new(8, 8, 8), 0.0, 0.0); 2];
        let shares = alloc.partition(&problems).unwrap();
        assert_eq!(shares.iter().sum::<usize>(), 16);
    }
}
