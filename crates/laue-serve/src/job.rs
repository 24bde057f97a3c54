//! The job model: what a tenant submits and what the service hands back.
//!
//! A beamline reconstruction service sees two broad job populations. Small
//! jobs — alignment checks, ROI re-runs, quick-look previews — arrive in
//! bursts, want low latency, and are individually dominated by fixed
//! per-launch costs (the fused batcher's prey). Large jobs — full-detector
//! production reconstructions — arrive steadily, tolerate queueing, and
//! run long enough that they must be *preemptible* or every interactive
//! job behind them inherits their runtime as queueing delay.
//!
//! A [`JobSpec`] describes one submission entirely by value (tenant,
//! class, arrival time, scan shape, deterministic data seed), so the
//! service, the bench harness, and the bit-identity tests can all
//! materialize exactly the same scan from the same spec.

use laue_core::planner::Pins;
use laue_core::{DepthImage, InMemorySlabSource, ReconStats, ReconstructionConfig, ScanGeometry};
use laue_wire::{SyntheticScan, SyntheticScanBuilder};

/// Scheduling class of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobClass {
    /// Latency-sensitive: served strictly before any ready batch job.
    Interactive,
    /// Throughput work: fills whatever capacity interactive jobs leave.
    Batch,
}

/// Geometric shape of a job's scan and reconstruction grid. Everything
/// the cost model (and the fused-batch fit check) needs, by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobShape {
    /// Detector rows.
    pub n_rows: usize,
    /// Detector columns.
    pub n_cols: usize,
    /// Wire steps (images in the stack).
    pub n_steps: usize,
    /// Depth bins of the output grid.
    pub n_bins: usize,
    /// Slab rows the checkpointed path pins ([`JobShape::pins`]; `None`
    /// fits the slab to device memory). Small values give a long job many
    /// preemption points. The image does not depend on it.
    pub rows_per_slab: Option<usize>,
}

impl JobShape {
    /// A quick-look ROI job: tiny detector patch, shallow depth grid.
    pub fn small() -> JobShape {
        JobShape {
            n_rows: 6,
            n_cols: 6,
            n_steps: 8,
            n_bins: 40,
            rows_per_slab: None,
        }
    }

    /// A production reconstruction: enough rows to span many slabs.
    pub fn large() -> JobShape {
        JobShape {
            n_rows: 24,
            n_cols: 12,
            n_steps: 10,
            n_bins: 80,
            rows_per_slab: Some(4),
        }
    }

    /// Kernel threads this shape launches (pairs × pixels).
    pub fn threads(&self) -> u64 {
        (self.n_rows * self.n_cols * (self.n_steps - 1)) as u64
    }

    /// What a non-fused run of this shape pins: its slab rows. The
    /// scheduler's quantum runs under these pins and admission prices
    /// them.
    pub fn pins(&self) -> Pins {
        Pins {
            rows: self.rows_per_slab,
            ..Pins::default()
        }
    }

    /// Device bytes the fused path would hold resident for this shape.
    pub fn fused_bytes(&self) -> u64 {
        laue_core::gpu::batch::fused_job_bytes(self.n_steps, self.n_rows, self.n_cols, self.n_bins)
    }
}

/// One submitted reconstruction job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Service-wide job id (assigned by the workload generator).
    pub id: u64,
    /// Owning tenant (index into the scheduler's weight vector).
    pub tenant: usize,
    /// Scheduling class.
    pub class: JobClass,
    /// Fleet time the job arrives, seconds.
    pub arrival_s: f64,
    /// Scan and grid shape.
    pub shape: JobShape,
    /// Seed for the synthetic scan data (determinism anchor: the same
    /// spec always materializes the same bits).
    pub seed: u64,
}

impl JobSpec {
    /// The job's reconstruction config: the default one over its bins,
    /// so fused-compatible by construction (no compaction, no integrity)
    /// — the batcher only has to check size, and bit-identity to
    /// standalone runs holds for every path.
    pub fn config(&self) -> ReconstructionConfig {
        ReconstructionConfig::new(-1500.0, 1500.0, self.shape.n_bins)
    }

    /// Materialize the job's scan. Deterministic in the spec alone.
    pub fn materialize(&self) -> SyntheticScan {
        SyntheticScanBuilder::new(self.shape.n_rows, self.shape.n_cols, self.shape.n_steps)
            .scatterers(3)
            .background(15.0)
            .noise(1.0)
            .seed(self.seed)
            .build()
            .expect("job shapes are valid by construction")
    }

    /// The job's scan as a slab source, with its geometry.
    pub fn source(&self) -> (InMemorySlabSource, ScanGeometry) {
        let (scan, s) = (self.materialize(), &self.shape);
        let source = InMemorySlabSource::new(scan.images, s.n_steps, s.n_rows, s.n_cols)
            .expect("a materialized scan has its shape's dimensions");
        (source, scan.geometry)
    }
}

/// Why admission control turned a job away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's queue was at its depth limit.
    QueueDepth,
    /// Predicted backlog exceeded the service-level ceiling.
    Backlog,
}

/// What the service did with one accepted job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job id from its [`JobSpec`].
    pub id: u64,
    /// Owning tenant.
    pub tenant: usize,
    /// Scheduling class.
    pub class: JobClass,
    /// Fleet arrival time, seconds.
    pub arrival_s: f64,
    /// Fleet time the job first occupied a device.
    pub start_s: f64,
    /// Fleet completion time.
    pub finish_s: f64,
    /// Device seconds the job (or its share of a fused batch) consumed.
    pub service_s: f64,
    /// Did the job complete inside a fused batch?
    pub batched: bool,
    /// Device dispatches the job took (1 = ran to completion in one go).
    pub quanta: u32,
    /// Times the job resumed on a *different* device than its previous
    /// quantum ran on (checkpoint/migrate events).
    pub migrations: u32,
    /// The reconstructed depth image — bit-identical to a standalone
    /// single-job run of the same spec.
    pub image: DepthImage,
    /// Kernel outcome counters, ditto.
    pub stats: ReconStats,
}

impl JobOutcome {
    /// Submission-to-completion latency, seconds.
    pub fn latency_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }

    /// Seconds spent waiting (latency minus the span actually on device).
    pub fn queued_s(&self) -> f64 {
        (self.latency_s() - (self.finish_s - self.start_s)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_materialize_deterministically() {
        let spec = JobSpec {
            id: 1,
            tenant: 0,
            class: JobClass::Interactive,
            arrival_s: 0.0,
            shape: JobShape::small(),
            seed: 42,
        };
        let a = spec.materialize();
        let b = spec.materialize();
        assert_eq!(a.images, b.images);
        assert_eq!(spec.config().n_depth_bins, 40);
        assert!(laue_core::gpu::batch::fused_compatible(&spec.config()));
    }

    #[test]
    fn shapes_report_threads_and_bytes() {
        let s = JobShape::small();
        assert_eq!(s.threads(), 6 * 6 * 7);
        assert_eq!(
            s.fused_bytes(),
            laue_core::gpu::batch::fused_job_bytes(8, 6, 6, 40)
        );
        assert!(JobShape::large().threads() > s.threads());
    }

    #[test]
    fn interactive_orders_before_batch() {
        assert!(JobClass::Interactive < JobClass::Batch);
    }
}
