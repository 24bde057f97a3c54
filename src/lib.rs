//! # laue — wire-scan Laue depth reconstruction
//!
//! A from-scratch Rust reproduction of *"Accelerating the Depth
//! Reconstruction Algorithm with CUDA/GPU"* (Yue, Schwarz & Tischler, IEEE
//! CLUSTER 2015): the differential-aperture (wire-scan) depth
//! reconstruction used at APS beamline 34-ID-E, its sequential CPU
//! baseline, and the paper's CUDA design executed on a software CUDA-like
//! device with a calibrated virtual-time cost model.
//!
//! This crate is a facade over the workspace:
//!
//! | module | crate | what it is |
//! |---|---|---|
//! | [`geometry`] | `laue-geometry` | detector/wire/beam math, pixel→depth triangulation |
//! | [`container`] | `mh5` | the HDF5-subset scientific container |
//! | [`sim`] | `cuda-sim` | the simulated device (memory, kernels, atomics, virtual time) |
//! | [`core`] | `laue-core` | the reconstruction algorithm + CPU/GPU engines |
//! | [`wire`] | `laue-wire` | forward model & synthetic workload generator |
//! | [`pipeline`] | `laue-pipeline` | end-to-end runs, reports, exports |
//! | [`serve`] | `laue-serve` | multi-tenant job scheduling over a simulated GPU fleet |
//!
//! # Quickstart
//!
//! ```
//! use laue::prelude::*;
//!
//! // 1. Synthesize a wire scan with known ground truth.
//! let scan = SyntheticScanBuilder::new(8, 8, 16).scatterers(3).seed(1).build().unwrap();
//!
//! // 2. Reconstruct it with the paper's GPU design (simulated device).
//! let cfg = ReconstructionConfig::new(-1500.0, 1500.0, 300);
//! let pipeline = Pipeline::default();
//! let mut source = InMemorySlabSource::new(
//!     scan.images.clone(), 16, 8, 8,
//! ).unwrap();
//! let report = pipeline
//!     .run_source(&mut source, &scan.geometry, &cfg, Engine::Gpu { layout: Layout::Flat1d })
//!     .unwrap();
//!
//! // 3. The depth of each scatterer is recovered.
//! let s = &scan.truth.scatterers[0];
//! let peak = report.image.pixel_peak_depth(s.row, s.col, &cfg).unwrap();
//! assert!((peak - s.depth).abs() < 25.0);
//! ```

pub use laue_core as core;
pub use laue_geometry as geometry;
pub use laue_pipeline as pipeline;
pub use laue_serve as serve;
pub use laue_wire as wire;
pub use mh5 as container;

/// The simulated CUDA-like device (re-export of `cuda-sim`).
pub use cuda_sim as sim;

/// The types most programs need.
pub mod prelude {
    pub use cuda_sim::{Device, DeviceProps, FaultPlan, FaultStats, HostProps, NonzeroWords};
    pub use laue_core::cache::{DepthTableCache, TableCacheStats};
    pub use laue_core::cluster::{reconstruct_cluster, reconstruct_cluster_checkpointed};
    pub use laue_core::gpu::{GpuOptions, Layout, PipelineDepth, Triangulation};
    pub use laue_core::journal::{CommittedSlab, JournalKey, RunJournal, SlabProgress};
    pub use laue_core::multi::reconstruct_multi;
    pub use laue_core::planner::Plan;
    pub use laue_core::planning::{pixel_scan_info, plan_scan, PixelScanInfo, ScanPlan};
    pub use laue_core::post::{depth_map, find_peaks, DepthMapOptions, DepthPeak};
    pub use laue_core::{
        cpu, gpu, AccumulationMode, ClusterOptions, CompactionMode, DepthImage, GpuReconstruction,
        InMemorySlabSource, IntegrityMode, IntegrityReport, PlanMode, ReconstructionConfig,
        ScanGeometry, ScanView, SlabSource, WireEdge,
    };
    pub use laue_geometry::{Beam, DepthMapper, DetectorGeometry, Vec3, WireGeometry};
    pub use laue_pipeline::{
        Engine, GpuFailurePolicy, Pipeline, RecoveryAccounting, ResumeInfo, RunReport,
    };
    pub use laue_serve::{
        serve, AdmissionPolicy, BatchPolicy, JobClass, JobShape, JobSpec, ServeConfig, ServeReport,
        Workload, WorkloadSpec,
    };
    pub use laue_wire::{
        read_scan, write_scan, SamplePlan, Scatterer, SyntheticScan, SyntheticScanBuilder,
    };
}
