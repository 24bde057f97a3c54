//! `laue-core` — wire-scan (differential-aperture) Laue depth
//! reconstruction.
//!
//! This crate implements the algorithm of Yue, Schwarz & Tischler
//! (*Accelerating the Depth Reconstruction Algorithm with CUDA/GPU*, IEEE
//! CLUSTER 2015) and both execution engines the paper compares:
//!
//! * [`cpu`] — the prior sequential CPU implementation (the baseline), plus
//!   a row-parallel threaded variant;
//! * [`gpu`] — the paper's CUDA design, run on the [`cuda_sim`] device:
//!   row-slab chunking to fit device memory (the paper's Fig 2), a
//!   `setTwo`-style kernel with one thread per `(row, col, wire-step)`
//!   element, CAS-loop `atomicAdd(double)` accumulation, and both the flat
//!   [`gpu::Layout::Flat1d`] and pointer-table [`gpu::Layout::Pointer3d`]
//!   data layouts whose trade-off the paper's Fig 4 measures.
//!
//! # The algorithm
//!
//! A wire scan produces `p` detector images; between consecutive images the
//! wire advances by one step, occluding rays that originate from a slightly
//! deeper band of the sample. For every pixel `(r, c)` and image pair
//! `(z, z+1)`:
//!
//! 1. the differential intensity `ΔI = I_z − I_{z+1}` (leading edge; sign
//!    flips for the trailing edge) is the light emitted from the depth band
//!    the wire newly covered;
//! 2. the band is `[depth(pixel, edge_z), depth(pixel, edge_{z+1})]`, where
//!    `depth` triangulates the grazing ray past the wire edge back to the
//!    incident beam ([`laue_geometry::DepthMapper`]);
//! 3. `ΔI` is deposited into the depth-binned output image
//!    `out[bin][r][c]`, split over bins by exact interval overlap.
//!
//! Pixels whose `|ΔI|` falls below [`ReconstructionConfig::intensity_cutoff`]
//! are skipped — sweeping that cutoff reproduces the paper's
//! "pixel percentage" experiment (Fig 9).
//!
//! Both engines call the same per-pair routine ([`pair::process_pair`]), so
//! they agree bit-for-bit when the simulated device executes sequentially,
//! and within floating-point reassociation tolerance when threaded.

pub mod cache;
pub mod calibrate;
pub mod cluster;
pub mod config;
pub mod cpu;
pub mod error;
pub mod geometry;
pub mod gpu;
pub mod input;
pub mod integrity;
pub mod journal;
pub mod multi;
pub mod output;
pub mod pair;
pub mod planner;
pub mod planning;
pub mod post;
pub mod stats;
pub mod uncertainty;

pub use cluster::{ClusterOptions, NodeOutcome, ReductionTopology};
pub use config::{AccumulationMode, CompactionMode, IntegrityMode, PlanMode, ReconstructionConfig};
pub use error::CoreError;
pub use geometry::ScanGeometry;
pub use gpu::GpuReconstruction;
pub use input::{InMemorySlabSource, RoiSlabSource, ScanView, SlabSource};
pub use integrity::IntegrityReport;
pub use output::DepthImage;
pub use stats::ReconStats;

pub use laue_geometry::WireEdge;

/// Result alias for reconstruction operations.
pub type Result<T> = std::result::Result<T, CoreError>;
