//! Shared harness for regenerating the paper's figures.
//!
//! Every bench binary builds workloads through this module so the
//! experiment parameters are recorded in one place:
//!
//! | binary | what it writes |
//! |---|---|
//! | `bench_report` | every measured figure of the paper and its ablations, each a gated section (`BENCH_pipeline.json`) |
//! | `bench_scaling` | cluster strong/weak scaling, overlap, topology, fabrics (`BENCH_scaling.json`) |
//! | `bench_serve` | the multi-tenant service sweep (`BENCH_serve.json`) |
//!
//! [`experiments`] renders EXPERIMENTS.md's measured tables from those
//! three files and checks the document against them.
//!
//! The paper's datasets are 2.1–5.2 **GB** beamline scans; this harness
//! generates geometrically similar synthetic scans at 1/1000 scale
//! (2.1–5.2 MB) — see DESIGN.md §2 for why the substitution preserves the
//! comparisons. Reported times are **virtual seconds** from the calibrated
//! M2070/E5630 models, so the figures are deterministic and
//! machine-independent.

pub mod budgets;
pub mod devices;
pub mod experiments;
pub mod report;

// The workspace has no JSON crate: the report writer and the
// EXPERIMENTS.md check share the disk-to-disk benchmark's parser.
#[allow(dead_code)]
#[path = "bin/benchmark/json.rs"]
mod json;

use laue_core::ReconstructionConfig;
use laue_pipeline::{Engine, Pipeline, RunReport};
use laue_wire::{builder::dims_for_bytes, SyntheticScan, SyntheticScanBuilder};

/// Wire steps used by every figure workload.
pub const N_STEPS: usize = 64;

/// A generated benchmark workload.
pub struct Workload {
    /// Human label (e.g. `2.1 MB`).
    pub label: String,
    /// The scan (geometry + images + truth).
    pub scan: SyntheticScan,
    /// Logical size of the detector counts, bytes.
    pub bytes: u64,
}

impl Workload {
    /// Generate a workload of approximately `megabytes` of u16 counts.
    ///
    /// Noise makes every differential non-zero, so with no cutoff the run
    /// processes 100 % of pairs — the paper's default operating point.
    pub fn of_megabytes(megabytes: f64, seed: u64) -> Workload {
        let target = (megabytes * 1024.0 * 1024.0) as u64;
        let side = dims_for_bytes(target, N_STEPS);
        let scan = SyntheticScanBuilder::new(side, side, N_STEPS)
            .scatterers((side * side / 16).max(4))
            .background(20.0)
            .noise(1.0)
            .seed(seed)
            .build()
            .expect("workload generation");
        let bytes = (N_STEPS * side * side * 2) as u64;
        Workload {
            label: format!("{megabytes:.1} MB"),
            scan,
            bytes,
        }
    }

    /// Generate a workload with an explicit `rows` × `cols` detector.
    ///
    /// The weak-scaling study needs per-node work that partitions
    /// *exactly*: `of_megabytes` rounds its byte target to a square
    /// detector side, so doubling the target does not double the pair
    /// count. Scaling rows only (cols fixed) keeps every node's shard
    /// structurally identical, which is what makes a weak-scaling
    /// efficiency of 1.0 the true ceiling.
    pub fn of_dims(rows: usize, cols: usize, seed: u64) -> Workload {
        let scan = SyntheticScanBuilder::new(rows, cols, N_STEPS)
            .scatterers((rows * cols / 16).max(4))
            .background(20.0)
            .noise(1.0)
            .seed(seed)
            .build()
            .expect("workload generation");
        let bytes = (N_STEPS * rows * cols * 2) as u64;
        Workload {
            label: format!("{rows}x{cols}"),
            scan,
            bytes,
        }
    }

    /// The paper's Fig 8 sizes at 1/1000 scale.
    pub fn fig8_set() -> Vec<Workload> {
        [2.1, 2.7, 3.6, 5.2]
            .iter()
            .enumerate()
            .map(|(i, &mb)| Workload::of_megabytes(mb, 100 + i as u64))
            .collect()
    }

    /// A fresh in-memory slab source over this workload.
    pub fn source(&self) -> laue_core::InMemorySlabSource {
        laue_core::InMemorySlabSource::new(
            self.scan.images.clone(),
            self.scan.geometry.wire.n_steps,
            self.scan.geometry.detector.n_rows,
            self.scan.geometry.detector.n_cols,
        )
        .expect("source")
    }

    /// Run an engine over this workload with the default (paper) machines.
    pub fn run(&self, cfg: &ReconstructionConfig, engine: Engine) -> RunReport {
        let mut source = self.source();
        Pipeline::default()
            .run_source(&mut source, &self.scan.geometry, cfg, engine)
            .expect("pipeline run")
    }

    /// Detector side length.
    pub fn side(&self) -> usize {
        self.scan.geometry.detector.n_rows
    }
}

/// The depth window every figure uses: wide enough for the demo geometry's
/// full per-pixel depth spread, 200 bins.
pub fn standard_config() -> ReconstructionConfig {
    ReconstructionConfig::new(-4000.0, 4000.0, 200)
}

/// Percentile of |ΔI| over a stack — used to pick cutoffs that select a
/// target pixel percentage for Fig 9.
pub fn delta_percentile(w: &Workload, fraction: f64) -> f64 {
    let g = &w.scan.geometry;
    let (p, m, n) = (g.wire.n_steps, g.detector.n_rows, g.detector.n_cols);
    let mut deltas: Vec<f64> = Vec::with_capacity((p - 1) * m * n);
    for z in 0..p - 1 {
        for px in 0..m * n {
            deltas
                .push((w.scan.images[z * m * n + px] - w.scan.images[(z + 1) * m * n + px]).abs());
        }
    }
    deltas.sort_by(f64::total_cmp);
    deltas[((deltas.len() as f64 * fraction) as usize).min(deltas.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_sizes_track_targets() {
        let w = Workload::of_megabytes(2.1, 1);
        let ratio = w.bytes as f64 / (2.1 * 1024.0 * 1024.0);
        assert!((0.8..=1.05).contains(&ratio), "ratio {ratio}");
        assert_eq!(w.scan.geometry.wire.n_steps, N_STEPS);
    }

    #[test]
    fn fig8_set_is_monotone_in_size() {
        // Use tiny stand-ins to keep the test fast.
        let sizes = [0.2, 0.4];
        let ws: Vec<Workload> = sizes
            .iter()
            .map(|&mb| Workload::of_megabytes(mb, 7))
            .collect();
        assert!(ws[1].bytes > ws[0].bytes);
        assert!(ws[1].side() > ws[0].side());
    }

    #[test]
    fn of_dims_scales_rows_exactly() {
        let w1 = Workload::of_dims(20, 10, 9);
        let w2 = Workload::of_dims(40, 10, 9);
        assert_eq!(w2.bytes, 2 * w1.bytes, "rows-only scaling doubles exactly");
        assert_eq!(w1.scan.geometry.detector.n_cols, 10);
        assert_eq!(w2.scan.geometry.detector.n_rows, 40);
    }

    #[test]
    fn delta_percentile_is_monotone() {
        let w = Workload::of_megabytes(0.2, 3);
        let p25 = delta_percentile(&w, 0.25);
        let p50 = delta_percentile(&w, 0.50);
        let p75 = delta_percentile(&w, 0.75);
        assert!(p25 <= p50 && p50 <= p75);
    }
}
