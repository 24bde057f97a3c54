//! CPU reconstruction engines: the paper's sequential baseline and a
//! row-parallel threaded variant.
//!
//! The sequential engine is a faithful restructuring of the "prior CPU
//! design" the paper benchmarks against: one pass over every
//! `(row, col, step-pair)` element in row-major order. The threaded variant
//! splits detector rows across OS threads — output rows are disjoint per
//! thread, so no synchronisation is needed (unlike the GPU kernel, whose
//! thread-per-pair mapping races on output bins and needs `atomicAdd`).

use std::ops::Range;

use cuda_sim::{Cost, HostProps};
use laue_geometry::{DepthMapper, Vec3};

use crate::cache::EdgeTable;
use crate::config::{CompactionMode, ReconstructionConfig};
use crate::error::CoreError;
use crate::geometry::ScanGeometry;
use crate::input::ScanView;
use crate::multi::row_bands;
use crate::output::DepthImage;
use crate::pair::{
    deposit_plan, plan_with_edges, COMPACT_ENTRY_BYTES, MEM_BYTES_PER_DEPOSIT, MEM_BYTES_PER_PAIR,
    PRESCAN_BYTES_PER_READ, PRESCAN_FLOPS_PER_PAIR,
};
use crate::planner::host_compaction_wins;
use crate::planning::{plan_slab_sparsity, unpack_entry, ShadowCull};
use crate::stats::{PairOutcome, ReconStats};
use crate::Result;

/// Result of a CPU reconstruction.
#[derive(Debug, Clone)]
pub struct CpuReconstruction {
    /// The depth-resolved output.
    pub image: DepthImage,
    /// Outcome counters.
    pub stats: ReconStats,
    /// Logical work performed, for the virtual-time model.
    pub cost: Cost,
    /// Measured active-pair density per processed unit (the whole view for
    /// the sequential engine, one entry per row band for the threaded one).
    /// Empty when compaction is off.
    pub slab_densities: Vec<f64>,
}

impl CpuReconstruction {
    /// Modeled runtime on `host` using `cores` cores (the paper's baseline
    /// is `cores = 1`).
    pub fn modeled_time_s(&self, host: &HostProps, cores: u32) -> f64 {
        host.kernel_time(&self.cost, cores)
    }
}

/// Validate that the stack matches the geometry.
pub(crate) fn check_shapes(view: &ScanView<'_>, geom: &ScanGeometry) -> Result<()> {
    if view.n_images != geom.wire.n_steps {
        return Err(CoreError::ShapeMismatch(format!(
            "stack has {} images but the wire scan has {} steps",
            view.n_images, geom.wire.n_steps
        )));
    }
    if view.n_rows != geom.detector.n_rows || view.n_cols != geom.detector.n_cols {
        return Err(CoreError::ShapeMismatch(format!(
            "stack is {}×{} pixels but the detector is {}×{}",
            view.n_rows, view.n_cols, geom.detector.n_rows, geom.detector.n_cols
        )));
    }
    Ok(())
}

/// The host's one pair loop, shared by [`reconstruct_rows`], the sparse
/// CPU path and the integrity layer's ABFT reference. Each pixel walks the
/// pairs it is given in ascending `z`, planned exactly as
/// [`plan_pair`](crate::pair::plan_pair) plans them. Pair `z`'s trailing
/// edge is pair `z + 1`'s leading edge, so each edge depth is triangulated
/// once and handed on; the cost still charges both edges of every
/// above-cutoff pair, the work the modeled host does.
pub(crate) struct DenseWalk<'a> {
    view: ScanView<'a>,
    geom: &'a ScanGeometry,
    mapper: &'a DepthMapper,
    cfg: &'a ReconstructionConfig,
    wire_centers: Vec<Vec3>,
    detector_row_offset: usize,
}

impl<'a> DenseWalk<'a> {
    /// A walk over `view`, whose row `r` is detector row
    /// `detector_row_offset + r` (non-zero when `view` is a streamed slab).
    pub(crate) fn new(
        view: ScanView<'a>,
        geom: &'a ScanGeometry,
        mapper: &'a DepthMapper,
        cfg: &'a ReconstructionConfig,
        detector_row_offset: usize,
    ) -> DenseWalk<'a> {
        DenseWalk {
            view,
            geom,
            mapper,
            cfg,
            wire_centers: geom.wire.centers(),
            detector_row_offset,
        }
    }

    /// The view being walked.
    pub(crate) fn view(&self) -> &ScanView<'a> {
        &self.view
    }

    /// Walk the pairs `pairs` (ascending) of view pixel `(r, c)`,
    /// depositing through `deposit(bin, amount)` in pair order.
    pub(crate) fn pixel(
        &self,
        r: usize,
        c: usize,
        pairs: impl IntoIterator<Item = usize>,
        stats: &mut ReconStats,
        cost: &mut Cost,
        mut deposit: impl FnMut(usize, f64),
    ) {
        let (view, cfg) = (&self.view, self.cfg);
        let pixel = self
            .geom
            .detector
            .pixel_to_xyz_unchecked((self.detector_row_offset + r) as f64, c as f64);
        let depth = |z: usize| {
            self.mapper
                .depth(pixel, self.wire_centers[z], cfg.wire_edge)
                .ok()
        };
        // The last triangulated trailing edge: (step, depth).
        let mut trailing: (usize, Option<f64>) = (usize::MAX, None);
        for z in pairs {
            cost.mem_bytes += MEM_BYTES_PER_PAIR;
            let (i0, i1) = (view.at(z, r, c), view.at(z + 1, r, c));
            let plan = plan_with_edges(cfg, i0, i1, &mut cost.flops, || {
                let d0 = if trailing.0 == z {
                    trailing.1
                } else {
                    depth(z)
                };
                trailing = (z + 1, depth(z + 1));
                (d0, trailing.1)
            });
            let outcome = deposit_plan(plan, cfg, &mut deposit);
            if let PairOutcome::Deposited { bins } = outcome {
                cost.mem_bytes += MEM_BYTES_PER_DEPOSIT * bins as u64;
            }
            stats.record(outcome);
        }
    }
}

/// Reconstruct the rows `rows` of `walk`'s view into an image local to
/// them (rows relative to `rows.start`), every pair of every pixel. Shared
/// by the sequential and threaded engines, and by the integrity layer as
/// the repair donor a persistently corrupting device's slab is replaced
/// with.
pub(crate) fn reconstruct_rows(
    walk: &DenseWalk<'_>,
    rows: Range<usize>,
) -> (DepthImage, ReconStats, Cost) {
    let view = walk.view();
    let mut image = DepthImage::zeroed(walk.cfg.n_depth_bins, rows.len(), view.n_cols);
    let mut stats = ReconStats::default();
    let mut cost = Cost::default();
    let pairs = 0..view.n_images - 1;
    for (i, r) in rows.enumerate() {
        for c in 0..view.n_cols {
            walk.pixel(r, c, pairs.clone(), &mut stats, &mut cost, |bin, amount| {
                *image.at_mut(bin, i, c) += amount;
            });
        }
    }
    (image, stats, cost)
}

/// Sparsity-aware [`reconstruct_rows`]: the host prescan
/// ([`plan_slab_sparsity`], charged at prescan rates) settles every culled
/// strip and tests each live pair against the cutoff; the walk then visits
/// each pixel's compacted work-list slice or — when
/// [`CompactionMode::Auto`] finds the compacted walk no cheaper
/// ([`host_compaction_wins`]) — all its live pairs. Deposits happen per
/// output cell in the same step-ascending order as the dense path, so the
/// image is bit-identical.
///
/// Returns the measured active density (active / non-culled pairs) along
/// with the usual triple. The cull's own build cost is *not* charged here —
/// callers charge its triangulations ([`EdgeTable::build_flops`]) exactly
/// once per run.
fn reconstruct_rows_sparse(
    walk: &DenseWalk<'_>,
    cull: &ShadowCull,
    rows: Range<usize>,
) -> (DepthImage, ReconStats, Cost, f64) {
    let (view, cfg) = (walk.view(), walk.cfg);
    let n_cols = view.n_cols;
    let sp = plan_slab_sparsity(view, rows.clone(), walk.detector_row_offset, cull, cfg);
    let mut image = DepthImage::zeroed(cfg.n_depth_bins, rows.len(), n_cols);
    let mut stats = ReconStats::default();
    for _ in 0..sp.culled_combos {
        stats.record_culled_row(n_cols as u64);
    }
    let live = (sp.combos.len() * n_cols) as u64;
    let compact = match cfg.compaction {
        CompactionMode::On => true,
        CompactionMode::Auto => host_compaction_wins(live, sp.entries.len() as u64),
        CompactionMode::Off => unreachable!("sparse path requires compaction"),
    };
    // The prescan reads each touched image once per pixel and compares
    // every live pair.
    let mut cost = Cost {
        mem_bytes: PRESCAN_BYTES_PER_READ * sp.touched_sum() * n_cols as u64,
        flops: PRESCAN_FLOPS_PER_PAIR * live,
        ..Cost::default()
    };
    // Compact: only active pairs, each paying the work-list emit + read on
    // top of the dense per-pair traffic; sub-cutoff pairs were already
    // settled by the prescan. Otherwise every live pair pays the full
    // dense rate (the prescan was measurement overhead, charged above).
    for (i, r) in rows.enumerate() {
        for c in 0..n_cols {
            let pix = i * n_cols + c;
            let deposit = |bin: usize, amount: f64| *image.at_mut(bin, i, c) += amount;
            if compact {
                let list = sp.pixel_entries(pix);
                let pairs = list.iter().map(|&e| unpack_entry(e).2);
                walk.pixel(r, c, pairs, &mut stats, &mut cost, deposit);
                cost.mem_bytes += 2 * COMPACT_ENTRY_BYTES * list.len() as u64;
                for _ in 0..sp.below_per_pixel[pix] {
                    stats.record_compacted();
                }
            } else {
                let pairs = sp.live_pairs[i].iter().map(|&z| z as usize);
                walk.pixel(r, c, pairs, &mut stats, &mut cost, deposit);
            }
        }
    }
    (image, stats, cost, sp.density)
}

/// The paper's baseline: a single-threaded pass over the whole stack, the
/// one-band [`reconstruct_threaded`].
pub fn reconstruct_seq(
    view: &ScanView<'_>,
    geom: &ScanGeometry,
    cfg: &ReconstructionConfig,
) -> Result<CpuReconstruction> {
    reconstruct_threaded(view, geom, cfg, 1)
}

/// Row-parallel reconstruction across `n_threads` OS threads.
///
/// Bitwise-identical at every thread count, one included
/// ([`reconstruct_seq`]): each output element is the sum of the same
/// contributions in the same (step-ascending) order, and rows never cross
/// threads.
pub fn reconstruct_threaded(
    view: &ScanView<'_>,
    geom: &ScanGeometry,
    cfg: &ReconstructionConfig,
    n_threads: usize,
) -> Result<CpuReconstruction> {
    cfg.validate()?;
    check_shapes(view, geom)?;
    if n_threads == 0 {
        return Err(CoreError::InvalidConfig("n_threads must be ≥ 1".into()));
    }
    let mapper = geom.mapper()?;
    // The cull alone: the depths it was recorded with drop right here.
    let cull = cfg.compaction.enabled().then(|| {
        let all = 0..view.n_rows;
        EdgeTable::build(geom, &mapper, cfg.wire_edge, std::slice::from_ref(&all)).cull
    });
    let parts: Vec<(DepthImage, ReconStats, Cost, usize, Option<f64>)> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = row_bands(view.n_rows, n_threads)
                .into_iter()
                .map(|band| {
                    let (mapper, cull) = (&mapper, cull.as_deref());
                    // Each worker builds its own walk: one walk built before
                    // the spawn and shared (1.5 KB of wire centres) moved
                    // glibc's heap placement enough to raise the
                    // production-sparse benchmark's peak RSS by 6 MiB.
                    scope.spawn(move || {
                        let walk = &DenseWalk::new(*view, geom, mapper, cfg, 0);
                        let row0 = band.start;
                        match cull {
                            Some(cull) => {
                                let (img, stats, cost, density) =
                                    reconstruct_rows_sparse(walk, cull, band);
                                (img, stats, cost, row0, Some(density))
                            }
                            None => {
                                let (img, stats, cost) = reconstruct_rows(walk, band);
                                (img, stats, cost, row0, None)
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
    let mut image = DepthImage::zeroed(cfg.n_depth_bins, view.n_rows, view.n_cols);
    let mut stats = ReconStats::default();
    let mut cost = Cost::default();
    let mut slab_densities = Vec::new();
    if cull.is_some() {
        cost.flops += EdgeTable::build_flops(geom, view.n_rows);
    }
    for (part, part_stats, part_cost, row0, density) in parts {
        stats.merge(&part_stats);
        cost.merge(&part_cost);
        slab_densities.extend(density);
        if part.n_rows == view.n_rows {
            // One thread's band is the whole image: keep it, don't copy it.
            image = part;
            continue;
        }
        for bin in 0..cfg.n_depth_bins {
            for r in 0..part.n_rows {
                for c in 0..part.n_cols {
                    *image.at_mut(bin, row0 + r, c) = part.at(bin, r, c);
                }
            }
        }
    }
    Ok(CpuReconstruction {
        image,
        stats,
        cost,
        slab_densities,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::input::InMemorySlabSource;
    use crate::pair::{differential, process_pair};
    use laue_geometry::WireEdge;
    use proptest::prelude::*;

    /// The dense pair loop as it was before [`DenseWalk`], kept as the
    /// oracle the walk must match: every pair through `process_pair`, which
    /// triangulates both edges of each above-cutoff pair.
    pub(crate) fn reconstruct_rows_oracle(
        view: &ScanView<'_>,
        geom: &ScanGeometry,
        mapper: &DepthMapper,
        cfg: &ReconstructionConfig,
        rows: std::ops::Range<usize>,
        detector_row_offset: usize,
    ) -> (DepthImage, ReconStats, Cost) {
        let mut image = DepthImage::zeroed(cfg.n_depth_bins, rows.len(), view.n_cols);
        let mut stats = ReconStats::default();
        let mut cost = Cost::default();
        let wire_centers = geom.wire.centers();
        let row0 = rows.start;
        for r in rows {
            for c in 0..view.n_cols {
                let pixel = geom
                    .detector
                    .pixel_to_xyz_unchecked((detector_row_offset + r) as f64, c as f64);
                for z in 0..view.n_images - 1 {
                    cost.mem_bytes += MEM_BYTES_PER_PAIR;
                    let outcome = process_pair(
                        mapper,
                        cfg,
                        pixel,
                        wire_centers[z],
                        wire_centers[z + 1],
                        view.at(z, r, c),
                        view.at(z + 1, r, c),
                        |bin, amount| {
                            cost.mem_bytes += MEM_BYTES_PER_DEPOSIT;
                            *image.at_mut(bin, r - row0, c) += amount;
                        },
                        &mut cost.flops,
                    );
                    stats.record(outcome);
                }
            }
        }
        (image, stats, cost)
    }

    /// The two-pass sparse loop as it was before the engines shared the
    /// GPU path's prescan and [`DenseWalk`], kept as the oracle the shared
    /// path must match. Pass 1 walks each pixel's step column once, testing
    /// every non-culled pair against the cutoff (charged at prescan rates);
    /// pass 2 then executes either the active pairs or — when
    /// [`CompactionMode::Auto`] measures a high density — every non-culled
    /// pair, each through `process_pair`.
    fn reconstruct_rows_sparse_oracle(
        view: &ScanView<'_>,
        geom: &ScanGeometry,
        mapper: &DepthMapper,
        cfg: &ReconstructionConfig,
        rows: std::ops::Range<usize>,
        cull: &ShadowCull,
    ) -> (DepthImage, ReconStats, Cost, f64) {
        let n_rows_out = rows.len();
        let n_cols = view.n_cols;
        let mut image = DepthImage::zeroed(cfg.n_depth_bins, n_rows_out, n_cols);
        let mut stats = ReconStats::default();
        let mut cost = Cost::default();
        let wire_centers = geom.wire.centers();
        let n_pairs = view.n_images - 1;
        let row0 = rows.start;
        let live_per_row: Vec<Vec<usize>> = rows
            .clone()
            .map(|r| {
                let live = cull.live_pairs(cfg, r);
                live.into_iter().map(|z| z as usize).collect()
            })
            .collect();
        for live in &live_per_row {
            for z in 0..n_pairs {
                if !live.contains(&z) {
                    stats.record_culled_row(n_cols as u64);
                }
            }
        }
        let mut active = vec![false; n_rows_out * n_cols * n_pairs];
        let mut live_total = 0u64;
        let mut active_total = 0u64;
        for (i, live) in live_per_row.iter().enumerate() {
            if live.is_empty() {
                continue;
            }
            let mut touched = live.len() as u64 + 1;
            for w in live.windows(2) {
                if w[1] != w[0] + 1 {
                    touched += 1;
                }
            }
            let r = row0 + i;
            for c in 0..n_cols {
                cost.mem_bytes += PRESCAN_BYTES_PER_READ * touched;
                cost.flops += PRESCAN_FLOPS_PER_PAIR * live.len() as u64;
                live_total += live.len() as u64;
                for &z in live {
                    let delta = differential(cfg, view.at(z, r, c), view.at(z + 1, r, c));
                    if delta.abs() > cfg.intensity_cutoff {
                        active[(i * n_cols + c) * n_pairs + z] = true;
                        active_total += 1;
                    }
                }
            }
        }
        let density = if live_total == 0 {
            0.0
        } else {
            active_total as f64 / live_total as f64
        };
        let compact = match cfg.compaction {
            CompactionMode::On => true,
            CompactionMode::Auto => host_compaction_wins(live_total, active_total),
            CompactionMode::Off => unreachable!("sparse path requires compaction"),
        };
        for (i, live) in live_per_row.iter().enumerate() {
            let r = row0 + i;
            for c in 0..n_cols {
                let pixel = geom.detector.pixel_to_xyz_unchecked(r as f64, c as f64);
                for &z in live {
                    if compact && !active[(i * n_cols + c) * n_pairs + z] {
                        stats.record_compacted();
                        continue;
                    }
                    cost.mem_bytes += MEM_BYTES_PER_PAIR;
                    if compact {
                        cost.mem_bytes += 2 * COMPACT_ENTRY_BYTES;
                    }
                    let outcome = process_pair(
                        mapper,
                        cfg,
                        pixel,
                        wire_centers[z],
                        wire_centers[z + 1],
                        view.at(z, r, c),
                        view.at(z + 1, r, c),
                        |bin, amount| {
                            cost.mem_bytes += MEM_BYTES_PER_DEPOSIT;
                            *image.at_mut(bin, i, c) += amount;
                        },
                        &mut cost.flops,
                    );
                    stats.record(outcome);
                }
            }
        }
        (image, stats, cost, density)
    }

    /// Intensities a random stack draws from: repeats (pairs at the
    /// cutoff or with ΔI = 0), small and large steps of either sign.
    pub(crate) fn intensity() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(100.0),
            Just(100.0),
            Just(0.0),
            0.0f64..200.0,
            -50.0f64..5000.0,
        ]
    }

    /// A `(steps, rows, cols, intensities)` stack below the given bounds.
    pub(crate) fn random_stack(
        max_steps: usize,
        max_rows: usize,
        max_cols: usize,
    ) -> impl Strategy<Value = (usize, usize, usize, Vec<f64>)> {
        (2..max_steps, 1..max_rows, 1..max_cols).prop_flat_map(|(p, m, n)| {
            (
                Just(p),
                Just(m),
                Just(n),
                proptest::collection::vec(intensity(), p * m * n),
            )
        })
    }

    pub(crate) fn wire_edge() -> impl Strategy<Value = WireEdge> {
        prop_oneof![Just(WireEdge::Leading), Just(WireEdge::Trailing)]
    }

    /// A stack where image z+1 loses a constant amount at one pixel —
    /// everything else is static, so exactly one pair deposits.
    fn single_drop_stack(geom: &ScanGeometry, r: usize, c: usize, at_step: usize) -> Vec<f64> {
        let (p, m, n) = (
            geom.wire.n_steps,
            geom.detector.n_rows,
            geom.detector.n_cols,
        );
        let mut data = vec![100.0; p * m * n];
        for z in at_step + 1..p {
            data[(z * m + r) * n + c] = 40.0;
        }
        data
    }

    fn demo() -> (ScanGeometry, ReconstructionConfig) {
        let geom = ScanGeometry::demo(6, 6, 10, -60.0, 6.0).unwrap();
        // Wide enough that every pixel's depth band lies inside the window.
        let cfg = ReconstructionConfig::new(-1200.0, 1200.0, 120);
        (geom, cfg)
    }

    #[test]
    fn shape_validation() {
        let (geom, cfg) = demo();
        let bad = vec![0.0; 10];
        assert!(ScanView::new(&bad, 10, 6, 6).is_err());
        let wrong_rows = vec![0.0; 10 * 5 * 6];
        let view = ScanView::new(&wrong_rows, 10, 5, 6).unwrap();
        assert!(matches!(
            reconstruct_seq(&view, &geom, &cfg),
            Err(CoreError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn static_stack_reconstructs_to_zero() {
        let (geom, cfg) = demo();
        let data = vec![77.0; 10 * 6 * 6];
        let view = ScanView::new(&data, 10, 6, 6).unwrap();
        let out = reconstruct_seq(&view, &geom, &cfg).unwrap();
        assert_eq!(out.image.total_intensity(), 0.0);
        assert_eq!(out.stats.pairs_deposited, 0);
        assert_eq!(out.stats.pairs_total, (10 - 1) * 36);
        assert!(out.stats.is_consistent());
    }

    #[test]
    fn single_drop_deposits_at_the_right_depth() {
        let (geom, cfg) = demo();
        let (r, c, step) = (2, 3, 4);
        let data = single_drop_stack(&geom, r, c, step);
        let view = ScanView::new(&data, 10, 6, 6).unwrap();
        let out = reconstruct_seq(&view, &geom, &cfg).unwrap();
        assert_eq!(out.stats.pairs_deposited, 1);
        // All 60 units land on pixel (r, c).
        let profile_total: f64 = out.image.depth_profile(r, c).iter().sum();
        assert!((profile_total - 60.0).abs() < 1e-9, "got {profile_total}");
        // The peak sits inside the leading-edge band of the drop step.
        let mapper = geom.mapper().unwrap();
        let pixel = geom.detector.pixel_to_xyz(r, c).unwrap();
        let d0 = mapper
            .depth(pixel, geom.wire.center(step).unwrap(), cfg.wire_edge)
            .unwrap();
        let d1 = mapper
            .depth(pixel, geom.wire.center(step + 1).unwrap(), cfg.wire_edge)
            .unwrap();
        let peak = out.image.pixel_peak_depth(r, c, &cfg).unwrap();
        let (lo, hi) = (d0.min(d1), d0.max(d1));
        assert!(
            peak >= lo - cfg.bin_width() && peak <= hi + cfg.bin_width(),
            "peak {peak} outside band [{lo}, {hi}]"
        );
    }

    #[test]
    fn cutoff_suppresses_small_differentials() {
        let (geom, mut cfg) = demo();
        let data = single_drop_stack(&geom, 1, 1, 3);
        let view = ScanView::new(&data, 10, 6, 6).unwrap();
        cfg.intensity_cutoff = 100.0; // bigger than the 60-unit drop
        let out = reconstruct_seq(&view, &geom, &cfg).unwrap();
        assert_eq!(out.stats.pairs_deposited, 0);
        assert_eq!(out.image.total_intensity(), 0.0);
        assert_eq!(out.stats.active_fraction(), 0.0);
    }

    #[test]
    fn threaded_matches_sequential_bitwise() {
        let (geom, cfg) = demo();
        // A busier stack: every pixel ramps down over the scan.
        let (p, m, n) = (10, 6, 6);
        let data: Vec<f64> = (0..p * m * n)
            .map(|i| {
                let z = i / (m * n);
                let px = i % (m * n);
                1000.0 - 37.0 * z as f64 - (px % 7) as f64 * 11.0
            })
            .collect();
        let view = ScanView::new(&data, p, m, n).unwrap();
        let seq = reconstruct_seq(&view, &geom, &cfg).unwrap();
        for threads in [1, 2, 3, 5, 8] {
            let par = reconstruct_threaded(&view, &geom, &cfg, threads).unwrap();
            assert_eq!(
                seq.image.data, par.image.data,
                "threaded({threads}) must be bitwise identical"
            );
            assert_eq!(seq.stats, par.stats);
            assert_eq!(seq.cost.flops, par.cost.flops);
        }
        assert!(matches!(
            reconstruct_threaded(&view, &geom, &cfg, 0),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn intensity_is_conserved_for_interior_bands() {
        // With a generous depth window, every deposited pair lands fully
        // inside the window, so total output = total of deposited ΔI.
        let (geom, cfg) = demo();
        let (p, m, n) = (10, 6, 6);
        // Monotone decreasing stacks → all ΔI ≥ 0.
        let data: Vec<f64> = (0..p * m * n)
            .map(|i| {
                let z = i / (m * n);
                500.0 - 13.0 * z as f64
            })
            .collect();
        let view = ScanView::new(&data, p, m, n).unwrap();
        let out = reconstruct_seq(&view, &geom, &cfg).unwrap();
        // Every pair drops 13 units; all 9×36 pairs deposit.
        let expected = 13.0 * 9.0 * 36.0;
        assert_eq!(
            out.stats.pairs_deposited + out.stats.pairs_out_of_range,
            9 * 36
        );
        let captured = out.image.total_intensity();
        assert!(
            (captured - expected).abs() / expected < 1e-6,
            "captured {captured} vs {expected}"
        );
    }

    #[test]
    fn modeled_time_uses_host_props() {
        let (geom, cfg) = demo();
        let data = single_drop_stack(&geom, 0, 0, 2);
        let view = ScanView::new(&data, 10, 6, 6).unwrap();
        let out = reconstruct_seq(&view, &geom, &cfg).unwrap();
        let host = HostProps::xeon_e5630();
        let t1 = out.modeled_time_s(&host, 1);
        let t4 = out.modeled_time_s(&host, 4);
        assert!(t1 > 0.0 && t4 > 0.0 && t4 <= t1);
    }

    /// A stack with per-pixel ramps of varying size, so a mid percentile
    /// cutoff leaves a genuinely mixed active/inactive population.
    fn mixed_stack(p: usize, m: usize, n: usize) -> Vec<f64> {
        (0..p * m * n)
            .map(|i| {
                let z = i / (m * n);
                let px = i % (m * n);
                900.0 - (px % 9) as f64 * 5.0 * z as f64 - (px % 3) as f64
            })
            .collect()
    }

    #[test]
    fn compaction_modes_match_dense_bitwise() {
        let (geom, mut cfg) = demo();
        let (p, m, n) = (10, 6, 6);
        let data = mixed_stack(p, m, n);
        let view = ScanView::new(&data, p, m, n).unwrap();
        // A cutoff that splits the pair population roughly in half.
        cfg.intensity_cutoff = 18.0;
        let dense = reconstruct_seq(&view, &geom, &cfg).unwrap();
        assert!(dense.slab_densities.is_empty());
        for mode in [CompactionMode::Auto, CompactionMode::On] {
            let mut cfg = cfg.clone();
            cfg.compaction = mode;
            let seq = reconstruct_seq(&view, &geom, &cfg).unwrap();
            assert_eq!(dense.image.data, seq.image.data, "{mode:?} seq");
            assert!(seq.stats.is_consistent());
            assert_eq!(seq.slab_densities.len(), 1);
            // The wide demo window culls nothing, so the classification is
            // identical to dense — only the new counters move.
            assert_eq!(seq.stats.culled_rows, 0);
            assert_eq!(seq.stats.pairs_total, dense.stats.pairs_total);
            assert_eq!(seq.stats.pairs_deposited, dense.stats.pairs_deposited);
            assert_eq!(seq.stats.pairs_below_cutoff, dense.stats.pairs_below_cutoff);
            for threads in [2, 5] {
                let par = reconstruct_threaded(&view, &geom, &cfg, threads).unwrap();
                assert_eq!(
                    dense.image.data, par.image.data,
                    "{mode:?} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn compaction_on_is_deterministic_across_engines() {
        let (geom, mut cfg) = demo();
        let (p, m, n) = (10, 6, 6);
        let data = mixed_stack(p, m, n);
        let view = ScanView::new(&data, p, m, n).unwrap();
        cfg.intensity_cutoff = 18.0;
        cfg.compaction = CompactionMode::On;
        let seq = reconstruct_seq(&view, &geom, &cfg).unwrap();
        assert!(seq.stats.compacted_pairs > 0);
        assert_eq!(seq.stats.compacted_pairs, seq.stats.pairs_below_cutoff);
        for threads in [1, 3, 8] {
            let par = reconstruct_threaded(&view, &geom, &cfg, threads).unwrap();
            assert_eq!(seq.image.data, par.image.data);
            assert_eq!(seq.stats, par.stats);
            assert_eq!(seq.cost.flops, par.cost.flops);
        }
    }

    #[test]
    fn compaction_cuts_modeled_traffic_on_sparse_stacks() {
        let (geom, mut cfg) = demo();
        // Static except one drop: almost everything is below-cutoff.
        let data = single_drop_stack(&geom, 2, 2, 4);
        let view = ScanView::new(&data, 10, 6, 6).unwrap();
        cfg.intensity_cutoff = 1.0;
        let dense = reconstruct_seq(&view, &geom, &cfg).unwrap();
        cfg.compaction = CompactionMode::On;
        let compact = reconstruct_seq(&view, &geom, &cfg).unwrap();
        assert_eq!(dense.image.data, compact.image.data);
        assert!(
            compact.cost.mem_bytes < dense.cost.mem_bytes / 2,
            "compact {} vs dense {} bytes",
            compact.cost.mem_bytes,
            dense.cost.mem_bytes
        );
        assert!(compact.slab_densities[0] < 0.05);
    }

    #[test]
    fn wire_shadow_culling_preserves_bits_on_narrow_windows() {
        let geom = ScanGeometry::demo(6, 6, 10, -60.0, 6.0).unwrap();
        // A window covering only part of the swept range, so whole
        // (pair, row) strips drop out.
        let mut cfg = ReconstructionConfig::new(-350.0, 150.0, 50);
        let (p, m, n) = (10, 6, 6);
        let data = mixed_stack(p, m, n);
        let view = ScanView::new(&data, p, m, n).unwrap();
        let dense = reconstruct_seq(&view, &geom, &cfg).unwrap();
        for mode in [CompactionMode::Auto, CompactionMode::On] {
            cfg.compaction = mode;
            let culled = reconstruct_seq(&view, &geom, &cfg).unwrap();
            assert_eq!(dense.image.data, culled.image.data, "{mode:?}");
            assert!(culled.stats.is_consistent());
            assert!(culled.stats.culled_rows > 0, "window should cull strips");
            assert_eq!(culled.stats.pairs_total, dense.stats.pairs_total);
            assert_eq!(culled.stats.pairs_deposited, dense.stats.pairs_deposited);
            assert_eq!(culled.stats.deposits, dense.stats.deposits);
        }
    }

    #[test]
    fn auto_mode_falls_back_to_dense_at_high_density() {
        let (geom, cfg) = demo();
        let (p, m, n) = (10, 6, 6);
        // Every pair well above the zero cutoff → density 1.0.
        let data: Vec<f64> = (0..p * m * n)
            .map(|i| 500.0 - 13.0 * (i / (m * n)) as f64)
            .collect();
        let view = ScanView::new(&data, p, m, n).unwrap();
        let dense = reconstruct_seq(&view, &geom, &cfg).unwrap();
        let mut auto_cfg = cfg.clone();
        auto_cfg.compaction = CompactionMode::Auto;
        let auto = reconstruct_seq(&view, &geom, &auto_cfg).unwrap();
        assert_eq!(dense.image.data, auto.image.data);
        assert_eq!(auto.slab_densities, vec![1.0]);
        // Dense fallback: nothing was compacted away.
        assert_eq!(auto.stats.compacted_pairs, 0);
        let mut on_cfg = cfg;
        on_cfg.compaction = CompactionMode::On;
        let on = reconstruct_seq(&view, &geom, &on_cfg).unwrap();
        assert_eq!(dense.image.data, on.image.data);
        assert_eq!(on.stats.compacted_pairs, 0); // nothing below cutoff
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The walk keeps the engines' images, stats and `Cost` what the
        /// pre-walk loop gave: it skips repeated triangulations, never a
        /// charge.
        #[test]
        fn shared_walk_keeps_images_stats_and_cost(
            stack in random_stack(10, 6, 6),
            cutoff in prop_oneof![Just(0.0f64), 0.0f64..60.0],
            edge in wire_edge(),
            start in -1500.0f64..200.0,
            width in 50.0f64..3000.0,
            bins in 1usize..90,
            threads in 1usize..5,
        ) {
            let (p, m, n, data) = stack;
            let geom = ScanGeometry::demo(m, n, p, -60.0, 6.0).unwrap();
            let mapper = geom.mapper().unwrap();
            let mut cfg = ReconstructionConfig::new(start, start + width, bins);
            cfg.intensity_cutoff = cutoff;
            cfg.wire_edge = edge;
            let view = ScanView::new(&data, p, m, n).unwrap();
            let (image, stats, cost) =
                reconstruct_rows_oracle(&view, &geom, &mapper, &cfg, 0..m, 0);
            let seq = reconstruct_seq(&view, &geom, &cfg).unwrap();
            prop_assert_eq!(&seq.image.data, &image.data);
            prop_assert_eq!(seq.stats, stats);
            prop_assert_eq!(seq.cost, cost);
            let par = reconstruct_threaded(&view, &geom, &cfg, threads).unwrap();
            prop_assert_eq!(&par.image.data, &image.data);
            prop_assert_eq!(par.stats, stats);
            prop_assert_eq!(par.cost, cost);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The threaded sparse engine merges to what the two-pass oracle
        /// gives band by band: the image bits, the stats, the `Cost` (one
        /// full-detector cull charged once) and one density per band.
        #[test]
        fn sparse_engines_match_the_two_pass_oracle(
            stack in random_stack(10, 7, 6),
            cutoff in prop_oneof![Just(0.0f64), 0.0f64..60.0],
            edge in wire_edge(),
            start in -700.0f64..0.0,
            width in 100.0f64..700.0,
            bins in 1usize..90,
        ) {
            let (p, m, n, data) = stack;
            let geom = ScanGeometry::demo(m, n, p, -60.0, 6.0).unwrap();
            let mapper = geom.mapper().unwrap();
            let view = ScanView::new(&data, p, m, n).unwrap();
            let all = 0..m;
            let cull = EdgeTable::build(&geom, &mapper, edge, std::slice::from_ref(&all)).cull;
            for mode in [CompactionMode::On, CompactionMode::Auto] {
                let mut cfg = ReconstructionConfig::new(start, start + width, bins);
                cfg.intensity_cutoff = cutoff;
                cfg.wire_edge = edge;
                cfg.compaction = mode;
                for threads in [1, 3] {
                    let mut image = DepthImage::zeroed(bins, m, n);
                    let mut stats = ReconStats::default();
                    let mut cost = Cost {
                        flops: EdgeTable::build_flops(&geom, m),
                        ..Cost::default()
                    };
                    let mut densities = Vec::new();
                    for band in row_bands(m, threads) {
                        let (part, part_stats, part_cost, density) =
                            reconstruct_rows_sparse_oracle(
                                &view, &geom, &mapper, &cfg, band.clone(), &cull,
                            );
                        stats.merge(&part_stats);
                        cost.merge(&part_cost);
                        densities.push(density);
                        for (bin, r, c) in (0..bins).flat_map(|b| {
                            (0..band.len()).flat_map(move |r| (0..n).map(move |c| (b, r, c)))
                        }) {
                            *image.at_mut(bin, band.start + r, c) = part.at(bin, r, c);
                        }
                    }
                    let got = reconstruct_threaded(&view, &geom, &cfg, threads).unwrap();
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&got.image.data), bits(&image.data));
                    prop_assert_eq!(got.stats, stats);
                    prop_assert_eq!(got.cost, cost);
                    prop_assert_eq!(bits(&got.slab_densities), bits(&densities));
                }
            }
        }
    }

    #[test]
    fn slab_source_view_round_trip() {
        let (geom, cfg) = demo();
        let data = single_drop_stack(&geom, 3, 3, 5);
        let src = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
        let out_a = reconstruct_seq(&src.view(), &geom, &cfg).unwrap();
        let view = ScanView::new(&data, 10, 6, 6).unwrap();
        let out_b = reconstruct_seq(&view, &geom, &cfg).unwrap();
        assert_eq!(out_a.image.data, out_b.image.data);
    }
}
