//! Scan planning: the instrument-side math a beamline scientist runs
//! *before* a wire scan — what depth range a scan covers, at what
//! resolution, and how far the two wire edges are apart (the unambiguous
//! depth window).
//!
//! These quantities also drive the synthetic-workload builders and explain
//! the reconstruction's accuracy limits, so they live next to the engines.

use std::ops::Range;
use std::sync::Arc;

use laue_geometry::{DepthMapper, Vec3, WireEdge, WireGeometry};

use crate::cache::{DepthTableCache, EdgeTable, TableKey};
use crate::config::ReconstructionConfig;
use crate::error::CoreError;
use crate::geometry::ScanGeometry;
use crate::Result;

/// Level-1 sparsity: per-(wire step, detector row) bounds on the edge
/// depth, used to skip whole `(pair, row)` strips whose wire-shadow band
/// provably misses the reconstruction window — before any intensity is
/// read.
///
/// For each step `z` and detector row `r` the table holds the min/max edge
/// depth over the row's columns (and an "unsafe" flag when any pixel's
/// triangulation failed or returned a non-finite depth). A pair `(z, z+1)`
/// on row `r` can only deposit inside `[min(lo_z, lo_z1), max(hi_z,
/// hi_z1)]`; when that envelope misses `[depth_start, depth_end)` the whole
/// strip is culled. The bound is conservative by construction — no
/// monotonicity assumption about the depth map is needed — so culling never
/// removes a pair the dense path would have deposited.
///
/// The bounds are a per-(step, row) min/max over an [`EdgeTable`], the
/// triangulations the GPU kernel reads too ([`ShadowCull::from_edges`]);
/// the GPU path builds that table once per scan geometry
/// ([`EdgeTable::resolve`]) and the cull once per geometry and window
/// ([`ShadowCull::resolve`]).
#[derive(Debug, Clone)]
pub struct ShadowCull {
    row0: usize,
    n_rows: usize,
    n_steps: usize,
    lo: Vec<f64>,
    hi: Vec<f64>,
    unsafe_row: Vec<bool>,
    depth_start: f64,
    depth_end: f64,
}

impl ShadowCull {
    /// Build the cull table for detector rows `rows` of a scan.
    pub fn compute(
        geom: &ScanGeometry,
        mapper: &DepthMapper,
        cfg: &ReconstructionConfig,
        rows: Range<usize>,
    ) -> ShadowCull {
        let edges = EdgeTable::build(geom, mapper, cfg.wire_edge, std::slice::from_ref(&rows));
        Self::from_edges(&edges, cfg)
    }

    /// The cull of `cfg`'s depth window over the rows `edges` covers: per
    /// (step, row), the min/max of the row's finite edge depths, unsafe
    /// where any is not finite. The table spans `edges`' span; a row it
    /// never triangulated keeps no finite bound and so reads live for
    /// every pair.
    pub fn from_edges(edges: &EdgeTable, cfg: &ReconstructionConfig) -> ShadowCull {
        let (n_steps, n_cols, n_rows) = (edges.n_steps, edges.n_cols, edges.covered.len());
        let cells = n_steps * n_rows;
        let mut lo = vec![f64::INFINITY; cells];
        let mut hi = vec![f64::NEG_INFINITY; cells];
        let mut unsafe_row = vec![false; cells];
        for r in (0..n_rows).filter(|&r| edges.covered[r]) {
            let row = &edges.depths[r * n_cols * n_steps..(r + 1) * n_cols * n_steps];
            for pixel in row.chunks_exact(n_steps) {
                for (z, &d) in pixel.iter().enumerate() {
                    let cell = z * n_rows + r;
                    if d.is_finite() {
                        if d < lo[cell] {
                            lo[cell] = d;
                        }
                        if d > hi[cell] {
                            hi[cell] = d;
                        }
                    } else {
                        unsafe_row[cell] = true;
                    }
                }
            }
        }
        ShadowCull {
            row0: edges.row0,
            n_rows,
            n_steps,
            lo,
            hi,
            unsafe_row,
            depth_start: cfg.depth_start,
            depth_end: cfg.depth_end,
        }
    }

    /// The cull the GPU path reads, from `edges` ([`EdgeTable::resolve`]).
    /// With a `cache`, `edges` is the scan geometry's full-detector table
    /// and the cull of `cfg`'s window over it is cached too, so the planner
    /// and every later ring of that geometry and window share one. With
    /// none, it is the cull over the rows `edges` covers. The cull is never
    /// charged where it is built: each ring charges
    /// [`EdgeTable::build_flops`] of its own band, and the planner prices
    /// the full detector's.
    pub fn resolve(
        cache: Option<&DepthTableCache>,
        geom: &ScanGeometry,
        cfg: &ReconstructionConfig,
        edges: &EdgeTable,
    ) -> Arc<ShadowCull> {
        match cache {
            Some(cache) => cache.shadow_cull(&TableKey::new(geom, cfg), || {
                ShadowCull::from_edges(edges, cfg)
            }),
            None => Arc::new(ShadowCull::from_edges(edges, cfg)),
        }
    }

    #[inline]
    fn cell(&self, z: usize, detector_row: usize) -> usize {
        debug_assert!(detector_row >= self.row0 && detector_row < self.row0 + self.n_rows);
        z * self.n_rows + (detector_row - self.row0)
    }

    /// Whether pair `(z, z+1)` on `detector_row` must be processed. `false`
    /// means every pixel of the row is provably OutOfRange for this pair.
    #[inline]
    pub fn pair_row_live(&self, z: usize, detector_row: usize) -> bool {
        debug_assert!(z + 1 < self.n_steps);
        let a = self.cell(z, detector_row);
        let b = self.cell(z + 1, detector_row);
        if self.unsafe_row[a] || self.unsafe_row[b] {
            // A failed triangulation means InvalidGeometry in the dense
            // path, not OutOfRange — never cull it away.
            return true;
        }
        let lo = self.lo[a].min(self.lo[b]);
        let hi = self.hi[a].max(self.hi[b]);
        // An empty row (no finite depth at all) keeps lo = +inf > hi:
        // also invalid territory, keep it live.
        if lo
            .partial_cmp(&hi)
            .is_none_or(|o| o == std::cmp::Ordering::Greater)
        {
            return true;
        }
        !(hi <= self.depth_start || lo >= self.depth_end)
    }

    /// The live (non-culled) pairs of one detector row, ascending.
    pub fn live_pairs(&self, detector_row: usize) -> Vec<usize> {
        (0..self.n_steps - 1)
            .filter(|&z| self.pair_row_live(z, detector_row))
            .collect()
    }

    /// Aggregate sparsity structure of a band of detector rows — the counts
    /// the execution planner needs to cost a slab without re-deriving the
    /// per-row live lists itself. `touched_sum` uses the same
    /// consecutive-run accounting as the prescan (a run of `k` consecutive
    /// live pairs reads `k + 1` images per pixel).
    pub fn band_profile(&self, band: std::ops::Range<usize>) -> BandProfile {
        let n_pairs = self.n_steps - 1;
        let mut profile = BandProfile::default();
        for row in band {
            let live = self.live_pairs(row);
            profile.culled_combos += (n_pairs - live.len()) as u64;
            if !live.is_empty() {
                profile.live_rows += 1;
            }
            profile.live_combos += live.len() as u64;
            let mut prev: Option<usize> = None;
            for &z in &live {
                profile.touched_sum += if prev == Some(z.wrapping_sub(1)) {
                    1
                } else {
                    2
                };
                prev = Some(z);
            }
        }
        profile
    }
}

/// What [`ShadowCull::band_profile`] measured over a band of rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BandProfile {
    /// Rows with at least one live pair.
    pub live_rows: usize,
    /// Live `(row, pair)` combos across the band.
    pub live_combos: u64,
    /// `(row, pair)` combos removed by wire-shadow culling.
    pub culled_combos: u64,
    /// Σ over rows of the per-pixel prescan's touched-image count.
    pub touched_sum: u64,
}

/// Per-pixel scan characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PixelScanInfo {
    /// Depths the leading edge crosses during the scan, `(low, high)`, µm.
    pub sweep: (f64, f64),
    /// Depth advance per wire step at mid-scan (the resolution limit), µm.
    pub resolution: f64,
    /// Leading-to-trailing edge separation at mid-scan: structure deeper
    /// than this below the shallowest scanned depth aliases with opposite
    /// sign (the unambiguous window), µm.
    pub valid_window: f64,
}

/// Analyse one pixel of a configured scan.
pub fn pixel_scan_info(
    geom: &ScanGeometry,
    mapper: &DepthMapper,
    row: usize,
    col: usize,
) -> Result<PixelScanInfo> {
    let pixel = geom.detector.pixel_to_xyz(row, col)?;
    let n = geom.wire.n_steps;
    let first = mapper.depth(pixel, geom.wire.center(0)?, WireEdge::Leading)?;
    let last = mapper.depth(pixel, geom.wire.center(n - 1)?, WireEdge::Leading)?;
    let mid = (n - 1) / 2;
    let d_mid = mapper.depth(pixel, geom.wire.center(mid)?, WireEdge::Leading)?;
    let d_mid1 = mapper.depth(pixel, geom.wire.center(mid + 1)?, WireEdge::Leading)?;
    let t_mid = mapper.depth(pixel, geom.wire.center(mid)?, WireEdge::Trailing)?;
    Ok(PixelScanInfo {
        sweep: (first.min(last), first.max(last)),
        resolution: (d_mid1 - d_mid).abs(),
        valid_window: (d_mid - t_mid).abs(),
    })
}

/// The sweep window of one pixel (shared helper for the workload plans).
pub fn sweep_window(
    geom: &ScanGeometry,
    mapper: &DepthMapper,
    row: usize,
    col: usize,
) -> Result<(f64, f64)> {
    Ok(pixel_scan_info(geom, mapper, row, col)?.sweep)
}

/// A planned wire scan for a target depth range.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPlan {
    /// The wire trajectory to run.
    pub wire: WireGeometry,
    /// Expected depth resolution at the reference pixel, µm.
    pub resolution: f64,
    /// The reference pixel's sweep window with this plan.
    pub sweep: (f64, f64),
    /// The unambiguous window at the reference pixel.
    pub valid_window: f64,
}

/// Plan a wire scan: choose start position and step count so the detector's
/// central pixel sweeps `[depth_lo, depth_hi]` (with 10 % margin) at a
/// per-step depth advance of at most `max_resolution` µm.
///
/// ```
/// use laue_core::{planning::plan_scan, ScanGeometry};
///
/// let base = ScanGeometry::demo(9, 9, 16, -40.0, 8.0).unwrap();
/// let plan = plan_scan(&base, 0.0, 60.0, 3.0).unwrap();
/// assert!(plan.resolution <= 3.0 + 1e-9);
/// assert!(plan.sweep.0 <= 0.0 && plan.sweep.1 >= 60.0);
/// ```
///
/// `template` supplies axis, radius and step *direction*; its magnitude is
/// rescaled to hit the resolution target. Errors when the requested range
/// exceeds the wire's unambiguous window (the fix is a thicker wire —
/// exactly the trade the microindent example demonstrates).
pub fn plan_scan(
    geom: &ScanGeometry,
    depth_lo: f64,
    depth_hi: f64,
    max_resolution: f64,
) -> Result<ScanPlan> {
    if depth_hi.partial_cmp(&depth_lo) != Some(std::cmp::Ordering::Greater) {
        return Err(CoreError::InvalidConfig(format!(
            "empty depth range [{depth_lo}, {depth_hi}]"
        )));
    }
    if max_resolution.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(CoreError::InvalidConfig(
            "resolution must be positive".into(),
        ));
    }
    let mapper = geom.mapper()?;
    let (rc, cc) = (geom.detector.n_rows / 2, geom.detector.n_cols / 2);
    let info = pixel_scan_info(geom, &mapper, rc, cc)?;
    let range = (depth_hi - depth_lo) * 1.2; // 10 % margin each side
    if range > info.valid_window {
        return Err(CoreError::InvalidConfig(format!(
            "depth range {range:.1} µm exceeds the wire's unambiguous window \
             {:.1} µm; use a thicker wire",
            info.valid_window
        )));
    }

    // Local linearisation at the current scan: depth advance per µm of wire
    // travel ≈ resolution / |step|.
    let step_len = geom.wire.step.norm();
    let gain = info.resolution / step_len; // µm depth per µm travel
    if gain <= 0.0 || !gain.is_finite() {
        return Err(CoreError::InvalidConfig("degenerate scan geometry".into()));
    }
    let step_dir = geom.wire.step / step_len;
    let new_step_len = (max_resolution / gain).min(step_len.max(max_resolution / gain));
    // Travel needed to cover the (padded) range.
    let travel = range / gain;
    let n_steps = (travel / new_step_len).ceil() as usize + 1;

    // Start position: shift the wire so the sweep begins at depth_lo − 10 %.
    // depth(center + t·dir) is monotone in t with slope ≈ gain.
    let pixel = geom.detector.pixel_to_xyz(rc, cc)?;
    let current_start_depth = mapper.depth(pixel, geom.wire.center(0)?, WireEdge::Leading)?;
    let target_start = depth_lo - (depth_hi - depth_lo) * 0.1;
    let shift = (target_start - current_start_depth) / gain;
    let origin = geom.wire.origin + step_dir * shift;

    let wire = WireGeometry::new(
        geom.wire.axis,
        geom.wire.radius,
        origin,
        step_dir * new_step_len,
        n_steps.max(2),
    )?;
    let planned = ScanGeometry {
        beam: geom.beam,
        wire: wire.clone(),
        detector: geom.detector.clone(),
    };
    let planned_mapper = planned.mapper()?;
    let info = pixel_scan_info(&planned, &planned_mapper, rc, cc)?;
    Ok(ScanPlan {
        wire,
        resolution: info.resolution,
        sweep: info.sweep,
        valid_window: info.valid_window,
    })
}

/// Convenience: lab-frame position of the planned wire at its first step —
/// useful when driving real motors from a plan.
pub fn plan_start_position(plan: &ScanPlan) -> Vec3 {
    plan.wire.origin
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> ScanGeometry {
        ScanGeometry::demo(9, 9, 32, -60.0, 5.0).unwrap()
    }

    #[test]
    fn pixel_info_is_consistent() {
        let g = demo();
        let mapper = g.mapper().unwrap();
        let info = pixel_scan_info(&g, &mapper, 4, 4).unwrap();
        assert!(info.sweep.0 < info.sweep.1);
        // Central pixel advance ≈ 2 × step for the demo frame.
        assert!((info.resolution - 10.0).abs() < 1.0, "{}", info.resolution);
        assert!(info.valid_window > 50.0);
        // Sweep length ≈ resolution × (n_steps − 1).
        let sweep_len = info.sweep.1 - info.sweep.0;
        assert!((sweep_len - info.resolution * 31.0).abs() / sweep_len < 0.05);
    }

    #[test]
    fn planned_scan_covers_the_requested_range() {
        let g = demo();
        let plan = plan_scan(&g, -20.0, 40.0, 4.0).unwrap();
        assert!(
            plan.resolution <= 4.0 + 1e-6,
            "resolution {}",
            plan.resolution
        );
        assert!(
            plan.sweep.0 <= -20.0 && plan.sweep.1 >= 40.0,
            "sweep {:?} must cover [-20, 40]",
            plan.sweep
        );
        // The plan should not be wasteful: sweep at most ~3× the request.
        assert!(plan.sweep.1 - plan.sweep.0 < 3.0 * 60.0 * 1.2);
        // And it is runnable: the geometry validates end to end.
        let planned = ScanGeometry {
            beam: g.beam,
            wire: plan.wire.clone(),
            detector: g.detector.clone(),
        };
        planned.mapper().unwrap();
        assert_eq!(plan_start_position(&plan), plan.wire.origin);
    }

    #[test]
    fn range_beyond_valid_window_rejected_with_advice() {
        let g = demo();
        let err = plan_scan(&g, 0.0, 5_000.0, 5.0).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("thicker wire"), "{msg}");
    }

    #[test]
    fn bad_parameters_rejected() {
        let g = demo();
        assert!(plan_scan(&g, 10.0, 10.0, 5.0).is_err());
        assert!(plan_scan(&g, 20.0, 10.0, 5.0).is_err());
        assert!(plan_scan(&g, 0.0, 10.0, 0.0).is_err());
    }

    #[test]
    fn finer_resolution_means_more_steps() {
        let g = demo();
        let coarse = plan_scan(&g, 0.0, 50.0, 8.0).unwrap();
        let fine = plan_scan(&g, 0.0, 50.0, 2.0).unwrap();
        assert!(fine.wire.n_steps > coarse.wire.n_steps);
        assert!(fine.resolution < coarse.resolution);
    }

    #[test]
    fn shadow_cull_is_conservative_and_actually_culls() {
        use crate::pair::{plan_from_band, PairPlan};
        let g = demo();
        let mapper = g.mapper().unwrap();
        let (n_rows, n_cols, n_steps) = (g.detector.n_rows, g.detector.n_cols, g.wire.n_steps);
        // A window that covers only part of the swept depth range, so some
        // (pair, row) strips must fall entirely outside it.
        let cfg = ReconstructionConfig::new(-60.0, 40.0, 25);
        let cull = ShadowCull::compute(&g, &mapper, &cfg, 0..n_rows);
        let mut culled = 0usize;
        let mut flops = 0u64;
        for z in 0..n_steps - 1 {
            let w0 = g.wire.center_unchecked(z as f64);
            let w1 = g.wire.center_unchecked((z + 1) as f64);
            for r in 0..n_rows {
                if cull.pair_row_live(z, r) {
                    continue;
                }
                culled += 1;
                // Conservative: every pixel of a culled strip would have
                // been rejected by the dense path without depositing.
                for c in 0..n_cols {
                    let p = g.detector.pixel_to_xyz_unchecked(r as f64, c as f64);
                    let d0 = mapper.depth(p, w0, cfg.wire_edge).unwrap();
                    let d1 = mapper.depth(p, w1, cfg.wire_edge).unwrap();
                    let plan = plan_from_band(&cfg, 1.0, d0, d1, &mut flops);
                    assert!(
                        matches!(plan, PairPlan::OutOfRange | PairPlan::InvalidGeometry),
                        "culled pair z={z} r={r} c={c} would deposit: {plan:?}"
                    );
                }
            }
        }
        assert!(culled > 0, "narrow window should cull at least one strip");
        // A window covering the whole sweep culls nothing.
        let wide = ReconstructionConfig::new(-100_000.0, 100_000.0, 25);
        let cull = ShadowCull::compute(&g, &mapper, &wide, 0..n_rows);
        for z in 0..n_steps - 1 {
            for r in 0..n_rows {
                assert!(cull.pair_row_live(z, r));
            }
        }
    }

    #[test]
    fn shadow_cull_band_subset_matches_full_table() {
        let g = demo();
        let mapper = g.mapper().unwrap();
        let cfg = ReconstructionConfig::new(-60.0, 40.0, 25);
        let full = ShadowCull::compute(&g, &mapper, &cfg, 0..g.detector.n_rows);
        let band = ShadowCull::compute(&g, &mapper, &cfg, 3..7);
        for z in 0..g.wire.n_steps - 1 {
            for r in 3..7 {
                assert_eq!(band.pair_row_live(z, r), full.pair_row_live(z, r));
            }
            assert_eq!(band.live_pairs(4), full.live_pairs(4));
        }
        // Two bands with a gap: their rows match the full table, the gap
        // rows are never triangulated and cull nothing.
        let edges = EdgeTable::build(&g, &mapper, cfg.wire_edge, &[1..3, 5..7]);
        let split = ShadowCull::from_edges(&edges, &cfg);
        assert!(edges.rows(3, 2).iter().all(|d| d.is_nan()));
        assert!((0..g.wire.n_steps - 1).any(|z| !full.pair_row_live(z, 3)));
        for z in 0..g.wire.n_steps - 1 {
            for r in [1, 2, 5, 6] {
                assert_eq!(split.pair_row_live(z, r), full.pair_row_live(z, r));
            }
            assert!(split.pair_row_live(z, 3) && split.pair_row_live(z, 4));
        }
    }

    #[test]
    fn plan_round_trips_through_reconstruction() {
        // Plan a scan, render a scatterer at a depth inside the plan, and
        // recover it — the full instrument loop.
        let g = demo();
        let plan = plan_scan(&g, 0.0, 60.0, 4.0).unwrap();
        let planned = ScanGeometry {
            beam: g.beam,
            wire: plan.wire.clone(),
            detector: g.detector.clone(),
        };
        let mapper = planned.mapper().unwrap();
        // Choose a depth the central pixel actually sweeps.
        let info = pixel_scan_info(&planned, &mapper, 4, 4).unwrap();
        let depth = (info.sweep.0 + info.sweep.1) / 2.0;
        let occ0 = mapper.occludes(
            depth,
            planned.detector.pixel_to_xyz(4, 4).unwrap(),
            planned.wire.center(0).unwrap(),
        );
        assert!(!occ0, "scatterer must start visible");
        let mut images = vec![0.0; planned.wire.n_steps * 9 * 9];
        let pixel = planned.detector.pixel_to_xyz(4, 4).unwrap();
        for z in 0..planned.wire.n_steps {
            if !mapper.occludes(depth, pixel, planned.wire.center(z).unwrap()) {
                images[(z * 9 + 4) * 9 + 4] = 150.0;
            }
        }
        let view = crate::ScanView::new(&images, planned.wire.n_steps, 9, 9).unwrap();
        let cfg = crate::ReconstructionConfig::new(-400.0, 400.0, 200);
        let out = crate::cpu::reconstruct_seq(&view, &planned, &cfg).unwrap();
        let peak = out.image.pixel_peak_depth(4, 4, &cfg).unwrap();
        assert!(
            (peak - depth).abs() <= plan.resolution + 2.0 * cfg.bin_width(),
            "recovered {peak} vs planned depth {depth}"
        );
    }
}
