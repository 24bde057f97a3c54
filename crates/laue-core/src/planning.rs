//! Scan planning: the instrument-side math a beamline scientist runs
//! *before* a wire scan — what depth range a scan covers, at what
//! resolution, and how far the two wire edges are apart (the unambiguous
//! depth window).
//!
//! These quantities also drive the synthetic-workload builders and explain
//! the reconstruction's accuracy limits, so they live next to the engines.
//! The host's two sparsity levels live here too: the wire-shadow cull
//! ([`ShadowCull`]) and the prescan every engine runs over it
//! (`plan_slab_sparsity`).

use std::ops::Range;

use laue_geometry::{DepthMapper, Vec3, WireEdge, WireGeometry};

use crate::config::ReconstructionConfig;
use crate::error::CoreError;
use crate::geometry::ScanGeometry;
use crate::input::ScanView;
use crate::pair::differential;
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
/// hi_z1)]`; when that envelope misses `cfg`'s `[depth_start, depth_end)`
/// the whole strip is culled. The bound is conservative by construction —
/// no monotonicity assumption about the depth map is needed — so culling
/// never removes a pair the dense path would have deposited.
///
/// The bounds depend on the geometry and the wire edge only, so every
/// [`EdgeTable`](crate::cache::EdgeTable) records its own while it
/// triangulates ([`EdgeTable::cull`](crate::cache::EdgeTable::cull)), and
/// each query takes the depth window from its `cfg`.
#[derive(Debug, Clone)]
pub struct ShadowCull {
    row0: usize,
    n_steps: usize,
    /// Per span row and step, `(r − row0) · n_steps + z`.
    bounds: Vec<StepBounds>,
}

/// The edge depths one detector row reached at one wire step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepBounds {
    lo: f64,
    hi: f64,
    /// Some depth of the row was not finite.
    unsafe_row: bool,
}

impl StepBounds {
    /// No depth recorded yet: a row never triangulated reads live.
    pub(crate) const EMPTY: StepBounds = StepBounds {
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
        unsafe_row: false,
    };

    /// Record one edge depth of the row at this step.
    #[inline]
    pub(crate) fn add(&mut self, d: f64) {
        if d.is_finite() {
            if d < self.lo {
                self.lo = d;
            }
            if d > self.hi {
                self.hi = d;
            }
        } else {
            self.unsafe_row = true;
        }
    }
}

impl ShadowCull {
    /// The cull over the span of detector rows from `row0` on that
    /// `bounds` holds, `n_steps` per row.
    pub(crate) fn new(row0: usize, n_steps: usize, bounds: Vec<StepBounds>) -> ShadowCull {
        ShadowCull {
            row0,
            n_steps,
            bounds,
        }
    }

    /// The bounds of step `z` on `detector_row`, which the span must hold.
    #[inline]
    fn at(&self, z: usize, detector_row: usize) -> StepBounds {
        self.bounds[(detector_row - self.row0) * self.n_steps + z]
    }

    /// Whether pair `(z, z+1)` on `detector_row` must be processed under
    /// `cfg`'s depth window. `false` means every pixel of the row is
    /// provably OutOfRange for this pair.
    #[inline]
    pub fn pair_row_live(&self, cfg: &ReconstructionConfig, z: usize, detector_row: usize) -> bool {
        debug_assert!(z + 1 < self.n_steps);
        let (a, b) = (self.at(z, detector_row), self.at(z + 1, detector_row));
        if a.unsafe_row || b.unsafe_row {
            // A failed triangulation means InvalidGeometry in the dense
            // path, not OutOfRange — never cull it away.
            return true;
        }
        let lo = a.lo.min(b.lo);
        let hi = a.hi.max(b.hi);
        // An empty row (no finite depth at all) keeps lo = +inf > hi:
        // also invalid territory, keep it live.
        if lo
            .partial_cmp(&hi)
            .is_none_or(|o| o == std::cmp::Ordering::Greater)
        {
            return true;
        }
        !(hi <= cfg.depth_start || lo >= cfg.depth_end)
    }

    /// The live (non-culled) pairs of one detector row under `cfg`'s
    /// depth window, ascending.
    pub fn live_pairs(&self, cfg: &ReconstructionConfig, detector_row: usize) -> Vec<u32> {
        (0..self.n_steps - 1)
            .filter(|&z| self.pair_row_live(cfg, z, detector_row))
            .map(|z| z as u32)
            .collect()
    }

    /// Aggregate sparsity structure of a band of detector rows under
    /// `cfg`'s depth window — the counts the execution planner needs to
    /// cost a slab without re-deriving the per-row live lists itself.
    /// `touched_sum` is the host prescan's own count: a run of `k`
    /// consecutive live pairs reads `k + 1` images per pixel.
    pub fn band_profile(&self, cfg: &ReconstructionConfig, band: Range<usize>) -> BandProfile {
        let n_pairs = self.n_steps - 1;
        let mut profile = BandProfile::default();
        for row in band {
            let live = self.live_pairs(cfg, row);
            profile.culled_combos += (n_pairs - live.len()) as u64;
            if !live.is_empty() {
                profile.live_rows += 1;
            }
            profile.live_combos += live.len() as u64;
            profile.touched_sum += u64::from(touched_images(&live));
        }
        profile
    }
}

/// Distinct images one pixel's prescan column scan reads over the live
/// pairs `live` (ascending): a run of `k` consecutive pairs reads `k + 1`.
fn touched_images(live: &[u32]) -> u32 {
    match live {
        [] => 0,
        _ => {
            let gaps = live.windows(2).filter(|w| w[1] != w[0] + 1).count();
            (live.len() + 1 + gaps) as u32
        }
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

/// Level-2 sparsity over a row range: which `(row, pair)` combos survive
/// wire-shadow culling, and — from the prescan — which `(pixel, pair)`
/// entries carry a differential above the cutoff. Whether to launch or
/// walk over the compacted list is the caller's decision.
///
/// On the GPU this is the ground truth the metered `prescan` kernel writes
/// into the device work-list; the main kernel then reads the list back
/// through metered accesses, so the virtual-time model charges both sides
/// of the compaction hand-off. The CPU engines walk it directly.
pub(crate) struct SlabSparsity {
    /// Range-local rows with at least one live pair (prescan launch domain).
    pub(crate) live_rows: Vec<u32>,
    /// Per range row: live pair indices, ascending (empty for culled rows).
    pub(crate) live_pairs: Vec<Vec<u32>>,
    /// Per range row: distinct images one pixel's prescan column scan reads
    /// ([`touched_images`]).
    pub(crate) touched: Vec<u32>,
    /// Live `(row, pair)` combos in `(r, z)` order — the banded launch
    /// domain used when culling bites but compaction is off for this slab.
    pub(crate) combos: Vec<(u32, u32)>,
    /// CSR offsets over range pixels (`r · n_cols + c`), length
    /// `rows · n_cols + 1`, indexing into `entries`.
    pub(crate) offsets: Vec<u32>,
    /// Active entries packed `(r << 40) | (c << 20) | z`, `(r, c, z)` order
    /// — the same per-output-cell deposit order as the dense walk
    /// ([`unpack_entry`]).
    pub(crate) entries: Vec<u64>,
    /// Per range pixel: live pairs whose differential fell below the cutoff
    /// (settled by the prescan, so the main pass can skip them entirely).
    pub(crate) below_per_pixel: Vec<u32>,
    /// `(row, pair)` combos removed by wire-shadow culling.
    pub(crate) culled_combos: u64,
    /// Active fraction among live (un-culled) pairs; 0 when nothing is live.
    pub(crate) density: f64,
}

impl SlabSparsity {
    /// Σ over rows of [`SlabSparsity::touched`].
    pub(crate) fn touched_sum(&self) -> u64 {
        self.touched.iter().map(|&t| u64::from(t)).sum()
    }

    /// The work-list slice of range pixel `pix`.
    pub(crate) fn pixel_entries(&self, pix: usize) -> &[u64] {
        &self.entries[self.offsets[pix] as usize..self.offsets[pix + 1] as usize]
    }
}

/// The range-local `(r, c, z)` of a packed [`SlabSparsity::entries`]
/// entry.
#[inline]
pub(crate) fn unpack_entry(entry: u64) -> (usize, usize, usize) {
    let field = |shift: u32| ((entry >> shift) & 0xFFFFF) as usize;
    (field(40), field(20), field(0))
}

/// The host's one prescan: the sparsity of `view`'s rows `rows`, whose
/// row `r` is detector row `detector_row_offset + r`, under `cull` and
/// `cfg`'s window and cutoff. Rows, pixels and entries are relative to
/// `rows.start`.
pub(crate) fn plan_slab_sparsity(
    view: &ScanView<'_>,
    rows: Range<usize>,
    detector_row_offset: usize,
    cull: &ShadowCull,
    cfg: &ReconstructionConfig,
) -> SlabSparsity {
    let (n_pairs, n_cols) = (view.n_images - 1, view.n_cols);
    let mut live_rows = Vec::new();
    let mut live_pairs: Vec<Vec<u32>> = Vec::with_capacity(rows.len());
    let mut touched = Vec::with_capacity(rows.len());
    let mut combos = Vec::new();
    let mut culled_combos = 0u64;
    for (i, r) in rows.clone().enumerate() {
        let live = cull.live_pairs(cfg, detector_row_offset + r);
        culled_combos += (n_pairs - live.len()) as u64;
        if !live.is_empty() {
            live_rows.push(i as u32);
            combos.extend(live.iter().map(|&z| (i as u32, z)));
        }
        touched.push(touched_images(&live));
        live_pairs.push(live);
    }
    let mut offsets = Vec::with_capacity(rows.len() * n_cols + 1);
    offsets.push(0u32);
    let mut entries = Vec::new();
    let mut below_per_pixel = vec![0u32; rows.len() * n_cols];
    let mut live_total = 0u64;
    for (i, r) in rows.enumerate() {
        for c in 0..n_cols {
            for &z in &live_pairs[i] {
                let z = z as usize;
                live_total += 1;
                let delta = differential(cfg, view.at(z, r, c), view.at(z + 1, r, c));
                if delta.abs() > cfg.intensity_cutoff {
                    entries.push(((i as u64) << 40) | ((c as u64) << 20) | z as u64);
                } else {
                    below_per_pixel[i * n_cols + c] += 1;
                }
            }
            offsets.push(entries.len() as u32);
        }
    }
    let density = if live_total == 0 {
        0.0
    } else {
        entries.len() as f64 / live_total as f64
    };
    SlabSparsity {
        live_rows,
        live_pairs,
        touched,
        combos,
        offsets,
        entries,
        below_per_pixel,
        culled_combos,
        density,
    }
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
    use crate::cache::EdgeTable;
    use std::sync::Arc;

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

    /// The cull `EdgeTable::build` records over the rows of `bands`.
    fn cull_of(g: &ScanGeometry, edge: WireEdge, bands: &[Range<usize>]) -> Arc<ShadowCull> {
        let mapper = g.mapper().unwrap();
        Arc::clone(EdgeTable::build(g, &mapper, edge, bands).cull())
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
        let cull = cull_of(&g, cfg.wire_edge, std::slice::from_ref(&(0..n_rows)));
        let mut culled = 0usize;
        let mut flops = 0u64;
        for z in 0..n_steps - 1 {
            let w0 = g.wire.center_unchecked(z as f64);
            let w1 = g.wire.center_unchecked((z + 1) as f64);
            for r in 0..n_rows {
                if cull.pair_row_live(&cfg, z, r) {
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
        // The same cull under a window covering the whole sweep culls
        // nothing.
        let wide = ReconstructionConfig::new(-100_000.0, 100_000.0, 25);
        for z in 0..n_steps - 1 {
            for r in 0..n_rows {
                assert!(cull.pair_row_live(&wide, z, r));
            }
        }
    }

    #[test]
    fn shadow_cull_band_subset_matches_full_table() {
        let g = demo();
        let cfg = ReconstructionConfig::new(-60.0, 40.0, 25);
        let full = cull_of(
            &g,
            cfg.wire_edge,
            std::slice::from_ref(&(0..g.detector.n_rows)),
        );
        let band = cull_of(&g, cfg.wire_edge, std::slice::from_ref(&(3..7)));
        for z in 0..g.wire.n_steps - 1 {
            for r in 3..7 {
                assert_eq!(
                    band.pair_row_live(&cfg, z, r),
                    full.pair_row_live(&cfg, z, r)
                );
            }
        }
        assert_eq!(band.live_pairs(&cfg, 4), full.live_pairs(&cfg, 4));
        // Two bands with a gap: their rows match the full table, the gap
        // rows are never triangulated and cull nothing.
        let mapper = g.mapper().unwrap();
        let edges = EdgeTable::build(&g, &mapper, cfg.wire_edge, &[1..3, 5..7]);
        assert!(edges.rows(3, 2).iter().all(|d| d.is_nan()));
        let split = edges.cull();
        assert!((0..g.wire.n_steps - 1).any(|z| !full.pair_row_live(&cfg, z, 3)));
        for z in 0..g.wire.n_steps - 1 {
            for r in [1, 2, 5, 6] {
                assert_eq!(
                    split.pair_row_live(&cfg, z, r),
                    full.pair_row_live(&cfg, z, r)
                );
            }
            assert!(split.pair_row_live(&cfg, z, 3) && split.pair_row_live(&cfg, z, 4));
        }
        let all_pairs: Vec<u32> = (0..g.wire.n_steps as u32 - 1).collect();
        assert_eq!(split.live_pairs(&cfg, 4), all_pairs);
    }

    #[test]
    fn the_prescan_and_the_band_profile_count_alike() {
        // Rows the narrow window culls in part, in whole and not at all.
        let g = demo();
        let (n_rows, n_cols, n_steps) = (g.detector.n_rows, g.detector.n_cols, g.wire.n_steps);
        let mut cfg = ReconstructionConfig::new(-60.0, 40.0, 25);
        cfg.intensity_cutoff = 5.0;
        let cull = cull_of(&g, cfg.wire_edge, std::slice::from_ref(&(0..n_rows)));
        let data: Vec<f64> = (0..n_steps * n_rows * n_cols)
            .map(|i| ((i * 7919) % 23) as f64)
            .collect();
        let view = ScanView::new(&data, n_steps, n_rows, n_cols).unwrap();
        for rows in [0..n_rows, 2..6, 7..9] {
            let profile = cull.band_profile(&cfg, rows.clone());
            let sp = plan_slab_sparsity(&view, rows.clone(), 0, &cull, &cfg);
            assert_eq!(sp.live_rows.len(), profile.live_rows);
            assert_eq!(sp.combos.len() as u64, profile.live_combos);
            assert_eq!(sp.culled_combos, profile.culled_combos);
            assert_eq!(sp.touched_sum(), profile.touched_sum);
            // Every live pair of every pixel is either on the work-list or
            // below the cutoff.
            let live = profile.live_combos * n_cols as u64;
            let below: u64 = sp.below_per_pixel.iter().map(|&b| u64::from(b)).sum();
            assert_eq!(sp.entries.len() as u64 + below, live);
            for (pix, &below) in sp.below_per_pixel.iter().enumerate() {
                let (r, c) = (pix / n_cols, pix % n_cols);
                let list = sp.pixel_entries(pix);
                assert_eq!(list.len() + below as usize, sp.live_pairs[r].len());
                for &e in list {
                    let (er, ec, z) = unpack_entry(e);
                    assert_eq!((er, ec), (r, c));
                    assert!(sp.live_pairs[r].contains(&(z as u32)));
                }
            }
        }
        assert!(cull.band_profile(&cfg, 0..n_rows).culled_combos > 0);
        assert_eq!(touched_images(&[]), 0);
        assert_eq!(touched_images(&[4]), 2);
        assert_eq!(touched_images(&[1, 2, 3, 7, 9, 10]), 9);
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
