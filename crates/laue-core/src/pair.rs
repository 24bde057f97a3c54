//! The shared per-(pixel, step-pair) routine.
//!
//! Every engine — CPU sequential, CPU threaded, and the simulated-GPU
//! kernel — funnels through [`plan_pair`], so their numerical behaviour
//! differs only in accumulation order. The planner is split from the
//! deposit loop so the GPU kernel can interleave its own metered atomics,
//! and [`deposit_plan`] executes a plan through a callback.
//!
//! The module also defines the FLOP estimates that feed the virtual-time
//! performance models, so CPU and GPU see identical logical work.

use laue_geometry::{DepthMapper, Vec3, WireEdge};

use crate::config::ReconstructionConfig;
use crate::stats::PairOutcome;

/// Approximate FLOPs for one edge-depth triangulation (projection, tangent
/// construction, ray/beam intersection).
pub const FLOPS_PER_DEPTH: u64 = 45;

/// Approximate FLOPs for the differential + clamp bookkeeping of one pair.
pub const FLOPS_PER_PAIR: u64 = 12;

/// Approximate FLOPs per depth bin deposited into.
pub const FLOPS_PER_BIN: u64 = 6;

/// Modeled device/host memory traffic per examined pair: two intensity
/// reads, one pixel position, two wire centres.
pub const MEM_BYTES_PER_PAIR: u64 = 2 * 8 + 3 * 8 + 6 * 8;

/// Modeled memory traffic per deposit (read-modify-write of one bin).
pub const MEM_BYTES_PER_DEPOSIT: u64 = 16;

/// Bytes the compaction prescan reads per intensity element. The prescan
/// walks each pixel's step column once, so consecutive pairs share loads —
/// one f64 per touched image, not two per pair.
pub const PRESCAN_BYTES_PER_READ: u64 = 8;

/// FLOPs the prescan spends testing one pair against the cutoff
/// (differential subtract + magnitude compare).
pub const PRESCAN_FLOPS_PER_PAIR: u64 = 2;

/// Bytes per compacted work-list entry: `(row, col, pair)` packed into one
/// u64. Charged once when the prescan emits it and once when the main
/// kernel reads it back.
pub const COMPACT_ENTRY_BYTES: u64 = 8;

/// What [`plan_pair`] decided for one `(pixel, step-pair)` element.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PairPlan {
    /// `|ΔI|` at or below the cutoff.
    BelowCutoff,
    /// No valid triangulation for one of the two edges.
    InvalidGeometry,
    /// Depth band entirely outside the reconstruction window.
    OutOfRange,
    /// Deposit according to the plan.
    Deposit(DepositPlan),
}

/// A planned deposit: `delta` spread over the bins overlapping
/// `[lo, hi]` (already clamped to the depth window) in proportion to
/// overlap with the *unclamped* band length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepositPlan {
    /// First bin index touched.
    pub first_bin: usize,
    /// One-past-last bin index.
    pub last_bin: usize,
    /// Clamped band, µm.
    pub lo: f64,
    /// Clamped band, µm.
    pub hi: f64,
    /// Unclamped band length, µm (the normalisation).
    pub band_len: f64,
    /// Differential intensity to spread.
    pub delta: f64,
}

impl DepositPlan {
    /// Number of bins the plan touches.
    pub fn n_bins(&self) -> usize {
        self.last_bin - self.first_bin
    }

    /// The deposit amount for bin `bin` (must be within the plan's range).
    #[inline]
    pub fn amount(&self, bin: usize, cfg: &ReconstructionConfig) -> f64 {
        let width = cfg.bin_width();
        let b_lo = cfg.depth_start + bin as f64 * width;
        let b_hi = b_lo + width;
        let overlap = (self.hi.min(b_hi) - self.lo.max(b_lo)).max(0.0);
        self.delta * overlap / self.band_len
    }
}

/// Differential intensity of one pair under the configured edge: what the
/// wire newly occluded (leading) or newly revealed (trailing).
#[inline]
pub fn differential(cfg: &ReconstructionConfig, intensity_z: f64, intensity_z1: f64) -> f64 {
    match cfg.wire_edge {
        WireEdge::Leading => intensity_z - intensity_z1,
        WireEdge::Trailing => intensity_z1 - intensity_z,
    }
}

/// Plan the deposit of `delta` over the depth band `[d0, d1]` (either
/// order; non-finite values mean the triangulation failed). This is the
/// tail of [`plan_pair`], split out so engines with *precomputed* depth
/// tables — the `edge`/`gpuPointArray` arrays of the paper's kernel — can
/// reuse the identical numeric path.
#[inline]
pub fn plan_from_band(
    cfg: &ReconstructionConfig,
    delta: f64,
    d0: f64,
    d1: f64,
    flops: &mut u64,
) -> PairPlan {
    if !d0.is_finite() || !d1.is_finite() {
        return PairPlan::InvalidGeometry;
    }
    let (band_lo, band_hi) = if d0 <= d1 { (d0, d1) } else { (d1, d0) };
    if band_hi <= band_lo {
        // Degenerate zero-width band (wire did not move for this pixel).
        return PairPlan::InvalidGeometry;
    }
    if band_hi <= cfg.depth_start || band_lo >= cfg.depth_end {
        return PairPlan::OutOfRange;
    }

    let width = cfg.bin_width();
    let lo = band_lo.max(cfg.depth_start);
    let hi = band_hi.min(cfg.depth_end);
    let first_bin = ((lo - cfg.depth_start) / width) as usize;
    let last_bin = (((hi - cfg.depth_start) / width).ceil() as usize).min(cfg.n_depth_bins);
    let last_bin = last_bin.max(first_bin + 1).min(cfg.n_depth_bins);
    let n = (last_bin - first_bin) as u64;
    *flops += n * FLOPS_PER_BIN;
    PairPlan::Deposit(DepositPlan {
        first_bin,
        last_bin,
        lo,
        hi,
        band_len: band_hi - band_lo,
        delta,
    })
}

/// Examine one `(pixel, wire-step pair)` element and plan its deposit.
///
/// Adds the logical FLOP estimate for the work actually performed to
/// `flops` (cut-off pairs charge almost nothing — this is what makes the
/// paper's pixel-percentage sweep change the runtime).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn plan_pair(
    mapper: &DepthMapper,
    cfg: &ReconstructionConfig,
    pixel: Vec3,
    wire_center_z: Vec3,
    wire_center_z1: Vec3,
    intensity_z: f64,
    intensity_z1: f64,
    flops: &mut u64,
) -> PairPlan {
    let delta = differential(cfg, intensity_z, intensity_z1);
    *flops += FLOPS_PER_PAIR;
    if delta.abs() <= cfg.intensity_cutoff {
        return PairPlan::BelowCutoff;
    }

    let d0 = mapper.depth(pixel, wire_center_z, cfg.wire_edge);
    let d1 = mapper.depth(pixel, wire_center_z1, cfg.wire_edge);
    *flops += 2 * FLOPS_PER_DEPTH;
    let (d0, d1) = match (d0, d1) {
        (Ok(a), Ok(b)) => (a, b),
        _ => return PairPlan::InvalidGeometry,
    };
    plan_from_band(cfg, delta, d0, d1, flops)
}

/// [`plan_pair`] with the pair's two edge depths supplied by `edges`
/// (`None` where the triangulation failed), which runs only for a pair
/// above the cutoff. Both edges are charged whatever `edges` computes, so
/// a caller that reuses a neighbouring pair's shared edge, or reads both
/// from an [`EdgeTable`](crate::cache::EdgeTable), keeps the cost. The
/// device kernel without a table calls [`plan_pair`] itself: routing its
/// triangulations through this closure slowed the simulated `set_two`
/// launch enough to cost `paper-dense` a fifth of its benchmark wall
/// time.
#[inline]
pub fn plan_with_edges(
    cfg: &ReconstructionConfig,
    intensity_z: f64,
    intensity_z1: f64,
    flops: &mut u64,
    edges: impl FnOnce() -> (Option<f64>, Option<f64>),
) -> PairPlan {
    let delta = differential(cfg, intensity_z, intensity_z1);
    *flops += FLOPS_PER_PAIR;
    if delta.abs() <= cfg.intensity_cutoff {
        return PairPlan::BelowCutoff;
    }
    *flops += 2 * FLOPS_PER_DEPTH;
    match edges() {
        (Some(d0), Some(d1)) => plan_from_band(cfg, delta, d0, d1, flops),
        _ => PairPlan::InvalidGeometry,
    }
}

/// Execute a pair's plan through a callback: every bin of a deposit whose
/// amount is nonzero, in ascending bin order.
#[inline]
pub fn deposit_plan<F: FnMut(usize, f64)>(
    plan: PairPlan,
    cfg: &ReconstructionConfig,
    mut deposit: F,
) -> PairOutcome {
    match plan {
        PairPlan::BelowCutoff => PairOutcome::BelowCutoff,
        PairPlan::InvalidGeometry => PairOutcome::InvalidGeometry,
        PairPlan::OutOfRange => PairOutcome::OutOfRange,
        PairPlan::Deposit(plan) => {
            let mut bins = 0usize;
            for bin in plan.first_bin..plan.last_bin {
                let amount = plan.amount(bin, cfg);
                if amount != 0.0 {
                    deposit(bin, amount);
                    bins += 1;
                }
            }
            PairOutcome::Deposited { bins }
        }
    }
}

/// [`plan_pair`] then [`deposit_plan`] in one call: the reference loops
/// of the tests use it.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_pair<F: FnMut(usize, f64)>(
    mapper: &DepthMapper,
    cfg: &ReconstructionConfig,
    pixel: Vec3,
    wire_center_z: Vec3,
    wire_center_z1: Vec3,
    intensity_z: f64,
    intensity_z1: f64,
    deposit: F,
    flops: &mut u64,
) -> PairOutcome {
    let plan = plan_pair(
        mapper,
        cfg,
        pixel,
        wire_center_z,
        wire_center_z1,
        intensity_z,
        intensity_z1,
        flops,
    );
    deposit_plan(plan, cfg, deposit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::ScanGeometry;
    use laue_geometry::DepthMapper;

    fn setup() -> (ScanGeometry, DepthMapper, ReconstructionConfig) {
        let g = ScanGeometry::demo(8, 8, 8, -20.0, 5.0).unwrap();
        let m = g.mapper().unwrap();
        // Depth window wide enough for every pixel row: with 200 µm pitch
        // the leading-edge depths spread over roughly ±900 µm.
        let cfg = ReconstructionConfig::new(-1500.0, 1500.0, 300);
        (g, m, cfg)
    }

    #[test]
    fn below_cutoff_skips_without_triangulating() {
        let (g, m, mut cfg) = setup();
        cfg.intensity_cutoff = 5.0;
        let pixel = g.detector.pixel_to_xyz(4, 4).unwrap();
        let mut flops = 0;
        let outcome = process_pair(
            &m,
            &cfg,
            pixel,
            g.wire.center(0).unwrap(),
            g.wire.center(1).unwrap(),
            10.0,
            8.0, // ΔI = 2 < cutoff
            |_, _| panic!("must not deposit"),
            &mut flops,
        );
        assert_eq!(outcome, PairOutcome::BelowCutoff);
        assert_eq!(flops, FLOPS_PER_PAIR, "no triangulation charged");
    }

    #[test]
    fn deposit_conserves_delta_when_band_in_range() {
        let (g, m, cfg) = setup();
        let pixel = g.detector.pixel_to_xyz(4, 4).unwrap();
        let mut total = 0.0;
        let mut flops = 0;
        let outcome = process_pair(
            &m,
            &cfg,
            pixel,
            g.wire.center(0).unwrap(),
            g.wire.center(1).unwrap(),
            100.0,
            60.0,
            |_, v| total += v,
            &mut flops,
        );
        assert!(matches!(outcome, PairOutcome::Deposited { bins } if bins >= 1));
        assert!(
            (total - 40.0).abs() < 1e-9,
            "ΔI = 40 fully deposited, got {total}"
        );
        assert!(flops > 2 * FLOPS_PER_DEPTH);
    }

    #[test]
    fn trailing_edge_flips_the_sign() {
        let (g, m, mut cfg) = setup();
        cfg.wire_edge = laue_geometry::WireEdge::Trailing;
        let pixel = g.detector.pixel_to_xyz(2, 3).unwrap();
        let mut total = 0.0;
        let mut flops = 0;
        process_pair(
            &m,
            &cfg,
            pixel,
            g.wire.center(3).unwrap(),
            g.wire.center(4).unwrap(),
            60.0,
            100.0, // intensity rose: the trailing edge revealed 40
            |_, v| total += v,
            &mut flops,
        );
        assert!((total - 40.0).abs() < 1e-9, "got {total}");
    }

    #[test]
    fn out_of_range_band_is_counted_not_deposited() {
        let (g, m, mut cfg) = setup();
        // Depth window far away from where this scan's bands fall.
        cfg.depth_start = 100_000.0;
        cfg.depth_end = 100_100.0;
        let pixel = g.detector.pixel_to_xyz(4, 4).unwrap();
        let mut flops = 0;
        let outcome = process_pair(
            &m,
            &cfg,
            pixel,
            g.wire.center(0).unwrap(),
            g.wire.center(1).unwrap(),
            100.0,
            0.0,
            |_, _| panic!("must not deposit"),
            &mut flops,
        );
        assert_eq!(outcome, PairOutcome::OutOfRange);
    }

    #[test]
    fn partial_overlap_deposits_partially() {
        let (g, m, mut cfg) = setup();
        let pixel = g.detector.pixel_to_xyz(4, 4).unwrap();
        let w0 = g.wire.center(0).unwrap();
        let w1 = g.wire.center(1).unwrap();
        // Find the band, then set the window to cover only its lower half.
        let d0 = m.depth(pixel, w0, cfg.wire_edge).unwrap();
        let d1 = m.depth(pixel, w1, cfg.wire_edge).unwrap();
        let (lo, hi) = if d0 < d1 { (d0, d1) } else { (d1, d0) };
        let mid = (lo + hi) / 2.0;
        cfg.depth_start = lo - 50.0;
        cfg.depth_end = mid;
        cfg.n_depth_bins = 64;
        let mut total = 0.0;
        let mut flops = 0;
        process_pair(
            &m,
            &cfg,
            pixel,
            w0,
            w1,
            100.0,
            0.0,
            |_, v| total += v,
            &mut flops,
        );
        assert!(
            (total - 50.0).abs() < 1.0,
            "half the band in range → half of ΔI = 100 deposited, got {total}"
        );
    }

    #[test]
    fn deposited_bins_are_in_range() {
        let (g, m, cfg) = setup();
        for r in 0..8 {
            for c in 0..8 {
                let pixel = g.detector.pixel_to_xyz(r, c).unwrap();
                for z in 0..7 {
                    let mut flops = 0;
                    process_pair(
                        &m,
                        &cfg,
                        pixel,
                        g.wire.center(z).unwrap(),
                        g.wire.center(z + 1).unwrap(),
                        50.0,
                        10.0,
                        |bin, _| assert!(bin < cfg.n_depth_bins),
                        &mut flops,
                    );
                }
            }
        }
    }

    #[test]
    fn negative_differentials_deposit_negative() {
        // Noise can make ΔI negative; the algorithm deposits it as-is (the
        // original code does too — smoothing happens downstream).
        let (g, m, cfg) = setup();
        let pixel = g.detector.pixel_to_xyz(4, 4).unwrap();
        let mut total = 0.0;
        let mut flops = 0;
        process_pair(
            &m,
            &cfg,
            pixel,
            g.wire.center(0).unwrap(),
            g.wire.center(1).unwrap(),
            10.0,
            30.0,
            |_, v| total += v,
            &mut flops,
        );
        assert!((total + 20.0).abs() < 1e-9);
    }

    #[test]
    fn plan_amounts_sum_to_deposited_fraction() {
        let (g, m, cfg) = setup();
        let pixel = g.detector.pixel_to_xyz(1, 6).unwrap();
        let mut flops = 0;
        let plan = plan_pair(
            &m,
            &cfg,
            pixel,
            g.wire.center(2).unwrap(),
            g.wire.center(3).unwrap(),
            90.0,
            30.0,
            &mut flops,
        );
        let PairPlan::Deposit(plan) = plan else {
            panic!("expected a deposit, got {plan:?}")
        };
        let sum: f64 = (plan.first_bin..plan.last_bin)
            .map(|b| plan.amount(b, &cfg))
            .sum();
        let expected = plan.delta * (plan.hi - plan.lo) / plan.band_len;
        assert!((sum - expected).abs() < 1e-9);
        assert!(plan.n_bins() >= 1);
    }
}
