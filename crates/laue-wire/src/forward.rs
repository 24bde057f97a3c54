//! Forward model: render a wire-scan image stack from a sample plan.
//!
//! For every wire step, a scatterer contributes its intensity to its pixel
//! unless the straight path from its depth point to the pixel passes
//! through the wire — decided by the *same* tangent geometry
//! ([`DepthMapper::occludes`](laue_geometry::DepthMapper::occludes)) the
//! reconstruction uses, so synthetic data
//! and reconstruction share one geometric truth.

use laue_core::ScanGeometry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scatterer::SamplePlan;
use crate::Result;

/// Render options.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderOptions {
    /// Constant background counts added to every pixel of every image.
    pub background: f64,
    /// Gaussian read/shot-noise amplitude: each pixel value `v` is jittered
    /// by `N(0, noise · √max(v, 1))`. Zero disables noise (deterministic).
    pub noise: f64,
    /// RNG seed for the noise.
    pub seed: u64,
    /// Detector defects applied after rendering.
    pub defects: DetectorDefects,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            background: 0.0,
            noise: 0.0,
            seed: 0,
            defects: DetectorDefects::default(),
        }
    }
}

/// Detector defects: pixels that misreport in every image.
///
/// Because the reconstruction works on *differences* between consecutive
/// images, a pixel stuck at any constant — dead at zero or hot at
/// saturation — contributes nothing; these options exist so tests can
/// prove that robustness.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DetectorDefects {
    /// Pixels reading 0 in every image.
    pub dead: Vec<(usize, usize)>,
    /// Pixels stuck at the given value in every image.
    pub hot: Vec<(usize, usize, f64)>,
}

/// Render the full stack: `n_steps` images of `n_rows × n_cols`, flattened
/// `stack[z][row][col]`.
pub fn render_stack(
    geom: &ScanGeometry,
    plan: &SamplePlan,
    opts: &RenderOptions,
) -> Result<Vec<f64>> {
    let mapper = geom.mapper().map_err(|e| match e {
        laue_core::CoreError::Geometry(g) => crate::WireError::Geometry(g),
        other => crate::WireError::InvalidParameter(other.to_string()),
    })?;
    let (p, m, n) = (
        geom.wire.n_steps,
        geom.detector.n_rows,
        geom.detector.n_cols,
    );
    let mut stack = vec![opts.background; p * m * n];

    // Precompute each scatterer's pixel position and source point once.
    for s in &plan.scatterers {
        if s.row >= m || s.col >= n {
            return Err(crate::WireError::InvalidParameter(format!(
                "scatterer at ({}, {}) outside {m}×{n} detector",
                s.row, s.col
            )));
        }
        let pixel = geom
            .detector
            .pixel_to_xyz(s.row, s.col)
            .map_err(crate::WireError::Geometry)?;
        for z in 0..p {
            let wire = geom.wire.center(z).map_err(crate::WireError::Geometry)?;
            if !mapper.occludes(s.depth, pixel, wire) {
                stack[(z * m + s.row) * n + s.col] += s.intensity;
            }
        }
    }

    if opts.noise > 0.0 {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        for v in &mut stack {
            // Box–Muller-free normal approximation: the sum of 4 centred
            // uniforms has variance 4/12 = 1/3; ×√3 gives unit variance.
            let u: f64 = (0..4).map(|_| rng.gen::<f64>() - 0.5).sum();
            let gauss = u * 3.0f64.sqrt();
            *v += opts.noise * v.abs().max(1.0).sqrt() * gauss;
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    // Defects override everything, in every image.
    for &(r, c) in &opts.defects.dead {
        if r >= m || c >= n {
            return Err(crate::WireError::InvalidParameter(format!(
                "dead pixel ({r}, {c}) outside {m}×{n} detector"
            )));
        }
        for z in 0..p {
            stack[(z * m + r) * n + c] = 0.0;
        }
    }
    for &(r, c, value) in &opts.defects.hot {
        if r >= m || c >= n {
            return Err(crate::WireError::InvalidParameter(format!(
                "hot pixel ({r}, {c}) outside {m}×{n} detector"
            )));
        }
        for z in 0..p {
            stack[(z * m + r) * n + c] = value;
        }
    }
    Ok(stack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use laue_geometry::WireEdge;

    fn demo() -> ScanGeometry {
        ScanGeometry::demo(6, 6, 12, -30.0, 4.0).unwrap()
    }

    /// Depth inside the pixel's sweep window so the wire actually crosses
    /// the scatterer during the scan.
    fn sweep_midpoint(geom: &ScanGeometry, r: usize, c: usize) -> f64 {
        let mapper = geom.mapper().unwrap();
        let pixel = geom.detector.pixel_to_xyz(r, c).unwrap();
        let first = mapper
            .depth(pixel, geom.wire.center(0).unwrap(), WireEdge::Leading)
            .unwrap();
        let last = mapper
            .depth(
                pixel,
                geom.wire.center(geom.wire.n_steps - 1).unwrap(),
                WireEdge::Leading,
            )
            .unwrap();
        (first + last) / 2.0
    }

    #[test]
    fn empty_plan_renders_background() {
        let geom = demo();
        let stack = render_stack(
            &geom,
            &SamplePlan::new(),
            &RenderOptions {
                background: 3.5,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(stack.len(), 12 * 36);
        assert!(stack.iter().all(|&v| v == 3.5));
    }

    #[test]
    fn scatterer_is_progressively_occluded() {
        let geom = demo();
        let (r, c) = (3, 3);
        let depth = sweep_midpoint(&geom, r, c);
        let mut plan = SamplePlan::new();
        plan.add_point(r, c, depth, 100.0).unwrap();
        let stack = render_stack(&geom, &plan, &RenderOptions::default()).unwrap();
        let series: Vec<f64> = (0..12).map(|z| stack[(z * 6 + r) * 6 + c]).collect();
        // Visible at the start of the scan, occluded mid-scan.
        assert_eq!(
            series[0], 100.0,
            "unoccluded before the wire arrives: {series:?}"
        );
        assert!(
            series.contains(&0.0),
            "the wire must cross the ray: {series:?}"
        );
        // Monotone step down then (possibly) back up — i.e. the occluded
        // steps form one contiguous run.
        let occluded: Vec<usize> = (0..12).filter(|&z| series[z] == 0.0).collect();
        for w in occluded.windows(2) {
            assert_eq!(w[1], w[0] + 1, "occlusion must be contiguous: {series:?}");
        }
        // Other pixels stay dark.
        let total: f64 = stack.iter().sum();
        let this_pixel: f64 = series.iter().sum();
        assert_eq!(total, this_pixel);
    }

    #[test]
    fn out_of_detector_scatterer_rejected() {
        let geom = demo();
        let mut plan = SamplePlan::new();
        plan.add_point(99, 0, 10.0, 5.0).unwrap();
        assert!(render_stack(&geom, &plan, &RenderOptions::default()).is_err());
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let geom = demo();
        let mut plan = SamplePlan::new();
        let depth = sweep_midpoint(&geom, 2, 2);
        plan.add_point(2, 2, depth, 500.0).unwrap();
        let opts = RenderOptions {
            background: 10.0,
            noise: 2.0,
            seed: 42,
            ..Default::default()
        };
        let a = render_stack(&geom, &plan, &opts).unwrap();
        let b = render_stack(&geom, &plan, &opts).unwrap();
        assert_eq!(a, b, "same seed, same stack");
        let c = render_stack(&geom, &plan, &RenderOptions { seed: 43, ..opts }).unwrap();
        assert_ne!(a, c, "different seed, different noise");
        assert!(a.iter().all(|&v| v >= 0.0), "counts stay non-negative");
    }

    #[test]
    fn defective_pixels_are_stuck_in_every_image() {
        let geom = demo();
        let mut plan = SamplePlan::new();
        let depth = sweep_midpoint(&geom, 2, 2);
        plan.add_point(2, 2, depth, 100.0).unwrap();
        let opts = RenderOptions {
            background: 10.0,
            defects: DetectorDefects {
                dead: vec![(0, 0), (2, 2)], // kills the scatterer's pixel too
                hot: vec![(5, 5, 60_000.0)],
            },
            ..Default::default()
        };
        let stack = render_stack(&geom, &plan, &opts).unwrap();
        for z in 0..12 {
            assert_eq!(stack[(z * 6) * 6], 0.0, "dead pixel stays dead");
            assert_eq!(stack[(z * 6 + 2) * 6 + 2], 0.0, "dead wins over signal");
            assert_eq!(stack[(z * 6 + 5) * 6 + 5], 60_000.0, "hot pixel saturated");
        }
        // Out-of-range defects rejected.
        let bad = RenderOptions {
            defects: DetectorDefects {
                dead: vec![(9, 0)],
                hot: vec![],
            },
            ..Default::default()
        };
        assert!(render_stack(&geom, &plan, &bad).is_err());
    }

    #[test]
    fn intensities_superpose() {
        let geom = demo();
        let d1 = sweep_midpoint(&geom, 1, 1);
        let d2 = sweep_midpoint(&geom, 4, 4);
        let mut p1 = SamplePlan::new();
        p1.add_point(1, 1, d1, 50.0).unwrap();
        let mut p2 = SamplePlan::new();
        p2.add_point(4, 4, d2, 70.0).unwrap();
        let mut p12 = SamplePlan::new();
        p12.add_point(1, 1, d1, 50.0).unwrap();
        p12.add_point(4, 4, d2, 70.0).unwrap();
        let a = render_stack(&geom, &p1, &RenderOptions::default()).unwrap();
        let b = render_stack(&geom, &p2, &RenderOptions::default()).unwrap();
        let ab = render_stack(&geom, &p12, &RenderOptions::default()).unwrap();
        for i in 0..ab.len() {
            assert_eq!(ab[i], a[i] + b[i]);
        }
    }
}
