//! Region-of-interest reconstruction: cropping the detector and the source
//! must reproduce exactly the corresponding sub-block of the full
//! reconstruction, on every engine.

use laue::core::input::RoiSlabSource;
use laue::prelude::*;
use laue::sim::Device;

fn scan() -> SyntheticScan {
    SyntheticScanBuilder::new(10, 12, 14)
        .scatterers(20)
        .noise(0.5)
        .background(15.0)
        .seed(77)
        .build()
        .unwrap()
}

fn cfg() -> ReconstructionConfig {
    ReconstructionConfig::new(-2000.0, 2000.0, 120)
}

/// A region of interest: `(r0, c0, nr, nc)`, an `nr × nc` pixel window at
/// `(r0, c0)`.
type Roi = (usize, usize, usize, usize);

/// The ROI source over the whole scan.
fn roi_source(s: &SyntheticScan, (r0, c0, nr, nc): Roi) -> RoiSlabSource<InMemorySlabSource> {
    let inner = InMemorySlabSource::new(s.images.clone(), 14, 10, 12).unwrap();
    RoiSlabSource::new(inner, r0, c0, nr, nc).unwrap()
}

/// Read the ROI source whole and reconstruct it on the sequential CPU
/// engine.
fn roi_cpu(s: &SyntheticScan, cfg: &ReconstructionConfig, roi: Roi) -> cpu::CpuReconstruction {
    let (r0, c0, nr, nc) = roi;
    let roi_geom = s.geometry.crop(r0, c0, nr, nc).unwrap();
    let images = roi_source(s, roi).read_slab(0, nr).unwrap();
    let view = ScanView::new(&images, 14, nr, nc).unwrap();
    cpu::reconstruct_seq(&view, &roi_geom, cfg).unwrap()
}

#[test]
fn roi_reconstruction_is_a_subblock_of_the_full_one() {
    let s = scan();
    let cfg = cfg();
    let (r0, c0, nr, nc) = (3usize, 4usize, 5usize, 6usize);

    // Full reconstruction.
    let view = ScanView::new(&s.images, 14, 10, 12).unwrap();
    let full = cpu::reconstruct_seq(&view, &s.geometry, &cfg).unwrap();

    // ROI reconstruction: cropped geometry + ROI source.
    let roi_cpu = roi_cpu(&s, &cfg, (r0, c0, nr, nc));
    for bin in 0..cfg.n_depth_bins {
        for r in 0..nr {
            for c in 0..nc {
                assert_eq!(
                    roi_cpu.image.at(bin, r, c),
                    full.image.at(bin, r0 + r, c0 + c),
                    "bin {bin}, pixel ({r}, {c})"
                );
            }
        }
    }

    // GPU over the ROI, two rows per slab: the source is read in row
    // chunks at offsets.
    let roi_geom = s.geometry.crop(r0, c0, nr, nc).unwrap();
    let mut roi_src = roi_source(&s, (r0, c0, nr, nc));
    let device = Device::new(DeviceProps::tiny(8 * 1024 * 1024));
    let pins = Pins {
        rows: Some(2),
        ..Pins::default()
    };
    let plan = Plan::fixed(1, 1, GpuOptions::default(), PipelineDepth::SERIAL, pins);
    let roi_gpu =
        gpu::reconstruct_pipelined(&device, &mut roi_src, &roi_geom, &cfg, plan, None).unwrap();
    assert_eq!(roi_gpu.rows_per_slab, 2);
    assert_eq!(
        roi_gpu.image.data, roi_cpu.image.data,
        "GPU ROI matches CPU ROI"
    );
}

#[test]
fn full_frame_roi_is_the_identity() {
    let s = scan();
    let cfg = cfg();
    let view = ScanView::new(&s.images, 14, 10, 12).unwrap();
    let full = cpu::reconstruct_seq(&view, &s.geometry, &cfg).unwrap();

    let roi = roi_cpu(&s, &cfg, (0, 0, 10, 12));
    assert_eq!(roi.image.data, full.image.data);
    assert_eq!(roi.stats, full.stats);
}

#[test]
fn roi_runs_cost_proportionally_less() {
    // The point of ROIs: a quarter of the pixels costs a quarter of the work.
    let s = scan();
    let cfg = cfg();
    let view = ScanView::new(&s.images, 14, 10, 12).unwrap();
    let full = cpu::reconstruct_seq(&view, &s.geometry, &cfg).unwrap();

    let roi = roi_cpu(&s, &cfg, (0, 0, 5, 6));
    assert_eq!(roi.stats.pairs_total * 4, full.stats.pairs_total);
    assert!(roi.cost.flops < full.cost.flops / 3);
}
