//! Quickstart: synthesize a wire scan, reconstruct it on the CPU baseline
//! and on the simulated-GPU engine, and verify the recovered depths.
//!
//! Run with: `cargo run --release --example quickstart`

use laue::prelude::*;

fn main() {
    // A 16×16-pixel detector, 32 wire steps, 6 scatterers at random depths.
    let scan = SyntheticScanBuilder::new(16, 16, 32)
        .scatterers(6)
        .background(10.0)
        .seed(2024)
        .build()
        .expect("synthetic scan");
    println!(
        "generated scan: {} images of {}×{} pixels, {} ground-truth scatterers",
        scan.geometry.wire.n_steps,
        scan.geometry.detector.n_rows,
        scan.geometry.detector.n_cols,
        scan.truth.len()
    );

    let cfg = ReconstructionConfig::new(-1800.0, 1800.0, 600);
    let pipeline = Pipeline::default();

    for engine in [
        Engine::Cpu { threads: 1 },
        Engine::Gpu {
            layout: Layout::Flat1d,
        },
    ] {
        let mut source = InMemorySlabSource::new(
            scan.images.clone(),
            scan.geometry.wire.n_steps,
            scan.geometry.detector.n_rows,
            scan.geometry.detector.n_cols,
        )
        .expect("source");
        let report = pipeline
            .run_source(&mut source, &scan.geometry, &cfg, engine)
            .expect("reconstruction");
        println!("\n{}", report.summary());

        println!("  truth depth (µm)   recovered (µm)   error");
        for s in &scan.truth.scatterers {
            match report.image.pixel_peak_depth(s.row, s.col, &cfg) {
                Some(peak) => println!(
                    "  {:>14.1}   {:>14.1}   {:>6.1}",
                    s.depth,
                    peak,
                    (peak - s.depth).abs()
                ),
                None => println!("  {:>14.1}   (no peak)", s.depth),
            }
        }
    }
}
