//! Cross-crate integration: generator → mh5 container → pipeline engines →
//! export, including failure injection along the way.

use laue::pipeline::export;
use laue::prelude::*;
use laue::sim::DeviceProps;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("laue_e2e_{}_{name}.mh5", std::process::id()))
}

fn make_scan(seed: u64) -> SyntheticScan {
    SyntheticScanBuilder::new(12, 12, 16)
        .scatterers(8)
        .background(12.0)
        .seed(seed)
        .build()
        .unwrap()
}

fn cfg() -> ReconstructionConfig {
    ReconstructionConfig::new(-1800.0, 1800.0, 300)
}

#[test]
fn file_based_engines_all_agree_and_recover_truth() {
    let scan = make_scan(1);
    let path = tmp("agree");
    write_scan(&path, &scan.geometry, &scan.images, Some(&scan.truth), 3).unwrap();

    let pipeline = Pipeline::default();
    let engines = [
        Engine::Cpu { threads: 1 },
        Engine::Cpu { threads: 2 },
        Engine::Gpu {
            layout: Layout::Flat1d,
        },
        Engine::Gpu {
            layout: Layout::Pointer3d,
        },
        Engine::GpuTables,
        Engine::GpuPipelined,
    ];
    let cfg = cfg();
    let reports: Vec<RunReport> = engines
        .iter()
        .map(|&e| pipeline.run_scan_file(&path, &cfg, e).unwrap())
        .collect();
    for r in &reports[1..] {
        assert_eq!(reports[0].image.data, r.image.data, "{} differs", r.engine);
    }

    // Ground truth recovery through the whole file round trip.
    let scan_file = read_scan(&path).unwrap();
    let truth = scan_file.truth().unwrap();
    let tol = 2.0 * scan.geometry.wire.step.norm() + 2.0 * cfg.bin_width();
    let mut recovered = 0;
    for s in &truth.scatterers {
        if let Some(p) = reports[0].image.pixel_peak_depth(s.row, s.col, &cfg) {
            if (p - s.depth).abs() <= tol {
                recovered += 1;
            }
        }
    }
    assert!(
        recovered * 10 >= truth.len() * 8,
        "recovered only {recovered}/{}",
        truth.len()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn memory_capped_device_streams_and_matches_unconstrained() {
    let scan = make_scan(2);
    let path = tmp("capped");
    write_scan(&path, &scan.geometry, &scan.images, None, 2).unwrap();
    let cfg = cfg();

    let roomy = Pipeline::default();
    let r_roomy = roomy
        .run_scan_file(
            &path,
            &cfg,
            Engine::Gpu {
                layout: Layout::Flat1d,
            },
        )
        .unwrap();

    let capped = Pipeline {
        device: DeviceProps::tiny(128 * 1024),
        ..Pipeline::default()
    };
    let r_capped = capped
        .run_scan_file(
            &path,
            &cfg,
            Engine::Gpu {
                layout: Layout::Flat1d,
            },
        )
        .unwrap();

    assert!(
        r_capped.n_slabs > r_roomy.n_slabs,
        "cap must force more slabs"
    );
    assert_eq!(
        r_capped.image.data, r_roomy.image.data,
        "chunking must not change results"
    );
    assert!(
        r_capped.comm_time_s > r_roomy.comm_time_s,
        "more slabs, more per-transfer latency"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn full_export_chain_round_trips() {
    let scan = make_scan(3);
    let in_path = tmp("export_in");
    let out_path = tmp("export_out");
    write_scan(&in_path, &scan.geometry, &scan.images, None, 4).unwrap();
    let cfg = cfg();
    let pipeline = Pipeline::default();
    let report = pipeline
        .run_scan_file(&in_path, &cfg, Engine::Cpu { threads: 1 })
        .unwrap();
    export::write_mh5(&out_path, &report, &cfg).unwrap();

    // The exported container is a valid mh5 file with the right data.
    let f = laue::container::FileReader::open(&out_path).unwrap();
    let ds = f.resolve_path("/reconstruction/depth_image").unwrap();
    let data: Vec<f64> = f.read_all(ds).unwrap();
    assert_eq!(data, report.image.data);
    let g = f.resolve_path("/reconstruction").unwrap();
    assert_eq!(
        f.attr(g, "n_depth_bins").unwrap().unwrap().as_int(),
        Some(cfg.n_depth_bins as i64)
    );

    // Text exports parse and conserve totals.
    let mut hist = Vec::new();
    export::write_histogram_text(&mut hist, &report.image, &cfg).unwrap();
    let total: f64 = String::from_utf8(hist)
        .unwrap()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().nth(1).unwrap().parse::<f64>().unwrap())
        .sum();
    assert!((total - report.image.total_intensity()).abs() < 1e-6);

    std::fs::remove_file(&in_path).ok();
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn corrupt_scan_file_fails_cleanly_through_the_pipeline() {
    let scan = make_scan(4);
    let path = tmp("corrupt");
    write_scan(&path, &scan.geometry, &scan.images, None, 2).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let n = bytes.len();
    bytes[n - 20] ^= 0xFF; // metadata corruption → CRC mismatch
    std::fs::write(&path, &bytes).unwrap();
    let pipeline = Pipeline::default();
    let err = pipeline
        .run_scan_file(&path, &cfg(), Engine::Cpu { threads: 1 })
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("checksum") || msg.contains("corrupt") || msg.contains("mh5"),
        "unexpected error text: {msg}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_scan_file_fails_cleanly() {
    let scan = make_scan(5);
    let path = tmp("truncated");
    write_scan(&path, &scan.geometry, &scan.images, None, 2).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let pipeline = Pipeline::default();
    assert!(pipeline
        .run_scan_file(&path, &cfg(), Engine::Cpu { threads: 1 })
        .is_err());
    std::fs::remove_file(&path).ok();
}

#[test]
fn geometry_mismatch_detected_at_run_time() {
    // A scan file whose images dataset disagrees with its stored geometry
    // is rejected when opened.
    let scan = make_scan(6);
    let path = tmp("mismatch");
    // Write with a *different* geometry than the images were made for:
    let other = ScanGeometry::demo(10, 12, 16, -40.0, 5.0).unwrap();
    assert!(laue::wire::write_scan(&path, &other, &scan.images, None, 2).is_err());
}

#[test]
fn prelude_quickstart_flow_works() {
    // The exact flow from the crate-level docs.
    let scan = SyntheticScanBuilder::new(8, 8, 16)
        .scatterers(3)
        .seed(1)
        .build()
        .unwrap();
    let cfg = ReconstructionConfig::new(-1500.0, 1500.0, 300);
    let pipeline = Pipeline::default();
    let mut source = InMemorySlabSource::new(scan.images.clone(), 16, 8, 8).unwrap();
    let report = pipeline
        .run_source(
            &mut source,
            &scan.geometry,
            &cfg,
            Engine::Gpu {
                layout: Layout::Flat1d,
            },
        )
        .unwrap();
    let s = &scan.truth.scatterers[0];
    let peak = report.image.pixel_peak_depth(s.row, s.col, &cfg).unwrap();
    assert!((peak - s.depth).abs() < 25.0);
}
