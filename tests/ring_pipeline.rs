//! Integration: the k-deep ring pipeline against the sequential CPU
//! baseline — including recovery from injected device faults mid-flight.

use laue::prelude::*;

fn make_scan() -> SyntheticScan {
    SyntheticScanBuilder::new(16, 16, 12)
        .scatterers(10)
        .background(8.0)
        .noise(0.5)
        .seed(77)
        .build()
        .unwrap()
}

fn cfg() -> ReconstructionConfig {
    ReconstructionConfig::new(-1600.0, 1600.0, 200)
}

fn cpu_baseline(scan: &SyntheticScan, c: &ReconstructionConfig) -> DepthImage {
    let view = ScanView::new(&scan.images, 12, 16, 16).unwrap();
    cpu::reconstruct_seq(&view, &scan.geometry, c)
        .unwrap()
        .image
}

fn ring_run(
    scan: &SyntheticScan,
    c: &ReconstructionConfig,
    depth: usize,
    plan: Option<FaultPlan>,
) -> laue::core::gpu::GpuReconstruction {
    let device = Device::new(DeviceProps::tesla_m2070());
    if let Some(plan) = plan {
        device.set_fault_plan(plan);
    }
    let mut source = InMemorySlabSource::new(scan.images.clone(), 12, 16, 16).unwrap();
    // 2-row slabs, 8 of them: plenty of in-flight overlap.
    let pins = Pins {
        rows: Some(2),
        ..Pins::default()
    };
    let ring = Plan::fixed(1, 1, GpuOptions::default(), PipelineDepth(depth), pins);
    gpu::reconstruct_pipelined(&device, &mut source, &scan.geometry, c, ring, None).unwrap()
}

#[test]
fn ring_depths_are_bit_identical_to_the_cpu_baseline() {
    let scan = make_scan();
    let c = cfg();
    let baseline = cpu_baseline(&scan, &c);
    let mut elapsed = Vec::new();
    for k in [1usize, 2, 4] {
        let out = ring_run(&scan, &c, k, None);
        assert_eq!(out.pipeline_depth, k);
        assert_eq!(
            out.image.data, baseline.data,
            "ring depth {k} diverges from cpu-seq"
        );
        elapsed.push(out.elapsed_s);
    }
    assert!(
        elapsed[1] < elapsed[0],
        "k=2 must overlap transfers: {elapsed:?}"
    );
    assert!(
        elapsed[2] <= elapsed[1] + 1e-12,
        "deeper rings never slow down: {elapsed:?}"
    );
}

#[test]
fn ring_survives_mid_run_oom_by_replanning() {
    let scan = make_scan();
    let c = cfg();
    let baseline = cpu_baseline(&scan, &c);
    // Flat1d allocs: wires (#1), then pixels/intensity/output per slab —
    // alloc #6 lands in the middle of the second slab, with the ring full.
    let out = ring_run(&scan, &c, 3, Some(FaultPlan::new(9).fail_nth_alloc(6)));
    assert!(
        out.recovery.replans >= 1,
        "the ring must have re-planned, got {:?}",
        out.recovery
    );
    assert_eq!(out.image.data, baseline.data, "replanned output diverges");
}

#[test]
fn ring_retries_transient_transfer_faults() {
    let scan = make_scan();
    let c = cfg();
    let baseline = cpu_baseline(&scan, &c);
    let out = ring_run(&scan, &c, 4, Some(FaultPlan::new(5).fail_nth_h2d(3)));
    assert!(
        out.recovery.transfer_retries >= 1,
        "the transfer fault must have been retried, got {:?}",
        out.recovery
    );
    assert_eq!(
        out.recovery.replans, 0,
        "a transient fault needs no re-plan"
    );
    assert_eq!(out.image.data, baseline.data, "retried output diverges");
}
