//! Integration: every GPU engine is the one checkpointed executor on some
//! `nodes × devices` topology, so engine aliases that name the same
//! topology must agree bit for bit — image, stats, and every virtual time.

use laue::prelude::*;

fn make_scan() -> SyntheticScan {
    SyntheticScanBuilder::new(12, 10, 10)
        .scatterers(6)
        .background(8.0)
        .noise(0.5)
        .seed(41)
        .build()
        .unwrap()
}

fn run(
    scan: &SyntheticScan,
    cfg: &ReconstructionConfig,
    rows: Option<usize>,
    engine: Engine,
) -> RunReport {
    let mut source = InMemorySlabSource::new(scan.images.clone(), 10, 12, 10).unwrap();
    let pins = Pins {
        rows,
        ..Pins::default()
    };
    Pipeline {
        pins,
        ..Pipeline::default()
    }
    .run_source(&mut source, &scan.geometry, cfg, engine)
    .unwrap()
}

fn assert_bitwise_equal(a: &RunReport, b: &RunReport, tag: &str) {
    assert_eq!(a.image.data, b.image.data, "{tag}: image");
    assert_eq!(a.stats, b.stats, "{tag}: stats");
    for (name, x, y) in [
        ("total_time_s", a.total_time_s, b.total_time_s),
        ("comm_time_s", a.comm_time_s, b.comm_time_s),
        ("compute_time_s", a.compute_time_s, b.compute_time_s),
        ("bus_wait_s", a.bus_wait_s, b.bus_wait_s),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{tag}: {name} {x} vs {y}");
    }
}

#[test]
fn aliases_of_one_topology_agree_bit_for_bit() {
    let scan = make_scan();
    let one_by_one = [
        Engine::GpuPipelined,
        Engine::GpuMulti { devices: 1 },
        Engine::GpuCluster {
            nodes: 1,
            devices_per_node: 1,
        },
    ];
    let one_by_four = [
        Engine::GpuMulti { devices: 4 },
        Engine::GpuCluster {
            nodes: 1,
            devices_per_node: 4,
        },
    ];
    for rows_per_slab in [None, Some(2), Some(5)] {
        for integrity in [IntegrityMode::Off, IntegrityMode::Verify] {
            let mut cfg = ReconstructionConfig::new(-1500.0, 1500.0, 80);
            cfg.plan = PlanMode::Fixed;
            cfg.integrity = integrity;
            for aliases in [&one_by_one[..], &one_by_four[..]] {
                let reports: Vec<RunReport> = aliases
                    .iter()
                    .map(|&e| run(&scan, &cfg, rows_per_slab, e))
                    .collect();
                for r in &reports[1..] {
                    let tag = format!(
                        "{} vs {} (rows/slab {rows_per_slab:?}, integrity {})",
                        reports[0].engine,
                        r.engine,
                        integrity.label()
                    );
                    assert_bitwise_equal(&reports[0], r, &tag);
                }
                // One node has nothing to gather: no fabric traffic and no
                // reduction tail on the makespan.
                for r in &reports {
                    if let Some(c) = &r.cluster {
                        assert_eq!(c.net_messages, 0, "{}", r.engine);
                        assert_eq!(c.net_bytes, 0, "{}", r.engine);
                        assert_eq!(c.reduction_exposed_s, 0.0, "{}", r.engine);
                    }
                }
            }
        }
    }
}

#[test]
fn aliases_of_one_topology_plan_alike_under_plan_auto() {
    let scan = make_scan();
    let one_by_one = [
        Engine::GpuPipelined,
        Engine::GpuMulti { devices: 1 },
        Engine::GpuCluster {
            nodes: 1,
            devices_per_node: 1,
        },
    ];
    let one_by_four = [
        Engine::GpuMulti { devices: 4 },
        Engine::GpuCluster {
            nodes: 1,
            devices_per_node: 4,
        },
    ];
    for rows_per_slab in [None, Some(2)] {
        let mut cfg = ReconstructionConfig::new(-1500.0, 1500.0, 80);
        cfg.plan = PlanMode::Auto;
        for aliases in [&one_by_one[..], &one_by_four[..]] {
            let reports: Vec<RunReport> = aliases
                .iter()
                .map(|&e| run(&scan, &cfg, rows_per_slab, e))
                .collect();
            let chosen = |r: &RunReport| {
                let plan = r
                    .plan
                    .as_ref()
                    .unwrap_or_else(|| panic!("{} under --plan auto records no plan", r.engine));
                plan.chosen.clone()
            };
            // One node keeps the per-device label:
            // layout/triangulation/k<depth>/r<rows>.
            assert_eq!(chosen(&reports[0]).split('/').count(), 4);
            for r in &reports[1..] {
                let tag = format!(
                    "{} vs {} (plan auto, rows/slab {rows_per_slab:?})",
                    reports[0].engine, r.engine
                );
                assert_bitwise_equal(&reports[0], r, &tag);
                assert_eq!(chosen(&reports[0]), chosen(r), "{tag}: plan.chosen");
            }
        }
    }
}
