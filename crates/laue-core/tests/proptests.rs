//! Property tests for the reconstruction invariants:
//! CPU ≡ GPU, chunking invariance, intensity conservation, cutoff monotonicity.

use cuda_sim::{Device, DeviceProps, Host, Interconnect, InterconnectProps};
use laue_core::cache::{DepthTableCache, EdgeTable, TableCacheStats, TableKey};
use laue_core::cluster::reconstruct_cluster;
use laue_core::gpu::{GpuOptions, Layout, PipelineDepth, Triangulation};
use laue_core::planner::{Pins, Plan};
use laue_core::{
    cpu, gpu, AccumulationMode, CompactionMode, GpuReconstruction, InMemorySlabSource,
    ReconstructionConfig, ReductionTopology, ScanGeometry, ScanView, WireEdge,
};
use proptest::prelude::*;

/// A generated scan scenario: geometry dims + synthetic stack.
#[derive(Debug, Clone)]
struct Scenario {
    n_rows: usize,
    n_cols: usize,
    n_steps: usize,
    data: Vec<f64>,
    cutoff: f64,
    rows_per_slab: usize,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (2usize..=5, 2usize..=5, 3usize..=8).prop_flat_map(|(n_rows, n_cols, n_steps)| {
        let n = n_rows * n_cols * n_steps;
        (
            proptest::collection::vec(0.0..1000.0f64, n..=n),
            0.0..50.0f64,
            1usize..=5,
        )
            .prop_map(move |(data, cutoff, rows_per_slab)| Scenario {
                n_rows,
                n_cols,
                n_steps,
                data,
                cutoff,
                rows_per_slab: rows_per_slab.min(n_rows),
            })
    })
}

fn geometry(s: &Scenario) -> ScanGeometry {
    ScanGeometry::demo(s.n_rows, s.n_cols, s.n_steps, -40.0, 5.0).unwrap()
}

fn config(s: &Scenario) -> ReconstructionConfig {
    let mut cfg = ReconstructionConfig::new(-1500.0, 1500.0, 60);
    cfg.intensity_cutoff = s.cutoff;
    cfg
}

/// The scenario's slab rows, pinned.
fn pins(s: &Scenario) -> Pins {
    Pins {
        rows: Some(s.rows_per_slab),
        ..Pins::default()
    }
}

/// `gpu::reconstruct` of `layout` over slabs of `rows` rows.
fn reconstruct_rows(
    device: &Device,
    s: &Scenario,
    geom: &ScanGeometry,
    cfg: &ReconstructionConfig,
    layout: Layout,
    rows: usize,
) -> GpuReconstruction {
    let mut src = InMemorySlabSource::new(s.data.clone(), s.n_steps, s.n_rows, s.n_cols).unwrap();
    let opts = GpuOptions {
        layout,
        ..GpuOptions::default()
    };
    let pins = Pins {
        rows: Some(rows),
        ..Pins::default()
    };
    let plan = Plan::fixed(1, 1, opts, PipelineDepth::SERIAL, pins);
    gpu::reconstruct_pipelined(device, &mut src, geom, cfg, plan, None).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The GPU pipeline (sequential executor) reproduces the CPU baseline
    /// bit for bit, for any stack, cutoff and slab size.
    #[test]
    fn gpu_equals_cpu_bitwise(s in arb_scenario()) {
        let geom = geometry(&s);
        let cfg = config(&s);
        let view = ScanView::new(&s.data, s.n_steps, s.n_rows, s.n_cols).unwrap();
        let cpu_out = cpu::reconstruct_seq(&view, &geom, &cfg).unwrap();
        let device = Device::new(DeviceProps::tiny(16 * 1024 * 1024));
        let gpu_out = reconstruct_rows(&device, &s, &geom, &cfg, Layout::Flat1d, s.rows_per_slab);
        prop_assert_eq!(&cpu_out.image.data, &gpu_out.image.data);
        prop_assert_eq!(cpu_out.stats, gpu_out.stats);
    }

    /// Both device layouts agree functionally; the pointer layout always
    /// costs at least as many transfers.
    #[test]
    fn layouts_agree(s in arb_scenario()) {
        let geom = geometry(&s);
        let cfg = config(&s);
        let device = Device::new(DeviceProps::tiny(16 * 1024 * 1024));
        let rows = s.rows_per_slab;
        let flat = reconstruct_rows(&device, &s, &geom, &cfg, Layout::Flat1d, rows);
        let ptr = reconstruct_rows(&device, &s, &geom, &cfg, Layout::Pointer3d, rows);
        prop_assert_eq!(&flat.image.data, &ptr.image.data);
        prop_assert!(ptr.meters.transfers >= flat.meters.transfers);
        prop_assert!(ptr.meters.comm_time_s >= flat.meters.comm_time_s);
    }

    /// Slab size never changes the answer (chunking invariance).
    #[test]
    fn chunking_invariance(s in arb_scenario()) {
        let geom = geometry(&s);
        let device = Device::new(DeviceProps::tiny(16 * 1024 * 1024));
        let mut reference: Option<Vec<f64>> = None;
        let cfg = config(&s);
        for rows in 1..=s.n_rows {
            let out = reconstruct_rows(&device, &s, &geom, &cfg, Layout::Flat1d, rows);
            match &reference {
                None => reference = Some(out.image.data),
                Some(r) => prop_assert_eq!(r, &out.image.data),
            }
        }
    }

    /// Raising the cutoff never increases the number of active pairs, and
    /// stats stay internally consistent.
    #[test]
    fn cutoff_monotone(s in arb_scenario(), extra in 1.0..200.0f64) {
        let geom = geometry(&s);
        let view = ScanView::new(&s.data, s.n_steps, s.n_rows, s.n_cols).unwrap();
        let cfg_lo = config(&s);
        let mut cfg_hi = cfg_lo.clone();
        cfg_hi.intensity_cutoff += extra;
        let lo = cpu::reconstruct_seq(&view, &geom, &cfg_lo).unwrap();
        let hi = cpu::reconstruct_seq(&view, &geom, &cfg_hi).unwrap();
        prop_assert!(lo.stats.is_consistent());
        prop_assert!(hi.stats.is_consistent());
        prop_assert!(hi.stats.pairs_below_cutoff >= lo.stats.pairs_below_cutoff);
        prop_assert!(hi.stats.active_fraction() <= lo.stats.active_fraction() + 1e-12);
        prop_assert!(hi.cost.flops <= lo.cost.flops);
    }

    /// Total deposited intensity equals the sum of each deposited pair's
    /// in-window fraction of ΔI — intensity conservation at the run level.
    #[test]
    fn intensity_conservation(s in arb_scenario()) {
        let geom = geometry(&s);
        let cfg = config(&s);
        let view = ScanView::new(&s.data, s.n_steps, s.n_rows, s.n_cols).unwrap();
        let out = cpu::reconstruct_seq(&view, &geom, &cfg).unwrap();
        // Recompute expected deposits directly through the pair planner.
        let mapper = geom.mapper().unwrap();
        let mut expected = 0.0;
        for r in 0..s.n_rows {
            for c in 0..s.n_cols {
                let pixel = geom.detector.pixel_to_xyz(r, c).unwrap();
                for z in 0..s.n_steps - 1 {
                    let mut fl = 0u64;
                    if let laue_core::pair::PairPlan::Deposit(plan) = laue_core::pair::plan_pair(
                        &mapper,
                        &cfg,
                        pixel,
                        geom.wire.center(z).unwrap(),
                        geom.wire.center(z + 1).unwrap(),
                        view.at(z, r, c),
                        view.at(z + 1, r, c),
                        &mut fl,
                    ) {
                        expected += plan.delta * (plan.hi - plan.lo) / plan.band_len;
                    }
                }
            }
        }
        let got = out.image.total_intensity();
        prop_assert!(
            (got - expected).abs() <= 1e-6 * (1.0 + expected.abs()),
            "conservation: got {}, expected {}", got, expected
        );
    }

    /// Cached depth tables are bit-identical to freshly computed ones for
    /// any geometry and wire edge, hold each pixel's triangulation at every
    /// step, and a cache hit returns the same table without rebuilding it
    /// or moving any counter.
    #[test]
    fn cached_tables_bit_identical_to_fresh(s in arb_scenario(), trailing in any::<bool>()) {
        let geom = geometry(&s);
        let mapper = geom.mapper().unwrap();
        let edge = if trailing { WireEdge::Trailing } else { WireEdge::Leading };
        let all = 0..s.n_rows;
        let all = std::slice::from_ref(&all);
        let fresh = EdgeTable::build(&geom, &mapper, edge, all);
        let key = TableKey::edges(&geom, edge);
        let cache = DepthTableCache::new(16 * 1024 * 1024);
        let cached = cache.edge_table(&key, || EdgeTable::build(&geom, &mapper, edge, all));
        let hit = cache.edge_table(&key, || panic!("a hit must not recompute"));
        prop_assert!(std::sync::Arc::ptr_eq(&cached, &hit));
        prop_assert_eq!(cache.totals(), TableCacheStats::default());
        // Compare bit patterns: missed pixels are NaN, which `==` rejects.
        let bits = |t: &EdgeTable| {
            t.rows(0, s.n_rows).iter().map(|d| d.to_bits()).collect::<Vec<u64>>()
        };
        prop_assert_eq!(bits(&fresh), bits(&cached));
        let depths = cached.rows(0, s.n_rows);
        for (i, d) in depths.iter().enumerate() {
            let (pixel, z) = (i / s.n_steps, i % s.n_steps);
            let p = geom.detector.pixel_to_xyz_unchecked(
                (pixel / s.n_cols) as f64,
                (pixel % s.n_cols) as f64,
            );
            let w = geom.wire.center_unchecked(z as f64);
            let want = mapper.depth(p, w, edge).unwrap_or(f64::NAN);
            prop_assert_eq!(d.to_bits(), want.to_bits());
        }
    }

    /// A warm-cache reconstruction (host tables found, device-resident
    /// buffer reused) is bit-identical to the cold run for any geometry.
    #[test]
    fn warm_cache_reconstruction_matches_cold(s in arb_scenario()) {
        let geom = geometry(&s);
        let cfg = config(&s);
        let device = Device::new(DeviceProps::tiny(16 * 1024 * 1024));
        let cache = DepthTableCache::new(8 * 1024 * 1024);
        let opts = GpuOptions {
            triangulation: Triangulation::HostTables,
            ..GpuOptions::default()
        };
        let plan = Plan::fixed(1, 1, opts, PipelineDepth(2), pins(&s));
        let run = || {
            let mut src =
                InMemorySlabSource::new(s.data.clone(), s.n_steps, s.n_rows, s.n_cols).unwrap();
            gpu::reconstruct_pipelined(&device, &mut src, &geom, &cfg, plan, Some(&cache)).unwrap()
        };
        let cold = run();
        let warm = run();
        prop_assert_eq!(cold.table_cache.host_misses, 1);
        prop_assert_eq!(cold.host_table_flops, EdgeTable::build_flops(&geom, s.n_rows));
        prop_assert_eq!(warm.table_cache.host_hits, 1);
        prop_assert_eq!(warm.table_cache.device_hits, 1);
        prop_assert_eq!(warm.host_table_flops, 0);
        prop_assert_eq!(&cold.image.data, &warm.image.data);
        prop_assert_eq!(cold.stats, warm.stats);
    }
}

/// A generated GPU plan for the worker-count property: every engine is a
/// `nodes × devices` plan over some kernel options and ring depth.
#[derive(Debug, Clone)]
struct PlanShape {
    nodes: usize,
    per_node: usize,
    options: GpuOptions,
    depth: usize,
    compaction: CompactionMode,
    accumulation: AccumulationMode,
}

fn arb_plan_shape() -> impl Strategy<Value = PlanShape> {
    (
        (1usize..=3, 1usize..=2, 1usize..=3),
        prop_oneof![Just(Layout::Flat1d), Just(Layout::Pointer3d)],
        prop_oneof![
            Just(Triangulation::InKernel),
            Just(Triangulation::HostTables)
        ],
        prop_oneof![Just(CompactionMode::Off), Just(CompactionMode::On)],
        prop_oneof![
            Just(AccumulationMode::Atomic),
            Just(AccumulationMode::Privatized)
        ],
    )
        .prop_map(
            |((nodes, per_node, depth), layout, triangulation, compaction, accumulation)| {
                PlanShape {
                    nodes,
                    per_node,
                    options: GpuOptions {
                        layout,
                        triangulation,
                    },
                    depth,
                    compaction,
                    accumulation,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every GPU plan reconstructs the same bits on one host worker per
    /// launch as on many (forced onto every launch, however small), and
    /// the report's statistics and kernel cost match too. The deposit order
    /// is the CPU loop nest's, so the bits are `cpu::reconstruct_seq`'s.
    #[test]
    fn threaded_executor_matches_bit_for_bit(
        s in arb_scenario(),
        shape in arb_plan_shape(),
        workers in 2usize..5,
    ) {
        let geom = geometry(&s);
        let mut cfg = config(&s);
        cfg.compaction = shape.compaction;
        cfg.accumulation = shape.accumulation;
        let run = |workers: usize| {
            let hosts: Vec<_> = (0..shape.nodes).map(|_| Host::new_default()).collect();
            let devices: Vec<Vec<Device>> = hosts
                .iter()
                .map(|h| {
                    (0..shape.per_node)
                        .map(|_| {
                            let d = Device::new_on_host(DeviceProps::tiny(16 * 1024 * 1024), h);
                            d.force_workers(workers);
                            d
                        })
                        .collect()
                })
                .collect();
            let refs: Vec<Vec<&Device>> = devices.iter().map(|ds| ds.iter().collect()).collect();
            let net = Interconnect::new("prop", shape.nodes, InterconnectProps::ib_qdr());
            let mut src =
                InMemorySlabSource::new(s.data.clone(), s.n_steps, s.n_rows, s.n_cols).unwrap();
            let plan = Plan::fixed(
                shape.nodes,
                shape.per_node,
                shape.options,
                PipelineDepth(shape.depth),
                pins(&s),
            );
            reconstruct_cluster(&refs, &net, &mut src, &geom, &cfg, plan, None).unwrap()
        };
        let bits = |data: &[f64]| data.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let one = run(1);
        let many = run(workers);
        prop_assert_eq!(bits(&one.image.data), bits(&many.image.data));
        prop_assert_eq!(one.stats, many.stats);
        prop_assert_eq!(one.meters.kernel_cost, many.meters.kernel_cost);
        let view = ScanView::new(&s.data, s.n_steps, s.n_rows, s.n_cols).unwrap();
        let cpu_out = cpu::reconstruct_seq(&view, &geom, &cfg).unwrap();
        prop_assert_eq!(bits(&cpu_out.image.data), bits(&many.image.data));
    }
}

/// A generated cluster shape for the reduction-order property: node count
/// (allowed to exceed the row count — excess nodes get empty bands), devices
/// per node, topology, overlap, and the per-slab execution knobs.
#[derive(Debug, Clone)]
struct ClusterShape {
    nodes: usize,
    per_node: usize,
    topology: ReductionTopology,
    overlap: bool,
    compaction: CompactionMode,
    accumulation: AccumulationMode,
}

fn arb_cluster_shape() -> impl Strategy<Value = ClusterShape> {
    (
        1usize..=6,
        1usize..=2,
        prop_oneof![Just(ReductionTopology::Tree), Just(ReductionTopology::Ring)],
        any::<bool>(),
        prop_oneof![
            Just(CompactionMode::Off),
            Just(CompactionMode::Auto),
            Just(CompactionMode::On)
        ],
        prop_oneof![
            Just(AccumulationMode::Atomic),
            Just(AccumulationMode::Privatized),
            Just(AccumulationMode::Auto)
        ],
    )
        .prop_map(
            |(nodes, per_node, topology, overlap, compaction, accumulation)| ClusterShape {
                nodes,
                per_node,
                topology,
                overlap,
                compaction,
                accumulation,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both inter-node reduction orders (tree and ring, overlapped or
    /// barriered) are bit-identical to the single-device reference for any
    /// stack density, node count, devices-per-node, compaction mode, and
    /// accumulation mode: row bands are disjoint, so the reduction is a
    /// gather and no floating-point reassociation can occur.
    #[test]
    fn cluster_reduction_order_is_bitwise_invisible(
        s in arb_scenario(),
        shape in arb_cluster_shape(),
    ) {
        let geom = geometry(&s);
        let mut cfg = config(&s);
        cfg.compaction = shape.compaction;
        cfg.accumulation = shape.accumulation;

        let single = Device::new(DeviceProps::tiny(16 * 1024 * 1024));
        let reference =
            reconstruct_rows(&single, &s, &geom, &cfg, Layout::Flat1d, s.rows_per_slab);

        let hosts: Vec<_> = (0..shape.nodes).map(|_| Host::new_default()).collect();
        let devices: Vec<Vec<Device>> = hosts
            .iter()
            .map(|h| {
                (0..shape.per_node)
                    .map(|_| Device::new_on_host(DeviceProps::tiny(16 * 1024 * 1024), h))
                    .collect()
            })
            .collect();
        let refs: Vec<Vec<&Device>> =
            devices.iter().map(|ds| ds.iter().collect()).collect();
        let net = Interconnect::new("prop", shape.nodes, InterconnectProps::ib_qdr());
        let mut src =
            InMemorySlabSource::new(s.data.clone(), s.n_steps, s.n_rows, s.n_cols).unwrap();
        let plan = Plan::fixed(
            shape.nodes,
            shape.per_node,
            GpuOptions::default(),
            PipelineDepth::SERIAL,
            Pins {
                topology: Some(shape.topology),
                overlap: Some(shape.overlap),
                ..pins(&s)
            },
        );
        let out = reconstruct_cluster(&refs, &net, &mut src, &geom, &cfg, plan, None).unwrap();

        prop_assert_eq!(&reference.image.data, &out.image.data);
        // Under per-slab `Auto` compaction/accumulation the dense-vs-compact
        // decision depends on slab size, and node bands re-chunk the rows —
        // so attribution counters may shift between launches. The physical
        // counters cannot.
        prop_assert_eq!(reference.stats.pairs_deposited, out.stats.pairs_deposited);
        prop_assert_eq!(reference.stats.deposits, out.stats.deposits);
        if shape.compaction != CompactionMode::Auto
            && shape.accumulation != AccumulationMode::Auto
        {
            prop_assert_eq!(reference.stats, out.stats);
        }
        prop_assert_eq!(out.nodes.len(), shape.nodes);
        let rows: usize = out.nodes.iter().map(|n| n.rows).sum();
        prop_assert_eq!(rows, s.n_rows);
    }
}
