//! Property tests for the extension modules: post-processing, multi-GPU,
//! planning, and the depth-table engine.

use laue::prelude::*;
use laue::sim::Device;
use proptest::prelude::*;

// ----------------------------------------------------------------------
// post-processing
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Smoothing never moves values outside the input's [min, max] hull and
    /// is the identity for sigma = 0.
    #[test]
    fn smoothing_respects_hull(
        profile in proptest::collection::vec(-50.0..500.0f64, 4..64),
        sigma in 0.0..4.0f64,
    ) {
        let s = laue::core::post::smooth_profile(&profile, sigma);
        prop_assert_eq!(s.len(), profile.len());
        let lo = profile.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = profile.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in &s {
            prop_assert!(*v >= lo - 1e-9 && *v <= hi + 1e-9, "{v} outside [{lo}, {hi}]");
        }
        if sigma == 0.0 {
            prop_assert_eq!(s, profile);
        }
    }

    /// Every peak found is a genuine local maximum above threshold, and the
    /// global maximum (when above threshold) is always found first.
    #[test]
    fn peaks_are_local_maxima(
        profile in proptest::collection::vec(0.0..100.0f64, 3..48),
        threshold in 0.0..60.0f64,
    ) {
        let cfg = ReconstructionConfig::new(0.0, profile.len() as f64, profile.len());
        let peaks = laue::core::post::find_peaks(&profile, &cfg, threshold);
        for p in &peaks {
            prop_assert!(p.height > threshold);
            let i = p.bin;
            if i > 0 {
                prop_assert!(profile[i - 1] < profile[i] + 1e-12);
            }
            if i + 1 < profile.len() {
                prop_assert!(profile[i + 1] <= profile[i]);
            }
        }
        let global = profile.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if global > threshold {
            prop_assert!(!peaks.is_empty(), "global max {global} above threshold must be found");
            prop_assert!((peaks[0].height - global).abs() < 1e-12);
        }
        // Sorted by height.
        for w in peaks.windows(2) {
            prop_assert!(w[0].height >= w[1].height);
        }
    }

    /// The depth map returns the global-maximum bin of each profile when no
    /// smoothing is applied.
    #[test]
    fn depth_map_matches_argmax(
        values in proptest::collection::vec(0.0..100.0f64, 12),
    ) {
        let cfg = ReconstructionConfig::new(0.0, 120.0, 12);
        let mut img = DepthImage::zeroed(12, 1, 1);
        for (b, v) in values.iter().enumerate() {
            *img.at_mut(b, 0, 0) = *v;
        }
        let map = depth_map(&img, &cfg, &DepthMapOptions { smoothing_sigma: 0.0, min_height: 0.0 });
        let best = values
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        match map[0] {
            Some(d) => {
                let bin = ((d - cfg.depth_start) / cfg.bin_width()) as usize;
                prop_assert!((values[bin] - best).abs() < 1e-12);
            }
            None => prop_assert!(best <= 0.0, "no peak only when profile is non-positive"),
        }
    }
}

// ----------------------------------------------------------------------
// multi-GPU and engine equivalences over random scenarios
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Scenario {
    rows: usize,
    cols: usize,
    steps: usize,
    seed: u64,
    n_dev: usize,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (3usize..=6, 3usize..=6, 4usize..=8, any::<u64>(), 1usize..=4).prop_map(
        |(rows, cols, steps, seed, n_dev)| Scenario {
            rows,
            cols,
            steps,
            seed,
            n_dev,
        },
    )
}

/// One random silent-corruption schedule: which fault family fires, at
/// which scheduled ordinal, and which checking mode must catch it.
#[derive(Debug, Clone)]
struct CorruptionCase {
    seed: u64,
    family: u8,
    nth: u64,
    byte: u64,
    op: u64,
    scrub: bool,
    fleet: bool,
    compaction: CompactionMode,
    accumulation: AccumulationMode,
}

impl CorruptionCase {
    fn fault_plan(&self) -> FaultPlan {
        let plan = FaultPlan::new(self.seed);
        match self.family {
            0 => plan.flip_nth_h2d(self.nth).flip_byte_offset(self.byte),
            1 => plan.flip_nth_d2h(self.nth).flip_byte_offset(self.byte),
            2 => plan.flip_nth_kernel(self.nth).flip_op_index(self.op),
            _ => plan.stall_nth_kernel(self.nth, 3.0),
        }
    }
}

fn arb_corruption() -> impl Strategy<Value = CorruptionCase> {
    (
        any::<u64>(),
        0u8..4,
        1u64..=5,
        0u64..32,
        0u64..4,
        any::<bool>(),
        any::<bool>(),
        (
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
        ),
    )
        .prop_map(
            |(seed, family, nth, byte, op, scrub, fleet, (compaction, accumulation))| {
                CorruptionCase {
                    seed,
                    family,
                    nth,
                    byte,
                    op,
                    scrub,
                    fleet,
                    compaction,
                    accumulation,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Multi-GPU banding and the depth-table engine both reproduce the CPU
    /// result bit-for-bit on arbitrary scans.
    #[test]
    fn all_engines_bitwise_equal(s in arb_scenario()) {
        let scan = SyntheticScanBuilder::new(s.rows, s.cols, s.steps)
            .scatterers(3)
            .noise(0.5)
            .seed(s.seed)
            .build()
            .unwrap();
        let cfg = ReconstructionConfig::new(-1500.0, 1500.0, 50);
        let view = ScanView::new(&scan.images, s.steps, s.rows, s.cols).unwrap();
        let cpu_out = cpu::reconstruct_seq(&view, &scan.geometry, &cfg).unwrap();

        // Multi-GPU.
        let devices: Vec<Device> = (0..s.n_dev)
            .map(|_| Device::new(DeviceProps::tiny(8 * 1024 * 1024)))
            .collect();
        let refs: Vec<&Device> = devices.iter().collect();
        let mut source =
            InMemorySlabSource::new(scan.images.clone(), s.steps, s.rows, s.cols).unwrap();
        let multi = reconstruct_multi(&refs, &mut source, &scan.geometry, &cfg, GpuOptions::default())
            .unwrap();
        prop_assert_eq!(&multi.image.data, &cpu_out.image.data);
        prop_assert_eq!(multi.stats, cpu_out.stats);

        // Depth-table engine.
        let device = Device::new(DeviceProps::tiny(8 * 1024 * 1024));
        let mut source =
            InMemorySlabSource::new(scan.images.clone(), s.steps, s.rows, s.cols).unwrap();
        let tables = gpu::reconstruct_with_options(
            &device,
            &mut source,
            &scan.geometry,
            &cfg,
            GpuOptions { layout: Layout::Flat1d, triangulation: Triangulation::HostTables },
        )
        .unwrap();
        prop_assert_eq!(&tables.image.data, &cpu_out.image.data);
    }

    /// The sparsity pass (shadow culling + active-pair compaction) is
    /// bit-identical to the dense traversal on arbitrary scans, at every
    /// realised density, for every engine.
    #[test]
    fn compaction_is_bitwise_across_engines_and_densities(
        s in arb_scenario(),
        cutoff_fraction in 0.0..0.95f64,
    ) {
        let scan = SyntheticScanBuilder::new(s.rows, s.cols, s.steps)
            .scatterers(3)
            .noise(0.5)
            .seed(s.seed)
            .build()
            .unwrap();
        // A cutoff at an arbitrary |ΔI| percentile sweeps the realised
        // active density across the whole range.
        let (p, m, n) = (s.steps, s.rows, s.cols);
        let mut deltas: Vec<f64> = Vec::new();
        for z in 0..p - 1 {
            for px in 0..m * n {
                deltas.push(
                    (scan.images[z * m * n + px] - scan.images[(z + 1) * m * n + px]).abs(),
                );
            }
        }
        deltas.sort_by(f64::total_cmp);
        let cutoff = deltas[(deltas.len() as f64 * cutoff_fraction) as usize];

        let mut dense_cfg = ReconstructionConfig::new(-1500.0, 1500.0, 50);
        dense_cfg.intensity_cutoff = cutoff;
        let view = ScanView::new(&scan.images, p, m, n).unwrap();
        let reference = cpu::reconstruct_seq(&view, &scan.geometry, &dense_cfg).unwrap();

        for mode in [CompactionMode::Auto, CompactionMode::On] {
            let mut cfg = dense_cfg.clone();
            cfg.compaction = mode;

            let seq = cpu::reconstruct_seq(&view, &scan.geometry, &cfg).unwrap();
            prop_assert_eq!(&seq.image.data, &reference.image.data);

            let thr = cpu::reconstruct_threaded(&view, &scan.geometry, &cfg, 2).unwrap();
            prop_assert_eq!(&thr.image.data, &reference.image.data);

            for triangulation in [Triangulation::InKernel, Triangulation::HostTables] {
                let device = Device::new(DeviceProps::tiny(8 * 1024 * 1024));
                let mut source =
                    InMemorySlabSource::new(scan.images.clone(), p, m, n).unwrap();
                let out = gpu::reconstruct_with_options(
                    &device,
                    &mut source,
                    &scan.geometry,
                    &cfg,
                    GpuOptions { layout: Layout::Flat1d, triangulation },
                )
                .unwrap();
                prop_assert_eq!(&out.image.data, &reference.image.data);
            }

            let devices: Vec<Device> = (0..s.n_dev)
                .map(|_| Device::new(DeviceProps::tiny(8 * 1024 * 1024)))
                .collect();
            let refs: Vec<&Device> = devices.iter().collect();
            let mut source =
                InMemorySlabSource::new(scan.images.clone(), p, m, n).unwrap();
            let multi =
                reconstruct_multi(&refs, &mut source, &scan.geometry, &cfg, GpuOptions::default())
                    .unwrap();
            prop_assert_eq!(&multi.image.data, &reference.image.data);
        }
    }

    /// The shared-tile privatized accumulator (and the `auto` planner) are
    /// bit-identical to the paper's CAS atomic path on every engine,
    /// composed with compaction at arbitrary realised densities and with
    /// both device layouts — and differ from the atomic run in nothing but
    /// the accumulation attribution counters.
    #[test]
    fn accumulation_is_bitwise_across_engines_and_layouts(
        s in arb_scenario(),
        cutoff_fraction in 0.0..0.9f64,
    ) {
        let scan = SyntheticScanBuilder::new(s.rows, s.cols, s.steps)
            .scatterers(3)
            .noise(0.5)
            .seed(s.seed)
            .build()
            .unwrap();
        let (p, m, n) = (s.steps, s.rows, s.cols);
        let mut deltas: Vec<f64> = Vec::new();
        for z in 0..p - 1 {
            for px in 0..m * n {
                deltas.push(
                    (scan.images[z * m * n + px] - scan.images[(z + 1) * m * n + px]).abs(),
                );
            }
        }
        deltas.sort_by(f64::total_cmp);

        let mut base = ReconstructionConfig::new(-1500.0, 1500.0, 50);
        base.intensity_cutoff = deltas[(deltas.len() as f64 * cutoff_fraction) as usize];
        let view = ScanView::new(&scan.images, p, m, n).unwrap();
        let reference = cpu::reconstruct_seq(&view, &scan.geometry, &base).unwrap();

        for compaction in [CompactionMode::Off, CompactionMode::On] {
            for (layout, triangulation) in [
                (Layout::Flat1d, Triangulation::InKernel),
                (Layout::Pointer3d, Triangulation::InKernel),
                (Layout::Flat1d, Triangulation::HostTables),
            ] {
                let run = |accumulation| {
                    let mut cfg = base.clone();
                    cfg.compaction = compaction;
                    cfg.accumulation = accumulation;
                    let device = Device::new(DeviceProps::tiny(8 * 1024 * 1024));
                    let mut source =
                        InMemorySlabSource::new(scan.images.clone(), p, m, n).unwrap();
                    gpu::reconstruct_with_options(
                        &device,
                        &mut source,
                        &scan.geometry,
                        &cfg,
                        GpuOptions { layout, triangulation },
                    )
                    .unwrap()
                };
                let atomic = run(AccumulationMode::Atomic);
                prop_assert_eq!(&atomic.image.data, &reference.image.data);
                for accumulation in [AccumulationMode::Privatized, AccumulationMode::Auto] {
                    let out = run(accumulation);
                    prop_assert_eq!(
                        &out.image.data,
                        &reference.image.data,
                        "{:?}/{:?}/{:?}/{:?}",
                        accumulation,
                        compaction,
                        layout,
                        triangulation
                    );
                    // A 50-bin tile row always fits tiny's 8 KiB of shared
                    // memory, so nothing ever falls back…
                    prop_assert_eq!(out.stats.accum_fallback_pairs, 0);
                    if accumulation == AccumulationMode::Privatized {
                        // …and the explicit mode privatizes every slab. The
                        // `auto` planner is free to keep slabs atomic when
                        // the cost model prices that cheaper, so only the
                        // explicit mode pins the attribution.
                        prop_assert_eq!(out.stats.privatized_pairs, out.stats.pairs_total);
                    }
                    // Apart from the attribution nothing moves.
                    let mut neutral = out.stats;
                    neutral.privatized_pairs = 0;
                    prop_assert_eq!(neutral, atomic.stats);
                    prop_assert!(out.stats.is_consistent());
                }
            }

            // Multi-GPU banding: each band resolves its own plan; the
            // merged attribution still covers every pair.
            let mut cfg = base.clone();
            cfg.compaction = compaction;
            cfg.accumulation = AccumulationMode::Privatized;
            let devices: Vec<Device> = (0..s.n_dev)
                .map(|_| Device::new(DeviceProps::tiny(8 * 1024 * 1024)))
                .collect();
            let refs: Vec<&Device> = devices.iter().collect();
            let mut source =
                InMemorySlabSource::new(scan.images.clone(), p, m, n).unwrap();
            let multi =
                reconstruct_multi(&refs, &mut source, &scan.geometry, &cfg, GpuOptions::default())
                    .unwrap();
            prop_assert_eq!(&multi.image.data, &reference.image.data);
            prop_assert_eq!(multi.stats.privatized_pairs, multi.stats.pairs_total);
            prop_assert_eq!(multi.stats.accum_fallback_pairs, 0);
        }
    }

    /// `--plan auto` always selects a configuration that exists: rerunning
    /// the chosen plan as a fixed configuration reproduces the auto run's
    /// image bit-for-bit on arbitrary scans and densities.
    #[test]
    fn plan_auto_matches_its_chosen_fixed_config_bitwise(
        s in arb_scenario(),
        cutoff_fraction in 0.0..0.9f64,
    ) {
        let scan = SyntheticScanBuilder::new(s.rows, s.cols, s.steps)
            .scatterers(3)
            .noise(0.5)
            .seed(s.seed)
            .build()
            .unwrap();
        let (p, m, n) = (s.steps, s.rows, s.cols);
        let mut deltas: Vec<f64> = Vec::new();
        for z in 0..p - 1 {
            for px in 0..m * n {
                deltas.push(
                    (scan.images[z * m * n + px] - scan.images[(z + 1) * m * n + px]).abs(),
                );
            }
        }
        deltas.sort_by(f64::total_cmp);

        let mut cfg = ReconstructionConfig::new(-1500.0, 1500.0, 50);
        cfg.intensity_cutoff = deltas[(deltas.len() as f64 * cutoff_fraction) as usize];
        cfg.plan = PlanMode::Auto;
        // Both modes resolve per slab by cost, so the density sweep reaches
        // the culled, compacted and privatized paths; the fixed rerun below
        // inherits them.
        cfg.compaction = CompactionMode::Auto;
        cfg.accumulation = AccumulationMode::Auto;
        let mut source = InMemorySlabSource::new(scan.images.clone(), p, m, n).unwrap();
        let auto = Pipeline::default()
            .run_source(&mut source, &scan.geometry, &cfg, Engine::GpuPipelined)
            .unwrap();
        let explain = auto.plan.as_ref().expect("plan auto explain block");
        prop_assert!(explain.candidates.iter().any(|(l, _)| l == &explain.chosen));

        // The label encodes the whole plan: layout/tables/k<depth>/r<rows>.
        let parts: Vec<&str> = explain.chosen.split('/').collect();
        prop_assert_eq!(parts.len(), 4);
        let depth: usize = parts[2][1..].parse().unwrap();
        let rows: usize = parts[3][1..].parse().unwrap();
        let mut fixed = cfg.clone();
        fixed.plan = PlanMode::Fixed;
        let pins = Pins {
            rows: Some(rows),
            depth: Some(PipelineDepth(depth)),
            ..Pins::default()
        };
        let engine = match (parts[0], parts[1]) {
            ("flat1d", "inkernel") => Some(Engine::Gpu { layout: Layout::Flat1d }),
            ("ptr3d", "inkernel") => Some(Engine::Gpu { layout: Layout::Pointer3d }),
            ("flat1d", "tables") => Some(Engine::GpuTables),
            _ => None,
        };
        let mut source = InMemorySlabSource::new(scan.images.clone(), p, m, n).unwrap();
        let fixed_image = match engine {
            Some(e) => {
                Pipeline { pins, ..Pipeline::default() }
                    .run_source(&mut source, &scan.geometry, &fixed, e)
                    .unwrap()
                    .image
                    .data
            }
            None => {
                // ptr3d + host tables has no Engine shorthand; run the core
                // engine with the same options on the same device model.
                let device = Device::new(DeviceProps::tesla_m2070());
                gpu::reconstruct_pipelined(
                    &device,
                    &mut source,
                    &scan.geometry,
                    &fixed,
                    Plan::fixed(
                        1,
                        1,
                        GpuOptions {
                            layout: Layout::Pointer3d,
                            triangulation: Triangulation::HostTables,
                        },
                        PipelineDepth(depth),
                        pins,
                    ),
                    None,
                )
                .unwrap()
                .image
                .data
            }
        };
        prop_assert_eq!(&auto.image.data, &fixed_image);
    }

    /// Rebinning conserves intensity for arbitrary images and bin counts.
    #[test]
    fn rebin_conserves_mass(
        values in proptest::collection::vec(0.0..100.0f64, 24),
        new_bins in 1usize..40,
    ) {
        let cfg = ReconstructionConfig::new(-60.0, 60.0, 24);
        let mut img = DepthImage::zeroed(24, 1, 1);
        for (b, v) in values.iter().enumerate() {
            *img.at_mut(b, 0, 0) = *v;
        }
        let (out, new_cfg) = laue::core::post::rebin(&img, &cfg, new_bins);
        let total: f64 = values.iter().sum();
        prop_assert!((out.total_intensity() - total).abs() <= 1e-9 * (1.0 + total));
        prop_assert_eq!(out.n_bins, new_bins);
        prop_assert_eq!(new_cfg.n_depth_bins, new_bins);
        // Round-tripping back to the original axis also conserves.
        let (back, _) = laue::core::post::rebin(&out, &new_cfg, 24);
        prop_assert!((back.total_intensity() - total).abs() <= 1e-9 * (1.0 + total));
    }

    /// Wire calibration recovers random scan-direction shifts from clean
    /// transition observations.
    #[test]
    fn calibration_recovers_random_shifts(shift in -25.0..25.0f64) {
        use laue::core::calibrate::{calibrate_wire_origin, transitions_from_stack};
        let nominal = ScanGeometry::demo(6, 6, 40, -70.0, 4.0).unwrap();
        let step_dir = nominal.wire.step.normalized().unwrap();
        let true_geom = ScanGeometry {
            beam: nominal.beam,
            wire: WireGeometry::new(
                nominal.wire.axis,
                nominal.wire.radius,
                nominal.wire.origin + step_dir * shift,
                nominal.wire.step,
                nominal.wire.n_steps,
            )
            .unwrap(),
            detector: nominal.detector.clone(),
        };
        // Sources at mid-sweep of a few pixels, rendered with the TRUE wire.
        let mapper_nom = nominal.mapper().unwrap();
        let mapper_true = true_geom.mapper().unwrap();
        let mut pixels = Vec::new();
        for &(r, c) in &[(1usize, 1usize), (4, 4), (2, 5)] {
            let (lo, hi) =
                laue::core::planning::sweep_window(&nominal, &mapper_nom, r, c).unwrap();
            pixels.push((r, c, (lo + hi) / 2.0));
        }
        let (p, m, n) = (40, 6, 6);
        let mut stack = vec![5.0f64; p * m * n];
        for &(r, c, d) in &pixels {
            let px = true_geom.detector.pixel_to_xyz(r, c).unwrap();
            for z in 0..p {
                if !mapper_true.occludes(d, px, true_geom.wire.center(z).unwrap()) {
                    stack[(z * m + r) * n + c] += 300.0;
                }
            }
        }
        let view = ScanView::new(&stack, p, m, n).unwrap();
        let obs = transitions_from_stack(&view, &pixels);
        prop_assume!(obs.len() == pixels.len()); // shift must keep all transitions in-scan
        let cal = calibrate_wire_origin(&nominal, &obs, 40.0, 6).unwrap();
        // Observed steps quantise to ±0.5 step ⇒ ±2 µm of wire travel.
        prop_assert!(
            (cal.offset_along_scan - shift).abs() <= 2.5,
            "fitted {} vs true {shift}",
            cal.offset_along_scan
        );
    }

    /// Under an arbitrary silent-corruption schedule, a checking run
    /// either completes bit-identical to the fault-free reference or
    /// aborts with a detected integrity violation — never a silent
    /// mismatch. And a fault that actually fired is always detected:
    /// checked transfers catch the flips in flight, the ABFT depth-sum
    /// check (exact in the default sequential exec mode) catches the
    /// kernel flip, and the watchdog catches the stall.
    #[test]
    fn integrity_never_admits_a_silent_mismatch(
        s in arb_scenario(),
        c in arb_corruption(),
    ) {
        let scan = SyntheticScanBuilder::new(s.rows, s.cols, s.steps)
            .scatterers(3)
            .noise(0.5)
            .seed(s.seed)
            .build()
            .unwrap();
        let mut cfg = ReconstructionConfig::new(-1500.0, 1500.0, 50);
        // Several slabs per run, so the scheduled ordinals have launches
        // and transfers to land on.
        let pins = Pins { rows: Some(2), ..Pins::default() };
        cfg.compaction = c.compaction;
        cfg.accumulation = c.accumulation;
        let engine = if c.fleet {
            Engine::GpuMulti { devices: 2 }
        } else {
            Engine::GpuPipelined
        };

        let mut source =
            InMemorySlabSource::new(scan.images.clone(), s.steps, s.rows, s.cols).unwrap();
        let reference = Pipeline { pins, ..Pipeline::default() }
            .run_source(&mut source, &scan.geometry, &cfg, engine)
            .unwrap();

        cfg.integrity = if c.scrub { IntegrityMode::Scrub } else { IntegrityMode::Verify };
        let p = Pipeline {
            fault_plan: Some(c.fault_plan()),
            pins,
            ..Pipeline::default()
        };
        let mut source =
            InMemorySlabSource::new(scan.images.clone(), s.steps, s.rows, s.cols).unwrap();
        match p.run_source(&mut source, &scan.geometry, &cfg, engine) {
            Ok(r) => {
                // The one forbidden outcome is completing with different
                // data — everything below is bitwise.
                prop_assert_eq!(&r.image.data, &reference.image.data, "silent mismatch: {:?}", c);
                let silent = r.faults_injected.map_or(0, |f| f.total_silent());
                if silent > 0 {
                    prop_assert!(
                        r.integrity.corruptions_detected > 0,
                        "{silent} silent fault(s) fired undetected: {:?}",
                        c
                    );
                }
                prop_assert_eq!(
                    r.integrity.corruptions_corrected,
                    r.integrity.corruptions_detected
                );
            }
            Err(e) => {
                // Only verify is allowed to abort, and only on a
                // *detected* violation; scrub must always repair.
                let msg = e.to_string();
                prop_assert!(!c.scrub, "scrub failed to repair: {msg} ({:?})", c);
                prop_assert!(msg.contains("integrity"), "undiagnosed abort: {msg} ({:?})", c);
            }
        }
    }

    /// The planner always produces a runnable scan that covers its target
    /// whenever it claims success.
    #[test]
    fn planner_delivers_what_it_promises(
        lo in -60.0..40.0f64,
        len in 10.0..60.0f64,
        res in 1.0..8.0f64,
    ) {
        let base = ScanGeometry::demo(9, 9, 16, -40.0, 8.0).unwrap();
        match plan_scan(&base, lo, lo + len, res) {
            Err(_) => {} // out of the valid window — allowed
            Ok(plan) => {
                prop_assert!(plan.resolution <= res + 1e-6);
                prop_assert!(plan.sweep.0 <= lo + 1e-6);
                prop_assert!(plan.sweep.1 >= lo + len - 1e-6);
                // Runnable geometry.
                let g = ScanGeometry {
                    beam: base.beam,
                    wire: plan.wire.clone(),
                    detector: base.detector.clone(),
                };
                prop_assert!(g.mapper().is_ok());
                prop_assert!(plan.wire.n_steps >= 2);
            }
        }
    }
}
