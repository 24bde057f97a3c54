//! The paper's evaluation claims, asserted as tests: the *shapes* of
//! Fig 4, Fig 8 and Fig 9, and the §IV headline speedup, must hold in the
//! calibrated virtual-time model.

use laue::prelude::*;

fn scan(rows: usize, cols: usize, steps: usize, seed: u64) -> SyntheticScan {
    SyntheticScanBuilder::new(rows, cols, steps)
        .scatterers(rows * cols / 8)
        .noise(1.0) // noise makes every differential non-zero → 100 % active
        .background(20.0)
        .seed(seed)
        .build()
        .unwrap()
}

fn run(scan: &SyntheticScan, cfg: &ReconstructionConfig, engine: Engine) -> RunReport {
    let mut source = InMemorySlabSource::new(
        scan.images.clone(),
        scan.geometry.wire.n_steps,
        scan.geometry.detector.n_rows,
        scan.geometry.detector.n_cols,
    )
    .unwrap();
    Pipeline::default()
        .run_source(&mut source, &scan.geometry, cfg, engine)
        .unwrap()
}

fn cfg() -> ReconstructionConfig {
    ReconstructionConfig::new(-2500.0, 2500.0, 200)
}

/// Fig 4: the 1-D flat layout beats the 3-D pointer-table layout, because
/// the pointer design ships more transfers over PCIe.
#[test]
fn fig4_flat_layout_beats_pointer_layout() {
    let s = scan(32, 32, 24, 11);
    let flat = run(
        &s,
        &cfg(),
        Engine::Gpu {
            layout: Layout::Flat1d,
        },
    );
    let ptr = run(
        &s,
        &cfg(),
        Engine::Gpu {
            layout: Layout::Pointer3d,
        },
    );
    assert_eq!(flat.image.data, ptr.image.data);
    assert!(ptr.transfers > flat.transfers);
    assert!(
        ptr.total_time_s > flat.total_time_s,
        "1D {:.6}s must beat 3D {:.6}s",
        flat.total_time_s,
        ptr.total_time_s
    );
    // And compute time is identical up to index arithmetic — the gap is
    // communication, as §III-B argues.
    assert!(ptr.comm_time_s > flat.comm_time_s);
}

/// Fig 8 + §IV headline: at realistic scale the GPU runs in a fraction of
/// the CPU time (paper: 25–30 %), and the GPU curve is much flatter as the
/// data grows.
#[test]
fn fig8_speedup_and_scalability_shape() {
    let sizes = [(24usize, 24usize), (32, 32), (40, 40), (48, 48)];
    let mut cpu_times = Vec::new();
    let mut gpu_times = Vec::new();
    for (i, &(r, c)) in sizes.iter().enumerate() {
        let s = scan(r, c, 24, 20 + i as u64);
        let cpu = run(&s, &cfg(), Engine::CpuSeq);
        let gpu = run(
            &s,
            &cfg(),
            Engine::Gpu {
                layout: Layout::Flat1d,
            },
        );
        assert_eq!(cpu.image.data, gpu.image.data);
        cpu_times.push(cpu.total_time_s);
        gpu_times.push(gpu.total_time_s);
    }
    // Headline, directionally: GPU clearly wins at the largest size. (These
    // integration-test stacks are small and transfer-heavy; the calibrated
    // 25–30 % number is reproduced by `laue-bench --bin fig8_datasize` on
    // the full-scale workloads.)
    let ratio = gpu_times[3] / cpu_times[3];
    assert!(ratio < 0.7, "GPU/CPU ratio {ratio} too high");
    assert!(ratio > 0.02, "ratio {ratio} implausibly low for this model");
    // Scalability: CPU grows much faster than GPU across the sweep.
    let cpu_growth = cpu_times[3] / cpu_times[0];
    let gpu_growth = gpu_times[3] / gpu_times[0];
    assert!(
        gpu_growth < cpu_growth,
        "GPU must scale flatter: gpu ×{gpu_growth:.2} vs cpu ×{cpu_growth:.2}"
    );
}

/// Fig 9: sweeping the pixel percentage (via the intensity cutoff), the GPU
/// wins at every level and the margin grows with the active fraction.
#[test]
fn fig9_pixel_percentage_shape() {
    let s = scan(40, 40, 24, 31);
    // Derive cutoffs that land near 100 %, ~50 %, ~25 % active pairs: since
    // noise ~ N(0, σ·√v), percentiles of |ΔI| give the cutoffs. Estimate
    // from the data.
    let mut deltas: Vec<f64> = Vec::new();
    let (p, m, n) = (24, 40, 40);
    for z in 0..p - 1 {
        for px in 0..m * n {
            deltas.push((s.images[z * m * n + px] - s.images[(z + 1) * m * n + px]).abs());
        }
    }
    deltas.sort_by(f64::total_cmp);
    let q = |f: f64| deltas[(deltas.len() as f64 * f) as usize];
    let cutoffs = [0.0, q(0.5), q(0.75)];

    let mut fractions = Vec::new();
    let mut ratios = Vec::new();
    for &cut in &cutoffs {
        let mut c = cfg();
        c.intensity_cutoff = cut;
        let cpu = run(&s, &c, Engine::CpuSeq);
        let gpu = run(
            &s,
            &c,
            Engine::Gpu {
                layout: Layout::Flat1d,
            },
        );
        fractions.push(gpu.stats.active_fraction());
        ratios.push(gpu.total_time_s / cpu.total_time_s);
    }
    // At full load the GPU must win. (At low percentages the crossover is
    // scale-dependent: this integration-test stack is small and
    // transfer-heavy; the paper-scale sweep where the GPU wins at every
    // percentage is reproduced by `laue-bench --bin fig9_pixel_percentage`.)
    assert!(
        ratios[0] < 1.0,
        "GPU must win at 100 % active: ratio {}",
        ratios[0]
    );
    // The active fractions really do sweep downward.
    assert!(
        fractions[0] > 0.95,
        "no cutoff → ~100 % active, got {}",
        fractions[0]
    );
    assert!(fractions[1] < 0.6 && fractions[1] > 0.3);
    assert!(fractions[2] < 0.35);
    // The paper: "the more pixels we handle, the better performance we can
    // get" — the GPU's advantage (1/ratio) grows with the active fraction.
    assert!(
        ratios[0] < ratios[2],
        "GPU margin must grow with pixel percentage: ratios {ratios:?}"
    );
}

/// Fig 9, compaction corollary: with the sparsity pass on, the modeled GPU
/// kernel time is ≈ linear in the active-pixel fraction — the prescan is a
/// constant density-independent term and the compacted main launch does
/// work proportional to the surviving pairs. And at the paper's sparsest
/// operating point (~25 % active) the compacted engine, prescan cost
/// included, runs the kernels in at most half the dense time.
#[test]
fn fig9_compaction_scales_linearly_with_active_fraction() {
    let s = scan(96, 96, 32, 61);
    let mut deltas: Vec<f64> = Vec::new();
    let (p, m, n) = (32, 96, 96);
    for z in 0..p - 1 {
        for px in 0..m * n {
            deltas.push((s.images[z * m * n + px] - s.images[(z + 1) * m * n + px]).abs());
        }
    }
    deltas.sort_by(f64::total_cmp);
    let q = |f: f64| deltas[(deltas.len() as f64 * f) as usize];

    // Sweep ~25 / 50 / 100 % active under both traversals.
    let mut fractions = Vec::new();
    let mut compact_times = Vec::new();
    let mut dense_times = Vec::new();
    for cut in [q(0.75), q(0.5), 0.0] {
        let mut c = cfg();
        c.intensity_cutoff = cut;
        c.compaction = CompactionMode::On;
        let compact = run(
            &s,
            &c,
            Engine::Gpu {
                layout: Layout::Flat1d,
            },
        );
        c.compaction = CompactionMode::Off;
        let dense = run(
            &s,
            &c,
            Engine::Gpu {
                layout: Layout::Flat1d,
            },
        );
        assert_eq!(
            compact.image.data, dense.image.data,
            "compaction must be bit-identical at every density"
        );
        fractions.push(dense.stats.active_fraction());
        compact_times.push(compact.compute_time_s);
        dense_times.push(dense.compute_time_s);
    }

    // Acceptance: at ~25 % active the compacted kernels (prescan included)
    // take at most half the dense kernel time.
    assert!(fractions[0] < 0.35, "sparsest point at {}", fractions[0]);
    assert!(
        compact_times[0] <= 0.5 * dense_times[0],
        "compact {:.6}s must be ≤ half of dense {:.6}s at {:.0} % active",
        compact_times[0],
        dense_times[0],
        100.0 * fractions[0]
    );

    // Linearity: the secant slopes of t(fraction) agree. A constant offset
    // (prescan + launch overhead) plus a term ∝ active pairs is exactly
    // what the compacted cost model promises.
    let slope01 = (compact_times[1] - compact_times[0]) / (fractions[1] - fractions[0]);
    let slope12 = (compact_times[2] - compact_times[1]) / (fractions[2] - fractions[1]);
    assert!(
        slope01 > 0.0 && slope12 > 0.0,
        "compact time must grow with density: slopes {slope01:.3e}, {slope12:.3e}"
    );
    let skew = slope01 / slope12;
    assert!(
        (0.6..=1.4).contains(&skew),
        "t(active fraction) must be ≈ linear: secant slopes {slope01:.3e} vs \
         {slope12:.3e} (skew {skew:.2})"
    );
}

/// The overlap ablation: a deeper pipeline ring shortens the makespan
/// whenever there are several slabs in flight.
#[test]
fn overlap_ablation_shortens_makespan() {
    let s = scan(32, 32, 16, 41);
    let mut c = cfg();
    c.rows_per_slab = Some(4); // 8 slabs
    let serial = run(
        &s,
        &c,
        Engine::Gpu {
            layout: Layout::Flat1d,
        },
    );
    let overlapped = run(&s, &c, Engine::GpuPipelined);
    assert_eq!(overlapped.pipeline_depth, 3);
    assert_eq!(serial.image.data, overlapped.image.data);
    assert!(
        overlapped.total_time_s < serial.total_time_s,
        "overlap {:.6}s must beat serial {:.6}s",
        overlapped.total_time_s,
        serial.total_time_s
    );
    // Lower bound: kernels all share the compute stream, so the makespan
    // can never beat the total kernel time. (Total comm is *not* a bound:
    // H2D and D2H ride different streams, like full-duplex PCIe.)
    assert!(overlapped.total_time_s >= overlapped.compute_time_s - 1e-12);
}

/// The f64 atomicAdd is exact: the GPU engine's image equals the CPU's bit
/// for bit whether each launch runs on one host worker or on many.
#[test]
fn atomic_accumulation_is_exact_under_threading() {
    let s = scan(24, 24, 16, 51);
    let c = cfg();
    let view = ScanView::new(&s.images, 16, 24, 24).unwrap();
    let cpu = cpu::reconstruct_seq(&view, &s.geometry, &c).unwrap();
    let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    for workers in [1, 4] {
        let device = Device::new(DeviceProps::tesla_m2070());
        device.force_workers(workers);
        let mut source = InMemorySlabSource::new(s.images.clone(), 16, 24, 24).unwrap();
        let gpu = gpu::reconstruct(&device, &mut source, &s.geometry, &c, Layout::Flat1d).unwrap();
        assert_eq!(
            bits(&cpu.image.data),
            bits(&gpu.image.data),
            "{workers} workers"
        );
        assert_eq!(cpu.stats, gpu.stats);
    }
}

/// §III-C follow-on: on the paper's Tesla M2070 a fig9-style fully-active
/// stack is accumulation-bound — Fermi emulates every f64 atomicAdd with a
/// CAS loop — so staging deposits in shared-memory privatized tiles and
/// committing one global add per touched (pixel, bin) cell cuts the modeled
/// kernel time to well under 60 % of the atomic path, while staying
/// bit-identical.
#[test]
fn privatized_accumulation_cuts_cas_kernel_time_on_m2070() {
    let s = scan(32, 32, 64, 71);
    let c = ReconstructionConfig::new(-4000.0, 4000.0, 200);
    let atomic = run(
        &s,
        &c,
        Engine::Gpu {
            layout: Layout::Flat1d,
        },
    );
    let mut cp = c.clone();
    cp.accumulation = AccumulationMode::Privatized;
    let privatized = run(
        &s,
        &cp,
        Engine::Gpu {
            layout: Layout::Flat1d,
        },
    );

    // Exactness is free: the deterministic reduction commits the same sums.
    assert_eq!(atomic.image.data, privatized.image.data);
    // A 200-bin tile row fits the M2070's 48 KiB of shared memory, so every
    // slab privatizes and the report says so.
    assert!(!privatized.slab_privatized.is_empty());
    assert!(privatized.slab_privatized.iter().all(|&p| p));
    assert_eq!(
        privatized.stats.privatized_pairs,
        privatized.stats.pairs_total
    );
    assert_eq!(privatized.stats.accum_fallback_pairs, 0);
    assert!(atomic.slab_privatized.is_empty());

    let ratio = privatized.compute_time_s / atomic.compute_time_s;
    assert!(
        ratio <= 0.60,
        "privatized kernel {:.6}s must be ≤ 60 % of atomic {:.6}s (ratio {ratio:.3})",
        privatized.compute_time_s,
        atomic.compute_time_s
    );
    assert!(
        ratio > 0.05,
        "ratio {ratio:.3} implausibly low — shared-tile traffic is not free"
    );
}
