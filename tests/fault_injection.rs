//! Fault injection end-to-end: scripted device faults flow from the CLI /
//! `Pipeline` configuration through `cuda-sim` into the GPU engines, which
//! either recover in place (slab re-planning, transfer retries) or degrade
//! to the CPU engine under `GpuFailurePolicy::FallbackCpu` — and in every
//! recovered case the output matches the fault-free run.

use laue::pipeline::cli;
use laue::prelude::*;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("laue_fault_{}_{name}.mh5", std::process::id()))
}

fn write_demo_scan(name: &str) -> PathBuf {
    let scan = SyntheticScanBuilder::new(12, 10, 14)
        .scatterers(6)
        .background(15.0)
        .seed(11)
        .build()
        .unwrap();
    let path = tmp(name);
    write_scan(&path, &scan.geometry, &scan.images, Some(&scan.truth), 3).unwrap();
    path
}

fn cfg() -> ReconstructionConfig {
    ReconstructionConfig::new(-1600.0, 1600.0, 200)
}

const GPU: Engine = Engine::Gpu {
    layout: Layout::Flat1d,
};

#[test]
fn oom_on_first_slab_allocation_replans_and_matches() {
    // The acceptance scenario: fail the first allocation of slab data (the
    // allocation right after the wire table) and the run must still complete
    // with output identical to the clean run.
    let path = write_demo_scan("oom");
    let clean = Pipeline::default()
        .run_scan_file(&path, &cfg(), GPU)
        .unwrap();
    assert_eq!(clean.gpu_replans, 0);

    let p = Pipeline {
        fault_plan: Some(FaultPlan::new(0).fail_nth_alloc(2)),
        ..Pipeline::default()
    };
    let r = p.run_scan_file(&path, &cfg(), GPU).unwrap();
    assert!(r.gpu_replans >= 1, "OOM must force a re-plan");
    assert!(r.fallback.is_none(), "re-planning is not a degradation");
    assert_eq!(r.image.data, clean.image.data, "recovery must be invisible");
    assert_eq!(r.stats, clean.stats);
    assert!(r.summary().contains("re-plan"), "{}", r.summary());
    std::fs::remove_file(&path).ok();
}

#[test]
fn transient_transfer_faults_retry_and_match() {
    let path = write_demo_scan("retry");
    let clean = Pipeline::default()
        .run_scan_file(&path, &cfg(), GPU)
        .unwrap();

    let p = Pipeline {
        fault_plan: Some(FaultPlan::new(42).fail_nth_h2d(2).fail_nth_d2h(1)),
        ..Pipeline::default()
    };
    let r = p.run_scan_file(&path, &cfg(), GPU).unwrap();
    assert!(
        r.gpu_transfer_retries >= 2,
        "both scripted faults must retry"
    );
    assert!(r.fallback.is_none());
    assert_eq!(r.image.data, clean.image.data);
    assert_eq!(r.stats, clean.stats);
    // Retries cost virtual bus time and backoff, never correctness.
    assert!(r.total_time_s > clean.total_time_s);
    std::fs::remove_file(&path).ok();
}

#[test]
fn dead_device_falls_back_to_cpu_within_tolerance() {
    let path = write_demo_scan("dead");
    let cfg = cfg();
    let cpu = Pipeline::default()
        .run_scan_file(&path, &cfg, Engine::Cpu { threads: 1 })
        .unwrap();

    let p = Pipeline {
        fault_plan: Some(FaultPlan::new(9).fail_after(5)),
        on_gpu_failure: GpuFailurePolicy::FallbackCpu,
        ..Pipeline::default()
    };
    let r = p.run_scan_file(&path, &cfg, GPU).unwrap();
    let note = r
        .fallback
        .as_deref()
        .expect("report records the degradation");
    assert!(
        note.contains("gpu-1d") && note.contains("cpu-seq"),
        "{note}"
    );
    assert!(r.summary().contains("DEGRADED"), "{}", r.summary());
    for (a, b) in r.image.data.iter().zip(&cpu.image.data) {
        assert!(
            (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
            "fallback output diverges: {a} vs {b}"
        );
    }
    assert_eq!(r.stats, cpu.stats);
    std::fs::remove_file(&path).ok();
}

#[test]
fn abort_policy_surfaces_the_device_loss() {
    let path = write_demo_scan("abort");
    let p = Pipeline {
        fault_plan: Some(FaultPlan::new(9).fail_after(5)),
        ..Pipeline::default() // on_gpu_failure: Abort
    };
    let err = p.run_scan_file(&path, &cfg(), GPU).unwrap_err();
    assert!(err.to_string().contains("device lost"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn capacity_lie_plans_more_slabs_but_same_answer() {
    let path = write_demo_scan("capacity");
    let clean = Pipeline::default()
        .run_scan_file(&path, &cfg(), GPU)
        .unwrap();

    // Lie that only 64 KiB are free: the planner sizes slabs to the lie up
    // front, so there is nothing to re-plan — just more, smaller slabs.
    let p = Pipeline {
        fault_plan: Some(FaultPlan::new(0).report_mem_bytes(64 * 1024)),
        ..Pipeline::default()
    };
    let r = p.run_scan_file(&path, &cfg(), GPU).unwrap();
    assert!(
        r.n_slabs > clean.n_slabs,
        "{} vs {}",
        r.n_slabs,
        clean.n_slabs
    );
    assert!(r.rows_per_slab < clean.rows_per_slab);
    assert_eq!(r.gpu_replans, 0, "planning small is not re-planning");
    assert_eq!(r.image.data, clean.image.data);
    std::fs::remove_file(&path).ok();
}

#[test]
fn fallback_runs_cpu_seq_bit_for_bit() {
    // Slabs of 5 × 64 pixels × 63 pairs launch above the executor's
    // parallel gate, so the GPU slabs ran on every host core. The device
    // dies at the second slab boundary; the salvage recomputes the rest on
    // cpu-seq, and the stitched image is the clean run's, bit for bit.
    let scan = SyntheticScanBuilder::new(20, 64, 64)
        .scatterers(6)
        .background(15.0)
        .seed(11)
        .build()
        .unwrap();
    let path = tmp("salvage_seq");
    write_scan(&path, &scan.geometry, &scan.images, Some(&scan.truth), 3).unwrap();
    let mut cfg = cfg();
    cfg.rows_per_slab = Some(5);
    const { assert!(5 * 64 * 63 >= laue::sim::exec::PARALLEL_LAUNCH_THREADS) };
    let clean = Pipeline::default().run_scan_file(&path, &cfg, GPU).unwrap();
    let p = Pipeline {
        fault_plan: Some(FaultPlan::new(1).fail_after_launches(2)),
        on_gpu_failure: GpuFailurePolicy::FallbackCpu,
        ..Pipeline::default()
    };
    let r = p.run_scan_file(&path, &cfg, GPU).unwrap();
    assert!(
        r.fallback
            .as_deref()
            .unwrap()
            .ends_with("completed on cpu-seq"),
        "{:?}",
        r.fallback
    );
    assert_eq!(r.recovery.salvaged_slabs, 2);
    let bits = |d: &[f64]| d.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&r.image.data), bits(&clean.image.data));
    assert_eq!(r.stats, clean.stats);
    std::fs::remove_file(&path).ok();
}

#[test]
fn cli_runs_the_whole_degradation_story() {
    let scan_path = write_demo_scan("cli");
    let scan_s = scan_path.to_string_lossy().to_string();
    let sv = |args: &[&str]| -> Vec<String> { args.iter().map(|s| s.to_string()).collect() };

    // Injected hard failure + abort policy → the command errors.
    let cmd = cli::parse(&sv(&[
        "reconstruct",
        "--input",
        &scan_s,
        "--engine",
        "gpu-1d",
        "--bins",
        "200",
        "--inject-gpu-fault",
        "seed=9,dead-after=5",
    ]))
    .unwrap();
    assert!(cli::run(&cmd, &mut Vec::new()).is_err());

    // Same fault with --on-gpu-failure fallback-cpu → completes, DEGRADED.
    let cmd = cli::parse(&sv(&[
        "reconstruct",
        "--input",
        &scan_s,
        "--engine",
        "gpu-1d",
        "--bins",
        "200",
        "--inject-gpu-fault",
        "seed=9,dead-after=5",
        "--on-gpu-failure",
        "fallback-cpu",
    ]))
    .unwrap();
    let mut buf = Vec::new();
    cli::run(&cmd, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("DEGRADED"), "{text}");
    assert!(text.contains("cpu-seq"), "{text}");

    // A recoverable fault needs no policy: the summary shows the recovery.
    let cmd = cli::parse(&sv(&[
        "reconstruct",
        "--input",
        &scan_s,
        "--engine",
        "gpu-1d",
        "--bins",
        "200",
        "--inject-gpu-fault",
        "alloc-nth=2,h2d-nth=3",
    ]))
    .unwrap();
    let mut buf = Vec::new();
    cli::run(&cmd, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("re-plan"), "{text}");
    assert!(text.contains("transfer retry"), "{text}");
    assert!(!text.contains("DEGRADED"), "{text}");

    std::fs::remove_file(&scan_path).ok();
}
