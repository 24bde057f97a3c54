//! Checkpoint / resume / failover end-to-end: a journalled run killed at
//! any slab boundary resumes bit-identically; a multi-GPU fleet that loses
//! a device mid-run finishes on the survivors without touching the CPU;
//! and the CPU fallback salvages every GPU-committed slab instead of
//! recomputing the whole frame.

use laue::pipeline::cli;
use laue::prelude::*;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("laue_resume_{}_{name}", std::process::id()))
}

fn write_demo_scan(name: &str) -> PathBuf {
    let scan = SyntheticScanBuilder::new(12, 10, 14)
        .scatterers(6)
        .background(15.0)
        .seed(11)
        .build()
        .unwrap();
    let path = tmp(name).with_extension("mh5");
    write_scan(&path, &scan.geometry, &scan.images, Some(&scan.truth), 3).unwrap();
    path
}

/// 12 rows in 2-row slabs: six slab boundaries to kill at.
fn cfg() -> ReconstructionConfig {
    let mut cfg = ReconstructionConfig::new(-1600.0, 1600.0, 200);
    cfg.rows_per_slab = Some(2);
    cfg
}

/// The serial engine commits each slab before launching the next, so
/// `fail_after_launches(i)` leaves exactly `i` slabs in the journal.
const GPU: Engine = Engine::Gpu {
    layout: Layout::Flat1d,
};

#[test]
fn resume_is_bit_identical_at_every_slab_boundary() {
    let path = write_demo_scan("boundary");
    let cfg = cfg();
    let baseline = Pipeline::default().run_scan_file(&path, &cfg, GPU).unwrap();
    assert_eq!(baseline.n_slabs, 6);

    let jdir = tmp("boundary_jrn");
    for boundary in 0..baseline.n_slabs {
        let _ = std::fs::remove_dir_all(&jdir);

        // Kill the device at this slab boundary; the abort policy surfaces
        // the loss and the journal keeps everything committed so far.
        let dying = Pipeline {
            fault_plan: Some(FaultPlan::new(0).fail_after_launches(boundary as u64)),
            journal_dir: Some(jdir.clone()),
            ..Pipeline::default()
        };
        let err = dying.run_scan_file(&path, &cfg, GPU).unwrap_err();
        assert!(err.to_string().contains("device lost"), "{err}");
        assert_eq!(std::fs::read_dir(&jdir).unwrap().count(), 1);

        // A fresh process with --resume replays the journal and recomputes
        // only the tail — bit-identical to the uninterrupted run.
        let resumed = Pipeline {
            journal_dir: Some(jdir.clone()),
            resume: true,
            ..Pipeline::default()
        };
        let r = resumed.run_scan_file(&path, &cfg, GPU).unwrap();
        assert_eq!(r.image.data, baseline.image.data, "boundary {boundary}");
        assert_eq!(r.stats, baseline.stats, "boundary {boundary}");
        match r.recovery.resume.as_ref() {
            Some(info) => assert_eq!(info.slabs_replayed, boundary),
            None => assert_eq!(boundary, 0, "non-empty journals record provenance"),
        }
        // The completed run retires its journal: resuming is idempotent.
        assert_eq!(std::fs::read_dir(&jdir).unwrap().count(), 0);
    }

    std::fs::remove_dir_all(&jdir).ok();
    std::fs::remove_file(&path).ok();
}

/// The serve-layer preemption contract, exercised at its foundation: a
/// quantum-bounded run stopped at *every* slab boundary carries its
/// [`SlabProgress`] checkpoint to a different device on a **different
/// chassis** (fresh PCIe bus, fresh host CPU) and finishes bit-identical
/// to an uninterrupted single-device run. Migration is resume; if the
/// checkpoint were device- or chassis-flavored in any way, this catches it.
#[test]
fn preemption_resumes_on_a_foreign_chassis_at_every_slab_boundary() {
    let scan = SyntheticScanBuilder::new(12, 10, 14)
        .scatterers(6)
        .background(15.0)
        .seed(11)
        .build()
        .unwrap();
    let cfg = cfg();
    let source = || InMemorySlabSource::new(scan.images.clone(), 14, 12, 10).unwrap();

    let baseline = gpu::reconstruct_with_options(
        &Device::new(DeviceProps::tesla_m2070()),
        &mut source(),
        &scan.geometry,
        &cfg,
        GpuOptions::default(),
    )
    .unwrap();
    // A paused checkpoint holds exactly the baseline's first `rows` rows,
    // bit for bit, and zeros below them.
    let holds_rows = |image: &DepthImage, rows: usize| {
        (0..cfg.n_depth_bins).all(|b| {
            (0..12).all(|r| {
                (0..10).all(|c| {
                    let want = if r < rows {
                        baseline.image.at(b, r, c)
                    } else {
                        0.0
                    };
                    image.at(b, r, c).to_bits() == want.to_bits()
                })
            })
        })
    };

    // Preempt after `boundary` committed slabs (2 rows each), resume the
    // tail on a device that shares nothing with the first.
    for boundary in 1..6 {
        let mut progress = SlabProgress::new(cfg.n_depth_bins, 12, 10);
        let chassis_a = laue::sim::Host::new_default();
        let dev_a = Device::new_on_host(DeviceProps::tesla_m2070(), &chassis_a);
        let (paused, complete) = gpu::reconstruct_checkpointed_bounded(
            &dev_a,
            &mut source(),
            &scan.geometry,
            &cfg,
            GpuOptions::default(),
            PipelineDepth::default(),
            None,
            &mut progress,
            None,
            2 * boundary,
        )
        .unwrap();
        assert!(!complete, "boundary {boundary} must leave a tail");
        assert_eq!(progress.committed_rows(), 2 * boundary);
        // The partial image stays in the checkpoint; the paused quantum
        // hands back none of it.
        assert!(paused.image.data.is_empty(), "boundary {boundary}");
        assert!(
            holds_rows(&progress.image, 2 * boundary),
            "boundary {boundary}"
        );

        let chassis_b = laue::sim::Host::new_default();
        let dev_b = Device::new_on_host(DeviceProps::tesla_m2070(), &chassis_b);
        let (out, complete) = gpu::reconstruct_checkpointed_bounded(
            &dev_b,
            &mut source(),
            &scan.geometry,
            &cfg,
            GpuOptions::default(),
            PipelineDepth::default(),
            None,
            &mut progress,
            None,
            usize::MAX,
        )
        .unwrap();
        assert!(complete, "boundary {boundary} tail must finish");
        assert_eq!(
            out.image.data, baseline.image.data,
            "migrated resume at boundary {boundary} changed the bits"
        );
        assert_eq!(out.stats, baseline.stats, "boundary {boundary} stats");
        // The completing call moved the image out of the checkpoint.
        assert!(progress.image.data.is_empty());
    }

    // The worst case: a new device on a new chassis for every quantum —
    // the job tours six machines and still lands on the same bits.
    let mut progress = SlabProgress::new(cfg.n_depth_bins, 12, 10);
    let mut last = None;
    for hop in 0..6 {
        let chassis = laue::sim::Host::new_default();
        let dev = Device::new_on_host(DeviceProps::tesla_m2070(), &chassis);
        let (out, complete) = gpu::reconstruct_checkpointed_bounded(
            &dev,
            &mut source(),
            &scan.geometry,
            &cfg,
            GpuOptions::default(),
            PipelineDepth::default(),
            None,
            &mut progress,
            None,
            2,
        )
        .unwrap();
        assert_eq!(complete, hop == 5, "six 2-row quanta cover 12 rows");
        if !complete {
            assert!(out.image.data.is_empty(), "hop {hop}");
            assert!(holds_rows(&progress.image, 2 * (hop + 1)), "hop {hop}");
        }
        last = Some(out);
    }
    let toured = last.unwrap();
    assert_eq!(toured.image.data, baseline.image.data);
    assert_eq!(toured.stats, baseline.stats);
}

#[test]
fn fleet_losing_any_one_device_completes_on_survivors() {
    let path = write_demo_scan("failover");
    let cfg = cfg();
    let fleet = Engine::GpuMulti { devices: 4 };
    let clean = Pipeline::default()
        .run_scan_file(&path, &cfg, fleet)
        .unwrap();
    assert_eq!(clean.engine, "gpu-multi(4)");
    assert_eq!(clean.recovery.devices_lost, 0);

    for victim in 0..4 {
        let p = Pipeline {
            fault_plan: Some(FaultPlan::new(0).fail_after_launches(1)),
            fault_device: Some(victim),
            ..Pipeline::default()
        };
        let r = p.run_scan_file(&path, &cfg, fleet).unwrap();
        assert_eq!(r.recovery.devices_lost, 1, "victim {victim}");
        assert!(
            r.fallback.is_none(),
            "survivors absorb the rows, no CPU fallback (victim {victim})"
        );
        assert_eq!(r.recovery.recomputed_slabs, 0, "victim {victim}");
        assert_eq!(r.image.data, clean.image.data, "victim {victim}");
        assert_eq!(r.stats, clean.stats, "victim {victim}");
        assert!(r.summary().contains("device(s) lost"), "{}", r.summary());
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn losing_every_device_salvages_committed_slabs_on_the_cpu() {
    let path = write_demo_scan("all_dead");
    // Force the serial ring so each device commits its first slab before
    // the fatal second launch (the default 3-deep ring would lose the
    // in-flight slab with the device).
    let cfg = cfg();
    let cpu = Pipeline::default()
        .run_scan_file(&path, &cfg, Engine::Cpu { threads: 1 })
        .unwrap();

    let p = Pipeline {
        fault_plan: Some(FaultPlan::new(0).fail_after_launches(1)),
        on_gpu_failure: GpuFailurePolicy::FallbackCpu,
        pipeline_depth: Some(1),
        ..Pipeline::default()
    };
    let r = p
        .run_scan_file(&path, &cfg, Engine::GpuMulti { devices: 4 })
        .unwrap();
    assert_eq!(r.recovery.devices_lost, 4);
    assert!(
        r.recovery.salvaged_slabs >= 1,
        "each device committed a slab before dying: {:?}",
        r.recovery
    );
    assert!(r.recovery.recomputed_slabs >= 1, "{:?}", r.recovery);
    assert!(r.fallback.as_deref().unwrap().contains("gpu-multi(4)"));
    assert_eq!(r.image.data, cpu.image.data);
    assert_eq!(r.stats, cpu.stats);
    assert!(r.summary().contains("DEGRADED"), "{}", r.summary());
    assert!(r.summary().contains("salvage:"), "{}", r.summary());

    std::fs::remove_file(&path).ok();
}

#[test]
fn interrupted_fleet_run_resumes_on_a_healthy_fleet() {
    let path = write_demo_scan("fleet_resume");
    let cfg = cfg();
    let serial = Pipeline {
        pipeline_depth: Some(1),
        ..Pipeline::default()
    };
    let fleet = Engine::GpuMulti { devices: 4 };
    let baseline = serial.run_scan_file(&path, &cfg, fleet).unwrap();

    let jdir = tmp("fleet_jrn");
    let _ = std::fs::remove_dir_all(&jdir);
    let dying = Pipeline {
        fault_plan: Some(FaultPlan::new(0).fail_after_launches(1)),
        journal_dir: Some(jdir.clone()),
        ..serial.clone()
    };
    assert!(dying.run_scan_file(&path, &cfg, fleet).is_err());

    let resumed = Pipeline {
        journal_dir: Some(jdir.clone()),
        resume: true,
        ..serial
    };
    let r = resumed.run_scan_file(&path, &cfg, fleet).unwrap();
    assert_eq!(r.image.data, baseline.image.data);
    assert_eq!(r.stats, baseline.stats);
    let info = r.recovery.resume.as_ref().expect("resume provenance");
    assert!(info.slabs_replayed >= 1);
    assert_eq!(std::fs::read_dir(&jdir).unwrap().count(), 0);

    std::fs::remove_dir_all(&jdir).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn journal_of_a_different_run_is_ignored() {
    let path = write_demo_scan("keyed");
    let jdir = tmp("keyed_jrn");
    let _ = std::fs::remove_dir_all(&jdir);
    let cfg = cfg();

    // Interrupt a 200-bin run...
    let dying = Pipeline {
        fault_plan: Some(FaultPlan::new(0).fail_after_launches(3)),
        journal_dir: Some(jdir.clone()),
        ..Pipeline::default()
    };
    assert!(dying
        .run_scan_file(&path, &cfg, GPU)
        .unwrap_err() // journal stays
        .to_string()
        .contains("device lost"));

    // ...then resume with a different config: the key differs, so nothing
    // is replayed and the run is a correct fresh start.
    let mut other = cfg.clone();
    other.n_depth_bins = 150;
    let fresh = Pipeline::default()
        .run_scan_file(&path, &other, GPU)
        .unwrap();
    let resumed = Pipeline {
        journal_dir: Some(jdir.clone()),
        resume: true,
        ..Pipeline::default()
    };
    let r = resumed.run_scan_file(&path, &other, GPU).unwrap();
    assert!(
        r.recovery.resume.is_none(),
        "mismatched key must not replay"
    );
    assert_eq!(r.image.data, fresh.image.data);
    // The 200-bin journal is still there for its own resume.
    assert_eq!(std::fs::read_dir(&jdir).unwrap().count(), 1);

    std::fs::remove_dir_all(&jdir).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn cli_checkpoint_resume_round_trip() {
    let scan_path = write_demo_scan("cli");
    let scan_s = scan_path.to_string_lossy().to_string();
    let jdir = tmp("cli_jrn");
    let _ = std::fs::remove_dir_all(&jdir);
    let jdir_s = jdir.to_string_lossy().to_string();
    let sv = |args: &[&str]| -> Vec<String> { args.iter().map(|s| s.to_string()).collect() };
    let base = [
        "reconstruct",
        "--input",
        &scan_s,
        "--engine",
        "gpu-1d",
        "--bins",
        "200",
        "--rows-per-slab",
        "2",
        "--journal-dir",
        &jdir_s,
    ];

    // Interrupted run: scripted device death, default abort policy.
    let mut argv = sv(&base);
    argv.extend(sv(&["--inject-gpu-fault", "dead-after-launches=2"]));
    let cmd = cli::parse(&argv).unwrap();
    assert!(cli::run(&cmd, &mut Vec::new()).is_err());
    assert_eq!(std::fs::read_dir(&jdir).unwrap().count(), 1);

    // `--resume` finishes the job and says where it picked up.
    let mut argv = sv(&base);
    argv.push("--resume".into());
    let cmd = cli::parse(&argv).unwrap();
    let mut buf = Vec::new();
    cli::run(&cmd, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("resumed from journal"), "{text}");
    assert!(text.contains("2 slab(s) replayed"), "{text}");
    assert_eq!(std::fs::read_dir(&jdir).unwrap().count(), 0);

    // `--resume` without `--journal-dir` is rejected at parse time.
    let err = cli::parse(&sv(&["reconstruct", "--input", &scan_s, "--resume"])).unwrap_err();
    assert!(err.contains("--journal-dir"), "{err}");

    // The fleet engine parses and runs from the CLI too.
    let cmd = cli::parse(&sv(&[
        "reconstruct",
        "--input",
        &scan_s,
        "--engine",
        "gpu-multi:3",
        "--bins",
        "200",
    ]))
    .unwrap();
    let mut buf = Vec::new();
    cli::run(&cmd, &mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("gpu-multi(3)"), "{text}");
    assert!(cli::parse(&sv(&[
        "reconstruct",
        "--input",
        &scan_s,
        "--engine",
        "gpu-multi:0"
    ]))
    .is_err());

    std::fs::remove_dir_all(&jdir).ok();
    std::fs::remove_file(&scan_path).ok();
}
