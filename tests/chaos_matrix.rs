//! The CI chaos matrix: every scripted *silent-corruption* schedule runs
//! end-to-end through the CLI, swept over the pipelined engines
//! (`gpu-pipe`, `gpu-multi:2`), the host-table engine (`gpu-tables`, whose
//! table the CLI's pipeline cache makes device-resident, so every spec
//! rides over the checked resident-table upload) and both checking
//! integrity modes. The invariant under test is the no-silent-mismatch
//! guarantee:
//!
//! * `--integrity scrub`  — the run must complete, report itself
//!   INTEGRITY-DEGRADED (the fault fired *and* was caught), and export an
//!   image bit-identical to the fault-free reference.
//! * `--integrity verify` — the run must either abort with a detected
//!   integrity violation or complete bit-identical. A completed run with
//!   a diverging image is the one outcome that fails the matrix.
//!
//! CI fans the specs out with `LAUE_FAULT_SPEC` and uploads the report
//! directory as an artifact.
//!
//! * `LAUE_FAULT_SPEC`  — run one named spec (unset: run all of them).
//! * `LAUE_REPORT_DIR`  — report directory (default `target/chaos-reports`).

use laue::pipeline::cli;
use laue::prelude::*;
use std::io::Write as _;
use std::path::PathBuf;

/// Name → `--inject-gpu-fault` schedule. One entry per silent-corruption
/// family the simulator can script (checked transfers catch the flips in
/// flight; ABFT catches the kernel flips; the watchdog catches the stall).
/// The persistent kernel flip corrupts every launch, retries included, so
/// scrub can only repair from the host reference.
const SPECS: &[(&str, &str)] = &[
    ("flip-h2d", "seed=5,flip-h2d-nth=2"),
    ("flip-d2h", "seed=5,flip-d2h-nth=1,flip-byte=3"),
    ("flip-kernel", "seed=5,flip-kernel-nth=1,flip-op=3"),
    (
        "flip-kernel-persistent",
        "seed=5,flip-kernel-from=1,flip-op=3",
    ),
    ("stalled-kernel", "seed=5,stall-nth=1,stall-s=5.0"),
];

const ENGINES: &[&str] = &["gpu-pipe", "gpu-multi:2", "gpu-tables"];
const MODES: &[&str] = &["verify", "scrub"];

/// The distributed row of the matrix: not a silent-corruption schedule but
/// a hard chassis loss on `gpu-cluster:3x1` (see
/// `chaos_matrix_node_loss_rebands_onto_survivors`).
const NODE_LOSS: &str = "node-loss";

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("laue_chaos_{}_{name}", std::process::id()))
}

fn report_dir() -> PathBuf {
    std::env::var("LAUE_REPORT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/chaos-reports"))
}

fn sv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn base_argv(scan_s: &str, engine: &str, out: &str, jdir: &str) -> Vec<String> {
    let mut argv = sv(&[
        "reconstruct",
        "--input",
        scan_s,
        "--engine",
        engine,
        "--bins",
        "200",
        "--rows-per-slab",
        "2",
        "--journal-dir",
        jdir,
        "--out",
        out,
    ]);
    if engine.starts_with("gpu-multi") {
        // Pin the fault plan to one fleet device so the schedule is the
        // same regardless of how bands are split across the fleet.
        argv.extend(sv(&["--fault-device", "0"]));
    }
    argv
}

fn read_image(path: &PathBuf) -> Vec<f64> {
    let f = laue::container::FileReader::open(path)
        .unwrap_or_else(|e| panic!("{}: no output written: {e}", path.display()));
    let ds = f.resolve_path("/reconstruction/depth_image").unwrap();
    f.read_all(ds).unwrap()
}

/// Run one (spec, engine, mode) cell and write its report file.
fn run_cell(name: &str, spec: &str, engine: &str, mode: &str, scan_s: &str, clean: &[f64]) {
    let tag = format!("{name}_{}_{mode}", engine.replace(':', "-"));
    let jdir = tmp(&format!("{tag}_jrn"));
    let _ = std::fs::remove_dir_all(&jdir);
    let out_path = tmp(&format!("{tag}_out")).with_extension("mh5");
    let mut argv = base_argv(
        scan_s,
        engine,
        &out_path.to_string_lossy(),
        &jdir.to_string_lossy(),
    );
    argv.extend(sv(&["--integrity", mode, "--inject-gpu-fault", spec]));
    let cmd = cli::parse(&argv).unwrap_or_else(|e| panic!("{tag}: parse failed: {e}"));
    let mut buf = Vec::new();
    let outcome = cli::run(&cmd, &mut buf);
    let summary = String::from_utf8(buf).unwrap();

    let status = match outcome {
        Err(e) => {
            // Only a *detected* abort is acceptable; any other error class
            // means the harness, not the integrity machinery, tripped.
            let msg = e.to_string();
            assert_eq!(mode, "verify", "{tag}: scrub must repair, got: {msg}");
            assert!(
                msg.contains("integrity"),
                "{tag}: aborted without a detected integrity violation: {msg}"
            );
            format!("ABORTED on detected corruption: {msg}")
        }
        Ok(()) => {
            // A completed run must be bit-identical to the fault-free
            // reference — a diverging export is a silent mismatch, the one
            // outcome the matrix exists to rule out.
            let data = read_image(&out_path);
            assert_eq!(data.len(), clean.len(), "{tag}: dims changed");
            for (i, (a, b)) in data.iter().zip(clean).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits(),
                    "{tag}: SILENT MISMATCH at voxel {i}: {a} vs {b}"
                );
            }
            // Every spec fires deterministically, so a completed run must
            // have detected (and repaired) its fault: scrub re-executes
            // condemned slabs, and verify still corrects transfer-CRC
            // failures by retransmission. A completed run that detected
            // nothing would be vacuous coverage.
            assert!(
                summary.contains("INTEGRITY-DEGRADED"),
                "{tag}: fault never fired or was never detected:\n{summary}"
            );
            // A finished run always retires its journal.
            assert_eq!(
                std::fs::read_dir(&jdir).map(|d| d.count()).unwrap_or(0),
                0,
                "{tag}: journal left behind"
            );
            "PASS (bit-identical to the fault-free reference)".to_string()
        }
    };

    let dir = report_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let mut rpt = std::fs::File::create(dir.join(format!("{tag}.txt"))).unwrap();
    writeln!(rpt, "spec: {spec}").unwrap();
    writeln!(rpt, "engine: {engine}  integrity: {mode}").unwrap();
    writeln!(rpt, "status: {status}").unwrap();
    if !summary.is_empty() {
        writeln!(rpt, "--- run summary ---\n{summary}").unwrap();
    }

    std::fs::remove_file(&out_path).ok();
    std::fs::remove_dir_all(&jdir).ok();
}

#[test]
fn chaos_matrix_never_exports_a_silent_mismatch() {
    // Noise keeps every slab deposit-dense, so the scripted kernel flip
    // always has a deposit to land on whichever launch it arms.
    let scan = SyntheticScanBuilder::new(10, 8, 12)
        .scatterers(5)
        .background(12.0)
        .noise(2.0)
        .seed(23)
        .build()
        .unwrap();
    let scan_path = tmp("scan").with_extension("mh5");
    write_scan(
        &scan_path,
        &scan.geometry,
        &scan.images,
        Some(&scan.truth),
        3,
    )
    .unwrap();
    let scan_s = scan_path.to_string_lossy().to_string();

    let only = std::env::var("LAUE_FAULT_SPEC").ok();
    if let Some(name) = &only {
        assert!(
            SPECS.iter().any(|(n, _)| n == name) || name == NODE_LOSS,
            "unknown LAUE_FAULT_SPEC {name:?}; known: {:?} + {NODE_LOSS:?}",
            SPECS.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        if name == NODE_LOSS {
            // The node-loss row runs in its own test below; nothing in the
            // corruption sweep is selected.
            std::fs::remove_file(&scan_path).ok();
            return;
        }
    }

    for engine in ENGINES {
        // Fault-free reference through the same CLI path, per engine (the
        // fleet may band rows differently than the single-device ring).
        let clean_out = tmp(&format!("clean_{}", engine.replace(':', "-"))).with_extension("mh5");
        let clean_jdir = tmp(&format!("clean_{}_jrn", engine.replace(':', "-")));
        let _ = std::fs::remove_dir_all(&clean_jdir);
        let argv = base_argv(
            &scan_s,
            engine,
            &clean_out.to_string_lossy(),
            &clean_jdir.to_string_lossy(),
        );
        let cmd = cli::parse(&argv).unwrap();
        cli::run(&cmd, &mut Vec::new()).unwrap();
        let clean = read_image(&clean_out);
        std::fs::remove_file(&clean_out).ok();
        let _ = std::fs::remove_dir_all(&clean_jdir);

        for (name, spec) in SPECS {
            if only.as_deref().is_none_or(|o| o == *name) {
                for mode in MODES {
                    run_cell(name, spec, engine, mode, &scan_s, &clean);
                }
            }
        }
    }

    std::fs::remove_file(&scan_path).ok();
}

/// The node-loss row: kill one chassis' only device mid-round on
/// `gpu-cluster:3x1` under `--integrity verify`. The survivors must re-band
/// the dead node's uncovered rows, the run must complete and report itself
/// DEGRADED, and the export must stay bit-identical to the fault-free
/// cluster reference — losing a third of the fleet may cost time, never
/// bits.
#[test]
fn chaos_matrix_node_loss_rebands_onto_survivors() {
    let only = std::env::var("LAUE_FAULT_SPEC").ok();
    if only.as_deref().is_some_and(|o| o != NODE_LOSS) {
        return;
    }

    let scan = SyntheticScanBuilder::new(10, 8, 12)
        .scatterers(5)
        .background(12.0)
        .noise(2.0)
        .seed(23)
        .build()
        .unwrap();
    let scan_path = tmp("nl_scan").with_extension("mh5");
    write_scan(
        &scan_path,
        &scan.geometry,
        &scan.images,
        Some(&scan.truth),
        3,
    )
    .unwrap();
    let scan_s = scan_path.to_string_lossy().to_string();

    // Single-row slabs so the victim dies with launches still owed: 8 rows
    // band 3/3/2 across three nodes, the fault arms after node 0's first
    // launch, and its remaining rows re-band onto nodes 1 and 2.
    let argv_for = |out: &str, jdir: &str| {
        sv(&[
            "reconstruct",
            "--input",
            &scan_s,
            "--engine",
            "gpu-cluster:3x1",
            "--bins",
            "200",
            "--rows-per-slab",
            "1",
            "--journal-dir",
            jdir,
            "--integrity",
            "verify",
            "--fault-device",
            "0",
            "--out",
            out,
        ])
    };

    let clean_out = tmp("nl_clean").with_extension("mh5");
    let clean_jdir = tmp("nl_clean_jrn");
    let _ = std::fs::remove_dir_all(&clean_jdir);
    let argv = argv_for(&clean_out.to_string_lossy(), &clean_jdir.to_string_lossy());
    cli::run(&cli::parse(&argv).unwrap(), &mut Vec::new()).unwrap();
    let clean = read_image(&clean_out);
    std::fs::remove_file(&clean_out).ok();
    let _ = std::fs::remove_dir_all(&clean_jdir);

    let out_path = tmp("nl_out").with_extension("mh5");
    let jdir = tmp("nl_jrn");
    let _ = std::fs::remove_dir_all(&jdir);
    let mut argv = argv_for(&out_path.to_string_lossy(), &jdir.to_string_lossy());
    argv.extend(sv(&["--inject-gpu-fault", "seed=5,dead-after-launches=1"]));
    let cmd = cli::parse(&argv).unwrap();
    let mut buf = Vec::new();
    cli::run(&cmd, &mut buf).unwrap_or_else(|e| panic!("node-loss run must survive: {e}"));
    let summary = String::from_utf8(buf).unwrap();

    let data = read_image(&out_path);
    assert_eq!(data.len(), clean.len(), "node-loss: dims changed");
    for (i, (a, b)) in data.iter().zip(&clean).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "node-loss: SILENT MISMATCH at voxel {i}: {a} vs {b}"
        );
    }
    assert!(
        summary.contains("DEGRADED: 1 node(s) lost mid-run"),
        "node-loss: the fault never fired or the report hides it:\n{summary}"
    );
    assert_eq!(
        std::fs::read_dir(&jdir).map(|d| d.count()).unwrap_or(0),
        0,
        "node-loss: journal left behind"
    );

    let dir = report_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let mut rpt = std::fs::File::create(dir.join("node-loss_gpu-cluster-3x1_verify.txt")).unwrap();
    writeln!(rpt, "spec: seed=5,dead-after-launches=1 (--fault-device 0)").unwrap();
    writeln!(rpt, "engine: gpu-cluster:3x1  integrity: verify").unwrap();
    writeln!(
        rpt,
        "status: PASS (DEGRADED, survivors re-banded, bit-identical)"
    )
    .unwrap();
    writeln!(rpt, "--- run summary ---\n{summary}").unwrap();

    std::fs::remove_file(&out_path).ok();
    std::fs::remove_dir_all(&jdir).ok();
    std::fs::remove_file(&scan_path).ok();
}
