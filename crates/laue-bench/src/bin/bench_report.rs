//! Machine-readable pipeline benchmark: every measured figure of the
//! paper's evaluation and of this repository's ablations, each one gated
//! section of `BENCH_pipeline.json`.
//!
//! | section | EXPERIMENTS.md | workload |
//! |---|---|---|
//! | `datasize` | E2, E4 (Fig 8) | the four Fig 8 stacks, CPU vs GPU |
//! | `depth_ablation` | A3 | Fig 8 5.2 MB stack, 32 MiB-capped M2070, ring depth 1–4 |
//! | `table_cache` | A8 | same stack, `gpu-tables` cold then warm |
//! | `failover`, `compaction`, `accumulation`, `integrity` | — | same stack |
//! | `planner` | first A9 cell | same stack, `--plan auto` vs five fixed plans |
//! | `layout` | E1 (Fig 4) | 5.2 MB, seed 404, 1-D vs pointer layout |
//! | `pixel_percentage` | E3 (Fig 9) | 3.6 MB, seed 909, 100/50/25 % active |
//! | `slab_size` | A1 (Fig 2) | 2.1 MB, seed 777, 64 MiB-capped M2070 |
//! | `atomics` | A2 (§III-C) | 2.1 MB, seed 555 |
//! | `depth_table` | A4 | 2.1 and 5.2 MB, seed 606 |
//! | `hardware`, `hardware_accumulation` | A5 | 5.2 MB seed 222; 2.1 MB seed 555 |
//! | `multi_gpu` | A6 | 5.2 MB, seed 808, 1–8 devices |
//! | `fullscale` | A7 | per-pair costs of 5.2 MB seed 707, scaled to GB |
//! | `planner_sweep` | A9 | era devices × {5.2 MB seed 222, 2.1 MB seed 555} |
//!
//! Times are **virtual seconds** from the calibrated M2070/E5630 models
//! (deterministic, machine-independent); `wall_clock_s` is the real time
//! the harness itself took, for CI trend-watching only. EXPERIMENTS.md's
//! tables are rendered from this file (`laue_bench::experiments`).
//!
//! Each section gates what its figure claims: bit-identity between the
//! runs it compares, the orderings it reports (GPU beats CPU, a ring of
//! depth ≥ 2 beats the serial one), and the planner's budgets (prediction
//! error < 15 %, auto/best-fixed ≤ 1.05). A failed gate is printed, and
//! the process exits non-zero once the report is written. `--quick` runs
//! every section on a 0.5 MB stand-in of its stack and skips the Fig 8
//! orderings, which need the whole ladder.
//!
//! Run: `cargo run --release -p laue-bench --bin bench_report -- \
//!       [--quick] [--out BENCH_pipeline.json] [--check ci/perf_smoke_baseline.txt]`
//!
//! `--check FILE` turns the report into a perf gate over the named budgets
//! in FILE (see [`laue_bench::budgets`]): the compact/dense modeled
//! kernel-time ratio at the ~25 %-active operating point, the
//! privatized/atomic kernel-time ratio, the depth-3/serial ring elapsed
//! ratio under the shared-bus model, the plan-auto/best-fixed total-time
//! ratio, and the `--integrity verify`/off total-time ratio; the process
//! exits non-zero if a measured ratio regresses past its budget.

use std::time::Instant;

use cuda_sim::{Cost, Device, DeviceProps, FaultPlan, Host};
use laue_bench::budgets::Budgets;
use laue_bench::devices::{era_matrix, paper_host};
use laue_bench::report::Row;
use laue_bench::{delta_percentile, standard_config, Workload};
use laue_core::cache::TableCacheStats;
use laue_core::cpu::{self, CpuReconstruction};
use laue_core::gpu::{self, GpuOptions, GpuReconstruction, Layout, PipelineDepth, Triangulation};
use laue_core::multi::reconstruct_multi;
use laue_core::planner::{Pins, Plan};
use laue_core::{
    AccumulationMode, CompactionMode, IntegrityMode, PlanMode, ReconstructionConfig, Result,
    ScanView,
};
use laue_pipeline::{Engine, Pipeline};
use laue_wire::builder::dims_for_bytes;

const GPU_1D: Engine = Engine::Gpu {
    layout: Layout::Flat1d,
};
const CPU_SEQ: Engine = Engine::Cpu { threads: 1 };

/// Planner budget: |predicted − measured| / measured on the chosen plan.
const MAX_PREDICTION_ERROR: f64 = 0.15;
/// Planner budget: auto total time over the best fixed total time.
const MAX_AUTO_REGRET: f64 = 1.05;

/// The report's gates: each failure is printed as it happens, and any
/// failure makes the process exit non-zero once the report is written.
#[derive(Default)]
struct Gates {
    checked: usize,
    failed: usize,
}

impl Gates {
    fn check(&mut self, pass: bool, why: impl std::fmt::Display) {
        self.checked += 1;
        if !pass {
            self.failed += 1;
            eprintln!("GATE FAILED: {why}");
        }
    }
}

/// A row carrying the quick marker, so a consumer can never mistake a
/// quick stand-in for the full-scale figure.
fn row(quick: bool) -> Row {
    Row::default().value("quick", quick)
}

/// The `mb` stack with `seed`, or its 0.5 MB stand-in in quick mode.
fn stack(quick: bool, mb: f64, seed: u64) -> Workload {
    Workload::of_megabytes(if quick { 0.5 } else { mb }, seed)
}

/// `options` on a fresh `props` device over `w`, serial and fitted to
/// device memory unless `pins` pins the ring depth or the slab rows.
fn on_device(
    props: &DeviceProps,
    w: &Workload,
    cfg: &ReconstructionConfig,
    options: GpuOptions,
    pins: Pins,
) -> Result<GpuReconstruction> {
    let device = Device::new(props.clone());
    let mut source = w.source();
    let plan = Plan::fixed(1, 1, options, PipelineDepth::SERIAL, pins);
    gpu::reconstruct_pipelined(&device, &mut source, &w.scan.geometry, cfg, plan, None)
}

/// One serial run on a fresh paper device with the default options.
fn on_m2070(w: &Workload, cfg: &ReconstructionConfig) -> GpuReconstruction {
    let (options, pins) = (GpuOptions::default(), Pins::default());
    on_device(&DeviceProps::tesla_m2070(), w, cfg, options, pins).expect("gpu run")
}

/// Pins of `rows` slab rows, nothing else.
fn slab_rows(rows: Option<usize>) -> Pins {
    Pins {
        rows,
        ..Pins::default()
    }
}

/// The sequential CPU engine over `w`, with its modeled time on one
/// paper-host core.
fn cpu_seq(w: &Workload, cfg: &ReconstructionConfig) -> (CpuReconstruction, f64) {
    let g = &w.scan.geometry;
    let (steps, rows, cols) = (g.wire.n_steps, g.detector.n_rows, g.detector.n_cols);
    let view = ScanView::new(&w.scan.images, steps, rows, cols).expect("scan view");
    let out = cpu::reconstruct_seq(&view, g, cfg).expect("cpu run");
    let t = out.modeled_time_s(&paper_host(), 1);
    (out, t)
}

fn cache_stats(s: &TableCacheStats) -> Row {
    Row::default()
        .value("host_hits", s.host_hits)
        .value("host_misses", s.host_misses)
        .value("device_hits", s.device_hits)
        .value("device_misses", s.device_misses)
        .value("evictions", s.evictions)
        .value("resident_bytes", s.resident_bytes)
}

/// Fig 8 (E2, E4): CPU vs the serial and the ring GPU pipeline on every
/// ladder size, through one pipeline.
fn datasize(ladder: &[Workload], quick: bool, gates: &mut Gates) -> Vec<Row> {
    let cfg = standard_config();
    let pipeline = Pipeline::default();
    let mut rows = Vec::new();
    for w in ladder {
        let run = |engine| {
            let mut source = w.source();
            pipeline
                .run_source(&mut source, &w.scan.geometry, &cfg, engine)
                .expect("pipeline run")
        };
        let (cpu, serial, pipe) = (run(CPU_SEQ), run(GPU_1D), run(Engine::GpuPipelined));
        let (label, cpu_s, serial_s, pipe_s) = (
            &w.label,
            cpu.total_time_s,
            serial.total_time_s,
            pipe.total_time_s,
        );
        gates.check(
            cpu.image.data == serial.image.data,
            format_args!("cpu-seq and gpu-1d images differ at {label}"),
        );
        // The paper's orderings must hold at every Fig 8 size; they mean
        // something only on the whole ladder.
        if !quick {
            gates.check(
                serial_s < cpu_s,
                format_args!(
                    "gpu-serial ({serial_s:.4} s) must beat cpu-seq ({cpu_s:.4} s) at {label}"
                ),
            );
            gates.check(
                pipe_s <= serial_s,
                format_args!(
                    "the overlapped ring ({pipe_s:.4} s) must not lose to the serial \
                     schedule ({serial_s:.4} s) at {label}"
                ),
            );
        }
        let mut r = row(quick).text("label", label).value("bytes", w.bytes);
        for (key, run) in [
            ("cpu_seq", &cpu),
            ("gpu_serial", &serial),
            ("gpu_pipe", &pipe),
        ] {
            let engine = Row::default()
                .secs("total_s", run.total_time_s)
                .secs("comm_s", run.comm_time_s)
                .secs("bus_wait_s", run.bus_wait_s)
                .secs("compute_s", run.compute_time_s)
                .value("pipeline_depth", run.pipeline_depth)
                .value("replans", run.gpu_replans)
                .value("transfer_retries", run.gpu_transfer_retries)
                .value("trace_dropped", run.trace_dropped);
            r = r.row(key, &engine);
        }
        // Which resource dominates the serial GPU run at this size, and
        // how much of it the overlapped ring claws back.
        rows.push(
            r.value("bus_bound", serial.comm_time_s > serial.compute_time_s)
                .secs("ring_saving_s", serial_s - pipe_s)
                .value("side", w.side())
                .ratio("gpu_over_cpu", serial_s / cpu_s),
        );
    }
    rows
}

/// A3: ring depths 1–4 on a memory-capped device, so the stack streams
/// in many slabs. Returns the rows and the depth-3/serial elapsed ratio.
fn depth_ablation(w: &Workload, quick: bool, gates: &mut Gates) -> (Vec<Row>, f64) {
    let props = DeviceProps {
        total_mem: 32 * 1024 * 1024,
        ..DeviceProps::tesla_m2070()
    };
    let cfg = standard_config();
    let slab = slab_rows(Some(if quick { 4 } else { 8 }));
    let mut serial: Option<(f64, Vec<f64>)> = None;
    let (mut rows, mut elapsed_at) = (Vec::new(), Vec::new());
    for k in 1..=4 {
        let pins = Pins {
            depth: Some(PipelineDepth(k)),
            ..slab
        };
        let out = on_device(&props, w, &cfg, GpuOptions::default(), pins).expect("reconstruction");
        let (elapsed, comm) = (out.elapsed_s, out.meters.comm_time_s);
        // No free bandwidth: one half-duplex link can never finish the
        // schedule faster than the total transfer time it carries.
        gates.check(
            elapsed + 1e-12 >= comm,
            format_args!("ring depth {k} finished below the bus floor ({elapsed} vs {comm} s)"),
        );
        let (serial_s, serial_image) =
            serial.get_or_insert_with(|| (elapsed, out.image.data.clone()));
        if k == 1 {
            gates.check(
                out.meters.bus_wait_s == 0.0,
                "the serial schedule never contends with itself",
            );
        } else {
            gates.check(
                *serial_image == out.image.data,
                format_args!("ring depth {k} diverges from serial"),
            );
            gates.check(
                elapsed < *serial_s,
                format_args!(
                    "ring depth {k} must beat the serial pipeline ({elapsed} vs {serial_s} s)"
                ),
            );
        }
        rows.push(
            Row::default()
                .value("ring_depth", out.pipeline_depth)
                .value("n_slabs", out.n_slabs)
                .secs("total_s", elapsed)
                .secs("comm_s", comm)
                .secs("bus_wait_s", out.meters.bus_wait_s)
                .secs("compute_s", out.meters.compute_time_s)
                .value("requested_depth", k)
                .ratio("saved_frac", (*serial_s - elapsed) / *serial_s),
        );
        elapsed_at.push(elapsed);
    }
    (rows, elapsed_at[2] / elapsed_at[0])
}

/// A8: a cold `gpu-tables` run computes and uploads the depth tables, a
/// warm run on the same pipeline reuses the resident copy.
fn table_cache(w: &Workload, quick: bool, gates: &mut Gates) -> Row {
    let pipeline = Pipeline::default();
    let run = || {
        let mut source = w.source();
        pipeline
            .run_source(
                &mut source,
                &w.scan.geometry,
                &standard_config(),
                Engine::GpuTables,
            )
            .expect("gpu-tables run")
    };
    let (cold, warm) = (run(), run());
    gates.check(
        cold.image.data == warm.image.data,
        "the warm gpu-tables run must be bit-identical to the cold one",
    );
    row(quick)
        .secs("cold_total_s", cold.total_time_s)
        .secs("warm_total_s", warm.total_time_s)
        .row("cold", &cache_stats(&cold.table_cache))
        .row("warm", &cache_stats(&warm.table_cache))
}

/// A 4-device fleet, clean vs losing one device at its first slab
/// boundary: the survivors absorb its rows, same bits. Small slabs give
/// every device several launches, so the scripted death has one to trip
/// at.
fn failover(w: &Workload, quick: bool, gates: &mut Gates) -> Row {
    let fleet = Engine::GpuMulti { devices: 4 };
    let cfg = standard_config();
    let pins = slab_rows(Some(if quick { 4 } else { 8 }));
    let run = |pipeline: Pipeline| {
        let mut source = w.source();
        pipeline
            .run_source(&mut source, &w.scan.geometry, &cfg, fleet)
            .expect("gpu-multi run")
    };
    let clean = run(Pipeline {
        pins,
        ..Pipeline::default()
    });
    let degraded = run(Pipeline {
        fault_plan: Some(FaultPlan::new(0).fail_after_launches(1)),
        fault_device: Some(1),
        pins,
        ..Pipeline::default()
    });
    gates.check(
        clean.image.data == degraded.image.data,
        "fleet failover must be bit-identical to the clean fleet run",
    );
    let lost = degraded.recovery.devices_lost;
    gates.check(
        lost == 1,
        format_args!("the failover run lost {lost} device(s), not 1"),
    );
    row(quick)
        .secs("clean_total_s", clean.total_time_s)
        .secs("degraded_total_s", degraded.total_time_s)
        .value("devices_lost", lost)
        .value("salvaged_slabs", degraded.recovery.salvaged_slabs)
        .value("recomputed_slabs", degraded.recovery.recomputed_slabs)
}

/// Dense vs compacted gpu-1d at the paper's ~25 %-active operating point
/// (Fig 9's sparsest column): bit-identical, and — prescan cost included
/// — a shorter modeled kernel. Returns the row and the compact/dense
/// kernel ratio.
fn compaction(w: &Workload, quick: bool, gates: &mut Gates) -> (Row, f64) {
    let cutoff = delta_percentile(w, 0.75);
    let run = |mode: CompactionMode| {
        let mut c = standard_config();
        c.intensity_cutoff = cutoff;
        c.compaction = mode;
        w.run(&c, GPU_1D)
    };
    let dense = run(CompactionMode::Off);
    let compact = run(CompactionMode::On);
    let auto = run(CompactionMode::Auto);
    for (name, r) in [("compacted", &compact), ("auto", &auto)] {
        gates.check(
            dense.image.data == r.image.data,
            format_args!("the {name} run must be bit-identical to dense at 25 % active"),
        );
    }
    let densities = &compact.slab_densities;
    let mean_density = if densities.is_empty() {
        0.0
    } else {
        densities.iter().sum::<f64>() / densities.len() as f64
    };
    let ratio = compact.compute_time_s / dense.compute_time_s;
    let r = row(quick)
        .ratio("cutoff", cutoff)
        .ratio("active_fraction", dense.stats.active_fraction())
        .secs("dense_compute_s", dense.compute_time_s)
        .secs("compact_compute_s", compact.compute_time_s)
        .secs("auto_compute_s", auto.compute_time_s)
        .ratio("compact_over_dense", ratio)
        .ratio("mean_slab_density", mean_density)
        .value("compacted_pairs", compact.stats.compacted_pairs)
        .value("culled_rows", compact.stats.culled_rows);
    (r, ratio)
}

/// The paper's CAS-loop atomicAdd(double) vs the shared-memory privatized
/// tiles, dense gpu-1d. Returns the row and the privatized/atomic kernel
/// ratio.
fn accumulation(w: &Workload, quick: bool, gates: &mut Gates) -> (Row, f64) {
    let run = |mode: AccumulationMode| {
        let mut c = standard_config();
        c.accumulation = mode;
        w.run(&c, GPU_1D)
    };
    let atomic = run(AccumulationMode::Atomic);
    let private = run(AccumulationMode::Privatized);
    gates.check(
        atomic.image.data == private.image.data,
        "privatized run must be bit-identical to atomic",
    );
    let s = &private.stats;
    gates.check(
        s.privatized_pairs == s.pairs_total,
        "200 bins fit the M2070 tile, so every slab privatizes",
    );
    let ratio = private.compute_time_s / atomic.compute_time_s;
    let r = row(quick)
        .secs("atomic_compute_s", atomic.compute_time_s)
        .secs("privatized_compute_s", private.compute_time_s)
        .ratio("privatized_over_atomic", ratio)
        .value("privatized_pairs", s.privatized_pairs)
        .value("accum_fallback_pairs", s.accum_fallback_pairs);
    (r, ratio)
}

/// One planner cell: `--plan auto` on a `props` device vs the best of
/// five fixed plans, each on a fresh pipeline, so every contender pays the
/// cold-cache costs the planner models. Returns the cell and its
/// auto/best-fixed ratio.
fn plan_cell(props: &DeviceProps, w: &Workload, gates: &mut Gates) -> (Row, f64) {
    let mut base = standard_config();
    base.compaction = CompactionMode::Auto;
    base.accumulation = AccumulationMode::Auto;
    let run = |cfg: &ReconstructionConfig, engine, depth: Option<usize>| {
        let pipeline = Pipeline {
            device: props.clone(),
            pins: Pins {
                depth: depth.map(PipelineDepth),
                ..Pins::default()
            },
            ..Pipeline::default()
        };
        let mut source = w.source();
        pipeline
            .run_source(&mut source, &w.scan.geometry, cfg, engine)
            .expect("planner run")
    };
    let auto_cfg = ReconstructionConfig {
        plan: PlanMode::Auto,
        ..base.clone()
    };
    let auto = run(&auto_cfg, Engine::GpuPipelined, None);
    let explain = auto.plan.as_ref().expect("plan auto explain block");
    let cell = format!("{} / {}", props.name, w.label);
    let err = explain.prediction_error();
    gates.check(
        err < MAX_PREDICTION_ERROR,
        format_args!(
            "{cell}: prediction error {:.1} % (predicted {:.6} s, measured {:.6} s)",
            100.0 * err,
            explain.predicted_s,
            explain.measured_s
        ),
    );
    let mut best: Option<(&str, f64)> = None;
    for (label, engine, depth) in [
        ("gpu-1d", GPU_1D, None),
        (
            "gpu-3d",
            Engine::Gpu {
                layout: Layout::Pointer3d,
            },
            None,
        ),
        ("gpu-tables", Engine::GpuTables, None),
        ("gpu-pipe-k2", Engine::GpuPipelined, Some(2)),
        ("gpu-pipe-k3", Engine::GpuPipelined, Some(3)),
    ] {
        let fixed = run(&base, engine, depth);
        gates.check(
            auto.image.data == fixed.image.data,
            format_args!("{cell}: plan auto diverges from {label}"),
        );
        if best.is_none_or(|(_, t)| fixed.total_time_s < t) {
            best = Some((label, fixed.total_time_s));
        }
    }
    let (best_label, best_s) = best.expect("fixed field is non-empty");
    let ratio = auto.total_time_s / best_s;
    gates.check(
        ratio <= MAX_AUTO_REGRET,
        format_args!(
            "{cell}: auto loses {:.1} % to fixed {best_label}",
            100.0 * (ratio - 1.0)
        ),
    );
    let r = Row::default()
        .text("chosen", &explain.chosen)
        .secs("predicted_s", explain.predicted_s)
        .secs("measured_s", explain.measured_s)
        .ratio("prediction_error", err)
        .secs("auto_total_s", auto.total_time_s)
        .text("best_fixed", best_label)
        .secs("best_fixed_total_s", best_s)
        .ratio("auto_over_best", ratio);
    (r, ratio)
}

/// End-to-end data integrity: the overhead of `--integrity verify` on a
/// clean run, and a scrub run under injected silent corruption that must
/// come back bit-identical with every detection corrected. Returns the
/// row and the verify/off total-time ratio.
fn integrity(w: &Workload, quick: bool, gates: &mut Gates) -> (Row, f64) {
    let run = |mode: IntegrityMode, fault_plan: Option<FaultPlan>| {
        let mut c = standard_config();
        c.integrity = mode;
        let mut source = w.source();
        Pipeline {
            fault_plan,
            ..Pipeline::default()
        }
        .run_source(&mut source, &w.scan.geometry, &c, Engine::GpuPipelined)
        .expect("integrity run")
    };
    let off = run(IntegrityMode::Off, None);
    let verify = run(IntegrityMode::Verify, None);
    let flips = FaultPlan::new(5)
        .flip_nth_h2d(2)
        .flip_nth_kernel(1)
        .flip_op_index(3);
    let scrub = run(IntegrityMode::Scrub, Some(flips));
    let (v, s) = (&verify.integrity, &scrub.integrity);
    let injected = scrub.faults_injected.expect("fault plan installed");
    for (pass, why) in [
        (
            off.image.data == verify.image.data,
            "verification changed a clean run's bits",
        ),
        (v.checks_run > 0, "verify ran no checks"),
        (
            v.corruptions_detected == 0,
            "verify flagged a healthy device",
        ),
        (
            off.image.data == scrub.image.data,
            "scrub did not repair the injected corruption bit-identically",
        ),
        (
            injected.total_silent() >= 1,
            "the schedule injected nothing",
        ),
        (
            s.corruptions_detected >= 1,
            "injected corruption went undetected",
        ),
        (
            s.corruptions_corrected == s.corruptions_detected,
            "scrub left a detection unrepaired",
        ),
    ] {
        gates.check(pass, why);
    }
    let ratio = verify.total_time_s / off.total_time_s;
    let r = row(quick)
        .secs("off_total_s", off.total_time_s)
        .secs("verify_total_s", verify.total_time_s)
        .ratio("verify_over_off", ratio)
        .value("verify_checks", v.checks_run)
        .secs("verify_host_cpu_s", v.verify_host_cpu_s)
        .secs("exposed_overhead_s", v.exposed_overhead_s)
        .secs("measured_delta_s", verify.total_time_s - off.total_time_s)
        .secs("scrub_total_s", scrub.total_time_s)
        .value("scrub_silent_injected", injected.total_silent())
        .value("scrub_detected", s.corruptions_detected)
        .value("scrub_corrected", s.corruptions_corrected)
        .value("scrub_retries", s.scrub_retries);
    (r, ratio)
}

/// Fig 4 (E1): the 1-D flat layout vs the 3-D pointer-table layout.
fn layout(quick: bool, gates: &mut Gates) -> Vec<Row> {
    let w = stack(quick, 5.2, 404);
    let cfg = standard_config();
    let flat = w.run(&cfg, GPU_1D);
    let pointer = w.run(
        &cfg,
        Engine::Gpu {
            layout: Layout::Pointer3d,
        },
    );
    gates.check(
        flat.image.data == pointer.image.data,
        "gpu-1d and gpu-3d images differ",
    );
    [flat, pointer]
        .iter()
        .map(|r| {
            row(quick)
                .text("engine", &r.engine)
                .secs("total_s", r.total_time_s)
                .secs("compute_s", r.compute_time_s)
                .secs("comm_s", r.comm_time_s)
                .value("transfers", r.transfers)
                .value("n_slabs", r.n_slabs)
        })
        .collect()
}

/// Fig 9 (E3): CPU vs dense and compacted GPU at 100 / 50 / 25 % active
/// pairs, the cutoffs taken from the |ΔI| distribution.
fn pixel_percentage(quick: bool, gates: &mut Gates) -> Vec<Row> {
    let w = stack(quick, 3.6, 909);
    let mut rows = Vec::new();
    for (target, cutoff) in [
        (1.0, 0.0),
        (0.5, delta_percentile(&w, 0.50)),
        (0.25, delta_percentile(&w, 0.75)),
    ] {
        let mut cfg = standard_config();
        cfg.intensity_cutoff = cutoff;
        let cpu = w.run(&cfg, CPU_SEQ);
        let gpu = w.run(&cfg, GPU_1D);
        cfg.compaction = CompactionMode::On;
        let compact = w.run(&cfg, GPU_1D);
        let same = cpu.image.data == gpu.image.data && gpu.image.data == compact.image.data;
        gates.check(
            same,
            format_args!("cpu-seq, gpu-1d and compacted gpu-1d disagree at cutoff {cutoff}"),
        );
        rows.push(
            row(quick)
                .ratio("target_fraction", target)
                .ratio("active_fraction", gpu.stats.active_fraction())
                .ratio("cutoff", cutoff)
                .secs("cpu_total_s", cpu.total_time_s)
                .secs("gpu_total_s", gpu.total_time_s)
                .secs("compact_total_s", compact.total_time_s)
                .ratio("gpu_over_cpu", gpu.total_time_s / cpu.total_time_s)
                .ratio(
                    "compact_over_dense_kernel",
                    compact.compute_time_s / gpu.compute_time_s,
                ),
        );
    }
    rows
}

/// A1 (the Fig 2 design): rows per slab on a 64 MiB-capped device, then
/// the auto fit (the largest slab that fits).
fn slab_size(quick: bool, gates: &mut Gates) -> Vec<Row> {
    let w = stack(quick, 2.1, 777);
    let props = DeviceProps {
        total_mem: 64 * 1024 * 1024,
        ..DeviceProps::tesla_m2070()
    };
    let (cfg, options) = (standard_config(), GpuOptions::default());
    let mut first: Option<Vec<f64>> = None;
    let mut rows = Vec::new();
    for pinned in [Some(1), Some(2), Some(4), Some(8), Some(16), Some(32), None] {
        let out = match on_device(&props, &w, &cfg, options, slab_rows(pinned)) {
            Ok(out) => out,
            Err(e) => {
                gates.check(false, format_args!("{pinned:?} rows per slab: {e}"));
                continue;
            }
        };
        let first = first.get_or_insert_with(|| out.image.data.clone());
        gates.check(
            *first == out.image.data,
            format_args!("{pinned:?} rows per slab changed the answer"),
        );
        rows.push(
            row(quick)
                .value("rows_per_slab", pinned.unwrap_or(out.rows_per_slab))
                .value("auto", pinned.is_none())
                .value("n_slabs", out.n_slabs)
                .secs("total_s", out.elapsed_s)
                .secs("comm_s", out.meters.comm_time_s)
                .value("transfers", out.meters.transfers)
                .value("peak_device_bytes", out.peak_device_mem),
        );
    }
    rows
}

/// A2 (§III-C): the CAS kernel, the privatized kernel, and the CAS
/// kernel's recorded cost re-costed without its atomic term.
fn atomics(quick: bool, gates: &mut Gates) -> Vec<Row> {
    let w = stack(quick, 2.1, 555);
    let props = DeviceProps::tesla_m2070();
    let mut cfg = standard_config();
    let cas = on_m2070(&w, &cfg);
    cfg.accumulation = AccumulationMode::Privatized;
    let private = on_m2070(&w, &cfg);
    gates.check(
        cas.image.data == private.image.data,
        "privatized accumulation must be bit-identical",
    );
    let cost = cas.meters.kernel_cost;
    let no_atomics = Cost {
        atomic_ops: 0,
        atomic_max_chain: 0,
        ..cost
    };
    let variant = |name: &str, cost: &Cost, deposits: u64| {
        row(quick)
            .text("variant", name)
            .secs("kernel_s", props.kernel_time(cost))
            .value("atomic_ops", cost.atomic_ops)
            .value("deposits", deposits)
    };
    vec![
        variant("CAS atomicAdd (paper)", &cost, cas.stats.deposits),
        variant(
            "privatized shared tiles",
            &private.meters.kernel_cost,
            private.stats.deposits,
        ),
        variant(
            "CAS re-costed without atomics",
            &no_atomics,
            cas.stats.deposits,
        ),
    ]
}

/// A4 (the kernel signature): in-kernel triangulation vs shipping
/// host-precomputed depth tables, whose building is charged to one
/// E5630 core.
fn depth_table(quick: bool, gates: &mut Gates) -> Vec<Row> {
    let sizes: &[f64] = if quick { &[0.5] } else { &[2.1, 5.2] };
    let cfg = standard_config();
    let mut rows = Vec::new();
    for &mb in sizes {
        let w = Workload::of_megabytes(mb, 606);
        let mut first: Option<Vec<f64>> = None;
        for (name, triangulation) in [
            ("in-kernel", Triangulation::InKernel),
            ("host tables", Triangulation::HostTables),
        ] {
            let options = GpuOptions {
                layout: Layout::Flat1d,
                triangulation,
            };
            let props = DeviceProps::tesla_m2070();
            let out = on_device(&props, &w, &cfg, options, Pins::default()).expect("run");
            let first = first.get_or_insert_with(|| out.image.data.clone());
            gates.check(
                *first == out.image.data,
                format_args!("triangulation modes diverge at {}", w.label),
            );
            let host_flops = Cost {
                flops: out.host_table_flops,
                ..Cost::default()
            };
            let host_s = paper_host().kernel_time(&host_flops, 1);
            rows.push(
                row(quick)
                    .text("dataset", &w.label)
                    .text("triangulation", name)
                    .secs("total_s", out.elapsed_s + host_s)
                    .secs("compute_s", out.meters.compute_time_s)
                    .secs("comm_s", out.meters.comm_time_s)
                    .secs("host_prep_s", host_s),
            );
        }
    }
    rows
}

/// A5: the era's devices on the Fig 8 largest stack (PCIe-bound) and on
/// the §III-C stack (accumulation-bound), each with the CAS and the
/// privatized accumulator. Returns the two tables.
fn hardware(quick: bool, gates: &mut Gates) -> (Vec<Row>, Vec<Row>) {
    let cfg = standard_config();
    let mut private_cfg = cfg.clone();
    private_cfg.accumulation = AccumulationMode::Privatized;
    let both = |props: &DeviceProps, w: &Workload, gates: &mut Gates| {
        let run = |c| on_device(props, w, c, GpuOptions::default(), Pins::default()).expect("run");
        let (atomic, private) = (run(&cfg), run(&private_cfg));
        gates.check(
            atomic.image.data == private.image.data,
            format_args!(
                "privatized accumulation diverges on {} at {}",
                props.name, w.label
            ),
        );
        (atomic, private)
    };

    let w = stack(quick, 5.2, 222);
    let (cpu, cpu_s) = cpu_seq(&w, &cfg);
    let mut pcie_bound = vec![row(quick)
        .text("machine", "Xeon E5630 (1 core)")
        .secs("total_s", cpu_s)
        .ratio("over_cpu", 1.0)];
    let mut first: Option<Vec<f64>> = None;
    for props in era_matrix() {
        let (out, private) = both(&props, &w, gates);
        let first = first.get_or_insert_with(|| out.image.data.clone());
        gates.check(
            *first == out.image.data,
            format_args!("{} diverges from the other devices", props.name),
        );
        pcie_bound.push(
            row(quick)
                .text("machine", &props.name)
                .secs("total_s", out.elapsed_s)
                .secs("comm_s", out.meters.comm_time_s)
                .secs("compute_s", out.meters.compute_time_s)
                .secs("privatized_compute_s", private.meters.compute_time_s)
                .ratio(
                    "privatized_over_atomic",
                    private.meters.compute_time_s / out.meters.compute_time_s,
                )
                .value("n_slabs", out.n_slabs)
                .value("rows_per_slab", out.rows_per_slab)
                .ratio("over_cpu", out.elapsed_s / cpu_s),
        );
    }
    let (gpu_mass, cpu_mass) = (
        first.unwrap_or_default().iter().sum::<f64>(),
        cpu.image.data.iter().sum::<f64>(),
    );
    gates.check(
        (gpu_mass - cpu_mass).abs() < 1e-6 * cpu_mass.abs().max(1.0),
        format_args!("GPU image mass {gpu_mass} differs from the CPU's {cpu_mass}"),
    );

    let w = stack(quick, 2.1, 555);
    let accumulation_bound = era_matrix()
        .iter()
        .map(|props| {
            let (atomic, private) = both(props, &w, gates);
            let (a, p) = (atomic.meters.compute_time_s, private.meters.compute_time_s);
            row(quick)
                .text("machine", &props.name)
                .secs("atomic_compute_s", a)
                .secs("privatized_compute_s", p)
                .ratio("privatized_over_atomic", p / a)
        })
        .collect();
    (pcie_bound, accumulation_bound)
}

/// A6: detector rows banded across 1–8 M2070s, one PCIe link each
/// (a cluster of single-GPU nodes) and all on one shared bus (one
/// workstation chassis); speedup and efficiency are the shared bus's.
fn multi_gpu(quick: bool, gates: &mut Gates) -> Vec<Row> {
    let w = stack(quick, 5.2, 808);
    let cfg = standard_config();
    let (_, cpu_s) = cpu_seq(&w, &cfg);
    let run = |devices: &[Device]| {
        let refs: Vec<&Device> = devices.iter().collect();
        let mut source = w.source();
        reconstruct_multi(
            &refs,
            &mut source,
            &w.scan.geometry,
            &cfg,
            GpuOptions::default(),
        )
        .expect("run")
    };
    let mut first: Option<Vec<f64>> = None;
    let mut t1 = 0.0;
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let private: Vec<Device> = (0..n)
            .map(|_| Device::new(DeviceProps::tesla_m2070()))
            .collect();
        let ideal = run(&private);
        let host = Host::new_default();
        let chassis: Vec<Device> = (0..n)
            .map(|_| Device::new_on_host(DeviceProps::tesla_m2070(), &host))
            .collect();
        let shared = run(&chassis);
        for image in [&ideal.image.data, &shared.image.data] {
            let first = first.get_or_insert_with(|| image.clone());
            gates.check(
                first == image,
                format_args!("{n} device(s) or their topology changed the answer"),
            );
        }
        let t = shared.elapsed_s;
        if n == 1 {
            t1 = t;
        }
        rows.push(
            row(quick)
                .value("devices", n)
                .secs("private_total_s", ideal.elapsed_s)
                .secs("shared_total_s", t)
                .secs("bus_wait_s", shared.meters.bus_wait_s)
                .ratio("speedup", t1 / t)
                .ratio("efficiency", t1 / (t * n as f64))
                .ratio("over_cpu", t / cpu_s),
        );
    }
    rows
}

/// A7: per-pair costs measured on a scaled run, extrapolated exactly (the
/// cost model is linear in the meters) to the paper's 2.1–5.2 GB scans.
/// Kernel plus transfer only; PCIe latency is negligible at GB scale.
fn fullscale(quick: bool) -> Vec<Row> {
    let w = stack(quick, 5.2, 707);
    let cfg = standard_config();
    let g = &w.scan.geometry;
    let (rows, cols, steps) = (g.detector.n_rows, g.detector.n_cols, g.wire.n_steps);
    let pairs_scaled = (rows * cols * (steps - 1)) as f64;
    let (cpu, _) = cpu_seq(&w, &cfg);
    let gpu = on_m2070(&w, &cfg);
    let per_pair = |x: u64| x as f64 / pairs_scaled;
    let k = &gpu.meters.kernel_cost;
    // PCIe bytes per pixel: input image, pixel table and output bins.
    let pcie_per_pixel =
        (gpu.meters.h2d_bytes + gpu.meters.d2h_bytes) as f64 / (rows * cols) as f64;
    let (host, dev) = (paper_host(), DeviceProps::tesla_m2070());
    [2.1f64, 2.7, 3.6, 5.2]
        .iter()
        .map(|&gb| {
            let side = dims_for_bytes((gb * 1024.0 * 1024.0 * 1024.0) as u64, steps);
            let pixels = (side * side) as f64;
            let pairs = pixels * (steps - 1) as f64;
            let scaled = |per_pair: f64| (per_pair * pairs) as u64;
            let cpu_s = host.kernel_time(
                &Cost {
                    flops: scaled(per_pair(cpu.cost.flops)),
                    mem_bytes: scaled(per_pair(cpu.cost.mem_bytes)),
                    ..Cost::default()
                },
                1,
            );
            let kernel_s = dev.kernel_time(&Cost {
                flops: scaled(per_pair(k.flops)),
                mem_bytes: scaled(per_pair(k.mem_bytes)),
                atomic_ops: scaled(per_pair(k.atomic_ops)),
                ..Cost::default()
            });
            let comm_s = pcie_per_pixel * pixels / dev.pcie_bw;
            let gpu_s = kernel_s + comm_s;
            row(quick)
                .text("dataset", &format!("{gb:.1} GB"))
                .value("side", side)
                .secs("cpu_s", cpu_s)
                .secs("gpu_s", gpu_s)
                .secs("gpu_comm_s", comm_s)
                .ratio("gpu_over_cpu", gpu_s / cpu_s)
        })
        .collect()
}

/// A9: the planner cell on every era device × the PCIe-bound Fig 8 stack
/// and the atomic-bound §III-C stack. The paper device's Fig 8 cell is
/// the `planner` section's, already run.
fn planner_sweep(quick: bool, planner: &Row, gates: &mut Gates) -> Vec<Row> {
    let stacks = [stack(quick, 5.2, 222), stack(quick, 2.1, 555)];
    let paper = DeviceProps::tesla_m2070();
    let mut rows = Vec::new();
    for props in era_matrix() {
        for (i, w) in stacks.iter().enumerate() {
            let cell = if props.name == paper.name && i == 0 {
                planner.clone()
            } else {
                row(quick).extend(&plan_cell(&props, w, gates).0)
            };
            rows.push(
                Row::default()
                    .text("machine", &props.name)
                    .text("stack", &w.label)
                    .extend(&cell),
            );
        }
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let option = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out_path = option("--out").unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let check_path = option("--check");
    let started = Instant::now();
    let mut gates = Gates::default();

    let ladder = if quick {
        vec![Workload::of_megabytes(0.5, 100)]
    } else {
        Workload::fig8_set()
    };
    // The ablations below share the ladder's largest stack.
    let w = ladder.last().expect("non-empty ladder");
    let datasize = datasize(&ladder, quick, &mut gates);
    let (ablation, ring_ratio) = depth_ablation(w, quick, &mut gates);
    let table_cache = table_cache(w, quick, &mut gates);
    let failover = failover(w, quick, &mut gates);
    let (compaction, compact_ratio) = compaction(w, quick, &mut gates);
    let (accumulation, accum_ratio) = accumulation(w, quick, &mut gates);
    let (cell, planner_ratio) = plan_cell(&DeviceProps::tesla_m2070(), w, &mut gates);
    let planner = row(quick).extend(&cell);
    let (integrity, integrity_ratio) = integrity(w, quick, &mut gates);
    let (hardware, hardware_accumulation) = hardware(quick, &mut gates);
    let report = Row::default()
        .text("generated_by", "bench_report")
        .value("quick", quick)
        .rows("datasize", &datasize)
        .value("depth_ablation_quick", quick)
        .rows("depth_ablation", &ablation)
        .ratio("ring_depth3_over_serial", ring_ratio)
        .row("table_cache", &table_cache)
        .row("failover", &failover)
        .row("compaction", &compaction)
        .row("accumulation", &accumulation)
        .row("planner", &planner)
        .row("integrity", &integrity)
        .rows("layout", &layout(quick, &mut gates))
        .rows("pixel_percentage", &pixel_percentage(quick, &mut gates))
        .rows("slab_size", &slab_size(quick, &mut gates))
        .rows("atomics", &atomics(quick, &mut gates))
        .rows("depth_table", &depth_table(quick, &mut gates))
        .rows("hardware", &hardware)
        .rows("hardware_accumulation", &hardware_accumulation)
        .rows("multi_gpu", &multi_gpu(quick, &mut gates))
        .rows("fullscale", &fullscale(quick))
        .rows("planner_sweep", &planner_sweep(quick, &planner, &mut gates))
        .raw(
            "wall_clock_s",
            format!("{:.3}", started.elapsed().as_secs_f64()),
        )
        .document();
    std::fs::write(&out_path, &report).expect("write report");
    println!("wrote {out_path} ({} bytes)", report.len());
    println!("{} gate(s) checked, {} failed", gates.checked, gates.failed);
    if gates.failed > 0 {
        std::process::exit(1);
    }

    if let Some(path) = check_path {
        let budgets = Budgets::load(&path);
        budgets.enforce("compact_dense_kernel_ratio_max", compact_ratio);
        budgets.enforce("privatized_atomic_kernel_ratio_max", accum_ratio);
        budgets.enforce("ring_depth3_serial_ratio_max", ring_ratio);
        budgets.enforce("plan_auto_best_fixed_ratio_max", planner_ratio);
        budgets.enforce("verify_off_ratio_max", integrity_ratio);
    }
}
