//! Machine-readable pipeline benchmark: one JSON report covering the
//! CPU/GPU ladder, the ring-depth ablation, and the depth-table cache.
//!
//! Times are **virtual seconds** from the calibrated M2070/E5630 models
//! (deterministic, machine-independent); `wall_clock_s` is the real time
//! the harness itself took, for CI trend-watching only.
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

use std::fmt::Write as _;
use std::time::Instant;

use cuda_sim::{Device, DeviceProps};
use laue_bench::budgets::Budgets;
use laue_bench::{delta_percentile, standard_config, Workload};
use laue_core::cache::TableCacheStats;
use laue_core::gpu::{self, GpuOptions, PipelineDepth};
use laue_core::{AccumulationMode, CompactionMode, IntegrityMode, PlanMode};
use laue_pipeline::{Engine, Pipeline};

fn json_stats(s: &TableCacheStats) -> String {
    format!(
        "{{\"host_hits\": {}, \"host_misses\": {}, \"device_hits\": {}, \
         \"device_misses\": {}, \"evictions\": {}, \"resident_bytes\": {}}}",
        s.host_hits, s.host_misses, s.device_hits, s.device_misses, s.evictions, s.resident_bytes
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let check_path = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1).cloned());
    let started = Instant::now();

    // 1. The CPU/GPU ladder over the Fig 8 sizes (one size in quick mode).
    let workloads: Vec<Workload> = if quick {
        vec![Workload::of_megabytes(0.5, 100)]
    } else {
        Workload::fig8_set()
    };
    let cfg = standard_config();
    let pipeline = Pipeline::default();
    let mut ladder = Vec::new();
    let mut ladder_totals = Vec::new(); // (label, cpu_s, gpu_serial_s, gpu_pipe_s)
    for w in &workloads {
        // Every row (and every section below) carries the quick marker so
        // a consumer can never mistake the abbreviated quick ladder for
        // the full Fig 8 one.
        let mut row = format!(
            "    {{\"quick\": {quick}, \"label\": \"{}\", \"bytes\": {}",
            w.label, w.bytes
        );
        let mut cpu_total = 0.0;
        let mut serial = (0.0, 0.0, 0.0); // (total, comm, compute)
        let mut pipe_total = 0.0;
        for (key, engine) in [
            ("cpu_seq", Engine::CpuSeq),
            (
                "gpu_serial",
                Engine::Gpu {
                    layout: laue_core::gpu::Layout::Flat1d,
                },
            ),
            ("gpu_pipe", Engine::GpuPipelined),
        ] {
            let mut source = w.source();
            let r = pipeline
                .run_source(&mut source, &w.scan.geometry, &cfg, engine)
                .expect("pipeline run");
            match key {
                "cpu_seq" => cpu_total = r.total_time_s,
                "gpu_serial" => serial = (r.total_time_s, r.comm_time_s, r.compute_time_s),
                "gpu_pipe" => pipe_total = r.total_time_s,
                _ => {}
            }
            write!(
                row,
                ", \"{key}\": {{\"total_s\": {:.9}, \"comm_s\": {:.9}, \
                 \"bus_wait_s\": {:.9}, \"compute_s\": {:.9}, \
                 \"pipeline_depth\": {}, \"replans\": {}, \
                 \"transfer_retries\": {}, \"trace_dropped\": {}}}",
                r.total_time_s,
                r.comm_time_s,
                r.bus_wait_s,
                r.compute_time_s,
                r.pipeline_depth,
                r.gpu_replans,
                r.gpu_transfer_retries,
                r.trace_dropped
            )
            .unwrap();
        }
        // Which resource dominates the serial GPU run at this size, and how
        // much of it the overlapped ring claws back — the §III comm-vs-comp
        // axis as two derived columns.
        let (serial_total, serial_comm, serial_compute) = serial;
        write!(
            row,
            ", \"bus_bound\": {}, \"ring_saving_s\": {:.9}",
            serial_comm > serial_compute,
            serial_total - pipe_total
        )
        .unwrap();
        row.push('}');
        ladder.push(row);
        ladder_totals.push((w.label.clone(), cpu_total, serial.0, pipe_total));
    }

    // Ladder gates: the paper's headline orderings must hold at *every*
    // Fig 8 size — GPU beats CPU and the overlapped ring never loses to
    // the serial schedule. They only mean something on the full
    // multi-size ladder; the quick mode's single 0.5 MB row (marked
    // "quick" above) is skipped.
    if quick {
        println!("ladder gates skipped (quick mode: single-row ladder)");
    } else {
        for (label, cpu_s, serial_s, pipe_s) in &ladder_totals {
            assert!(
                serial_s < cpu_s,
                "ladder gate: gpu-serial ({serial_s:.4} s) must beat cpu-seq \
                 ({cpu_s:.4} s) at {label}"
            );
            assert!(
                pipe_s <= serial_s,
                "ladder gate: the overlapped ring ({pipe_s:.4} s) must not lose \
                 to the serial schedule ({serial_s:.4} s) at {label}"
            );
        }
        println!(
            "ladder gates: gpu < cpu and pipe <= serial at all {} sizes",
            ladder_totals.len()
        );
    }

    // 2. Ring-depth ablation on the largest stack, memory-capped so it
    // streams in many slabs.
    let w = workloads.last().unwrap();
    let props = DeviceProps {
        total_mem: 32 * 1024 * 1024,
        ..DeviceProps::tesla_m2070()
    };
    let mut slab_cfg = standard_config();
    slab_cfg.rows_per_slab = Some(if quick { 4 } else { 8 });
    let mut ablation = Vec::new();
    let mut ring_elapsed = Vec::new();
    for k in [1usize, 2, 3, 4] {
        let device = Device::new(props.clone());
        let mut source = w.source();
        let out = gpu::reconstruct_pipelined(
            &device,
            &mut source,
            &w.scan.geometry,
            &slab_cfg,
            GpuOptions::default(),
            PipelineDepth(k),
            None,
        )
        .expect("reconstruction");
        // No free bandwidth: one half-duplex link can never finish the
        // schedule faster than the total transfer time it carries.
        assert!(
            out.elapsed_s + 1e-12 >= out.meters.comm_time_s,
            "ring depth {k} finished below the bus floor ({} vs {} s)",
            out.elapsed_s,
            out.meters.comm_time_s
        );
        if k == 1 {
            assert_eq!(
                out.meters.bus_wait_s, 0.0,
                "the serial schedule never contends with itself"
            );
        }
        ring_elapsed.push(out.elapsed_s);
        ablation.push(format!(
            "    {{\"ring_depth\": {}, \"n_slabs\": {}, \"total_s\": {:.9}, \
             \"comm_s\": {:.9}, \"bus_wait_s\": {:.9}, \"compute_s\": {:.9}}}",
            out.pipeline_depth,
            out.n_slabs,
            out.elapsed_s,
            out.meters.comm_time_s,
            out.meters.bus_wait_s,
            out.meters.compute_time_s
        ));
    }
    let ring_ratio = ring_elapsed[2] / ring_elapsed[0];

    // 3. Depth-table cache: a cold run computes and uploads the tables, a
    // warm run on the same pipeline reuses the resident copy.
    let cache_pipeline = Pipeline::default();
    let run_tables = || {
        let mut source = w.source();
        cache_pipeline
            .run_source(&mut source, &w.scan.geometry, &cfg, Engine::GpuTables)
            .expect("gpu-tables run")
    };
    let cold = run_tables();
    let warm = run_tables();
    assert_eq!(
        cold.image.data, warm.image.data,
        "warm run must be bit-identical"
    );

    // 4. Multi-GPU failover: a 4-device fleet, clean vs. losing one device
    // at its first slab boundary — survivors absorb the rows, same bits.
    // Small slabs so even the quick workload gives every device several
    // launches (the scripted death needs a second one to trip at).
    let fleet = Engine::GpuMulti { devices: 4 };
    let mut fleet_cfg = standard_config();
    fleet_cfg.rows_per_slab = Some(if quick { 4 } else { 8 });
    let mut source = w.source();
    let clean_fleet = Pipeline::default()
        .run_source(&mut source, &w.scan.geometry, &fleet_cfg, fleet)
        .expect("gpu-multi run");
    let faulty = Pipeline {
        fault_plan: Some(cuda_sim::FaultPlan::new(0).fail_after_launches(1)),
        fault_device: Some(1),
        ..Pipeline::default()
    };
    let mut source = w.source();
    let degraded_fleet = faulty
        .run_source(&mut source, &w.scan.geometry, &fleet_cfg, fleet)
        .expect("gpu-multi failover run");
    assert_eq!(
        clean_fleet.image.data, degraded_fleet.image.data,
        "failover must be bit-identical"
    );
    assert_eq!(degraded_fleet.recovery.devices_lost, 1);

    // 5. Sparsity compaction: dense vs compacted gpu-1d at the paper's
    // ~25 %-active operating point (Fig 9's sparsest column). The compact
    // run must stay bit-identical and — prescan cost included — cut the
    // modeled kernel time; `--check` turns the ratio into a CI gate.
    let sparse_cutoff = delta_percentile(w, 0.75);
    let gpu1d = Engine::Gpu {
        layout: laue_core::gpu::Layout::Flat1d,
    };
    let run_mode = |mode: CompactionMode| {
        let mut c = standard_config();
        c.intensity_cutoff = sparse_cutoff;
        c.compaction = mode;
        let mut source = w.source();
        Pipeline::default()
            .run_source(&mut source, &w.scan.geometry, &c, gpu1d)
            .expect("compaction run")
    };
    let dense = run_mode(CompactionMode::Off);
    let compact = run_mode(CompactionMode::On);
    let auto = run_mode(CompactionMode::Auto);
    assert_eq!(
        dense.image.data, compact.image.data,
        "compacted run must be bit-identical to dense"
    );
    assert_eq!(
        dense.image.data, auto.image.data,
        "auto run must be bit-identical to dense"
    );
    let mean_density = |r: &laue_pipeline::RunReport| {
        if r.slab_densities.is_empty() {
            0.0
        } else {
            r.slab_densities.iter().sum::<f64>() / r.slab_densities.len() as f64
        }
    };
    let compact_ratio = compact.compute_time_s / dense.compute_time_s;

    // 6. Accumulation strategy: the paper's CAS-loop atomicAdd(double) vs
    // the shared-memory privatized tiles, dense gpu-1d on the same stack.
    // The privatized run must stay bit-identical and cut the modeled
    // kernel time; `--check` gates the ratio when the baseline file holds
    // a second float.
    let run_accum = |mode: AccumulationMode| {
        let mut c = standard_config();
        c.accumulation = mode;
        let mut source = w.source();
        Pipeline::default()
            .run_source(&mut source, &w.scan.geometry, &c, gpu1d)
            .expect("accumulation run")
    };
    let atomic = run_accum(AccumulationMode::Atomic);
    let privatized = run_accum(AccumulationMode::Privatized);
    assert_eq!(
        atomic.image.data, privatized.image.data,
        "privatized run must be bit-identical to atomic"
    );
    assert_eq!(
        privatized.stats.privatized_pairs, privatized.stats.pairs_total,
        "200 bins fit the M2070 tile, so every slab privatizes"
    );
    let accum_ratio = privatized.compute_time_s / atomic.compute_time_s;

    // 7. Self-tuning planner: `--plan auto` vs the best fixed configuration
    // on the same stack. The explain block's predicted virtual time must
    // track the measured one, and auto must stay within a few percent of
    // the best fixed contender; `--check` gates the ratio when the baseline
    // file holds a fourth float.
    let run_fixed = |engine: Engine, pipeline_depth: Option<usize>| {
        let mut c = standard_config();
        c.compaction = CompactionMode::Auto;
        c.accumulation = AccumulationMode::Auto;
        let mut source = w.source();
        Pipeline {
            pipeline_depth,
            ..Pipeline::default()
        }
        .run_source(&mut source, &w.scan.geometry, &c, engine)
        .expect("fixed plan run")
    };
    let mut c = standard_config();
    c.plan = PlanMode::Auto;
    c.compaction = CompactionMode::Auto;
    c.accumulation = AccumulationMode::Auto;
    let mut source = w.source();
    let auto_plan = Pipeline::default()
        .run_source(&mut source, &w.scan.geometry, &c, Engine::GpuPipelined)
        .expect("plan auto run");
    let explain = auto_plan.plan.clone().expect("plan auto explain block");
    let mut best_fixed: Option<(&str, f64)> = None;
    for (label, engine, depth) in [
        ("gpu-1d", gpu1d, None),
        (
            "gpu-3d",
            Engine::Gpu {
                layout: laue_core::gpu::Layout::Pointer3d,
            },
            None,
        ),
        ("gpu-tables", Engine::GpuTables, None),
        ("gpu-pipe-k2", Engine::GpuPipelined, Some(2)),
        ("gpu-pipe-k3", Engine::GpuPipelined, Some(3)),
    ] {
        let r = run_fixed(engine, depth);
        assert_eq!(
            auto_plan.image.data, r.image.data,
            "plan auto diverges from {label}"
        );
        if best_fixed.is_none_or(|(_, t)| r.total_time_s < t) {
            best_fixed = Some((label, r.total_time_s));
        }
    }
    let (best_fixed_label, best_fixed_s) = best_fixed.expect("fixed field is non-empty");
    let planner_ratio = auto_plan.total_time_s / best_fixed_s;

    // 8. End-to-end data integrity: the verification overhead of
    // `--integrity verify` on the clean Fig 8 stack (`--check` gates the
    // verify/off total-time ratio when the baseline holds a fifth float),
    // and a scrub run under injected silent corruption that must come back
    // bit-identical with every detection corrected.
    let run_integrity = |mode: IntegrityMode, plan: Option<cuda_sim::FaultPlan>| {
        let mut c = standard_config();
        c.integrity = mode;
        let p = Pipeline {
            fault_plan: plan,
            ..Pipeline::default()
        };
        let mut source = w.source();
        p.run_source(&mut source, &w.scan.geometry, &c, Engine::GpuPipelined)
            .expect("integrity run")
    };
    let integrity_off = run_integrity(IntegrityMode::Off, None);
    let verify = run_integrity(IntegrityMode::Verify, None);
    assert_eq!(
        integrity_off.image.data, verify.image.data,
        "verification must not change a clean run's bits"
    );
    assert!(verify.integrity.checks_run > 0, "verify ran no checks");
    assert_eq!(
        verify.integrity.corruptions_detected, 0,
        "no false positives on a healthy device"
    );
    let integrity_ratio = verify.total_time_s / integrity_off.total_time_s;
    let scrub = run_integrity(
        IntegrityMode::Scrub,
        Some(
            cuda_sim::FaultPlan::new(5)
                .flip_nth_h2d(2)
                .flip_nth_kernel(1)
                .flip_op_index(3),
        ),
    );
    assert_eq!(
        integrity_off.image.data, scrub.image.data,
        "scrub must repair injected corruption bit-identically"
    );
    let scrub_injected = scrub.faults_injected.expect("fault plan installed");
    assert!(
        scrub_injected.total_silent() >= 1,
        "the schedule injected nothing: {scrub_injected:?}"
    );
    assert!(
        scrub.integrity.corruptions_detected >= 1,
        "injected corruption went undetected: {:?}",
        scrub.integrity
    );
    assert_eq!(
        scrub.integrity.corruptions_corrected, scrub.integrity.corruptions_detected,
        "scrub left a detection unrepaired: {:?}",
        scrub.integrity
    );

    let mut json = String::from("{\n");
    writeln!(json, "  \"generated_by\": \"bench_report\",").unwrap();
    writeln!(json, "  \"quick\": {quick},").unwrap();
    writeln!(json, "  \"datasize\": [").unwrap();
    writeln!(json, "{}", ladder.join(",\n")).unwrap();
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"depth_ablation_quick\": {quick},").unwrap();
    writeln!(json, "  \"depth_ablation\": [").unwrap();
    writeln!(json, "{}", ablation.join(",\n")).unwrap();
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"ring_depth3_over_serial\": {ring_ratio:.6},").unwrap();
    writeln!(json, "  \"table_cache\": {{").unwrap();
    writeln!(json, "    \"quick\": {quick},").unwrap();
    writeln!(json, "    \"cold_total_s\": {:.9},", cold.total_time_s).unwrap();
    writeln!(json, "    \"warm_total_s\": {:.9},", warm.total_time_s).unwrap();
    writeln!(json, "    \"cold\": {},", json_stats(&cold.table_cache)).unwrap();
    writeln!(json, "    \"warm\": {}", json_stats(&warm.table_cache)).unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"failover\": {{").unwrap();
    writeln!(json, "    \"quick\": {quick},").unwrap();
    writeln!(
        json,
        "    \"clean_total_s\": {:.9},",
        clean_fleet.total_time_s
    )
    .unwrap();
    writeln!(
        json,
        "    \"degraded_total_s\": {:.9},",
        degraded_fleet.total_time_s
    )
    .unwrap();
    writeln!(
        json,
        "    \"devices_lost\": {},",
        degraded_fleet.recovery.devices_lost
    )
    .unwrap();
    writeln!(
        json,
        "    \"salvaged_slabs\": {},",
        degraded_fleet.recovery.salvaged_slabs
    )
    .unwrap();
    writeln!(
        json,
        "    \"recomputed_slabs\": {}",
        degraded_fleet.recovery.recomputed_slabs
    )
    .unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"compaction\": {{").unwrap();
    writeln!(json, "    \"quick\": {quick},").unwrap();
    writeln!(json, "    \"cutoff\": {sparse_cutoff:.6},").unwrap();
    writeln!(
        json,
        "    \"active_fraction\": {:.6},",
        dense.stats.active_fraction()
    )
    .unwrap();
    writeln!(
        json,
        "    \"dense_compute_s\": {:.9},",
        dense.compute_time_s
    )
    .unwrap();
    writeln!(
        json,
        "    \"compact_compute_s\": {:.9},",
        compact.compute_time_s
    )
    .unwrap();
    writeln!(json, "    \"auto_compute_s\": {:.9},", auto.compute_time_s).unwrap();
    writeln!(json, "    \"compact_over_dense\": {compact_ratio:.6},").unwrap();
    writeln!(
        json,
        "    \"mean_slab_density\": {:.6},",
        mean_density(&compact)
    )
    .unwrap();
    writeln!(
        json,
        "    \"compacted_pairs\": {},",
        compact.stats.compacted_pairs
    )
    .unwrap();
    writeln!(json, "    \"culled_rows\": {}", compact.stats.culled_rows).unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"accumulation\": {{").unwrap();
    writeln!(json, "    \"quick\": {quick},").unwrap();
    writeln!(
        json,
        "    \"atomic_compute_s\": {:.9},",
        atomic.compute_time_s
    )
    .unwrap();
    writeln!(
        json,
        "    \"privatized_compute_s\": {:.9},",
        privatized.compute_time_s
    )
    .unwrap();
    writeln!(json, "    \"privatized_over_atomic\": {accum_ratio:.6},").unwrap();
    writeln!(
        json,
        "    \"privatized_pairs\": {},",
        privatized.stats.privatized_pairs
    )
    .unwrap();
    writeln!(
        json,
        "    \"accum_fallback_pairs\": {}",
        privatized.stats.accum_fallback_pairs
    )
    .unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"planner\": {{").unwrap();
    writeln!(json, "    \"quick\": {quick},").unwrap();
    writeln!(json, "    \"chosen\": \"{}\",", explain.chosen).unwrap();
    writeln!(json, "    \"predicted_s\": {:.9},", explain.predicted_s).unwrap();
    writeln!(json, "    \"measured_s\": {:.9},", explain.measured_s).unwrap();
    writeln!(
        json,
        "    \"prediction_error\": {:.6},",
        explain.prediction_error()
    )
    .unwrap();
    writeln!(json, "    \"auto_total_s\": {:.9},", auto_plan.total_time_s).unwrap();
    writeln!(json, "    \"best_fixed\": \"{best_fixed_label}\",").unwrap();
    writeln!(json, "    \"best_fixed_total_s\": {best_fixed_s:.9},").unwrap();
    writeln!(json, "    \"auto_over_best\": {planner_ratio:.6}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"integrity\": {{").unwrap();
    writeln!(json, "    \"quick\": {quick},").unwrap();
    writeln!(
        json,
        "    \"off_total_s\": {:.9},",
        integrity_off.total_time_s
    )
    .unwrap();
    writeln!(json, "    \"verify_total_s\": {:.9},", verify.total_time_s).unwrap();
    writeln!(json, "    \"verify_over_off\": {integrity_ratio:.6},").unwrap();
    writeln!(
        json,
        "    \"verify_checks\": {},",
        verify.integrity.checks_run
    )
    .unwrap();
    writeln!(
        json,
        "    \"verify_host_cpu_s\": {:.9},",
        verify.integrity.verify_host_cpu_s
    )
    .unwrap();
    writeln!(
        json,
        "    \"exposed_overhead_s\": {:.9},",
        verify.integrity.exposed_overhead_s
    )
    .unwrap();
    writeln!(
        json,
        "    \"measured_delta_s\": {:.9},",
        verify.total_time_s - integrity_off.total_time_s
    )
    .unwrap();
    writeln!(json, "    \"scrub_total_s\": {:.9},", scrub.total_time_s).unwrap();
    writeln!(
        json,
        "    \"scrub_silent_injected\": {},",
        scrub_injected.total_silent()
    )
    .unwrap();
    writeln!(
        json,
        "    \"scrub_detected\": {},",
        scrub.integrity.corruptions_detected
    )
    .unwrap();
    writeln!(
        json,
        "    \"scrub_corrected\": {},",
        scrub.integrity.corruptions_corrected
    )
    .unwrap();
    writeln!(
        json,
        "    \"scrub_retries\": {}",
        scrub.integrity.scrub_retries
    )
    .unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(
        json,
        "  \"wall_clock_s\": {:.3}",
        started.elapsed().as_secs_f64()
    )
    .unwrap();
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path} ({} bytes)", json.len());
    println!(
        "cache: cold {:.4} s → warm {:.4} s ({} hit(s) warm)",
        cold.total_time_s,
        warm.total_time_s,
        warm.table_cache.hits()
    );
    println!(
        "compaction @ {:.1} % active: dense {:.4} s → compact {:.4} s kernel \
         (ratio {:.3}, mean slab density {:.3})",
        100.0 * dense.stats.active_fraction(),
        dense.compute_time_s,
        compact.compute_time_s,
        compact_ratio,
        mean_density(&compact),
    );
    println!(
        "accumulation: atomic {:.4} s → privatized {:.4} s kernel (ratio {:.3})",
        atomic.compute_time_s, privatized.compute_time_s, accum_ratio,
    );
    println!(
        "planner: auto chose {} at {:.4} s ({:.1} % prediction error) vs best fixed {} at {:.4} s (ratio {:.3})",
        explain.chosen,
        auto_plan.total_time_s,
        100.0 * explain.prediction_error(),
        best_fixed_label,
        best_fixed_s,
        planner_ratio,
    );
    println!(
        "integrity: off {:.4} s → verify {:.4} s (ratio {:.3}, {} check(s)); \
         scrub corrected {}/{} injected silent fault(s)",
        integrity_off.total_time_s,
        verify.total_time_s,
        integrity_ratio,
        verify.integrity.checks_run,
        scrub.integrity.corruptions_corrected,
        scrub_injected.total_silent(),
    );

    if let Some(path) = check_path {
        let budgets = Budgets::load(&path);
        budgets.enforce("compact_dense_kernel_ratio_max", compact_ratio);
        budgets.enforce("privatized_atomic_kernel_ratio_max", accum_ratio);
        budgets.enforce("ring_depth3_serial_ratio_max", ring_ratio);
        budgets.enforce("plan_auto_best_fixed_ratio_max", planner_ratio);
        budgets.enforce("verify_off_ratio_max", integrity_ratio);
    }
}
