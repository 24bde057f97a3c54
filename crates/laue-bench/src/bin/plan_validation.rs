//! **Planner validation**: does the self-tuning execution planner keep its
//! two promises across the hardware era matrix?
//!
//! 1. **Accuracy** — the virtual time the planner *predicts* for its chosen
//!    plan stays within 15 % of the virtual time the run then *measures*.
//! 2. **Regret** — `--plan auto` loses at most 5 % to the best fixed
//!    configuration on the same device and workload.
//!
//! Both are swept over [`laue_bench::devices::era_matrix`] × the PCIe-bound
//! Fig 8 stack and the atomic-bound §III-C ablation stack. The binary exits
//! nonzero on any violation, so CI can gate on it.
//!
//! Run: `cargo run --release -p laue-bench --bin plan_validation`

use laue_bench::devices::era_matrix;
use laue_bench::{ms, print_table, standard_config, Workload};
use laue_core::gpu::Layout;
use laue_core::{AccumulationMode, CompactionMode, PlanMode};
use laue_pipeline::{Engine, Pipeline, RunReport};

/// Planner budget: |predicted − measured| / measured on the chosen plan.
const MAX_PREDICTION_ERROR: f64 = 0.15;
/// Planner budget: auto total time over the best fixed total time.
const MAX_AUTO_REGRET: f64 = 1.05;

/// The fixed configurations auto competes against: every GPU engine the
/// CLI exposes, plus the deeper ring depths of the pipelined engine.
fn fixed_field() -> Vec<(&'static str, Engine, Option<usize>)> {
    vec![
        (
            "gpu-1d",
            Engine::Gpu {
                layout: Layout::Flat1d,
            },
            None,
        ),
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
    ]
}

/// Run one engine on one device with a cold cache (fresh `Pipeline`), so
/// every contender pays the same table-building costs the planner models;
/// `pipeline_depth` pins the ring depth.
fn run_cold(
    props: &cuda_sim::DeviceProps,
    w: &Workload,
    cfg: &laue_core::ReconstructionConfig,
    engine: Engine,
    pipeline_depth: Option<usize>,
) -> RunReport {
    let pipeline = Pipeline {
        device: props.clone(),
        pipeline_depth,
        ..Pipeline::default()
    };
    let mut source = w.source();
    pipeline
        .run_source(&mut source, &w.scan.geometry, cfg, engine)
        .expect("validation run")
}

fn main() {
    let workloads = [
        Workload::of_megabytes(5.2, 222),
        Workload::of_megabytes(2.1, 555),
    ];
    let mut base = standard_config();
    base.compaction = CompactionMode::Auto;
    base.accumulation = AccumulationMode::Auto;

    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for props in era_matrix() {
        for w in &workloads {
            let mut auto_cfg = base.clone();
            auto_cfg.plan = PlanMode::Auto;
            let auto = run_cold(&props, w, &auto_cfg, Engine::GpuPipelined, None);
            let explain = auto.plan.as_ref().expect("plan auto explain block");
            let err = explain.prediction_error();
            if err >= MAX_PREDICTION_ERROR {
                failures.push(format!(
                    "{} / {}: prediction error {:.1} % ≥ {:.0} % (predicted {:.4} s, measured {:.4} s)",
                    props.name,
                    w.label,
                    100.0 * err,
                    100.0 * MAX_PREDICTION_ERROR,
                    explain.predicted_s,
                    explain.measured_s,
                ));
            }

            let mut best: Option<(&'static str, f64)> = None;
            for (label, engine, depth) in fixed_field() {
                let fixed = run_cold(&props, w, &base, engine, depth);
                assert_eq!(
                    auto.image.data, fixed.image.data,
                    "auto and {label} diverge on {} / {}",
                    props.name, w.label
                );
                if best.is_none_or(|(_, t)| fixed.total_time_s < t) {
                    best = Some((label, fixed.total_time_s));
                }
            }
            let (best_label, best_s) = best.expect("fixed field is non-empty");
            let regret = auto.total_time_s / best_s;
            if regret > MAX_AUTO_REGRET {
                failures.push(format!(
                    "{} / {}: auto {} ms loses {:.1} % to fixed {} at {} ms (budget {:.0} %)",
                    props.name,
                    w.label,
                    ms(auto.total_time_s),
                    100.0 * (regret - 1.0),
                    best_label,
                    ms(best_s),
                    100.0 * (MAX_AUTO_REGRET - 1.0),
                ));
            }
            rows.push(vec![
                props.name.clone(),
                w.label.clone(),
                explain.chosen.clone(),
                ms(explain.predicted_s),
                ms(explain.measured_s),
                format!("{:.1} %", 100.0 * err),
                format!("{} ({})", ms(best_s), best_label),
                format!("{:.3}", regret),
            ]);
        }
    }

    println!("planner validation — era matrix × {{Fig 8, §III-C}} stacks\n");
    print_table(
        &[
            "machine",
            "stack",
            "auto chose",
            "predicted (ms)",
            "measured (ms)",
            "error",
            "best fixed (ms)",
            "auto/best",
        ],
        &rows,
    );
    println!(
        "\nbudgets: prediction error < {:.0} %, auto/best ≤ {:.2}",
        100.0 * MAX_PREDICTION_ERROR,
        MAX_AUTO_REGRET
    );
    if failures.is_empty() {
        println!("planner validation PASSED");
    } else {
        println!("\nplanner validation FAILED:");
        for f in &failures {
            println!("  - {f}");
        }
        std::process::exit(1);
    }
}
