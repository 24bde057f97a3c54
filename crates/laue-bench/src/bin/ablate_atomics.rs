//! **Design ablation (paper §III-C)**: what the CAS-loop `atomicAdd(double)`
//! costs — and what the shared-memory privatized accumulator recovers.
//!
//! The paper implements double-precision atomic accumulation with an
//! `atomicCAS` loop because Fermi lacks native f64 atomicAdd. This ablation
//! re-costs the recorded kernels with the atomic term removed to show the
//! modeled cost share, and runs the real privatized path
//! (`--accumulation privatized`) next to that bound.
//!
//! Run: `cargo run --release -p laue-bench --bin ablate_atomics`

use cuda_sim::{Cost, Device, DeviceProps};
use laue_bench::{ms, print_table, standard_config, Workload};
use laue_core::gpu::{self, Layout};
use laue_core::AccumulationMode;

fn main() {
    let w = Workload::of_megabytes(2.1, 555);
    let cfg = standard_config();
    let mut cfg_priv = cfg.clone();
    cfg_priv.accumulation = AccumulationMode::Privatized;
    println!("atomicAdd(double) ablation — {} stack\n", w.label);

    // Modeled cost share: the paper's CAS path, the free-accumulation lower
    // bound, and the real privatized path between them.
    let props = DeviceProps::tesla_m2070();
    let device = Device::new(props.clone());
    let mut source = w.source();
    let out = gpu::reconstruct(&device, &mut source, &w.scan.geometry, &cfg, Layout::Flat1d)
        .expect("run");
    let cost = out.meters.kernel_cost;
    let no_atomics = Cost {
        atomic_ops: 0,
        atomic_max_chain: 0,
        ..cost
    };
    let t_with = props.kernel_time(&cost);
    let t_without = props.kernel_time(&no_atomics);

    let device = Device::new(props.clone());
    let mut source = w.source();
    let priv_out = gpu::reconstruct_with_options(
        &device,
        &mut source,
        &w.scan.geometry,
        &cfg_priv,
        gpu::GpuOptions {
            layout: Layout::Flat1d,
            ..gpu::GpuOptions::default()
        },
    )
    .expect("privatized run");
    assert_eq!(
        out.image.data, priv_out.image.data,
        "privatized accumulation must be bit-identical — ablation invalid"
    );
    let priv_cost = priv_out.meters.kernel_cost;
    let t_priv = props.kernel_time(&priv_cost);

    print_table(
        &["variant", "kernel time (ms)", "atomic ops", "deposits"],
        &[
            vec![
                "CAS atomicAdd (paper)".into(),
                ms(t_with),
                cost.atomic_ops.to_string(),
                out.stats.deposits.to_string(),
            ],
            vec![
                "privatized shared tiles".into(),
                ms(t_priv),
                priv_cost.atomic_ops.to_string(),
                priv_out.stats.deposits.to_string(),
            ],
            vec![
                "free accumulation (bound)".into(),
                ms(t_without),
                "0".into(),
                out.stats.deposits.to_string(),
            ],
        ],
    );
    println!(
        "\natomics account for {:.1} % of the modeled kernel time. The\n\
         privatized path pays one global add per touched (pixel, bin) cell\n\
         instead of one per deposit ({} vs {} global atomics here), plus the\n\
         shared-tile traffic — it lands at {:.1} % of the CAS kernel time\n\
         against the free-accumulation bound's {:.1} %.\n",
        100.0 * (t_with - t_without) / t_with,
        priv_cost.atomic_ops,
        cost.atomic_ops,
        100.0 * t_priv / t_with,
        100.0 * t_without / t_with,
    );
}
