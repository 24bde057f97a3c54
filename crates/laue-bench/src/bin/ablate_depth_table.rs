//! **Design ablation (the paper's kernel signature)**: in-kernel
//! triangulation vs host-precomputed depth tables.
//!
//! The original `setTwo` kernel receives precomputed `edge` / `firstedge` /
//! `gpuPointArray` arrays — the triangulation inputs were partially built on
//! the host and shipped over PCIe. This ablation brackets that design
//! space: triangulate entirely on-device (compute-heavy, transfer-light) or
//! ship the complete per-(pixel, step) depth table (transfer-heavy,
//! compute-light, plus a host-side table-building cost modeled on the
//! E5630).
//!
//! Run: `cargo run --release -p laue-bench --bin ablate_depth_table`

use cuda_sim::{Cost, Device, DeviceProps, HostProps};
use laue_bench::{ms, print_table, standard_config, Workload};
use laue_core::gpu::{self, GpuOptions, Layout, Triangulation};

fn main() {
    let cfg = standard_config();
    let host = HostProps::xeon_e5630();
    println!("depth-table ablation — in-kernel vs host-precomputed triangulation\n");
    let mut rows = Vec::new();
    for mb in [2.1f64, 5.2] {
        let w = Workload::of_megabytes(mb, 606);
        let mut reference: Option<Vec<f64>> = None;
        for (name, tri) in [
            ("in-kernel", Triangulation::InKernel),
            ("host tables", Triangulation::HostTables),
        ] {
            let device = Device::new(DeviceProps::tesla_m2070());
            let mut source = w.source();
            let out = gpu::reconstruct_with_options(
                &device,
                &mut source,
                &w.scan.geometry,
                &cfg,
                GpuOptions {
                    layout: Layout::Flat1d,
                    triangulation: tri,
                },
            )
            .expect("run");
            match &reference {
                None => reference = Some(out.image.data.clone()),
                Some(r) => assert_eq!(r, &out.image.data, "modes diverge"),
            }
            // Host-side table building runs on one E5630 core.
            let host_s = host.kernel_time(
                &Cost {
                    flops: out.host_table_flops,
                    ..Cost::default()
                },
                1,
            );
            rows.push(vec![
                w.label.clone(),
                name.to_string(),
                ms(out.elapsed_s + host_s),
                ms(out.meters.compute_time_s),
                ms(out.meters.comm_time_s),
                ms(host_s),
            ]);
        }
    }
    print_table(
        &[
            "dataset",
            "triangulation",
            "total (ms)",
            "kernel (ms)",
            "transfer (ms)",
            "host prep (ms)",
        ],
        &rows,
    );
    println!(
        "\nthe depth table doubles the shipped bytes and moves the \
         triangulation onto one slow CPU core — on this workload the paper's \
         in-kernel choice wins, which is why its kernel computes \
         device_pixel_xyz_to_depth on the GPU."
    );
}
