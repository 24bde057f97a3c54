//! Multi-node scaling study: strong and weak scaling of the distributed
//! `gpu-cluster` engine over a metered interconnect (`BENCH_scaling.json`).
//!
//! Times are **virtual seconds** from the calibrated M2070/E5630 models and
//! the interconnect presets, so the curves are deterministic and
//! machine-independent. Every cluster run is asserted bit-identical to the
//! single-GPU reference before its time is recorded — a scaling curve over
//! diverging results is meaningless.
//!
//! Run: `cargo run --release -p laue-bench --bin bench_scaling -- \
//!       [--quick] [--out BENCH_scaling.json] [--check ci/perf_smoke_baseline.txt]`
//!
//! `--check FILE` shares `ci/perf_smoke_baseline.txt` with `bench_report`
//! (see [`laue_bench::budgets`]): `strong_efficiency_8_nodes_min` floors
//! the 8-node strong-scaling efficiency, `overlap_on_off_ratio_max` caps
//! the overlap-on/off total-time ratio at 8 nodes. The process exits
//! non-zero when either regresses.

use std::fmt::Write as _;
use std::time::Instant;

use cuda_sim::InterconnectProps;
use laue_bench::budgets::Budgets;
use laue_bench::{devices, Workload, N_STEPS};
use laue_core::{ReconstructionConfig, ReductionTopology};
use laue_pipeline::{Engine, Pipeline, RunReport};
use laue_wire::builder::dims_for_bytes;

/// One cluster run with an explicit fabric and reduction schedule.
fn run_cluster(
    w: &Workload,
    cfg: &ReconstructionConfig,
    net: InterconnectProps,
    nodes: usize,
    topology: ReductionTopology,
    overlap: bool,
) -> RunReport {
    let p = Pipeline {
        interconnect: net,
        reduction: Some(topology),
        overlap: Some(overlap),
        ..Pipeline::default()
    };
    let mut source = w.source();
    p.run_source(
        &mut source,
        &w.scan.geometry,
        cfg,
        Engine::GpuCluster {
            nodes,
            devices_per_node: 1,
        },
    )
    .expect("cluster run")
}

fn cluster_row(n: usize, r: &RunReport, efficiency: f64) -> String {
    let c = r.cluster.as_ref().expect("cluster accounting");
    format!(
        "    {{\"nodes\": {n}, \"total_s\": {:.9}, \"compute_s\": {:.9}, \
         \"reduction_exposed_s\": {:.9}, \"net_wait_s\": {:.9}, \
         \"net_bytes\": {}, \"net_messages\": {}, \"efficiency\": {:.6}}}",
        r.total_time_s,
        c.compute_s,
        c.reduction_exposed_s,
        c.net_wait_s,
        c.net_bytes,
        c.net_messages,
        efficiency
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_scaling.json".to_string());
    let check_path = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1).cloned());
    let started = Instant::now();

    // The headline stack is Fig 8's largest (5.2 MB at 1/1000 scale);
    // slabs small enough that every node commits several reduction
    // segments — the overlap schedule needs a compute tail to hide behind.
    let w = if quick {
        Workload::of_megabytes(1.0, 100)
    } else {
        Workload::of_megabytes(5.2, 103)
    };
    // The 1/1000 data scale shrinks compute a thousandfold, but the
    // standard 200-bin depth window keeps the reduction payload (the full
    // depth image) at its full-scale size — which would drown the study in
    // fabric drain no real deployment sees. Narrowing the window to 50
    // bins scales the image with the data and restores the paper-scale
    // compute/communication balance; see EXPERIMENTS.md.
    let mut cfg = ReconstructionConfig::new(-4000.0, 4000.0, 50);
    cfg.rows_per_slab = Some(if quick { 4 } else { 8 });
    let net = InterconnectProps::nvlink_class();
    let gate_nodes = 8usize;
    let strong_counts: &[usize] = if quick {
        &[1, 2, 4, 8]
    } else {
        &[1, 2, 4, 8, 12]
    };

    // Single-GPU reference for bit-identity.
    let mut source = w.source();
    let reference = Pipeline::default()
        .run_source(&mut source, &w.scan.geometry, &cfg, Engine::GpuPipelined)
        .expect("reference run");

    // 1. Strong scaling: the same stack split over 1..12 nodes, tree
    // reduction overlapped with the compute tail.
    let mut strong_rows = Vec::new();
    let mut strong = Vec::new();
    for &n in strong_counts {
        let r = run_cluster(&w, &cfg, net.clone(), n, ReductionTopology::Tree, true);
        assert_eq!(
            r.image.data, reference.image.data,
            "{} node(s) diverge from the single-GPU reference",
            n
        );
        let efficiency = if strong.is_empty() {
            1.0
        } else {
            let (_, t1): &(usize, f64) = &strong[0];
            t1 / (n as f64 * r.total_time_s)
        };
        strong_rows.push(cluster_row(n, &r, efficiency));
        strong.push((n, r.total_time_s));
    }
    let t1 = strong[0].1;
    let t_gate = strong
        .iter()
        .find(|(n, _)| *n == gate_nodes)
        .expect("gate node count in the strong sweep")
        .1;
    let strong_efficiency = t1 / (gate_nodes as f64 * t_gate);

    // 2. Weak scaling: per-node work held constant by scaling detector
    // rows with the node count (cols fixed, one seed for every size), so
    // W_n partitions into n shards each structurally identical to W_1.
    // Efficiency is t_single(W_n) / (n * t_n(W_n)) — the same workload on
    // both sides of the ratio, which makes 1.0 a structural ceiling. (The
    // old per-size byte targets rounded to square detectors and reseeded
    // per size, so a 2-node run could report ~1.03 "efficiency" against a
    // mismatched 1-node reference.)
    let mut weak_rows = Vec::new();
    let per_node_mb = if quick { 0.25 } else { 0.65 };
    let base = dims_for_bytes((per_node_mb * 1024.0 * 1024.0) as u64, N_STEPS);
    for &n in &[1usize, 2, 4, 8] {
        let wn = Workload::of_dims(base * n, base, 200);
        let mut source = wn.source();
        let single = Pipeline::default()
            .run_source(&mut source, &wn.scan.geometry, &cfg, Engine::GpuPipelined)
            .expect("weak reference run");
        let r = run_cluster(&wn, &cfg, net.clone(), n, ReductionTopology::Tree, true);
        assert_eq!(
            r.image.data, single.image.data,
            "weak-scaling {n} node(s) diverge from the single-GPU reference"
        );
        let efficiency = single.total_time_s / (n as f64 * r.total_time_s);
        assert!(
            efficiency <= 1.0 + 1e-9,
            "weak-scaling efficiency {efficiency:.4} at {n} node(s) exceeds the \
             structural ceiling — per-node work is no longer normalized"
        );
        weak_rows.push(cluster_row(n, &r, efficiency));
    }

    // 3. Overlap ablation at the gate node count: releasing reduction
    // segments at slab-commit time vs. a barrier after the compute phase.
    // The ratio is the CI gate — overlap must keep paying for itself.
    let on = run_cluster(
        &w,
        &cfg,
        net.clone(),
        gate_nodes,
        ReductionTopology::Tree,
        true,
    );
    let off = run_cluster(
        &w,
        &cfg,
        net.clone(),
        gate_nodes,
        ReductionTopology::Tree,
        false,
    );
    assert_eq!(on.image.data, off.image.data, "overlap changed the bits");
    let overlap_ratio = on.total_time_s / off.total_time_s;

    // 4. Topology ablation at the gate node count: hierarchical tree vs
    // neighbour-relay ring, both overlapped.
    let ring = run_cluster(
        &w,
        &cfg,
        net.clone(),
        gate_nodes,
        ReductionTopology::Ring,
        true,
    );
    assert_eq!(on.image.data, ring.image.data, "ring changed the bits");
    // The origin payload is identical by construction; what the topology
    // changes is how many link traversals each byte pays.
    let byte_hops = |r: &RunReport, topology: ReductionTopology| -> u64 {
        r.cluster
            .as_ref()
            .unwrap()
            .nodes
            .iter()
            .map(|o| o.net_bytes * laue_core::cluster::route_hops(topology, o.node) as u64)
            .sum()
    };
    let tree_byte_hops = byte_hops(&on, ReductionTopology::Tree);
    let off_byte_hops = byte_hops(&off, ReductionTopology::Tree);
    let ring_byte_hops = byte_hops(&ring, ReductionTopology::Ring);

    // 5. Fabric sweep at the gate node count: the same reduction schedule
    // over each era fabric, exposing how interconnect wait scales with
    // bandwidth and latency.
    let mut fabric_rows = Vec::new();
    for f in devices::fabric_matrix() {
        let r = run_cluster(
            &w,
            &cfg,
            f.clone(),
            gate_nodes,
            ReductionTopology::Tree,
            true,
        );
        assert_eq!(r.image.data, reference.image.data, "{} diverges", f.name);
        let c = r.cluster.as_ref().unwrap();
        fabric_rows.push(format!(
            "    {{\"fabric\": \"{}\", \"bandwidth_gb_s\": {:.3}, \
             \"latency_us\": {:.2}, \"total_s\": {:.9}, \
             \"reduction_exposed_s\": {:.9}, \"net_wait_s\": {:.9}}}",
            f.name,
            f.bandwidth_bytes_per_s / 1e9,
            f.latency_s * 1e6,
            r.total_time_s,
            c.reduction_exposed_s,
            c.net_wait_s
        ));
    }

    let on_c = on.cluster.as_ref().unwrap();
    let off_c = off.cluster.as_ref().unwrap();
    let ring_c = ring.cluster.as_ref().unwrap();
    let mut json = String::from("{\n");
    writeln!(json, "  \"generated_by\": \"bench_scaling\",").unwrap();
    writeln!(json, "  \"quick\": {quick},").unwrap();
    writeln!(json, "  \"workload\": \"{}\",", w.label).unwrap();
    writeln!(json, "  \"interconnect\": \"{}\",", net.name).unwrap();
    writeln!(json, "  \"strong_scaling\": [").unwrap();
    writeln!(json, "{}", strong_rows.join(",\n")).unwrap();
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"weak_scaling\": [").unwrap();
    writeln!(json, "{}", weak_rows.join(",\n")).unwrap();
    writeln!(json, "  ],").unwrap();
    writeln!(
        json,
        "  \"strong_efficiency_at_{gate_nodes}\": {strong_efficiency:.6},"
    )
    .unwrap();
    writeln!(json, "  \"overlap\": {{").unwrap();
    writeln!(json, "    \"nodes\": {gate_nodes},").unwrap();
    writeln!(json, "    \"on_total_s\": {:.9},", on.total_time_s).unwrap();
    writeln!(json, "    \"off_total_s\": {:.9},", off.total_time_s).unwrap();
    writeln!(
        json,
        "    \"on_exposed_s\": {:.9},",
        on_c.reduction_exposed_s
    )
    .unwrap();
    writeln!(
        json,
        "    \"off_exposed_s\": {:.9},",
        off_c.reduction_exposed_s
    )
    .unwrap();
    writeln!(json, "    \"off_byte_hops\": {off_byte_hops},").unwrap();
    writeln!(json, "    \"on_over_off\": {overlap_ratio:.6}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"topology\": {{").unwrap();
    writeln!(json, "    \"nodes\": {gate_nodes},").unwrap();
    writeln!(json, "    \"tree_total_s\": {:.9},", on.total_time_s).unwrap();
    writeln!(json, "    \"ring_total_s\": {:.9},", ring.total_time_s).unwrap();
    writeln!(
        json,
        "    \"ring_exposed_s\": {:.9},",
        ring_c.reduction_exposed_s
    )
    .unwrap();
    writeln!(json, "    \"tree_net_bytes\": {},", on_c.net_bytes).unwrap();
    writeln!(json, "    \"ring_net_bytes\": {},", ring_c.net_bytes).unwrap();
    writeln!(json, "    \"tree_byte_hops\": {tree_byte_hops},").unwrap();
    writeln!(json, "    \"ring_byte_hops\": {ring_byte_hops}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"fabrics\": [").unwrap();
    writeln!(json, "{}", fabric_rows.join(",\n")).unwrap();
    writeln!(json, "  ],").unwrap();
    writeln!(
        json,
        "  \"wall_clock_s\": {:.3}",
        started.elapsed().as_secs_f64()
    )
    .unwrap();
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path} ({} bytes)", json.len());
    for (n, t) in &strong {
        println!("strong: {n} node(s) {:.4} s (speedup {:.2}x)", t, t1 / t);
    }
    println!("strong-scaling efficiency at {gate_nodes} nodes: {strong_efficiency:.3}");
    println!(
        "overlap at {gate_nodes} nodes: on {:.4} s vs off {:.4} s (ratio {overlap_ratio:.3})",
        on.total_time_s, off.total_time_s
    );
    println!(
        "topology at {gate_nodes} nodes: tree {:.4} s / {} byte-hops vs ring {:.4} s / {} byte-hops",
        on.total_time_s, tree_byte_hops, ring.total_time_s, ring_byte_hops
    );

    if let Some(path) = check_path {
        let budgets = Budgets::load(&path);
        budgets.enforce("strong_efficiency_8_nodes_min", strong_efficiency);
        budgets.enforce("overlap_on_off_ratio_max", overlap_ratio);
    }
}
