//! Reconstruction-as-a-service benchmark: saturation sweep over arrival
//! rate × batching on/off × fleet size (`BENCH_serve.json`).
//!
//! Times are **virtual seconds** from the calibrated M2070/E5630 models
//! over the fleet clock, so goodput and latency percentiles are
//! deterministic and machine-independent; `wall_clock_s` is the real
//! time the harness took, for CI trend-watching only.
//!
//! Run: `cargo run --release -p laue-bench --bin bench_serve -- \
//!       [--quick] [--out BENCH_serve.json] [--check ci/perf_smoke_baseline.txt]`
//!
//! `--check FILE` shares `ci/perf_smoke_baseline.txt` with the other
//! bench bins (see [`laue_bench::budgets`]): `batched_goodput_ratio_min`
//! floors the batched/unbatched goodput ratio on the small-job-heavy burst
//! mix, `p99_p50_ratio_max` caps the p99/p50 latency ratio at the
//! ~70 %-load operating point (batching on). The process exits non-zero
//! when either regresses.

use std::fmt::Write as _;
use std::time::Instant;

use laue_bench::budgets::Budgets;
use laue_serve::{
    serve, AdmissionPolicy, Arrival, BatchPolicy, ServeConfig, ServeReport, WorkloadSpec,
};

/// The small-job-heavy mix every headline number uses: 3 tenants, 90 %
/// small quick-look jobs, half interactive.
fn base_spec(n_jobs: usize, rate_hz: f64) -> WorkloadSpec {
    WorkloadSpec::small_heavy(n_jobs, rate_hz, 42)
}

/// Serve one open-loop run of the base mix at `rate_hz`.
fn run_at(cfg: &ServeConfig, n_jobs: usize, rate_hz: f64) -> ServeReport {
    let spec = base_spec(n_jobs, rate_hz);
    serve(cfg, spec.generate()).expect("serve run")
}

fn report_row(label: &str, rate_hz: f64, r: &ServeReport) -> String {
    format!(
        "    {{\"label\": \"{label}\", \"offered_rate_hz\": {rate_hz:.6}, \
         \"completed\": {}, \"goodput_jobs_per_s\": {:.6}, \
         \"p50_s\": {:.9}, \"p99_s\": {:.9}, \"makespan_s\": {:.9}, \
         \"utilization\": {:.6}, \"preemptions\": {}, \"migrations\": {}, \
         \"fused_jobs\": {}, \"batches\": {}, \"mean_batch\": {:.3}, \
         \"singles\": {}, \"cache_host_hits\": {}, \"cache_host_misses\": {}, \
         \"cache_device_hits\": {}, \"cache_device_misses\": {}}}",
        r.outcomes.len(),
        r.goodput_jobs_per_s(),
        r.p50_s(),
        r.p99_s(),
        r.makespan_s,
        r.utilization,
        r.preemptions,
        r.migrations,
        r.batch.fused_jobs,
        r.batch.batches,
        r.batch.mean_batch(),
        r.batch.singles,
        r.cache.host_hits,
        r.cache.host_misses,
        r.cache.device_hits,
        r.cache.device_misses,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let check_path = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1).cloned());
    let started = Instant::now();

    let n_jobs = if quick { 32 } else { 96 };
    // A burst rate far above any fleet capacity: the whole budget is
    // queued almost instantly, so goodput measures pure service capacity.
    let burst_hz = 1.0e6;
    let cfg = ServeConfig::for_tenants(3);

    // 1. The headline gate pair: the same saturating small-heavy burst
    // through the fused batch former vs per-job FIFO dispatch. Both runs
    // complete identical job sets (the identity suite proves the outputs
    // are bit-identical to standalone runs), so the goodput ratio is
    // exactly the batching speedup.
    let batched = run_at(&cfg, n_jobs, burst_hz);
    let mut fifo_cfg = cfg.clone();
    fifo_cfg.batch = BatchPolicy::unbatched();
    let unbatched = run_at(&fifo_cfg, n_jobs, burst_hz);
    assert_eq!(
        batched.outcomes.len(),
        unbatched.outcomes.len(),
        "both modes must serve the whole burst"
    );
    assert!(
        batched.batch.fused_jobs > 0,
        "the small-heavy burst must form fused batches"
    );
    let goodput_ratio = batched.goodput_jobs_per_s() / unbatched.goodput_jobs_per_s();
    // Capacity: completed jobs per fleet second at saturation, batching
    // on — the denominator of every load fraction below.
    let capacity_hz = batched.goodput_jobs_per_s();

    // 2. Saturation sweep: offered load as a fraction of measured
    // capacity, batching on and off. Latency percentiles come from the
    // same deterministic fleet timeline, so the knee of the p99 curve is
    // reproducible bit-for-bit.
    let fractions: &[f64] = if quick {
        &[0.5, 0.7, 1.1]
    } else {
        &[0.3, 0.5, 0.7, 0.9, 1.1]
    };
    let mut sweep_rows = Vec::new();
    let mut at_70: Option<ServeReport> = None;
    for &frac in fractions {
        let rate = frac * capacity_hz;
        let on = run_at(&cfg, n_jobs, rate);
        let off = run_at(&fifo_cfg, n_jobs, rate);
        sweep_rows.push(report_row(&format!("load-{frac:.1}-batched"), rate, &on));
        sweep_rows.push(report_row(&format!("load-{frac:.1}-fifo"), rate, &off));
        if (frac - 0.7).abs() < 1e-9 {
            at_70 = Some(on);
        }
    }
    let at_70 = at_70.expect("the sweep always includes the 0.7 operating point");
    let tail_ratio = at_70.p99_s() / at_70.p50_s();

    // 3. Fleet-size sweep: the same burst over 1, 2, and 4 devices
    // (two per chassis), batching on — how capacity and the tail scale
    // with devices when the PCIe bus and host CPU are shared pairwise.
    let mut fleet_rows = Vec::new();
    for &n_dev in &[1usize, 2, 4] {
        let mut fleet_cfg = cfg.clone();
        fleet_cfg.n_devices = n_dev;
        fleet_cfg.devices_per_chassis = 2;
        let r = run_at(&fleet_cfg, n_jobs, burst_hz);
        fleet_rows.push(report_row(&format!("fleet-{n_dev}"), burst_hz, &r));
    }

    // 4. Admission control under overload: the same burst with a backlog
    // bound sized to half the burst's service demand. Some arrivals are
    // turned away with a reason; the jobs the service does accept see a
    // far shorter queue.
    let mut bounded_cfg = cfg.clone();
    bounded_cfg.admission = AdmissionPolicy {
        max_tenant_depth: usize::MAX,
        max_backlog_s: (n_jobs as f64 / capacity_hz) * 0.25,
    };
    let bounded = run_at(&bounded_cfg, n_jobs, burst_hz);
    assert!(
        !bounded.rejected.is_empty(),
        "a burst against a bounded backlog must shed load"
    );
    assert_eq!(
        bounded.admission.offered() as usize,
        n_jobs,
        "every arrival is judged"
    );
    assert!(
        bounded.p99_s() < batched.p99_s(),
        "shedding load must shorten the accepted jobs' tail \
         ({:.4} s vs {:.4} s unbounded)",
        bounded.p99_s(),
        batched.p99_s()
    );

    // 5. Closed-loop clients: each completion triggers the next
    // submission after a think time, so the offered load self-regulates
    // at the service's pace instead of queueing without bound.
    let mut closed_spec = base_spec(n_jobs, burst_hz);
    closed_spec.arrival = Arrival::Closed {
        clients: 4,
        think_s: 1e-4,
    };
    let closed = serve(&cfg, closed_spec.generate()).expect("closed-loop run");
    assert_eq!(
        closed.outcomes.len(),
        n_jobs,
        "the closed loop serves its whole budget"
    );

    let mut json = String::from("{\n");
    writeln!(json, "  \"generated_by\": \"bench_serve\",").unwrap();
    writeln!(json, "  \"quick\": {quick},").unwrap();
    writeln!(json, "  \"n_jobs\": {n_jobs},").unwrap();
    writeln!(
        json,
        "  \"workload\": \"small-heavy (90% small, 3 tenants)\","
    )
    .unwrap();
    writeln!(json, "  \"fleet\": \"2x tesla-m2070, shared chassis\",").unwrap();
    writeln!(json, "  \"capacity_jobs_per_s\": {capacity_hz:.6},").unwrap();
    writeln!(json, "  \"batching\": {{").unwrap();
    writeln!(
        json,
        "    \"batched_goodput_jobs_per_s\": {:.6},",
        batched.goodput_jobs_per_s()
    )
    .unwrap();
    writeln!(
        json,
        "    \"unbatched_goodput_jobs_per_s\": {:.6},",
        unbatched.goodput_jobs_per_s()
    )
    .unwrap();
    writeln!(json, "    \"goodput_ratio\": {goodput_ratio:.6},").unwrap();
    writeln!(json, "    \"fused_jobs\": {},", batched.batch.fused_jobs).unwrap();
    writeln!(json, "    \"batches\": {},", batched.batch.batches).unwrap();
    writeln!(
        json,
        "    \"mean_batch\": {:.3},",
        batched.batch.mean_batch()
    )
    .unwrap();
    writeln!(json, "    \"max_batch\": {}", batched.batch.max_batch).unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"tail_at_70pct\": {{").unwrap();
    writeln!(json, "    \"offered_rate_hz\": {:.6},", 0.7 * capacity_hz).unwrap();
    writeln!(json, "    \"utilization\": {:.6},", at_70.utilization).unwrap();
    writeln!(json, "    \"p50_s\": {:.9},", at_70.p50_s()).unwrap();
    writeln!(json, "    \"p99_s\": {:.9},", at_70.p99_s()).unwrap();
    writeln!(json, "    \"p99_over_p50\": {tail_ratio:.6}").unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"saturation_sweep\": [").unwrap();
    writeln!(json, "{}", sweep_rows.join(",\n")).unwrap();
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"fleet_sweep\": [").unwrap();
    writeln!(json, "{}", fleet_rows.join(",\n")).unwrap();
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"admission\": {{").unwrap();
    writeln!(
        json,
        "    \"max_backlog_s\": {:.9},",
        bounded_cfg.admission.max_backlog_s
    )
    .unwrap();
    writeln!(json, "    \"offered\": {},", bounded.admission.offered()).unwrap();
    writeln!(json, "    \"accepted\": {},", bounded.admission.accepted).unwrap();
    writeln!(
        json,
        "    \"rejected_depth\": {},",
        bounded.admission.rejected_depth
    )
    .unwrap();
    writeln!(
        json,
        "    \"rejected_backlog\": {},",
        bounded.admission.rejected_backlog
    )
    .unwrap();
    writeln!(json, "    \"accepted_p99_s\": {:.9},", bounded.p99_s()).unwrap();
    writeln!(json, "    \"unbounded_p99_s\": {:.9}", batched.p99_s()).unwrap();
    writeln!(json, "  }},").unwrap();
    writeln!(json, "  \"closed_loop\": {{").unwrap();
    writeln!(json, "    \"clients\": 4,").unwrap();
    writeln!(json, "    \"completed\": {},", closed.outcomes.len()).unwrap();
    writeln!(
        json,
        "    \"goodput_jobs_per_s\": {:.6},",
        closed.goodput_jobs_per_s()
    )
    .unwrap();
    writeln!(json, "    \"p50_s\": {:.9},", closed.p50_s()).unwrap();
    writeln!(json, "    \"p99_s\": {:.9}", closed.p99_s()).unwrap();
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
        "batching: {:.2} jobs/s fused vs {:.2} jobs/s FIFO (ratio {goodput_ratio:.3}, \
         mean batch {:.2})",
        batched.goodput_jobs_per_s(),
        unbatched.goodput_jobs_per_s(),
        batched.batch.mean_batch(),
    );
    println!(
        "tail at 70% load: p50 {:.4} s, p99 {:.4} s (ratio {tail_ratio:.2}, \
         utilization {:.2})",
        at_70.p50_s(),
        at_70.p99_s(),
        at_70.utilization,
    );
    println!(
        "admission under overload: {}/{} accepted, accepted p99 {:.4} s vs \
         {:.4} s unbounded",
        bounded.admission.accepted,
        bounded.admission.offered(),
        bounded.p99_s(),
        batched.p99_s(),
    );

    if let Some(path) = check_path {
        let budgets = Budgets::load(&path);
        budgets.enforce("batched_goodput_ratio_min", goodput_ratio);
        budgets.enforce("p99_p50_ratio_max", tail_ratio);
    }
}
