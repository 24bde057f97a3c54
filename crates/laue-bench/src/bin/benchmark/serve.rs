//! The `serve-mix` workload: `laue_serve::serve` over the small-job-heavy
//! three-tenant mix, an open Poisson loop in fleet (virtual) time. One op
//! is one `serve()` call of a 2000-job trace at 24 k jobs/s. Virtual
//! metrics are medians over several traces, each from its own seed, so a
//! single unlucky trace does not move them.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::time::Instant;

use cuda_sim::{Device, DeviceProps};
use laue_core::gpu::{reconstruct_with_options, GpuOptions};
use laue_core::{InMemorySlabSource, ReconStats};
use laue_serve::{
    serve, GpuFleet, JobSpec, ServeConfig, ServeReport, ServicePredictor, WorkloadSpec,
};

use crate::scan::hit_frac;
use crate::spans::{peak_rss_mib, Recorder};
use crate::stats::{max_rate, median, nearest_rank};
use crate::{Opts, Outcome};

/// The offered rate of a timed op, jobs per virtual second.
const RATE_HZ: f64 = 24_000.0;
/// Latency limit `max_rate_hz` must meet at p99, and the longest drain
/// after the last arrival it allows (a longer one means a backlog).
const LIMIT_S: f64 = 1e-3;
/// A burst: every job queued almost at once, so goodput is capacity.
const BURST_HZ: f64 = 1e6;
/// Traces the virtual-clock probes (rate ladder, burst, latency at three
/// rates) run on; their metrics are medians over these.
const PROBED_TRACES: usize = 4;
/// Wall seconds `setup_s` keeps sampling bring-ups for.
const SETUP_SAMPLING_S: f64 = 1.0;

/// One trace: its seed, and each job's standalone output by job id.
struct Trace {
    seed: u64,
    n_jobs: usize,
    /// Image fingerprint ([`bits_hash`]) and stats of each job's
    /// standalone run. Fingerprints rather than images keep the harness's
    /// share of `peak_rss_mb` small and the same for every seed.
    reference: HashMap<u64, (u64, ReconStats)>,
    /// Wall seconds `JobSpec::materialize` took over the whole trace.
    materialize_s: f64,
}

impl Trace {
    fn new(seed: u64, n_jobs: usize) -> Result<Trace, String> {
        let mut reference = HashMap::new();
        let mut materialize_s = 0.0;
        for job in spec(n_jobs, RATE_HZ, seed).generate().initial {
            let t = Instant::now();
            let scan = job.materialize();
            materialize_s += t.elapsed().as_secs_f64();
            reference.insert(job.id, standalone(&job, scan)?);
        }
        Ok(Trace {
            seed,
            n_jobs,
            reference,
            materialize_s,
        })
    }

    fn spec(&self, rate_hz: f64) -> WorkloadSpec {
        spec(self.n_jobs, rate_hz, self.seed)
    }

    /// Serve this trace at `rate_hz` and check every job; `None` when the
    /// call failed.
    fn served(&self, rate_hz: f64, o: &mut Outcome) -> Option<ServeReport> {
        let result = serve(&ServeConfig::for_tenants(3), self.spec(rate_hz).generate());
        self.check(result, o)
    }

    fn check(
        &self,
        result: laue_core::Result<ServeReport>,
        o: &mut Outcome,
    ) -> Option<ServeReport> {
        o.attempted += self.n_jobs as u64;
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                o.fail(
                    self.n_jobs as u64,
                    format!("serve trace {}: {e}", self.seed),
                );
                return None;
            }
        };
        let unserved = self.n_jobs.saturating_sub(report.outcomes.len());
        if unserved > 0 {
            o.fail(
                unserved as u64,
                format!(
                    "serve trace {}: {unserved} job(s) rejected or lost",
                    self.seed
                ),
            );
        }
        for out in &report.outcomes {
            let same = self.reference.get(&out.id).is_some_and(|(image, stats)| {
                *stats == out.stats && *image == bits_hash(&out.image.data)
            });
            if !same {
                o.fail(
                    1,
                    format!(
                        "serve trace {}: job {} (batched={}, quanta={}) differs from its \
                         standalone run",
                        self.seed, out.id, out.batched, out.quanta
                    ),
                );
            }
        }
        Some(report)
    }
}

/// 64-bit SipHash of an image's length and exact bit patterns; an image
/// with any bit changed hashes the same with probability about 2^-64.
fn bits_hash(image: &[f64]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write_usize(image.len());
    for v in image {
        h.write_u64(v.to_bits());
    }
    h.finish()
}

fn spec(n_jobs: usize, rate_hz: f64, seed: u64) -> WorkloadSpec {
    WorkloadSpec::small_heavy(n_jobs, rate_hz, seed)
}

/// A job's output from a standalone run on a fresh device, no service.
fn standalone(job: &JobSpec, scan: laue_wire::SyntheticScan) -> Result<(u64, ReconStats), String> {
    let s = &job.shape;
    let mut source = InMemorySlabSource::new(scan.images, s.n_steps, s.n_rows, s.n_cols)
        .map_err(|e| e.to_string())?;
    let device = Device::new(DeviceProps::tesla_m2070());
    let out = reconstruct_with_options(
        &device,
        &mut source,
        &scan.geometry,
        &job.config(),
        GpuOptions::default(),
    )
    .map_err(|e| format!("standalone job {}: {e}", job.id))?;
    Ok((bits_hash(&out.image.data), out.stats))
}

/// Arrival-to-completion latencies, a rejected job counting as `+∞`.
fn latencies(r: &ServeReport) -> Vec<f64> {
    let mut v: Vec<f64> = r.outcomes.iter().map(|o| o.latency_s()).collect();
    v.extend(r.rejected.iter().map(|_| f64::INFINITY));
    v
}

/// Does `r` meet the service level `max_rate_hz` is defined by?
fn meets_limit(r: &ServeReport) -> bool {
    let last_arrival = r.outcomes.iter().map(|o| o.arrival_s).fold(0.0, f64::max);
    r.rejected.is_empty()
        && nearest_rank(&latencies(r), 0.99) <= LIMIT_S
        && r.makespan_s - last_arrival <= LIMIT_S
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let scale = &opts.scale;
    let traces = (0..scale.traces as u64)
        .map(|i| Trace::new(opts.seed.wrapping_mul(64).wrapping_add(i), scale.serve_jobs))
        .collect::<Result<Vec<_>, _>>()?;
    let mut o = Outcome::default();

    if !opts.trace {
        // A bring-up takes well under a millisecond, so it is sampled for
        // a while rather than a few times.
        let mut setup = Vec::new();
        let start = Instant::now();
        while setup.len() < scale.setup_reps || start.elapsed().as_secs_f64() < SETUP_SAMPLING_S {
            let t = Instant::now();
            std::hint::black_box(traces.iter().map(bring_up).sum::<f64>());
            setup.push(t.elapsed().as_secs_f64() / traces.len() as f64);
        }
        let walls = timed(&traces, opts.seconds, scale.min_reps, &mut o, None);
        o.put("wall_s", walls);
        o.put("setup_s", setup);
        o.put1("peak_rss_mb", peak_rss_mib());
        return Ok(o);
    }

    // Traced run: the virtual-clock probes first (they also warm the
    // process), then half the time untraced (the overhead baseline), half
    // traced.
    let mut per_trace: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut add = |name: &'static str, v: f64| per_trace.entry(name).or_default().push(v);
    for trace in traces.iter().take(PROBED_TRACES) {
        add(
            "laue-serve.max_rate_hz",
            max_rate(
                |hz| trace.served(hz, &mut o).is_some_and(|r| meets_limit(&r)),
                16_000.0,
                0.01,
            ),
        );
        if let Some(r) = trace.served(BURST_HZ, &mut o) {
            add("laue-serve.goodput_hz", r.goodput_jobs_per_s());
        }
        let mut at_rate = None;
        for (hz, p50, p99) in [
            (16_000.0, "laue-serve.p50_s.16k", "laue-serve.p99_s.16k"),
            (RATE_HZ, "laue-serve.p50_s.24k", "laue-serve.p99_s.24k"),
            (32_000.0, "laue-serve.p50_s.32k", "laue-serve.p99_s.32k"),
        ] {
            if let Some(r) = trace.served(hz, &mut o) {
                let lat = latencies(&r);
                add(p50, nearest_rank(&lat, 0.50));
                add(p99, nearest_rank(&lat, 0.99));
                if hz == RATE_HZ {
                    at_rate = Some(r);
                }
            }
        }
        let Some(r) = at_rate else {
            continue;
        };
        let queued: Vec<f64> = r.outcomes.iter().map(|j| j.queued_s()).collect();
        let service: Vec<f64> = r.outcomes.iter().map(|j| j.service_s).collect();
        let done = r.outcomes.len().max(1) as f64;
        add("laue-serve.queued_p50_s", nearest_rank(&queued, 0.50));
        add("laue-serve.queued_p99_s", nearest_rank(&queued, 0.99));
        add("laue-serve.service_p50_s", nearest_rank(&service, 0.50));
        add("laue-serve.utilization", r.utilization);
        add(
            "laue-serve.batched_frac",
            r.outcomes.iter().filter(|j| j.batched).count() as f64 / done,
        );
        add("laue-serve.mean_batch", r.batch.mean_batch());
        add("laue-serve.preemptions", r.preemptions as f64);
        add("laue-serve.migrations", r.migrations as f64);
        add(
            "laue-serve.accepted_frac",
            r.admission.accepted as f64 / r.admission.offered().max(1) as f64,
        );
        add(
            "laue-core.table_hit_frac",
            hit_frac(r.cache.hits(), r.cache.misses()),
        );
        let stats = |f: fn(&ReconStats) -> u64| -> f64 {
            r.outcomes.iter().map(|j| f(&j.stats) as f64).sum()
        };
        add("laue-core.pairs_total", stats(|s| s.pairs_total));
        add("laue-core.pairs_deposited", stats(|s| s.pairs_deposited));
        let (nonzero, cells) = r
            .outcomes
            .iter()
            .flat_map(|j| &j.image.data)
            .fold((0usize, 0usize), |(nz, n), &v| {
                (nz + usize::from(v != 0.0), n + 1)
            });
        add(
            "laue-core.image_nonzero_frac",
            nonzero as f64 / cells.max(1) as f64,
        );
    }
    for (name, samples) in per_trace {
        o.put(name, samples);
    }

    let untraced = timed(&traces, 0.5 * opts.seconds, scale.min_reps, &mut o, None);
    let mut rec = Recorder::new();
    let traced = timed(
        &traces,
        0.5 * opts.seconds,
        scale.min_reps,
        &mut o,
        Some(&mut rec),
    );
    if !untraced.is_empty() && !traced.is_empty() {
        o.put1(
            "benchmark.trace_overhead_frac",
            median(&traced) / median(&untraced) - 1.0,
        );
    }
    o.put("laue-serve.serve_s", traced);
    o.put(
        "laue-serve.materialize_s",
        traces.iter().map(|t| t.materialize_s).collect(),
    );
    o.spans = rec.into_spans();
    Ok(o)
}

/// Set-up of a service for `trace`, through the public calls `serve`
/// makes before it dispatches: the config, the arrivals, the fleet, and
/// the planner's price of every job shape in the trace. `serve` redoes
/// this inside every call, so it is also part of `wall_s`. Returns the
/// summed predicted service seconds.
fn bring_up(trace: &Trace) -> f64 {
    let cfg = ServeConfig::for_tenants(3);
    let workload = trace.spec(RATE_HZ).generate();
    let fleet = GpuFleet::new(
        cfg.n_devices,
        cfg.devices_per_chassis,
        cfg.device.clone(),
        cfg.cache_bytes,
    );
    let mut predictor =
        ServicePredictor::new(fleet.device_props().clone(), fleet.host_props().clone());
    workload.initial.iter().map(|j| predictor.predict(j)).sum()
}

/// Rounds that serve every trace once at [`RATE_HZ`], until `seconds`
/// pass and `min_reps` rounds ran; per checked round, its wall seconds
/// per `serve()` call. A round covers every trace, so differences between
/// traces stay out of the spread.
fn timed(
    traces: &[Trace],
    seconds: f64,
    min_reps: usize,
    o: &mut Outcome,
    mut rec: Option<&mut Recorder>,
) -> Vec<f64> {
    let mut rounds = Vec::new();
    let start = Instant::now();
    let mut reps = 0;
    while reps < min_reps || start.elapsed().as_secs_f64() < seconds {
        reps += 1;
        let (mut wall, mut ok) = (0.0, true);
        for trace in traces {
            let workload = trace.spec(RATE_HZ).generate();
            let cfg = ServeConfig::for_tenants(3);
            let t = Instant::now();
            let result = match rec.as_deref_mut() {
                Some(rec) => {
                    rec.op += 1;
                    rec.span("serve", "laue-serve", |_| serve(&cfg, workload))
                }
                None => serve(&cfg, workload),
            };
            wall += t.elapsed().as_secs_f64();
            ok &= trace.check(result, o).is_some();
        }
        if ok {
            rounds.push(wall / traces.len() as f64);
        }
    }
    rounds
}
