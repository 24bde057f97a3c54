//! Fused-launch batching: many small reconstructions in one kernel grain.
//!
//! A beamline service sees streams of *small* jobs (quick alignment scans,
//! ROI re-runs) whose standalone cost is dominated by fixed per-launch and
//! per-transfer charges: each job pays the PCIe latency for its upload,
//! the kernel launch overhead, and the download latency, while its actual
//! pair work is microseconds. Continuous batching amortises the fixed
//! costs: one coalesced H2D transaction ships *every* batched job's pixel
//! table, wire coordinates, and intensity stack (one bus latency for the
//! whole batch), and one fused `set_two` launch covers the concatenated
//! launch domains of all jobs (one launch overhead).
//!
//! Correctness: each job keeps its own device buffers, and the fused
//! kernel maps its global thread id to a `(job, row, col, pair)` tuple
//! whose per-job ordering is exactly the standalone 1-D dense mapping —
//! job-major, pair index fastest. The executor lands deposits in that
//! order at any worker count, so deposits into any one job's output buffer
//! happen in precisely the order the standalone run produces, and every
//! batched job's image is
//! bit-identical to running it alone ([`reconstruct_batch_fused`] is
//! proptested against [`super::reconstruct_pipelined`] in `laue-serve`).
//!
//! The fused path is deliberately narrow — the batch former only routes
//! jobs here when they qualify:
//!
//! * whole scan resident as one slab (no chunking; these are small jobs),
//! * [`super::Layout::Flat1d`] + [`super::Triangulation::InKernel`] (no shared table
//!   state between tenants' uploads),
//! * atomic accumulation, no compaction, no integrity checks.
//!
//! Anything bigger or fancier takes the ordinary per-job engines.

use std::sync::atomic::{AtomicU64, Ordering};

use cuda_sim::{Device, DeviceBuffer, LaunchConfig};

use super::{
    eval_pair_body, AccumPlan, SlabBuffers, SlabUpload, Triangulate, BLOCK_SIZE,
    TRACE_BELOW_CUTOFF, TRACE_DEPOSITED, TRACE_DEPOSITS, TRACE_INVALID, TRACE_OUT_OF_RANGE,
};
use crate::config::{CompactionMode, IntegrityMode, ReconstructionConfig};
use crate::error::CoreError;
use crate::geometry::ScanGeometry;
use crate::input::SlabSource;
use crate::output::DepthImage;
use crate::pair::PairPlan;
use crate::stats::ReconStats;
use crate::Result;

/// Extra index arithmetic the fused kernel pays per thread to locate its
/// job (offset-table lookup + rebase), on top of the standalone mapping's
/// charge inside [`eval_pair_body`].
const FUSED_LOOKUP_FLOPS: u64 = 4;

/// One job submitted to a fused batch.
pub struct BatchJob<'a> {
    /// The job's scan data (whole stack reads as one slab).
    pub source: &'a mut dyn SlabSource,
    /// The job's scan geometry.
    pub geom: &'a ScanGeometry,
    /// The job's reconstruction config.
    pub cfg: &'a ReconstructionConfig,
}

/// One job's share of a fused batch outcome.
#[derive(Debug, Clone)]
pub struct BatchJobResult {
    /// The job's depth image — bit-identical to a standalone run.
    pub image: DepthImage,
    /// The job's pair counters, attributed per job by the fused kernel.
    pub stats: ReconStats,
}

/// What one fused batch did.
#[derive(Debug, Clone)]
pub struct FusedBatch {
    /// Per-job outputs, in submission order.
    pub results: Vec<BatchJobResult>,
    /// Virtual makespan of the whole batch. Every job in the batch
    /// finishes at this time — the service charges it to each as that
    /// job's service interval.
    pub elapsed_s: f64,
    /// Bytes the single fused H2D transaction carried.
    pub upload_bytes: u64,
    /// Peak modeled device memory across the batch.
    pub peak_device_mem: u64,
    /// Fused kernel launches (always 1).
    pub launches: usize,
    /// Bus transactions: 1 fused upload + one download per job.
    pub transfers: usize,
}

/// Device bytes one fused job needs resident (pixel table + wire
/// coordinates + intensity stack + output bins). The batch former sizes
/// batches against the device budget with this.
pub fn fused_job_bytes(n_images: usize, n_rows: usize, n_cols: usize, n_bins: usize) -> u64 {
    let pixels = (n_rows * n_cols * 3) as u64;
    let wires = (n_images * 3) as u64;
    let intensity = (n_images * n_rows * n_cols) as u64;
    let output = (n_bins * n_rows * n_cols) as u64;
    (pixels + wires + intensity + output) * 8
}

/// Is a job's config shape one the fused path handles? (Size is the batch
/// former's call, via [`fused_job_bytes`]; this checks the mode knobs.)
pub fn fused_compatible(cfg: &ReconstructionConfig) -> bool {
    cfg.compaction == CompactionMode::Off
        && cfg.integrity == IntegrityMode::Off
        && matches!(
            cfg.accumulation,
            crate::config::AccumulationMode::Atomic | crate::config::AccumulationMode::Auto
        )
}

struct JobPlan {
    rows: usize,
    n_cols: usize,
    n_pairs: usize,
    total: u64,
}

/// Per-job trace counters the fused kernel attributes outcomes to (the
/// device's launch-record trace slots pool over the whole fused launch
/// and cannot be split per job afterwards).
struct JobCounters([AtomicU64; 5]);

impl JobCounters {
    fn new() -> JobCounters {
        JobCounters(std::array::from_fn(|_| AtomicU64::new(0)))
    }
    fn bump(&self, slot: usize) {
        self.0[slot].fetch_add(1, Ordering::Relaxed);
    }
    fn get(&self, slot: usize) -> u64 {
        self.0[slot].load(Ordering::Relaxed)
    }
}

/// Run a batch of small jobs as one fused upload + one fused launch.
///
/// All jobs' f64 inputs ship in a single coalesced H2D transaction and a
/// single `set_two_fused` kernel covers the concatenation of their launch
/// domains. Each job's output buffer, deposit order, and stats are
/// exactly those of a standalone [`super::reconstruct_with_options`] run
/// of the same job, so batching is invisible in the results — only in the
/// clock.
///
/// Errors with [`CoreError::InvalidConfig`] when a job's modes are not
/// fused-compatible, and with the device's capacity error when the batch
/// does not fit; the caller (the batch former) is expected to have sized
/// the batch with [`fused_job_bytes`] first.
pub fn reconstruct_batch_fused(device: &Device, jobs: &mut [BatchJob<'_>]) -> Result<FusedBatch> {
    if jobs.is_empty() {
        return Err(CoreError::InvalidConfig("empty fused batch".into()));
    }
    for job in jobs.iter() {
        super::validate_inputs(job.source, job.geom, job.cfg)?;
        if !fused_compatible(job.cfg) {
            return Err(CoreError::InvalidConfig(
                "fused batching requires --compaction off and --integrity off".into(),
            ));
        }
    }

    device.reset_meters();
    let stream = device.create_stream();

    // Host-side staging: every job's pixel table, wire coordinates, and
    // full intensity stack, plus its launch-domain geometry.
    let mut plans = Vec::with_capacity(jobs.len());
    let mut pix_host = Vec::with_capacity(jobs.len());
    let mut wire_host = Vec::with_capacity(jobs.len());
    let mut slab_host = Vec::with_capacity(jobs.len());
    let mut mappers = Vec::with_capacity(jobs.len());
    for job in jobs.iter_mut() {
        let (n_images, rows, n_cols) = (
            job.source.n_images(),
            job.source.n_rows(),
            job.source.n_cols(),
        );
        let mut pix = Vec::with_capacity(rows * n_cols * 3);
        for r in 0..rows {
            for c in 0..n_cols {
                let p = job.geom.detector.pixel_to_xyz_unchecked(r as f64, c as f64);
                pix.extend_from_slice(&[p.x, p.y, p.z]);
            }
        }
        let mut wire_flat = Vec::with_capacity(n_images * 3);
        for z in 0..n_images {
            let w = job.geom.wire.center_unchecked(z as f64);
            wire_flat.extend_from_slice(&[w.x, w.y, w.z]);
        }
        let slab = job.source.read_slab(0, rows)?;
        mappers.push(job.geom.mapper()?);
        plans.push(JobPlan {
            rows,
            n_cols,
            n_pairs: n_images - 1,
            total: (rows * n_cols * (n_images - 1)) as u64,
        });
        pix_host.push(pix);
        wire_host.push(wire_flat);
        slab_host.push(slab);
    }

    // Device buffers, then ONE coalesced transaction for every job's f64
    // payload — the whole batch pays the PCIe latency once.
    let mut pixel_bufs = Vec::with_capacity(jobs.len());
    let mut wire_bufs = Vec::with_capacity(jobs.len());
    let mut intensity_bufs = Vec::with_capacity(jobs.len());
    let mut output_bufs = Vec::with_capacity(jobs.len());
    for (j, job) in jobs.iter().enumerate() {
        pixel_bufs.push(device.alloc::<f64>(pix_host[j].len())?);
        wire_bufs.push(device.alloc::<f64>(wire_host[j].len())?);
        intensity_bufs.push(device.alloc::<f64>(slab_host[j].len())?);
        output_bufs
            .push(device.alloc::<f64>(job.cfg.n_depth_bins * plans[j].rows * plans[j].n_cols)?);
    }
    let mut copies: Vec<(&DeviceBuffer<f64>, &[f64])> = Vec::with_capacity(jobs.len() * 3);
    for j in 0..jobs.len() {
        copies.push((&pixel_bufs[j], &pix_host[j]));
        copies.push((&wire_bufs[j], &wire_host[j]));
        copies.push((&intensity_bufs[j], &slab_host[j]));
    }
    let upload_bytes = copies.iter().map(|(_, d)| d.len() as u64 * 8).sum();
    let span = device.memcpy_htod(stream, &copies, false)?;
    let ready_at = span.end_s;

    // Rebuild each job's upload descriptor so the fused kernel can reuse
    // the standalone per-pair evaluation verbatim.
    let uploads: Vec<SlabUpload> = (0..jobs.len())
        .map(|j| SlabUpload {
            buffers: SlabBuffers::Flat {
                intensity: intensity_bufs[j].clone(),
                output: output_bufs[j].clone(),
            },
            pixels: pixel_bufs[j].clone(),
            depth_table: None,
            host_flops: 0,
            rows: plans[j].rows,
            row0: 0,
            ready_at,
            sparsity: None,
            compact: false,
            list_buf: None,
            counter_buf: None,
            accum: AccumPlan::Atomic { fallback: false },
        })
        .collect();

    // Concatenated launch domain: job-major, each job's interior ordering
    // identical to its standalone 1-D dense mapping.
    let mut offsets = Vec::with_capacity(jobs.len() + 1);
    let mut total_all = 0u64;
    for plan in &plans {
        offsets.push(total_all);
        total_all += plan.total;
    }
    offsets.push(total_all);

    let counters: Vec<JobCounters> = (0..jobs.len()).map(|_| JobCounters::new()).collect();
    let cfgs: Vec<&ReconstructionConfig> = jobs.iter().map(|j| j.cfg).collect();

    device.wait_until(stream, ready_at);
    let kernel = |ctx: &mut cuda_sim::ThreadCtx<'_>| {
        let id = ctx.global_id().x;
        if id >= total_all {
            return;
        }
        // Locate the job (offset-table walk) and rebase into its domain.
        ctx.charge_flops(FUSED_LOOKUP_FLOPS);
        let j = offsets.partition_point(|&o| o <= id) - 1;
        let lid = (id - offsets[j]) as usize;
        let plan = &plans[j];
        // Standalone 1-D dense mapping: pair index fastest, so each
        // output cell sees its deposits in ascending step order.
        let z = lid % plan.n_pairs;
        let pc = lid / plan.n_pairs;
        let (r, c) = (pc / plan.n_cols, pc % plan.n_cols);
        let tally = |slot: usize, ctx: &mut cuda_sim::ThreadCtx<'_>| {
            counters[j].bump(slot);
            ctx.trace(slot);
        };
        match eval_pair_body(
            ctx,
            &uploads[j],
            &wire_bufs[j],
            Triangulate,
            &mappers[j],
            cfgs[j],
            plan.rows,
            plan.n_cols,
            r,
            c,
            z,
        ) {
            PairPlan::BelowCutoff => tally(TRACE_BELOW_CUTOFF, ctx),
            PairPlan::InvalidGeometry => tally(TRACE_INVALID, ctx),
            PairPlan::OutOfRange => tally(TRACE_OUT_OF_RANGE, ctx),
            PairPlan::Deposit(dep) => {
                tally(TRACE_DEPOSITED, ctx);
                for bin in dep.first_bin..dep.last_bin {
                    let amount = dep.amount(bin, cfgs[j]);
                    if amount != 0.0 {
                        ctx.atomic_add_f64(
                            &output_bufs[j],
                            (bin * plan.rows + r) * plan.n_cols + c,
                            amount,
                        );
                        tally(TRACE_DEPOSITS, ctx);
                    }
                }
            }
        }
    };
    device.launch_on(
        stream,
        "set_two_fused",
        LaunchConfig::linear(total_all, BLOCK_SIZE),
        kernel,
    )?;

    // Per-job downloads (each still pays its own D2H latency — the fused
    // win is on the upload and the launch).
    let mut results = Vec::with_capacity(jobs.len());
    for (j, job) in jobs.iter().enumerate() {
        let plan = &plans[j];
        // A job's slab is its whole image, so slab layout is image layout.
        let (cells, _) = device.memcpy_dtoh(stream, &output_bufs[j], false)?;
        let mut image = DepthImage::zeroed(job.cfg.n_depth_bins, plan.rows, plan.n_cols);
        for (i, w) in cells.cells() {
            image.data[i] = f64::from_bits(w);
        }
        let stats = ReconStats {
            pairs_total: plan.total,
            pairs_below_cutoff: counters[j].get(TRACE_BELOW_CUTOFF),
            pairs_invalid_geometry: counters[j].get(TRACE_INVALID),
            pairs_out_of_range: counters[j].get(TRACE_OUT_OF_RANGE),
            pairs_deposited: counters[j].get(TRACE_DEPOSITED),
            deposits: counters[j].get(TRACE_DEPOSITS),
            ..ReconStats::default()
        };
        results.push(BatchJobResult { image, stats });
    }

    let elapsed_s = device.synchronize();
    Ok(FusedBatch {
        results,
        elapsed_s,
        upload_bytes,
        peak_device_mem: device.mem_peak(),
        launches: 1,
        transfers: 1 + jobs.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::super::{reconstruct_with_options, GpuOptions, Layout};
    use super::*;
    use crate::input::InMemorySlabSource;
    use cuda_sim::DeviceProps;

    struct SmallScan {
        geom: ScanGeometry,
        data: Vec<f64>,
        steps: usize,
        rows: usize,
        cols: usize,
    }

    fn small_scan(rows: usize, cols: usize, steps: usize, seed: u64) -> SmallScan {
        let geom = ScanGeometry::demo(rows, cols, steps, -60.0, 6.0).unwrap();
        let data: Vec<f64> = (0..steps * rows * cols)
            .map(|i| {
                let z = i / (rows * cols);
                let px = i % (rows * cols);
                900.0 - 29.0 * z as f64 - ((px as u64 * 31 + seed * 7) % 11) as f64 * 13.0
            })
            .collect();
        SmallScan {
            geom,
            data,
            steps,
            rows,
            cols,
        }
    }

    fn source_of(scan: &SmallScan) -> InMemorySlabSource {
        InMemorySlabSource::new(scan.data.clone(), scan.steps, scan.rows, scan.cols).unwrap()
    }

    #[test]
    fn fused_batch_is_bit_identical_to_standalone_runs() {
        let scans = [
            small_scan(6, 6, 8, 1),
            small_scan(4, 9, 10, 2),
            small_scan(8, 5, 6, 3),
        ];
        let cfgs = [
            ReconstructionConfig::new(-1500.0, 1500.0, 40),
            ReconstructionConfig::new(-2000.0, 2000.0, 64),
            ReconstructionConfig::new(-1000.0, 1000.0, 32),
        ];
        let device = Device::new(DeviceProps::tiny(64 * 1024 * 1024));

        // Standalone references, one run each.
        let mut standalone = Vec::new();
        for (scan, cfg) in scans.iter().zip(&cfgs) {
            let mut src = source_of(scan);
            standalone.push(
                reconstruct_with_options(
                    &device,
                    &mut src,
                    &scan.geom,
                    cfg,
                    GpuOptions {
                        layout: Layout::Flat1d,
                        ..GpuOptions::default()
                    },
                )
                .unwrap(),
            );
        }

        let mut sources: Vec<InMemorySlabSource> = scans.iter().map(source_of).collect();
        let mut jobs: Vec<BatchJob<'_>> = sources
            .iter_mut()
            .zip(scans.iter())
            .zip(cfgs.iter())
            .map(|((source, scan), cfg)| BatchJob {
                source,
                geom: &scan.geom,
                cfg,
            })
            .collect();
        let batch = reconstruct_batch_fused(&device, &mut jobs).unwrap();

        assert_eq!(batch.results.len(), 3);
        assert_eq!(batch.launches, 1);
        assert_eq!(batch.transfers, 4, "1 fused upload + 3 downloads");
        for (got, want) in batch.results.iter().zip(&standalone) {
            assert_eq!(
                got.image.data, want.image.data,
                "fused must be bit-identical"
            );
            assert_eq!(
                got.stats, want.stats,
                "per-job stats must attribute exactly"
            );
        }
    }

    #[test]
    fn fused_batch_beats_sequential_singles_on_the_clock() {
        let scans: Vec<_> = (0..6).map(|i| small_scan(5, 5, 8, 10 + i)).collect();
        let cfg = ReconstructionConfig::new(-1500.0, 1500.0, 40);
        let device = Device::new(DeviceProps::tesla_m2070());

        let mut serial = 0.0;
        for scan in &scans {
            let mut src = source_of(scan);
            let out = reconstruct_with_options(
                &device,
                &mut src,
                &scan.geom,
                &cfg,
                GpuOptions::default(),
            )
            .unwrap();
            serial += out.elapsed_s;
        }

        let mut sources: Vec<InMemorySlabSource> = scans.iter().map(source_of).collect();
        let mut jobs: Vec<BatchJob<'_>> = sources
            .iter_mut()
            .zip(scans.iter())
            .map(|(source, scan)| BatchJob {
                source,
                geom: &scan.geom,
                cfg: &cfg,
            })
            .collect();
        let batch = reconstruct_batch_fused(&device, &mut jobs).unwrap();
        assert!(
            batch.elapsed_s < serial / 1.3,
            "fused {:.6e} s should beat 6 serial singles {:.6e} s by ≥ 1.3×",
            batch.elapsed_s,
            serial
        );
    }

    #[test]
    fn fused_batch_rejects_incompatible_modes() {
        let scan = small_scan(4, 4, 6, 7);
        let mut cfg = ReconstructionConfig::new(-1000.0, 1000.0, 16);
        cfg.integrity = IntegrityMode::Verify;
        let mut src = source_of(&scan);
        let device = Device::new(DeviceProps::tiny(8 * 1024 * 1024));
        let mut jobs = [BatchJob {
            source: &mut src,
            geom: &scan.geom,
            cfg: &cfg,
        }];
        assert!(reconstruct_batch_fused(&device, &mut jobs).is_err());
        assert!(reconstruct_batch_fused(&device, &mut []).is_err());
    }
}
