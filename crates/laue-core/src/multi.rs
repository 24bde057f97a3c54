//! Multi-GPU banding inside one chassis — the design space the paper's
//! related work opens (Schaa & Kaeli, §II) but its implementation never
//! explores.
//!
//! A node's rows are split into contiguous bands, one per device; each
//! device runs the k-deep ring pipeline over its band. Bands are disjoint,
//! so no cross-device synchronisation is needed and the result is
//! bit-identical to the single-GPU run. In virtual time the devices work
//! concurrently: the makespan is the slowest device's timeline. Whether
//! the devices also contend for PCIe is the caller's choice — devices
//! built with [`Device::new`] each own a private host (a link per device,
//! as in a multi-socket node), while devices attached to one
//! [`cuda_sim::Host`] via [`Device::new_on_host`] drain their transfers
//! through that host's shared metered bus, which is what a single
//! workstation chassis actually provides.
//!
//! A fleet is a one-node cluster of the one checkpointed executor,
//! [`crate::cluster::reconstruct_cluster_checkpointed`], and
//! [`reconstruct_multi`] is exactly that. This module holds the banding
//! (`row_bands`, `partition_ranges`) and the one round-based failover
//! loop, `failover_rounds`, which the executor runs over nodes and, inside
//! each node, over its devices.
//!
//! A shared [`crate::cache::DepthTableCache`] pays the host-side
//! triangulation once for the whole fleet (devices after the first hit the
//! host cache) and keeps per-device resident tables for warm re-runs.

use std::ops::Range;

use cuda_sim::{Device, Interconnect, InterconnectProps};

use crate::cluster::reconstruct_cluster;
use crate::config::ReconstructionConfig;
use crate::error::CoreError;
use crate::geometry::ScanGeometry;
use crate::gpu::{GpuOptions, GpuReconstruction, PipelineDepth};
use crate::input::SlabSource;
use crate::journal::SlabProgress;
use crate::planner::{Pins, Plan};
use crate::Result;

/// Split `n_rows` into `n` contiguous bands, remainder spread to the front.
pub(crate) fn row_bands(n_rows: usize, n: usize) -> Vec<Range<usize>> {
    let n = n.min(n_rows).max(1);
    let base = n_rows / n;
    let extra = n_rows % n;
    let mut bands = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let len = base + usize::from(i < extra);
        bands.push(start..start + len);
        start += len;
    }
    bands
}

/// Reconstruct across several devices of one chassis, one row band per
/// device, with the serial (`k = 1`) pipeline and no table cache: a
/// one-node [`reconstruct_cluster`].
pub fn reconstruct_multi(
    devices: &[&Device],
    source: &mut dyn SlabSource,
    geom: &ScanGeometry,
    cfg: &ReconstructionConfig,
    opts: GpuOptions,
) -> Result<GpuReconstruction> {
    let net = Interconnect::new("chassis", 1, InterconnectProps::ib_qdr());
    let plan = Plan::fixed(
        1,
        devices.len(),
        opts,
        PipelineDepth::SERIAL,
        Pins::default(),
    );
    reconstruct_cluster(&[devices.to_vec()], &net, source, geom, cfg, plan, None)
}

/// Split a set of disjoint, row-ordered uncovered ranges over `n` workers.
/// Quotas come from [`row_bands`] over the total pending row count; the
/// ranges are then walked in row order, slicing at quota boundaries. For a
/// single full-detector range this reproduces `row_bands` exactly, so a
/// fresh failure-free fleet run is scheduled identically to the original
/// static banding.
pub(crate) fn partition_ranges(ranges: &[Range<usize>], n: usize) -> Vec<Vec<Range<usize>>> {
    let total: usize = ranges.iter().map(|r| r.len()).sum();
    let quotas: Vec<usize> = row_bands(total, n).into_iter().map(|b| b.len()).collect();
    let mut out: Vec<Vec<Range<usize>>> = vec![Vec::new(); quotas.len()];
    let mut rest = ranges.iter().cloned();
    let mut cur = rest.next();
    for (k, quota) in quotas.into_iter().enumerate() {
        let mut quota = quota;
        while quota > 0 {
            let Some(r) = cur.take() else { break };
            let take = quota.min(r.len());
            out[k].push(r.start..r.start + take);
            if take < r.len() {
                cur = Some(r.start + take..r.end);
            } else {
                cur = rest.next();
            }
            quota -= take;
        }
    }
    out
}

/// Round-based failover, the one loop behind both levels of the executor
/// ([`crate::cluster::reconstruct_cluster_checkpointed`] runs it over nodes,
/// and inside each node over that node's devices).
///
/// Work proceeds in rounds: the rows of `scope` (disjoint, row-ordered
/// ranges) still uncovered by `progress` are re-banded over the workers
/// still `alive` ([`partition_ranges`], which degenerates to the classic
/// static banding on a fresh run), and `work(worker, ranges, progress)`
/// runs each share, committing slab-by-slab into `progress`. A worker that
/// fails with a GPU-class error ([`CoreError::is_gpu_failure`]) is marked
/// dead and the round continues; its unfinished rows are simply still
/// uncovered next round and flow to the survivors. Only when *zero*
/// workers remain does the last such error surface, with everything the
/// workers did commit kept in `progress`. Any other error surfaces at
/// once.
pub(crate) fn failover_rounds(
    scope: &[Range<usize>],
    progress: &mut SlabProgress,
    alive: &mut [bool],
    mut work: impl FnMut(usize, &[Range<usize>], &mut SlabProgress) -> Result<()>,
) -> Result<()> {
    let mut last_gpu_err: Option<CoreError> = None;
    loop {
        let pending: Vec<Range<usize>> = scope
            .iter()
            .flat_map(|band| progress.uncovered(band.clone()))
            .collect();
        if pending.is_empty() {
            return Ok(());
        }
        let alive_idx: Vec<usize> = (0..alive.len()).filter(|&i| alive[i]).collect();
        if alive_idx.is_empty() {
            return Err(last_gpu_err.unwrap_or(CoreError::Device(cuda_sim::SimError::DeviceLost)));
        }
        let assignments = partition_ranges(&pending, alive_idx.len());
        for (ranges, &worker) in assignments.iter().zip(&alive_idx) {
            if ranges.is_empty() {
                continue;
            }
            match work(worker, ranges, progress) {
                Ok(()) => {}
                Err(e) if e.is_gpu_failure() => {
                    // The worker is gone (or hopeless): drain it. Whatever
                    // it committed before dying is already in `progress`;
                    // the rest of its rows re-band next round.
                    alive[worker] = false;
                    last_gpu_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::DepthTableCache;
    use crate::gpu::{self, Layout, RecoveryLog};
    use crate::input::InMemorySlabSource;
    use cuda_sim::DeviceProps;

    fn demo() -> (ScanGeometry, ReconstructionConfig, Vec<f64>) {
        let geom = ScanGeometry::demo(8, 6, 10, -60.0, 6.0).unwrap();
        let cfg = ReconstructionConfig::new(-1500.0, 1500.0, 60);
        let (p, m, n) = (10, 8, 6);
        let data: Vec<f64> = (0..p * m * n)
            .map(|i| {
                let z = i / (m * n);
                let px = i % (m * n);
                800.0 - 23.0 * z as f64 - (px % 5) as f64 * 13.0
            })
            .collect();
        (geom, cfg, data)
    }

    /// `reconstruct_multi` over slabs of `rows` rows when given.
    fn multi_rows(
        devices: &[&Device],
        source: &mut dyn SlabSource,
        geom: &ScanGeometry,
        cfg: &ReconstructionConfig,
        rows: Option<usize>,
    ) -> Result<GpuReconstruction> {
        let net = Interconnect::new("chassis", 1, InterconnectProps::ib_qdr());
        let pins = Pins {
            rows,
            ..Pins::default()
        };
        let opts = GpuOptions::default();
        let plan = Plan::fixed(1, devices.len(), opts, PipelineDepth::SERIAL, pins);
        reconstruct_cluster(&[devices.to_vec()], &net, source, geom, cfg, plan, None)
    }

    #[test]
    fn row_bands_cover_exactly() {
        for (rows, n) in [(8usize, 2usize), (7, 3), (5, 8), (1, 1), (10, 4)] {
            let bands = row_bands(rows, n);
            assert_eq!(bands[0].start, 0);
            assert_eq!(bands.last().unwrap().end, rows);
            for w in bands.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
                assert!(!w[0].is_empty());
            }
            // Balanced within one row.
            let lens: Vec<usize> = bands.iter().map(|b| b.len()).collect();
            assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn multi_gpu_matches_single_gpu_bitwise() {
        let (geom, cfg, data) = demo();
        // One-row slabs with culling and privatization asked for on a
        // device whose shared memory cannot hold it: culled slabs never
        // launch, so they ran no accumulator and count as no fallback.
        let mut culled = ReconstructionConfig::new(-400.0, 400.0, 40);
        culled.compaction = crate::CompactionMode::Auto;
        culled.accumulation = crate::AccumulationMode::Privatized;
        let mut cramped = DeviceProps::tiny(16 * 1024 * 1024);
        cramped.shared_mem_per_block = 64;
        for (cfg, props, rows) in [
            (cfg, DeviceProps::tiny(16 * 1024 * 1024), None),
            (culled, cramped, Some(1)),
        ] {
            let single = Device::new(props.clone());
            let mut source = InMemorySlabSource::new(data.clone(), 10, 8, 6).unwrap();
            let ref_out = multi_rows(&[&single], &mut source, &geom, &cfg, rows).unwrap();
            assert!(ref_out.stats.accum_fallback_pairs < ref_out.stats.pairs_total);

            for n_dev in [1usize, 2, 3, 4] {
                let devices: Vec<Device> = (0..n_dev).map(|_| Device::new(props.clone())).collect();
                let refs: Vec<&Device> = devices.iter().collect();
                let mut source = InMemorySlabSource::new(data.clone(), 10, 8, 6).unwrap();
                let out = multi_rows(&refs, &mut source, &geom, &cfg, rows).unwrap();
                assert_eq!(out.image.data, ref_out.image.data, "{n_dev} devices");
                assert_eq!(out.stats, ref_out.stats, "{n_dev} devices");
                assert_eq!(out.per_device.len(), n_dev);
                assert_eq!(out.nodes[0].rows, 8);
            }
        }
    }

    #[test]
    fn multi_gpu_shortens_the_makespan() {
        let (geom, cfg, data) = demo();
        let run_with = |n_dev: usize| {
            let devices: Vec<Device> = (0..n_dev)
                .map(|_| Device::new(DeviceProps::tiny(16 * 1024 * 1024)))
                .collect();
            let refs: Vec<&Device> = devices.iter().collect();
            let mut source = InMemorySlabSource::new(data.clone(), 10, 8, 6).unwrap();
            reconstruct_multi(&refs, &mut source, &geom, &cfg, GpuOptions::default())
                .unwrap()
                .elapsed_s
        };
        let one = run_with(1);
        let four = run_with(4);
        assert!(
            four < one,
            "4 devices must beat 1 in virtual time: {four} vs {one}"
        );
    }

    #[test]
    fn shared_host_fleet_contends_for_the_bus() {
        let (geom, cfg, data) = demo();
        let run = |devices: Vec<Device>| {
            let refs: Vec<&Device> = devices.iter().collect();
            let mut source = InMemorySlabSource::new(data.clone(), 10, 8, 6).unwrap();
            reconstruct_multi(&refs, &mut source, &geom, &cfg, GpuOptions::default()).unwrap()
        };
        // A link per device: transfers never queue.
        let private = run((0..4)
            .map(|_| Device::new(DeviceProps::tiny(16 * 1024 * 1024)))
            .collect());
        assert!(private.per_device.iter().all(|m| m.bus_wait_s == 0.0));
        // One chassis, one bus: the same transfers now share the link.
        let host = cuda_sim::Host::new_default();
        let shared = run((0..4)
            .map(|_| Device::new_on_host(DeviceProps::tiny(16 * 1024 * 1024), &host))
            .collect());
        assert_eq!(
            shared.image.data, private.image.data,
            "contention moves time, never data"
        );
        assert_eq!(shared.stats, private.stats);
        let stalled: f64 = shared.per_device.iter().map(|m| m.bus_wait_s).sum();
        assert!(stalled > 0.0, "devices must queue on the shared bus");
        assert!(
            shared.elapsed_s > private.elapsed_s,
            "the shared bus must stretch the makespan ({} vs {})",
            shared.elapsed_s,
            private.elapsed_s
        );
        // The bus never idles work away: the makespan still beats one
        // device doing everything alone over the same link.
        let solo = run(vec![Device::new(DeviceProps::tiny(16 * 1024 * 1024))]);
        assert!(
            shared.elapsed_s < solo.elapsed_s,
            "compute still parallelizes ({} vs {})",
            shared.elapsed_s,
            solo.elapsed_s
        );
    }

    #[test]
    fn faulty_device_in_the_fleet_recovers_bitwise() {
        let (geom, cfg, data) = demo();
        let clean: Vec<Device> = (0..2)
            .map(|_| Device::new(DeviceProps::tiny(16 * 1024 * 1024)))
            .collect();
        let refs: Vec<&Device> = clean.iter().collect();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 8, 6).unwrap();
        let ref_out =
            reconstruct_multi(&refs, &mut source, &geom, &cfg, GpuOptions::default()).unwrap();
        assert_eq!(ref_out.recovery, RecoveryLog::default());

        // Second device drops an allocation and flakes one transfer.
        let faulty: Vec<Device> = (0..2)
            .map(|_| Device::new(DeviceProps::tiny(16 * 1024 * 1024)))
            .collect();
        faulty[1].set_fault_plan(
            cuda_sim::FaultPlan::new(5)
                .fail_nth_alloc(3)
                .fail_nth_h2d(2),
        );
        let refs: Vec<&Device> = faulty.iter().collect();
        let mut source = InMemorySlabSource::new(data, 10, 8, 6).unwrap();
        let out =
            reconstruct_multi(&refs, &mut source, &geom, &cfg, GpuOptions::default()).unwrap();
        assert!(out.recovery.replans >= 1);
        assert!(out.recovery.transfer_retries >= 1);
        assert_eq!(
            out.image.data, ref_out.image.data,
            "recovery is invisible in the output"
        );
        assert_eq!(out.stats, ref_out.stats);
    }

    #[test]
    fn pipelined_fleet_with_shared_cache_matches_bitwise() {
        let (geom, cfg, data) = demo();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 8, 6).unwrap();
        let single = Device::new(DeviceProps::tiny(16 * 1024 * 1024));
        let opts = GpuOptions {
            triangulation: crate::gpu::Triangulation::HostTables,
            ..GpuOptions::default()
        };
        let ref_out =
            gpu::reconstruct_with_options(&single, &mut source, &geom, &cfg, opts).unwrap();

        let devices: Vec<Device> = (0..3)
            .map(|_| Device::new(DeviceProps::tiny(16 * 1024 * 1024)))
            .collect();
        let refs: Vec<&Device> = devices.iter().collect();
        let cache = DepthTableCache::new(8 * 1024 * 1024);
        let run = |source: &mut dyn crate::input::SlabSource| {
            let net = Interconnect::new("chassis", 1, InterconnectProps::ib_qdr());
            let plan = Plan::fixed(1, refs.len(), opts, PipelineDepth(2), Pins::default());
            reconstruct_cluster(
                std::slice::from_ref(&refs),
                &net,
                source,
                &geom,
                &cfg,
                plan,
                Some(&cache),
            )
            .unwrap()
        };
        let mut source = InMemorySlabSource::new(data.clone(), 10, 8, 6).unwrap();
        let cold = run(&mut source);
        assert_eq!(cold.image.data, ref_out.image.data);
        assert_eq!(cold.stats, ref_out.stats);
        // One host miss for the fleet; the other devices hit the host cache.
        assert_eq!(cold.table_cache.host_misses, 1);
        assert_eq!(cold.table_cache.host_hits, 2);
        assert_eq!(cold.table_cache.device_misses, 3, "one upload per device");

        let mut source = InMemorySlabSource::new(data, 10, 8, 6).unwrap();
        let warm = run(&mut source);
        assert_eq!(warm.image.data, ref_out.image.data);
        assert_eq!(warm.table_cache.device_hits, 3, "all tables resident");
        assert!(warm.elapsed_s < cold.elapsed_s);
    }

    #[test]
    fn partition_ranges_reproduces_static_banding_on_fresh_runs() {
        for (rows, n) in [(8usize, 2usize), (7, 3), (5, 8), (10, 4)] {
            let full = 0..rows;
            let from_full = partition_ranges(std::slice::from_ref(&full), n);
            let bands = row_bands(rows, n);
            assert_eq!(from_full.len(), bands.len());
            for (group, band) in from_full.iter().zip(&bands) {
                assert_eq!(group.as_slice(), std::slice::from_ref(band));
            }
        }
        // Holes are walked in row order and sliced at quota boundaries.
        let groups = partition_ranges(&[1..3, 5..9], 2);
        assert_eq!(groups, vec![vec![1..3, 5..6], vec![6..9]]);
        let one = 0..1;
        let groups = partition_ranges(std::slice::from_ref(&one), 4);
        assert_eq!(groups, vec![vec![0..1]], "fewer rows than workers");
    }

    #[test]
    fn fleet_survives_losing_each_device_in_turn() {
        let (geom, cfg, data) = demo();
        // One-row slabs: every band is several slabs.
        let rows = Some(1);
        let clean: Vec<Device> = (0..4)
            .map(|_| Device::new(DeviceProps::tiny(16 * 1024 * 1024)))
            .collect();
        let refs: Vec<&Device> = clean.iter().collect();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 8, 6).unwrap();
        let ref_out = multi_rows(&refs, &mut source, &geom, &cfg, rows).unwrap();
        assert_eq!(ref_out.devices_lost, 0);

        for victim in 0..4usize {
            let fleet: Vec<Device> = (0..4)
                .map(|_| Device::new(DeviceProps::tiny(16 * 1024 * 1024)))
                .collect();
            // Die after the first committed slab of the victim's band.
            fleet[victim].set_fault_plan(cuda_sim::FaultPlan::new(0).fail_after_launches(1));
            let refs: Vec<&Device> = fleet.iter().collect();
            let mut source = InMemorySlabSource::new(data.clone(), 10, 8, 6).unwrap();
            let out = multi_rows(&refs, &mut source, &geom, &cfg, rows).unwrap();
            assert_eq!(out.devices_lost, 1, "victim {victim}");
            assert_eq!(
                out.image.data, ref_out.image.data,
                "survivors finish victim {victim}'s rows bit-identically"
            );
            assert_eq!(out.stats, ref_out.stats);
            assert_eq!(out.nodes[0].rows, 8);
        }
    }

    #[test]
    fn zero_surviving_devices_surfaces_the_loss() {
        let (geom, cfg, data) = demo();
        let fleet: Vec<Device> = (0..2)
            .map(|_| Device::new(DeviceProps::tiny(16 * 1024 * 1024)))
            .collect();
        for d in &fleet {
            d.set_fault_plan(cuda_sim::FaultPlan::new(0).fail_after_launches(0));
        }
        let refs: Vec<&Device> = fleet.iter().collect();
        let mut source = InMemorySlabSource::new(data, 10, 8, 6).unwrap();
        let err =
            reconstruct_multi(&refs, &mut source, &geom, &cfg, GpuOptions::default()).unwrap_err();
        assert!(err.is_gpu_failure());
        assert!(err.to_string().contains("device lost"), "{err}");
    }

    #[test]
    fn privatized_fleet_matches_atomic_bitwise_even_heterogeneous() {
        let (geom, cfg, data) = demo();
        let single = Device::new(DeviceProps::tiny(16 * 1024 * 1024));
        let mut source = InMemorySlabSource::new(data.clone(), 10, 8, 6).unwrap();
        let ref_out = gpu::reconstruct(&single, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();

        let mut cfg = cfg.clone();
        cfg.accumulation = crate::config::AccumulationMode::Auto;
        // Homogeneous fleet: every slab privatizes.
        let devices: Vec<Device> = (0..3)
            .map(|_| Device::new(DeviceProps::tiny(16 * 1024 * 1024)))
            .collect();
        let refs: Vec<&Device> = devices.iter().collect();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 8, 6).unwrap();
        let out =
            reconstruct_multi(&refs, &mut source, &geom, &cfg, GpuOptions::default()).unwrap();
        assert_eq!(out.image.data, ref_out.image.data);
        assert_eq!(out.slab_privatized.len(), out.n_slabs);
        assert!(out.slab_privatized.iter().all(|p| *p));
        assert_eq!(out.stats.privatized_pairs, out.stats.pairs_total);

        // Heterogeneous fleet: one device's shared memory cannot hold a
        // 60-bin row, so its slabs fall back to atomics — the image must
        // still be bit-identical and the mix visible per slab.
        let mut cramped = DeviceProps::tiny(16 * 1024 * 1024);
        cramped.shared_mem_per_block = 64;
        let devices = [
            Device::new(DeviceProps::tiny(16 * 1024 * 1024)),
            Device::new(cramped),
        ];
        let refs: Vec<&Device> = devices.iter().collect();
        let mut source = InMemorySlabSource::new(data, 10, 8, 6).unwrap();
        let out =
            reconstruct_multi(&refs, &mut source, &geom, &cfg, GpuOptions::default()).unwrap();
        assert_eq!(out.image.data, ref_out.image.data);
        assert_eq!(out.slab_privatized.len(), out.n_slabs);
        assert!(out.slab_privatized.iter().any(|p| *p));
        assert!(out.slab_privatized.iter().any(|p| !*p));
        assert!(out.stats.privatized_pairs > 0);
        assert!(out.stats.accum_fallback_pairs > 0);
        assert_eq!(
            out.stats.privatized_pairs + out.stats.accum_fallback_pairs,
            out.stats.pairs_total
        );
    }

    #[test]
    fn no_devices_is_an_error() {
        let (geom, cfg, data) = demo();
        let mut source = InMemorySlabSource::new(data, 10, 8, 6).unwrap();
        assert!(matches!(
            reconstruct_multi(&[], &mut source, &geom, &cfg, GpuOptions::default()),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn more_devices_than_rows_still_works() {
        let (geom, cfg, data) = demo();
        let devices: Vec<Device> = (0..12)
            .map(|_| Device::new(DeviceProps::tiny(16 * 1024 * 1024)))
            .collect();
        let refs: Vec<&Device> = devices.iter().collect();
        let mut source = InMemorySlabSource::new(data, 10, 8, 6).unwrap();
        let out =
            reconstruct_multi(&refs, &mut source, &geom, &cfg, GpuOptions::default()).unwrap();
        // Only 8 rows → at most 8 bands get work, and only those devices
        // are metered.
        assert_eq!(out.per_device.len(), 8);
        assert_eq!(out.nodes[0].devices, 8);
    }
}
