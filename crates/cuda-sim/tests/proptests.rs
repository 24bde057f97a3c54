//! Property tests for the device simulator: allocator soundness, bitwise
//! equivalence across worker counts, and cost-model monotonicity.

use cuda_sim::{Device, DeviceBuffer, DeviceProps, DeviceScalar, Dim3, LaunchConfig, StreamId};
use proptest::prelude::*;

/// The buffer's contents, read back with an unchecked D2H on the default
/// stream.
fn read<T: DeviceScalar>(d: &Device, buf: &DeviceBuffer<T>) -> Vec<T> {
    let (copy, _) = d.memcpy_dtoh(StreamId::DEFAULT, buf, false).unwrap();
    let mut host = vec![T::default(); buf.len()];
    copy.scatter_into(&mut host);
    host
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Allocations never alias and frees always restore capacity.
    #[test]
    fn allocator_soundness(sizes in proptest::collection::vec(1usize..2048, 1..20)) {
        let d = Device::new(DeviceProps::tiny(1 << 20));
        let mut bufs = Vec::new();
        for &s in &sizes {
            match d.alloc::<f64>(s) {
                Ok(b) => bufs.push(b),
                Err(_) => break,
            }
        }
        // Distinct modeled address ranges.
        for i in 0..bufs.len() {
            for j in i + 1..bufs.len() {
                let (a0, a1) = (bufs[i].device_addr(), bufs[i].device_addr() + bufs[i].modeled_bytes());
                let (b0, b1) = (bufs[j].device_addr(), bufs[j].device_addr() + bufs[j].modeled_bytes());
                prop_assert!(a1 <= b0 || b1 <= a0, "buffers overlap");
            }
        }
        let used = d.mem_used();
        prop_assert!(used >= bufs.iter().map(|b| b.modeled_bytes()).sum::<u64>());
        bufs.clear();
        prop_assert_eq!(d.mem_used(), 0, "all memory returned on drop");
    }

    /// Data survives a round trip through device memory bit-exactly.
    #[test]
    fn htod_dtoh_round_trip(data in proptest::collection::vec(any::<f64>(), 1..512)) {
        let d = Device::new(DeviceProps::tiny(1 << 16));
        let buf = d.alloc_from_slice(&data).unwrap();
        for (a, b) in data.iter().zip(&read(&d, &buf)) {
            prop_assert!(a.to_bits() == b.to_bits(), "bit-exact round trip");
        }
    }

    /// A scatter-add kernel, plain or through per-block shared tiles with
    /// an epilogue commit, produces the same bits on one worker and on
    /// many: every f64 and u64 cell, the whole `Cost`, and every trace
    /// counter.
    #[test]
    fn exec_modes_equivalent(
        values in proptest::collection::vec(-100.0..100.0f64, 16..256),
        n_bins in 1usize..16,
        block in 1u64..40,
        tiled in any::<bool>(),
        workers in 2usize..6,
    ) {
        let run = |workers: usize| {
            let d = Device::new(DeviceProps::tiny(1 << 16));
            d.force_workers(workers);
            let n = values.len();
            let input = d.alloc_from_slice(&values).unwrap();
            let out = d.alloc::<f64>(n_bins).unwrap();
            let hits = d.alloc::<u64>(n_bins).unwrap();
            let cfg = LaunchConfig::linear(n as u64, block);
            let record = if tiled {
                d.launch_shared_on(
                    StreamId::DEFAULT,
                    "tiled-scatter",
                    cfg,
                    n_bins,
                    |ctx, tile| {
                        let i = ctx.global_id().x as usize;
                        if i < n {
                            let v = ctx.read(&input, i);
                            ctx.charge_shared_atomic();
                            tile[i % n_bins] += v;
                            ctx.trace(i % 8);
                        }
                    },
                    |ctx, tile| {
                        for (bin, &v) in tile.iter().enumerate() {
                            if v != 0.0 {
                                ctx.atomic_add_f64(&out, bin, v);
                                ctx.atomic_add_u64(&hits, bin, 1);
                            }
                        }
                    },
                )
            } else {
                d.launch("scatter", cfg, |ctx| {
                    let i = ctx.global_id().x as usize;
                    if i < n {
                        let v = ctx.read(&input, i);
                        ctx.charge_flops(1);
                        ctx.atomic_add_f64(&out, i % n_bins, v);
                        ctx.atomic_add_u64(&hits, i % n_bins, i as u64);
                        ctx.trace(i % 8);
                    }
                })
            }
            .unwrap();
            let counts = read(&d, &hits);
            let bits: Vec<u64> = read(&d, &out).iter().map(|v| v.to_bits()).collect();
            (bits, counts, record.cost, record.traces)
        };
        prop_assert_eq!(run(1), run(workers));
    }

    /// Kernel time is monotone in each cost component.
    #[test]
    fn kernel_time_monotone(flops in 0u64..1u64 << 40, bytes in 0u64..1u64 << 36, atomics in 0u64..1u64 << 24) {
        let p = DeviceProps::tesla_m2070();
        let base = cuda_sim::Cost { flops, mem_bytes: bytes, atomic_ops: atomics, ..Default::default() };
        let t0 = p.kernel_time(&base);
        let mut more = base;
        more.flops += 1 << 30;
        prop_assert!(p.kernel_time(&more) >= t0);
        let mut more = base;
        more.mem_bytes += 1 << 30;
        prop_assert!(p.kernel_time(&more) >= t0);
        let mut more = base;
        more.atomic_max_chain = 1 << 20;
        prop_assert!(p.kernel_time(&more) >= t0);
    }

    /// Transfer time is strictly increasing and superadditive-free
    /// (splitting a transfer only adds latency).
    #[test]
    fn transfer_split_costs_latency(bytes in 2u64..1 << 30, splits in 2u64..16) {
        let p = DeviceProps::tesla_m2070();
        let whole = p.transfer_time(bytes);
        let per = bytes / splits;
        let split_total: f64 = (0..splits).map(|_| p.transfer_time(per)).sum::<f64>()
            + p.transfer_time(bytes - per * splits + 1);
        prop_assert!(split_total > whole - 1e-12, "splitting cannot be cheaper");
    }

    /// Timeline invariants: per-stream ops never overlap and appear in
    /// issue order; the device elapsed time is the max op end; the Chrome
    /// trace is structurally sound.
    #[test]
    fn timeline_and_trace_invariants(
        ops in proptest::collection::vec((0usize..3, 1usize..256), 1..24),
    ) {
        let d = Device::new(DeviceProps::tiny(1 << 20));
        let s1 = d.create_stream();
        let s2 = d.create_stream();
        let streams = [StreamId::DEFAULT, s1, s2];
        let buf = d.alloc::<f64>(256).unwrap();
        let host = vec![0.0f64; 256];
        for &(which, size) in &ops {
            let stream = streams[which];
            match size % 3 {
                0 => {
                    d.memcpy_htod(stream, &[(&buf, &host)], false).unwrap();
                }
                1 => {
                    d.memcpy_dtoh(stream, &buf, false).unwrap();
                }
                _ => {
                    d.launch_on(stream, "w", LaunchConfig::linear(size as u64, 32), |ctx| {
                        ctx.charge_flops(100);
                    })
                    .unwrap();
                }
            }
        }
        let recorded = d.ops();
        prop_assert_eq!(recorded.len(), ops.len());
        // Per-stream: ordered, non-overlapping, positive duration.
        for stream in 0..3 {
            let mut last_end = 0.0f64;
            for op in recorded.iter().filter(|o| o.stream == stream) {
                prop_assert!(op.end_s > op.start_s);
                prop_assert!(op.start_s >= last_end - 1e-15, "ops overlap on stream {stream}");
                last_end = op.end_s;
            }
        }
        // Elapsed = max end.
        let max_end = recorded.iter().map(|o| o.end_s).fold(0.0f64, f64::max);
        prop_assert!((d.elapsed_s() - max_end).abs() < 1e-15);
        // Trace document is balanced and mentions every op kind used.
        let json = d.export_chrome_trace();
        prop_assert_eq!(json.matches('{').count(), json.matches('}').count());
        for op in &recorded {
            let needle = format!("\"cat\":\"{}\"", op.kind);
            prop_assert!(json.contains(&needle), "trace missing kind {}", op.kind);
        }
    }

    /// Covering launches always reach every domain point exactly once, for
    /// arbitrary block shapes.
    #[test]
    fn cover_reaches_every_point(
        dx in 1u64..6, dy in 1u64..6, dz in 1u64..4,
        bx in 1u64..4, by in 1u64..4, bz in 1u64..3,
    ) {
        let d = Device::new(DeviceProps::tiny(1 << 16));
        let n = (dx * dy * dz) as usize;
        let seen = d.alloc::<u64>(n).unwrap();
        let cfg = LaunchConfig::cover(Dim3::new(dx, dy, dz), Dim3::new(bx, by, bz));
        d.launch("cover", cfg, |ctx| {
            let g = ctx.global_id();
            if g.x < dx && g.y < dy && g.z < dz {
                let lin = ((g.z * dy + g.y) * dx + g.x) as usize;
                ctx.atomic_add_u64(&seen, lin, 1);
            }
        })
        .unwrap();
        prop_assert!(read(&d, &seen).iter().all(|&c| c == 1));
    }
}

/// Deterministic pin of the committed `cover_reaches_every_point`
/// regression (see `proptests.proptest-regressions`): a z-only domain of
/// `(1, 1, 3)` covered by `1×1×1` blocks once exposed a launch-geometry bug
/// where the z extent was folded away and points were visited twice. Kept
/// as a plain test so the exact geometry runs on every `cargo test`,
/// independent of the proptest shim's sampling.
#[test]
fn cover_regression_z_only_domain_unit_blocks() {
    let (dx, dy, dz) = (1u64, 1u64, 3u64);
    let d = Device::new(DeviceProps::tiny(1 << 16));
    let n = (dx * dy * dz) as usize;
    let seen = d.alloc::<u64>(n).unwrap();
    let cfg = LaunchConfig::cover(Dim3::new(dx, dy, dz), Dim3::new(1, 1, 1));
    d.launch("cover", cfg, |ctx| {
        let g = ctx.global_id();
        if g.x < dx && g.y < dy && g.z < dz {
            let lin = ((g.z * dy + g.y) * dx + g.x) as usize;
            ctx.atomic_add_u64(&seen, lin, 1);
        }
    })
    .unwrap();
    assert_eq!(
        read(&d, &seen),
        vec![1, 1, 1],
        "every z point visited exactly once"
    );
}
