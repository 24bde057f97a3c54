//! Property tests for the discrete-event core: random schedules over
//! serial stream resources and a shared (half-duplex-style) bus must obey
//! the classic makespan bounds, and replaying the same plan must journal
//! bit-identically. Plus the device-level acceptance checks: concurrent
//! transfers on one bus take longer than either alone.

use std::sync::Arc;

use cuda_sim::{Device, DeviceProps, Engine, StreamId};
use proptest::prelude::*;

/// One step of a random plan: `stream` picks the serial resource, `kind`
/// selects compute (serial only) vs transfer (serial + shared bus), and
/// `dur` is the op's uncontended duration in milliseconds.
type Step = (usize, bool, u16);

/// Run a plan on a fresh engine; returns (engine, streams, bus).
fn run_plan(
    steps: &[Step],
    n_streams: usize,
    journal: bool,
) -> (Engine, Vec<cuda_sim::ResourceId>, cuda_sim::ResourceId) {
    let engine = Engine::new();
    if journal {
        engine.enable_journal();
    }
    let streams: Vec<_> = (0..n_streams)
        .map(|i| engine.serial(&format!("stream{i}")))
        .collect();
    let bus = engine.shared("bus");
    for &(which, is_xfer, ms) in steps {
        let stream = streams[which % n_streams];
        let dur = f64::from(ms) * 1e-3 + 1e-6; // never zero
        if is_xfer {
            let ready = engine.serial_cursor(stream);
            let (_, end) = engine.shared_acquire(bus, 0, "xfer", ready, dur);
            engine.serial_wait_until(stream, end);
        } else {
            engine.serial_advance(stream, 0, "kernel", dur);
        }
    }
    (engine, streams, bus)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The overlapped makespan never exceeds the serial sum of all op
    /// durations, and never undercuts any single resource's busy time —
    /// including the shared bus, whose occupancy is the floor the
    /// free-bandwidth bug used to tunnel below.
    #[test]
    fn makespan_bounds_hold(
        steps in proptest::collection::vec((0usize..4, any::<bool>(), 1u16..500), 1..64),
    ) {
        let (engine, streams, bus) = run_plan(&steps, 4, false);
        let makespan = streams
            .iter()
            .map(|&s| engine.serial_cursor(s))
            .fold(0.0f64, f64::max);
        let serial_sum: f64 = steps
            .iter()
            .map(|&(_, _, ms)| f64::from(ms) * 1e-3 + 1e-6)
            .sum();
        prop_assert!(
            makespan <= serial_sum * (1.0 + 1e-12) + 1e-12,
            "overlap cannot be slower than fully serial: {makespan} vs {serial_sum}"
        );
        // Lower bounds: the bus can only run one transfer at a time, and
        // each stream is an in-order queue of its own ops.
        let bus_busy = engine.busy_s(bus);
        prop_assert!(
            makespan >= bus_busy * (1.0 - 1e-12) - 1e-12,
            "makespan {makespan} undercuts bus busy time {bus_busy}"
        );
        for (i, &s) in streams.iter().enumerate() {
            let stream_work: f64 = steps
                .iter()
                .filter(|&&(which, _, _)| which % 4 == i)
                .map(|&(_, _, ms)| f64::from(ms) * 1e-3 + 1e-6)
                .sum();
            let cursor = engine.serial_cursor(s);
            prop_assert!(
                cursor >= stream_work * (1.0 - 1e-12) - 1e-12,
                "stream {i} cursor {cursor} undercuts its own work {stream_work}"
            );
        }
        // The engine clock is the frontier of everything scheduled.
        prop_assert!(engine.now() >= makespan - 1e-15);
    }

    /// The same plan on two fresh engines produces bit-identical event
    /// journals — the property slab-granular resume and the ring ablation
    /// rest on.
    #[test]
    fn same_plan_journals_bit_identically(
        steps in proptest::collection::vec((0usize..3, any::<bool>(), 1u16..200), 1..48),
    ) {
        let (a, _, _) = run_plan(&steps, 3, true);
        let (b, _, _) = run_plan(&steps, 3, true);
        let (ja, jb) = (a.journal(), b.journal());
        prop_assert_eq!(ja.len(), jb.len());
        for (x, y) in ja.iter().zip(&jb) {
            prop_assert_eq!(x, y);
            prop_assert!(x.start_s.to_bits() == y.start_s.to_bits());
            prop_assert!(x.end_s.to_bits() == y.end_s.to_bits());
        }
    }

    /// Transfers queued behind a busy bus start exactly when (or after)
    /// the bus frees up, never before, and committed grants never shrink.
    #[test]
    fn acquisitions_never_timetravel(
        durs in proptest::collection::vec(1u16..300, 2..24),
    ) {
        let engine = Engine::new();
        let bus = engine.shared("bus");
        let mut committed = 0.0f64;
        for (i, &ms) in durs.iter().enumerate() {
            let dur = f64::from(ms) * 1e-3;
            // All issued with ready = 0: FIFO occupancy must stack them.
            let (start, end) = engine.shared_acquire(bus, i as u64, "x", 0.0, dur);
            prop_assert!(start >= 0.0);
            prop_assert!(end - start >= dur - 1e-12, "grant shorter than requested");
            committed += dur;
            let busy = engine.busy_s(bus);
            prop_assert!((busy - committed).abs() <= 1e-9 * committed.max(1.0));
        }
    }
}

/// Acceptance: two transfers in flight at once on one device take longer
/// end-to-end than either would alone — the bus is metered, not free.
#[test]
fn concurrent_transfers_outlast_either_alone() {
    let props = DeviceProps::tesla_m2070();
    let bytes = 4 << 20; // 4 MiB each way
    let alone = props.transfer_time(bytes as u64 * 8);

    let d = Device::new(props);
    let host_data = vec![1.0f64; bytes];
    let buf_a = d.alloc_from_slice(&host_data).unwrap();
    let buf_b = d.alloc_from_slice(&host_data).unwrap();
    d.synchronize();
    d.reset_meters();
    let up = d.create_stream();
    let down = d.create_stream();
    // Both issued at t = 0 on independent streams: an upload and a
    // download race for the half-duplex link.
    d.memcpy_htod(up, &[(&buf_a, &host_data)], false).unwrap();
    d.memcpy_dtoh(down, &buf_b, false).unwrap();
    let elapsed = d.synchronize();
    assert!(
        elapsed > alone * 1.5,
        "two concurrent transfers ({elapsed} s) must take longer than one alone ({alone} s)"
    );
    assert!(
        elapsed >= 2.0 * alone - 1e-12,
        "the half-duplex bus fully serializes them: {elapsed} vs {}",
        2.0 * alone
    );
    assert!(
        d.meters().bus_wait_s > 0.0,
        "the loser's stall must be on the meter"
    );
}

/// Acceptance, fleet form: the same transfer on each of two devices takes
/// longer on a shared host than on private hosts.
#[test]
fn two_devices_on_one_host_contend() {
    let bytes = 2 << 20;
    let host_data = vec![1.0f64; bytes];
    let run_pair = |shared: bool| -> f64 {
        let (d1, d2) = if shared {
            let h = cuda_sim::Host::new_default();
            (
                Device::new_on_host(DeviceProps::tesla_m2070(), &h),
                Device::new_on_host(DeviceProps::tesla_m2070(), &h),
            )
        } else {
            (
                Device::new(DeviceProps::tesla_m2070()),
                Device::new(DeviceProps::tesla_m2070()),
            )
        };
        let b1 = d1.alloc::<f64>(bytes).unwrap();
        let b2 = d2.alloc::<f64>(bytes).unwrap();
        d1.memcpy_htod(StreamId::DEFAULT, &[(&b1, &host_data)], false)
            .unwrap();
        d2.memcpy_htod(StreamId::DEFAULT, &[(&b2, &host_data)], false)
            .unwrap();
        d1.synchronize().max(d2.synchronize())
    };
    let private = run_pair(false);
    let shared = run_pair(true);
    assert!(
        shared > private * 1.5,
        "a shared bus must stretch the pair: {shared} vs {private}"
    );
}

/// Regression: a reused device must not leak stream timelines across runs
/// (`reset_meters` used to keep every created stream, so a shared
/// `Pipeline` grew its cursor vector by the ring depth on every run).
#[test]
fn reused_device_keeps_stream_count_flat() {
    let d = Device::new(DeviceProps::tiny(1 << 20));
    assert_eq!(d.stream_count(), 1, "fresh device has the default stream");
    let mut counts = Vec::new();
    for _ in 0..5 {
        d.reset_meters();
        let s1 = d.create_stream();
        let s2 = d.create_stream();
        let s3 = d.create_stream();
        for s in [StreamId::DEFAULT, s1, s2, s3] {
            d.delay(s, 1e-4);
        }
        d.synchronize();
        counts.push(d.stream_count());
    }
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "stream count must stay flat across runs, got {counts:?}"
    );
    d.reset_meters();
    assert_eq!(d.stream_count(), 1, "reset returns to the default stream");
}

/// Resource handles are generational: an engine that frees and recreates
/// resources hands out fresh handles and panics on stale ones.
#[test]
fn engine_shared_with_devices_is_the_host_engine() {
    let h = cuda_sim::Host::new_default();
    let d1 = Device::new_on_host(DeviceProps::tiny(1 << 20), &h);
    let d2 = Device::new_on_host(DeviceProps::tiny(1 << 20), &h);
    assert!(Arc::ptr_eq(d1.host().engine(), d2.host().engine()));
    assert!(Arc::ptr_eq(d1.host(), d2.host()));
}
