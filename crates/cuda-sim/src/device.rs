//! The simulated device: memory, kernel execution, and virtual time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::alloc::{Allocator, ALIGN};
use crate::checksum;
use crate::error::{SimError, TransferDir};
use crate::exec;
use crate::fault::{FaultPlan, FaultState, FaultStats, LaunchEffects, TransferOutcome};
use crate::host::Host;
use crate::kernel::{Flip, LaunchConfig, ThreadCtx};
use crate::memory::{Allocation, DeviceBuffer, DeviceScalar, NonzeroWords};
use crate::meter::{LaunchRecord, Meters};
use crate::props::DeviceProps;
use crate::stream::{StreamId, Timelines};
use crate::trace::{OpRecord, TraceBuf, DEFAULT_TRACE_CAP};
use crate::Result;

static NEXT_DEVICE_ID: AtomicU64 = AtomicU64::new(1);

/// Virtual-time interval of one device operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSpan {
    /// When the operation started on its stream.
    pub start_s: f64,
    /// When it finished.
    pub end_s: f64,
}

/// Mutable bookkeeping behind one lock.
#[derive(Debug)]
struct DeviceState {
    timelines: Timelines,
    meters: Meters,
    records: Vec<LaunchRecord>,
    trace: TraceBuf,
    /// Host threads every launch runs on, whatever its size (tests only;
    /// `None`: the executor's own choice).
    forced_workers: Option<usize>,
}

/// A software CUDA-like device.
///
/// All methods take `&self`; internal state is lock-protected, and kernel
/// execution itself runs outside the locks, spread over host threads when
/// the launch is large (see [`crate::exec`]).
#[derive(Debug)]
pub struct Device {
    id: u64,
    props: DeviceProps,
    allocator: Arc<Mutex<Allocator>>,
    state: Mutex<DeviceState>,
    /// Scripted fault schedule, if any (see [`crate::fault`]).
    fault: Mutex<Option<FaultState>>,
    /// The host machine this device is plugged into. Transfers contend for
    /// its shared PCIe bus; host-side FLOPs charge its CPU resource.
    host: Arc<Host>,
    /// Engine-local actor tag on that host (dense attach order).
    slot: u64,
}

impl Device {
    /// Create a device with the given properties on a **private** host (it
    /// alone owns the PCIe bus — single-device schedules are unchanged).
    pub fn new(props: DeviceProps) -> Device {
        Device::new_on_host(props, &Host::new_default())
    }

    /// Create a device attached to a shared [`Host`]: its transfers
    /// contend for that host's PCIe bus with every other attached device.
    /// This is how a multi-GPU node is modeled honestly — `N` devices on
    /// one host do *not* get `N×` the host bandwidth.
    pub fn new_on_host(props: DeviceProps, host: &Arc<Host>) -> Device {
        let slot = host.attach();
        Device {
            id: NEXT_DEVICE_ID.fetch_add(1, Ordering::Relaxed),
            allocator: Arc::new(Mutex::new(Allocator::new(props.total_mem))),
            state: Mutex::new(DeviceState {
                timelines: Timelines::new(Arc::clone(host.engine()), slot),
                meters: Meters::default(),
                records: Vec::new(),
                trace: TraceBuf::new(DEFAULT_TRACE_CAP),
                forced_workers: None,
            }),
            fault: Mutex::new(None),
            host: Arc::clone(host),
            slot,
            props,
        }
    }

    /// The device's performance model.
    pub fn props(&self) -> &DeviceProps {
        &self.props
    }

    /// The host this device is attached to.
    pub fn host(&self) -> &Arc<Host> {
        &self.host
    }

    /// Process-unique device identifier. Buffers remember the id of the
    /// device that allocated them; callers keying per-device state (e.g.
    /// device-resident caches) should use this rather than pointer identity.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// For tests: run every later launch on exactly `workers` host threads
    /// (1: the calling thread alone), whatever its size. Results never
    /// depend on the worker count; this lets a test show it on launches
    /// small enough to check.
    pub fn force_workers(&self, workers: usize) {
        assert!(workers > 0, "a launch needs at least one worker");
        self.state.lock().forced_workers = Some(workers);
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Install a scripted fault schedule. Subsequent allocations, copies
    /// and launches consult the plan; a `report_mem` knob additionally caps
    /// the memory this device reports and grants.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.allocator.lock().set_limit(plan.report_mem);
        *self.fault.lock() = Some(FaultState::new(plan));
    }

    /// Remove any fault schedule and restore the real memory capacity.
    pub fn clear_fault_plan(&self) {
        self.allocator.lock().set_limit(None);
        *self.fault.lock() = None;
    }

    /// What the installed plan has injected so far (`None` without a plan).
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.lock().as_ref().map(|f| f.stats)
    }

    /// Has a fault plan permanently lost this device? A lost device refuses
    /// every operation with [`SimError::DeviceLost`] until the plan is
    /// cleared; fleet schedulers use this to skip dead devices without
    /// paying for another refused operation.
    pub fn is_lost(&self) -> bool {
        self.fault.lock().as_ref().is_some_and(|f| f.is_lost())
    }

    /// Consult the fault plan before an allocation of `bytes` (pre-align).
    /// An injected allocation fault is surfaced as an ordinary
    /// [`SimError::OutOfMemory`] carrying the real allocator statistics, so
    /// callers re-plan identically for scripted and genuine exhaustion.
    fn fault_check_alloc(&self, bytes: u64) -> Result<()> {
        let outcome = match self.fault.lock().as_mut() {
            Some(f) => f.on_alloc(),
            None => Ok(()),
        };
        outcome.map_err(|e| match e {
            SimError::InvalidRequest(_) => {
                let a = self.allocator.lock();
                SimError::OutOfMemory {
                    requested: bytes.div_ceil(ALIGN) * ALIGN,
                    largest_free: a.largest_free(),
                    free_total: a.free_total(),
                    capacity: a.capacity(),
                }
            }
            other => other,
        })
    }

    /// Consult the fault plan before a transfer. A transient fault still
    /// charges the bus time (the wire was busy while the copy failed) and
    /// leaves a `"fault"` op in the trace. A clean consult may still order
    /// a **silent** payload corruption ([`TransferOutcome::Corrupt`]): the
    /// copy paths apply it after the payload lands, leave a `"flip"` op in
    /// the trace, and report success — exactly like real hardware.
    fn fault_check_transfer(
        &self,
        dir: TransferDir,
        stream: StreamId,
        bytes: u64,
    ) -> Result<TransferOutcome> {
        let outcome = match self.fault.lock().as_mut() {
            Some(f) => f.on_transfer(dir),
            None => Ok(TransferOutcome::Clean),
        };
        match outcome {
            Err(e) => {
                if e.is_transient() {
                    let dur = self.props.transfer_time(bytes);
                    let mut st = self.state.lock();
                    let (start_s, end_s) = self.bus_transfer(&mut st, stream, dir, "fault", dur);
                    st.meters.comm_time_s += dur;
                    st.trace
                        .push_with("fault", stream.index(), start_s, end_s, || {
                            format!("{} fault {bytes} B", dir.to_string().to_uppercase())
                        });
                }
                Err(e)
            }
            Ok(o) => Ok(o),
        }
    }

    /// Put a transfer of modeled duration `dur` through the host's shared
    /// PCIe bus. The stream is ready at its cursor; the bus grants time
    /// from that instant onwards (exactly `[cursor, cursor + dur)` when
    /// uncontended), and the stream then waits for the transfer's end.
    /// Any extra time beyond `dur` is bus contention, metered as
    /// `bus_wait_s`.
    fn bus_transfer(
        &self,
        st: &mut DeviceState,
        stream: StreamId,
        dir: TransferDir,
        label: &'static str,
        dur: f64,
    ) -> (f64, f64) {
        let ready = st.timelines.cursor(stream);
        let (start_s, end_s) = self.host.bus_acquire(dir, self.slot, label, ready, dur);
        st.timelines.wait_until(stream, end_s);
        // Extra stall beyond the uncontended duration. A contended grant may
        // split across bus gaps (first burst on time, last byte late), so the
        // stall is measured at the drain end, not the start. The uncontended
        // fast path computes `end = ready + dur` with this same expression,
        // making the subtraction bitwise zero there.
        st.meters.bus_wait_s += (end_s - (ready + dur)).max(0.0);
        (start_s, end_s)
    }

    /// Consult the fault plan before a kernel launch. A permitted launch
    /// may carry silent effects (an armed deposit flip, an injected stall)
    /// that [`launch_shared_on`](Self::launch_shared_on) applies while
    /// executing it.
    fn fault_check_launch(&self) -> Result<LaunchEffects> {
        match self.fault.lock().as_mut() {
            Some(f) => f.on_launch(),
            None => Ok(LaunchEffects::CLEAN),
        }
    }

    // ------------------------------------------------------------------
    // Memory management
    // ------------------------------------------------------------------

    /// Allocate a buffer of `len` elements. Fresh device memory is
    /// zero-filled.
    pub fn alloc<T: DeviceScalar>(&self, len: usize) -> Result<DeviceBuffer<T>> {
        if len == 0 {
            return Err(SimError::InvalidRequest("zero-length buffer".into()));
        }
        let bytes = len as u64 * T::SIZE;
        self.fault_check_alloc(bytes)?;
        let addr = self.allocator.lock().alloc(bytes)?;
        let allocation = Allocation {
            addr,
            bytes,
            allocator: Arc::clone(&self.allocator),
        };
        Ok(DeviceBuffer::new(len, allocation, self.id))
    }

    /// Allocate and upload in one step (charges the H2D transfer on the
    /// default stream).
    pub fn alloc_from_slice<T: DeviceScalar>(&self, data: &[T]) -> Result<DeviceBuffer<T>> {
        let buf = self.alloc::<T>(data.len())?;
        self.memcpy_htod(StreamId::DEFAULT, &[(&buf, data)], false)?;
        Ok(buf)
    }

    /// Bytes currently allocated on the device.
    pub fn mem_used(&self) -> u64 {
        self.allocator.lock().used()
    }

    /// High-water mark of device memory use.
    pub fn mem_peak(&self) -> u64 {
        self.allocator.lock().peak_used()
    }

    /// Modeled capacity.
    pub fn mem_capacity(&self) -> u64 {
        self.allocator.lock().capacity()
    }

    // ------------------------------------------------------------------
    // Transfers
    // ------------------------------------------------------------------

    fn check_buffer<T: DeviceScalar>(&self, buf: &DeviceBuffer<T>) -> Result<()> {
        if buf.device_id != self.id {
            return Err(SimError::ForeignBuffer);
        }
        Ok(())
    }

    /// Host FLOPs one CRC64 pass charges per payload byte (a table-driven
    /// software CRC: one XOR plus one table fold per byte, amortized).
    pub const CRC64_FLOPS_PER_BYTE: u64 = 4;

    /// Copy host → device: every `(buffer, host slice)` pair in `copies`
    /// lands in **one** bus transaction on `stream` (a single buffer is a
    /// batch of one). The transaction pays the PCIe latency once and the
    /// bandwidth term on the summed payload,
    /// [`DeviceProps::transfer_time`]`(Σ bytes)`.
    ///
    /// Validation (foreign buffers, length mismatches, an empty batch)
    /// happens before any data moves. One fault draw covers the whole
    /// transaction: a transient fault burns the full bus time and poisons
    /// **every** destination buffer (a partial DMA may have touched any of
    /// them), so the caller retries the whole batch; a silent flip
    /// addresses the concatenated payload and lands in device memory.
    ///
    /// With `checked`, a CRC64 of the host payload before the copy is
    /// compared against one of the landed device words after it (a
    /// device-side checksum pass: `2 × bytes ×`
    /// [`CRC64_FLOPS_PER_BYTE`](Self::CRC64_FLOPS_PER_BYTE) host FLOPs on
    /// the overlapped host-CPU resource, no extra bus traffic). A mismatch
    /// reports [`SimError::CorruptTransfer`], which is retryable exactly
    /// like a transient fault: a retry re-sends the payload.
    pub fn memcpy_htod<T: DeviceScalar>(
        &self,
        stream: StreamId,
        copies: &[(&DeviceBuffer<T>, &[T])],
        checked: bool,
    ) -> Result<TimeSpan> {
        if copies.is_empty() {
            return Err(SimError::InvalidRequest("empty host-to-device copy".into()));
        }
        let mut bytes = 0u64;
        for (buf, src) in copies {
            self.check_buffer(buf)?;
            if src.len() != buf.len() {
                return Err(SimError::CopyLengthMismatch {
                    device_len: buf.len(),
                    host_len: src.len(),
                });
            }
            bytes += buf.modeled_bytes();
        }
        let expect = checked.then(|| {
            checksum::crc64(
                copies
                    .iter()
                    .map(|(_, src)| (src.len(), move |i: usize| src[i].to_word())),
            )
        });
        let outcome = match self.fault_check_transfer(TransferDir::HostToDevice, stream, bytes) {
            Ok(o) => o,
            Err(e) => {
                if e.is_transient() {
                    for (buf, _) in copies {
                        buf.poison();
                    }
                }
                return Err(e);
            }
        };
        for (buf, src) in copies {
            for (i, &v) in src.iter().enumerate() {
                buf.store(i, v);
            }
        }
        // A silent flip addresses the transaction's concatenated payload;
        // walk the copies to find the owning buffer.
        let mut flipped = None;
        if let TransferOutcome::Corrupt { byte } = outcome {
            let mut off = byte % bytes;
            for (buf, _) in copies {
                if off < buf.modeled_bytes() {
                    let (elem, mask) = flip_at::<T>(off);
                    buf.word(elem).fetch_xor(mask, Ordering::Relaxed);
                    flipped = Some(elem);
                    break;
                }
                off -= buf.modeled_bytes();
            }
        }
        let n = copies.len();
        let span = self.bus_copy(
            stream,
            TransferDir::HostToDevice,
            bytes,
            flipped,
            || match n {
                1 => format!("H2D {bytes} B"),
                _ => format!("H2D coalesced {n}×, {bytes} B"),
            },
        );
        if let Some(expect) = expect {
            let landed = checksum::crc64(copies.iter().map(|(buf, _)| {
                (buf.len(), move |i: usize| {
                    buf.word(i).load(Ordering::Relaxed)
                })
            }));
            self.check_crc(TransferDir::HostToDevice, bytes, expect, landed)?;
        }
        Ok(span)
    }

    /// Copy device → host on `stream`, keeping only the buffer's nonzero
    /// words ([`NonzeroWords`]). The bus model is the dense copy's: the
    /// transfer moves, times and meters `buf.modeled_bytes()`; only the
    /// host side skips the zeros. A scripted silent flip lands on the host
    /// copy only (device memory keeps the true data — that asymmetry is
    /// what readback CRCs catch).
    ///
    /// With `checked`, a CRC64 of the device words before the copy is
    /// compared against one of the received copy, both over the dense
    /// stream with each zero run advanced in O(log run)
    /// ([`checksum::crc64_nonzero`]), for the dense copy's host FLOPs. A
    /// mismatch reports a retryable [`SimError::CorruptTransfer`].
    pub fn memcpy_dtoh<T: DeviceScalar>(
        &self,
        stream: StreamId,
        buf: &DeviceBuffer<T>,
        checked: bool,
    ) -> Result<(NonzeroWords, TimeSpan)> {
        self.check_buffer(buf)?;
        // Read (and length-check) before the fault dice roll, like every
        // other validation; device memory is the same either side of it.
        let mut copy = buf.nonzero_words()?;
        let bytes = buf.modeled_bytes();
        let outcome = self.fault_check_transfer(TransferDir::DeviceToHost, stream, bytes)?;
        let expect = checked.then(|| checksum::crc64_nonzero(&copy));
        let mut flipped = None;
        if let TransferOutcome::Corrupt { byte } = outcome {
            let (elem, mask) = flip_at::<T>(byte % bytes);
            copy.flip(elem, mask);
            flipped = Some(elem);
        }
        let span = self.bus_copy(stream, TransferDir::DeviceToHost, bytes, flipped, || {
            format!("D2H {bytes} B")
        });
        if let Some(expect) = expect {
            let landed = checksum::crc64_nonzero(&copy);
            self.check_crc(TransferDir::DeviceToHost, bytes, expect, landed)?;
        }
        Ok((copy, span))
    }

    /// Charge a checked copy's two CRC64 passes over `bytes` to the host
    /// CPU, and report a retryable [`SimError::CorruptTransfer`] when the
    /// CRC of what landed differs from the one taken before the wire.
    fn check_crc(&self, dir: TransferDir, bytes: u64, expect: u64, landed: u64) -> Result<()> {
        self.charge_host_flops(2 * bytes * Self::CRC64_FLOPS_PER_BYTE);
        if landed != expect {
            return Err(SimError::CorruptTransfer {
                dir,
                index: self.meters().transfers,
            });
        }
        Ok(())
    }

    /// Put one landed copy of `bytes` on the host's bus, then meter and
    /// trace it (`name` labels the op), with the element a silent flip
    /// hit, if any.
    fn bus_copy(
        &self,
        stream: StreamId,
        dir: TransferDir,
        bytes: u64,
        flipped: Option<usize>,
        name: impl FnOnce() -> String,
    ) -> TimeSpan {
        let (kind, moved) = match dir {
            TransferDir::HostToDevice => ("h2d", "H2D"),
            TransferDir::DeviceToHost => ("d2h", "D2H"),
        };
        let dur = self.props.transfer_time(bytes);
        let mut st = self.state.lock();
        let (start_s, end_s) = self.bus_transfer(&mut st, stream, dir, kind, dur);
        st.meters.comm_time_s += dur;
        match dir {
            TransferDir::HostToDevice => st.meters.h2d_bytes += bytes,
            TransferDir::DeviceToHost => st.meters.d2h_bytes += bytes,
        }
        st.meters.transfers += 1;
        st.trace
            .push_with(kind, stream.index(), start_s, end_s, name);
        if let Some(elem) = flipped {
            st.trace
                .push_with("flip", stream.index(), end_s, end_s, || {
                    format!("{moved} silent flip @ element {elem}")
                });
        }
        TimeSpan { start_s, end_s }
    }

    // ------------------------------------------------------------------
    // Kernel launches
    // ------------------------------------------------------------------

    /// Launch a kernel on the default stream. The closure runs once per
    /// simulated thread; see [`ThreadCtx`] for the device-side API.
    pub fn launch<F>(&self, name: &str, cfg: LaunchConfig, kernel: F) -> Result<LaunchRecord>
    where
        F: Fn(&mut ThreadCtx<'_>) + Sync,
    {
        self.launch_on(StreamId::DEFAULT, name, cfg, kernel)
    }

    /// Launch a kernel on a chosen stream.
    pub fn launch_on<F>(
        &self,
        stream: StreamId,
        name: &str,
        cfg: LaunchConfig,
        kernel: F,
    ) -> Result<LaunchRecord>
    where
        F: Fn(&mut ThreadCtx<'_>) + Sync,
    {
        self.launch_shared_on(stream, name, cfg, 0, |ctx, _| kernel(ctx), |_, _| {})
    }

    /// Launch a kernel that reserves `shared_f64` doubles of `__shared__`
    /// memory per block.
    ///
    /// Every block gets its own zero-initialised tile; the kernel closure
    /// runs once per thread with the block's tile, then `epilogue` runs
    /// **once per block** (with a context at thread (0,0,0)) after all the
    /// block's threads finish — the simulator's `__syncthreads()`-then-
    /// reduce idiom. Blocks never share a tile, so the pattern is
    /// deterministic at any worker count.
    ///
    /// The reservation is charged to the launch as occupancy pressure
    /// ([`crate::Cost::shared_request`]); a request exceeding the device's
    /// `shared_mem_per_block` is an [`SimError::InvalidLaunch`], exactly
    /// like an oversized block.
    pub fn launch_shared_on<F, E>(
        &self,
        stream: StreamId,
        name: &str,
        cfg: LaunchConfig,
        shared_f64: usize,
        kernel: F,
        epilogue: E,
    ) -> Result<LaunchRecord>
    where
        F: Fn(&mut ThreadCtx<'_>, &mut [f64]) + Sync,
        E: Fn(&mut ThreadCtx<'_>, &mut [f64]) + Sync,
    {
        cfg.validate(&self.props)?;
        let shared_bytes = shared_f64 as u64 * 8;
        if shared_bytes > self.props.shared_mem_per_block {
            return Err(SimError::InvalidLaunch(format!(
                "{shared_bytes} B of shared memory per block exceeds limit {}",
                self.props.shared_mem_per_block
            )));
        }
        let effects = self.fault_check_launch()?;
        let workers = match self.state.lock().forced_workers {
            Some(n) => n,
            None if cfg.total_threads() >= exec::PARALLEL_LAUNCH_THREADS => exec::host_cores(),
            None => 1,
        };
        let run = exec::run(
            cfg,
            shared_f64,
            &kernel,
            &epilogue,
            workers,
            effects.flip_op.map(Flip::new),
        );
        let mut cost = run.cost;
        cost.shared_request = shared_bytes;
        // Only flips that actually landed on a deposit count — an armed
        // launch with fewer deposits than the target ordinal fires nothing.
        let flip_landed = run.flipped;
        if flip_landed {
            if let Some(f) = self.fault.lock().as_mut() {
                f.record_kernel_flip();
            }
        }
        // A stuck kernel occupies the stream for the extra stall with no
        // error; `cost` stays honest, so a watchdog can detect the hang by
        // comparing `duration_s` against the cost model's prediction.
        let duration = self.props.kernel_time(&cost) + effects.stall_s;
        let record = LaunchRecord {
            name: name.to_string(),
            threads: cfg.total_threads(),
            cost,
            duration_s: duration,
            stream: stream.index(),
            start_s: 0.0,
            end_s: 0.0,
            traces: run.traces,
        };
        let mut st = self.state.lock();
        let (start_s, end_s) = st.timelines.schedule_labeled(stream, duration, "kernel");
        let record = LaunchRecord {
            start_s,
            end_s,
            ..record
        };
        st.meters.compute_time_s += duration;
        st.meters.launches += 1;
        st.meters.kernel_cost.merge(&cost);
        st.trace
            .push_with("kernel", stream.index(), start_s, end_s, || {
                record.name.clone()
            });
        if flip_landed {
            st.trace
                .push_with("flip", stream.index(), end_s, end_s, || {
                    format!("kernel silent flip in {}", record.name)
                });
        }
        if effects.stall_s > 0.0 {
            st.trace
                .push_with("stall", stream.index(), start_s, end_s, || {
                    format!("kernel stall +{:.3e} s in {}", effects.stall_s, record.name)
                });
        }
        st.records.push(record.clone());
        Ok(record)
    }

    // ------------------------------------------------------------------
    // Streams & time
    // ------------------------------------------------------------------

    /// Create an additional stream.
    pub fn create_stream(&self) -> StreamId {
        self.state.lock().timelines.create_stream()
    }

    /// Number of live streams (the default stream plus created ones).
    /// [`reset_meters`](Self::reset_meters) destroys created streams, so a
    /// device reused across runs stays at a constant count instead of
    /// growing by the per-run stream set every invocation.
    pub fn stream_count(&self) -> usize {
        self.state.lock().timelines.count()
    }

    /// Make `stream` wait until virtual time `t` — the event-wait primitive
    /// double-buffered pipelines use (`t` usually comes from a prior op's
    /// [`TimeSpan::end_s`] or [`LaunchRecord::end_s`]).
    pub fn wait_until(&self, stream: StreamId, t: f64) {
        self.state.lock().timelines.wait_until(stream, t);
    }

    /// Enqueue idle time on `stream` — the virtual-time analogue of a
    /// host-side sleep, used as retry backoff after a transient fault. The
    /// interval shows up in the trace but charges no meter.
    pub fn delay(&self, stream: StreamId, seconds: f64) -> TimeSpan {
        let mut st = self.state.lock();
        let (start_s, end_s) = st
            .timelines
            .schedule_labeled(stream, seconds.max(0.0), "idle");
        st.trace
            .push_with("idle", stream.index(), start_s, end_s, || {
                format!("backoff {seconds:.3e} s")
            });
        TimeSpan { start_s, end_s }
    }

    /// Device-wide barrier; returns the virtual time at the barrier.
    pub fn synchronize(&self) -> f64 {
        self.state.lock().timelines.synchronize()
    }

    /// Overlapped makespan so far.
    pub fn elapsed_s(&self) -> f64 {
        self.state.lock().timelines.elapsed()
    }

    /// Snapshot of the accumulated meters.
    pub fn meters(&self) -> Meters {
        self.state.lock().meters
    }

    /// Copy of the per-launch records.
    pub fn records(&self) -> Vec<LaunchRecord> {
        self.state.lock().records.clone()
    }

    /// Export the virtual timeline in Chrome Trace Event Format (view in
    /// `chrome://tracing` or Perfetto).
    pub fn export_chrome_trace(&self) -> String {
        let st = self.state.lock();
        crate::trace::chrome_trace(&[(self.props.name.clone(), st.trace.ops())])
    }

    /// Copy of the raw operation log behind the trace export: the newest
    /// [`DEFAULT_TRACE_CAP`] records.
    pub fn ops(&self) -> Vec<OpRecord> {
        self.state.lock().trace.ops()
    }

    /// Op records the trace ring shed.
    pub fn trace_dropped(&self) -> u64 {
        self.state.lock().trace.dropped()
    }

    /// Charge `flops` of host-side work (triangulation tables, shadow
    /// culling) to the host's CPU resource. The work is accounted on the
    /// host timeline — it packs the CPU from t = 0 and contends with every
    /// device attached to the same host — but it does **not** stall the
    /// device streams: stream virtual time is unchanged, preserving
    /// bit-identical device schedules. Read it back via
    /// [`host_flops_time_s`](Self::host_flops_time_s) or
    /// [`Host::cpu_busy_s`].
    pub fn charge_host_flops(&self, flops: u64) -> TimeSpan {
        let (start_s, end_s) = self.host.cpu_charge(self.slot, flops);
        TimeSpan { start_s, end_s }
    }

    /// Host-CPU busy seconds this device's host-side work occupies.
    pub fn host_flops_time_s(&self) -> f64 {
        self.host.cpu_busy_s_of(self.slot)
    }

    /// Bus-busy seconds this device committed on its host's PCIe bus.
    pub fn bus_busy_s(&self) -> f64 {
        self.host.bus_busy_s_of(self.slot)
    }

    /// Reset meters, records, the op trace and stream clocks, destroy
    /// created streams, and release this device's commitments on the
    /// host's shared resources (other devices on the host are untouched;
    /// memory stays allocated).
    pub fn reset_meters(&self) {
        let mut st = self.state.lock();
        st.meters = Meters::default();
        st.records.clear();
        st.trace.clear();
        st.timelines.reset();
        self.host.release(self.slot);
    }
}

/// The element and XOR mask of a silent flip at byte `off` of a payload:
/// the top bit of that byte.
fn flip_at<T: DeviceScalar>(off: u64) -> (usize, u64) {
    ((off / T::SIZE) as usize, 0x80u64 << (8 * (off % T::SIZE)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Dim3;
    use proptest::prelude::*;

    /// The single-buffer host → device copy the one batched copy replaced,
    /// with its CRC-checked twin, kept as the oracle a batch of one must
    /// match.
    fn single_htod_oracle<T: DeviceScalar>(
        d: &Device,
        stream: StreamId,
        buf: &DeviceBuffer<T>,
        src: &[T],
        checked: bool,
    ) -> Result<TimeSpan> {
        let expect = checksum::crc64([(src.len(), |i: usize| src[i].to_word())]);
        d.check_buffer(buf)?;
        if src.len() != buf.len() {
            return Err(SimError::CopyLengthMismatch {
                device_len: buf.len(),
                host_len: src.len(),
            });
        }
        let outcome =
            match d.fault_check_transfer(TransferDir::HostToDevice, stream, buf.modeled_bytes()) {
                Ok(o) => o,
                Err(e) => {
                    if e.is_transient() {
                        buf.poison();
                    }
                    return Err(e);
                }
            };
        for (i, &v) in src.iter().enumerate() {
            buf.store(i, v);
        }
        let mut flipped: Option<usize> = None;
        if let TransferOutcome::Corrupt { byte } = outcome {
            let off = byte % buf.modeled_bytes();
            let elem = (off / T::SIZE) as usize;
            let mask = 0x80u64 << (8 * (off % T::SIZE));
            buf.word(elem).fetch_xor(mask, Ordering::Relaxed);
            flipped = Some(elem);
        }
        let bytes = buf.modeled_bytes();
        let dur = d.props.transfer_time(bytes);
        let span = {
            let mut st = d.state.lock();
            let (start_s, end_s) =
                d.bus_transfer(&mut st, stream, TransferDir::HostToDevice, "h2d", dur);
            st.meters.comm_time_s += dur;
            st.meters.h2d_bytes += bytes;
            st.meters.transfers += 1;
            st.trace
                .push_with("h2d", stream.index(), start_s, end_s, || {
                    format!("H2D {bytes} B")
                });
            if let Some(elem) = flipped {
                st.trace
                    .push_with("flip", stream.index(), end_s, end_s, || {
                        format!("H2D silent flip @ element {elem}")
                    });
            }
            TimeSpan { start_s, end_s }
        };
        if checked {
            let landed =
                checksum::crc64([(buf.len(), |i: usize| buf.word(i).load(Ordering::Relaxed))]);
            d.charge_host_flops(2 * buf.modeled_bytes() * Device::CRC64_FLOPS_PER_BYTE);
            if landed != expect {
                return Err(SimError::CorruptTransfer {
                    dir: TransferDir::HostToDevice,
                    index: d.meters().transfers,
                });
            }
        }
        Ok(span)
    }

    /// The dense device → host copy the nonzero copy replaced, kept as the
    /// oracle it must match: every word read into `dst`, the flip XORed
    /// into the host copy, and for `checked` a CRC64 on each side.
    fn dense_dtoh_oracle<T: DeviceScalar>(
        d: &Device,
        stream: StreamId,
        buf: &DeviceBuffer<T>,
        dst: &mut [T],
        checked: bool,
    ) -> Result<TimeSpan> {
        let expect = checksum::crc64([(buf.len(), |i: usize| buf.word(i).load(Ordering::Relaxed))]);
        d.check_buffer(buf)?;
        if dst.len() != buf.len() {
            return Err(SimError::CopyLengthMismatch {
                device_len: buf.len(),
                host_len: dst.len(),
            });
        }
        let outcome =
            match d.fault_check_transfer(TransferDir::DeviceToHost, stream, buf.modeled_bytes()) {
                Ok(o) => o,
                Err(e) => {
                    if e.is_transient() {
                        for v in dst.iter_mut() {
                            *v = T::from_word(0xDEAD_BEEF_DEAD_BEEF);
                        }
                    }
                    return Err(e);
                }
            };
        for (i, v) in dst.iter_mut().enumerate() {
            *v = buf.load(i);
        }
        let bytes = buf.modeled_bytes();
        let mut flipped: Option<usize> = None;
        if let TransferOutcome::Corrupt { byte } = outcome {
            let off = byte % bytes;
            let elem = (off / T::SIZE) as usize;
            let mask = 0x80u64 << (8 * (off % T::SIZE));
            dst[elem] = T::from_word(dst[elem].to_word() ^ mask);
            flipped = Some(elem);
        }
        let dur = d.props.transfer_time(bytes);
        let span = {
            let mut st = d.state.lock();
            let (start_s, end_s) =
                d.bus_transfer(&mut st, stream, TransferDir::DeviceToHost, "d2h", dur);
            st.meters.comm_time_s += dur;
            st.meters.d2h_bytes += bytes;
            st.meters.transfers += 1;
            st.trace
                .push_with("d2h", stream.index(), start_s, end_s, || {
                    format!("D2H {bytes} B")
                });
            if let Some(elem) = flipped {
                st.trace
                    .push_with("flip", stream.index(), end_s, end_s, || {
                        format!("D2H silent flip @ element {elem}")
                    });
            }
            TimeSpan { start_s, end_s }
        };
        if checked {
            let landed = checksum::crc64([(dst.len(), |i: usize| dst[i].to_word())]);
            d.charge_host_flops(2 * bytes * Device::CRC64_FLOPS_PER_BYTE);
            if landed != expect {
                return Err(SimError::CorruptTransfer {
                    dir: TransferDir::DeviceToHost,
                    index: d.meters().transfers,
                });
            }
        }
        Ok(span)
    }

    /// Words a payload draws from: +0.0, −0.0, NaNs, subnormals and
    /// arbitrary patterns.
    fn payload_word() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just(0u64),
            Just(0u64),
            Just((-0.0f64).to_bits()),
            Just(f64::NAN.to_bits()),
            Just(0xFFF0_0000_0000_0001u64),
            1u64..(1 << 52),
            any::<u64>(),
        ]
    }

    /// A fault plan for the first copy in one direction: `0` clean, `1` a
    /// silent flip at `byte`, `2` a transient fault.
    fn copy_fault(outcome: u8, byte: u64, dir: TransferDir) -> FaultPlan {
        let plan = FaultPlan::new(7);
        match (outcome, dir) {
            (0, _) => plan,
            (1, TransferDir::HostToDevice) => plan.flip_nth_h2d(1).flip_byte_offset(byte),
            (1, TransferDir::DeviceToHost) => plan.flip_nth_d2h(1).flip_byte_offset(byte),
            (_, TransferDir::HostToDevice) => plan.fail_nth_h2d(1),
            (_, TransferDir::DeviceToHost) => plan.fail_nth_d2h(1),
        }
    }

    /// Everything a copy leaves on its device besides the data.
    fn assert_same_device_effects(
        d: &Device,
        oracle: &Device,
    ) -> std::result::Result<(), TestCaseError> {
        prop_assert_eq!(d.meters(), oracle.meters());
        prop_assert_eq!(d.fault_stats(), oracle.fault_stats());
        prop_assert_eq!(d.ops(), oracle.ops());
        prop_assert_eq!(d.host_flops_time_s(), oracle.host_flops_time_s());
        Ok(())
    }

    /// Run one H2D of `words` through the single-copy oracle and as a
    /// batch of one, each on its own device under the same fault plan,
    /// and compare everything they leave behind: device words, span or
    /// error, meters, fault stats, trace and host-FLOP time.
    fn check_htod_equivalence<T: DeviceScalar>(
        words: &[u64],
        plan: &FaultPlan,
        checked: bool,
    ) -> std::result::Result<(), TestCaseError> {
        let values: Vec<T> = words.iter().map(|&w| T::from_word(w)).collect();
        let setup = || {
            let d = tiny_device();
            let buf = d.alloc::<T>(values.len()).unwrap();
            d.set_fault_plan(plan.clone());
            (d, buf)
        };
        let s = StreamId::DEFAULT;
        let (oracle, buf_o) = setup();
        let want = single_htod_oracle(&oracle, s, &buf_o, &values, checked);
        let (batch, buf_b) = setup();
        let got = batch.memcpy_htod(s, &[(&buf_b, &values)], checked);
        prop_assert_eq!(&got, &want);
        let words_of = |buf: &DeviceBuffer<T>| {
            (0..buf.len())
                .map(|i| buf.word(i).load(Ordering::Relaxed))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(words_of(&buf_b), words_of(&buf_o));
        assert_same_device_effects(&batch, &oracle)
    }

    /// Run one D2H through the dense oracle and the nonzero copy, each on
    /// its own device under the same fault plan, and compare everything
    /// they leave behind.
    fn check_dtoh_equivalence<T: DeviceScalar>(
        words: &[u64],
        plan: &FaultPlan,
        checked: bool,
    ) -> std::result::Result<(), TestCaseError> {
        let values: Vec<T> = words.iter().map(|&w| T::from_word(w)).collect();
        let setup = || {
            let d = tiny_device();
            let buf = d.alloc_from_slice(&values).unwrap();
            d.set_fault_plan(plan.clone());
            (d, buf)
        };
        let s = StreamId::DEFAULT;
        let (oracle, buf_o) = setup();
        let mut want = vec![T::from_word(0x5A5A_5A5A_5A5A_5A5A); values.len()];
        let want_res = dense_dtoh_oracle(&oracle, s, &buf_o, &mut want, checked);
        let (nonzero, buf_n) = setup();
        let got = nonzero.memcpy_dtoh(s, &buf_n, checked);

        let bits = |v: &[T]| v.iter().map(|x| x.to_word()).collect::<Vec<_>>();
        match (&got, &want_res) {
            (Ok((copy, span)), Ok(want_span)) => {
                prop_assert_eq!(span, want_span);
                let mut dense = vec![T::from_word(0); values.len()];
                copy.scatter_into(&mut dense);
                prop_assert_eq!(bits(&dense), bits(&want));
                prop_assert!(copy.words().iter().all(|&w| w != 0));
            }
            (Err(e), Err(want_e)) => prop_assert_eq!(e, want_e),
            _ => prop_assert!(false, "outcomes differ: {:?} vs {:?}", got, want_res),
        }
        assert_same_device_effects(&nonzero, &oracle)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn one_copy_batch_matches_the_single_copy_under_every_outcome(
            words in proptest::collection::vec(payload_word(), 1..120),
            outcome in 0u8..3,
            byte in any::<u64>(),
            checked in any::<bool>(),
        ) {
            let plan = copy_fault(outcome, byte, TransferDir::HostToDevice);
            check_htod_equivalence::<f64>(&words, &plan, checked)?;
            check_htod_equivalence::<u32>(&words, &plan, checked)?;
        }

        #[test]
        fn nonzero_copy_matches_the_dense_copy_under_every_outcome(
            words in proptest::collection::vec(payload_word(), 1..120),
            outcome in 0u8..3,
            byte in any::<u64>(),
            checked in any::<bool>(),
        ) {
            let plan = copy_fault(outcome, byte, TransferDir::DeviceToHost);
            check_dtoh_equivalence::<f64>(&words, &plan, checked)?;
            check_dtoh_equivalence::<u32>(&words, &plan, checked)?;
        }
    }

    fn tiny_device() -> Device {
        Device::new(DeviceProps::tiny(1 << 16))
    }

    /// The buffer's contents, read back with an unchecked D2H on the
    /// default stream.
    fn read<T: DeviceScalar>(d: &Device, buf: &DeviceBuffer<T>) -> Vec<T> {
        let (copy, _) = d.memcpy_dtoh(StreamId::DEFAULT, buf, false).unwrap();
        let mut host = vec![T::default(); buf.len()];
        copy.scatter_into(&mut host);
        host
    }

    #[test]
    fn alloc_respects_capacity() {
        let d = tiny_device();
        let a = d.alloc::<f64>(4096).unwrap(); // 32 KiB
        let _b = d.alloc::<f64>(3000).unwrap(); // ~24 KiB
        assert!(matches!(
            d.alloc::<f64>(2048),
            Err(SimError::OutOfMemory { .. })
        ));
        drop(a);
        assert!(d.alloc::<f64>(2048).is_ok(), "freeing makes room");
        assert!(d.mem_peak() >= d.mem_used());
    }

    #[test]
    fn zero_length_alloc_rejected() {
        let d = tiny_device();
        assert!(d.alloc::<u8>(0).is_err());
    }

    #[test]
    fn copies_move_real_data() {
        let d = tiny_device();
        let buf = d.alloc_from_slice(&[1.5f64, -2.0, 3.25]).unwrap();
        assert_eq!(read(&d, &buf), [1.5, -2.0, 3.25]);
        let m = d.meters();
        assert_eq!(m.transfers, 2);
        assert_eq!(m.h2d_bytes, 24);
        assert_eq!(m.d2h_bytes, 24);
        assert!(m.comm_time_s > 0.0);
    }

    #[test]
    fn copy_length_mismatch_rejected() {
        let d = tiny_device();
        let buf = d.alloc::<u32>(4).unwrap();
        assert!(matches!(
            d.memcpy_htod(StreamId::DEFAULT, &[(&buf, &[1u32, 2])], false),
            Err(SimError::CopyLengthMismatch {
                device_len: 4,
                host_len: 2
            })
        ));
    }

    #[test]
    fn batched_copy_coalesces_latency() {
        let d = tiny_device();
        let a = d.alloc::<f64>(8).unwrap();
        let b = d.alloc::<f64>(4).unwrap();
        let ha: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let hb: Vec<f64> = (0..4).map(|i| 100.0 + i as f64).collect();
        let span = d
            .memcpy_htod(StreamId::DEFAULT, &[(&a, &ha), (&b, &hb)], false)
            .unwrap();
        let m = d.meters();
        assert_eq!(m.transfers, 1, "one bus transaction");
        assert_eq!(m.h2d_bytes, 96);
        // One latency + summed bandwidth term, strictly cheaper than two
        // separate copies.
        let serial = d.props().transfer_time(64) + d.props().transfer_time(32);
        let expect = d.props().transfer_time(96);
        assert!((span.end_s - span.start_s - expect).abs() < 1e-15);
        assert!(m.comm_time_s < serial);
        // The payloads really arrived.
        assert_eq!(read(&d, &a), ha);
        assert_eq!(read(&d, &b), hb);
    }

    #[test]
    fn batched_copy_validates_before_moving_data() {
        let d = tiny_device();
        let a = d.alloc_from_slice(&[5.0f64, 6.0]).unwrap();
        let b = d.alloc::<f64>(4).unwrap();
        assert!(d
            .memcpy_htod(
                StreamId::DEFAULT,
                &[(&a, &[1.0, 2.0]), (&b, &[0.0; 3])],
                false
            )
            .is_err());
        // The length mismatch on `b` must have left `a` untouched.
        assert_eq!(read(&d, &a), [5.0, 6.0]);
        assert!(d.memcpy_htod::<f64>(StreamId::DEFAULT, &[], false).is_err());
    }

    #[test]
    fn batched_copy_transient_fault_poisons_all_destinations() {
        let d = tiny_device();
        d.set_fault_plan(FaultPlan::new(0).fail_nth_h2d(1));
        let a = d.alloc::<f64>(2).unwrap();
        let b = d.alloc::<f64>(2).unwrap();
        let host = [1.0f64, 2.0];
        assert!(d
            .memcpy_htod(StreamId::DEFAULT, &[(&a, &host), (&b, &host)], false)
            .is_err());
        assert!(
            d.meters().comm_time_s > 0.0,
            "failed transaction still burnt bus time"
        );
        // Retry rewrites everything.
        d.memcpy_htod(StreamId::DEFAULT, &[(&a, &host), (&b, &host)], false)
            .unwrap();
        assert_eq!(read(&d, &a), host);
        assert_eq!(read(&d, &b), host);
    }

    #[test]
    fn small_grids_visit_every_block_once_on_many_workers() {
        // Fewer blocks than workers × chunks per worker: one-block chunks,
        // and every block still runs exactly once.
        let d = tiny_device();
        d.force_workers(4);
        let counts = d.alloc::<u64>(6).unwrap();
        let cfg = LaunchConfig::new(Dim3::new(6, 1, 1), Dim3::new(1, 1, 1));
        d.launch("tiny", cfg, |ctx| {
            ctx.atomic_add_u64(&counts, ctx.block_idx.x as usize, 1);
        })
        .unwrap();
        let host = read(&d, &counts);
        assert!(host.iter().all(|&c| c == 1), "{host:?}");
    }

    #[test]
    fn foreign_buffers_rejected() {
        let d1 = tiny_device();
        let d2 = tiny_device();
        let buf = d1.alloc::<f64>(4).unwrap();
        assert!(matches!(
            d2.memcpy_htod(StreamId::DEFAULT, &[(&buf, &[0.0; 4])], false),
            Err(SimError::ForeignBuffer)
        ));
    }

    #[test]
    fn launch_runs_every_thread_once() {
        let d = tiny_device();
        let counts = d.alloc::<u64>(100).unwrap();
        let cfg = LaunchConfig::linear(100, 16); // 112 threads; guard excess
        d.launch("count", cfg, |ctx| {
            let i = ctx.global_id().x as usize;
            if i < 100 {
                ctx.atomic_add_u64(&counts, i, 1);
            }
        })
        .unwrap();
        let host = read(&d, &counts);
        assert!(
            host.iter().all(|&c| c == 1),
            "each element visited exactly once"
        );
    }

    /// Bits of an f64 buffer, for bitwise comparison.
    fn f64_bits(d: &Device, buf: &DeviceBuffer<f64>) -> Vec<u64> {
        read(d, buf).iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn sequential_and_threaded_agree() {
        // Order-sensitive sums: any reordering of one cell's deposits
        // changes low bits, so bit equality means sequential order.
        let run = |workers: usize| -> (Vec<u64>, Vec<u64>, LaunchRecord) {
            let d = tiny_device();
            d.force_workers(workers);
            let xs: Vec<f64> = (0..256).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
            let input = d.alloc_from_slice(&xs).unwrap();
            let out = d.alloc::<f64>(16).unwrap();
            let hits = d.alloc::<u64>(16).unwrap();
            let record = d
                .launch("hist", LaunchConfig::linear(256, 8), |ctx| {
                    let i = ctx.global_id().x as usize;
                    let v = ctx.read(&input, i);
                    ctx.charge_flops(2);
                    ctx.atomic_add_f64(&out, i % 16, v);
                    ctx.atomic_add_u64(&hits, i % 16, i as u64);
                    ctx.trace(i % 3);
                })
                .unwrap();
            let counts = read(&d, &hits);
            (f64_bits(&d, &out), counts, record)
        };
        let one = run(1);
        for workers in [2, 3, 8] {
            assert_eq!(run(workers), one, "{workers} workers");
        }
    }

    #[test]
    fn atomic_f64_is_exact_under_contention() {
        let d = tiny_device();
        d.force_workers(8);
        let out = d.alloc::<f64>(1).unwrap();
        let cfg = LaunchConfig::linear(1024, 64);
        // Summing 1024 copies of 1.0 is exact in f64 regardless of order.
        d.launch("sum", cfg, |ctx| {
            let _ = ctx.global_id();
            ctx.atomic_add_f64(&out, 0, 1.0);
        })
        .unwrap();
        assert_eq!(read(&d, &out), [1024.0]);
        let m = d.meters();
        assert_eq!(m.kernel_cost.atomic_ops, 1024);
        assert!(m.kernel_cost.atomic_max_chain >= 1024, "single hot address");
    }

    #[test]
    fn shared_launch_gives_each_block_a_zeroed_tile() {
        let d = tiny_device();
        let out = d.alloc::<f64>(4).unwrap();
        let cfg = LaunchConfig::new(Dim3::new(4, 1, 1), Dim3::linear(8));
        // Each thread privately accumulates into the block tile; the
        // epilogue commits one global add per block. A stale (un-zeroed)
        // tile would leak the previous block's sum into the next.
        d.launch_shared_on(
            StreamId::DEFAULT,
            "private-sum",
            cfg,
            2,
            |ctx, shared| {
                ctx.charge_shared_bytes(16);
                shared[0] += 1.0;
            },
            |ctx, shared| {
                ctx.atomic_add_f64(&out, ctx.block_idx.x as usize, shared[0]);
            },
        )
        .unwrap();
        assert_eq!(
            read(&d, &out),
            [8.0; 4],
            "8 threads per block, once per block"
        );
        let m = d.meters();
        assert_eq!(m.kernel_cost.shared_bytes, 4 * 8 * 16);
        assert_eq!(m.kernel_cost.shared_request, 16);
        assert_eq!(m.kernel_cost.atomic_ops, 4, "one commit per block");
    }

    #[test]
    fn shared_launch_is_deterministic_under_threading() {
        // Each block's threads see the block tile in a fixed (tz, ty, tx)
        // order, and the epilogues' global adds overlap across blocks (8
        // blocks commit into 4 rows), so only the sequential commit order
        // reproduces the one-worker bits.
        let run = |workers: usize| -> (Vec<u64>, LaunchRecord) {
            let d = tiny_device();
            d.force_workers(workers);
            let xs: Vec<f64> = (0..256).map(|i| (i as f64 * 0.37).sin()).collect();
            let input = d.alloc_from_slice(&xs).unwrap();
            let out = d.alloc::<f64>(4 * 8).unwrap();
            let record = d
                .launch_shared_on(
                    StreamId::DEFAULT,
                    "tile",
                    LaunchConfig::linear(256, 32),
                    8,
                    |ctx, shared| {
                        let i = ctx.global_id().x as usize;
                        let v = ctx.read(&input, i);
                        ctx.charge_shared_bytes(16);
                        shared[i % 8] += v;
                        ctx.trace(i % 8);
                    },
                    |ctx, shared| {
                        let row = ctx.block_idx.x as usize % 4 * 8;
                        for (slot, &v) in shared.iter().enumerate() {
                            ctx.atomic_add_f64(&out, row + slot, v);
                        }
                    },
                )
                .unwrap();
            (f64_bits(&d, &out), record)
        };
        let one = run(1);
        for workers in [2, 4, 8] {
            assert_eq!(run(workers), one, "{workers} workers");
        }
    }

    #[test]
    fn launches_above_the_gate_match_one_worker() {
        // The real gate, unforced: the same launch at PARALLEL_LAUNCH_THREADS
        // on the host's cores and forced onto one worker.
        let run = |force_one: bool| -> (Vec<u64>, LaunchRecord) {
            let d = tiny_device();
            if force_one {
                d.force_workers(1);
            }
            let n = exec::PARALLEL_LAUNCH_THREADS;
            let out = d.alloc::<f64>(64).unwrap();
            let record = d
                .launch("gate", LaunchConfig::linear(n, 256), |ctx| {
                    let i = ctx.global_id().x;
                    ctx.atomic_add_f64(&out, (i % 64) as usize, (i as f64 * 0.61).cos());
                })
                .unwrap();
            (f64_bits(&d, &out), record)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn kernel_flip_lands_on_the_same_deposit_at_any_worker_count() {
        let run = |workers: usize, flip: bool| -> Vec<u64> {
            let d = tiny_device();
            d.force_workers(workers);
            if flip {
                d.set_fault_plan(FaultPlan::new(0).flip_nth_kernel(1).flip_op_index(3001));
            }
            let out = d.alloc::<f64>(64).unwrap();
            d.launch("spread", LaunchConfig::linear(4096, 64), |ctx| {
                let i = ctx.global_id().x;
                ctx.atomic_add_f64(&out, (i % 64) as usize, 1.0 + i as f64 * 1e-3);
            })
            .unwrap();
            if flip {
                assert_eq!(d.fault_stats().unwrap().kernel_flipped, 1);
            }
            f64_bits(&d, &out)
        };
        let clean = run(1, false);
        let flipped = run(1, true);
        let changed: Vec<usize> = (0..64).filter(|&c| clean[c] != flipped[c]).collect();
        assert_eq!(changed, vec![3001 % 64], "deposit 3001 is thread 3001's");
        for workers in [2, 4, 8] {
            assert_eq!(run(workers, true), flipped, "{workers} workers");
        }
    }

    #[test]
    fn oversized_shared_request_is_invalid_launch() {
        let d = tiny_device(); // 8 KiB shared per block
        let too_big = (d.props().shared_mem_per_block / 8 + 1) as usize;
        assert!(matches!(
            d.launch_shared_on(
                StreamId::DEFAULT,
                "hog",
                LaunchConfig::linear(8, 8),
                too_big,
                |_, _| {},
                |_, _| {},
            ),
            Err(SimError::InvalidLaunch(_))
        ));
        assert_eq!(d.meters().launches, 0);
    }

    #[test]
    fn big_shared_tiles_slow_the_launch_via_occupancy() {
        let time_with = |shared_f64: usize| -> f64 {
            let d = tiny_device();
            d.launch_shared_on(
                StreamId::DEFAULT,
                "flops",
                LaunchConfig::linear(64, 8),
                shared_f64,
                |ctx, _| ctx.charge_flops(1_000_000),
                |_, _| {},
            )
            .unwrap()
            .duration_s
        };
        let small = time_with(16); // plenty of blocks resident
        let huge = time_with(1024); // 8 KiB: one resident block
        assert!(
            huge > 2.0 * small,
            "low occupancy must inflate the modeled time: {huge} vs {small}"
        );
    }

    #[test]
    fn launch_validation_propagates() {
        let d = tiny_device();
        let cfg = LaunchConfig::linear(4096, 512); // tiny device: max 256/block
        assert!(matches!(
            d.launch("bad", cfg, |_| {}),
            Err(SimError::InvalidLaunch(_))
        ));
        assert_eq!(d.meters().launches, 0);
    }

    #[test]
    fn meters_accumulate_and_reset() {
        let d = tiny_device();
        let buf = d.alloc_from_slice(&[0.0f64; 8]).unwrap();
        d.launch("noop", LaunchConfig::linear(8, 8), |ctx| {
            ctx.charge_flops(10);
        })
        .unwrap();
        let m = d.meters();
        assert_eq!(m.launches, 1);
        assert_eq!(m.kernel_cost.flops, 80);
        assert!(m.compute_time_s > 0.0);
        assert!(m.serial_total_s() > m.compute_time_s);
        assert_eq!(d.records().len(), 1);
        assert_eq!(d.records()[0].name, "noop");
        d.reset_meters();
        assert_eq!(d.meters(), Meters::default());
        assert!(d.records().is_empty());
        assert_eq!(d.elapsed_s(), 0.0);
        drop(buf);
    }

    #[test]
    fn streams_overlap_copies_and_kernels() {
        let d = tiny_device();
        let big = d.alloc::<f64>(4096).unwrap();
        let host = vec![0.0f64; 4096];
        // Serial: copy then kernel on the same stream.
        d.memcpy_htod(StreamId::DEFAULT, &[(&big, &host)], false)
            .unwrap();
        d.launch("work", LaunchConfig::linear(256, 64), |ctx| {
            ctx.charge_flops(1_000_000);
        })
        .unwrap();
        let serial_elapsed = d.synchronize();
        let serial_meters = d.meters();
        assert!((serial_elapsed - serial_meters.serial_total_s()).abs() < 1e-12);

        // Overlapped: same work split over two streams. The reset destroyed
        // every non-default stream, so the copy stream is created afresh.
        d.reset_meters();
        let copy_stream = d.create_stream();
        d.memcpy_htod(copy_stream, &[(&big, &host)], false).unwrap();
        d.launch("work", LaunchConfig::linear(256, 64), |ctx| {
            ctx.charge_flops(1_000_000);
        })
        .unwrap();
        let overlapped = d.synchronize();
        let m = d.meters();
        assert!(
            overlapped < m.serial_total_s() - 1e-12,
            "two streams must beat the serial sum: {overlapped} vs {}",
            m.serial_total_s()
        );
    }

    #[test]
    fn wait_until_creates_dependency() {
        let d = tiny_device();
        let s = d.create_stream();
        let buf = d.alloc::<f64>(2048).unwrap();
        let copy = d
            .memcpy_htod(StreamId::DEFAULT, &[(&buf, &vec![0.0; 2048])], false)
            .unwrap();
        d.wait_until(s, copy.end_s);
        let rec = d
            .launch_on(s, "dependent", LaunchConfig::linear(8, 8), |_| {})
            .unwrap();
        assert_eq!(rec.start_s, copy.end_s, "the launch waits for the copy");
    }

    #[test]
    fn injected_alloc_fault_reads_as_oom_with_real_stats() {
        let d = tiny_device();
        d.set_fault_plan(FaultPlan::new(0).fail_nth_alloc(2));
        let _a = d.alloc::<f64>(16).unwrap();
        match d.alloc::<f64>(16) {
            Err(SimError::OutOfMemory {
                requested,
                capacity,
                ..
            }) => {
                assert_eq!(requested, 256, "aligned request size");
                assert_eq!(capacity, 1 << 16, "real capacity reported");
            }
            other => panic!("expected injected OOM, got {other:?}"),
        }
        assert!(d.alloc::<f64>(16).is_ok(), "fault is one-shot");
        assert_eq!(d.fault_stats().unwrap().allocs_failed, 1);
    }

    #[test]
    fn transient_h2d_fault_poisons_then_retry_succeeds() {
        let d = tiny_device();
        d.set_fault_plan(FaultPlan::new(0).fail_nth_h2d(1));
        let buf = d.alloc::<f64>(4).unwrap();
        let data = [1.0f64, 2.0, 3.0, 4.0];
        let before = d.meters().comm_time_s;
        match d.memcpy_htod(StreamId::DEFAULT, &[(&buf, &data)], false) {
            Err(SimError::TransferFault {
                dir: TransferDir::HostToDevice,
                index: 1,
            }) => {}
            other => panic!("expected h2d fault, got {other:?}"),
        }
        assert!(
            d.meters().comm_time_s > before,
            "failed copy still burnt bus time"
        );
        assert_eq!(
            d.meters().h2d_bytes,
            0,
            "no payload counted for the failure"
        );
        assert!(d.ops().iter().any(|o| o.kind == "fault"));
        // Device memory is garbage now; the retry rewrites it fully.
        assert!(read(&d, &buf)
            .iter()
            .all(|v| v.to_bits() == 0xDEAD_BEEF_DEAD_BEEF));
        d.memcpy_htod(StreamId::DEFAULT, &[(&buf, &data)], false)
            .unwrap();
        assert_eq!(read(&d, &buf), data);
    }

    #[test]
    fn transient_d2h_fault_fails_then_retry_succeeds() {
        let d = tiny_device();
        d.set_fault_plan(FaultPlan::new(0).fail_nth_d2h(1));
        let buf = d.alloc_from_slice(&[7.0f64, 8.0]).unwrap();
        assert!(matches!(
            d.memcpy_dtoh(StreamId::DEFAULT, &buf, false),
            Err(SimError::TransferFault {
                dir: TransferDir::DeviceToHost,
                index: 1,
            })
        ));
        assert_eq!(read(&d, &buf), [7.0, 8.0]);
    }

    #[test]
    fn lost_device_refuses_everything() {
        let d = tiny_device();
        let buf = d.alloc_from_slice(&[0.0f64; 4]).unwrap();
        // alloc + h2d above consumed 2 ops; allow one more, then lose it.
        d.set_fault_plan(FaultPlan::new(0).fail_after(1));
        d.launch("ok", LaunchConfig::linear(4, 4), |_| {}).unwrap();
        assert!(matches!(
            d.launch("dead", LaunchConfig::linear(4, 4), |_| {}),
            Err(SimError::DeviceLost)
        ));
        assert!(matches!(d.alloc::<f64>(1), Err(SimError::DeviceLost)));
        assert!(matches!(
            d.memcpy_dtoh(StreamId::DEFAULT, &buf, false),
            Err(SimError::DeviceLost)
        ));
        assert_eq!(d.fault_stats().unwrap().refused_after_loss, 3);
    }

    #[test]
    fn report_mem_caps_device_capacity() {
        let d = tiny_device();
        assert_eq!(d.mem_capacity(), 1 << 16);
        d.set_fault_plan(FaultPlan::new(0).report_mem_bytes(1 << 12));
        assert_eq!(
            d.mem_capacity(),
            1 << 12,
            "capacity lie visible to planners"
        );
        assert!(d.alloc::<f64>(1024).is_err(), "8 KiB over a 4 KiB cap");
        assert!(d.alloc::<f64>(256).is_ok());
        d.clear_fault_plan();
        assert_eq!(d.mem_capacity(), 1 << 16);
        assert!(d.alloc::<f64>(1024).is_ok());
    }

    #[test]
    fn delay_advances_stream_clock_without_metering() {
        let d = tiny_device();
        let before = d.meters();
        let span = d.delay(StreamId::DEFAULT, 0.25);
        assert_eq!((span.start_s, span.end_s), (0.0, 0.25));
        assert_eq!(d.elapsed_s(), 0.25);
        assert_eq!(d.meters(), before, "idle time charges no meter");
        assert!(d.ops().iter().any(|o| o.kind == "idle"));
    }

    #[test]
    fn h2d_flip_lands_silently_and_is_traced() {
        let d = tiny_device();
        d.set_fault_plan(FaultPlan::new(0).flip_nth_h2d(1).flip_byte_offset(17));
        let data = [1.0f64, 2.0, 3.0, 4.0];
        let buf = d.alloc::<f64>(4).unwrap();
        d.memcpy_htod(StreamId::DEFAULT, &[(&buf, &data)], false)
            .unwrap();
        let back = read(&d, &buf);
        // Byte 17 → element 2, byte 1 → mask 0x8000.
        let diffs: Vec<usize> = (0..4).filter(|&i| back[i] != data[i]).collect();
        assert_eq!(diffs, vec![2], "exactly one element corrupted");
        assert_eq!(back[2].to_bits(), data[2].to_bits() ^ 0x8000);
        assert_eq!(d.fault_stats().unwrap().h2d_flipped, 1);
        assert!(d.ops().iter().any(|o| o.kind == "flip"));
        // One-shot: a fresh upload is clean again.
        d.memcpy_htod(StreamId::DEFAULT, &[(&buf, &data)], false)
            .unwrap();
        assert_eq!(read(&d, &buf), data);
    }

    #[test]
    fn d2h_flip_corrupts_host_copy_only() {
        let d = tiny_device();
        let data = [5.0f64, 6.0];
        let buf = d.alloc_from_slice(&data).unwrap();
        d.set_fault_plan(FaultPlan::new(0).flip_nth_d2h(1));
        let back = read(&d, &buf);
        assert_eq!(back[0].to_bits(), data[0].to_bits() ^ 0x80);
        assert_eq!(back[1], data[1]);
        assert_eq!(d.fault_stats().unwrap().d2h_flipped, 1);
        // Device memory kept the truth; the next read is clean.
        assert_eq!(read(&d, &buf), data);
    }

    #[test]
    fn batched_flip_addresses_concatenated_payload() {
        let d = tiny_device();
        // 8 f64 + 4 f64 = 96 B; byte 70 → second buffer, element 0 byte 6.
        d.set_fault_plan(FaultPlan::new(0).flip_nth_h2d(1).flip_byte_offset(70));
        let a = d.alloc::<f64>(8).unwrap();
        let b = d.alloc::<f64>(4).unwrap();
        let ha = [1.0f64; 8];
        let hb = [2.0f64; 4];
        d.memcpy_htod(StreamId::DEFAULT, &[(&a, &ha), (&b, &hb)], false)
            .unwrap();
        let back_b = read(&d, &b);
        assert_eq!(read(&d, &a), ha, "first buffer untouched");
        assert_eq!(back_b[0].to_bits(), hb[0].to_bits() ^ (0x80u64 << 48));
        assert_eq!(&back_b[1..], &hb[1..]);
    }

    #[test]
    fn checked_h2d_detects_flip_and_retry_succeeds() {
        let d = tiny_device();
        d.set_fault_plan(FaultPlan::new(0).flip_nth_h2d(1));
        let data = [1.0f64, 2.0, 3.0];
        let buf = d.alloc::<f64>(3).unwrap();
        match d.memcpy_htod(StreamId::DEFAULT, &[(&buf, &data)], true) {
            Err(SimError::CorruptTransfer {
                dir: TransferDir::HostToDevice,
                ..
            }) => {}
            other => panic!("expected detected corruption, got {other:?}"),
        }
        assert!(
            d.host_flops_time_s() > 0.0,
            "CRC passes are charged as host FLOPs"
        );
        // The retry consumes a fresh ordinal, so the one-shot flip is gone.
        d.memcpy_htod(StreamId::DEFAULT, &[(&buf, &data)], true)
            .unwrap();
        assert_eq!(read(&d, &buf), data);
    }

    #[test]
    fn checked_batched_h2d_detects_flip() {
        let d = tiny_device();
        d.set_fault_plan(FaultPlan::new(0).flip_nth_h2d(1).flip_byte_offset(40));
        let a = d.alloc::<f64>(4).unwrap();
        let b = d.alloc::<f64>(2).unwrap();
        let ha = [1.0f64; 4];
        let hb = [2.0f64; 2];
        assert!(matches!(
            d.memcpy_htod(StreamId::DEFAULT, &[(&a, &ha), (&b, &hb)], true),
            Err(SimError::CorruptTransfer { .. })
        ));
        d.memcpy_htod(StreamId::DEFAULT, &[(&a, &ha), (&b, &hb)], true)
            .unwrap();
    }

    #[test]
    fn checked_h2d_catches_a_flip_at_every_byte_of_short_payloads() {
        // Payloads of 1–9 words leave every lane remainder, and the first
        // and last lanes hold the payload's ends; the injector flips the top
        // bit of the chosen byte, so every byte of every word is hit once.
        for len in 1..=9usize {
            let data: Vec<f64> = (0..len).map(|i| 1.5 + i as f64).collect();
            for byte in 0..8 * len as u64 {
                let d = tiny_device();
                d.set_fault_plan(FaultPlan::new(0).flip_nth_h2d(1).flip_byte_offset(byte));
                let buf = d.alloc::<f64>(len).unwrap();
                assert!(
                    matches!(
                        d.memcpy_htod(StreamId::DEFAULT, &[(&buf, &data)], true),
                        Err(SimError::CorruptTransfer { .. })
                    ),
                    "{len} words, byte {byte}"
                );
                let d = tiny_device();
                d.set_fault_plan(FaultPlan::new(0).flip_nth_h2d(1).flip_byte_offset(byte));
                let (head, tail) = data.split_at(len / 2);
                let a = d.alloc::<f64>(head.len().max(1)).unwrap();
                let b = d.alloc::<f64>(tail.len()).unwrap();
                let copies: Vec<(&DeviceBuffer<f64>, &[f64])> = if head.is_empty() {
                    vec![(&b, tail)]
                } else {
                    vec![(&a, head), (&b, tail)]
                };
                assert!(
                    matches!(
                        d.memcpy_htod(StreamId::DEFAULT, &copies, true),
                        Err(SimError::CorruptTransfer { .. })
                    ),
                    "batched {len} words, byte {byte}"
                );
            }
        }
    }

    #[test]
    fn checked_d2h_detects_flip_and_passes_clean() {
        let d = tiny_device();
        let data = [7.0f64, 8.0, 9.0];
        let buf = d.alloc_from_slice(&data).unwrap();
        d.set_fault_plan(FaultPlan::new(0).flip_nth_d2h(1));
        assert!(matches!(
            d.memcpy_dtoh(StreamId::DEFAULT, &buf, true),
            Err(SimError::CorruptTransfer {
                dir: TransferDir::DeviceToHost,
                ..
            })
        ));
        let (copy, _) = d.memcpy_dtoh(StreamId::DEFAULT, &buf, true).unwrap();
        assert_eq!(copy, NonzeroWords::from_slice(&data).unwrap());
    }

    #[test]
    fn kernel_flip_perturbs_one_deposit_and_is_counted() {
        let run = |plan: Option<FaultPlan>| -> (Vec<f64>, u64) {
            let d = tiny_device();
            if let Some(p) = plan {
                d.set_fault_plan(p);
            }
            let out = d.alloc::<f64>(4).unwrap();
            d.launch("sum", LaunchConfig::linear(16, 4), |ctx| {
                let i = ctx.global_id().x as usize;
                ctx.atomic_add_f64(&out, i % 4, 1.5);
            })
            .unwrap();
            let host = read(&d, &out);
            let flips = d.fault_stats().map_or(0, |s| s.kernel_flipped);
            (host, flips)
        };
        let (clean, _) = run(None);
        let (bad, flips) = run(Some(FaultPlan::new(0).flip_nth_kernel(1).flip_op_index(5)));
        assert_eq!(flips, 1, "the armed flip landed");
        assert_ne!(
            clean.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            bad.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "a landed flip must change the output bits"
        );
        // An armed launch with fewer deposits than the target fires nothing.
        let (untouched, flips) = run(Some(
            FaultPlan::new(0).flip_nth_kernel(1).flip_op_index(999),
        ));
        assert_eq!(flips, 0);
        assert_eq!(untouched, clean);
    }

    #[test]
    fn stuck_kernel_stalls_stream_but_not_cost() {
        let clean = {
            let d = tiny_device();
            d.launch("work", LaunchConfig::linear(64, 8), |ctx| {
                ctx.charge_flops(1000);
            })
            .unwrap()
        };
        let d = tiny_device();
        d.set_fault_plan(FaultPlan::new(0).stall_nth_kernel(1, 0.5));
        let stalled = d
            .launch("work", LaunchConfig::linear(64, 8), |ctx| {
                ctx.charge_flops(1000);
            })
            .unwrap();
        assert_eq!(stalled.cost, clean.cost, "cost stays honest");
        assert!((stalled.duration_s - (clean.duration_s + 0.5)).abs() < 1e-12);
        // The watchdog predicate: observed duration far exceeds what the
        // cost model predicts for the recorded cost.
        let predicted = d.props().kernel_time(&stalled.cost);
        assert!(stalled.duration_s > 4.0 * predicted);
        assert_eq!(d.fault_stats().unwrap().kernel_stalled, 1);
        assert!(d.ops().iter().any(|o| o.kind == "stall"));
    }

    #[test]
    fn grid_3d_ids_cover_domain() {
        // The paper's Fig 6 mapping: (rows, cols, images) = (2, 9, 4).
        let d = tiny_device();
        let seen = d.alloc::<u64>(72).unwrap();
        let cfg = LaunchConfig::cover(Dim3::new(2, 9, 4), Dim3::new(2, 3, 4));
        d.launch("map", cfg, |ctx| {
            let g = ctx.global_id();
            if g.x < 2 && g.y < 9 && g.z < 4 {
                let lin = (g.z * 9 + g.y) * 2 + g.x;
                ctx.atomic_add_u64(&seen, lin as usize, 1);
            }
        })
        .unwrap();
        assert!(read(&d, &seen).iter().all(|&c| c == 1));
    }
}
