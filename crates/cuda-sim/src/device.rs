//! The simulated device: memory, kernel execution, and virtual time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::alloc::{Allocator, ALIGN};
use crate::checksum;
use crate::error::{SimError, TransferDir};
use crate::event::Event;
use crate::fault::{FaultPlan, FaultState, FaultStats, LaunchEffects, TransferOutcome};
use crate::host::Host;
use crate::kernel::{Dim3, KernelCorrupt, LaunchConfig, ThreadCtx, WorkerState};
use crate::memory::{Allocation, DeviceBuffer, DeviceScalar};
use crate::meter::{Cost, LaunchRecord, Meters};
use crate::props::{DeviceProps, ExecMode};
use crate::stream::{StreamId, Timelines};
use crate::trace::{OpRecord, TraceBuf, TraceMode};
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
    exec_mode: ExecMode,
}

/// A software CUDA-like device.
///
/// All methods take `&self`; internal state is lock-protected, and kernel
/// execution itself runs outside the locks so simulated threads can be
/// spread over host threads.
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
    /// Execution defaults to [`ExecMode::Sequential`] (bit-deterministic);
    /// switch with [`set_exec_mode`](Self::set_exec_mode).
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
                trace: TraceBuf::new(TraceMode::default()),
                exec_mode: ExecMode::Sequential,
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

    /// Choose how simulated threads run on the host.
    pub fn set_exec_mode(&self, mode: ExecMode) {
        if let ExecMode::Threaded(n) = mode {
            assert!(n > 0, "threaded execution needs at least one worker");
        }
        self.state.lock().exec_mode = mode;
    }

    /// How simulated threads currently run. Verification layers use this to
    /// pick a comparison tolerance: sequential execution is bit-reproducible
    /// against a host re-computation, threaded execution only agrees within
    /// floating-point reassociation tolerance.
    pub fn exec_mode(&self) -> ExecMode {
        self.state.lock().exec_mode
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

    /// Allocate an uninitialised (zero-filled) buffer of `len` elements.
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

    /// Allocate a zero-filled buffer (alias of [`alloc`](Self::alloc); the
    /// simulator zero-fills all fresh memory).
    pub fn alloc_zeroed<T: DeviceScalar>(&self, len: usize) -> Result<DeviceBuffer<T>> {
        self.alloc(len)
    }

    /// Allocate and upload in one step (charges the H2D transfer).
    pub fn alloc_from_slice<T: DeviceScalar>(&self, data: &[T]) -> Result<DeviceBuffer<T>> {
        let buf = self.alloc::<T>(data.len())?;
        self.memcpy_htod(&buf, data)?;
        Ok(buf)
    }

    /// Explicitly free a buffer (equivalent to dropping the last handle).
    pub fn free<T: DeviceScalar>(&self, buf: DeviceBuffer<T>) {
        drop(buf);
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

    /// Copy host → device on the default stream.
    pub fn memcpy_htod<T: DeviceScalar>(
        &self,
        buf: &DeviceBuffer<T>,
        src: &[T],
    ) -> Result<TimeSpan> {
        self.memcpy_htod_on(StreamId::DEFAULT, buf, src)
    }

    /// Copy host → device on a chosen stream.
    pub fn memcpy_htod_on<T: DeviceScalar>(
        &self,
        stream: StreamId,
        buf: &DeviceBuffer<T>,
        src: &[T],
    ) -> Result<TimeSpan> {
        self.check_buffer(buf)?;
        if src.len() != buf.len() {
            return Err(SimError::CopyLengthMismatch {
                device_len: buf.len(),
                host_len: src.len(),
            });
        }
        let outcome =
            match self.fault_check_transfer(TransferDir::HostToDevice, stream, buf.modeled_bytes())
            {
                Ok(o) => o,
                Err(e) => {
                    if e.is_transient() {
                        // A failed DMA may have written any prefix of the buffer;
                        // poison it all so a retry must fully rewrite the data.
                        buf.poison();
                    }
                    return Err(e);
                }
            };
        for (i, &v) in src.iter().enumerate() {
            buf.store(i, v);
        }
        let flipped = apply_flip_device(outcome, buf);
        let bytes = buf.modeled_bytes();
        let dur = self.props.transfer_time(bytes);
        let mut st = self.state.lock();
        let (start_s, end_s) =
            self.bus_transfer(&mut st, stream, TransferDir::HostToDevice, "h2d", dur);
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
        Ok(TimeSpan { start_s, end_s })
    }

    /// Stage several host → device copies into **one** coalesced bus
    /// transaction on `stream` (the pinned-staging / `cudaMemcpy2D`
    /// analogue). The transaction pays the PCIe latency once and the
    /// bandwidth term on the summed payload:
    /// `max(latency) + Σ bytes / bw` — see
    /// [`DeviceProps::transfer_time_batched`].
    ///
    /// Fault semantics match the single-copy path, applied to the
    /// transaction as a whole: a transient fault burns the full bus time,
    /// poisons **every** destination buffer (a partial DMA may have touched
    /// any of them), and counts as one failed H2D; the caller retries the
    /// whole batch. Validation (foreign buffers, length mismatches) happens
    /// before any data moves.
    pub fn memcpy_htod_batched<T: DeviceScalar>(
        &self,
        stream: StreamId,
        copies: &[(&DeviceBuffer<T>, &[T])],
    ) -> Result<TimeSpan> {
        if copies.is_empty() {
            return Err(SimError::InvalidRequest("empty batched copy".into()));
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
        let mut flipped: Option<usize> = None;
        if let TransferOutcome::Corrupt { byte } = outcome {
            let mut off = byte % bytes;
            for (buf, _) in copies {
                if off < buf.modeled_bytes() {
                    flipped = apply_flip_device(TransferOutcome::Corrupt { byte: off }, buf);
                    break;
                }
                off -= buf.modeled_bytes();
            }
        }
        let dur = self.props.transfer_time_batched(bytes);
        let n = copies.len() as u64;
        let mut st = self.state.lock();
        let (start_s, end_s) =
            self.bus_transfer(&mut st, stream, TransferDir::HostToDevice, "h2d", dur);
        st.meters.comm_time_s += dur;
        st.meters.h2d_bytes += bytes;
        st.meters.transfers += 1;
        st.meters.coalesced_transactions += 1;
        st.meters.coalesced_copies += n;
        st.trace
            .push_with("h2d", stream.index(), start_s, end_s, || {
                format!("H2D coalesced {n}×, {bytes} B")
            });
        if let Some(elem) = flipped {
            st.trace
                .push_with("flip", stream.index(), end_s, end_s, || {
                    format!("H2D silent flip @ element {elem} (coalesced)")
                });
        }
        Ok(TimeSpan { start_s, end_s })
    }

    /// Copy device → host on the default stream.
    pub fn memcpy_dtoh<T: DeviceScalar>(
        &self,
        buf: &DeviceBuffer<T>,
        dst: &mut [T],
    ) -> Result<TimeSpan> {
        self.memcpy_dtoh_on(StreamId::DEFAULT, buf, dst)
    }

    /// Copy device → host on a chosen stream.
    pub fn memcpy_dtoh_on<T: DeviceScalar>(
        &self,
        stream: StreamId,
        buf: &DeviceBuffer<T>,
        dst: &mut [T],
    ) -> Result<TimeSpan> {
        self.check_buffer(buf)?;
        if dst.len() != buf.len() {
            return Err(SimError::CopyLengthMismatch {
                device_len: buf.len(),
                host_len: dst.len(),
            });
        }
        let outcome =
            match self.fault_check_transfer(TransferDir::DeviceToHost, stream, buf.modeled_bytes())
            {
                Ok(o) => o,
                Err(e) => {
                    if e.is_transient() {
                        // Partial-DMA analogue on the host side: scribble garbage
                        // into the destination so the caller cannot use it.
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
        // A D2H flip lands in the received host copy; device memory keeps
        // the true data (that asymmetry is what readback CRCs catch).
        let mut flipped: Option<usize> = None;
        if let TransferOutcome::Corrupt { byte } = outcome {
            let off = byte % bytes;
            let elem = (off / T::SIZE) as usize;
            let mask = 0x80u64 << (8 * (off % T::SIZE));
            dst[elem] = T::from_word(dst[elem].to_word() ^ mask);
            flipped = Some(elem);
        }
        let dur = self.props.transfer_time(bytes);
        let mut st = self.state.lock();
        let (start_s, end_s) =
            self.bus_transfer(&mut st, stream, TransferDir::DeviceToHost, "d2h", dur);
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
        Ok(TimeSpan { start_s, end_s })
    }

    // ------------------------------------------------------------------
    // Checksummed transfers (end-to-end integrity)
    // ------------------------------------------------------------------

    /// Host FLOPs one CRC64 pass charges per payload byte (a table-driven
    /// software CRC: one XOR plus one table fold per byte, amortized).
    pub const CRC64_FLOPS_PER_BYTE: u64 = 4;

    /// [`memcpy_htod_on`](Self::memcpy_htod_on) with end-to-end payload
    /// verification: a CRC64 is computed over the host staging buffer
    /// before the copy and recomputed over the landed device words after
    /// it (modeling a device-side checksum pass; its cost is charged as
    /// host FLOPs on the overlapped host-CPU resource — no extra bus
    /// traffic). A mismatch reports [`SimError::CorruptTransfer`], which is
    /// retryable exactly like a transient transfer fault: a retry re-sends
    /// the payload.
    pub fn memcpy_htod_checked_on<T: DeviceScalar>(
        &self,
        stream: StreamId,
        buf: &DeviceBuffer<T>,
        src: &[T],
    ) -> Result<TimeSpan> {
        let expect = checksum::crc64(src.iter().map(|v| v.to_word()));
        let span = self.memcpy_htod_on(stream, buf, src)?;
        let landed = checksum::crc64((0..buf.len()).map(|i| buf.word(i).load(Ordering::Relaxed)));
        self.charge_host_flops(2 * buf.modeled_bytes() * Self::CRC64_FLOPS_PER_BYTE);
        if landed != expect {
            return Err(SimError::CorruptTransfer {
                dir: TransferDir::HostToDevice,
                index: self.meters().transfers,
            });
        }
        Ok(span)
    }

    /// [`memcpy_htod_batched`](Self::memcpy_htod_batched) with the same
    /// end-to-end verification as
    /// [`memcpy_htod_checked_on`](Self::memcpy_htod_checked_on), applied to
    /// the transaction's concatenated payload.
    pub fn memcpy_htod_batched_checked<T: DeviceScalar>(
        &self,
        stream: StreamId,
        copies: &[(&DeviceBuffer<T>, &[T])],
    ) -> Result<TimeSpan> {
        let expect = checksum::crc64(
            copies
                .iter()
                .flat_map(|(_, src)| src.iter().map(|v| v.to_word())),
        );
        let span = self.memcpy_htod_batched(stream, copies)?;
        let landed =
            checksum::crc64(copies.iter().flat_map(|(buf, _)| {
                (0..buf.len()).map(move |i| buf.word(i).load(Ordering::Relaxed))
            }));
        let bytes: u64 = copies.iter().map(|(buf, _)| buf.modeled_bytes()).sum();
        self.charge_host_flops(2 * bytes * Self::CRC64_FLOPS_PER_BYTE);
        if landed != expect {
            return Err(SimError::CorruptTransfer {
                dir: TransferDir::HostToDevice,
                index: self.meters().transfers,
            });
        }
        Ok(span)
    }

    /// [`memcpy_dtoh_on`](Self::memcpy_dtoh_on) with end-to-end payload
    /// verification: a CRC64 over the device words before the copy is
    /// compared against a CRC64 over the received host data. A mismatch
    /// reports [`SimError::CorruptTransfer`] (retryable); the destination
    /// holds the corrupted payload in that case and must not be used.
    pub fn memcpy_dtoh_checked_on<T: DeviceScalar>(
        &self,
        stream: StreamId,
        buf: &DeviceBuffer<T>,
        dst: &mut [T],
    ) -> Result<TimeSpan> {
        let expect = checksum::crc64((0..buf.len()).map(|i| buf.word(i).load(Ordering::Relaxed)));
        let span = self.memcpy_dtoh_on(stream, buf, dst)?;
        let landed = checksum::crc64(dst.iter().map(|v| v.to_word()));
        self.charge_host_flops(2 * buf.modeled_bytes() * Self::CRC64_FLOPS_PER_BYTE);
        if landed != expect {
            return Err(SimError::CorruptTransfer {
                dir: TransferDir::DeviceToHost,
                index: self.meters().transfers,
            });
        }
        Ok(span)
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
    /// deterministic even under [`ExecMode::Threaded`].
    ///
    /// The reservation is charged to the launch as occupancy pressure
    /// ([`Cost::shared_request`]); a request exceeding the device's
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
        let corrupt = effects.flip_op.map(KernelCorrupt::new);
        let exec_mode = self.state.lock().exec_mode;
        let (mut cost, traces) = match exec_mode {
            ExecMode::Sequential => {
                let mut state = WorkerState::new();
                state.corrupt = corrupt.clone();
                run_block_range(
                    cfg,
                    0..cfg.grid.count(),
                    shared_f64,
                    &kernel,
                    &epilogue,
                    &mut state,
                );
                let mut cost = state.cost;
                cost.atomic_max_chain = state.chain.max_chain();
                (cost, state.traces)
            }
            ExecMode::Threaded(workers) => {
                let next = AtomicU64::new(0);
                let total = cfg.grid.count();
                // Adaptive claim grain: ~8 claims per worker amortizes the
                // counter on huge grids without serializing small ones on a
                // single worker (a fixed batch of 8 did exactly that).
                let grain = (total / (workers as u64 * 8)).max(1);
                let states = Mutex::new(Vec::new());
                std::thread::scope(|scope| {
                    for _ in 0..workers.min(total as usize).max(1) {
                        scope.spawn(|| {
                            let mut state = WorkerState::new();
                            state.corrupt = corrupt.clone();
                            loop {
                                let start = next.fetch_add(grain, Ordering::Relaxed);
                                if start >= total {
                                    break;
                                }
                                let end = (start + grain).min(total);
                                run_block_range(
                                    cfg,
                                    start..end,
                                    shared_f64,
                                    &kernel,
                                    &epilogue,
                                    &mut state,
                                );
                            }
                            states.lock().push(state);
                        });
                    }
                });
                merge_states(states.into_inner())
            }
        };
        cost.shared_request = shared_bytes;
        // Only flips that actually landed on a deposit count — an armed
        // launch with fewer deposits than the target ordinal fires nothing.
        let flip_landed = corrupt
            .as_ref()
            .is_some_and(|c| c.fired.load(Ordering::Relaxed));
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
            traces,
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

    /// Make `stream` wait for all work currently enqueued on `other`.
    pub fn stream_wait(&self, stream: StreamId, other: StreamId) {
        let mut st = self.state.lock();
        let t = st.timelines.schedule(other, 0.0).0;
        st.timelines.wait_until(stream, t);
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

    /// Record an event capturing all work enqueued on `stream` so far.
    pub fn record_event(&self, stream: StreamId) -> Event {
        let mut st = self.state.lock();
        let (time_s, _) = st.timelines.schedule(stream, 0.0);
        Event { time_s }
    }

    /// Make `stream` wait for a recorded event (`cudaStreamWaitEvent`).
    pub fn stream_wait_event(&self, stream: StreamId, event: &Event) {
        self.state.lock().timelines.wait_until(stream, event.time_s);
    }

    /// Export the virtual timeline in Chrome Trace Event Format (view in
    /// `chrome://tracing` or Perfetto).
    pub fn export_chrome_trace(&self) -> String {
        let st = self.state.lock();
        crate::trace::chrome_trace(&[(self.props.name.clone(), st.trace.ops())])
    }

    /// Copy of the raw operation log behind the trace export (bounded by
    /// the current [`TraceMode`]).
    pub fn ops(&self) -> Vec<OpRecord> {
        self.state.lock().trace.ops()
    }

    /// Choose how much of the op log to keep (default: a bounded ring,
    /// see [`TraceMode`]). `TraceMode::Off` also skips name formatting.
    pub fn set_trace_mode(&self, mode: TraceMode) {
        self.state.lock().trace.set_mode(mode);
    }

    /// Op records not retained by the current trace mode.
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

/// Apply an ordered silent payload flip to a landed device buffer: XOR the
/// top bit of the addressed byte (wrapped to the payload length). Returns
/// the flipped element's index so the caller can trace it.
fn apply_flip_device<T: DeviceScalar>(
    outcome: TransferOutcome,
    buf: &DeviceBuffer<T>,
) -> Option<usize> {
    let TransferOutcome::Corrupt { byte } = outcome else {
        return None;
    };
    let off = byte % buf.modeled_bytes();
    let elem = (off / T::SIZE) as usize;
    let mask = 0x80u64 << (8 * (off % T::SIZE));
    buf.word(elem).fetch_xor(mask, Ordering::Relaxed);
    Some(elem)
}

/// Decompose a linear block index into grid coordinates (x fastest).
fn block_coords(grid: Dim3, linear: u64) -> Dim3 {
    let x = linear % grid.x;
    let y = (linear / grid.x) % grid.y;
    let z = linear / (grid.x * grid.y);
    Dim3 { x, y, z }
}

fn run_block_range<F, E>(
    cfg: LaunchConfig,
    blocks: std::ops::Range<u64>,
    shared_f64: usize,
    kernel: &F,
    epilogue: &E,
    state: &mut WorkerState,
) where
    F: Fn(&mut ThreadCtx<'_>, &mut [f64]) + Sync,
    E: Fn(&mut ThreadCtx<'_>, &mut [f64]) + Sync,
{
    // One tile per worker, re-zeroed per block (the hardware hands every
    // block pristine shared memory only logically; reuse is free here).
    let mut shared = vec![0.0f64; shared_f64];
    for b in blocks {
        let block_idx = block_coords(cfg.grid, b);
        shared.fill(0.0);
        for tz in 0..cfg.block.z {
            for ty in 0..cfg.block.y {
                for tx in 0..cfg.block.x {
                    let mut ctx = ThreadCtx {
                        block_idx,
                        thread_idx: Dim3 {
                            x: tx,
                            y: ty,
                            z: tz,
                        },
                        grid_dim: cfg.grid,
                        block_dim: cfg.block,
                        state,
                    };
                    kernel(&mut ctx, &mut shared);
                }
            }
        }
        let mut ctx = ThreadCtx {
            block_idx,
            thread_idx: Dim3 { x: 0, y: 0, z: 0 },
            grid_dim: cfg.grid,
            block_dim: cfg.block,
            state,
        };
        epilogue(&mut ctx, &mut shared);
    }
}

fn merge_states(states: Vec<WorkerState>) -> (Cost, [u64; crate::meter::TRACE_SLOTS]) {
    let mut cost = Cost::default();
    let mut chain = crate::meter::ChainEstimator::new();
    let mut traces = [0u64; crate::meter::TRACE_SLOTS];
    for s in states {
        cost.merge(&s.cost);
        chain.merge(&s.chain);
        for (t, v) in traces.iter_mut().zip(s.traces) {
            *t += v;
        }
    }
    cost.atomic_max_chain = chain.max_chain();
    (cost, traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_device() -> Device {
        Device::new(DeviceProps::tiny(1 << 16))
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
        d.free(a);
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
        let mut back = [0.0f64; 3];
        d.memcpy_dtoh(&buf, &mut back).unwrap();
        assert_eq!(back, [1.5, -2.0, 3.25]);
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
            d.memcpy_htod(&buf, &[1u32, 2]),
            Err(SimError::CopyLengthMismatch {
                device_len: 4,
                host_len: 2
            })
        ));
        let mut small = [0u32; 3];
        assert!(d.memcpy_dtoh(&buf, &mut small).is_err());
    }

    #[test]
    fn batched_copy_coalesces_latency() {
        let d = tiny_device();
        let a = d.alloc::<f64>(8).unwrap();
        let b = d.alloc::<f64>(4).unwrap();
        let ha: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let hb: Vec<f64> = (0..4).map(|i| 100.0 + i as f64).collect();
        let span = d
            .memcpy_htod_batched(StreamId::DEFAULT, &[(&a, &ha), (&b, &hb)])
            .unwrap();
        let m = d.meters();
        assert_eq!(m.transfers, 1, "one bus transaction");
        assert_eq!(m.coalesced_transactions, 1);
        assert_eq!(m.coalesced_copies, 2);
        assert_eq!(m.h2d_bytes, 96);
        // One latency + summed bandwidth term, strictly cheaper than two
        // separate copies.
        let serial = d.props().transfer_time(64) + d.props().transfer_time(32);
        let expect = d.props().transfer_time_batched(96);
        assert!((span.end_s - span.start_s - expect).abs() < 1e-15);
        assert!(m.comm_time_s < serial);
        // The payloads really arrived.
        let mut back = vec![0.0f64; 8];
        d.memcpy_dtoh(&a, &mut back).unwrap();
        assert_eq!(back, ha);
        let mut back = vec![0.0f64; 4];
        d.memcpy_dtoh(&b, &mut back).unwrap();
        assert_eq!(back, hb);
    }

    #[test]
    fn batched_copy_validates_before_moving_data() {
        let d = tiny_device();
        let a = d.alloc_from_slice(&[5.0f64, 6.0]).unwrap();
        let b = d.alloc::<f64>(4).unwrap();
        assert!(d
            .memcpy_htod_batched(StreamId::DEFAULT, &[(&a, &[1.0, 2.0]), (&b, &[0.0; 3])])
            .is_err());
        // The length mismatch on `b` must have left `a` untouched.
        let mut back = [0.0f64; 2];
        d.memcpy_dtoh(&a, &mut back).unwrap();
        assert_eq!(back, [5.0, 6.0]);
        assert!(d
            .memcpy_htod_batched::<f64>(StreamId::DEFAULT, &[])
            .is_err());
    }

    #[test]
    fn batched_copy_transient_fault_poisons_all_destinations() {
        let d = tiny_device();
        d.set_fault_plan(FaultPlan::new(0).fail_nth_h2d(1));
        let a = d.alloc::<f64>(2).unwrap();
        let b = d.alloc::<f64>(2).unwrap();
        let host = [1.0f64, 2.0];
        assert!(d
            .memcpy_htod_batched(StreamId::DEFAULT, &[(&a, &host), (&b, &host)])
            .is_err());
        assert!(
            d.meters().comm_time_s > 0.0,
            "failed transaction still burnt bus time"
        );
        // Retry rewrites everything.
        d.memcpy_htod_batched(StreamId::DEFAULT, &[(&a, &host), (&b, &host)])
            .unwrap();
        let mut back = [0.0f64; 2];
        d.memcpy_dtoh(&a, &mut back).unwrap();
        assert_eq!(back, host);
        d.memcpy_dtoh(&b, &mut back).unwrap();
        assert_eq!(back, host);
    }

    #[test]
    fn threaded_grain_adapts_to_small_grids() {
        // A grid smaller than the old fixed batch of 8 must still spread
        // over workers and, above all, visit every block exactly once.
        let d = tiny_device();
        d.set_exec_mode(ExecMode::Threaded(4));
        let counts = d.alloc_zeroed::<u64>(6).unwrap();
        let cfg = LaunchConfig::new(Dim3::new(6, 1, 1), Dim3::new(1, 1, 1));
        d.launch("tiny", cfg, |ctx| {
            ctx.atomic_add_u64(&counts, ctx.block_idx.x as usize, 1);
        })
        .unwrap();
        let mut host = vec![0u64; 6];
        d.memcpy_dtoh(&counts, &mut host).unwrap();
        assert!(host.iter().all(|&c| c == 1), "{host:?}");
    }

    #[test]
    fn foreign_buffers_rejected() {
        let d1 = tiny_device();
        let d2 = tiny_device();
        let buf = d1.alloc::<f64>(4).unwrap();
        assert!(matches!(
            d2.memcpy_htod(&buf, &[0.0; 4]),
            Err(SimError::ForeignBuffer)
        ));
    }

    #[test]
    fn launch_runs_every_thread_once() {
        let d = tiny_device();
        let counts = d.alloc_zeroed::<u64>(100).unwrap();
        let cfg = LaunchConfig::linear(100, 16); // 112 threads; guard excess
        d.launch("count", cfg, |ctx| {
            let i = ctx.global_id().x as usize;
            if i < 100 {
                ctx.atomic_add_u64(&counts, i, 1);
            }
        })
        .unwrap();
        let mut host = vec![0u64; 100];
        d.memcpy_dtoh(&counts, &mut host).unwrap();
        assert!(
            host.iter().all(|&c| c == 1),
            "each element visited exactly once"
        );
    }

    #[test]
    fn sequential_and_threaded_agree() {
        let run = |mode: ExecMode| -> (Vec<f64>, Cost) {
            let d = tiny_device();
            d.set_exec_mode(mode);
            let xs: Vec<f64> = (0..256).map(|i| i as f64 * 0.5).collect();
            let input = d.alloc_from_slice(&xs).unwrap();
            let out = d.alloc_zeroed::<f64>(16).unwrap();
            let cfg = LaunchConfig::linear(256, 32);
            d.launch("hist", cfg, |ctx| {
                let i = ctx.global_id().x as usize;
                let v = ctx.read(&input, i);
                ctx.charge_flops(2);
                ctx.atomic_add_f64(&out, i % 16, v);
            })
            .unwrap();
            let mut host = vec![0.0f64; 16];
            d.memcpy_dtoh(&out, &mut host).unwrap();
            let m = d.meters();
            (host, m.kernel_cost)
        };
        let (seq, cost_seq) = run(ExecMode::Sequential);
        let (thr, cost_thr) = run(ExecMode::Threaded(4));
        for (a, b) in seq.iter().zip(&thr) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert_eq!(cost_seq.flops, cost_thr.flops);
        assert_eq!(cost_seq.atomic_ops, cost_thr.atomic_ops);
        assert_eq!(cost_seq.mem_bytes, cost_thr.mem_bytes);
    }

    #[test]
    fn atomic_f64_is_exact_under_contention() {
        let d = tiny_device();
        d.set_exec_mode(ExecMode::Threaded(8));
        let out = d.alloc_zeroed::<f64>(1).unwrap();
        let cfg = LaunchConfig::linear(1024, 64);
        // Summing 1024 copies of 1.0 is exact in f64 regardless of order.
        d.launch("sum", cfg, |ctx| {
            let _ = ctx.global_id();
            ctx.atomic_add_f64(&out, 0, 1.0);
        })
        .unwrap();
        let mut host = [0.0f64];
        d.memcpy_dtoh(&out, &mut host).unwrap();
        assert_eq!(host[0], 1024.0);
        let m = d.meters();
        assert_eq!(m.kernel_cost.atomic_ops, 1024);
        assert!(m.kernel_cost.atomic_max_chain >= 1024, "single hot address");
    }

    #[test]
    fn shared_launch_gives_each_block_a_zeroed_tile() {
        let d = tiny_device();
        let out = d.alloc_zeroed::<f64>(4).unwrap();
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
        let mut host = [0.0f64; 4];
        d.memcpy_dtoh(&out, &mut host).unwrap();
        assert_eq!(host, [8.0; 4], "8 threads per block, once per block");
        let m = d.meters();
        assert_eq!(m.kernel_cost.shared_bytes, 4 * 8 * 16);
        assert_eq!(m.kernel_cost.shared_request, 16);
        assert_eq!(m.kernel_cost.atomic_ops, 4, "one commit per block");
    }

    #[test]
    fn shared_launch_is_deterministic_under_threading() {
        // The contract the privatized accumulator relies on: each block's
        // threads see the block tile in a fixed (tz, ty, tx) order, and
        // when every global cell receives at most one commit, the result
        // is bitwise identical however blocks are spread over workers.
        let run = |mode: ExecMode| -> Vec<f64> {
            let d = tiny_device();
            d.set_exec_mode(mode);
            let xs: Vec<f64> = (0..256).map(|i| (i as f64 * 0.37).sin()).collect();
            let input = d.alloc_from_slice(&xs).unwrap();
            let out = d.alloc_zeroed::<f64>(8 * 8).unwrap();
            let cfg = LaunchConfig::linear(256, 32);
            d.launch_shared_on(
                StreamId::DEFAULT,
                "tile",
                cfg,
                8,
                |ctx, shared| {
                    let i = ctx.global_id().x as usize;
                    let v = ctx.read(&input, i);
                    ctx.charge_shared_bytes(16);
                    shared[i % 8] += v;
                },
                |ctx, shared| {
                    let row = ctx.block_idx.x as usize * 8;
                    for (slot, &v) in shared.iter().enumerate() {
                        ctx.atomic_add_f64(&out, row + slot, v);
                    }
                },
            )
            .unwrap();
            let mut host = vec![0.0f64; 8 * 8];
            d.memcpy_dtoh(&out, &mut host).unwrap();
            host
        };
        let seq = run(ExecMode::Sequential);
        let thr = run(ExecMode::Threaded(4));
        assert_eq!(
            seq.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            thr.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
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
        d.memcpy_htod(&big, &host).unwrap();
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
        d.memcpy_htod_on(copy_stream, &big, &host).unwrap();
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
    fn stream_wait_creates_dependency() {
        let d = tiny_device();
        let s = d.create_stream();
        let buf = d.alloc::<f64>(2048).unwrap();
        d.memcpy_htod(&buf, &vec![0.0; 2048]).unwrap();
        let copy_done = d.elapsed_s();
        d.stream_wait(s, StreamId::DEFAULT);
        d.launch_on(s, "dependent", LaunchConfig::linear(8, 8), |_| {})
            .unwrap();
        assert!(d.elapsed_s() >= copy_done);
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
        match d.memcpy_htod(&buf, &data) {
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
        d.memcpy_htod(&buf, &data).unwrap();
        let mut back = [0.0f64; 4];
        d.memcpy_dtoh(&buf, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn transient_d2h_fault_scribbles_host_destination() {
        let d = tiny_device();
        d.set_fault_plan(FaultPlan::new(0).fail_nth_d2h(1));
        let buf = d.alloc_from_slice(&[7.0f64, 8.0]).unwrap();
        let mut out = [0.0f64; 2];
        assert!(d.memcpy_dtoh(&buf, &mut out).is_err());
        assert!(out.iter().all(|v| v.to_bits() == 0xDEAD_BEEF_DEAD_BEEF));
        d.memcpy_dtoh(&buf, &mut out).unwrap();
        assert_eq!(out, [7.0, 8.0]);
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
        let mut out = [0.0f64; 4];
        assert!(matches!(
            d.memcpy_dtoh(&buf, &mut out),
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
        d.memcpy_htod(&buf, &data).unwrap();
        let mut back = [0.0f64; 4];
        d.memcpy_dtoh(&buf, &mut back).unwrap();
        // Byte 17 → element 2, byte 1 → mask 0x8000.
        let diffs: Vec<usize> = (0..4).filter(|&i| back[i] != data[i]).collect();
        assert_eq!(diffs, vec![2], "exactly one element corrupted");
        assert_eq!(back[2].to_bits(), data[2].to_bits() ^ 0x8000);
        assert_eq!(d.fault_stats().unwrap().h2d_flipped, 1);
        assert!(d.ops().iter().any(|o| o.kind == "flip"));
        // One-shot: a fresh upload is clean again.
        d.memcpy_htod(&buf, &data).unwrap();
        d.memcpy_dtoh(&buf, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn d2h_flip_corrupts_host_copy_only() {
        let d = tiny_device();
        let data = [5.0f64, 6.0];
        let buf = d.alloc_from_slice(&data).unwrap();
        d.set_fault_plan(FaultPlan::new(0).flip_nth_d2h(1));
        let mut back = [0.0f64; 2];
        d.memcpy_dtoh(&buf, &mut back).unwrap();
        assert_eq!(back[0].to_bits(), data[0].to_bits() ^ 0x80);
        assert_eq!(back[1], data[1]);
        assert_eq!(d.fault_stats().unwrap().d2h_flipped, 1);
        // Device memory kept the truth; the next read is clean.
        d.memcpy_dtoh(&buf, &mut back).unwrap();
        assert_eq!(back, data);
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
        d.memcpy_htod_batched(StreamId::DEFAULT, &[(&a, &ha), (&b, &hb)])
            .unwrap();
        let mut back_a = [0.0f64; 8];
        let mut back_b = [0.0f64; 4];
        d.memcpy_dtoh(&a, &mut back_a).unwrap();
        d.memcpy_dtoh(&b, &mut back_b).unwrap();
        assert_eq!(back_a, ha, "first buffer untouched");
        assert_eq!(back_b[0].to_bits(), hb[0].to_bits() ^ (0x80u64 << 48));
        assert_eq!(&back_b[1..], &hb[1..]);
    }

    #[test]
    fn checked_h2d_detects_flip_and_retry_succeeds() {
        let d = tiny_device();
        d.set_fault_plan(FaultPlan::new(0).flip_nth_h2d(1));
        let data = [1.0f64, 2.0, 3.0];
        let buf = d.alloc::<f64>(3).unwrap();
        match d.memcpy_htod_checked_on(StreamId::DEFAULT, &buf, &data) {
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
        d.memcpy_htod_checked_on(StreamId::DEFAULT, &buf, &data)
            .unwrap();
        let mut back = [0.0f64; 3];
        d.memcpy_dtoh(&buf, &mut back).unwrap();
        assert_eq!(back, data);
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
            d.memcpy_htod_batched_checked(StreamId::DEFAULT, &[(&a, &ha), (&b, &hb)]),
            Err(SimError::CorruptTransfer { .. })
        ));
        d.memcpy_htod_batched_checked(StreamId::DEFAULT, &[(&a, &ha), (&b, &hb)])
            .unwrap();
    }

    #[test]
    fn checked_d2h_detects_flip_and_passes_clean() {
        let d = tiny_device();
        let data = [7.0f64, 8.0, 9.0];
        let buf = d.alloc_from_slice(&data).unwrap();
        d.set_fault_plan(FaultPlan::new(0).flip_nth_d2h(1));
        let mut back = [0.0f64; 3];
        assert!(matches!(
            d.memcpy_dtoh_checked_on(StreamId::DEFAULT, &buf, &mut back),
            Err(SimError::CorruptTransfer {
                dir: TransferDir::DeviceToHost,
                ..
            })
        ));
        d.memcpy_dtoh_checked_on(StreamId::DEFAULT, &buf, &mut back)
            .unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn kernel_flip_perturbs_one_deposit_and_is_counted() {
        let run = |plan: Option<FaultPlan>| -> (Vec<f64>, u64) {
            let d = tiny_device();
            if let Some(p) = plan {
                d.set_fault_plan(p);
            }
            let out = d.alloc_zeroed::<f64>(4).unwrap();
            d.launch("sum", LaunchConfig::linear(16, 4), |ctx| {
                let i = ctx.global_id().x as usize;
                ctx.atomic_add_f64(&out, i % 4, 1.5);
            })
            .unwrap();
            let mut host = vec![0.0f64; 4];
            d.memcpy_dtoh(&out, &mut host).unwrap();
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
        let seen = d.alloc_zeroed::<u64>(72).unwrap();
        let cfg = LaunchConfig::cover(Dim3::new(2, 9, 4), Dim3::new(2, 3, 4));
        d.launch("map", cfg, |ctx| {
            let g = ctx.global_id();
            if g.x < 2 && g.y < 9 && g.z < 4 {
                let lin = (g.z * 9 + g.y) * 2 + g.x;
                ctx.atomic_add_u64(&seen, lin as usize, 1);
            }
        })
        .unwrap();
        let mut host = vec![0u64; 72];
        d.memcpy_dtoh(&seen, &mut host).unwrap();
        assert!(host.iter().all(|&c| c == 1));
    }
}
