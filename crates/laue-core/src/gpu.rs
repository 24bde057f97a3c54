//! The paper's CUDA design, executed on the simulated device.
//!
//! This module reproduces the program structure of §III of the paper:
//!
//! * **Row-slab chunking** (Fig 2): the stack never fits device memory as a
//!   whole; the host streams `rows_per_slab` detector rows of *every* image
//!   to the device, reconstructs them, and copies the partial depth image
//!   back. [`fit_rows_per_slab`] picks the largest slab that fits the
//!   modeled memory, mirroring the M2070's 6 GB cap.
//! * **Thread mapping** (Fig 6): one kernel thread per
//!   `(row, col, image-pair)` element. The launch is 1-D with in-kernel
//!   index arithmetic — the "1D array" design the paper selects after its
//!   Fig 4 comparison — with the pair index fastest so that, under the
//!   deterministic executor, per-bin accumulation order matches the CPU
//!   baseline exactly.
//! * **`setTwo` kernel**: computes the differential intensity, triangulates
//!   both wire edges via the same [`plan_pair`] routine the CPU uses, and
//!   accumulates into the depth image with the CAS-loop
//!   `atomicAdd(double)` — multiple `z`-threads of one pixel race on the
//!   same output bins, exactly why the paper needed the atomic.
//! * **Layouts** (Fig 4): [`Layout::Flat1d`] ships one contiguous buffer
//!   per slab; [`Layout::Pointer3d`] reproduces the rejected design — one
//!   allocation per image (and per output bin) plus device pointer tables —
//!   paying per-transfer latency, pointer shipping, and an extra pointer
//!   dereference per access.
//! * **Copy/compute overlap** ([`reconstruct_pipelined`]): a k-deep ring of
//!   slab slots on three streams (upload / compute / download), the
//!   generalisation of the double-buffered two-stream pipeline the paper's
//!   related work discusses but its implementation does not do. `k = 1`
//!   degenerates to the paper's serial copy-in → kernel → copy-out loop and
//!   is what [`reconstruct_with_options`] runs.
//! * **One host depth table** ([`crate::cache`]): the per-(step, pixel)
//!   edge depths are pure functions of the geometry, and every call reads
//!   one [`EdgeTable`] of them, a [`DepthTableCache`]'s across runs. In
//!   [`Triangulation::HostTables`] mode each slab ships its rows of it, or,
//!   budget permitting, the whole table stays resident on the device, so
//!   warm runs skip both the triangulation FLOPs and the table upload. In
//!   [`Triangulation::InKernel`] mode `set_two` takes a pair's depths from
//!   it whenever the pixel and wire centres the thread read are the
//!   table's inputs bit for bit, with the in-kernel charges unchanged, so
//!   it saves host wall time only.
//! * **Coalesced slab uploads**: each slab's host→device pieces (pixel
//!   table, depth table, intensities) ship as one bus transaction
//!   ([`Device::memcpy_htod`] takes a batch), paying the PCIe latency once
//!   per slab.

pub mod batch;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::Range;

use cuda_sim::{
    Device, DeviceBuffer, Interconnect, InterconnectProps, LaunchConfig, Meters, NonzeroWords,
    StreamId,
};
use laue_geometry::{DepthMapper, Vec3};

use crate::cache::{DepthTableCache, EdgeTable, TableCacheStats, TableKey};
use crate::cluster::NodeOutcome;
use crate::config::{AccumulationMode, CompactionMode, ReconstructionConfig};
use crate::error::CoreError;
use crate::geometry::ScanGeometry;
use crate::input::{ScanView, SlabSource};
use crate::integrity::{self, IntegrityReport};
use crate::journal::{RunJournal, SlabProgress};
use crate::output::DepthImage;
use crate::pair::{
    plan_pair, plan_with_edges, PairPlan, PRESCAN_BYTES_PER_READ, PRESCAN_FLOPS_PER_PAIR,
};
use crate::planner::{Pins, Plan};
use crate::planning::{plan_slab_sparsity, unpack_entry, ShadowCull, SlabSparsity};
use crate::stats::ReconStats;
use crate::Result;

/// Device data layout for the image stack and output (the paper's Fig 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One flat buffer per slab; kernels do 1-D↔3-D index arithmetic.
    Flat1d,
    /// One allocation per image / per output bin plus device pointer
    /// tables; more transfers, extra pointer chases.
    Pointer3d,
}

/// Where the edge-depth triangulation happens.
///
/// The paper's kernel signature ships precomputed `edge` / `firstedge` /
/// `gpuPointArray` tables, i.e. parts of the triangulation are done on the
/// host and traded against PCIe transfer. The two modes below bracket that
/// design space; both produce bit-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Triangulation {
    /// Each kernel thread triangulates its own pair (compute on device).
    InKernel,
    /// The host precomputes the per-(pixel, step) depth table and ships
    /// each slab's rows of it (transfer instead of device compute; the host
    /// pays the triangulation FLOPs once per slab, or with a cache once per
    /// geometry).
    HostTables,
}

/// Full GPU-engine options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuOptions {
    pub layout: Layout,
    pub triangulation: Triangulation,
}

impl Default for GpuOptions {
    fn default() -> Self {
        GpuOptions {
            layout: Layout::Flat1d,
            triangulation: Triangulation::InKernel,
        }
    }
}

/// Ring depth `k` of the transfer/compute pipeline: how many slab slots may
/// be in flight at once across the upload / compute / download streams.
///
/// `k = 1` is the paper's serial pipeline (each slab fully drains before
/// the next uploads); `k = 2` is classic double buffering; deeper rings
/// keep the upload stream busy across longer download tails. Device memory
/// must hold `k` slabs, so the slab planner divides the budget by `k` —
/// past the point where the bus is saturated, deeper rings only shrink
/// slabs and add latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineDepth(pub usize);

impl PipelineDepth {
    /// Serial pipeline (no overlap).
    pub const SERIAL: PipelineDepth = PipelineDepth(1);

    /// Default overlap depth: upload, compute, and download each own a
    /// slot, matching the three streams.
    pub const DEFAULT: PipelineDepth = PipelineDepth(3);
}

impl Default for PipelineDepth {
    fn default() -> Self {
        PipelineDepth::DEFAULT
    }
}

/// Trace-slot assignments for the `set_two` kernel.
const TRACE_BELOW_CUTOFF: usize = 0;
const TRACE_INVALID: usize = 1;
const TRACE_OUT_OF_RANGE: usize = 2;
const TRACE_DEPOSITED: usize = 3;
const TRACE_DEPOSITS: usize = 4;

/// Threads per block for the 1-D launches (the paper's hardware caps at
/// 1024; 256 keeps plenty of blocks in flight).
pub(crate) const BLOCK_SIZE: u64 = 256;

/// The accumulation strategy one slab's `set_two` launch actually runs,
/// resolved from the device's shared-memory budget (see
/// [`AccumulationMode`] and [`plan_accumulation`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AccumPlan {
    /// Per-deposit global CAS atomics — the paper's §III-C scheme.
    /// `fallback` marks a slab the run *asked* to privatize but whose bin
    /// tile did not fit the device's shared memory.
    Atomic { fallback: bool },
    /// Shared-memory privatized tile: `pixels_per_block` bin rows of
    /// `n_depth_bins` doubles each, committed once per touched cell.
    Privatized { pixels_per_block: usize },
}

/// Pick the accumulation strategy for a slab: tile shape from
/// `n_depth_bins × block pixels` against the device's shared memory.
///
/// The planner prefers full occupancy — as many pixel rows per block as
/// keep ≥ 4 blocks resident per SM (the saturation point of
/// [`cuda_sim::DeviceProps::occupancy`]) — and accepts the occupancy
/// penalty only when a single bin row eats more than a quarter of shared
/// memory. When even one row does not fit, both `auto` and forced
/// privatization fall back to atomics, flagged so the stats can surface
/// the decision.
pub(crate) fn plan_accumulation(
    props: &cuda_sim::DeviceProps,
    n_bins: usize,
    mode: AccumulationMode,
) -> AccumPlan {
    if !mode.wants_privatized() {
        return AccumPlan::Atomic { fallback: false };
    }
    let row_bytes = n_bins as u64 * 8;
    let shared = props.shared_mem_per_block;
    if row_bytes > shared {
        return AccumPlan::Atomic { fallback: true };
    }
    let occ_cap = (shared / 4) / row_bytes;
    let fit = shared / row_bytes; // ≥ 1 — row_bytes ≤ shared above
    let per_block = if occ_cap >= 1 { occ_cap } else { fit };
    let pixels_per_block = per_block
        .min(BLOCK_SIZE)
        .min(props.max_threads_per_block)
        .max(1) as usize;
    AccumPlan::Privatized { pixels_per_block }
}

/// How many times a transient transfer fault is retried before giving up.
const MAX_TRANSFER_RETRIES: u32 = 3;

/// First retry backoff (virtual seconds); doubles on every further attempt
/// of the same copy, so the worst case per copy is `base · (2^retries − 1)`.
const BACKOFF_BASE_S: f64 = 50e-6;

/// What the engine did to survive device trouble during one reconstruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryLog {
    /// Times the slab plan was halved and the slab re-run after device OOM.
    pub replans: u32,
    /// Transient transfer faults absorbed by retrying the copy.
    pub transfer_retries: u32,
}

/// Run a host↔device copy, absorbing transient faults with bounded,
/// exponentially growing backoff (idle time on `stream` in virtual time).
/// Non-transient errors — OOM, lost device — propagate immediately.
///
/// With `integrity` attached every attempt is a CRC-checked copy (`copy`
/// gets the `checked` flag): the CRC's host FLOPs, charged inside the
/// copy, are billed to `verify_host_cpu_s`, every
/// [`cuda_sim::SimError::CorruptTransfer`] counts as a detected corruption
/// — corrected when a retry eventually lands the payload cleanly — and the
/// backoff idle time those CRC retries insert on the stream is billed to
/// `exposed_overhead_s` (it extends the makespan; plain transient-fault
/// backoffs do not count, they are recovery the run pays with or without
/// integrity).
fn retry_transfer<T>(
    device: &Device,
    stream: StreamId,
    recovery: &mut RecoveryLog,
    integrity: Option<&mut IntegrityReport>,
    mut copy: impl FnMut(bool) -> cuda_sim::Result<T>,
) -> Result<T> {
    let checked = integrity.is_some();
    let mut backoff = BACKOFF_BASE_S;
    let mut attempts = 0u32;
    let mut crc_hits = 0u64;
    let mut crc_backoff_s = 0.0f64;
    let host_t0 = device.host_flops_time_s();
    let result = loop {
        match copy(checked) {
            Ok(v) => break Ok(v),
            Err(e) if e.is_transient() && attempts < MAX_TRANSFER_RETRIES => {
                if matches!(e, cuda_sim::SimError::CorruptTransfer { .. }) {
                    crc_hits += 1;
                    crc_backoff_s += backoff;
                }
                attempts += 1;
                recovery.transfer_retries += 1;
                device.delay(stream, backoff);
                backoff *= 2.0;
            }
            Err(e) => {
                if matches!(e, cuda_sim::SimError::CorruptTransfer { .. }) {
                    crc_hits += 1;
                }
                break Err(CoreError::Device(e));
            }
        }
    };
    if let Some(report) = integrity {
        report.checks_run += 1;
        report.verify_host_cpu_s += device.host_flops_time_s() - host_t0;
        report.exposed_overhead_s += crc_backoff_s;
        report.transfer_crc_failures += crc_hits;
        report.corruptions_detected += crc_hits;
        if result.is_ok() {
            report.corruptions_corrected += crc_hits;
        }
    }
    result
}

/// Result of a GPU reconstruction: what the one executor,
/// [`crate::cluster::reconstruct_cluster_checkpointed`], returns for every
/// shape from one device to N nodes × M devices. Device-side fields cover
/// the devices that worked in the run; a single GPU is a 1×1 cluster.
#[derive(Debug, Clone, Default)]
pub struct GpuReconstruction {
    /// The depth-resolved output (empty when a row-budgeted call left rows
    /// uncommitted: the partial image stays in its [`SlabProgress`]).
    pub image: DepthImage,
    /// Outcome counters summed over the committed slabs (each from its
    /// launches' trace instrumentation).
    pub stats: ReconStats,
    /// Transfer/compute meters summed over the participating devices.
    pub meters: Meters,
    /// Largest slab any device ran, in rows (0 when every row was
    /// replayed).
    pub rows_per_slab: usize,
    /// Committed slabs (replayed + fresh).
    pub n_slabs: usize,
    /// Virtual makespan: the slowest node's compute *and* the reduction
    /// tail (equals `meters.serial_total_s()` for one serial device;
    /// smaller when overlapped).
    pub elapsed_s: f64,
    /// Peak modeled device memory, bytes: the max over the participating
    /// devices.
    pub peak_device_mem: u64,
    /// Host-side triangulation FLOPs spent building depth tables and cull
    /// tables, summed over the participating devices (model with
    /// `HostProps`).
    pub host_table_flops: u64,
    /// Host-CPU busy seconds those FLOPs occupy, summed over the
    /// participating devices' hosts (each host's CPU works in parallel
    /// with its devices, never stalling a stream).
    pub host_table_time_s: f64,
    /// What the engine did to survive device trouble (re-plans, retries),
    /// over every ring of the run, including rings whose device died.
    pub recovery: RecoveryLog,
    /// Shallowest ring any device finished: the requested depth unless
    /// memory pressure shrank it.
    pub pipeline_depth: usize,
    /// Depth-table cache accounting for this run (all zeros when no cache
    /// was attached).
    pub table_cache: TableCacheStats,
    /// Achieved active-pair density per slab, in slab order (empty when
    /// compaction is off).
    pub slab_densities: Vec<f64>,
    /// Per slab, whether its main launch ran the shared-memory privatized
    /// accumulator (`false` = atomic fallback or an empty launch domain).
    /// Empty under `--accumulation atomic`.
    pub slab_privatized: Vec<bool>,
    /// What the integrity layer detected and repaired, merged over the
    /// nodes (all zeros under [`crate::config::IntegrityMode::Off`]).
    pub integrity: IntegrityReport,
    /// Per-node breakdown, in node order (every node, even workless ones).
    pub nodes: Vec<NodeOutcome>,
    /// Slowest node's compute makespan.
    pub compute_s: f64,
    /// Reduction time not hidden behind compute
    /// (`elapsed_s - compute_s`).
    pub reduction_exposed_s: f64,
    /// Seconds reduction traffic spent queued on the fabric.
    pub net_wait_s: f64,
    /// Total reduction bytes moved inter-node.
    pub net_bytes: u64,
    /// Total reduction messages (segment-hops) on the fabric.
    pub net_messages: u64,
    /// Nodes whose entire device complement died mid-run.
    pub nodes_lost: u32,
    /// Devices lost across all nodes.
    pub devices_lost: u32,
    /// Per-device meters, node-major over participating devices.
    pub per_device: Vec<Meters>,
}

/// Modeled device bytes needed for `slots` concurrently resident slabs of
/// `rows` detector rows each (`slots` = ring depth). With compaction
/// enabled each slab also reserves the worst-case work-list (one u64 per
/// pair) plus the prescan's count cell.
fn slab_bytes(
    rows: usize,
    n_images: usize,
    n_cols: usize,
    n_bins: usize,
    opts: GpuOptions,
    slots: usize,
    compaction: CompactionMode,
) -> u64 {
    let layout = opts.layout;
    let row = (n_cols * 8) as u64;
    let mut intensity = n_images as u64 * rows as u64 * row;
    if opts.triangulation == Triangulation::HostTables {
        // The depth table has the same (steps × rows × cols) footprint.
        intensity *= 2;
    }
    let pixels = rows as u64 * n_cols as u64 * 3 * 8;
    let output = n_bins as u64 * rows as u64 * row;
    let tables = match layout {
        Layout::Flat1d => 0,
        Layout::Pointer3d => (n_images as u64 + n_bins as u64) * 8,
    };
    let worklist = if compaction.enabled() {
        (n_images as u64 - 1) * rows as u64 * row + 8
    } else {
        0
    };
    // Alignment padding: every allocation rounds up to 256 bytes; the
    // pointer layout makes one allocation per image/bin.
    let mut allocs: u64 = match layout {
        Layout::Flat1d => 4,
        Layout::Pointer3d => (n_images + n_bins) as u64 + 4,
    };
    if compaction.enabled() {
        allocs += 2; // work-list + prescan counter
    }
    let base = intensity + pixels + output + tables + worklist + allocs * 256;
    slots as u64 * base
}

/// Largest `rows_per_slab` such that `slots` slabs fit in `budget` bytes
/// together (the ring keeps `slots` slabs resident at once).
#[allow(clippy::too_many_arguments)]
pub fn fit_rows_per_slab(
    budget: u64,
    n_rows: usize,
    n_images: usize,
    n_cols: usize,
    n_bins: usize,
    opts: GpuOptions,
    slots: usize,
    compaction: CompactionMode,
) -> Result<usize> {
    // Leave headroom for the wire-centre table and fragmentation.
    let budget = budget - budget / 10;
    let mut best = 0usize;
    let mut lo = 1usize;
    let mut hi = n_rows;
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        if slab_bytes(mid, n_images, n_cols, n_bins, opts, slots, compaction) <= budget {
            best = mid;
            lo = mid + 1;
        } else {
            if mid == 0 {
                break;
            }
            hi = mid - 1;
        }
    }
    if best == 0 {
        return Err(CoreError::DeviceCapacity {
            needed: slab_bytes(1, n_images, n_cols, n_bins, opts, slots, compaction),
            budget,
        });
    }
    Ok(best)
}

/// The ring's opening plan for a band of `band_rows` rows:
/// `(rows_per_slab, slots)`. The plan's slab height is used as is;
/// without one the slab is the largest whose `slots` copies fit `budget`.
/// With a journal attached the slab is capped at what one journal record
/// holds ([`RunJournal::max_slab_rows`]), so no slab is computed only to
/// fail its commit.
#[allow(clippy::too_many_arguments)]
fn plan_slabs(
    budget: u64,
    band_rows: usize,
    n_images: usize,
    n_cols: usize,
    cfg: &ReconstructionConfig,
    sizing_opts: GpuOptions,
    plan: &Plan,
    journal: Option<&RunJournal>,
) -> Result<(usize, usize)> {
    let mut slots = plan.depth.0;
    let rows_per_slab = match plan.rows_per_slab {
        Some(r) => r.min(band_rows),
        None => loop {
            // Plan-time fit: k slabs must be resident together. When even
            // one row per slab does not fit at this depth, shallow the ring
            // before giving up — overlap is an optimisation, capacity is
            // not.
            match fit_rows_per_slab(
                budget,
                band_rows,
                n_images,
                n_cols,
                cfg.n_depth_bins,
                sizing_opts,
                slots,
                cfg.compaction,
            ) {
                Ok(r) => break r,
                Err(CoreError::DeviceCapacity { .. }) if slots > 1 => slots = (slots / 2).max(1),
                Err(e) => return Err(e),
            }
        },
    };
    let rows_per_slab = match journal {
        Some(j) => rows_per_slab.min(j.max_slab_rows()?),
        None => rows_per_slab,
    };
    Ok((rows_per_slab, slots))
}

/// Where the kernel's depth table comes from, resolved once per ring.
pub(crate) enum TableSource<'a> {
    /// In-kernel triangulation — no table at all.
    None,
    /// The call's host table: each slab ships its rows
    /// ([`EdgeTable::rows`]), charging their triangulation when `per_slab`
    /// (no cache paid for it).
    Host {
        table: &'a EdgeTable,
        per_slab: bool,
    },
    /// The full-detector table, already resident on the device; slabs
    /// upload nothing.
    Resident(DepthTableRef),
}

/// Per-slab device-resident data, under either layout.
pub(crate) enum SlabBuffers {
    Flat {
        intensity: DeviceBuffer<f64>,
        output: DeviceBuffer<f64>,
    },
    Pointer {
        /// One buffer per image (slab rows × cols each).
        images: Vec<DeviceBuffer<f64>>,
        /// One buffer per output bin (slab rows × cols each).
        bins: Vec<DeviceBuffer<f64>>,
        /// Device copies of the pointer tables (transfer + storage cost;
        /// the table contents are the modeled addresses).
        _image_table: DeviceBuffer<u64>,
        _bin_table: DeviceBuffer<u64>,
    },
}

/// The kernel's view of a depth table on the device: an [`EdgeTable`]'s
/// rows from detector row `first_row` on, pixel-major with the step
/// fastest. A slab's own table starts at its first row; a resident one
/// (aliasing the cache's allocation) at the table's.
#[derive(Clone)]
pub(crate) struct DepthTableRef {
    buf: DeviceBuffer<f64>,
    first_row: usize,
    n_steps: usize,
}

pub(crate) struct SlabUpload {
    buffers: SlabBuffers,
    pixels: DeviceBuffer<f64>,
    /// Precomputed per-(step, pixel) edge depths (HostTables mode).
    depth_table: Option<DepthTableRef>,
    /// Host FLOPs of triangulating the slab's table rows, charged when no
    /// cache paid for them.
    host_flops: u64,
    rows: usize,
    row0: usize,
    /// Virtual time when the last H2D copy of this slab completes.
    ready_at: f64,
    /// Sparsity plan, present whenever compaction is enabled for the run.
    sparsity: Option<SlabSparsity>,
    /// Whether this slab launches over the compacted list: always under
    /// [`CompactionMode::On`], the planner's pick under `Auto`.
    compact: bool,
    /// Device work-list the prescan emits (compact slabs only).
    list_buf: Option<DeviceBuffer<u64>>,
    /// Prescan's count cell (one u64; the count phase is always paid).
    counter_buf: Option<DeviceBuffer<u64>>,
    /// Accumulation strategy for this slab's main launch (per-slab under
    /// the planner's auto mode, uniform otherwise).
    pub(crate) accum: AccumPlan,
}

/// Upload one slab's data under the ring's layout.
///
/// All f64 pieces of the slab (pixel table, depth-table rows, intensity)
/// ship as one coalesced bus transaction; the pointer layout needs a second
/// transaction for its u64 pointer tables.
fn upload_slab(
    ctx: &RingCtx<'_>,
    source: &mut dyn SlabSource,
    row0: usize,
    rows: usize,
    recovery: &mut RecoveryLog,
    integrity: &mut IntegrityReport,
) -> Result<SlabUpload> {
    let (device, stream, geom, cfg) = (ctx.device, ctx.upload_stream, ctx.geom, ctx.cfg);
    let layout = ctx.opts.layout;
    let n_images = source.n_images();
    let n_cols = source.n_cols();
    let mut slab = ctx.slab.borrow_mut();
    source.read_slab_into(row0, rows, &mut slab)?;
    let slab: &[f64] = &slab;
    let view = ScanView::new(slab, n_images, rows, n_cols)?;

    // Sparsity planning happens against the host copy of the slab; the
    // device-side cost of the scan is charged by the prescan kernel.
    let sparsity = ctx
        .cull
        .map(|cull| plan_slab_sparsity(&view, 0..rows, row0, cull, cfg));

    // Per-slab planner decision: with either knob on Auto, the slab's
    // measured sparsity counts plus a sampled intensity probe feed the
    // device's cost model, which jointly picks the launch shape and the
    // accumulation strategy for this slab's kernels.
    let needs_planner = matches!(cfg.compaction, CompactionMode::Auto)
        || matches!(cfg.accumulation, AccumulationMode::Auto);
    let mut compact = matches!(cfg.compaction, CompactionMode::On);
    let accum = if needs_planner {
        let probe = crate::planner::SlabProbe::sample(
            slab,
            geom,
            ctx.mapper,
            cfg,
            n_images,
            row0,
            rows,
            n_cols,
            sparsity.as_ref().map(|sp| sp.live_pairs.as_slice()),
        );
        let rates = probe.rates();
        let model = match &sparsity {
            Some(sp) => crate::planner::SlabModel {
                rows,
                n_cols,
                n_bins: cfg.n_depth_bins,
                live_rows: sp.live_rows.len(),
                live_pairs_sum: sp.combos.len() as u64,
                live_evals: (sp.combos.len() * n_cols) as u64,
                entries: sp.entries.len() as u64,
                culled_combos: sp.culled_combos,
                touched_sum: sp.touched_sum(),
                rates,
            },
            None => crate::planner::SlabModel::dense(
                rows,
                n_cols,
                cfg.n_depth_bins,
                n_images - 1,
                rates,
            ),
        };
        let decision = crate::planner::plan_slab(
            device.props(),
            &model,
            layout,
            !matches!(ctx.table_source, TableSource::None),
            cfg.compaction,
            cfg.accumulation,
        );
        if matches!(cfg.compaction, CompactionMode::Auto) {
            compact = decision.compact;
        }
        match cfg.accumulation {
            AccumulationMode::Auto => decision.accum,
            mode => plan_accumulation(device.props(), cfg.n_depth_bins, mode),
        }
    } else {
        plan_accumulation(device.props(), cfg.n_depth_bins, cfg.accumulation)
    };
    let counter_buf = match &sparsity {
        Some(_) => Some(device.alloc::<u64>(1)?),
        None => None,
    };
    let list_buf = match &sparsity {
        Some(sp) if compact && !sp.entries.is_empty() => {
            Some(device.alloc::<u64>(sp.entries.len())?)
        }
        _ => None,
    };

    // Pixel positions for the slab (the `pixel_xyz` table).
    let mut pix = Vec::with_capacity(rows * n_cols * 3);
    for r in row0..row0 + rows {
        for c in 0..n_cols {
            let p = geom.detector.pixel_to_xyz_unchecked(r as f64, c as f64);
            pix.extend_from_slice(&[p.x, p.y, p.z]);
        }
    }
    let pixels = device.alloc::<f64>(pix.len())?;

    // Precomputed depth tables (the paper's `edge`/`gpuPointArray` design):
    // the slab's rows of the host table, NaN where no tangent exists. The
    // per-slab allocation happens only when the table is not resident.
    let (slab_table, host_flops) = match ctx.table_source {
        TableSource::Host { table, per_slab } => {
            let depths = table.rows(row0, rows);
            let buf = device.alloc::<f64>(depths.len())?;
            let flops = if per_slab {
                EdgeTable::build_flops(geom, rows)
            } else {
                0
            };
            (Some((buf, depths)), flops)
        }
        TableSource::None | TableSource::Resident(_) => (None, 0),
    };

    // Intensity and output: one buffer each, or under the pointer layout
    // (the "3D array" design) one per image and one per depth bin.
    let per_image = rows * n_cols;
    let (n_image_bufs, image_len, n_bin_bufs, bin_len) = match layout {
        Layout::Flat1d => (1, slab.len(), 1, cfg.n_depth_bins * per_image),
        Layout::Pointer3d => (n_images, per_image, cfg.n_depth_bins, per_image),
    };
    let alloc_all = |n: usize, len: usize| -> Result<Vec<DeviceBuffer<f64>>> {
        (0..n).map(|_| Ok(device.alloc(len)?)).collect()
    };
    let mut images = alloc_all(n_image_bufs, image_len)?;
    let mut bins = alloc_all(n_bin_bufs, bin_len)?;
    // Every f64 piece of the slab ships in one coalesced transaction.
    let mut batch: Vec<(&DeviceBuffer<f64>, &[f64])> = vec![(&pixels, &pix)];
    batch.extend(slab_table.iter().map(|(buf, depths)| (buf, *depths)));
    batch.extend(images.iter().zip(slab.chunks_exact(image_len)));
    let report = cfg.integrity.enabled().then_some(&mut *integrity);
    let mut ready_at = retry_transfer(device, stream, recovery, report, |checked| {
        device.memcpy_htod(stream, &batch, checked)
    })?
    .end_s;
    let buffers = match layout {
        Layout::Flat1d => SlabBuffers::Flat {
            intensity: images.swap_remove(0),
            output: bins.swap_remove(0),
        },
        Layout::Pointer3d => {
            // The pointer tables themselves ship in a second (u64)
            // transaction.
            let image_ptrs: Vec<u64> = images.iter().map(|b| b.device_addr()).collect();
            let bin_ptrs: Vec<u64> = bins.iter().map(|b| b.device_addr()).collect();
            let image_table = device.alloc::<u64>(image_ptrs.len())?;
            let bin_table = device.alloc::<u64>(bin_ptrs.len())?;
            let ptr_batch: [(&DeviceBuffer<u64>, &[u64]); 2] =
                [(&image_table, &image_ptrs), (&bin_table, &bin_ptrs)];
            let report = cfg.integrity.enabled().then_some(&mut *integrity);
            let span = retry_transfer(device, stream, recovery, report, |checked| {
                device.memcpy_htod(stream, &ptr_batch, checked)
            })?;
            ready_at = ready_at.max(span.end_s);
            SlabBuffers::Pointer {
                images,
                bins,
                _image_table: image_table,
                _bin_table: bin_table,
            }
        }
    };
    let depth_table = match (slab_table, &ctx.table_source) {
        (Some((buf, _)), _) => Some(DepthTableRef {
            buf,
            first_row: row0,
            n_steps: n_images,
        }),
        (None, TableSource::Resident(table)) => Some(table.clone()),
        (None, _) => None,
    };
    Ok(SlabUpload {
        buffers,
        pixels,
        depth_table,
        host_flops,
        rows,
        row0,
        ready_at,
        sparsity,
        compact,
        list_buf,
        counter_buf,
        accum,
    })
}

/// Launch the metered `prescan` kernel for one uploaded slab: one thread
/// per live pixel scans its live pairs' differentials, charging the column
/// reads and compare FLOPs, and — when the slab compacts — emits the
/// active-entry work-list and traces the below-cutoff pairs the main
/// kernel will never see. Returns `None` when every row was culled.
pub(crate) fn launch_prescan(
    device: &Device,
    stream: StreamId,
    upload: &SlabUpload,
    n_cols: usize,
) -> Result<Option<cuda_sim::LaunchRecord>> {
    let Some(sp) = &upload.sparsity else {
        return Ok(None);
    };
    if sp.live_rows.is_empty() {
        return Ok(None);
    }
    let total = (sp.live_rows.len() * n_cols) as u64;
    let kernel = |ctx: &mut cuda_sim::ThreadCtx<'_>| {
        let id = ctx.global_id().x as usize;
        if id as u64 >= total {
            return;
        }
        let r = sp.live_rows[id / n_cols] as usize;
        let c = id % n_cols;
        // The column scan reads each touched image once per pixel and does
        // a subtract-and-compare per live pair.
        ctx.charge_mem_bytes(PRESCAN_BYTES_PER_READ * sp.touched[r] as u64);
        ctx.charge_flops(PRESCAN_FLOPS_PER_PAIR * sp.live_pairs[r].len() as u64);
        if upload.compact {
            let pix = r * n_cols + c;
            for _ in 0..sp.below_per_pixel[pix] {
                ctx.trace(TRACE_BELOW_CUTOFF);
            }
            if let Some(list) = &upload.list_buf {
                for k in sp.offsets[pix] as usize..sp.offsets[pix + 1] as usize {
                    ctx.write(list, k, sp.entries[k]);
                }
            }
        }
        // Block leaders aggregate the per-block counts (the count phase is
        // paid whether or not the slab ends up compacting).
        if ctx.thread_idx.x == 0 {
            if let Some(counter) = &upload.counter_buf {
                ctx.atomic_add_u64(counter, 0, 1);
            }
        }
    };
    device
        .launch_on(
            stream,
            "prescan",
            LaunchConfig::linear(total, BLOCK_SIZE),
            kernel,
        )
        .map(Some)
        .map_err(CoreError::from)
}

/// The `set_two` launch domain, picked per slab from its sparsity plan.
enum LaunchShape<'a> {
    /// Full dense `(row, col, pair)` grid (no sparsity, or nothing culled
    /// and the density heuristic chose dense).
    Dense,
    /// Live `(row, pair)` combos × columns — culling bit but the slab is
    /// too dense to compact.
    Banded { combos: &'a [(u32, u32)] },
    /// One thread per work-list entry, read back from the device list the
    /// prescan emitted.
    Compact { list: &'a DeviceBuffer<u64> },
}

/// How the in-kernel `set_two` gets an above-cutoff pair's two edge
/// depths. Each launch is compiled for one implementation, so a kernel
/// without a table runs the code it ran before tables existed.
pub(crate) trait EdgeDepths: Copy + Sync {
    /// Plan the pair of steps `(z, z + 1)` at detector pixel `(row, col)`
    /// (`at`) from the pixel and wire centres the thread read and its two
    /// intensities, charging [`plan_pair`]'s FLOPs to `flops`.
    #[allow(clippy::too_many_arguments)]
    fn plan(
        self,
        mapper: &DepthMapper,
        cfg: &ReconstructionConfig,
        at: (usize, usize, usize),
        pixel: Vec3,
        w0: Vec3,
        w1: Vec3,
        i0: f64,
        i1: f64,
        flops: &mut u64,
    ) -> PairPlan;
}

/// Triangulate both edges of every pair in kernel ([`plan_pair`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Triangulate;

impl EdgeDepths for Triangulate {
    #[inline]
    fn plan(
        self,
        mapper: &DepthMapper,
        cfg: &ReconstructionConfig,
        _: (usize, usize, usize),
        pixel: Vec3,
        w0: Vec3,
        w1: Vec3,
        i0: f64,
        i1: f64,
        flops: &mut u64,
    ) -> PairPlan {
        plan_pair(mapper, cfg, pixel, w0, w1, i0, i1, flops)
    }
}

/// Read both edges from the table when the pixel and wire centres are its
/// inputs bit for bit ([`EdgeTable::pair_depths`]); triangulate what was
/// read otherwise. The charges are [`plan_pair`]'s either way.
impl EdgeDepths for &EdgeTable {
    #[inline]
    fn plan(
        self,
        mapper: &DepthMapper,
        cfg: &ReconstructionConfig,
        (row, col, z): (usize, usize, usize),
        pixel: Vec3,
        w0: Vec3,
        w1: Vec3,
        i0: f64,
        i1: f64,
        flops: &mut u64,
    ) -> PairPlan {
        plan_with_edges(cfg, i0, i1, flops, || {
            match self.pair_depths(row, col, z, pixel, w0, w1) {
                Some((d0, d1)) => (Some(d0), Some(d1)),
                None => (
                    mapper.depth(pixel, w0, cfg.wire_edge).ok(),
                    mapper.depth(pixel, w1, cfg.wire_edge).ok(),
                ),
            }
        })
    }
}

/// Launch the `set_two` kernel for one uploaded slab. Returns `None` when
/// the slab's launch domain is empty (every pair culled, or the compacted
/// work-list has no entries).
#[allow(clippy::too_many_arguments)]
pub(crate) fn launch_set_two<E: EdgeDepths>(
    device: &Device,
    stream: StreamId,
    upload: &SlabUpload,
    wires: &DeviceBuffer<f64>,
    edges: E,
    mapper: &DepthMapper,
    cfg: &ReconstructionConfig,
    n_images: usize,
    n_cols: usize,
    accum: AccumPlan,
) -> Result<Option<cuda_sim::LaunchRecord>> {
    let rows = upload.rows;
    let n_pairs = n_images - 1;
    let shape = match &upload.sparsity {
        None => LaunchShape::Dense,
        Some(sp) if upload.compact => {
            if sp.entries.is_empty() {
                return Ok(None);
            }
            LaunchShape::Compact {
                list: upload.list_buf.as_ref().expect("compact slab has a list"),
            }
        }
        Some(sp) if sp.culled_combos > 0 => {
            if sp.combos.is_empty() {
                return Ok(None);
            }
            LaunchShape::Banded { combos: &sp.combos }
        }
        Some(_) => LaunchShape::Dense,
    };
    let total = match &shape {
        LaunchShape::Dense => (rows * n_cols * n_pairs) as u64,
        LaunchShape::Banded { combos } => (combos.len() * n_cols) as u64,
        LaunchShape::Compact { .. } => {
            upload.sparsity.as_ref().map_or(0, |sp| sp.entries.len()) as u64
        }
    };
    let launch_cfg = LaunchConfig::linear(total, BLOCK_SIZE);
    // Everything up to the deposit itself is shared by both accumulation
    // strategies: charge the index arithmetic, fetch the inputs, and build
    // the pair's deposit plan.
    let eval_pair = |ctx: &mut cuda_sim::ThreadCtx<'_>, r: usize, c: usize, z: usize| -> PairPlan {
        eval_pair_body(
            ctx, upload, wires, edges, mapper, cfg, rows, n_cols, r, c, z,
        )
    };
    if let AccumPlan::Privatized { pixels_per_block } = accum {
        return launch_set_two_privatized(
            device,
            stream,
            upload,
            cfg,
            n_cols,
            n_pairs,
            &shape,
            pixels_per_block,
            &eval_pair,
        );
    }
    let kernel = |ctx: &mut cuda_sim::ThreadCtx<'_>| {
        let (r, c, z) = match &shape {
            LaunchShape::Dense => {
                let id = ctx.global_id().x as usize;
                if id as u64 >= total {
                    return;
                }
                // Pair index fastest: deposits into one pixel's bins
                // happen in step order, matching the CPU loop nest.
                let z = id % n_pairs;
                let pc = id / n_pairs;
                (pc / n_cols, pc % n_cols, z)
            }
            LaunchShape::Banded { combos } => {
                let id = ctx.global_id().x as usize;
                if id as u64 >= total {
                    return;
                }
                // Combos are (r, z)-sorted with columns innermost, so each
                // output cell still sees its deposits in ascending z.
                let (br, bz) = combos[id / n_cols];
                ctx.charge_mem_bytes(8); // combo descriptor fetch
                (br as usize, id % n_cols, bz as usize)
            }
            LaunchShape::Compact { list } => {
                let id = ctx.global_id().x as usize;
                if id as u64 >= total {
                    return;
                }
                // Entries were emitted in (r, c, z) order, so per-cell
                // deposit order matches the dense pair-fastest mapping.
                unpack_entry(ctx.read(list, id))
            }
        };
        match eval_pair(ctx, r, c, z) {
            PairPlan::BelowCutoff => ctx.trace(TRACE_BELOW_CUTOFF),
            PairPlan::InvalidGeometry => ctx.trace(TRACE_INVALID),
            PairPlan::OutOfRange => ctx.trace(TRACE_OUT_OF_RANGE),
            PairPlan::Deposit(plan) => {
                ctx.trace(TRACE_DEPOSITED);
                let pixel_in_slab = r * n_cols + c;
                for bin in plan.first_bin..plan.last_bin {
                    let amount = plan.amount(bin, cfg);
                    if amount != 0.0 {
                        match &upload.buffers {
                            SlabBuffers::Flat { output, .. } => {
                                ctx.atomic_add_f64(output, (bin * rows + r) * n_cols + c, amount);
                            }
                            SlabBuffers::Pointer { bins, .. } => {
                                ctx.charge_mem_bytes(8); // bin-pointer fetch
                                ctx.atomic_add_f64(&bins[bin], pixel_in_slab, amount);
                            }
                        }
                        ctx.trace(TRACE_DEPOSITS);
                    }
                }
            }
        }
    };
    device
        .launch_on(stream, "set_two", launch_cfg, kernel)
        .map(Some)
        .map_err(CoreError::from)
}

/// Shared per-`(row, col, pair)` evaluation: charge the index arithmetic,
/// fetch the pixel/wire/intensity (or depth-table) inputs, and build the
/// pair's deposit plan. Both accumulation strategies run exactly this —
/// they differ only in where the deposits land.
///
/// In-kernel triangulation plans an above-cutoff pair through `edges`.
#[allow(clippy::too_many_arguments)]
fn eval_pair_body<E: EdgeDepths>(
    ctx: &mut cuda_sim::ThreadCtx<'_>,
    upload: &SlabUpload,
    wires: &DeviceBuffer<f64>,
    edges: E,
    mapper: &DepthMapper,
    cfg: &ReconstructionConfig,
    rows: usize,
    n_cols: usize,
    r: usize,
    c: usize,
    z: usize,
) -> PairPlan {
    // The 1-D↔3-D index conversions the paper trades against pointer
    // shipping (§III-B).
    ctx.charge_flops(6);

    // In table mode the kernel never touches the pixel/wire arrays.
    let (pixel, w0, w1) = if upload.depth_table.is_none() {
        let pi = (r * n_cols + c) * 3;
        (
            Vec3::new(
                ctx.read(&upload.pixels, pi),
                ctx.read(&upload.pixels, pi + 1),
                ctx.read(&upload.pixels, pi + 2),
            ),
            Vec3::new(
                ctx.read(wires, z * 3),
                ctx.read(wires, z * 3 + 1),
                ctx.read(wires, z * 3 + 2),
            ),
            Vec3::new(
                ctx.read(wires, (z + 1) * 3),
                ctx.read(wires, (z + 1) * 3 + 1),
                ctx.read(wires, (z + 1) * 3 + 2),
            ),
        )
    } else {
        (Vec3::ZERO, Vec3::ZERO, Vec3::ZERO)
    };
    let pixel_in_slab = r * n_cols + c;
    let (i0, i1) = match &upload.buffers {
        SlabBuffers::Flat { intensity, .. } => (
            ctx.read(intensity, (z * rows + r) * n_cols + c),
            ctx.read(intensity, ((z + 1) * rows + r) * n_cols + c),
        ),
        SlabBuffers::Pointer { images, .. } => {
            // Pointer chase: fetch the row pointer, then the element.
            ctx.charge_mem_bytes(16);
            (
                ctx.read(&images[z], pixel_in_slab),
                ctx.read(&images[z + 1], pixel_in_slab),
            )
        }
    };

    let mut flops = 0u64;
    let plan = match &upload.depth_table {
        None => edges.plan(
            mapper,
            cfg,
            (upload.row0 + r, c, z),
            pixel,
            w0,
            w1,
            i0,
            i1,
            &mut flops,
        ),
        Some(table) => {
            // Table mode: the differential/cutoff logic is identical,
            // but the depths come from the precomputed array, where a
            // pixel's steps lie side by side.
            let delta = crate::pair::differential(cfg, i0, i1);
            flops += crate::pair::FLOPS_PER_PAIR;
            if delta.abs() <= cfg.intensity_cutoff {
                PairPlan::BelowCutoff
            } else {
                let i = ((upload.row0 + r - table.first_row) * n_cols + c) * table.n_steps + z;
                let (d0, d1) = (ctx.read(&table.buf, i), ctx.read(&table.buf, i + 1));
                crate::pair::plan_from_band(cfg, delta, d0, d1, &mut flops)
            }
        }
    };
    ctx.charge_flops(flops);
    plan
}

/// The privatized `set_two` launch: one thread per slab pixel walks that
/// pixel's pairs in ascending `z` — the same per-cell deposit order as the
/// atomic launch — into its own row of the block's shared depth-bin tile;
/// once the block drains, the epilogue commits each nonzero cell with a
/// single global add. Every output cell receives at most one commit into a
/// zeroed buffer, so the image is bit-identical to the atomic path
/// (`0.0 + x == x` bitwise; nonzero summands cannot round to `-0.0`).
#[allow(clippy::too_many_arguments)]
fn launch_set_two_privatized<F>(
    device: &Device,
    stream: StreamId,
    upload: &SlabUpload,
    cfg: &ReconstructionConfig,
    n_cols: usize,
    n_pairs: usize,
    shape: &LaunchShape<'_>,
    pixels_per_block: usize,
    eval_pair: &F,
) -> Result<Option<cuda_sim::LaunchRecord>>
where
    F: Fn(&mut cuda_sim::ThreadCtx<'_>, usize, usize, usize) -> PairPlan + Sync,
{
    let rows = upload.rows;
    let n_bins = cfg.n_depth_bins;
    let sp = upload.sparsity.as_ref();
    // Pixel domain per shape: banded slabs only visit live rows; compact
    // slabs visit every pixel but read only its CSR slice of the work-list.
    let n_pixels = match shape {
        LaunchShape::Banded { .. } => sp.map_or(0, |sp| sp.live_rows.len()) * n_cols,
        _ => rows * n_cols,
    } as u64;
    let pixel_rc = |pix: usize| -> (usize, usize) {
        match shape {
            LaunchShape::Banded { .. } => (
                sp.expect("banded shape has sparsity").live_rows[pix / n_cols] as usize,
                pix % n_cols,
            ),
            _ => (pix / n_cols, pix % n_cols),
        }
    };
    let deposit =
        |ctx: &mut cuda_sim::ThreadCtx<'_>, tile_row: &mut [f64], r: usize, c: usize, z: usize| {
            match eval_pair(ctx, r, c, z) {
                PairPlan::BelowCutoff => ctx.trace(TRACE_BELOW_CUTOFF),
                PairPlan::InvalidGeometry => ctx.trace(TRACE_INVALID),
                PairPlan::OutOfRange => ctx.trace(TRACE_OUT_OF_RANGE),
                PairPlan::Deposit(plan) => {
                    ctx.trace(TRACE_DEPOSITED);
                    let bins = plan.first_bin..plan.last_bin;
                    for (cell, bin) in tile_row[bins.clone()].iter_mut().zip(bins.start..) {
                        let amount = plan.amount(bin, cfg);
                        if amount != 0.0 {
                            // The thread owns its tile row, so this is a
                            // plain shared read-modify-write — no atomic.
                            ctx.charge_shared_bytes(16);
                            *cell += amount;
                            ctx.trace(TRACE_DEPOSITS);
                        }
                    }
                }
            }
        };
    let kernel = |ctx: &mut cuda_sim::ThreadCtx<'_>, shared: &mut [f64]| {
        let pix = ctx.global_id().x as usize;
        if pix as u64 >= n_pixels {
            return;
        }
        let slot = ctx.thread_idx.x as usize;
        let tile_row = &mut shared[slot * n_bins..(slot + 1) * n_bins];
        let (r, c) = pixel_rc(pix);
        match shape {
            LaunchShape::Dense => {
                for z in 0..n_pairs {
                    deposit(ctx, tile_row, r, c, z);
                }
            }
            LaunchShape::Banded { .. } => {
                let sp = sp.expect("banded shape has sparsity");
                for &z in &sp.live_pairs[r] {
                    ctx.charge_mem_bytes(8); // live-pair descriptor fetch
                    deposit(ctx, tile_row, r, c, z as usize);
                }
            }
            LaunchShape::Compact { list } => {
                let sp = sp.expect("compact shape has sparsity");
                ctx.charge_mem_bytes(8); // CSR offset fetch
                for k in sp.offsets[pix] as usize..sp.offsets[pix + 1] as usize {
                    // Entries are (r, c, z)-ordered, so this pixel's slice
                    // is already ascending in z.
                    let e = ctx.read(list, k);
                    deposit(ctx, tile_row, r, c, unpack_entry(e).2);
                }
            }
        }
    };
    let epilogue = |ctx: &mut cuda_sim::ThreadCtx<'_>, shared: &mut [f64]| {
        let block0 = (ctx.block_idx.x * ctx.block_dim.x) as usize;
        for slot in 0..pixels_per_block {
            let pix = block0 + slot;
            if pix as u64 >= n_pixels {
                break;
            }
            let (r, c) = pixel_rc(pix);
            let pixel_in_slab = r * n_cols + c;
            for (bin, &v) in shared[slot * n_bins..(slot + 1) * n_bins]
                .iter()
                .enumerate()
            {
                // The reduction scans every tile cell once…
                ctx.charge_shared_bytes(8);
                ctx.charge_flops(1);
                if v != 0.0 {
                    // …and commits each touched (pixel, bin) exactly once.
                    match &upload.buffers {
                        SlabBuffers::Flat { output, .. } => {
                            ctx.atomic_add_f64(output, (bin * rows + r) * n_cols + c, v);
                        }
                        SlabBuffers::Pointer { bins, .. } => {
                            ctx.charge_mem_bytes(8); // bin-pointer fetch
                            ctx.atomic_add_f64(&bins[bin], pixel_in_slab, v);
                        }
                    }
                }
            }
        }
    };
    device
        .launch_shared_on(
            stream,
            "set_two",
            LaunchConfig::linear(n_pixels, pixels_per_block as u64),
            pixels_per_block * n_bins,
            kernel,
            epilogue,
        )
        .map(Some)
        .map_err(CoreError::from)
}

/// Download one slab's output as its nonzero cells in slab layout,
/// `[(bin · rows + r) · n_cols + c]` (see [`crate::journal::CommittedSlab`]).
/// Also returns the virtual time when the last D2H copy completes (the ring
/// uses it as the slot-free edge for the next upload).
fn download_slab(
    ctx: &RingCtx<'_>,
    upload: &SlabUpload,
    recovery: &mut RecoveryLog,
    integrity: &mut IntegrityReport,
) -> Result<(NonzeroWords, f64)> {
    let (device, stream) = (ctx.device, ctx.download_stream);
    let mut download = |buf: &DeviceBuffer<f64>| {
        let report = ctx.cfg.integrity.enabled().then_some(&mut *integrity);
        retry_transfer(device, stream, recovery, report, |checked| {
            device.memcpy_dtoh(stream, buf, checked)
        })
    };
    match &upload.buffers {
        SlabBuffers::Flat { output, .. } => {
            let (slab, span) = download(output)?;
            Ok((slab, span.end_s))
        }
        // One D2H per bin: the 3D layout pays latency both ways. Each bin
        // buffer is exactly one bin plane of the slab layout.
        SlabBuffers::Pointer { bins, .. } => {
            let mut slab = NonzeroWords::zeros(0)?;
            let mut done_at = 0.0f64;
            for buf in bins {
                let (plane, span) = download(buf)?;
                slab.append(&plane)?;
                done_at = done_at.max(span.end_s);
            }
            Ok((slab, done_at))
        }
    }
}

/// One slab's share of the pair counters, combining its (optional) prescan
/// and main launches. Culled combos never launch a thread: their pairs are
/// provably out of the depth window, so they count as `pairs_out_of_range`
/// and one `culled_rows` per combo. Below-cutoff pairs the prescan dropped
/// before the main launch count as both `pairs_below_cutoff` and
/// `compacted_pairs`.
fn slab_stats(
    prescan: Option<&cuda_sim::LaunchRecord>,
    main: Option<&cuda_sim::LaunchRecord>,
    pairs_total: u64,
    culled_combos: u64,
    n_cols: usize,
) -> ReconStats {
    let t = |rec: Option<&cuda_sim::LaunchRecord>, slot: usize| rec.map_or(0, |r| r.traces[slot]);
    let compacted = t(prescan, TRACE_BELOW_CUTOFF);
    ReconStats {
        pairs_total,
        pairs_below_cutoff: compacted + t(main, TRACE_BELOW_CUTOFF),
        pairs_invalid_geometry: t(main, TRACE_INVALID),
        pairs_out_of_range: t(main, TRACE_OUT_OF_RANGE) + culled_combos * n_cols as u64,
        pairs_deposited: t(main, TRACE_DEPOSITED),
        deposits: t(main, TRACE_DEPOSITS),
        culled_rows: culled_combos,
        compacted_pairs: compacted,
        // Attribution to an accumulation strategy is a slab-level fact the
        // ring fills in after it resolves the plan.
        privatized_pairs: 0,
        accum_fallback_pairs: 0,
    }
}

/// Everything about the ring's environment that slab commit/scrub needs
/// but never mutates. Bundled so the recovery path can re-execute a slab
/// without threading a dozen arguments through every call.
pub(crate) struct RingCtx<'a> {
    device: &'a Device,
    upload_stream: StreamId,
    compute_stream: StreamId,
    download_stream: StreamId,
    geom: &'a ScanGeometry,
    mapper: &'a DepthMapper,
    cfg: &'a ReconstructionConfig,
    opts: GpuOptions,
    /// The call's edge table, which the in-kernel `set_two` reads and a
    /// host-table ring ships.
    edges: Option<&'a EdgeTable>,
    /// Where the kernel's depth table comes from.
    table_source: TableSource<'a>,
    /// The wire centres, shipped once per ring.
    wires: DeviceBuffer<f64>,
    /// The call's wire-shadow cull, present exactly when compaction is on.
    cull: Option<&'a ShadowCull>,
    n_images: usize,
    n_cols: usize,
    /// The host buffer each slab read of the ring lands in, so the ring
    /// holds one host slab however many it uploads and re-reads.
    slab: RefCell<Vec<f64>>,
}

/// Check the launches of one slab against their watchdog deadline: a
/// launch whose modeled duration exceeds
/// [`integrity::WATCHDOG_MULTIPLIER`] × the cost model's prediction for
/// its metered work is presumed hung (the injected stuck-kernel fault
/// stretches the duration while the metered cost stays honest). Returns
/// whether any launch tripped.
fn watchdog_check(
    ctx: &RingCtx<'_>,
    integrity: &mut IntegrityReport,
    launches: [Option<&cuda_sim::LaunchRecord>; 2],
) -> bool {
    if !ctx.cfg.integrity.enabled() {
        return false;
    }
    let mut tripped = false;
    for rec in launches.into_iter().flatten() {
        integrity.checks_run += 1;
        let predicted = ctx.device.props().kernel_time(&rec.cost);
        if rec.duration_s > integrity::WATCHDOG_MULTIPLIER * predicted {
            integrity.watchdog_timeouts += 1;
            tripped = true;
        }
    }
    tripped
}

/// One executed slab: the unit of work scrub recovery re-executes.
struct SlabExec {
    /// The upload (holding the slab's device buffers).
    upload: SlabUpload,
    stats: ReconStats,
    /// When the slab's last kernel retires (upload-ready time if no
    /// kernel launched).
    kernel_end: f64,
    /// Did a launch blow its watchdog deadline?
    suspect: bool,
    /// Did the main kernel actually launch (non-empty domain)?
    main_ran: bool,
}

/// Upload, launch, and stat one slab.
fn execute_slab(
    ctx: &RingCtx<'_>,
    source: &mut dyn SlabSource,
    row0: usize,
    rows: usize,
    recovery: &mut RecoveryLog,
    integrity: &mut IntegrityReport,
) -> Result<SlabExec> {
    let (device, wires) = (ctx.device, &ctx.wires);
    let upload = upload_slab(ctx, source, row0, rows, recovery, integrity)?;
    device.wait_until(ctx.compute_stream, upload.ready_at);
    let prescan = launch_prescan(device, ctx.compute_stream, &upload, ctx.n_cols)?;
    let main = match ctx.edges {
        Some(table) => launch_set_two(
            device,
            ctx.compute_stream,
            &upload,
            wires,
            table,
            ctx.mapper,
            ctx.cfg,
            ctx.n_images,
            ctx.n_cols,
            upload.accum,
        ),
        None => launch_set_two(
            device,
            ctx.compute_stream,
            &upload,
            wires,
            Triangulate,
            ctx.mapper,
            ctx.cfg,
            ctx.n_images,
            ctx.n_cols,
            upload.accum,
        ),
    }?;
    let pairs = (rows * ctx.n_cols * (ctx.n_images - 1)) as u64;
    let culled = upload.sparsity.as_ref().map_or(0, |sp| sp.culled_combos);
    let mut stats = slab_stats(prescan.as_ref(), main.as_ref(), pairs, culled, ctx.n_cols);
    if main.is_some() {
        match upload.accum {
            AccumPlan::Privatized { .. } => stats.privatized_pairs = stats.pairs_total,
            AccumPlan::Atomic { fallback: true } => stats.accum_fallback_pairs = stats.pairs_total,
            AccumPlan::Atomic { fallback: false } => {}
        }
    }
    let suspect = watchdog_check(ctx, integrity, [prescan.as_ref(), main.as_ref()]);
    // An all-culled or empty-list slab never launches: its output rows
    // stay zero and the slot frees at upload time.
    let kernel_end = main
        .as_ref()
        .map(|r| r.end_s)
        .or_else(|| prescan.as_ref().map(|r| r.end_s))
        .unwrap_or(upload.ready_at);
    Ok(SlabExec {
        upload,
        stats,
        kernel_end,
        suspect,
        main_ran: main.is_some(),
    })
}

/// Where the ring makes verified slabs final: the run's [`SlabProgress`],
/// its journal when one is attached, and the commit-time observer.
pub(crate) struct SlabCommit<'a> {
    pub(crate) progress: &'a mut SlabProgress,
    pub(crate) journal: Option<&'a mut RunJournal>,
    /// Sees `(row0, rows, at_s)` for every fresh commit, where `at_s` is
    /// the committing device's virtual elapsed time read *without*
    /// synchronizing — the cluster layer releases reduction segments into
    /// the interconnect at that edge. A `synchronize()` here would join
    /// stream cursors and perturb the ring schedule.
    pub(crate) on_commit: &'a mut dyn FnMut(usize, usize, f64),
}

impl SlabCommit<'_> {
    /// Commit the slab into progress — journalled before the ring moves on,
    /// see [`SlabProgress::commit`] — and report it.
    fn commit(
        &mut self,
        device: &Device,
        row0: usize,
        rows: usize,
        stats: &ReconStats,
        slab: &NonzeroWords,
    ) -> Result<()> {
        self.progress
            .commit(self.journal.as_deref_mut(), row0, rows, stats, slab)?;
        (self.on_commit)(row0, rows, device.elapsed_s());
        Ok(())
    }
}

/// Drain one ring slot: once the slab's kernel retires, download its
/// nonzero cells, verify them when integrity is on, recover per the
/// integrity mode when verification fails, then commit them. A condemned
/// slab never reaches the image. Returns the slot-free edge from
/// [`download_slab`].
///
/// Verification is the ABFT check: the host redundantly recomputes the
/// slab's per-bin sums with the dense CPU pair loop, on every host core
/// and without building its image ([`integrity::slab_reference`],
/// re-reading the intensities from the source — device-resident data is
/// not trusted), and compares them bit for bit with
/// [`integrity::bin_sums`] of the downloaded payload. A slab whose launch
/// tripped the watchdog is condemned even if its sums match. In `verify`
/// mode a condemned slab aborts the run; in `scrub` mode it is quarantined
/// (poison record), re-executed with bounded exponential backoff — each
/// retry re-rolls the fault dice, so one-shot corruption heals — and, when
/// the device corrupts persistently, repaired from the host reference,
/// whose dense payload ([`integrity::slab_donor`]) is computed only then.
fn commit_slab(
    ctx: &RingCtx<'_>,
    exec: SlabExec,
    source: &mut dyn SlabSource,
    recovery: &mut RecoveryLog,
    integrity: &mut IntegrityReport,
    out: &mut SlabCommit<'_>,
) -> Result<f64> {
    let (device, cfg) = (ctx.device, ctx.cfg);
    let SlabExec {
        upload,
        stats,
        kernel_end,
        suspect,
        ..
    } = exec;
    device.wait_until(ctx.download_stream, kernel_end);
    let (row0, rows) = (upload.row0, upload.rows);
    let (slab, mut freed_at) = download_slab(ctx, &upload, recovery, integrity)?;
    if !cfg.integrity.enabled() {
        out.commit(device, row0, rows, &stats, &slab)?;
        return Ok(freed_at);
    }

    // ABFT: redundant host recompute, charged to the overlapped host-CPU
    // resource so the planner's virtual-time model prices it.
    let reference = integrity::slab_reference(
        source,
        &mut ctx.slab.borrow_mut(),
        ctx.geom,
        ctx.mapper,
        cfg,
        row0,
        rows,
    )?;
    let host_t0 = device.host_flops_time_s();
    device.charge_host_flops(reference.host_flops);
    integrity.verify_host_cpu_s += device.host_flops_time_s() - host_t0;
    integrity.checks_run += 1;

    let verified = |slab: &NonzeroWords| {
        let observed = integrity::bin_sums(slab, cfg.n_depth_bins);
        integrity::sums_match(&observed, &reference.bin_sums)
    };
    let sums_ok = verified(&slab);
    if !sums_ok {
        integrity.abft_mismatches += 1;
    }
    if sums_ok && !suspect {
        out.commit(device, row0, rows, &stats, &slab)?;
        return Ok(freed_at);
    }

    // The slab is condemned: one corruption event, however many retries
    // the recovery below takes.
    integrity.corruptions_detected += 1;
    let what = if sums_ok {
        format!(
            "slab rows {row0}..{} blew its watchdog deadline (kernel presumed hung)",
            row0 + rows
        )
    } else {
        format!(
            "slab rows {row0}..{} failed ABFT depth-sum verification",
            row0 + rows
        )
    };
    if !cfg.integrity.repairs() {
        return Err(CoreError::IntegrityViolation(format!(
            "{what}; rerun with --integrity scrub to repair"
        )));
    }

    // Scrub: quarantine first (durable poison before any re-execution: a
    // crash between the poison and the re-commit must never resurrect
    // condemned rows on replay), then re-execute with bounded exponential
    // backoff. Drop the condemned upload so its device buffers are free for
    // the re-run.
    if let Some(j) = out.journal.as_deref_mut() {
        j.append_poison(row0, rows)?;
    }
    drop(upload);
    // Everything past this point is pure makespan extension: the clean
    // slab would have freed its slot at `freed_at`, so whatever later
    // edge the retries push it to is integrity-exposed time.
    let clean_freed_at = freed_at;
    let mut repaired = None;
    let mut backoff = integrity::SCRUB_BACKOFF_BASE_S;
    for _ in 0..integrity::MAX_SCRUB_RETRIES {
        integrity.scrub_retries += 1;
        device.delay(ctx.compute_stream, backoff);
        backoff *= 2.0;
        let retry = execute_slab(ctx, source, row0, rows, recovery, integrity)?;
        device.charge_host_flops(retry.upload.host_flops);
        device.wait_until(ctx.download_stream, retry.kernel_end);
        let (slab, done_at) = download_slab(ctx, &retry.upload, recovery, integrity)?;
        freed_at = done_at;
        integrity.checks_run += 1;
        if verified(&slab) && !retry.suspect {
            repaired = Some((retry.stats, slab));
            break;
        }
    }
    // A persistently corrupting device loses the slab to the host
    // reference's dense recompute (the very data the check trusted) — the
    // stats are trace-derived counts a deposit-value flip cannot touch, so
    // the condemned launch's counters remain valid.
    let (stats, slab) = match repaired {
        Some(done) => done,
        None => {
            integrity.cpu_fallback_slabs += 1;
            let donor = integrity::slab_donor(source, ctx.geom, ctx.mapper, cfg, row0, rows)?;
            (stats, donor)
        }
    };
    integrity.exposed_overhead_s += (freed_at - clean_freed_at).max(0.0);
    integrity.corruptions_corrected += 1;
    out.commit(device, row0, rows, &stats, &slab)?;
    Ok(freed_at)
}

pub(crate) fn validate_inputs(
    source: &dyn SlabSource,
    geom: &ScanGeometry,
    cfg: &ReconstructionConfig,
) -> Result<()> {
    cfg.validate()?;
    if source.n_images() != geom.wire.n_steps {
        return Err(CoreError::ShapeMismatch(format!(
            "source has {} images but the wire scan has {} steps",
            source.n_images(),
            geom.wire.n_steps
        )));
    }
    if source.n_rows() != geom.detector.n_rows || source.n_cols() != geom.detector.n_cols {
        return Err(CoreError::ShapeMismatch(format!(
            "source is {}×{} pixels but the detector is {}×{}",
            source.n_rows(),
            source.n_cols(),
            geom.detector.n_rows,
            geom.detector.n_cols
        )));
    }
    if source.n_images() < 2 {
        return Err(CoreError::ShapeMismatch("need at least two images".into()));
    }
    Ok(())
}

/// Reconstruct with the paper's single-stream pipeline: for each row slab,
/// copy in → `set_two` kernel → copy out (no overlap, like the original).
pub fn reconstruct(
    device: &Device,
    source: &mut dyn SlabSource,
    geom: &ScanGeometry,
    cfg: &ReconstructionConfig,
    layout: Layout,
) -> Result<GpuReconstruction> {
    reconstruct_with_options(
        device,
        source,
        geom,
        cfg,
        GpuOptions {
            layout,
            triangulation: Triangulation::InKernel,
        },
    )
}

/// As [`reconstruct`], with the full option set (layout × triangulation).
/// Runs the ring at `k = 1` (serial pipeline), with no depth-table cache
/// attached.
pub fn reconstruct_with_options(
    device: &Device,
    source: &mut dyn SlabSource,
    geom: &ScanGeometry,
    cfg: &ReconstructionConfig,
    opts: GpuOptions,
) -> Result<GpuReconstruction> {
    reconstruct_pipelined(device, source, geom, cfg, opts, PipelineDepth::SERIAL, None)
}

/// Resolve where the ring's kernel reads its depth table from. A
/// [`Triangulation::HostTables`] ring reads the call's edge table. With no
/// cache each slab ships and charges its rows. With a cache the full
/// detector's triangulation is charged on its key's miss only
/// ([`DepthTableCache::host_lookup`]), and — budget permitting — the table
/// is installed as (or found already) device-resident; this is where warm
/// runs win. Returns the source plus the host FLOPs charged up front.
fn resolve_table_source<'a>(
    ctx: &RingCtx<'a>,
    cache: Option<&DepthTableCache>,
    recovery: &mut RecoveryLog,
    integrity: &mut IntegrityReport,
    run: &mut TableCacheStats,
) -> Result<(TableSource<'a>, u64)> {
    let (device, upload_stream, geom, cfg) = (ctx.device, ctx.upload_stream, ctx.geom, ctx.cfg);
    if ctx.opts.triangulation != Triangulation::HostTables {
        return Ok((TableSource::None, 0));
    }
    let table = ctx.edges.expect("a host-table call resolves its table");
    let Some(cache) = cache else {
        let per_slab = true;
        return Ok((TableSource::Host { table, per_slab }, 0));
    };
    let key = TableKey::new(geom, cfg);
    let host_flops = if cache.host_lookup(&key, run) {
        0
    } else {
        EdgeTable::build_flops(geom, geom.detector.n_rows)
    };
    let resident = |buf| {
        let (first_row, n_steps) = (table.row0, table.n_steps);
        TableSource::Resident(DepthTableRef {
            buf,
            first_row,
            n_steps,
        })
    };
    if let Some(buf) = cache.lookup_device(device.id(), &key, run) {
        // Warm path: the table survived from an earlier run (device memory
        // persists across `reset_meters`), ready at virtual time 0.
        return Ok((resident(buf), host_flops));
    }
    let depths = &table.depths;
    if cache.evict_to_fit(device.id(), (depths.len() * 8) as u64, run) {
        let alloc = match device.alloc::<f64>(depths.len()) {
            Ok(buf) => Some(buf),
            Err(cuda_sim::SimError::OutOfMemory { .. }) => {
                // The card is fuller than the cache budget assumed; drop
                // everything we hold there and retry once.
                cache.evict_device(device.id(), run);
                device.alloc::<f64>(depths.len()).ok()
            }
            Err(e) => return Err(CoreError::Device(e)),
        };
        if let Some(buf) = alloc {
            let report = cfg.integrity.enabled().then_some(&mut *integrity);
            retry_transfer(device, upload_stream, recovery, report, |checked| {
                device.memcpy_htod(upload_stream, &[(&buf, depths)], checked)
            })?;
            cache.insert_device(device.id(), key, buf.clone(), run);
            return Ok((resident(buf), host_flops));
        }
    }
    // No residency (budget 0, table bigger than the budget, or the device
    // is simply full): the slabs ship their rows of the paid-for table.
    let per_slab = false;
    Ok((TableSource::Host { table, per_slab }, host_flops))
}

/// The k-deep ring: process the detector rows `band` on `device` under
/// `plan`'s options, ring depth and slab rows, committing each verified
/// slab through `out` as its download lands.
/// `edges` is the executor's edge table (see [`EdgeTable::resolve`]), which
/// the in-kernel `set_two` reads and a host-table ring ships. `cull` is the
/// executor's wire-shadow cull, covering `band`, present exactly when
/// compaction is on; the ring builds none itself but charges its band's
/// triangulations, as if it had.
///
/// Everything the ring learns besides the slabs goes straight into the
/// run's result `run` — recovery actions, table-cache counters and per-slab
/// flags as they happen, and, once the band is done, its host FLOPs, slab
/// size and ring depth — and its integrity counters into `integrity`, its
/// node's report. A ring whose device dies keeps what it counted so far.
///
/// Three streams — upload, compute, download — carry up to `plan.depth`
/// slab slots in flight. Each slab is chained by `wait_until` edges:
/// kernel-after-upload, download-after-kernel, and (once the ring is full)
/// next-upload-after-oldest-download, which is the slot-reuse edge that
/// bounds device memory at `plan.depth` slabs. `k = 1` degenerates to the
/// serial copy-in → kernel → copy-out pipeline, bit-identically.
///
/// Recovery keeps PR 1's contract: transient transfer faults retry with
/// exponential backoff inside [`retry_transfer`]; a device OOM drains every
/// in-flight slot, then halves `rows_per_slab` (dropping the ring depth to
/// 1 when slabs are already single-row) and re-runs the same rows. The
/// error surfaces only at one row × depth 1.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_ring(
    device: &Device,
    source: &mut dyn SlabSource,
    geom: &ScanGeometry,
    mapper: &DepthMapper,
    cfg: &ReconstructionConfig,
    plan: &Plan,
    cache: Option<&DepthTableCache>,
    edges: Option<&EdgeTable>,
    cull: Option<&ShadowCull>,
    band: Range<usize>,
    run: &mut GpuReconstruction,
    integrity: &mut IntegrityReport,
    mut out: SlabCommit<'_>,
) -> Result<()> {
    let opts = plan.options;
    let (n_images, n_cols) = (source.n_images(), source.n_cols());
    let upload_stream = device.create_stream();
    let compute_stream = device.create_stream();
    let download_stream = device.create_stream();

    // Wire centres, shipped once (interleaved x, y, z).
    let mut wire_flat = Vec::with_capacity(geom.wire.n_steps * 3);
    for w in geom.wire.centers() {
        wire_flat.extend_from_slice(&[w.x, w.y, w.z]);
    }
    let wires = device.alloc::<f64>(wire_flat.len())?;
    let report = cfg.integrity.enabled().then_some(&mut *integrity);
    retry_transfer(
        device,
        upload_stream,
        &mut run.recovery,
        report,
        |checked| device.memcpy_htod(upload_stream, &[(&wires, &wire_flat)], checked),
    )?;

    // Shared environment for slab execution and commit/scrub recovery,
    // once its table source is resolved.
    let mut ctx = RingCtx {
        device,
        upload_stream,
        compute_stream,
        download_stream,
        geom,
        mapper,
        cfg,
        opts,
        edges,
        table_source: TableSource::None,
        wires,
        cull,
        n_images,
        n_cols,
        slab: RefCell::new(Vec::new()),
    };
    let (table_source, mut host_table_flops) = resolve_table_source(
        &ctx,
        cache,
        &mut run.recovery,
        integrity,
        &mut run.table_cache,
    )?;
    ctx.table_source = table_source;
    // A resident table is not part of the per-slab working set: size slabs
    // as if triangulating in kernel (the budget below already excludes the
    // resident bytes via `mem_used`).
    let sizing_opts = match &ctx.table_source {
        TableSource::Resident(_) => GpuOptions {
            triangulation: Triangulation::InKernel,
            ..opts
        },
        _ => opts,
    };

    // Level-1 sparsity: the band's share of the cull's triangulations is
    // charged like the host-table path's, whoever built the table.
    if cull.is_some() {
        host_table_flops += EdgeTable::build_flops(geom, band.len());
    }

    let (mut rows_per_slab, mut slots) = plan_slabs(
        device.mem_capacity() - device.mem_used(),
        band.end - band.start,
        n_images,
        n_cols,
        cfg,
        sizing_opts,
        plan,
        out.journal.as_deref(),
    )?;

    // The ring proper: executed slabs (upload + kernel-end edge + stats +
    // watchdog verdict), oldest first.
    let mut ring: VecDeque<SlabExec> = VecDeque::with_capacity(slots);
    let mut row0 = band.start;
    while row0 < band.end {
        let rows = rows_per_slab.min(band.end - row0);
        let attempt = (|| -> Result<()> {
            if ring.len() == slots {
                // Free the oldest slot: download after its kernel, and gate
                // the upcoming upload on the download so the reused memory
                // is modeled as available only once the slot drains.
                let oldest = ring.pop_front().expect("ring is full");
                let freed_at =
                    commit_slab(&ctx, oldest, source, &mut run.recovery, integrity, &mut out)?;
                device.wait_until(upload_stream, freed_at);
            }
            let exec = execute_slab(&ctx, source, row0, rows, &mut run.recovery, integrity)?;
            host_table_flops += exec.upload.host_flops;
            run.slab_densities
                .extend(exec.upload.sparsity.as_ref().map(|sp| sp.density));
            // Flag the strategy the slab's main launch actually ran (an
            // empty launch domain ran neither; the accumulation strategy
            // itself is resolved per slab by `upload_slab`). Under forced
            // atomics there is nothing to flag.
            run.slab_privatized
                .extend(match (exec.main_ran, exec.upload.accum) {
                    (true, AccumPlan::Privatized { .. }) => Some(true),
                    _ => cfg.accumulation.wants_privatized().then_some(false),
                });
            ring.push_back(exec);
            Ok(())
        })();
        match attempt {
            Ok(()) => row0 += rows,
            Err(e @ CoreError::Device(cuda_sim::SimError::OutOfMemory { .. })) => {
                // Drain every in-flight slot (their kernels already ran and
                // their rows precede `row0`), freeing their memory, then
                // shrink the plan and re-run the same rows. Correctness is
                // chunking-invariant: downloads assign exactly their slab's
                // rows, so a smaller re-run overwrites cleanly.
                while let Some(oldest) = ring.pop_front() {
                    commit_slab(&ctx, oldest, source, &mut run.recovery, integrity, &mut out)?;
                }
                if rows_per_slab > 1 {
                    rows_per_slab /= 2;
                } else if slots > 1 {
                    slots = 1;
                } else {
                    return Err(e);
                }
                run.recovery.replans += 1;
            }
            Err(e) => return Err(e),
        }
    }
    // Drain the tail of the ring.
    while let Some(oldest) = ring.pop_front() {
        commit_slab(&ctx, oldest, source, &mut run.recovery, integrity, &mut out)?;
    }

    if let Some(cache) = cache {
        let resident = &mut run.table_cache.resident_bytes;
        *resident = (*resident).max(cache.resident_bytes(device.id()));
    }
    // Charge the band's triangulation FLOPs to the host-CPU resource: the
    // work becomes visible (and contended, when several devices share a
    // host) on the host timeline without stalling any device stream.
    device.charge_host_flops(host_table_flops);
    run.host_table_flops += host_table_flops;
    run.rows_per_slab = run.rows_per_slab.max(rows_per_slab);
    run.pipeline_depth = run.pipeline_depth.min(slots);
    Ok(())
}

/// Reconstruct with the k-deep transfer/compute ring and, optionally, a
/// persistent depth-table cache: the one executor, fresh, unjournalled and
/// unbounded ([`crate::cluster::reconstruct_cluster`]), on the 1×1
/// [`Plan::fixed`] of `opts` and `depth`, as
/// [`crate::multi::reconstruct_multi`] is a 1×M one.
///
/// `depth` is the ring depth. The cache holds the geometry's edge table
/// that every mode reads, the wire-shadow cull when compaction is on, and
/// in [`Triangulation::HostTables`] mode the host and device table
/// accounting.
pub fn reconstruct_pipelined(
    device: &Device,
    source: &mut dyn SlabSource,
    geom: &ScanGeometry,
    cfg: &ReconstructionConfig,
    opts: GpuOptions,
    depth: PipelineDepth,
    cache: Option<&DepthTableCache>,
) -> Result<GpuReconstruction> {
    let net = Interconnect::new("chassis", 1, InterconnectProps::ib_qdr());
    let plan = Plan::fixed(1, 1, opts, depth, cfg, Pins::default());
    crate::cluster::reconstruct_cluster(&[vec![device]], &net, source, geom, cfg, plan, cache)
}

/// The single-GPU checkpointed step: checkpoint-aware and bounded — the
/// preemption quantum the serve scheduler runs long jobs in. It is a
/// one-node, one-device call of the one executor,
/// [`crate::cluster::reconstruct_cluster_checkpointed`], on the 1×1
/// [`Plan::fixed`] of `opts` and `depth`, with `max_rows` as its row
/// budget: the run starts from `progress` (fresh, or replayed
/// from a [`RunJournal`]) and processes at most `max_rows` of the rows not
/// yet committed. Each slab commit is appended to `journal` (when given)
/// *before* the ring moves on, so after any interruption the journal plus
/// `progress` hold every completed slab; on error, `progress` retains all
/// committed state.
///
/// The second return value is `true` when the whole detector is now
/// committed, and the image then moves out of `progress` into the result.
/// `false` means the job was paused at a slab boundary: the result's image
/// is empty, the partial image stays in `progress`, and the job can be
/// resumed — on this device or any other — by calling again with the same
/// `progress`/`journal` (chunking invariance makes the eventual output
/// bit-identical no matter where the quantum cuts fell or which device ran
/// which quantum).
#[allow(clippy::too_many_arguments)]
pub fn reconstruct_checkpointed_bounded(
    device: &Device,
    source: &mut dyn SlabSource,
    geom: &ScanGeometry,
    cfg: &ReconstructionConfig,
    opts: GpuOptions,
    depth: PipelineDepth,
    cache: Option<&DepthTableCache>,
    progress: &mut SlabProgress,
    journal: Option<&mut RunJournal>,
    max_rows: usize,
) -> Result<(GpuReconstruction, bool)> {
    let net = Interconnect::new("chassis", 1, InterconnectProps::ib_qdr());
    let out = crate::cluster::reconstruct_cluster_checkpointed(
        &[vec![device]],
        &net,
        source,
        geom,
        cfg,
        Plan::fixed(1, 1, opts, depth, cfg, Pins::default()),
        cache,
        progress,
        journal,
        max_rows,
    )?;
    Ok((out, progress.is_complete(0..source.n_rows())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu;
    use crate::input::{InMemorySlabSource, ScanView};
    use cuda_sim::DeviceProps;

    fn demo() -> (ScanGeometry, ReconstructionConfig, Vec<f64>) {
        let geom = ScanGeometry::demo(6, 6, 10, -60.0, 6.0).unwrap();
        let cfg = ReconstructionConfig::new(-400.0, 400.0, 40);
        let (p, m, n) = (10, 6, 6);
        let data: Vec<f64> = (0..p * m * n)
            .map(|i| {
                let z = i / (m * n);
                let px = i % (m * n);
                900.0 - 31.0 * z as f64 - (px % 5) as f64 * 17.0
            })
            .collect();
        (geom, cfg, data)
    }

    fn big_device() -> Device {
        Device::new(DeviceProps::tiny(64 * 1024 * 1024))
    }

    #[test]
    fn gpu_matches_cpu_bitwise_when_sequential() {
        let (geom, cfg, data) = demo();
        let view = ScanView::new(&data, 10, 6, 6).unwrap();
        let cpu_out = cpu::reconstruct_seq(&view, &geom, &cfg).unwrap();
        let device = big_device();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
        let gpu_out = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
        assert_eq!(
            cpu_out.image.data, gpu_out.image.data,
            "sequential executor must reproduce the CPU bit-for-bit"
        );
        assert_eq!(cpu_out.stats, gpu_out.stats);
    }

    #[test]
    fn verify_accepts_a_clean_payload_bitwise_under_both_layouts() {
        // The observed ABFT sums (`integrity::bin_sums` over the downloaded
        // cells) equal the image-free host reference's bit for bit, so a
        // clean run passes every per-slab check and commits the unverified
        // run's image, whichever layout downloaded.
        let (geom, cfg, data) = demo();
        let verify = ReconstructionConfig {
            integrity: crate::config::IntegrityMode::Verify,
            rows_per_slab: Some(2),
            ..cfg.clone()
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for layout in [Layout::Flat1d, Layout::Pointer3d] {
            let device = big_device();
            let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
            let off = reconstruct(&device, &mut source, &geom, &cfg, layout).unwrap();
            let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
            let on = reconstruct(&device, &mut source, &geom, &verify, layout).unwrap();
            assert_eq!(bits(&on.image.data), bits(&off.image.data), "{layout:?}");
            assert_eq!(on.integrity.abft_mismatches, 0, "{layout:?}");
            assert_eq!(on.integrity.corruptions_detected, 0, "{layout:?}");
            assert!(on.integrity.checks_run >= 3, "{:?}", on.integrity);
        }
    }

    /// A source that records the buffer each read lands in: its capacity
    /// before the read and its address after.
    struct OneBuffer {
        inner: InMemorySlabSource,
        reads: Vec<(usize, usize)>,
    }

    impl SlabSource for OneBuffer {
        fn n_images(&self) -> usize {
            self.inner.n_images()
        }

        fn n_rows(&self) -> usize {
            self.inner.n_rows()
        }

        fn n_cols(&self) -> usize {
            self.inner.n_cols()
        }

        fn read_slab(&mut self, _: usize, _: usize) -> Result<Vec<f64>> {
            panic!("a ring reads into its buffer")
        }

        fn read_slab_into(&mut self, row0: usize, rows: usize, slab: &mut Vec<f64>) -> Result<()> {
            let capacity = slab.capacity();
            let read = self.inner.read_slab(row0, rows)?;
            slab.clear();
            slab.extend_from_slice(&read);
            self.reads.push((capacity, slab.as_ptr() as usize));
            Ok(())
        }
    }

    #[test]
    fn a_ring_reads_its_slabs_and_their_references_into_one_buffer() {
        // Three 2-row slabs under `verify`: each upload and each ABFT
        // re-read lands in the buffer the first read grew.
        let (geom, cfg, data) = demo();
        let verify = ReconstructionConfig {
            integrity: crate::config::IntegrityMode::Verify,
            rows_per_slab: Some(2),
            ..cfg
        };
        let mut source = OneBuffer {
            inner: InMemorySlabSource::new(data, 10, 6, 6).unwrap(),
            reads: Vec::new(),
        };
        let out = reconstruct(&big_device(), &mut source, &geom, &verify, Layout::Flat1d).unwrap();
        assert_eq!(out.integrity.abft_mismatches, 0);
        assert_eq!(source.reads.len(), 6, "three uploads, three re-reads");
        let (_, first) = source.reads[0];
        for &(capacity, addr) in &source.reads[1..] {
            assert!(
                capacity >= 10 * 2 * 6 && addr == first,
                "{:?}",
                source.reads
            );
        }
    }

    #[test]
    fn pointer_layout_same_result_more_transfers() {
        let (geom, cfg, data) = demo();
        let device = big_device();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
        let flat = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
        let mut source = InMemorySlabSource::new(data, 10, 6, 6).unwrap();
        let ptr = reconstruct(&device, &mut source, &geom, &cfg, Layout::Pointer3d).unwrap();
        assert_eq!(
            flat.image.data, ptr.image.data,
            "layouts agree functionally"
        );
        assert!(
            ptr.meters.transfers > flat.meters.transfers,
            "pointer layout must pay more transfers: {} vs {}",
            ptr.meters.transfers,
            flat.meters.transfers
        );
        assert!(
            ptr.meters.comm_time_s > flat.meters.comm_time_s,
            "and more communication time"
        );
        assert!(
            ptr.elapsed_s > flat.elapsed_s,
            "Fig 4: 1D beats 3D end to end"
        );
    }

    #[test]
    fn chunking_is_invariant() {
        let (geom, cfg, data) = demo();
        let device = big_device();
        let mut reference = None;
        for rows in [1usize, 2, 3, 6] {
            let mut cfg = cfg.clone();
            cfg.rows_per_slab = Some(rows);
            let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
            let out = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
            assert_eq!(out.n_slabs, 6usize.div_ceil(rows));
            match &reference {
                None => reference = Some(out.image.data),
                Some(r) => assert_eq!(r, &out.image.data, "rows_per_slab = {rows}"),
            }
        }
    }

    #[test]
    fn memory_cap_forces_small_slabs() {
        let (geom, cfg, data) = demo();
        // Budget only fits ~2 rows: intensity 10 img × 6 cols × 8 B = 480 B
        // per row, output 40 bins × 48 B per row...
        let need_1 = slab_bytes(1, 10, 6, 40, GpuOptions::default(), 1, CompactionMode::Off);
        let device = Device::new(DeviceProps::tiny(3 * need_1));
        let mut source = InMemorySlabSource::new(data, 10, 6, 6).unwrap();
        let out = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
        assert!(
            out.rows_per_slab < 6,
            "cap must force chunking: {} rows/slab",
            out.rows_per_slab
        );
        assert!(out.n_slabs >= 2);
        assert!(out.peak_device_mem <= device.mem_capacity());
    }

    #[test]
    fn device_too_small_is_a_clean_error() {
        let (geom, cfg, data) = demo();
        let device = Device::new(DeviceProps::tiny(2048));
        let mut source = InMemorySlabSource::new(data, 10, 6, 6).unwrap();
        match reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d) {
            Err(e @ CoreError::DeviceCapacity { needed, budget }) => {
                assert!(needed > budget, "{needed} must exceed {budget}");
                assert!(e.to_string().contains("detector row"));
            }
            other => panic!("expected clean OOM-at-fit error, got {other:?}"),
        }
    }

    #[test]
    fn injected_oom_replans_to_identical_output() {
        let (geom, cfg, data) = demo();
        let device = big_device();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
        let clean = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
        assert_eq!(
            clean.recovery,
            RecoveryLog::default(),
            "no faults, no recovery"
        );
        assert_eq!(clean.n_slabs, 1, "everything fits in one slab");

        // Fail an allocation mid-run: the engine halves the slab plan and
        // re-runs the same rows, converging to the identical image.
        let device = big_device();
        device.set_fault_plan(cuda_sim::FaultPlan::new(1).fail_nth_alloc(3));
        let mut source = InMemorySlabSource::new(data, 10, 6, 6).unwrap();
        let out = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
        assert!(out.recovery.replans >= 1, "OOM must trigger a re-plan");
        assert!(out.rows_per_slab < clean.rows_per_slab);
        assert!(out.n_slabs > clean.n_slabs);
        assert_eq!(
            out.image.data, clean.image.data,
            "re-planned run is bitwise identical"
        );
        assert_eq!(out.stats, clean.stats);
    }

    #[test]
    fn transient_transfer_faults_are_retried_to_identical_output() {
        let (geom, cfg, data) = demo();
        let device = big_device();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
        let clean = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();

        let device = big_device();
        // Seed chosen so the keyed dice never fail 4 consecutive ordinals
        // (which would exhaust the retry budget — by design).
        device.set_fault_plan(
            cuda_sim::FaultPlan::new(14)
                .fail_nth_h2d(2)
                .fail_nth_d2h(1)
                .h2d_fault_rate(0.3)
                .d2h_fault_rate(0.3),
        );
        let mut source = InMemorySlabSource::new(data, 10, 6, 6).unwrap();
        let out = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
        assert!(
            out.recovery.transfer_retries > 0,
            "p = 0.3 over many copies must fire"
        );
        assert_eq!(out.recovery.replans, 0);
        assert_eq!(
            out.image.data, clean.image.data,
            "retries leave the data intact"
        );
        assert_eq!(out.stats, clean.stats);
        assert!(
            out.elapsed_s > clean.elapsed_s,
            "failed copies and backoff cost virtual time"
        );
    }

    #[test]
    fn first_allocation_failure_replans_and_completes() {
        // The acceptance scenario: "fail the first device allocation" must
        // still complete via re-planning when more than one row is planned.
        let (geom, cfg, data) = demo();
        let device = big_device();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
        let clean = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();

        let device = big_device();
        // Allocation #1 is the wire table — before any slab exists; that
        // failure is not recoverable by slab re-planning, so script #2 (the
        // first slab allocation) as "the first allocation" of slab data.
        device.set_fault_plan(cuda_sim::FaultPlan::new(0).fail_nth_alloc(2));
        let mut source = InMemorySlabSource::new(data, 10, 6, 6).unwrap();
        let out = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
        assert!(out.recovery.replans >= 1);
        assert_eq!(out.image.data, clean.image.data);
    }

    #[test]
    fn unrecoverable_oom_still_errors_at_one_row() {
        // When the plan is already a single row, a persistent OOM cannot be
        // re-planned away and must surface.
        let (geom, mut cfg, data) = demo();
        cfg.rows_per_slab = Some(1);
        let device = big_device();
        device.set_fault_plan(
            cuda_sim::FaultPlan::new(0).report_mem_bytes(2048), // nothing fits
        );
        let mut source = InMemorySlabSource::new(data, 10, 6, 6).unwrap();
        match reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d) {
            Err(CoreError::Device(cuda_sim::SimError::OutOfMemory { .. })) => {}
            other => panic!("expected OOM passthrough, got {other:?}"),
        }
    }

    #[test]
    fn lost_device_error_propagates() {
        let (geom, cfg, data) = demo();
        let device = big_device();
        device.set_fault_plan(cuda_sim::FaultPlan::new(0).fail_after(4));
        let mut source = InMemorySlabSource::new(data, 10, 6, 6).unwrap();
        match reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d) {
            Err(e @ CoreError::Device(cuda_sim::SimError::DeviceLost)) => {
                assert!(e.is_gpu_failure());
            }
            other => panic!("expected DeviceLost, got {other:?}"),
        }
    }

    #[test]
    fn capacity_lie_shrinks_the_plan_but_not_the_answer() {
        let (geom, cfg, data) = demo();
        let device = big_device();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
        let clean = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();

        let device = big_device();
        let need_2 = slab_bytes(2, 10, 6, 40, GpuOptions::default(), 1, CompactionMode::Off);
        device.set_fault_plan(cuda_sim::FaultPlan::new(0).report_mem_bytes(2 * need_2));
        let mut source = InMemorySlabSource::new(data, 10, 6, 6).unwrap();
        let out = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
        assert!(
            out.rows_per_slab < clean.rows_per_slab,
            "planner saw the smaller card"
        );
        assert!(out.n_slabs > clean.n_slabs);
        assert_eq!(out.image.data, clean.image.data);
        assert_eq!(
            out.recovery.replans, 0,
            "planned small up front, no retrofit needed"
        );
    }

    /// Run `data` on `device` through a ring `depth` slots deep.
    fn ring(
        device: &Device,
        data: &[f64],
        geom: &ScanGeometry,
        cfg: &ReconstructionConfig,
        depth: usize,
    ) -> GpuReconstruction {
        let mut source = InMemorySlabSource::new(data.to_vec(), 10, 6, 6).unwrap();
        let opts = GpuOptions::default();
        reconstruct_pipelined(
            device,
            &mut source,
            geom,
            cfg,
            opts,
            PipelineDepth(depth),
            None,
        )
        .unwrap()
    }

    #[test]
    fn ring_pipeline_retries_transfers() {
        let (geom, mut cfg, data) = demo();
        cfg.rows_per_slab = Some(2);
        let clean = ring(&big_device(), &data, &geom, &cfg, 3);
        assert_eq!(clean.pipeline_depth, 3);

        let device = big_device();
        // Seed chosen so the keyed dice never fail 4 consecutive ordinals.
        device.set_fault_plan(
            cuda_sim::FaultPlan::new(0)
                .fail_nth_h2d(3)
                .h2d_fault_rate(0.25),
        );
        let out = ring(&device, &data, &geom, &cfg, 3);
        assert!(out.recovery.transfer_retries > 0);
        assert_eq!(out.image.data, clean.image.data);
    }

    #[test]
    fn threaded_executor_matches_bit_for_bit() {
        let (geom, cfg, data) = demo();
        let view = ScanView::new(&data, 10, 6, 6).unwrap();
        let cpu_out = cpu::reconstruct_seq(&view, &geom, &cfg).unwrap();
        let bits = |data: &[f64]| data.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        for workers in [1usize, 4] {
            let device = big_device();
            device.force_workers(workers);
            let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
            let gpu_out = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
            assert_eq!(
                bits(&cpu_out.image.data),
                bits(&gpu_out.image.data),
                "{workers} workers"
            );
            assert_eq!(cpu_out.stats, gpu_out.stats);
        }
    }

    #[test]
    fn deeper_rings_shorten_the_makespan() {
        let (geom, mut cfg, data) = demo();
        cfg.rows_per_slab = Some(1); // many slabs → pipelining matters
        let device = big_device();
        let run_depth = |k: usize| ring(&device, &data, &geom, &cfg, k);
        let serial = run_depth(1);
        let double = run_depth(2);
        let triple = run_depth(3);
        assert_eq!(serial.image.data, double.image.data);
        assert_eq!(serial.image.data, triple.image.data);
        assert_eq!(serial.stats, double.stats);
        assert!(
            double.elapsed_s < serial.elapsed_s,
            "double buffering must shorten the makespan: {} vs {}",
            double.elapsed_s,
            serial.elapsed_s
        );
        assert!(
            triple.elapsed_s <= double.elapsed_s + 1e-12,
            "k = 3 must not be slower than k = 2: {} vs {}",
            triple.elapsed_s,
            double.elapsed_s
        );
        // The serial ring is exactly the unoverlapped pipeline.
        assert!(
            (serial.elapsed_s - serial.meters.serial_total_s()).abs() < 1e-12,
            "k = 1 has no overlap"
        );
    }

    #[test]
    fn ring_survives_injected_oom_mid_flight() {
        // OOM while slots are in flight: the ring must drain, halve the
        // plan, and still converge bit-identically.
        let (geom, cfg, data) = demo();
        let clean = ring(&big_device(), &data, &geom, &cfg, 3);

        let device = big_device();
        device.set_fault_plan(cuda_sim::FaultPlan::new(1).fail_nth_alloc(3));
        let out = ring(&device, &data, &geom, &cfg, 3);
        assert!(out.recovery.replans >= 1, "OOM must trigger a re-plan");
        assert_eq!(out.image.data, clean.image.data);
        assert_eq!(out.stats, clean.stats);
    }

    #[test]
    fn ring_depth_degrades_to_serial_when_memory_is_tight() {
        // A card that fits exactly one single-slot slab: requesting k = 4
        // must degrade the ring rather than error.
        let (geom, cfg, data) = demo();
        let need_1 = slab_bytes(1, 10, 6, 40, GpuOptions::default(), 1, CompactionMode::Off);
        // Headroom: the planner reserves 10 % + the wire table.
        let device = Device::new(DeviceProps::tiny(2 * need_1));
        let out = ring(&device, &data, &geom, &cfg, 4);
        assert!(
            out.pipeline_depth < 4,
            "requested depth cannot fit: {}",
            out.pipeline_depth
        );
        let view = ScanView::new(&data, 10, 6, 6).unwrap();
        let cpu_out = cpu::reconstruct_seq(&view, &geom, &cfg).unwrap();
        assert_eq!(out.image.data, cpu_out.image.data);
    }

    #[test]
    fn a_flipped_pixel_upload_changes_a_warm_run_exactly_as_a_cold_one() {
        // Integrity off, in-kernel triangulation. The run's second H2D copy
        // is the first slab's batch, pixel table first; the flip moves one
        // pixel of the slab's second row, whose band lies in the window. The warm
        // run holds the geometry's edge table, the cacheless one none: the
        // kernel must triangulate the pixel it read either way.
        let (geom, mut cfg, data) = demo();
        cfg.rows_per_slab = Some(2);
        let run = |flip: bool, cache: Option<&DepthTableCache>| {
            let device = big_device();
            if flip {
                // Pixel (1, 4)'s height: bit 47 moves it by 512 µm.
                let byte = (3 * (6 + 4) + 1) * 8 + 5;
                device.set_fault_plan(
                    cuda_sim::FaultPlan::new(1)
                        .flip_nth_h2d(2)
                        .flip_byte_offset(byte),
                );
            }
            let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
            let opts = GpuOptions::default();
            let out = reconstruct_pipelined(
                &device,
                &mut source,
                &geom,
                &cfg,
                opts,
                PipelineDepth::DEFAULT,
                cache,
            )
            .unwrap();
            let flipped = device.fault_stats().map_or(0, |f| f.h2d_flipped);
            assert_eq!(flipped, u64::from(flip));
            out
        };
        let cache = DepthTableCache::new(0);
        let clean = run(false, Some(&cache));
        let key = TableKey::edges(&geom, cfg.wire_edge);
        let table = cache.edge_table(&key, || panic!("the clean run built the table"));
        let warm = run(true, Some(&cache));
        let cold = run(true, None);
        let still = cache.edge_table(&key, || panic!("the table stays cached"));
        assert!(std::sync::Arc::ptr_eq(&table, &still));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&warm.image.data), bits(&cold.image.data));
        assert_eq!(warm.stats, cold.stats);
        assert_eq!(warm.meters.kernel_cost, cold.meters.kernel_cost);
        assert_ne!(bits(&warm.image.data), bits(&clean.image.data));
    }

    #[test]
    fn a_gpu_tables_run_and_an_in_kernel_run_share_one_host_table() {
        let (geom, cfg, data) = demo();
        let cache = DepthTableCache::new(16 * 1024 * 1024);
        let run = |triangulation| {
            let device = big_device();
            let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
            let opts = GpuOptions {
                layout: Layout::Flat1d,
                triangulation,
            };
            let depth = PipelineDepth::DEFAULT;
            reconstruct_pipelined(&device, &mut source, &geom, &cfg, opts, depth, Some(&cache))
                .unwrap()
        };
        let tables = run(Triangulation::HostTables);
        assert_eq!(tables.table_cache.host_misses, 1);
        assert_eq!(tables.host_table_flops, EdgeTable::build_flops(&geom, 6));
        let key = TableKey::edges(&geom, cfg.wire_edge);
        let table = cache.edge_table(&key, || panic!("the gpu-tables run keeps the table"));
        let in_kernel = run(Triangulation::InKernel);
        let still = cache.edge_table(&key, || panic!("the table stays cached"));
        assert!(
            std::sync::Arc::ptr_eq(&table, &still),
            "one table, read twice"
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&tables.image.data), bits(&in_kernel.image.data));
        assert_eq!(tables.stats, in_kernel.stats);
    }

    #[test]
    fn cached_tables_are_bit_identical_and_save_work() {
        let (geom, cfg, data) = demo();
        let opts = GpuOptions {
            layout: Layout::Flat1d,
            triangulation: Triangulation::HostTables,
        };
        let device = big_device();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
        let fresh = reconstruct_with_options(&device, &mut source, &geom, &cfg, opts).unwrap();
        let full = EdgeTable::build_flops(&geom, 6);
        assert_eq!(
            fresh.host_table_flops, full,
            "uncached slabs pay their rows"
        );

        let cache = crate::cache::DepthTableCache::new(16 * 1024 * 1024);
        let device = big_device();
        let run = |device: &Device| {
            let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
            reconstruct_pipelined(
                device,
                &mut source,
                &geom,
                &cfg,
                opts,
                PipelineDepth::SERIAL,
                Some(&cache),
            )
            .unwrap()
        };
        let cold = run(&device);
        assert_eq!(cold.image.data, fresh.image.data, "cache changes nothing");
        assert_eq!(cold.stats, fresh.stats);
        assert_eq!(cold.table_cache.host_misses, 1);
        assert_eq!(cold.table_cache.device_misses, 1);
        assert_eq!(
            cold.host_table_flops, full,
            "cold run pays the triangulation"
        );

        let warm = run(&device);
        assert_eq!(warm.image.data, fresh.image.data, "warm run bit-identical");
        assert_eq!(warm.stats, fresh.stats);
        assert_eq!(warm.table_cache.host_hits, 1);
        assert_eq!(warm.table_cache.device_hits, 1);
        assert_eq!(warm.host_table_flops, 0, "warm run skips the host FLOPs");
        assert!(
            warm.meters.h2d_bytes < cold.meters.h2d_bytes,
            "resident table is not re-uploaded: {} vs {}",
            warm.meters.h2d_bytes,
            cold.meters.h2d_bytes
        );
        assert!(
            warm.elapsed_s < cold.elapsed_s,
            "warm run is faster in virtual time: {} vs {}",
            warm.elapsed_s,
            cold.elapsed_s
        );
    }

    #[test]
    fn cache_without_residency_budget_still_saves_host_flops() {
        let (geom, cfg, data) = demo();
        let opts = GpuOptions {
            layout: Layout::Flat1d,
            triangulation: Triangulation::HostTables,
        };
        let cache = crate::cache::DepthTableCache::new(0); // no residency
        let device = big_device();
        let run = || {
            let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
            reconstruct_pipelined(
                &device,
                &mut source,
                &geom,
                &cfg,
                opts,
                PipelineDepth::SERIAL,
                Some(&cache),
            )
            .unwrap()
        };
        let cold = run();
        let warm = run();
        assert_eq!(cold.image.data, warm.image.data);
        assert_eq!(cold.host_table_flops, EdgeTable::build_flops(&geom, 6));
        assert_eq!(
            warm.table_cache.device_hits, 0,
            "budget 0 disables residency"
        );
        assert_eq!(warm.table_cache.host_hits, 1);
        assert_eq!(warm.host_table_flops, 0);
        assert_eq!(
            warm.meters.h2d_bytes, cold.meters.h2d_bytes,
            "tables still ship per slab"
        );
    }

    #[test]
    fn host_tables_match_in_kernel_bitwise() {
        let (geom, cfg, data) = demo();
        let device = big_device();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
        let in_kernel = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
        let mut source = InMemorySlabSource::new(data, 10, 6, 6).unwrap();
        let tables = reconstruct_with_options(
            &device,
            &mut source,
            &geom,
            &cfg,
            GpuOptions {
                layout: Layout::Flat1d,
                triangulation: Triangulation::HostTables,
            },
        )
        .unwrap();
        assert_eq!(in_kernel.image.data, tables.image.data);
        assert_eq!(in_kernel.stats, tables.stats);
        // Tables trade device FLOPs for transfer + host FLOPs.
        assert_eq!(in_kernel.host_table_flops, 0);
        assert_eq!(tables.host_table_flops, EdgeTable::build_flops(&geom, 6));
        assert!(tables.meters.h2d_bytes > in_kernel.meters.h2d_bytes);
        assert!(
            tables.meters.kernel_cost.flops < in_kernel.meters.kernel_cost.flops,
            "table kernel must skip the triangulation FLOPs"
        );
    }

    #[test]
    fn host_tables_chunking_invariance() {
        let (geom, cfg, data) = demo();
        let device = big_device();
        let mut reference = None;
        for rows in [1usize, 3, 6] {
            let mut cfg = cfg.clone();
            cfg.rows_per_slab = Some(rows);
            let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
            let out = reconstruct_with_options(
                &device,
                &mut source,
                &geom,
                &cfg,
                GpuOptions {
                    layout: Layout::Flat1d,
                    triangulation: Triangulation::HostTables,
                },
            )
            .unwrap();
            // The slabs' charges sum to the whole detector's.
            assert_eq!(out.host_table_flops, EdgeTable::build_flops(&geom, 6));
            match &reference {
                None => reference = Some(out.image.data),
                Some(r) => assert_eq!(r, &out.image.data, "rows_per_slab = {rows}"),
            }
        }
    }

    #[test]
    fn stats_come_from_kernel_traces() {
        let (geom, mut cfg, data) = demo();
        cfg.intensity_cutoff = 1e12; // everything below cutoff
        let device = big_device();
        let mut source = InMemorySlabSource::new(data, 10, 6, 6).unwrap();
        let out = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
        assert_eq!(out.stats.pairs_below_cutoff, out.stats.pairs_total);
        assert_eq!(out.stats.deposits, 0);
        assert!(out.stats.is_consistent());
        assert_eq!(out.image.total_intensity(), 0.0);
    }

    #[test]
    fn fit_rows_per_slab_is_maximal() {
        let budget = 10 * 1024 * 1024;
        let rows = fit_rows_per_slab(
            budget,
            512,
            32,
            128,
            64,
            GpuOptions::default(),
            1,
            CompactionMode::Off,
        )
        .unwrap();
        assert!(rows >= 1);
        let used = slab_bytes(
            rows,
            32,
            128,
            64,
            GpuOptions::default(),
            1,
            CompactionMode::Off,
        );
        let next = slab_bytes(
            rows + 1,
            32,
            128,
            64,
            GpuOptions::default(),
            1,
            CompactionMode::Off,
        );
        let headroom = budget - budget / 10;
        assert!(
            used <= headroom && next > headroom,
            "{used} {next} {headroom}"
        );
        // Each additional ring slot shrinks the slab further.
        let rows_2 = fit_rows_per_slab(
            budget,
            512,
            32,
            128,
            64,
            GpuOptions::default(),
            2,
            CompactionMode::Off,
        )
        .unwrap();
        assert!(rows_2 <= rows / 2 + 1);
        let rows_4 = fit_rows_per_slab(
            budget,
            512,
            32,
            128,
            64,
            GpuOptions::default(),
            4,
            CompactionMode::Off,
        )
        .unwrap();
        assert!(rows_4 <= rows_2);
        // The depth table enlarges the working set, shrinking the slab.
        let opts_tables = GpuOptions {
            layout: Layout::Flat1d,
            triangulation: Triangulation::HostTables,
        };
        let rows_tbl = fit_rows_per_slab(
            budget,
            512,
            32,
            128,
            64,
            opts_tables,
            1,
            CompactionMode::Off,
        )
        .unwrap();
        assert!(rows_tbl <= rows);
    }

    #[test]
    fn checkpointed_fresh_run_matches_pipelined_bitwise() {
        let (geom, mut cfg, data) = demo();
        cfg.rows_per_slab = Some(2);
        let device = big_device();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
        let baseline = reconstruct_pipelined(
            &device,
            &mut source,
            &geom,
            &cfg,
            GpuOptions::default(),
            PipelineDepth::SERIAL,
            None,
        )
        .unwrap();

        let mut progress = SlabProgress::new(cfg.n_depth_bins, 6, 6);
        let mut source = InMemorySlabSource::new(data, 10, 6, 6).unwrap();
        let (out, _) = reconstruct_checkpointed_bounded(
            &device,
            &mut source,
            &geom,
            &cfg,
            GpuOptions::default(),
            PipelineDepth::SERIAL,
            None,
            &mut progress,
            None,
            usize::MAX,
        )
        .unwrap();
        assert_eq!(out.image.data, baseline.image.data);
        assert_eq!(out.stats, baseline.stats);
        assert_eq!(out.n_slabs, baseline.n_slabs);
        assert_eq!(out.rows_per_slab, baseline.rows_per_slab);
    }

    #[test]
    fn a_journalled_slab_plan_is_capped_at_one_record() {
        use crate::journal::{JournalKey, RunJournal};

        // 64 images of 2048 × 2048 into 200 bins on the 6 GB M2070 at ring
        // depth 1: the memory fit alone plans a slab past the journal's
        // 4 GiB record frame.
        let mut cfg = ReconstructionConfig::new(-400.0, 400.0, 200);
        let budget = DeviceProps::tesla_m2070().total_mem;
        let dir = std::env::temp_dir().join(format!("laue-plan-cap-{}", std::process::id()));
        let key = JournalKey::new("plan-cap".into());
        let (journal, _) = RunJournal::open(&dir, &key, (200, 2048, 2048), false).unwrap();
        let cap = journal.max_slab_rows().unwrap();
        let plan = |cfg: &ReconstructionConfig, journal| {
            let serial = Plan::fixed(
                1,
                1,
                GpuOptions::default(),
                PipelineDepth::SERIAL,
                cfg,
                Pins::default(),
            );
            plan_slabs(
                budget,
                2048,
                64,
                2048,
                cfg,
                GpuOptions::default(),
                &serial,
                journal,
            )
            .unwrap()
        };
        let (fit, slots) = plan(&cfg, None);
        assert!(fit > cap, "the fit ({fit} rows) must pass the cap ({cap})");
        assert_eq!(plan(&cfg, Some(&journal)), (cap, slots));
        // A configured slab height is capped the same way.
        cfg.rows_per_slab = Some(2048);
        assert_eq!(plan(&cfg, None).0, 2048);
        assert_eq!(plan(&cfg, Some(&journal)).0, cap);
        journal.remove().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn device_loss_at_every_slab_boundary_resumes_bit_identically() {
        use crate::journal::{JournalKey, RunJournal};

        let (geom, mut cfg, data) = demo();
        cfg.rows_per_slab = Some(2); // 6 rows → 3 slabs
        let dims = (cfg.n_depth_bins, 6usize, 6usize);
        let device = big_device();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
        let baseline = reconstruct_pipelined(
            &device,
            &mut source,
            &geom,
            &cfg,
            GpuOptions::default(),
            PipelineDepth::SERIAL,
            None,
        )
        .unwrap();

        let dir = std::env::temp_dir().join(format!("laue-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for lost_after in 0..3u64 {
            let key = JournalKey::new(format!("boundary-test-{lost_after}"));
            let dying = big_device();
            dying.set_fault_plan(cuda_sim::FaultPlan::new(0).fail_after_launches(lost_after));
            let (mut journal, replayed) = RunJournal::open(&dir, &key, dims, true).unwrap();
            assert!(replayed.is_empty());
            let mut progress = SlabProgress::new(dims.0, dims.1, dims.2);
            let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
            let err = reconstruct_checkpointed_bounded(
                &dying,
                &mut source,
                &geom,
                &cfg,
                GpuOptions::default(),
                PipelineDepth::SERIAL,
                None,
                &mut progress,
                Some(&mut journal),
                usize::MAX,
            )
            .unwrap_err();
            assert!(err.is_gpu_failure(), "{err}");
            assert_eq!(progress.committed_slabs(), lost_after as usize);
            drop(journal);

            // Restart from the journal on a healthy device.
            let clean = big_device();
            let (mut journal, replayed) = RunJournal::open(&dir, &key, dims, true).unwrap();
            assert_eq!(replayed.len(), lost_after as usize, "replay commits");
            let mut progress = SlabProgress::replay(dims.0, dims.1, dims.2, &replayed).unwrap();
            let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
            let (out, _) = reconstruct_checkpointed_bounded(
                &clean,
                &mut source,
                &geom,
                &cfg,
                GpuOptions::default(),
                PipelineDepth::SERIAL,
                None,
                &mut progress,
                Some(&mut journal),
                usize::MAX,
            )
            .unwrap();
            assert_eq!(
                out.image.data, baseline.image.data,
                "kill after slab {lost_after}: resume must be bit-identical"
            );
            assert_eq!(out.stats, baseline.stats);
            journal.remove().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn mixed_demo() -> (ScanGeometry, ReconstructionConfig, Vec<f64>) {
        let geom = ScanGeometry::demo(6, 6, 10, -60.0, 6.0).unwrap();
        // Wide enough that every depth band lies inside the window (no
        // culling): the prescan's compaction is isolated from level 1.
        let mut cfg = ReconstructionConfig::new(-1200.0, 1200.0, 120);
        cfg.intensity_cutoff = 18.0;
        let (p, m, n) = (10, 6, 6);
        // Differential is (px % 9) * 5 per pair: a mix of below-cutoff and
        // active pixels (density ~ 0.56 at cutoff 18).
        let data: Vec<f64> = (0..p * m * n)
            .map(|i| {
                let z = i / (m * n);
                let px = i % (m * n);
                900.0 - (px % 9) as f64 * 5.0 * z as f64 - (px % 3) as f64
            })
            .collect();
        (geom, cfg, data)
    }

    #[test]
    fn compaction_matches_dense_bitwise_across_layouts() {
        let (geom, cfg, data) = mixed_demo();
        let opt_set = [
            GpuOptions::default(),
            GpuOptions {
                layout: Layout::Pointer3d,
                ..GpuOptions::default()
            },
            GpuOptions {
                triangulation: Triangulation::HostTables,
                ..GpuOptions::default()
            },
        ];
        for opts in opt_set {
            let device = big_device();
            let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
            let dense = reconstruct_with_options(&device, &mut source, &geom, &cfg, opts).unwrap();
            for mode in [CompactionMode::Auto, CompactionMode::On] {
                let mut cfg = cfg.clone();
                cfg.compaction = mode;
                let device = big_device();
                let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
                let sparse =
                    reconstruct_with_options(&device, &mut source, &geom, &cfg, opts).unwrap();
                assert_eq!(
                    dense.image.data, sparse.image.data,
                    "{opts:?} {mode:?} must be bit-identical to dense"
                );
                // The wide window culls nothing here, so every counter but
                // the new attribution must match the dense run exactly.
                assert_eq!(sparse.stats.culled_rows, 0);
                if mode == CompactionMode::On {
                    assert!(sparse.stats.compacted_pairs > 0, "{mode:?} must compact");
                    assert_eq!(
                        sparse.stats.compacted_pairs,
                        sparse.stats.pairs_below_cutoff
                    );
                }
                // Auto is a cost-model decision now: either launch shape is
                // legal, but the counters must reconcile with dense either
                // way (compaction only relabels below-cutoff pairs).
                let mut neutral = sparse.stats;
                neutral.compacted_pairs = 0;
                assert_eq!(neutral, dense.stats);
                assert!(sparse.stats.is_consistent());
                assert!(!sparse.slab_densities.is_empty());
                for d in &sparse.slab_densities {
                    assert!(*d > 0.4 && *d < 0.7, "density {d}");
                }
            }
        }
    }

    #[test]
    fn compaction_with_culling_matches_cpu_bitwise() {
        // Narrow depth window: wire-shadow culling removes whole (row, pair)
        // combos, the prescan drops below-cutoff pairs, and the GPU engine
        // must still agree with the CPU engine bit-for-bit, stats included.
        let (geom, _, data) = mixed_demo();
        let mut cfg = ReconstructionConfig::new(-350.0, 150.0, 25);
        cfg.intensity_cutoff = 18.0;
        cfg.compaction = CompactionMode::On;
        let view = ScanView::new(&data, 10, 6, 6).unwrap();
        let cpu_out = cpu::reconstruct_seq(&view, &geom, &cfg).unwrap();
        assert!(cpu_out.stats.culled_rows > 0, "window must actually cull");
        let device = big_device();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
        let gpu_out = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
        assert_eq!(cpu_out.image.data, gpu_out.image.data);
        assert_eq!(cpu_out.stats, gpu_out.stats);

        let mut dense_cfg = cfg.clone();
        dense_cfg.compaction = CompactionMode::Off;
        let device = big_device();
        let mut source = InMemorySlabSource::new(data, 10, 6, 6).unwrap();
        let dense = reconstruct(&device, &mut source, &geom, &dense_cfg, Layout::Flat1d).unwrap();
        assert_eq!(dense.image.data, gpu_out.image.data);
    }

    #[test]
    fn compaction_is_chunking_invariant() {
        let (geom, mut cfg, data) = mixed_demo();
        cfg.compaction = CompactionMode::On;
        let mut reference = None;
        for rows in [1usize, 2, 3, 6] {
            let mut cfg = cfg.clone();
            cfg.rows_per_slab = Some(rows);
            let device = big_device();
            let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
            let out = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
            assert_eq!(out.slab_densities.len(), out.n_slabs);
            match &reference {
                None => reference = Some(out.image.data),
                Some(r) => assert_eq!(r, &out.image.data, "rows_per_slab = {rows}"),
            }
        }
    }

    #[test]
    fn compaction_cuts_modeled_kernel_time_on_sparse_stacks() {
        // One pixel in 36 carries signal: the compacted launch touches a
        // tiny fraction of the dense domain and the prescan's streaming
        // column scan is far cheaper than the dense kernel's per-thread
        // pixel/wire/intensity reads.
        // Large enough that kernel work, not launch overhead, dominates
        // the modeled time.
        let geom = ScanGeometry::demo(24, 24, 16, -60.0, 6.0).unwrap();
        let mut cfg = ReconstructionConfig::new(-1200.0, 1200.0, 120);
        cfg.intensity_cutoff = 1.0;
        let (p, m, n) = (16, 24, 24);
        let data: Vec<f64> = (0..p * m * n)
            .map(|i| {
                let z = i / (m * n);
                let px = i % (m * n);
                if px == 7 {
                    900.0 - 40.0 * z as f64
                } else {
                    650.0
                }
            })
            .collect();
        let device = big_device();
        let mut source = InMemorySlabSource::new(data.clone(), p, m, n).unwrap();
        let dense = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
        cfg.compaction = CompactionMode::Auto;
        let device = big_device();
        let mut source = InMemorySlabSource::new(data, p, m, n).unwrap();
        let sparse = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
        assert_eq!(dense.image.data, sparse.image.data);
        assert!(sparse.slab_densities.iter().all(|d| *d < 0.05));
        assert!(
            sparse.meters.compute_time_s < dense.meters.compute_time_s / 2.0,
            "compact {} vs dense {}",
            sparse.meters.compute_time_s,
            dense.meters.compute_time_s
        );
    }

    #[test]
    fn auto_mode_launches_dense_at_full_density() {
        // Every pair of the plain demo stack is active, so Auto must fall
        // back to the dense launch: no compacted pairs, full-size set_two.
        let (geom, _, data) = demo();
        let mut cfg = ReconstructionConfig::new(-1200.0, 1200.0, 120);
        let device = big_device();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
        let dense = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
        cfg.compaction = CompactionMode::Auto;
        let device = big_device();
        let mut source = InMemorySlabSource::new(data, 10, 6, 6).unwrap();
        let auto = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
        assert_eq!(dense.image.data, auto.image.data);
        assert_eq!(auto.stats.compacted_pairs, 0);
        assert!(auto.slab_densities.iter().all(|d| *d == 1.0));
        let records = device.records();
        let main = records.iter().find(|r| r.name == "set_two").unwrap();
        assert!(
            main.threads >= 6 * 6 * 9,
            "dense fallback launches the full grid: {}",
            main.threads
        );
        assert!(
            records.iter().any(|r| r.name == "prescan"),
            "the density measurement itself must be paid for"
        );
    }

    #[test]
    fn fully_shadowed_window_skips_every_launch() {
        // A depth window beyond every wire shadow: culling removes all
        // combos, so nothing launches and the output is identically zero —
        // exactly what the dense path produces the long way round.
        let (geom, _, data) = demo();
        let cfg = ReconstructionConfig::new(2500.0, 3500.0, 10);
        let device = big_device();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
        let dense = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
        let mut cfg = cfg.clone();
        cfg.compaction = CompactionMode::Auto;
        let device = big_device();
        let mut source = InMemorySlabSource::new(data, 10, 6, 6).unwrap();
        let culled = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
        assert_eq!(dense.image.data, culled.image.data);
        assert_eq!(culled.stats.pairs_total, dense.stats.pairs_total);
        assert!(culled.stats.culled_rows > 0);
        assert!(culled.stats.is_consistent());
        if culled.stats.culled_rows == (6 * 9) as u64 {
            // Everything culled: the device never saw a kernel.
            assert!(device.records().is_empty(), "no launches at all");
        }
    }

    #[test]
    fn compaction_shrinks_the_slab_fit() {
        let budget = 8 * 1024 * 1024u64;
        let off = fit_rows_per_slab(
            budget,
            512,
            32,
            128,
            64,
            GpuOptions::default(),
            1,
            CompactionMode::Off,
        )
        .unwrap();
        let on = fit_rows_per_slab(
            budget,
            512,
            32,
            128,
            64,
            GpuOptions::default(),
            1,
            CompactionMode::On,
        )
        .unwrap();
        assert!(
            on < off,
            "work-list reservation must shrink the fit: {on} vs {off}"
        );
    }

    #[test]
    fn checkpointed_compaction_matches_dense() {
        let (geom, mut cfg, data) = mixed_demo();
        cfg.rows_per_slab = Some(2);
        let device = big_device();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
        let dense = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
        cfg.compaction = CompactionMode::On;
        let device = big_device();
        let mut progress = SlabProgress::new(cfg.n_depth_bins, 6, 6);
        let mut source = InMemorySlabSource::new(data, 10, 6, 6).unwrap();
        let (out, _) = reconstruct_checkpointed_bounded(
            &device,
            &mut source,
            &geom,
            &cfg,
            GpuOptions::default(),
            PipelineDepth::SERIAL,
            None,
            &mut progress,
            None,
            usize::MAX,
        )
        .unwrap();
        assert_eq!(dense.image.data, out.image.data);
        assert_eq!(out.slab_densities.len(), out.n_slabs);
        let mut neutral = out.stats;
        neutral.compacted_pairs = 0;
        assert_eq!(neutral, dense.stats);
    }

    #[test]
    fn accumulation_planner_prefers_occupancy() {
        let props = DeviceProps::tesla_m2070(); // 48 KiB shared
        let atomic = plan_accumulation(&props, 200, AccumulationMode::Atomic);
        assert_eq!(atomic, AccumPlan::Atomic { fallback: false });
        // 200 bins = 1600 B per row: 7 rows keep 4 blocks resident.
        match plan_accumulation(&props, 200, AccumulationMode::Auto) {
            AccumPlan::Privatized { pixels_per_block } => {
                assert_eq!(pixels_per_block, 7);
                assert_eq!(props.occupancy(7 * 200 * 8), 1.0);
            }
            other => panic!("expected privatized, got {other:?}"),
        }
        // 2000 bins = 16 000 B per row: over a quarter of shared memory, so
        // the planner accepts the occupancy hit and packs what fits.
        match plan_accumulation(&props, 2000, AccumulationMode::Privatized) {
            AccumPlan::Privatized { pixels_per_block } => {
                assert_eq!(pixels_per_block, 3);
                assert!(props.occupancy(3 * 2000 * 8) < 1.0);
            }
            other => panic!("expected privatized, got {other:?}"),
        }
        // 7000 bins = 56 000 B per row: one row alone does not fit — both
        // `auto` and forced privatization fall back, flagged.
        for mode in [AccumulationMode::Auto, AccumulationMode::Privatized] {
            assert_eq!(
                plan_accumulation(&props, 7000, mode),
                AccumPlan::Atomic { fallback: true }
            );
        }
    }

    #[test]
    fn privatized_matches_atomic_bitwise_across_modes() {
        // The tentpole bit-identity contract: privatized accumulation must
        // reproduce the atomic image bit-for-bit across layouts,
        // triangulation, and every compaction shape (dense, banded,
        // compact).
        let (geom, wide_cfg, data) = mixed_demo();
        let mut narrow_cfg = ReconstructionConfig::new(-350.0, 150.0, 25);
        narrow_cfg.intensity_cutoff = 18.0;
        let opt_set = [
            GpuOptions::default(),
            GpuOptions {
                layout: Layout::Pointer3d,
                ..GpuOptions::default()
            },
            GpuOptions {
                triangulation: Triangulation::HostTables,
                ..GpuOptions::default()
            },
        ];
        for opts in opt_set {
            for base_cfg in [&wide_cfg, &narrow_cfg] {
                for compaction in [
                    CompactionMode::Off,
                    CompactionMode::Auto,
                    CompactionMode::On,
                ] {
                    let mut cfg = base_cfg.clone();
                    cfg.compaction = compaction;
                    let device = big_device();
                    let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
                    let atomic =
                        reconstruct_with_options(&device, &mut source, &geom, &cfg, opts).unwrap();
                    assert!(atomic.slab_privatized.is_empty());
                    for accum in [AccumulationMode::Privatized, AccumulationMode::Auto] {
                        let mut cfg = cfg.clone();
                        cfg.accumulation = accum;
                        let device = big_device();
                        let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
                        let private =
                            reconstruct_with_options(&device, &mut source, &geom, &cfg, opts)
                                .unwrap();
                        assert_eq!(
                            atomic.image.data, private.image.data,
                            "{opts:?} {compaction:?} {accum:?} must be bit-identical"
                        );
                        // 120 (or 25) bins fit tiny's 8 KiB shared memory, so
                        // every launched slab privatizes.
                        assert_eq!(private.slab_privatized.len(), private.n_slabs);
                        assert!(private.slab_privatized.iter().all(|p| *p));
                        assert_eq!(private.stats.privatized_pairs, private.stats.pairs_total);
                        assert_eq!(private.stats.accum_fallback_pairs, 0);
                        let mut neutral = private.stats;
                        neutral.privatized_pairs = 0;
                        assert_eq!(neutral, atomic.stats, "{opts:?} {compaction:?} {accum:?}");
                        assert!(neutral.is_consistent());
                    }
                }
            }
        }
    }

    #[test]
    fn privatized_is_deterministic_under_threading() {
        // Blocks commit to disjoint pixels, one add per touched cell, so
        // every worker count reproduces the sequential atomic image
        // bit-for-bit.
        let (geom, mut cfg, data) = demo();
        let device = big_device();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
        let atomic_seq = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();

        cfg.accumulation = AccumulationMode::Privatized;
        for workers in [2usize, 4, 8] {
            let device = big_device();
            device.force_workers(workers);
            let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
            let threaded = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
            assert_eq!(
                atomic_seq.image.data, threaded.image.data,
                "threaded privatized ({workers} workers) must be bit-identical"
            );
        }
    }

    #[test]
    fn auto_accumulation_falls_back_when_bins_exceed_shared() {
        // A device whose shared memory cannot hold even one 40-bin row:
        // `auto` (and forced privatization) must run the atomic path,
        // bit-identically, and record the fallback.
        let (geom, cfg, data) = demo();
        let device = big_device();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
        let atomic = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();

        let mut props = DeviceProps::tiny(64 * 1024 * 1024);
        props.shared_mem_per_block = 64; // 8 doubles < 40 bins
        for accum in [AccumulationMode::Auto, AccumulationMode::Privatized] {
            let mut cfg = cfg.clone();
            cfg.accumulation = accum;
            let device = Device::new(props.clone());
            let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
            let out = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
            assert_eq!(atomic.image.data, out.image.data);
            assert_eq!(out.slab_privatized.len(), out.n_slabs);
            assert!(out.slab_privatized.iter().all(|p| !*p), "{accum:?}");
            assert_eq!(out.stats.accum_fallback_pairs, out.stats.pairs_total);
            assert_eq!(out.stats.privatized_pairs, 0);
        }
    }

    #[test]
    fn privatized_cuts_modeled_kernel_time_when_deposits_pile_up() {
        // Many wire steps over few bins: each output cell collects deposits
        // from dozens of pairs, so the privatized path folds them in shared
        // memory and pays one global atomic per cell instead of one per
        // deposit.
        let geom = ScanGeometry::demo(6, 6, 40, -80.0, 3.0).unwrap();
        let cfg = ReconstructionConfig::new(-1500.0, 1500.0, 10);
        let (p, m, n) = (40, 6, 6);
        let data: Vec<f64> = (0..p * m * n).map(|i| (i % 97) as f64).collect();
        let device = Device::new(DeviceProps::tesla_m2070());
        let mut source = InMemorySlabSource::new(data.clone(), p, m, n).unwrap();
        let atomic = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();

        let mut cfg = cfg.clone();
        cfg.accumulation = AccumulationMode::Auto;
        let device = Device::new(DeviceProps::tesla_m2070());
        let mut source = InMemorySlabSource::new(data, p, m, n).unwrap();
        let private = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();
        assert_eq!(atomic.image.data, private.image.data);
        // Atomic pays one global atomic per deposit; privatized pays one per
        // touched cell — the wide bins collapse many deposits per cell.
        assert!(
            2 * private.meters.kernel_cost.atomic_ops <= atomic.meters.kernel_cost.atomic_ops,
            "commits {} must be far fewer than deposits {}",
            private.meters.kernel_cost.atomic_ops,
            atomic.meters.kernel_cost.atomic_ops
        );
        assert!(
            private.meters.compute_time_s < atomic.meters.compute_time_s,
            "privatized {} vs atomic {}",
            private.meters.compute_time_s,
            atomic.meters.compute_time_s
        );
    }

    #[test]
    fn checkpointed_privatized_matches_and_records_slabs() {
        let (geom, mut cfg, data) = mixed_demo();
        cfg.rows_per_slab = Some(2);
        let device = big_device();
        let mut source = InMemorySlabSource::new(data.clone(), 10, 6, 6).unwrap();
        let atomic = reconstruct(&device, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();

        cfg.compaction = CompactionMode::On;
        cfg.accumulation = AccumulationMode::Auto;
        let device = big_device();
        let mut progress = SlabProgress::new(cfg.n_depth_bins, 6, 6);
        let mut source = InMemorySlabSource::new(data, 10, 6, 6).unwrap();
        let (out, _) = reconstruct_checkpointed_bounded(
            &device,
            &mut source,
            &geom,
            &cfg,
            GpuOptions::default(),
            PipelineDepth::SERIAL,
            None,
            &mut progress,
            None,
            usize::MAX,
        )
        .unwrap();
        assert_eq!(atomic.image.data, out.image.data);
        assert_eq!(out.slab_privatized.len(), out.n_slabs);
        assert!(out.slab_privatized.iter().all(|p| *p));
        assert_eq!(out.stats.privatized_pairs, out.stats.pairs_total);
        let mut neutral = out.stats;
        neutral.compacted_pairs = 0;
        neutral.privatized_pairs = 0;
        assert_eq!(neutral, atomic.stats);
    }
}
