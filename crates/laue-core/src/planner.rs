//! Self-tuning execution planner: cost-model-driven plan selection.
//!
//! The paper tunes one kernel for one GPU by hand. This repo's config
//! space — data layout × triangulation placement × ring depth × compaction
//! × accumulation × slab rows — has no single winner: the best plan shifts
//! with the device generation, the stack's sparsity, and the bin count.
//! Rather than asking the operator to sweep flags, the planner *predicts*
//! each candidate's virtual cost with the same calibrated roofline model
//! the simulator charges ([`cuda_sim::DeviceProps::kernel_time`], the
//! shared half-duplex PCIe bus, per-transfer latency) and picks the argmin.
//!
//! Two levels:
//!
//! * **Per slab** (`plan_slab`): given a slab's measured sparsity
//!   structure and a sampled probe of its intensity statistics, choose
//!   compacted vs dense execution and atomic vs privatized accumulation by
//!   comparing the modeled kernel times of each combination. This subsumes
//!   the former `AUTO_COMPACT_MAX_DENSITY` threshold (a density cutoff is
//!   just a special case of a cost comparison with a fixed crossover) and
//!   the accumulation auto mode.
//! * **Per run** ([`plan_run`]): enumerate layout × triangulation ×
//!   ring depth × slab rows, model every slab's upload, prescan,
//!   kernel, and download under the chosen per-slab plans, compose them
//!   into a predicted makespan (serial chain at ring depth 1; at depth ≥ 2
//!   the elapsed time is the max of the bus-bound path and the compute
//!   path, the shape PR 6's shared-bus model produces), and return the
//!   cheapest feasible candidate plus the full scored candidate list for
//!   the run report's explain block.
//! * **Per shape** ([`plan_auto`]): the one `--plan auto` entry for every
//!   `nodes × devices` shape — the per-run enumeration, plus, on more than
//!   one node, the node count × reduction topology × overlap sweep.
//!
//! Every GPU run executes one [`Plan`]: an engine alias names a fixed one
//! ([`Plan::fixed`]), `--plan auto` picks one. Both honour the caller's
//! [`Pins`] and slab rows, and neither changes the configuration: the
//! compaction and accumulation modes it holds are the ones priced and run.
//!
//! The probe ([`SlabProbe`]) samples up to [`PROBE_MAX_PIXELS`] pixels of a
//! slab host-side — evenly strided, so the result is deterministic and
//! `--resume` re-derives the identical plan. Probe work is host planning
//! time, not charged to the virtual clock, the same convention as the
//! sparsity prescan planning and the shadow cull's host FLOPs.
//!
//! Host-CPU table time is modeled ([`RunPlan::host_s`]) but deliberately
//! excluded from the predicted makespan: [`cuda_sim`] charges host FLOPs to
//! a parallel host resource that never stalls a device stream, so measured
//! virtual elapsed time excludes it too — predictions are compared against
//! measurements like for like.

use std::sync::Arc;

use cuda_sim::{ChainEstimator, Cost, DeviceProps, HostProps, InterconnectProps};
use laue_geometry::DepthMapper;

use crate::cache::{DepthTableCache, EdgeTable};
use crate::cluster::{
    node_bands, reduction_segment_bytes, route_hops, ClusterOptions, ReductionTopology,
};
use crate::config::{AccumulationMode, CompactionMode, ReconstructionConfig};
use crate::error::CoreError;
use crate::geometry::ScanGeometry;
use crate::gpu::{
    fit_rows_per_slab, plan_accumulation, validate_inputs, AccumPlan, GpuOptions, Layout,
    PipelineDepth, Triangulation, BLOCK_SIZE,
};
use crate::input::SlabSource;
use crate::pair::{
    differential, plan_from_band, plan_pair, PairPlan, COMPACT_ENTRY_BYTES, FLOPS_PER_PAIR,
    MEM_BYTES_PER_PAIR,
};
use crate::Result;

/// Pixels one probe samples per slab. 64 pixels × all pairs is enough to
/// estimate the per-active-pair deposit statistics within a few percent on
/// the synthetic stacks while staying negligible next to the sparsity
/// prescan planning the engine already does host-side.
pub const PROBE_MAX_PIXELS: usize = 64;

/// Device-memory allocation granularity mirrored from `cuda_sim::alloc`.
const ALLOC_ALIGN: u64 = 256;

/// Round a byte count up to the simulator's allocation granularity.
fn round_alloc(bytes: u64) -> u64 {
    bytes.div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN
}

/// Raw sampled sums from probing one slab's intensities: how the pairs
/// above the cutoff behave — deposits per pair, distinct cells touched,
/// worst per-cell multiplicity, and the exact FLOP counts of both
/// triangulation placements.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlabProbe {
    /// Pixels sampled.
    pub sampled_pixels: u64,
    /// `(pixel, pair)` elements evaluated.
    pub evals: u64,
    /// Elements whose `|ΔI|` exceeded the cutoff.
    pub active: u64,
    /// Nonzero bin deposits across the sampled elements.
    pub deposits: u64,
    /// Distinct `(pixel, bin)` cells touched (one committed add each under
    /// privatized accumulation).
    pub commits: u64,
    /// Max deposits landing in one `(pixel, bin)` cell — the same-address
    /// atomic chain a single output cell serializes.
    pub max_mult: u64,
    /// FLOPs `plan_pair` charged (in-kernel triangulation mode).
    pub flops_inkernel: u64,
    /// FLOPs the table-mode kernel charges for the same elements
    /// (`FLOPS_PER_PAIR` per eval plus `plan_from_band` above the cutoff).
    pub flops_table: u64,
}

impl SlabProbe {
    /// Sample up to [`PROBE_MAX_PIXELS`] evenly strided pixels of a host
    /// slab, evaluating every (non-culled) pair of each exactly as the
    /// kernel would. `live_pairs`, when present, is the per-slab-row live
    /// list from the sparsity plan; `None` means every pair is live.
    #[allow(clippy::too_many_arguments)]
    pub fn sample(
        slab: &[f64],
        geom: &ScanGeometry,
        mapper: &DepthMapper,
        cfg: &ReconstructionConfig,
        n_images: usize,
        row0: usize,
        rows: usize,
        n_cols: usize,
        live_pairs: Option<&[Vec<u32>]>,
    ) -> SlabProbe {
        let mut probe = SlabProbe::default();
        let n_pairs = n_images - 1;
        let total_pixels = rows * n_cols;
        if total_pixels == 0 || n_pairs == 0 {
            return probe;
        }
        let n_samples = total_pixels.min(PROBE_MAX_PIXELS);
        let stride = total_pixels / n_samples;
        let wire_centers = geom.wire.centers();
        let all_pairs: Vec<u32> = (0..n_pairs as u32).collect();
        // Per-pixel deposit multiplicity scratch, reset between pixels.
        let mut cell_counts = vec![0u32; cfg.n_depth_bins];
        let mut touched_bins = Vec::new();
        for s in 0..n_samples {
            let pix = s * stride;
            let (r, c) = (pix / n_cols, pix % n_cols);
            let live = match live_pairs {
                Some(lp) => &lp[r],
                None => &all_pairs,
            };
            if live.is_empty() {
                probe.sampled_pixels += 1;
                continue;
            }
            let pixel = geom
                .detector
                .pixel_to_xyz_unchecked((row0 + r) as f64, c as f64);
            for &z in live {
                let z = z as usize;
                let i0 = slab[(z * rows + r) * n_cols + c];
                let i1 = slab[((z + 1) * rows + r) * n_cols + c];
                probe.evals += 1;
                let plan = plan_pair(
                    mapper,
                    cfg,
                    pixel,
                    wire_centers[z],
                    wire_centers[z + 1],
                    i0,
                    i1,
                    &mut probe.flops_inkernel,
                );
                // Table-mode FLOPs for the identical element: the
                // differential/cutoff logic repeats, the triangulation is a
                // table read (charged as memory, not FLOPs).
                probe.flops_table += FLOPS_PER_PAIR;
                let delta = differential(cfg, i0, i1);
                if delta.abs() > cfg.intensity_cutoff {
                    probe.active += 1;
                    let d0 = mapper
                        .depth(pixel, wire_centers[z], cfg.wire_edge)
                        .unwrap_or(f64::NAN);
                    let d1 = mapper
                        .depth(pixel, wire_centers[z + 1], cfg.wire_edge)
                        .unwrap_or(f64::NAN);
                    plan_from_band(cfg, delta, d0, d1, &mut probe.flops_table);
                }
                if let PairPlan::Deposit(dp) = plan {
                    for (bin, count) in cell_counts
                        .iter_mut()
                        .enumerate()
                        .take(dp.last_bin)
                        .skip(dp.first_bin)
                    {
                        if dp.amount(bin, cfg) != 0.0 {
                            probe.deposits += 1;
                            if *count == 0 {
                                touched_bins.push(bin);
                            }
                            *count += 1;
                        }
                    }
                }
            }
            for &bin in &touched_bins {
                probe.commits += 1;
                probe.max_mult = probe.max_mult.max(cell_counts[bin] as u64);
                cell_counts[bin] = 0;
            }
            touched_bins.clear();
            probe.sampled_pixels += 1;
        }
        probe
    }

    /// Merge another probe's sums into this one (used when probing several
    /// bands of a run).
    pub fn merge(&mut self, other: &SlabProbe) {
        self.sampled_pixels += other.sampled_pixels;
        self.evals += other.evals;
        self.active += other.active;
        self.deposits += other.deposits;
        self.commits += other.commits;
        self.max_mult = self.max_mult.max(other.max_mult);
        self.flops_inkernel += other.flops_inkernel;
        self.flops_table += other.flops_table;
    }

    /// Per-element scaling rates derived from the sampled sums.
    pub fn rates(&self) -> ProbeRates {
        let active = self.active as f64;
        let zero_active = self.active == 0;
        ProbeRates {
            frac_active: if self.evals == 0 {
                0.0
            } else {
                active / self.evals as f64
            },
            deposits_per_active: if zero_active {
                0.0
            } else {
                self.deposits as f64 / active
            },
            commits_per_active: if zero_active {
                0.0
            } else {
                self.commits as f64 / active
            },
            max_mult: self.max_mult,
            extra_flops_per_active_inkernel: if zero_active {
                0.0
            } else {
                (self.flops_inkernel - FLOPS_PER_PAIR * self.evals) as f64 / active
            },
            extra_flops_per_active_table: if zero_active {
                0.0
            } else {
                (self.flops_table - FLOPS_PER_PAIR * self.evals) as f64 / active
            },
        }
    }
}

/// Probe-derived scaling rates: everything per evaluated element is exact
/// (`FLOPS_PER_PAIR`, the input reads); everything beyond the cutoff test
/// scales with the active count through these.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeRates {
    /// Fraction of evaluated elements above the cutoff.
    pub frac_active: f64,
    /// Nonzero bin deposits per active element.
    pub deposits_per_active: f64,
    /// Committed `(pixel, bin)` cells per active element.
    pub commits_per_active: f64,
    /// Max deposits into one output cell (atomic chain floor).
    pub max_mult: u64,
    /// FLOPs beyond `FLOPS_PER_PAIR` per active element, in-kernel mode
    /// (triangulation + bin spreading).
    pub extra_flops_per_active_inkernel: f64,
    /// Same for table mode (bin spreading only; depths come from reads).
    pub extra_flops_per_active_table: f64,
}

/// One slab's workload summary: the exact sparsity counts (from the
/// sparsity plan or the shadow cull) plus the probe rates that scale the
/// above-cutoff tail.
#[derive(Debug, Clone)]
pub(crate) struct SlabModel {
    pub(crate) rows: usize,
    pub(crate) n_cols: usize,
    pub(crate) n_bins: usize,
    /// Rows with at least one live pair (prescan + banded launch domain).
    pub(crate) live_rows: usize,
    /// Σ per-row live pair count (the banded combo count).
    pub(crate) live_pairs_sum: u64,
    /// Live `(pixel, pair)` elements: `live_pairs_sum × n_cols`.
    pub(crate) live_evals: u64,
    /// Above-cutoff elements (exact when a sparsity plan measured them,
    /// probe-scaled `frac_active × live_evals` otherwise).
    pub(crate) entries: u64,
    pub(crate) culled_combos: u64,
    /// Σ per-row touched-image count (prescan read accounting).
    pub(crate) touched_sum: u64,
    pub(crate) rates: ProbeRates,
}

impl SlabModel {
    /// A dense slab with no sparsity pass: every pair of every pixel is
    /// evaluated, nothing is culled, no prescan runs.
    pub(crate) fn dense(
        rows: usize,
        n_cols: usize,
        n_bins: usize,
        n_pairs: usize,
        rates: ProbeRates,
    ) -> SlabModel {
        let live_pairs_sum = (rows * n_pairs) as u64;
        let live_evals = live_pairs_sum * n_cols as u64;
        SlabModel {
            rows,
            n_cols,
            n_bins,
            live_rows: rows,
            live_pairs_sum,
            live_evals,
            entries: (rates.frac_active * live_evals as f64).round() as u64,
            culled_combos: 0,
            touched_sum: (rows * (n_pairs + 1)) as u64,
            rates,
        }
    }
}

/// The `set_two` launch domain a candidate runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShapeKind {
    Dense,
    Banded,
    Compact,
}

/// Same-address serialization estimate for `n` atomics spread over
/// `domain` addresses: the worst single cell ([`ProbeRates::max_mult`],
/// passed as `mult_floor`) or — when the domain aliases into fewer chain
/// buckets than there are operations — the pigeonhole bound over the
/// estimator's stripes, whichever is larger.
fn chain_estimate(ops: u64, mult_floor: u64, domain: u64) -> u64 {
    if ops == 0 {
        return 0;
    }
    let buckets = domain.clamp(1, ChainEstimator::BUCKETS as u64);
    mult_floor.max(ops.div_ceil(buckets))
}

/// Build the modeled [`Cost`] of one slab's main `set_two` launch, exactly
/// mirroring what `gpu::launch_set_two` charges per element, per shape,
/// and per accumulation strategy.
fn main_kernel_cost(
    m: &SlabModel,
    shape: ShapeKind,
    accum: AccumPlan,
    layout: Layout,
    table_mode: bool,
) -> Cost {
    let evals = match shape {
        ShapeKind::Dense | ShapeKind::Banded => m.live_evals,
        ShapeKind::Compact => m.entries,
    };
    let active = m.entries;
    let mut cost = Cost::default();
    // Index arithmetic + differential/cutoff logic, every element.
    cost.flops += (6 + FLOPS_PER_PAIR) * evals;
    // Intensity fetch: flat reads two f64; the pointer layout adds a 16 B
    // pointer chase on top of the two element reads.
    let intensity_bytes: u64 = match layout {
        Layout::Flat1d => 16,
        Layout::Pointer3d => 32,
    };
    if table_mode {
        cost.mem_bytes += intensity_bytes * evals;
        // Above the cutoff: two depth-table reads instead of triangulation.
        cost.mem_bytes += 16 * active;
        cost.flops += (m.rates.extra_flops_per_active_table * active as f64) as u64;
    } else {
        // In-kernel mode reads the pixel position (24 B) and both wire
        // centres (48 B) for every element, then triangulates the active
        // ones.
        cost.mem_bytes += (MEM_BYTES_PER_PAIR - 16 + intensity_bytes) * evals;
        cost.flops += (m.rates.extra_flops_per_active_inkernel * active as f64) as u64;
    }
    let privatized_pixels = match shape {
        ShapeKind::Banded => m.live_rows * m.n_cols,
        ShapeKind::Dense | ShapeKind::Compact => m.rows * m.n_cols,
    } as u64;
    // Shape-specific descriptor traffic.
    match shape {
        ShapeKind::Dense => {}
        // Combo descriptor (atomic) or live-pair descriptor (privatized):
        // one u64 fetch per element either way.
        ShapeKind::Banded => cost.mem_bytes += COMPACT_ENTRY_BYTES * evals,
        ShapeKind::Compact => {
            // Work-list readback, one u64 per entry; the privatized kernel
            // additionally fetches each pixel's CSR offset.
            cost.mem_bytes += COMPACT_ENTRY_BYTES * evals;
            if matches!(accum, AccumPlan::Privatized { .. }) {
                cost.mem_bytes += 8 * privatized_pixels;
            }
        }
    }
    let deposits = (m.rates.deposits_per_active * active as f64).round() as u64;
    let out_domain = match layout {
        Layout::Flat1d => (m.n_bins * m.rows * m.n_cols) as u64,
        // Per-bin buffers restart indexing at 0: bins alias buckets.
        Layout::Pointer3d => (m.rows * m.n_cols) as u64,
    };
    let pointer_fetch = match layout {
        Layout::Flat1d => 0,
        Layout::Pointer3d => 8,
    };
    match accum {
        AccumPlan::Atomic { .. } => {
            cost.atomic_ops += deposits;
            cost.mem_bytes += (8 + pointer_fetch) * deposits;
            cost.atomic_max_chain = chain_estimate(deposits, m.rates.max_mult, out_domain);
        }
        AccumPlan::Privatized { pixels_per_block } => {
            // Tile read-modify-writes, then the epilogue's full tile scan.
            cost.shared_bytes += 16 * deposits;
            cost.shared_bytes += 8 * privatized_pixels * m.n_bins as u64;
            cost.flops += privatized_pixels * m.n_bins as u64;
            let commits = (m.rates.commits_per_active * active as f64).round() as u64;
            cost.atomic_ops += commits;
            cost.mem_bytes += (8 + pointer_fetch) * commits;
            // Each cell commits exactly once; only bucket aliasing chains.
            cost.atomic_max_chain = chain_estimate(commits, 1, out_domain);
            cost.shared_request = (pixels_per_block * m.n_bins * 8) as u64;
        }
    }
    cost
}

/// Modeled [`Cost`] of the prescan launch (sparsity pass enabled and the
/// slab has live rows), mirroring `gpu::launch_prescan`: per-pixel column
/// reads + compare FLOPs, the work-list emit when the slab compacts, and
/// one block-leader counter atomic per block — all hitting the same cell,
/// so the chain equals the block count.
fn prescan_cost(m: &SlabModel, emit_entries: bool) -> Option<Cost> {
    if m.live_rows == 0 {
        return None;
    }
    let threads = (m.live_rows * m.n_cols) as u64;
    let blocks = threads.div_ceil(BLOCK_SIZE);
    let mut cost = Cost {
        flops: 2 * m.n_cols as u64 * m.live_pairs_sum,
        mem_bytes: 8 * m.n_cols as u64 * m.touched_sum + 8 * blocks,
        atomic_ops: blocks,
        atomic_max_chain: blocks,
        ..Cost::default()
    };
    if emit_entries {
        cost.mem_bytes += COMPACT_ENTRY_BYTES * m.entries;
    }
    Some(cost)
}

/// What the planner decided for one slab.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlabDecision {
    /// Launch over the compacted work-list instead of the dense/banded
    /// domain.
    pub(crate) compact: bool,
    /// Accumulation strategy of the main launch.
    pub(crate) accum: AccumPlan,
    /// Predicted prescan + main kernel time, seconds.
    pub(crate) kernel_s: f64,
}

/// Joint per-slab decision: enumerate the launch shapes the compaction
/// mode allows × the accumulation strategies the accumulation mode allows,
/// cost each combination with the device's roofline model, and pick the
/// cheapest. Fixed modes degenerate to a single candidate, so the planner
/// reproduces forced behaviour exactly.
///
/// Tie-breaks (relative 1e-9): the non-compacted shape wins — at full
/// density compaction only adds work-list traffic — and privatized
/// accumulation wins, since its measured edge on real contention exceeds
/// what the model resolves at tie distance.
pub(crate) fn plan_slab(
    props: &DeviceProps,
    m: &SlabModel,
    layout: Layout,
    table_mode: bool,
    compaction: CompactionMode,
    accumulation: AccumulationMode,
) -> SlabDecision {
    let accum_candidates: Vec<AccumPlan> = match accumulation {
        AccumulationMode::Atomic => vec![AccumPlan::Atomic { fallback: false }],
        AccumulationMode::Privatized => vec![plan_accumulation(props, m.n_bins, accumulation)],
        AccumulationMode::Auto => match plan_accumulation(props, m.n_bins, accumulation) {
            AccumPlan::Privatized { pixels_per_block } => vec![
                AccumPlan::Privatized { pixels_per_block },
                AccumPlan::Atomic { fallback: false },
            ],
            // One bin row exceeds shared memory: atomics are forced, and
            // the fallback flag keeps the stats attribution honest.
            fallback => vec![fallback],
        },
    };
    if m.live_evals == 0 {
        // Every pair culled: no launch at all; the flags only feed stats.
        return SlabDecision {
            compact: matches!(compaction, CompactionMode::On),
            accum: accum_candidates[0],
            kernel_s: 0.0,
        };
    }
    let noncompact = if m.culled_combos > 0 {
        ShapeKind::Banded
    } else {
        ShapeKind::Dense
    };
    let shape_candidates: Vec<(bool, ShapeKind)> = match compaction {
        CompactionMode::Off => vec![(false, ShapeKind::Dense)],
        CompactionMode::On => vec![(true, ShapeKind::Compact)],
        CompactionMode::Auto => vec![(false, noncompact), (true, ShapeKind::Compact)],
    };
    let mut best: Option<SlabDecision> = None;
    for &(compact, shape) in &shape_candidates {
        // The prescan runs whenever the sparsity pass is enabled; only the
        // work-list emit depends on the shape decision.
        let prescan_s = if compaction.enabled() {
            prescan_cost(m, compact).map_or(0.0, |c| props.kernel_time(&c))
        } else {
            0.0
        };
        for &accum in &accum_candidates {
            let main_s = if shape == ShapeKind::Compact && m.entries == 0 {
                0.0 // empty work-list: the main launch is skipped
            } else {
                props.kernel_time(&main_kernel_cost(m, shape, accum, layout, table_mode))
            };
            let total = prescan_s + main_s;
            let better = match &best {
                None => true,
                Some(b) => total < b.kernel_s * (1.0 - 1e-9),
            };
            if better {
                best = Some(SlabDecision {
                    compact,
                    accum,
                    kernel_s: total,
                });
            }
        }
    }
    best.expect("at least one shape × accumulation candidate")
}

/// Host-side analogue of the compaction cost comparison, replacing the
/// former fixed density threshold. Compacted execution visits only the
/// `active` pairs but pays the work-list emit + read
/// (2 × [`COMPACT_ENTRY_BYTES`]) on top of each pair's dense traffic;
/// dense execution visits every `live` pair at [`MEM_BYTES_PER_PAIR`].
/// Compact FLOPs are a strict subset of dense FLOPs (the skipped pairs are
/// all below the cutoff), so on the host roofline —
/// `max(compute, memory)` — compacting wins exactly when its memory term
/// does. The implied crossover density is 88 / 104 ≈ 0.85, now derived
/// from the charge constants instead of hard-coded.
pub fn host_compaction_wins(live_pairs: u64, active_pairs: u64) -> bool {
    (MEM_BYTES_PER_PAIR + 2 * COMPACT_ENTRY_BYTES) * active_pairs <= MEM_BYTES_PER_PAIR * live_pairs
}

/// Depth-table cache warmth, fed into [`plan_run`] so predictions account
/// for what a previous run already paid (the cache's peek methods answer
/// these without perturbing LRU order or hit statistics).
#[derive(Debug, Clone, Copy, Default)]
pub struct TableWarmth {
    /// The host-side table for this scan is cached: no triangulation FLOPs.
    pub host_warm: bool,
    /// The table is already device-resident: no upload either.
    pub device_warm: bool,
    /// Device-resident byte budget (0 disables residency).
    pub resident_budget: u64,
}

/// One scored candidate from the run-level enumeration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedCandidate {
    /// Stable label, e.g. `flat1d/inkernel/k3/r128`.
    pub label: String,
    /// Predicted virtual makespan, seconds.
    pub predicted_s: f64,
    /// Modeled host-CPU table/cull seconds (parallel to the makespan).
    pub host_s: f64,
}

/// The shape of one GPU run, resolved once: the executor runs it, the
/// journal is keyed on it, and the run report reads it. `nodes` chassis
/// of `devices` GPUs each; every device runs `options` on a ring `depth`
/// slots deep over slabs of `rows_per_slab` rows, and the node images
/// gather to the head node under `reduction` (one node sends nothing, so
/// there it changes no time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Chassis in the run.
    pub nodes: usize,
    /// GPUs per chassis.
    pub devices: usize,
    /// Layout and triangulation of every device.
    pub options: GpuOptions,
    /// Ring depth of every device.
    pub depth: PipelineDepth,
    /// Detector rows per slab; `None` fits each band to device memory.
    pub rows_per_slab: Option<usize>,
    /// Inter-node reduction routing and overlap.
    pub reduction: ClusterOptions,
}

/// The execution choices a caller pins, each `None` when left to the plan:
/// [`Plan::fixed`] takes the engine's default for it, [`plan_auto`]
/// searches it. Slab rows are pinned by
/// [`ReconstructionConfig::rows_per_slab`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pins {
    /// Ring depth of every device.
    pub depth: Option<PipelineDepth>,
    /// Inter-node reduction routing.
    pub topology: Option<ReductionTopology>,
    /// Overlap the reduction with the compute tail.
    pub overlap: Option<bool>,
}

impl Plan {
    /// The fixed plan of a `nodes × devices` run of `options`: a ring
    /// `depth` slots deep unless `pins` pins another, slabs of
    /// [`ReconstructionConfig::rows_per_slab`] rows, reducing over the
    /// pinned topology and overlap where given (tree, overlapped
    /// otherwise). One node sends nothing, so there a pinned reduction
    /// stays out of the plan, as under [`plan_auto`]. Every engine alias
    /// and every standalone single-GPU entry point resolves its fixed plan
    /// here.
    pub fn fixed(
        nodes: usize,
        devices: usize,
        options: GpuOptions,
        depth: PipelineDepth,
        cfg: &ReconstructionConfig,
        pins: Pins,
    ) -> Plan {
        let default = ClusterOptions::default();
        Plan {
            nodes,
            devices,
            options,
            depth: pins.depth.unwrap_or(depth),
            rows_per_slab: cfg.rows_per_slab,
            reduction: if nodes == 1 {
                default
            } else {
                ClusterOptions {
                    topology: pins.topology.unwrap_or(default.topology),
                    overlap: pins.overlap.unwrap_or(default.overlap),
                }
            },
        }
    }
}

/// A plan the cost model selected, with what the explain block reports.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// The winning plan; its slab rows are always set (feasible by
    /// construction).
    pub plan: Plan,
    /// Predicted virtual makespan of the winner, seconds.
    pub predicted_s: f64,
    /// Modeled host-CPU seconds of the winner.
    pub host_s: f64,
    /// The winner's label, e.g. `flat1d/inkernel/k2/r103` on one node or
    /// `n8x1/tree+overlap` on more.
    pub label: String,
    /// Every scored candidate, enumeration order.
    pub candidates: Vec<PlannedCandidate>,
}

fn layout_label(layout: Layout) -> &'static str {
    match layout {
        Layout::Flat1d => "flat1d",
        Layout::Pointer3d => "ptr3d",
    }
}

fn triangulation_label(t: Triangulation) -> &'static str {
    match t {
        Triangulation::InKernel => "inkernel",
        Triangulation::HostTables => "tables",
    }
}

/// Enumerate and score run-level execution plans for `source` on the
/// device described by `props`, returning the predicted-cheapest feasible
/// one. Per-slab knobs (compaction, accumulation) are resolved inside each
/// candidate via `plan_slab` under the modes in `cfg`, exactly as the
/// executor resolves them; a pinned [`ReconstructionConfig::rows_per_slab`]
/// is the only slab height priced. A source that disagrees with `geom` or
/// an invalid `cfg` fails as the executor would, with a typed error. With
/// compaction on, the planner builds its own full-detector edge table for
/// its wire-shadow cull and keeps only the cull; [`plan_auto`] can read a
/// cached table instead.
pub fn plan_run(
    props: &DeviceProps,
    host: &HostProps,
    source: &mut dyn SlabSource,
    geom: &ScanGeometry,
    cfg: &ReconstructionConfig,
    warmth: TableWarmth,
) -> Result<RunPlan> {
    plan_run_cached(props, host, source, geom, cfg, warmth, None, None)
}

/// [`plan_run`] at the pinned ring `depth` when given, reading the edge
/// table's wire-shadow cull from `cache` when given.
#[allow(clippy::too_many_arguments)]
fn plan_run_cached(
    props: &DeviceProps,
    host: &HostProps,
    source: &mut dyn SlabSource,
    geom: &ScanGeometry,
    cfg: &ReconstructionConfig,
    warmth: TableWarmth,
    depth_pin: Option<PipelineDepth>,
    cache: Option<&DepthTableCache>,
) -> Result<RunPlan> {
    validate_inputs(source, geom, cfg)?;
    let mapper = geom.mapper()?;
    let (n_images, n_rows, n_cols) = (source.n_images(), source.n_rows(), source.n_cols());
    let n_pairs = n_images - 1;
    let n_bins = cfg.n_depth_bins;
    let n_steps = geom.wire.n_steps;

    // The planner reads the edge table only through the cull: without a
    // cache the depths drop as soon as the cull is out.
    let all_rows = 0..n_rows;
    let all_rows = std::slice::from_ref(&all_rows);
    let cull = cfg
        .compaction
        .enabled()
        .then(|| EdgeTable::resolve(cache, geom, &mapper, cfg, false, all_rows))
        .flatten()
        .map(|edges| Arc::clone(edges.cull()));

    // Probe a few single-row bands spread across the detector; merged sums
    // stand in for the whole stack's intensity statistics.
    let mut probe = SlabProbe::default();
    let mut probe_rows: Vec<usize> = [0, n_rows / 4, n_rows / 2, (3 * n_rows) / 4]
        .into_iter()
        .map(|r| r.min(n_rows - 1))
        .collect();
    probe_rows.dedup();
    for &r in &probe_rows {
        let slab = source.read_slab(r, 1)?;
        let live = cull.as_ref().map(|cull| vec![cull.live_pairs(cfg, r)]);
        probe.merge(&SlabProbe::sample(
            &slab,
            geom,
            &mapper,
            cfg,
            n_images,
            r,
            1,
            n_cols,
            live.as_deref(),
        ));
    }
    let rates = probe.rates();

    let table_bytes = (n_images * n_rows * n_cols * 8) as u64;
    let wire_bytes = (n_steps * 3 * 8) as u64;
    let table_mode_host_flops = EdgeTable::build_flops(geom, n_rows);
    let cull_host_flops = cull.as_ref().map_or(0, |_| table_mode_host_flops);

    let depths = depth_pin.map_or(vec![1, 2, 3], |d| vec![d.0]);
    let mut candidates = Vec::new();
    let mut best: Option<RunPlan> = None;
    let mut last_fit_error = None;
    for layout in [Layout::Flat1d, Layout::Pointer3d] {
        for triangulation in [Triangulation::InKernel, Triangulation::HostTables] {
            let table_mode = triangulation == Triangulation::HostTables;
            let resident =
                table_mode && (warmth.device_warm || warmth.resident_budget >= table_bytes);
            let opts = GpuOptions {
                layout,
                triangulation,
            };
            // Mirror `run_ring`: a resident table leaves the per-slab
            // working set, and the budget excludes what is already
            // allocated (wires, resident table).
            let sizing_opts = if resident {
                GpuOptions {
                    triangulation: Triangulation::InKernel,
                    ..opts
                }
            } else {
                opts
            };
            let mut used = round_alloc(wire_bytes);
            if resident {
                used += round_alloc(table_bytes);
            }
            let budget = props.total_mem.saturating_sub(used);
            for &depth in &depths {
                // Slots-halving fit loop, as the ring runs it.
                let mut slots = depth;
                let fit = match cfg.rows_per_slab {
                    Some(r) => Some(r.min(n_rows)),
                    None => loop {
                        match fit_rows_per_slab(
                            budget,
                            n_rows,
                            n_images,
                            n_cols,
                            n_bins,
                            sizing_opts,
                            slots,
                            cfg.compaction,
                        ) {
                            Ok(r) => break Some(r),
                            Err(e @ CoreError::DeviceCapacity { .. }) => {
                                if slots > 1 {
                                    slots = (slots / 2).max(1);
                                } else {
                                    last_fit_error = Some(e);
                                    break None;
                                }
                            }
                            Err(e) => return Err(e),
                        }
                    },
                };
                let Some(fit_rows) = fit else { continue };
                let mut row_variants = vec![fit_rows];
                if cfg.rows_per_slab.is_none() && fit_rows > 1 {
                    row_variants.push((fit_rows / 2).max(1));
                }
                row_variants.dedup();
                for rows_per_slab in row_variants {
                    // Fixed per-run prologue: the wire table ships once; a
                    // cold resident table uploads as one batched
                    // transaction.
                    let mut pre = props.transfer_time(wire_bytes);
                    if resident && !warmth.device_warm {
                        pre += props.transfer_time(table_bytes);
                    }
                    let (mut sum_up, mut sum_down, mut sum_kernel) = (0.0f64, 0.0f64, 0.0f64);
                    let (mut first_up, mut last_down) = (0.0f64, 0.0f64);
                    let mut serial = 0.0f64;
                    // Payload bytes the integrity layer would CRC (both
                    // directions; the wire table and a cold resident table
                    // are checked too).
                    let mut checked_bytes = wire_bytes;
                    if resident && !warmth.device_warm {
                        checked_bytes += table_bytes;
                    }
                    let mut row0 = 0usize;
                    let mut first = true;
                    while row0 < n_rows {
                        let rows = rows_per_slab.min(n_rows - row0);
                        let model = match &cull {
                            Some(cull) => {
                                let bp = cull.band_profile(cfg, row0..row0 + rows);
                                let live_evals = bp.live_combos * n_cols as u64;
                                SlabModel {
                                    rows,
                                    n_cols,
                                    n_bins,
                                    live_rows: bp.live_rows,
                                    live_pairs_sum: bp.live_combos,
                                    live_evals,
                                    entries: (rates.frac_active * live_evals as f64).round() as u64,
                                    culled_combos: bp.culled_combos,
                                    touched_sum: bp.touched_sum,
                                    rates,
                                }
                            }
                            None => SlabModel::dense(rows, n_cols, n_bins, n_pairs, rates),
                        };
                        let decision = plan_slab(
                            props,
                            &model,
                            layout,
                            table_mode,
                            cfg.compaction,
                            cfg.accumulation,
                        );
                        // Upload: all f64 pieces coalesce into one batched
                        // transaction; the pointer layout pays a second
                        // (u64) transaction for its pointer tables.
                        let mut f64_bytes = (rows * n_cols * 3 * 8) as u64; // pixels
                        if table_mode && !resident {
                            f64_bytes += (n_images * rows * n_cols * 8) as u64;
                        }
                        f64_bytes += (n_images * rows * n_cols * 8) as u64; // intensity
                        let mut t_up = props.transfer_time(f64_bytes);
                        if layout == Layout::Pointer3d {
                            t_up += props.transfer_time(((n_images + n_bins) * 8) as u64);
                        }
                        // Download: flat is one D2H; the pointer layout pays
                        // the transfer latency once per output bin.
                        let down_bytes = (n_bins * rows * n_cols * 8) as u64;
                        let t_down = match layout {
                            Layout::Flat1d => props.transfer_time(down_bytes),
                            Layout::Pointer3d => {
                                n_bins as f64 * props.pcie_latency
                                    + down_bytes as f64 / props.pcie_bw
                            }
                        };
                        checked_bytes += f64_bytes + down_bytes;
                        sum_up += t_up;
                        sum_down += t_down;
                        sum_kernel += decision.kernel_s;
                        serial += t_up + decision.kernel_s + t_down;
                        if first {
                            first_up = t_up;
                            first = false;
                        }
                        last_down = t_down;
                        row0 += rows;
                    }
                    // Makespan: depth 1 is a strict upload → kernel →
                    // download chain. Deeper rings overlap, bounded below
                    // by the shared half-duplex bus (every transfer
                    // serializes) and by the compute path — PR 6's model
                    // makes the max of the two a tight estimate.
                    let predicted_s = if slots == 1 {
                        pre + serial
                    } else {
                        let bus = sum_up + sum_down;
                        let compute = first_up + sum_kernel + last_down;
                        pre + bus.max(compute)
                    };
                    let mut host_flops = cull_host_flops;
                    if table_mode && !warmth.host_warm {
                        host_flops += table_mode_host_flops;
                    }
                    if cfg.integrity.enabled() {
                        // CRC64: two passes (send side + landed side) over
                        // every checked payload byte, charged to the
                        // overlapped host CPU exactly as the engine does.
                        host_flops += 2 * cuda_sim::Device::CRC64_FLOPS_PER_BYTE * checked_bytes;
                        // ABFT: one dense host recompute of every slab —
                        // triangulation for each (image, pixel) plus the
                        // per-pair deposit work, mirroring the in-kernel
                        // cost model on the host side.
                        let evals = (n_pairs * n_rows * n_cols) as u64;
                        host_flops += table_mode_host_flops
                            + FLOPS_PER_PAIR * evals
                            + (rates.frac_active
                                * evals as f64
                                * rates.extra_flops_per_active_inkernel)
                                as u64;
                    }
                    let host_s = host.kernel_time(
                        &Cost {
                            flops: host_flops,
                            ..Cost::default()
                        },
                        1,
                    );
                    let label = format!(
                        "{}/{}/k{}/r{}",
                        layout_label(layout),
                        triangulation_label(triangulation),
                        depth,
                        rows_per_slab
                    );
                    candidates.push(PlannedCandidate {
                        label: label.clone(),
                        predicted_s,
                        host_s,
                    });
                    if best.as_ref().is_none_or(|b| predicted_s < b.predicted_s) {
                        best = Some(RunPlan {
                            plan: Plan {
                                nodes: 1,
                                devices: 1,
                                options: opts,
                                depth: PipelineDepth(depth),
                                rows_per_slab: Some(rows_per_slab),
                                reduction: ClusterOptions::default(),
                            },
                            predicted_s,
                            host_s,
                            label,
                            candidates: Vec::new(),
                        });
                    }
                }
            }
        }
    }
    let best = best.ok_or_else(|| {
        last_fit_error
            .unwrap_or_else(|| CoreError::InvalidConfig("no feasible execution plan".into()))
    })?;
    Ok(RunPlan { candidates, ..best })
}

/// Marginal speedup per extra device on one shared-bus chassis. PR 6
/// grounded intra-node multi-GPU at ~1.10× over eight devices (k ≥ 2 is
/// exactly bus-bound), so each extra device past the first buys ~1.4 %.
const INTRA_NODE_MARGINAL: f64 = 0.10 / 7.0;

/// Closed-form cluster makespan — `compute_s` plus the exposed reduction —
/// matching the executor's schedule shape: every byte funnels through the
/// head node's receive link (the gather bound), plus the route's
/// store-and-forward latency for the farthest node, with per-message
/// overhead multiplied out under fine-grained overlap segments.
#[allow(clippy::too_many_arguments)]
fn reduction_estimate(
    net: &InterconnectProps,
    nodes: usize,
    topology: ReductionTopology,
    overlap: bool,
    compute_s: f64,
    n_rows: usize,
    n_cols: usize,
    n_bins: usize,
    rows_per_slab: usize,
) -> f64 {
    if nodes <= 1 {
        return compute_s;
    }
    let bands = node_bands(n_rows, nodes);
    let msg = |rows: usize| net.message_time(reduction_segment_bytes(rows, n_cols, n_bins));
    let max_hops = (1..bands.len())
        .map(|i| route_hops(topology, i))
        .max()
        .unwrap_or(0);
    if !overlap {
        // One whole-band message per node after a global barrier: the head
        // link drains them serially; the farthest route stacks its hops.
        let drain: f64 = bands[1..].iter().map(|b| msg(b.len())).sum();
        let path = bands[1..]
            .iter()
            .enumerate()
            .map(|(i, b)| route_hops(topology, i + 1) as f64 * msg(b.len()))
            .fold(0.0, f64::max);
        compute_s + drain.max(path)
    } else {
        // Slab-sized segments released across the compute window: the
        // drain can start almost immediately, so only the tail past the
        // slowest node's compute is exposed — at minimum, the last
        // segment's own trip down its route.
        let drain: f64 = bands[1..]
            .iter()
            .map(|b| {
                let slabs = b.len().div_ceil(rows_per_slab).max(1);
                let per = b.len().div_ceil(slabs);
                slabs as f64 * msg(per)
            })
            .sum();
        let last_rows = bands.last().unwrap().len().min(rows_per_slab).max(1);
        let tail = max_hops as f64 * msg(last_rows);
        (compute_s + tail).max(drain + tail)
    }
}

/// The one `--plan auto` entry: price a run on `nodes` chassis of
/// `devices` GPUs each with the per-device enumeration of [`plan_run`]
/// (at the pinned ring depth, when `pins` pins one), its makespan scaled
/// by the slowest node's row share (bands are row-uniform to first order)
/// and by the shared-chassis margin of the extra devices per node
/// (`INTRA_NODE_MARGINAL`). A one-node plan keeps the per-device label and
/// candidates. On more than one node the planner also sweeps node count ×
/// reduction topology × overlap, each unpinned one over both its values,
/// each reduction estimated like the executor's head-link-bound schedule;
/// the reduction is the argmin at the requested node count, and the sweep
/// over power-of-two counts below it is reported in `candidates`, so
/// scaling studies can read the priced curve. With a `cache`, the edge
/// table and the wire-shadow cull built with it come from it
/// ([`EdgeTable::resolve`]), so the run that follows reads the same table
/// instead of building a second one; the predictions are the same either
/// way.
#[allow(clippy::too_many_arguments)]
pub fn plan_auto(
    props: &DeviceProps,
    host: &HostProps,
    net: &InterconnectProps,
    nodes: usize,
    devices: usize,
    pins: Pins,
    source: &mut dyn SlabSource,
    geom: &ScanGeometry,
    cfg: &ReconstructionConfig,
    warmth: TableWarmth,
    cache: Option<&DepthTableCache>,
) -> Result<RunPlan> {
    if nodes == 0 || devices == 0 {
        return Err(CoreError::InvalidConfig(
            "a plan needs at least one node and one device per node".into(),
        ));
    }
    if pins.depth == Some(PipelineDepth(0)) {
        return Err(CoreError::InvalidConfig(
            "pipeline depth must be at least 1".into(),
        ));
    }
    let mut run = plan_run_cached(props, host, source, geom, cfg, warmth, pins.depth, cache)?;
    run.plan.nodes = nodes;
    run.plan.devices = devices;
    let intra = 1.0 + INTRA_NODE_MARGINAL * (devices - 1) as f64;
    if nodes == 1 {
        run.predicted_s /= intra;
        for c in &mut run.candidates {
            c.predicted_s /= intra;
        }
        return Ok(run);
    }
    let n_rows = source.n_rows();
    let rows_per_slab = run.plan.rows_per_slab.expect("the planner picks slab rows");
    let topologies = pins.topology.map_or(
        vec![ReductionTopology::Tree, ReductionTopology::Ring],
        |t| vec![t],
    );
    let overlaps = pins.overlap.map_or(vec![true, false], |o| vec![o]);
    let mut counts: Vec<usize> = Vec::new();
    let mut k = 1;
    while k < nodes {
        counts.push(k);
        k *= 2;
    }
    counts.push(nodes);

    let mut candidates = Vec::new();
    let mut best: Option<(ClusterOptions, f64)> = None;
    for &k in &counts {
        let max_band = node_bands(n_rows, k)
            .iter()
            .map(|b| b.len())
            .max()
            .unwrap_or(n_rows);
        let compute_s = run.predicted_s * max_band as f64 / n_rows as f64 / intra;
        for &topology in &topologies {
            for &overlap in &overlaps {
                let predicted_s = reduction_estimate(
                    net,
                    k,
                    topology,
                    overlap,
                    compute_s,
                    n_rows,
                    source.n_cols(),
                    cfg.n_depth_bins,
                    rows_per_slab,
                );
                let copts = ClusterOptions { topology, overlap };
                candidates.push(PlannedCandidate {
                    label: format!("n{k}x{devices}/{}", copts.label()),
                    predicted_s,
                    host_s: run.host_s,
                });
                if k == nodes && best.is_none_or(|(_, b)| predicted_s < b) {
                    best = Some((copts, predicted_s));
                }
            }
        }
    }
    let (reduction, predicted_s) = best.expect("requested node count is always priced");
    Ok(RunPlan {
        plan: Plan {
            reduction,
            ..run.plan
        },
        predicted_s,
        label: format!("n{nodes}x{devices}/{}", reduction.label()),
        candidates,
        ..run
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::InMemorySlabSource;

    /// Small demo geometry plus a stack with gradually decaying
    /// intensities, so a healthy fraction of pairs clear the cutoff.
    fn test_scene() -> (ScanGeometry, Vec<f64>) {
        let geom = ScanGeometry::demo(6, 6, 10, -60.0, 6.0).unwrap();
        let (p, m, n) = (
            geom.wire.n_steps,
            geom.detector.n_rows,
            geom.detector.n_cols,
        );
        let stack: Vec<f64> = (0..p * m * n)
            .map(|i| {
                let z = i / (m * n);
                100.0 - 7.0 * z as f64 + (i % 5) as f64
            })
            .collect();
        (geom, stack)
    }

    /// Memory-bound rates: few deposits per active pair, so the element
    /// traffic (not the atomic term) decides the shape comparison.
    fn test_rates() -> ProbeRates {
        ProbeRates {
            frac_active: 0.25,
            deposits_per_active: 0.5,
            commits_per_active: 0.4,
            max_mult: 3,
            extra_flops_per_active_inkernel: 110.0,
            extra_flops_per_active_table: 12.0,
        }
    }

    fn model_with_density(density: f64) -> SlabModel {
        let (rows, n_cols, n_pairs) = (32usize, 48usize, 15usize);
        let live_pairs_sum = (rows * n_pairs) as u64;
        let live_evals = live_pairs_sum * n_cols as u64;
        SlabModel {
            rows,
            n_cols,
            n_bins: 200,
            live_rows: rows,
            live_pairs_sum,
            live_evals,
            entries: (density * live_evals as f64).round() as u64,
            culled_combos: 0,
            touched_sum: (rows * (n_pairs + 1)) as u64,
            rates: ProbeRates {
                frac_active: density,
                ..test_rates()
            },
        }
    }

    #[test]
    fn plan_auto_prices_the_node_sweep_and_scales_compute_down() {
        let (geom, stack) = test_scene();
        let source = InMemorySlabSource::new(
            stack,
            geom.wire.n_steps,
            geom.detector.n_rows,
            geom.detector.n_cols,
        )
        .unwrap();
        let cfg = ReconstructionConfig::new(-1500.0, 1500.0, 60);
        let (props, host) = (DeviceProps::tesla_m2070(), HostProps::xeon_e5630());
        let warmth = TableWarmth::default();
        let per_device = plan_run(&props, &host, &mut source.clone(), &geom, &cfg, warmth).unwrap();
        let plan = |nodes, devices| {
            let net = InterconnectProps::ib_qdr();
            let mut source = source.clone();
            plan_auto(
                &props,
                &host,
                &net,
                nodes,
                devices,
                Pins::default(),
                &mut source,
                &geom,
                &cfg,
                warmth,
                None,
            )
            .unwrap()
        };

        let cluster = plan(4, 1);
        // counts {1, 2, 4} × 2 topologies × 2 overlap settings.
        assert_eq!(cluster.candidates.len(), 12);
        assert!(cluster.label.starts_with("n4x1/"));
        // The devices run the per-device winner.
        assert_eq!((cluster.plan.nodes, cluster.plan.devices), (4, 1));
        assert_eq!(cluster.plan.options, per_device.plan.options);
        assert_eq!(cluster.plan.depth, per_device.plan.depth);
        assert_eq!(cluster.plan.rows_per_slab, per_device.plan.rows_per_slab);
        // Four nodes compute the largest band's share, and each reduction
        // is priced on top of that scaled compute.
        let (n_rows, n_cols) = (geom.detector.n_rows, geom.detector.n_cols);
        let max_band = node_bands(n_rows, 4).iter().map(|b| b.len()).max().unwrap();
        let compute_s = per_device.predicted_s * max_band as f64 / n_rows as f64;
        assert!(compute_s < per_device.predicted_s);
        let mut n4 = Vec::new();
        for topology in [ReductionTopology::Tree, ReductionTopology::Ring] {
            for overlap in [true, false] {
                let label = format!("n4x1/{}", ClusterOptions { topology, overlap }.label());
                let priced = cluster.candidates.iter().find(|c| c.label == label);
                let expected = reduction_estimate(
                    &InterconnectProps::ib_qdr(),
                    4,
                    topology,
                    overlap,
                    compute_s,
                    n_rows,
                    n_cols,
                    60,
                    per_device.plan.rows_per_slab.unwrap(),
                );
                assert_eq!(priced.map(|c| c.predicted_s), Some(expected), "{label}");
                n4.push(expected);
            }
        }
        // The reduction is the argmin at the requested count; on a fast
        // fabric the overlapped variant never loses there.
        assert_eq!(
            cluster.predicted_s,
            n4.iter().copied().fold(f64::MAX, f64::min)
        );
        assert!(cluster.plan.reduction.overlap);
        // Single node is priced with zero reduction.
        let n1: Vec<_> = cluster
            .candidates
            .iter()
            .filter(|c| c.label.starts_with("n1x1/"))
            .collect();
        assert!(n1
            .iter()
            .all(|c| (c.predicted_s - per_device.predicted_s).abs() < 1e-12));

        // One node keeps the per-device plan, label and candidates; extra
        // devices on the chassis only scale the prediction down.
        let single = plan(1, 1);
        assert_eq!(single.plan, per_device.plan);
        assert_eq!(single.label, per_device.label);
        assert_eq!(single.predicted_s, per_device.predicted_s);
        assert_eq!(single.candidates, per_device.candidates);
        let fleet = plan(1, 4);
        assert_eq!(
            fleet.plan,
            Plan {
                devices: 4,
                ..per_device.plan
            }
        );
        assert_eq!(fleet.label, per_device.label);
        let intra = 1.0 + INTRA_NODE_MARGINAL * 3.0;
        assert_eq!(fleet.predicted_s, per_device.predicted_s / intra);
        assert!(fleet
            .candidates
            .iter()
            .any(|c| c.label == fleet.label && c.predicted_s == fleet.predicted_s));
    }

    #[test]
    fn reduction_estimate_rewards_overlap_when_compute_dominates() {
        // Fabric sized so the drain is a visible fraction of compute but
        // does not dominate it — the regime where releasing segments
        // during the compute window actually hides them.
        let fabric = InterconnectProps {
            name: "fabric".to_string(),
            bandwidth_bytes_per_s: 1.0e9,
            latency_s: 1.0e-6,
            duplex: cuda_sim::Duplex::Full,
        };
        let compute = 0.01;
        let on = reduction_estimate(
            &fabric,
            8,
            ReductionTopology::Tree,
            true,
            compute,
            64,
            48,
            200,
            8,
        );
        let off = reduction_estimate(
            &fabric,
            8,
            ReductionTopology::Tree,
            false,
            compute,
            64,
            48,
            200,
            8,
        );
        let (on_exposed, off_exposed) = (on - compute, off - compute);
        assert!(off_exposed > 0.0);
        assert!(on < off, "overlap must hide part of the reduction");
        assert!(on_exposed < off_exposed);
        // Ring routes pay at least as much as tree under a barrier.
        let off_ring = reduction_estimate(
            &fabric,
            8,
            ReductionTopology::Ring,
            false,
            compute,
            64,
            48,
            200,
            8,
        );
        assert!(off_ring >= off);

        // When the fabric is so slow the drain dwarfs compute, the extra
        // tail makes overlap a net loss — the trade-off plan_auto
        // prices instead of assuming overlap always wins.
        let swamp = InterconnectProps {
            bandwidth_bytes_per_s: 1.0e6,
            ..fabric
        };
        let on_slow = reduction_estimate(
            &swamp,
            8,
            ReductionTopology::Tree,
            true,
            compute,
            64,
            48,
            200,
            8,
        );
        let off_slow = reduction_estimate(
            &swamp,
            8,
            ReductionTopology::Tree,
            false,
            compute,
            64,
            48,
            200,
            8,
        );
        assert!(on_slow >= off_slow);
    }

    #[test]
    fn host_compaction_crossover_matches_charge_constants() {
        // wins at low density, loses at full density; crossover ≈ 0.846.
        assert!(host_compaction_wins(1000, 250));
        assert!(!host_compaction_wins(1000, 1000));
        assert!(host_compaction_wins(1000, 846));
        assert!(!host_compaction_wins(1000, 847));
    }

    #[test]
    fn plan_slab_compacts_sparse_but_not_full_density() {
        let props = DeviceProps::tesla_m2070();
        let sparse = plan_slab(
            &props,
            &model_with_density(0.25),
            Layout::Flat1d,
            false,
            CompactionMode::Auto,
            AccumulationMode::Atomic,
        );
        assert!(sparse.compact, "25% density should compact");
        let full = plan_slab(
            &props,
            &model_with_density(1.0),
            Layout::Flat1d,
            false,
            CompactionMode::Auto,
            AccumulationMode::Atomic,
        );
        assert!(!full.compact, "full density must stay dense");
    }

    #[test]
    fn plan_slab_fixed_modes_are_honoured() {
        let props = DeviceProps::tesla_m2070();
        let m = model_with_density(0.25);
        let on = plan_slab(
            &props,
            &m,
            Layout::Flat1d,
            false,
            CompactionMode::On,
            AccumulationMode::Atomic,
        );
        assert!(on.compact);
        let off = plan_slab(
            &props,
            &m,
            Layout::Flat1d,
            false,
            CompactionMode::Off,
            AccumulationMode::Atomic,
        );
        assert!(!off.compact);
        assert!(matches!(on.accum, AccumPlan::Atomic { fallback: false }));
    }

    #[test]
    fn plan_slab_auto_accumulation_prefers_privatized_when_atomic_bound() {
        // Dense, deposit-heavy slab on the M2070: the CAS-loop atomic term
        // dominates the atomic candidate, so privatized must win — the
        // regime PR 5 measured at ~0.37×.
        let props = DeviceProps::tesla_m2070();
        let m = model_with_density(1.0);
        let d = plan_slab(
            &props,
            &m,
            Layout::Flat1d,
            false,
            CompactionMode::Off,
            AccumulationMode::Auto,
        );
        assert!(matches!(d.accum, AccumPlan::Privatized { .. }), "{d:?}");
    }

    #[test]
    fn plan_slab_auto_accumulation_falls_back_when_tile_does_not_fit() {
        let props = DeviceProps::tiny(64 * 1024);
        // 8 KiB shared / 8 B per bin = 1024 bins max; 2000 cannot fit.
        let mut m = model_with_density(0.5);
        m.n_bins = 2000;
        let d = plan_slab(
            &props,
            &m,
            Layout::Flat1d,
            false,
            CompactionMode::Off,
            AccumulationMode::Auto,
        );
        assert!(
            matches!(d.accum, AccumPlan::Atomic { fallback: true }),
            "{d:?}"
        );
    }

    #[test]
    fn probe_rates_are_sane_on_a_synthetic_stack() {
        let (geom, slab) = test_scene();
        let cfg = ReconstructionConfig::new(-1200.0, 1200.0, 120);
        let mapper = geom.mapper().unwrap();
        let n_images = geom.wire.n_steps;
        let (rows, n_cols) = (geom.detector.n_rows, geom.detector.n_cols);
        let probe = SlabProbe::sample(&slab, &geom, &mapper, &cfg, n_images, 0, rows, n_cols, None);
        assert!(probe.sampled_pixels > 0);
        assert_eq!(probe.evals, probe.sampled_pixels * (n_images as u64 - 1));
        let r = probe.rates();
        assert!((0.0..=1.0).contains(&r.frac_active));
        assert!(r.deposits_per_active >= 0.0);
        // In-kernel mode triangulates, table mode reads: the in-kernel
        // FLOP tail must dominate whenever anything was active.
        if probe.active > 0 {
            assert!(r.extra_flops_per_active_inkernel > r.extra_flops_per_active_table);
        }
    }

    #[test]
    fn plan_run_returns_a_feasible_scored_plan() {
        let (geom, images) = test_scene();
        let cfg = ReconstructionConfig::new(-1200.0, 1200.0, 120);
        let mut source = InMemorySlabSource::new(
            images,
            geom.wire.n_steps,
            geom.detector.n_rows,
            geom.detector.n_cols,
        )
        .unwrap();
        let props = DeviceProps::tesla_m2070();
        let host = HostProps::xeon_e5630();
        let plan = plan_run(
            &props,
            &host,
            &mut source,
            &geom,
            &cfg,
            TableWarmth::default(),
        )
        .unwrap();
        assert!(plan.predicted_s > 0.0);
        // 2 layouts × 2 triangulations × 3 depths, ≥ 1 row variant each.
        assert!(plan.candidates.len() >= 12, "{}", plan.candidates.len());
        assert!(plan.plan.rows_per_slab >= Some(1));
        let min = plan
            .candidates
            .iter()
            .map(|c| c.predicted_s)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(plan.predicted_s, min);
        assert!(plan
            .candidates
            .iter()
            .any(|c| c.label == plan.label && c.predicted_s == plan.predicted_s));
        // Warm table cache can only help candidates, never hurt them.
        let mut source2 = source.clone();
        let warm = plan_run(
            &props,
            &host,
            &mut source2,
            &geom,
            &cfg,
            TableWarmth {
                host_warm: true,
                device_warm: true,
                resident_budget: u64::MAX,
            },
        )
        .unwrap();
        assert!(warm.predicted_s <= plan.predicted_s + 1e-12);
    }
}
