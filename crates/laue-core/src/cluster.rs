//! Multi-node cluster reconstruction: row-band sharding across chassis
//! with a hierarchical, optionally compute-overlapped depth-image
//! reduction over a metered interconnect.
//!
//! [`reconstruct_cluster_checkpointed`] is the one checkpointed executor
//! behind every GPU engine: a single device is a 1×1 cluster and a
//! workstation fleet a 1×M one, so one code path runs 1 to N×M GPUs.
//!
//! The distributed-ptychography shape (PAPERS.md): the scan's detector
//! rows are banded across N nodes; each node runs its band through the
//! per-node fleet step in [`crate::multi`] (the privatized deterministic
//! commit *is* the intra-node reduction), and the per-node partial images
//! are then reduced to the head node over the fabric. Because bands are
//! disjoint, the inter-node "all-reduce" degenerates to an aggregation of
//! disjoint row segments — every cell of the final image is written by
//! exactly one node — so the result is bit-identical to the single-node
//! engine at every node count and under every reduction order. What the
//! topology and overlap settings change is *time*, which the
//! [`Interconnect`] meters exactly like PCIe inside a chassis:
//!
//! * [`ReductionTopology::Tree`] routes node `i`'s segments along the
//!   binomial path `i → i - lowbit(i) → … → 0` — `popcount(i)` hops, the
//!   fewest byte-hops, but bursty at the root.
//! * [`ReductionTopology::Ring`] forwards hop-by-hop `i → i-1 → … → 0` —
//!   `i` hops, more fabric traffic, but fine-grained: under a full-duplex
//!   NIC the relays receive one segment while forwarding another, and
//!   segments start moving the moment a neighbour commits.
//!
//! Both funnel every byte through the head node's receive link, so the
//! makespans converge to that bound as N grows; the topologies differ in
//! the latency term and in how well they overlap. With `overlap` on, a
//! segment enters the fabric when its slab commits (the tail of per-node
//! compute hides reduction traffic); with `overlap` off, reduction waits
//! for a global barrier at the slowest node's compute end and each node
//! ships its whole band as one message.
//!
//! Node loss generalizes PR 3's round-based failover one level up: a node
//! whose devices are all dead (the GPUs fail — the chassis, its NIC, and
//! the shared journal survive, as on a real cluster) drops out of the
//! round loop and its uncovered rows re-band onto surviving nodes.
//! Segments a node committed before dying are journal-durable and still
//! priced as traffic from that node's NIC. Only when zero nodes survive
//! does the error surface for CPU salvage.
//!
//! The head node applies arriving segments at no modeled CPU cost: the
//! adds land on zero-initialized disjoint rows (a memcpy in practice),
//! and the host-CPU resource models ahead-of-time table work, not
//! post-compute stitching.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::Range;

use cuda_sim::{Device, FaultStats, Interconnect, Meters};

use crate::cache::{DepthTableCache, TableCacheStats};
use crate::config::ReconstructionConfig;
use crate::error::CoreError;
use crate::geometry::ScanGeometry;
use crate::gpu::{GpuOptions, PipelineDepth, RecoveryLog};
use crate::input::SlabSource;
use crate::integrity::IntegrityReport;
use crate::journal::{RunJournal, SlabProgress};
use crate::multi::{partition_ranges, reconstruct_multi_scoped};
use crate::output::DepthImage;
use crate::stats::ReconStats;
use crate::Result;

/// Fixed per-segment envelope: slab header, CRC frame, RDMA descriptor.
const SEGMENT_HEADER_BYTES: u64 = 64;

/// Inter-node reduction routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReductionTopology {
    /// Binomial tree: node `i` forwards to `i - lowbit(i)`; `popcount(i)`
    /// hops to the head node, minimal byte-hops.
    #[default]
    Tree,
    /// Chain ring: node `i` forwards to `i - 1`; `i` hops, pipelined.
    Ring,
}

impl ReductionTopology {
    /// Stable CLI/report token.
    pub fn label(self) -> &'static str {
        match self {
            ReductionTopology::Tree => "tree",
            ReductionTopology::Ring => "ring",
        }
    }

    /// Parse a CLI token. Unknown tokens return `None`.
    pub fn parse(s: &str) -> Option<ReductionTopology> {
        match s {
            "tree" => Some(ReductionTopology::Tree),
            "ring" => Some(ReductionTopology::Ring),
            _ => None,
        }
    }

    /// The next node toward the head on this topology's route.
    fn next_hop(self, node: usize) -> usize {
        debug_assert!(node > 0);
        match self {
            ReductionTopology::Tree => node & (node - 1),
            ReductionTopology::Ring => node - 1,
        }
    }
}

/// Cluster-level knobs (the intra-node knobs ride in
/// [`ReconstructionConfig`] as before).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterOptions {
    /// Inter-node reduction routing.
    pub topology: ReductionTopology,
    /// Release reduction segments at slab-commit time (`true`, the
    /// default) instead of after a global compute barrier.
    pub overlap: bool,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            topology: ReductionTopology::Tree,
            overlap: true,
        }
    }
}

impl ClusterOptions {
    /// Stable token for journal keys and plan labels, e.g. `tree+overlap`.
    pub fn label(&self) -> String {
        format!(
            "{}{}",
            self.topology.label(),
            if self.overlap { "+overlap" } else { "+barrier" }
        )
    }
}

/// One node's share of a cluster run.
#[derive(Debug, Clone, Default)]
pub struct NodeOutcome {
    /// Node index (0 is the head node holding the journal and output).
    pub node: usize,
    /// Devices on the node that participated.
    pub devices: usize,
    /// Rows this node committed.
    pub rows: usize,
    /// The node's virtual compute makespan (cumulative over failover
    /// rounds).
    pub elapsed_s: f64,
    /// PCIe stall seconds summed over the node's devices.
    pub bus_wait_s: f64,
    /// Devices of this node that died mid-run.
    pub devices_lost: u32,
    /// All of the node's devices died: its uncovered rows re-banded onto
    /// the surviving nodes.
    pub lost: bool,
    /// Integrity counters attributed to this chassis (merged over its
    /// devices; for a lost node, whatever its completed rounds reported).
    pub integrity: IntegrityReport,
    /// Injected-fault counters attributed to this chassis (merged over
    /// its devices; `None` when no device carried a fault plan).
    pub faults: Option<FaultStats>,
    /// Reduction segments this node pushed into the fabric.
    pub net_segments: usize,
    /// Reduction bytes this node pushed into the fabric.
    pub net_bytes: u64,
    /// Seconds this node's reduction traffic queued on the fabric beyond
    /// the uncontended transfer time.
    pub net_wait_s: f64,
}

/// Result of a cluster reconstruction.
#[derive(Debug, Clone)]
pub struct ClusterReconstruction {
    /// The depth-resolved output (bit-identical to the single-node run).
    pub image: DepthImage,
    /// Outcome counters over the whole cluster.
    pub stats: ReconStats,
    /// Per-node breakdown, in node order (every node, even workless ones).
    pub nodes: Vec<NodeOutcome>,
    /// Cluster virtual makespan: compute *and* the reduction tail.
    pub elapsed_s: f64,
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
    /// Recovery actions (re-plans, transfer retries) over all nodes.
    pub recovery: RecoveryLog,
    /// Depth-table cache accounting merged over the cluster.
    pub table_cache: TableCacheStats,
    /// Host-CPU table seconds summed over nodes (each node's CPU works in
    /// parallel with its devices).
    pub host_table_time_s: f64,
    /// Committed slabs (replayed + fresh).
    pub n_slabs: usize,
    /// Largest slab any device ran, in rows (0 when every row was
    /// replayed).
    pub rows_per_slab: usize,
    /// Shallowest ring any device ran: the requested depth unless memory
    /// pressure shrank it.
    pub pipeline_depth: usize,
    /// Per-slab achieved densities in commit order across the cluster.
    pub slab_densities: Vec<f64>,
    /// Per-slab privatized-accumulation flags in commit order.
    pub slab_privatized: Vec<bool>,
    /// Integrity counters merged over the whole cluster.
    pub integrity: IntegrityReport,
    /// Per-device meters, node-major over participating devices.
    pub per_device: Vec<Meters>,
    /// The options the run executed with (echoed for reports).
    pub options: ClusterOptions,
}

/// A committed row segment awaiting reduction.
#[derive(Debug, Clone)]
struct Segment {
    row0: usize,
    rows: usize,
    bytes: u64,
    /// Virtual time the segment exists on its node (slab commit).
    ready_s: f64,
}

/// Heap key for the deterministic reduction event loop: earliest ready
/// first, ties broken by (row0, origin node, hop) so the schedule — and
/// therefore every fabric grant — is independent of iteration accidents.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HopKey {
    ready: f64,
    row0: usize,
    node: usize,
    hop: usize,
}

impl Eq for HopKey {}

impl PartialOrd for HopKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HopKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first.
        other
            .ready
            .total_cmp(&self.ready)
            .then(other.row0.cmp(&self.row0))
            .then(other.node.cmp(&self.node))
            .then(other.hop.cmp(&self.hop))
    }
}

/// Outcome of scheduling the inter-node reduction on the fabric.
#[derive(Debug, Default)]
struct ReductionSchedule {
    /// When the last segment cleared the head node's link.
    last_arrival_s: f64,
    /// Queueing beyond uncontended time, attributed to the origin node.
    wait_by_node: Vec<f64>,
    /// Segment-hops issued.
    messages: u64,
}

/// Drive every segment to node 0 along the topology's route, issuing
/// fabric sends in deterministic (ready, row0, node, hop) order. Segments
/// originating at the head node arrive for free — they are already home.
fn schedule_reduction(
    net: &Interconnect,
    topology: ReductionTopology,
    segments: &[Vec<Segment>],
    barrier: Option<f64>,
) -> ReductionSchedule {
    let mut sched = ReductionSchedule {
        wait_by_node: vec![0.0; segments.len()],
        ..ReductionSchedule::default()
    };
    let mut heap: BinaryHeap<(HopKey, u64)> = BinaryHeap::new();
    for (node, segs) in segments.iter().enumerate() {
        for seg in segs {
            let ready = barrier.map_or(seg.ready_s, |b| b.max(seg.ready_s));
            if node == 0 {
                sched.last_arrival_s = sched.last_arrival_s.max(ready);
            } else {
                heap.push((
                    HopKey {
                        ready,
                        row0: seg.row0,
                        node,
                        hop: 0,
                    },
                    seg.bytes,
                ));
            }
        }
    }
    while let Some((key, bytes)) = heap.pop() {
        let to = topology.next_hop(key.node);
        let d = net.send(key.node, to, bytes, key.ready);
        sched.wait_by_node[key.node] += d.wait_s;
        sched.messages += 1;
        if to == 0 {
            sched.last_arrival_s = sched.last_arrival_s.max(d.arrival);
        } else {
            heap.push((
                HopKey {
                    ready: d.arrival,
                    row0: key.row0,
                    node: to,
                    hop: key.hop + 1,
                },
                bytes,
            ));
        }
    }
    sched
}

/// The one checkpointed GPU executor: node-level round-based failover
/// around the per-node fleet step, then the inter-node reduction.
///
/// `nodes[i]` holds node `i`'s devices (attached to that node's
/// [`cuda_sim::Host`]); `net` is the fabric linking them, which must span
/// at least `nodes.len()` endpoints. Work proceeds in rounds: uncovered
/// rows re-band over the nodes currently alive ([`partition_ranges`] at
/// node granularity — a fresh failure-free run reproduces the static
/// banding), each node runs its share through the scoped fleet step
/// (inheriting device-level failover *within* the node), and slab commits
/// release reduction segments. A node is dead when its scoped run fails
/// with a GPU-class error — i.e. its last device died; zero surviving
/// nodes surfaces the error for CPU salvage, exactly like the fleet
/// step one level down.
///
/// The run starts from `progress` (fresh, or replayed from a
/// [`RunJournal`]) and computes only the rows not yet committed; every
/// commit reaches `journal` (when given) before the ring moves on. The
/// depth image lives in `progress` while the run is in flight: on success
/// it moves out into the result, never copied; on error `progress` keeps
/// every committed slab, so the caller can resume or salvage.
/// [`ReconstructionConfig::pipeline_depth`] overrides `depth` when set.
#[allow(clippy::too_many_arguments)]
pub fn reconstruct_cluster_checkpointed(
    nodes: &[Vec<&Device>],
    net: &Interconnect,
    source: &mut dyn SlabSource,
    geom: &ScanGeometry,
    cfg: &ReconstructionConfig,
    opts: GpuOptions,
    depth: PipelineDepth,
    cache: Option<&DepthTableCache>,
    copts: ClusterOptions,
    progress: &mut SlabProgress,
    mut journal: Option<&mut RunJournal>,
) -> Result<ClusterReconstruction> {
    if nodes.is_empty() || nodes.iter().any(|ds| ds.is_empty()) {
        return Err(CoreError::InvalidConfig(
            "every cluster node needs at least one device".into(),
        ));
    }
    if net.n_nodes() < nodes.len() {
        return Err(CoreError::InvalidConfig(format!(
            "interconnect spans {} nodes but the cluster has {}",
            net.n_nodes(),
            nodes.len()
        )));
    }
    let n_rows = source.n_rows();
    let n_cols = source.n_cols();
    let n = nodes.len();
    let depth = cfg.pipeline_depth.map(PipelineDepth).unwrap_or(depth);
    let segment_bytes =
        |rows: usize| (rows * n_cols * cfg.n_depth_bins * 8) as u64 + SEGMENT_HEADER_BYTES;

    let mut alive: Vec<bool> = nodes
        .iter()
        .map(|ds| ds.iter().any(|d| !d.is_lost()))
        .collect();
    // Per device: has it worked in this run (its meters reset and count)?
    let mut participated: Vec<Vec<bool>> = nodes.iter().map(|ds| vec![false; ds.len()]).collect();
    let mut rows_per_slab = 0;
    let mut pipeline_depth = depth.0;
    let mut segments: Vec<Vec<Segment>> = vec![Vec::new(); n];
    let mut outcomes: Vec<NodeOutcome> = (0..n)
        .map(|i| NodeOutcome {
            node: i,
            ..NodeOutcome::default()
        })
        .collect();
    let mut recovery = RecoveryLog::default();
    let mut table_cache = TableCacheStats::default();
    let mut slab_densities = Vec::new();
    let mut slab_privatized = Vec::new();
    let mut nodes_lost = 0u32;
    let mut last_gpu_err: Option<CoreError> = None;

    loop {
        let pending = progress.uncovered(0..n_rows);
        if pending.is_empty() {
            break;
        }
        let alive_idx: Vec<usize> = (0..n).filter(|&i| alive[i]).collect();
        if alive_idx.is_empty() {
            return Err(last_gpu_err.unwrap_or(CoreError::Device(cuda_sim::SimError::DeviceLost)));
        }
        let assignments = partition_ranges(&pending, alive_idx.len());
        for (k, ranges) in assignments.iter().enumerate() {
            if ranges.is_empty() {
                continue;
            }
            let ni = alive_idx[k];
            let before = progress.committed_rows();
            let node_segments = &mut segments[ni];
            let mut on_commit = |row0: usize, rows: usize, at_s: f64| {
                node_segments.push(Segment {
                    row0,
                    rows,
                    bytes: segment_bytes(rows),
                    ready_s: at_s,
                });
            };
            let attempt = reconstruct_multi_scoped(
                &nodes[ni],
                &mut participated[ni],
                source,
                geom,
                cfg,
                opts,
                depth,
                cache,
                ranges,
                progress,
                journal.as_deref_mut(),
                &mut on_commit,
            );
            let out = &mut outcomes[ni];
            out.rows += progress.committed_rows() - before;
            match attempt {
                Ok(step) => {
                    out.elapsed_s = step.elapsed_s;
                    out.devices_lost += step.devices_lost;
                    out.integrity.merge(&step.integrity);
                    rows_per_slab = rows_per_slab.max(step.rows_per_slab);
                    pipeline_depth = pipeline_depth.min(step.depth_used);
                    recovery.replans += step.recovery.replans;
                    recovery.transfer_retries += step.recovery.transfer_retries;
                    table_cache.merge(&step.table_cache);
                    slab_densities.extend(step.slab_densities);
                    slab_privatized.extend(step.slab_privatized);
                }
                Err(e) if e.is_gpu_failure() => {
                    // The node's last device is gone. The chassis (NIC,
                    // journal reach) survives; its committed segments stay
                    // scheduled, its uncovered rows re-band next round.
                    alive[ni] = false;
                    out.lost = true;
                    out.devices_lost = nodes[ni].iter().filter(|d| d.is_lost()).count() as u32;
                    out.elapsed_s = nodes[ni]
                        .iter()
                        .map(|d| d.elapsed_s())
                        .fold(out.elapsed_s, f64::max);
                    nodes_lost += 1;
                    last_gpu_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
    }

    // Compute-side accounting over participating devices. Host table time
    // and meters are cumulative on the device, so they are read once here
    // rather than summed per round.
    let mut per_device = Vec::new();
    let mut host_table_time_s = 0.0;
    let mut compute_s: f64 = 0.0;
    let mut devices_lost = 0u32;
    let mut integrity = IntegrityReport::default();
    for (ni, out) in outcomes.iter_mut().enumerate() {
        let used: Vec<&Device> = nodes[ni]
            .iter()
            .zip(&participated[ni])
            .filter(|(_, p)| **p)
            .map(|(d, _)| *d)
            .collect();
        for d in &used {
            host_table_time_s += d.host_flops_time_s();
            per_device.push(d.meters());
        }
        out.devices = used.len();
        out.bus_wait_s = used.iter().map(|d| d.meters().bus_wait_s).sum();
        out.faults = FaultStats::merge_all(nodes[ni].iter().filter_map(|d| d.fault_stats()));
        compute_s = compute_s.max(out.elapsed_s);
        devices_lost += out.devices_lost;
        integrity.merge(&out.integrity);
    }

    // Inter-node reduction: every committed segment rides its origin
    // node's NIC to the head node. Overlap releases a segment at its
    // commit time; the barrier variant merges each node's segments into
    // one whole-band message gated on the slowest node's compute end.
    let scheduled: Vec<Vec<Segment>> = if copts.overlap {
        segments
    } else {
        segments
            .iter()
            .map(|segs| {
                if segs.is_empty() {
                    return Vec::new();
                }
                let rows: usize = segs.iter().map(|s| s.rows).sum();
                vec![Segment {
                    row0: segs.iter().map(|s| s.row0).min().unwrap(),
                    rows,
                    bytes: segment_bytes(rows),
                    ready_s: segs.iter().map(|s| s.ready_s).fold(0.0, f64::max),
                }]
            })
            .collect()
    };
    let barrier = (!copts.overlap).then_some(compute_s);
    let net_segments: Vec<usize> = scheduled.iter().map(|s| s.len()).collect();
    let net_bytes_by_node: Vec<u64> = scheduled
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if i == 0 {
                0
            } else {
                s.iter().map(|g| g.bytes).sum()
            }
        })
        .collect();
    let sched = schedule_reduction(net, copts.topology, &scheduled, barrier);
    for out in outcomes.iter_mut() {
        if out.node != 0 {
            out.net_segments = net_segments[out.node];
            out.net_bytes = net_bytes_by_node[out.node];
        }
        out.net_wait_s = sched.wait_by_node[out.node];
    }

    let elapsed_s = compute_s.max(sched.last_arrival_s);
    Ok(ClusterReconstruction {
        image: std::mem::take(&mut progress.image),
        stats: progress.stats,
        nodes: outcomes,
        elapsed_s,
        compute_s,
        reduction_exposed_s: elapsed_s - compute_s,
        net_wait_s: sched.wait_by_node.iter().sum(),
        net_bytes: net_bytes_by_node.iter().sum(),
        net_messages: sched.messages,
        nodes_lost,
        devices_lost,
        recovery,
        table_cache,
        host_table_time_s,
        n_slabs: progress.committed_slabs(),
        rows_per_slab,
        pipeline_depth,
        slab_densities,
        slab_privatized,
        integrity,
        per_device,
        options: copts,
    })
}

/// Convenience entry point: fresh progress, no journal.
#[allow(clippy::too_many_arguments)]
pub fn reconstruct_cluster(
    nodes: &[Vec<&Device>],
    net: &Interconnect,
    source: &mut dyn SlabSource,
    geom: &ScanGeometry,
    cfg: &ReconstructionConfig,
    opts: GpuOptions,
    depth: PipelineDepth,
    cache: Option<&DepthTableCache>,
    copts: ClusterOptions,
) -> Result<ClusterReconstruction> {
    let mut progress = SlabProgress::new(cfg.n_depth_bins, source.n_rows(), source.n_cols());
    reconstruct_cluster_checkpointed(
        nodes,
        net,
        source,
        geom,
        cfg,
        opts,
        depth,
        cache,
        copts,
        &mut progress,
        None,
    )
}

/// Route length (in hops) of node `i`'s segments under `topology` — the
/// closed-form the planner prices latency with.
pub fn route_hops(topology: ReductionTopology, node: usize) -> usize {
    match topology {
        ReductionTopology::Tree => node.count_ones() as usize,
        ReductionTopology::Ring => node,
    }
}

/// Byte size of one reduction segment of `rows` rows — shared with the
/// planner so predicted and executed traffic agree.
pub fn reduction_segment_bytes(rows: usize, n_cols: usize, n_bins: usize) -> u64 {
    (rows * n_cols * n_bins * 8) as u64 + SEGMENT_HEADER_BYTES
}

/// Split rows across nodes exactly as the executor will: re-exported for
/// the planner and benches.
pub fn node_bands(n_rows: usize, nodes: usize) -> Vec<Range<usize>> {
    crate::multi::row_bands(n_rows, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::{self, Layout};
    use crate::input::InMemorySlabSource;
    use cuda_sim::{DeviceProps, Host, InterconnectProps};

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

    struct TestCluster {
        hosts: Vec<std::sync::Arc<Host>>,
        devices: Vec<Vec<Device>>,
        net: std::sync::Arc<Interconnect>,
    }

    fn build(nodes: usize, per_node: usize, props: InterconnectProps) -> TestCluster {
        let hosts: Vec<_> = (0..nodes).map(|_| Host::new_default()).collect();
        let devices: Vec<Vec<Device>> = hosts
            .iter()
            .map(|h| {
                (0..per_node)
                    .map(|_| Device::new_on_host(DeviceProps::tiny(16 * 1024 * 1024), h))
                    .collect()
            })
            .collect();
        let net = Interconnect::new("test", nodes, props);
        TestCluster {
            hosts,
            devices,
            net,
        }
    }

    fn refs(c: &TestCluster) -> Vec<Vec<&Device>> {
        c.devices.iter().map(|ds| ds.iter().collect()).collect()
    }

    fn run(
        c: &TestCluster,
        data: &[f64],
        geom: &ScanGeometry,
        cfg: &ReconstructionConfig,
        copts: ClusterOptions,
    ) -> ClusterReconstruction {
        let mut source = InMemorySlabSource::new(data.to_vec(), 10, 8, 6).unwrap();
        reconstruct_cluster(
            &refs(c),
            &c.net,
            &mut source,
            geom,
            cfg,
            GpuOptions::default(),
            PipelineDepth::SERIAL,
            None,
            copts,
        )
        .unwrap()
    }

    #[test]
    fn cluster_matches_single_gpu_bitwise_at_every_node_count() {
        let (geom, cfg, data) = demo();
        let single = Device::new(DeviceProps::tiny(16 * 1024 * 1024));
        let mut source = InMemorySlabSource::new(data.clone(), 10, 8, 6).unwrap();
        let ref_out = gpu::reconstruct(&single, &mut source, &geom, &cfg, Layout::Flat1d).unwrap();

        for nodes in [1usize, 2, 3, 4, 8] {
            for topology in [ReductionTopology::Tree, ReductionTopology::Ring] {
                for overlap in [false, true] {
                    let c = build(nodes, 1, InterconnectProps::ib_qdr());
                    let out = run(&c, &data, &geom, &cfg, ClusterOptions { topology, overlap });
                    let tag = format!("{nodes} nodes, {topology:?}, overlap={overlap}");
                    assert_eq!(out.image.data, ref_out.image.data, "{tag}");
                    assert_eq!(out.stats, ref_out.stats, "{tag}");
                    assert_eq!(out.nodes.len(), nodes);
                    let rows: usize = out.nodes.iter().map(|n| n.rows).sum();
                    assert_eq!(rows, 8, "{tag}");
                }
            }
        }
    }

    #[test]
    fn reduction_is_metered_and_head_node_sends_nothing() {
        let (geom, cfg, data) = demo();
        let c = build(4, 1, InterconnectProps::gige());
        let out = run(&c, &data, &geom, &cfg, ClusterOptions::default());
        assert_eq!(out.nodes[0].net_bytes, 0, "head node is already home");
        assert!(out.nodes[1..].iter().all(|n| n.net_bytes > 0));
        // The fabric meters byte-hops: each node's origin bytes times its
        // route length (tree over 4 nodes: 1, 1, 2 hops).
        let byte_hops: u64 = out
            .nodes
            .iter()
            .map(|n| n.net_bytes * route_hops(ReductionTopology::Tree, n.node) as u64)
            .sum();
        assert_eq!(c.net.sent_bytes(), byte_hops);
        assert!(out.net_messages > 0);
        assert!(out.elapsed_s >= out.compute_s);
    }

    #[test]
    fn ring_moves_more_bytes_than_tree_and_both_arrive() {
        let (geom, cfg, data) = demo();
        let mk = |topology| {
            let c = build(4, 1, InterconnectProps::ib_qdr());
            let out = run(
                &c,
                &data,
                &geom,
                &cfg,
                ClusterOptions {
                    topology,
                    overlap: true,
                },
            );
            (c.net.sent_bytes(), out)
        };
        let (tree_bytes, tree) = mk(ReductionTopology::Tree);
        let (ring_bytes, ring) = mk(ReductionTopology::Ring);
        // Tree: nodes 1,2 are 1 hop, node 3 is 2 (popcount). Ring: 1+2+3.
        assert!(
            ring_bytes > tree_bytes,
            "ring byte-hops {ring_bytes} must exceed tree {tree_bytes}"
        );
        assert_eq!(tree.image.data, ring.image.data);
    }

    #[test]
    fn overlap_hides_reduction_behind_compute() {
        let (geom, mut cfg, data) = demo();
        cfg.rows_per_slab = Some(1); // several segments per node
                                     // Sized so reduction is a visible fraction of the ~21 µs compute:
                                     // overlap then hides most of it, the barrier exposes all of it.
        let slow = InterconnectProps {
            name: "slow".to_string(),
            bandwidth_bytes_per_s: 1.2e9,
            latency_s: 1.0e-7,
            duplex: cuda_sim::Duplex::Full,
        };
        let c_off = build(4, 1, slow.clone());
        let off = run(
            &c_off,
            &data,
            &geom,
            &cfg,
            ClusterOptions {
                topology: ReductionTopology::Tree,
                overlap: false,
            },
        );
        let c_on = build(4, 1, slow);
        let on = run(
            &c_on,
            &data,
            &geom,
            &cfg,
            ClusterOptions {
                topology: ReductionTopology::Tree,
                overlap: true,
            },
        );
        assert_eq!(on.image.data, off.image.data, "overlap moves time only");
        assert!(
            on.elapsed_s < off.elapsed_s,
            "overlapped reduction must beat the barrier: {} vs {}",
            on.elapsed_s,
            off.elapsed_s
        );
        assert!(off.reduction_exposed_s > 0.0);
    }

    #[test]
    fn node_loss_rebands_onto_survivors_bitwise() {
        let (geom, mut cfg, data) = demo();
        cfg.rows_per_slab = Some(1);
        let clean = build(3, 1, InterconnectProps::ib_qdr());
        let ref_out = run(&clean, &data, &geom, &cfg, ClusterOptions::default());
        assert_eq!(ref_out.nodes_lost, 0);

        for victim in 0..3usize {
            let c = build(3, 1, InterconnectProps::ib_qdr());
            c.devices[victim][0].set_fault_plan(cuda_sim::FaultPlan::new(0).fail_after_launches(1));
            let out = run(&c, &data, &geom, &cfg, ClusterOptions::default());
            assert_eq!(out.nodes_lost, 1, "victim {victim}");
            assert_eq!(out.devices_lost, 1);
            assert!(out.nodes[victim].lost);
            assert_eq!(
                out.image.data, ref_out.image.data,
                "survivors finish victim {victim}'s rows bit-identically"
            );
            assert_eq!(out.stats, ref_out.stats);
        }
    }

    #[test]
    fn zero_surviving_nodes_surfaces_the_loss() {
        let (geom, cfg, data) = demo();
        let c = build(2, 1, InterconnectProps::ib_qdr());
        for ds in &c.devices {
            ds[0].set_fault_plan(cuda_sim::FaultPlan::new(0).fail_after_launches(0));
        }
        let mut source = InMemorySlabSource::new(data, 10, 8, 6).unwrap();
        let err = reconstruct_cluster(
            &refs(&c),
            &c.net,
            &mut source,
            &geom,
            &cfg,
            GpuOptions::default(),
            PipelineDepth::SERIAL,
            None,
            ClusterOptions::default(),
        )
        .unwrap_err();
        assert!(err.is_gpu_failure());
        let _ = &c.hosts;
    }

    #[test]
    fn options_label_is_stable() {
        assert_eq!(ClusterOptions::default().label(), "tree+overlap");
        assert_eq!(
            ClusterOptions {
                topology: ReductionTopology::Ring,
                overlap: false
            }
            .label(),
            "ring+barrier"
        );
        assert_eq!(
            ReductionTopology::parse("ring"),
            Some(ReductionTopology::Ring)
        );
        assert_eq!(ReductionTopology::parse("mesh"), None);
    }

    #[test]
    fn route_hops_match_the_module_contract() {
        assert_eq!(route_hops(ReductionTopology::Tree, 5), 2);
        assert_eq!(route_hops(ReductionTopology::Tree, 8), 1);
        assert_eq!(route_hops(ReductionTopology::Ring, 5), 5);
    }
}
