//! Multi-node cluster reconstruction: row-band sharding across chassis
//! with a hierarchical, optionally compute-overlapped depth-image
//! reduction over a metered interconnect.
//!
//! [`reconstruct_cluster_checkpointed`] is the one checkpointed executor
//! behind every GPU engine: a single device is a 1×1 cluster and a
//! workstation fleet a 1×M one, so one code path runs 1 to N×M GPUs and
//! builds the one result type, [`GpuReconstruction`]. Its row budget makes
//! serve's preemption quantum a 1×1 call too.
//!
//! The distributed-ptychography shape (PAPERS.md): the scan's detector
//! rows are banded across N nodes; each node bands its share across its
//! devices with the same failover loop, [`crate::multi`]'s
//! `failover_rounds` (the privatized deterministic commit *is* the
//! intra-node reduction), and the per-node partial images
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
//! Node loss is the device-level round-based failover one level up: a
//! node whose devices are all dead (the GPUs fail — the chassis, its NIC,
//! and the shared journal survive, as on a real cluster) drops out of the
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

use cuda_sim::{Device, FaultStats, Interconnect};

use crate::cache::{DepthTableCache, EdgeTable};
use crate::config::ReconstructionConfig;
use crate::error::CoreError;
use crate::geometry::ScanGeometry;
use crate::gpu::{run_ring, validate_inputs, GpuReconstruction, SlabCommit, Triangulation};
use crate::input::SlabSource;
use crate::integrity::IntegrityReport;
use crate::journal::{RunJournal, SlabProgress};
use crate::multi::failover_rounds;
use crate::planner::Plan;
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

/// Inter-node reduction knobs: the `reduction` of a run's [`Plan`].
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
    /// Integrity counters attributed to this chassis: every ring its
    /// devices ran adds into it as it goes, so a lost node keeps the
    /// checks it ran before its last device died.
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

/// The one checkpointed GPU executor: round-based failover over nodes,
/// and inside each node over its devices, then the inter-node reduction.
///
/// `plan` is the run's one resolved [`Plan`]: `nodes` must be its
/// `nodes × devices` shape (`nodes[i]` holds node `i`'s devices, attached
/// to that node's [`cuda_sim::Host`]), every device runs its options, ring
/// depth and slab rows, and the node images reduce under its reduction
/// options; `cfg` is read for the image and the per-slab modes only.
/// `net` is the fabric linking the nodes, which must span at least
/// `nodes.len()` endpoints. The run covers the first `max_rows`
/// rows `progress` has not committed yet (`usize::MAX` for a whole run; a
/// smaller budget is serve's preemption quantum). Both levels run the one
/// failover loop, `multi::failover_rounds`: the rows still owed re-band
/// over the nodes alive (a fresh failure-free run reproduces the static
/// banding), each node re-bands its share over its live devices the same
/// way, and every device runs the k-deep ring over its bands. A device
/// that fails with a GPU-class error drops out and its rows flow to the
/// node's survivors; a node whose last device died drops out and its rows
/// flow to the surviving nodes; zero surviving nodes surfaces the error
/// for CPU salvage. Slab commits release reduction segments, and every
/// ring adds its counters straight into the result, so a lost node keeps
/// what it counted. The call resolves one edge table
/// ([`EdgeTable::resolve`]): `cache`'s full-detector table, or, with no
/// cache, a table over the rows the call processes when it ships host
/// tables or culls. Every ring's in-kernel `set_two` reads it, a
/// host-table ring ships it, and with compaction on every ring reads the
/// wire-shadow cull built with it ([`EdgeTable::cull`]); each ring charges
/// its own band's cull triangulations.
///
/// The run starts from `progress` (fresh, or replayed from a
/// [`RunJournal`]) and every commit reaches `journal` (when given) before
/// the ring moves on. The depth image lives in `progress` while the run is
/// in flight: once every row is committed it moves out into the result,
/// never copied; a budget that leaves rows uncommitted returns an empty
/// image and leaves the partial one in `progress`, and on error `progress`
/// keeps every committed slab, so the caller can resume or salvage.
#[allow(clippy::too_many_arguments)]
pub fn reconstruct_cluster_checkpointed(
    nodes: &[Vec<&Device>],
    net: &Interconnect,
    source: &mut dyn SlabSource,
    geom: &ScanGeometry,
    cfg: &ReconstructionConfig,
    plan: Plan,
    cache: Option<&DepthTableCache>,
    progress: &mut SlabProgress,
    journal: Option<&mut RunJournal>,
    max_rows: usize,
) -> Result<GpuReconstruction> {
    execute(
        nodes, net, source, geom, cfg, plan, cache, progress, journal, max_rows, true,
    )
}

/// [`reconstruct_cluster_checkpointed`], lending the rings' in-kernel
/// `set_two` the edge table only when `kernel_table`: the cull reads it
/// either way, and a kernel without it triangulates every pair itself.
#[allow(clippy::too_many_arguments)]
fn execute(
    nodes: &[Vec<&Device>],
    net: &Interconnect,
    source: &mut dyn SlabSource,
    geom: &ScanGeometry,
    cfg: &ReconstructionConfig,
    plan: Plan,
    cache: Option<&DepthTableCache>,
    progress: &mut SlabProgress,
    mut journal: Option<&mut RunJournal>,
    max_rows: usize,
    kernel_table: bool,
) -> Result<GpuReconstruction> {
    if plan.nodes == 0
        || plan.devices == 0
        || nodes.len() != plan.nodes
        || nodes.iter().any(|ds| ds.len() != plan.devices)
    {
        return Err(CoreError::InvalidConfig(format!(
            "the devices given are not the plan's {}x{} (nodes x devices, each at least 1)",
            plan.nodes, plan.devices
        )));
    }
    if net.n_nodes() < nodes.len() {
        return Err(CoreError::InvalidConfig(format!(
            "interconnect spans {} nodes but the cluster has {}",
            net.n_nodes(),
            nodes.len()
        )));
    }
    validate_inputs(source, geom, cfg)?;
    if plan.depth.0 == 0 || plan.rows_per_slab == Some(0) {
        return Err(CoreError::InvalidConfig(format!(
            "the plan's ring depth ({}) and slab rows ({:?}) must each be at least 1",
            plan.depth.0, plan.rows_per_slab
        )));
    }
    let mapper = geom.mapper()?;
    let n_rows = source.n_rows();
    let n_cols = source.n_cols();
    let n = nodes.len();

    // This run: the first `max_rows` of the rows still owed.
    let mut budget = max_rows;
    let scope: Vec<Range<usize>> = progress
        .uncovered(0..n_rows)
        .into_iter()
        .map_while(|band| {
            let band = band.start..band.end.min(band.start.saturating_add(budget));
            budget -= band.len();
            (!band.is_empty()).then_some(band)
        })
        .collect();
    // One edge table and one wire-shadow cull for the call, lent to every
    // ring, scrub's re-executions and failover's re-banded rows included.
    // A host-table ring ships the table whatever `kernel_table` says.
    let host_tables = plan.options.triangulation == Triangulation::HostTables;
    let edges = (!scope.is_empty())
        .then(|| EdgeTable::resolve(cache, geom, &mapper, cfg, host_tables, &scope))
        .flatten();
    let cull = edges
        .as_deref()
        .filter(|_| cfg.compaction.enabled())
        .map(|edges| &*edges.cull);
    let ring_edges = edges.as_deref().filter(|_| kernel_table || host_tables);

    let mut run = GpuReconstruction {
        pipeline_depth: plan.depth.0,
        ..GpuReconstruction::default()
    };
    let mut outcomes: Vec<NodeOutcome> = (0..n)
        .map(|i| NodeOutcome {
            node: i,
            ..NodeOutcome::default()
        })
        .collect();
    let live_at_start: Vec<Vec<bool>> = nodes
        .iter()
        .map(|ds| ds.iter().map(|d| !d.is_lost()).collect())
        .collect();
    let mut device_alive = live_at_start.clone();
    let mut node_alive: Vec<bool> = live_at_start.iter().map(|a| a.contains(&true)).collect();
    // Per device: has it worked in this run? Its meters reset on its first
    // participation only, so a failover round that re-enters a node keeps
    // accumulating its virtual time.
    let mut participated: Vec<Vec<bool>> = nodes.iter().map(|ds| vec![false; ds.len()]).collect();
    let mut segments: Vec<Vec<Segment>> = vec![Vec::new(); n];

    failover_rounds(&scope, progress, &mut node_alive, |ni, share, progress| {
        let devices = &nodes[ni];
        let seen = &mut participated[ni];
        let out = &mut outcomes[ni];
        let node_segments = &mut segments[ni];
        let before = progress.committed_rows();
        let attempt = failover_rounds(
            share,
            progress,
            &mut device_alive[ni],
            |di, bands, progress| {
                let device = devices[di];
                if !seen[di] {
                    device.reset_meters();
                    seen[di] = true;
                }
                for band in bands {
                    run_ring(
                        device,
                        source,
                        geom,
                        &mapper,
                        cfg,
                        &plan,
                        cache,
                        ring_edges,
                        cull,
                        band.clone(),
                        &mut run,
                        &mut out.integrity,
                        SlabCommit {
                            progress,
                            journal: journal.as_deref_mut(),
                            on_commit: &mut |row0, rows, at_s| {
                                node_segments.push(Segment {
                                    row0,
                                    rows,
                                    bytes: reduction_segment_bytes(rows, n_cols, cfg.n_depth_bins),
                                    ready_s: at_s,
                                })
                            },
                        },
                    )?;
                }
                Ok(())
            },
        );
        out.rows += progress.committed_rows() - before;
        // The node's makespan so far: its slowest participating device. A
        // node that just lost its last device keeps its committed
        // segments scheduled (the chassis, its NIC and the journal
        // survive); its uncovered rows re-band next round.
        out.elapsed_s = devices
            .iter()
            .zip(seen.iter())
            .filter(|(_, p)| **p)
            .map(|(d, _)| d.synchronize())
            .fold(0.0, f64::max);
        attempt
    })?;

    // Compute-side accounting over participating devices. Host table time
    // and meters are cumulative on the device, so they are read once here
    // rather than summed per round.
    for (ni, out) in outcomes.iter_mut().enumerate() {
        let used: Vec<&Device> = nodes[ni]
            .iter()
            .zip(&participated[ni])
            .filter(|(_, p)| **p)
            .map(|(d, _)| *d)
            .collect();
        for d in &used {
            let meters = d.meters();
            run.meters.merge(&meters);
            run.per_device.push(meters);
            run.host_table_time_s += d.host_flops_time_s();
            run.peak_device_mem = run.peak_device_mem.max(d.mem_peak());
        }
        out.devices = used.len();
        out.bus_wait_s = used.iter().map(|d| d.meters().bus_wait_s).sum();
        out.faults = FaultStats::merge_all(nodes[ni].iter().filter_map(|d| d.fault_stats()));
        out.devices_lost = live_at_start[ni]
            .iter()
            .zip(&device_alive[ni])
            .filter(|(was, is)| **was && !**is)
            .count() as u32;
        out.lost = live_at_start[ni].contains(&true) && !node_alive[ni];
        run.compute_s = run.compute_s.max(out.elapsed_s);
        run.devices_lost += out.devices_lost;
        run.nodes_lost += u32::from(out.lost);
        run.integrity.merge(&out.integrity);
    }

    // Inter-node reduction: every committed segment rides its origin
    // node's NIC to the head node. Overlap releases a segment at its
    // commit time; the barrier variant merges each node's segments into
    // one whole-band message gated on the slowest node's compute end.
    let scheduled: Vec<Vec<Segment>> = if plan.reduction.overlap {
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
                    bytes: reduction_segment_bytes(rows, n_cols, cfg.n_depth_bins),
                    ready_s: segs.iter().map(|s| s.ready_s).fold(0.0, f64::max),
                }]
            })
            .collect()
    };
    let barrier = (!plan.reduction.overlap).then_some(run.compute_s);
    let sched = schedule_reduction(net, plan.reduction.topology, &scheduled, barrier);
    for (out, segs) in outcomes.iter_mut().zip(&scheduled) {
        if out.node != 0 {
            out.net_segments = segs.len();
            out.net_bytes = segs.iter().map(|g| g.bytes).sum();
        }
        out.net_wait_s = sched.wait_by_node[out.node];
        run.net_bytes += out.net_bytes;
    }

    run.elapsed_s = run.compute_s.max(sched.last_arrival_s);
    run.reduction_exposed_s = run.elapsed_s - run.compute_s;
    run.net_wait_s = sched.wait_by_node.iter().sum();
    run.net_messages = sched.messages;
    run.nodes = outcomes;
    run.stats = progress.stats;
    run.n_slabs = progress.committed_slabs();
    if progress.is_complete(0..n_rows) {
        run.image = std::mem::take(&mut progress.image);
    }
    Ok(run)
}

/// Convenience entry point: fresh progress, no journal.
pub fn reconstruct_cluster(
    nodes: &[Vec<&Device>],
    net: &Interconnect,
    source: &mut dyn SlabSource,
    geom: &ScanGeometry,
    cfg: &ReconstructionConfig,
    plan: Plan,
    cache: Option<&DepthTableCache>,
) -> Result<GpuReconstruction> {
    let mut progress = SlabProgress::new(cfg.n_depth_bins, source.n_rows(), source.n_cols());
    reconstruct_cluster_checkpointed(
        nodes,
        net,
        source,
        geom,
        cfg,
        plan,
        cache,
        &mut progress,
        None,
        usize::MAX,
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
    use crate::gpu::{self, GpuOptions, Layout, PipelineDepth};
    use crate::input::InMemorySlabSource;
    use cuda_sim::{DeviceProps, Host, InterconnectProps};
    use proptest::prelude::*;

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

    /// The serial plan of `c`'s shape, reducing under `copts`.
    fn plan(c: &TestCluster, cfg: &ReconstructionConfig, copts: ClusterOptions) -> Plan {
        let pins = crate::planner::Pins {
            depth: None,
            topology: Some(copts.topology),
            overlap: Some(copts.overlap),
        };
        Plan::fixed(
            c.devices.len(),
            c.devices[0].len(),
            GpuOptions::default(),
            PipelineDepth::SERIAL,
            cfg,
            pins,
        )
    }

    fn run(
        c: &TestCluster,
        data: &[f64],
        geom: &ScanGeometry,
        cfg: &ReconstructionConfig,
        copts: ClusterOptions,
    ) -> GpuReconstruction {
        let mut source = InMemorySlabSource::new(data.to_vec(), 10, 8, 6).unwrap();
        reconstruct_cluster(
            &refs(c),
            &c.net,
            &mut source,
            geom,
            cfg,
            plan(c, cfg, copts),
            None,
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
            plan(&c, &cfg, ClusterOptions::default()),
            None,
        )
        .unwrap_err();
        assert!(err.is_gpu_failure());
        let _ = &c.hosts;
    }

    #[test]
    fn a_cluster_of_another_shape_than_the_plan_is_refused() {
        let (geom, cfg, data) = demo();
        let c = build(2, 2, InterconnectProps::ib_qdr());
        for (nodes, devices) in [(1, 2), (2, 1), (3, 2), (0, 2), (2, 0)] {
            let plan = Plan {
                nodes,
                devices,
                ..plan(&c, &cfg, ClusterOptions::default())
            };
            let mut source = InMemorySlabSource::new(data.clone(), 10, 8, 6).unwrap();
            let err = reconstruct_cluster(&refs(&c), &c.net, &mut source, &geom, &cfg, plan, None)
                .unwrap_err();
            assert!(
                matches!(err, CoreError::InvalidConfig(_)),
                "{nodes}x{devices}: {err}"
            );
        }
    }

    #[test]
    fn every_band_reads_one_cull_and_is_charged_its_own_rows() {
        use crate::cache::{DepthTableCache, EdgeTable, TableKey};
        use crate::config::CompactionMode;
        use std::sync::Arc;
        let (geom, mut cfg, data) = demo();
        cfg.compaction = CompactionMode::On;
        let cache = DepthTableCache::new(0);
        let source = || InMemorySlabSource::new(data.clone(), 10, 8, 6).unwrap();
        // In-kernel triangulation and no integrity: the cull is the only
        // host work, so the FLOPs are the rows charged.
        for cache in [None, Some(&cache)] {
            for nodes in [1, 3] {
                let c = build(nodes, 1, InterconnectProps::ib_qdr());
                let plan = plan(&c, &cfg, ClusterOptions::default());
                let out =
                    reconstruct_cluster(&refs(&c), &c.net, &mut source(), &geom, &cfg, plan, cache)
                        .unwrap();
                assert_eq!(out.host_table_flops, EdgeTable::build_flops(&geom, 8));
            }
            // A row budget processes, and is charged, three rows.
            let c = build(1, 1, InterconnectProps::ib_qdr());
            let mut progress = SlabProgress::new(cfg.n_depth_bins, 8, 6);
            let plan = plan(&c, &cfg, ClusterOptions::default());
            let out = reconstruct_cluster_checkpointed(
                &refs(&c),
                &c.net,
                &mut source(),
                &geom,
                &cfg,
                plan,
                cache,
                &mut progress,
                None,
                3,
            )
            .unwrap();
            assert_eq!(out.host_table_flops, EdgeTable::build_flops(&geom, 3));
        }
        // The cached runs read one full-detector cull, their edge table's,
        // and a run of another binning and window reads it too.
        let edges = TableKey::edges(&geom, cfg.wire_edge);
        let table = cache.edge_table(&edges, || panic!("edge table not cached"));
        let mut other = ReconstructionConfig::new(-300.0, 100.0, cfg.n_depth_bins + 5);
        other.compaction = CompactionMode::On;
        let c = build(3, 1, InterconnectProps::ib_qdr());
        let plan = plan(&c, &other, ClusterOptions::default());
        reconstruct_cluster(
            &refs(&c),
            &c.net,
            &mut source(),
            &geom,
            &other,
            plan,
            Some(&cache),
        )
        .unwrap();
        let kept = cache.edge_table(&edges, || panic!("edge table not cached"));
        assert!(Arc::ptr_eq(table.cull(), kept.cull()));
        let fresh = EdgeTable::build(
            &geom,
            &geom.mapper().unwrap(),
            cfg.wire_edge,
            std::slice::from_ref(&(0..8)),
        );
        for window in [&cfg, &other] {
            for r in 0..8 {
                assert_eq!(
                    table.cull().live_pairs(window, r),
                    fresh.cull().live_pairs(window, r)
                );
            }
        }
    }

    /// A generated run for the edge-table property: a stack, a window and
    /// every plan knob the kernel's launch shapes depend on.
    #[derive(Debug, Clone)]
    struct TableCase {
        dims: (usize, usize, usize),
        data: Vec<f64>,
        window: (f64, f64, usize),
        cutoff: f64,
        trailing: bool,
        layout: Layout,
        compaction: crate::config::CompactionMode,
        accumulation: crate::config::AccumulationMode,
        depth: usize,
        rows_per_slab: usize,
        per_node: usize,
        workers: (usize, usize),
        cached: bool,
    }

    fn arb_table_case() -> impl Strategy<Value = TableCase> {
        use crate::config::{AccumulationMode, CompactionMode};
        let dims = (2usize..=5, 2usize..=5, 3usize..=8);
        dims.prop_flat_map(|(rows, cols, steps)| {
            let n = rows * cols * steps;
            (
                (
                    Just((rows, cols, steps)),
                    proptest::collection::vec(0.0..1000.0f64, n..=n),
                    (-1500.0..300.0f64, 50.0..1500.0f64, 5usize..=60),
                    0.0..80.0f64,
                    any::<bool>(),
                ),
                (
                    prop_oneof![Just(Layout::Flat1d), Just(Layout::Pointer3d)],
                    prop_oneof![
                        Just(CompactionMode::Off),
                        Just(CompactionMode::Auto),
                        Just(CompactionMode::On)
                    ],
                    prop_oneof![
                        Just(AccumulationMode::Atomic),
                        Just(AccumulationMode::Privatized)
                    ],
                    (1usize..=3, 1usize..=rows, 1usize..=2),
                    (1usize..=4, 1usize..=4),
                    any::<bool>(),
                ),
            )
        })
        .prop_map(|(image, knobs)| {
            let (dims, data, (start, len, bins), cutoff, trailing) = image;
            let (layout, compaction, accumulation, shape, workers, cached) = knobs;
            let (depth, rows_per_slab, per_node) = shape;
            TableCase {
                dims,
                data,
                window: (start, start + len, bins),
                cutoff,
                trailing,
                layout,
                compaction,
                accumulation,
                depth,
                rows_per_slab,
                per_node,
                workers,
                cached,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A kernel reading the edge table runs exactly as the same plan
        /// with every pair triangulated in kernel: image bits, stats, every
        /// cost field, every launch record and every modeled time.
        #[test]
        fn a_table_reading_run_equals_the_same_plan_without_one(case in arb_table_case()) {
            let (rows, cols, steps) = case.dims;
            let geom = ScanGeometry::demo(rows, cols, steps, -40.0, 5.0).unwrap();
            let (start, end, bins) = case.window;
            let mut cfg = ReconstructionConfig::new(start, end, bins);
            cfg.intensity_cutoff = case.cutoff;
            if case.trailing {
                cfg.wire_edge = laue_geometry::WireEdge::Trailing;
            }
            cfg.compaction = case.compaction;
            cfg.accumulation = case.accumulation;
            cfg.rows_per_slab = Some(case.rows_per_slab);
            let run = |kernel_table: bool, workers: usize| {
                let c = build(1, case.per_node, InterconnectProps::ib_qdr());
                for d in c.devices.iter().flatten() {
                    d.force_workers(workers);
                }
                let opts = GpuOptions { layout: case.layout, ..GpuOptions::default() };
                let plan = Plan::fixed(
                    1,
                    case.per_node,
                    opts,
                    PipelineDepth(case.depth),
                    &cfg,
                    crate::planner::Pins::default(),
                );
                let cache = crate::cache::DepthTableCache::new(0);
                let mut source = InMemorySlabSource::new(case.data.clone(), steps, rows, cols).unwrap();
                let mut progress = SlabProgress::new(bins, rows, cols);
                let out = execute(
                    &refs(&c),
                    &c.net,
                    &mut source,
                    &geom,
                    &cfg,
                    plan,
                    case.cached.then_some(&cache),
                    &mut progress,
                    None,
                    usize::MAX,
                    kernel_table,
                )
                .unwrap();
                let records: Vec<_> = c.devices.iter().flatten().map(|d| d.records()).collect();
                (out, records)
            };
            let (with, with_records) = run(true, case.workers.0);
            let (without, without_records) = run(false, case.workers.1);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&with.image.data), bits(&without.image.data));
            prop_assert_eq!(with.stats, without.stats);
            prop_assert_eq!(with.meters.kernel_cost, without.meters.kernel_cost);
            prop_assert_eq!(&with.per_device, &without.per_device);
            prop_assert_eq!(&with_records, &without_records);
            prop_assert_eq!(with.host_table_flops, without.host_table_flops);
            prop_assert_eq!(with.elapsed_s.to_bits(), without.elapsed_s.to_bits());
            prop_assert_eq!(&with.slab_densities, &without.slab_densities);
            prop_assert_eq!(&with.slab_privatized, &without.slab_privatized);
        }
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
