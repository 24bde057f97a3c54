//! The pipeline driver.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use cuda_sim::{
    Device, DeviceProps, FaultStats, HostProps, Interconnect, InterconnectProps, NonzeroWords,
    OpRecord,
};
use laue_core::cache::{DepthTableCache, TableCacheStats, TableKey};
use laue_core::cluster::reconstruct_cluster_checkpointed;
use laue_core::journal::{JournalKey, RunJournal, SlabProgress};
use laue_core::planner::{plan_auto, Pins, Plan, RunPlan, TableWarmth};
use laue_core::{
    cpu, CoreError, GpuReconstruction, PlanMode, ReconstructionConfig, ScanGeometry, ScanView,
    SlabSource,
};
use laue_wire::ScanFile;

use crate::engine::Engine;
use crate::report::{ClusterReport, PlanExplain, RecoveryAccounting, ResumeInfo, RunReport};
use crate::Result;

/// Bytes [`file_fingerprint`] reads at a time.
const FINGERPRINT_BLOCK: usize = 1 << 20;

/// A cheap content fingerprint of a scan file (CRC-32 of the bytes, plus
/// the length in the high word), used to key the run journal so `--resume`
/// never replays slabs recorded for a different scan. The file streams
/// through the CRC in fixed-size blocks, so keying a scan of any size
/// needs one block of memory.
pub fn file_fingerprint<P: AsRef<Path>>(path: P) -> Result<u64> {
    use std::io::{ErrorKind, Read};
    let mut file = std::fs::File::open(path)?;
    let mut block = vec![0u8; FINGERPRINT_BLOCK];
    let mut crc = mh5::crc::Crc32::new();
    let mut len = 0u64;
    loop {
        let n = match file.read(&mut block) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        crc.update(&block[..n]);
        len += n as u64;
    }
    Ok((len << 32) | crc.finish() as u64)
}

/// What to do when a GPU engine fails in a way another executor could
/// sidestep (device lost, memory exhausted beyond re-planning).
///
/// Transient transfer faults and recoverable OOM never reach this policy —
/// the GPU engine absorbs them itself (bounded retries, slab re-planning)
/// and reports them via [`RunReport::gpu_transfer_retries`] /
/// [`RunReport::gpu_replans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GpuFailurePolicy {
    /// Surface the GPU error to the caller (default).
    #[default]
    Abort,
    /// Recompute the rows the GPU did not commit on `cpu-seq` (which shares
    /// the GPU engines' deposit order, so the image stays bit-identical)
    /// and record the degradation in the run report.
    FallbackCpu,
}

/// State a pipeline keeps alive *between* runs: the simulated devices (so
/// device-resident depth tables survive from one run to the next) and the
/// host-side depth-table cache. Shared by `Arc` — cloning a [`Pipeline`]
/// shares its warm caches.
#[derive(Debug, Default)]
pub struct PipelineShared {
    /// The provisioned topology (`devices[i][j]` = device `j` on chassis
    /// `i`). The devices and their hosts persist across runs; the
    /// interconnect is rebuilt fresh per run (its link pools have no warm
    /// state worth keeping, and a clean fabric keeps run timelines
    /// starting at t = 0).
    devices: Mutex<Vec<Vec<Arc<Device>>>>,
    cache: DepthTableCache,
}

/// Only a run that panicked while provisioning can poison the device slot.
const POISONED: &str = "device slot poisoned by a panicked run";

/// A configured pipeline: the machines to model, and how runs fail over,
/// journal and reduce.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Host CPU model for the CPU engines (paper: Xeon E5630).
    pub host: HostProps,
    /// Device model for the GPU engines (paper: Tesla M2070).
    pub device: DeviceProps,
    /// What to do when a GPU engine fails unrecoverably.
    pub on_gpu_failure: GpuFailurePolicy,
    /// Scripted fault schedule installed on every device this pipeline
    /// creates (fault-injection testing; `None` in production).
    pub fault_plan: Option<cuda_sim::FaultPlan>,
    /// Device-resident depth-table cache budget, MiB. `None` → a quarter of
    /// device memory; `Some(0)` disables residency (host caching stays on).
    pub table_cache_mb: Option<u64>,
    /// When set, GPU runs journal every committed slab under this
    /// directory, making them resumable ([`Pipeline::resume`]) and
    /// salvageable (CPU fallback recomputes only uncommitted rows).
    pub journal_dir: Option<PathBuf>,
    /// Replay slabs committed by a previous interrupted run with the same
    /// journal key instead of starting fresh. No effect without
    /// [`Pipeline::journal_dir`].
    pub resume: bool,
    /// Restrict [`Pipeline::fault_plan`] to one fleet device index
    /// (multi-GPU failover testing). For `gpu-cluster` engines the index
    /// runs node-major over the flattened cluster (node 0's devices
    /// first). `None` installs the plan on every device this pipeline
    /// creates.
    pub fault_device: Option<usize>,
    /// Inter-node fabric model for `gpu-cluster` engines (paper-era
    /// default: InfiniBand QDR).
    pub interconnect: InterconnectProps,
    /// What every GPU plan pins among slab rows, ring depth, reduction
    /// routing and overlap. Each `None` is the engine's default under
    /// `--plan fixed` (slabs fitted to device memory, the alias's ring
    /// depth, tree, overlapped) and the planner's pick under
    /// `--plan auto`. A zero depth or zero rows is an error on every
    /// engine. The reduction moves time only on more than one node, so a
    /// one-node plan keeps tree.
    pub pins: Pins,
    /// Cross-run persistent state (devices + depth-table cache).
    pub shared: Arc<PipelineShared>,
}

impl Default for Pipeline {
    /// The paper's evaluation node.
    fn default() -> Self {
        Pipeline {
            host: HostProps::xeon_e5630(),
            device: DeviceProps::tesla_m2070(),
            on_gpu_failure: GpuFailurePolicy::default(),
            fault_plan: None,
            table_cache_mb: None,
            journal_dir: None,
            resume: false,
            fault_device: None,
            interconnect: InterconnectProps::ib_qdr(),
            pins: Pins::default(),
            shared: Arc::new(PipelineShared::default()),
        }
    }
}

impl Pipeline {
    /// Reconstruct a scan file on the chosen engine. The file's content
    /// fingerprint keys the run journal (when [`Pipeline::journal_dir`] is
    /// set), so interrupted runs of the same scan resume safely.
    pub fn run_scan_file<P: AsRef<Path>>(
        &self,
        path: P,
        cfg: &ReconstructionConfig,
        engine: Engine,
    ) -> Result<RunReport> {
        let fingerprint = file_fingerprint(&path)?;
        let mut scan = ScanFile::open(path)?;
        let geometry = scan.geometry().clone();
        self.run_source_keyed(&mut scan, &geometry, cfg, engine, Some(fingerprint))
    }

    /// Reconstruct from any slab source (streaming for GPU engines; CPU
    /// engines materialise the stack once). Journal runs are keyed without
    /// a scan fingerprint — prefer [`Pipeline::run_source_keyed`] when one
    /// is available.
    pub fn run_source(
        &self,
        source: &mut dyn SlabSource,
        geom: &ScanGeometry,
        cfg: &ReconstructionConfig,
        engine: Engine,
    ) -> Result<RunReport> {
        self.run_source_keyed(source, geom, cfg, engine, None)
    }

    /// As [`Pipeline::run_source`], with an explicit scan content
    /// fingerprint folded into the journal key.
    pub fn run_source_keyed(
        &self,
        source: &mut dyn SlabSource,
        geom: &ScanGeometry,
        cfg: &ReconstructionConfig,
        engine: Engine,
        fingerprint: Option<u64>,
    ) -> Result<RunReport> {
        self.pins.check()?;
        let threads = match engine {
            Engine::Cpu { threads } => threads,
            gpu => return self.run_gpu(source, geom, cfg, gpu, fingerprint),
        };
        // `cpu-threaded:0` means "one thread per available core".
        let threads = match threads {
            0 => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            n => n,
        };
        let dims = (source.n_images(), source.n_rows(), source.n_cols());
        // read_slab returns slab[z][r][c] over all rows = the stack.
        let stack = source.read_slab(0, dims.1)?;
        let view = ScanView::new(&stack, dims.0, dims.1, dims.2)?;
        let (out, t) = self.run_cpu(threads, &view, geom, cfg)?;
        let label = Engine::Cpu { threads }.label();
        Ok(RunReport {
            slab_densities: out.slab_densities,
            ..RunReport::host(label, out.image, out.stats, t, dims)
        })
    }

    /// Run the host engine on `threads` threads over a materialised stack:
    /// the output plus its modeled time on [`Pipeline::host`], one core
    /// per thread.
    fn run_cpu(
        &self,
        threads: usize,
        view: &ScanView<'_>,
        geom: &ScanGeometry,
        cfg: &ReconstructionConfig,
    ) -> Result<(cpu::CpuReconstruction, f64)> {
        let out = cpu::reconstruct_threaded(view, geom, cfg, threads)?;
        let t = out.modeled_time_s(&self.host, threads as u32);
        Ok((out, t))
    }

    /// The one GPU path: resolve the plan, open/replay the journal (when
    /// configured), provision the plan's `nodes × devices`, and run the
    /// checkpointed cluster executor on it. On unrecoverable failure,
    /// salvage the committed slabs and hand only the remainder to the CPU.
    fn run_gpu(
        &self,
        source: &mut dyn SlabSource,
        geom: &ScanGeometry,
        cfg: &ReconstructionConfig,
        engine: Engine,
        fingerprint: Option<u64>,
    ) -> Result<RunReport> {
        let dims = (source.n_images(), source.n_rows(), source.n_cols());
        self.shared.cache.set_budget(self.table_cache_budget());
        let (plan, planned) = self.resolve_plan(source, geom, cfg, engine)?;

        // Open (or replay) the run journal.
        let mut journal = None;
        let mut resume_info = None;
        let mut progress = match &self.journal_dir {
            Some(dir) => {
                let key = journal_key(&plan, cfg, dims, fingerprint);
                let jdims = (cfg.n_depth_bins, dims.1, dims.2);
                let (j, slabs) = RunJournal::open(dir, &key, jdims, self.resume)?;
                if !slabs.is_empty() {
                    resume_info = Some(ResumeInfo {
                        journal_key: format!("{:016x}", key.hash),
                        slabs_replayed: slabs.len(),
                    });
                }
                journal = Some(j);
                SlabProgress::replay(cfg.n_depth_bins, dims.1, dims.2, &slabs)?
            }
            None => SlabProgress::new(cfg.n_depth_bins, dims.1, dims.2),
        };

        let devices = self.provision(&plan);
        let outcome = {
            let nodes: Vec<Vec<&Device>> = devices
                .iter()
                .map(|node| node.iter().map(|d| d.as_ref()).collect())
                .collect();
            let net = Interconnect::new(
                &self.interconnect.name,
                plan.nodes,
                self.interconnect.clone(),
            );
            reconstruct_cluster_checkpointed(
                &nodes,
                &net,
                source,
                geom,
                cfg,
                plan,
                Some(&self.shared.cache),
                &mut progress,
                journal.as_mut(),
                usize::MAX,
            )
        };
        // Fault-injection ground truth, trace-drop diagnostics, and device
        // losses, tallied over every device the run touched.
        let faults_injected =
            FaultStats::merge_all(devices.iter().flatten().filter_map(|d| d.fault_stats()));
        let trace_dropped = devices.iter().flatten().map(|d| d.trace_dropped()).sum();
        let devices_lost = devices.iter().flatten().filter(|d| d.is_lost()).count() as u32;
        drop(devices);

        let mut report = match outcome {
            Ok(out) => {
                // The run is complete; a later --resume must not replay it.
                if let Some(j) = journal.take() {
                    j.remove()?;
                }
                let mut report = gpu_report(
                    engine,
                    &plan,
                    out,
                    dims,
                    resume_info,
                    &self.interconnect.name,
                );
                // The explain block compares the prediction against the
                // measured virtual makespan of the very run it planned.
                report.plan = planned.map(|p| PlanExplain {
                    measured_s: report.total_time_s,
                    ..p
                });
                report
            }
            Err(e) => self.degrade_salvage(
                source,
                geom,
                cfg,
                engine,
                e,
                progress,
                journal,
                resume_info,
                devices_lost,
            )?,
        };
        report.faults_injected = faults_injected;
        report.trace_dropped = trace_dropped;
        Ok(report)
    }

    /// The one [`Plan`] a GPU run executes and, under `--plan auto`, the
    /// explain block before measurement. Under `--plan fixed` it is the
    /// alias's plan ([`Engine::plan`] under [`Pipeline::pins`]). Under
    /// `--plan auto` the planner prices the alias's `nodes × devices`
    /// ([`plan_auto`]), searching only what is unpinned among slab rows,
    /// ring depth, reduction and overlap. `cfg` is read, never rewritten:
    /// the compaction and accumulation modes it holds are the ones priced
    /// and run.
    fn resolve_plan(
        &self,
        source: &mut dyn SlabSource,
        geom: &ScanGeometry,
        cfg: &ReconstructionConfig,
        engine: Engine,
    ) -> Result<(Plan, Option<PlanExplain>)> {
        let fixed = engine.plan(self.pins).expect("GPU engine");
        if cfg.plan == PlanMode::Fixed {
            return Ok((fixed, None));
        }
        // Peek (not lookup): warmth must not perturb the cache the
        // prediction is about. Device warmth only counts when every device
        // the run will reuse holds the table.
        let table_key = TableKey::new(geom, cfg);
        let device_warm = {
            let slot = self.shared.devices.lock().expect(POISONED);
            self.reusable(&slot, &fixed)
                && slot
                    .iter()
                    .flatten()
                    .all(|d| self.shared.cache.peek_device(d.id(), &table_key))
        };
        let warmth = TableWarmth {
            host_warm: self.shared.cache.peek_host(&table_key),
            device_warm,
            resident_budget: self.table_cache_budget(),
        };
        let RunPlan {
            plan,
            predicted_s,
            host_s,
            label,
            candidates,
        } = plan_auto(
            &self.device,
            &self.host,
            &self.interconnect,
            fixed.nodes,
            fixed.devices,
            self.pins,
            source,
            geom,
            cfg,
            warmth,
            Some(&self.shared.cache),
        )?;
        let explain = PlanExplain {
            chosen: label,
            predicted_s,
            host_s,
            measured_s: 0.0,
            candidates: candidates
                .into_iter()
                .map(|c| (c.label, c.predicted_s))
                .collect(),
        };
        Ok((plan, Some(explain)))
    }

    /// Does `slot` already hold `plan`'s `nodes × devices` of the current
    /// model (so the next run reuses it)?
    fn reusable(&self, slot: &[Vec<Arc<Device>>], plan: &Plan) -> bool {
        slot.len() == plan.nodes
            && slot
                .iter()
                .all(|ds| ds.len() == plan.devices && ds.iter().all(|d| *d.props() == self.device))
    }

    /// The devices a GPU plan runs on, `[node][device]`. Each node is its
    /// own simulated chassis: one host whose PCIe bus and CPU its devices
    /// share, so intra-node transfers contend and inter-node ones never
    /// do. The devices persist across runs (so resident depth tables stay
    /// warm) and rebuild only when the shape or [`Pipeline::device`]
    /// changes. The fault schedule is (re)installed fresh on every run — on
    /// every device, or only on the node-major flattened index
    /// [`Pipeline::fault_device`] names.
    fn provision(&self, plan: &Plan) -> Vec<Vec<Arc<Device>>> {
        let mut slot = self.shared.devices.lock().expect(POISONED);
        if !self.reusable(&slot, plan) {
            self.release(&mut slot);
            *slot = (0..plan.nodes)
                .map(|_| {
                    let host = cuda_sim::Host::new_default();
                    (0..plan.devices)
                        .map(|_| Arc::new(Device::new_on_host(self.device.clone(), &host)))
                        .collect()
                })
                .collect();
        }
        for (i, d) in slot.iter().flatten().enumerate() {
            let install = self.fault_device.is_none_or(|f| f == i);
            match (&self.fault_plan, install) {
                (Some(plan), true) => d.set_fault_plan(plan.clone()),
                _ => d.clear_fault_plan(),
            }
        }
        slot.clone()
    }

    /// The op timeline of the devices the last GPU run used, in Chrome
    /// Trace Event Format: one process per device that recorded ops,
    /// node-major. `None` when no device recorded any, as after a CPU run
    /// or a GPU run that finished on the CPU (which releases its devices).
    pub fn chrome_trace(&self) -> Option<String> {
        let slot = self.shared.devices.lock().expect(POISONED);
        let processes: Vec<(String, Vec<OpRecord>)> = slot
            .iter()
            .enumerate()
            .flat_map(|(ni, node)| {
                node.iter().enumerate().map(move |(di, d)| {
                    (
                        format!("node {ni} device {di}: {}", d.props().name),
                        d.ops(),
                    )
                })
            })
            .filter(|(_, ops)| !ops.is_empty())
            .collect();
        (!processes.is_empty()).then(|| cuda_sim::trace::chrome_trace(&processes))
    }

    /// Empty `slot`, evicting the depth tables resident on its devices.
    fn release(&self, slot: &mut Vec<Vec<Arc<Device>>>) {
        let mut run = TableCacheStats::default();
        for old in slot.drain(..).flatten() {
            self.shared.cache.evict_device(old.id(), &mut run);
        }
    }

    /// Device-resident depth-table budget in bytes.
    fn table_cache_budget(&self) -> u64 {
        self.table_cache_mb
            .map(|mb| mb * 1024 * 1024)
            .unwrap_or(self.device.total_mem / 4)
    }

    /// Apply [`Pipeline::on_gpu_failure`] to a GPU engine error: either
    /// surface it, or salvage what the GPU committed and recompute only the
    /// uncovered row bands on `cpu-seq`, recording the
    /// degradation — and the `devices_lost` the run counted — in the
    /// report.
    #[allow(clippy::too_many_arguments)]
    fn degrade_salvage(
        &self,
        source: &mut dyn SlabSource,
        geom: &ScanGeometry,
        cfg: &ReconstructionConfig,
        failed: Engine,
        err: laue_core::CoreError,
        mut progress: SlabProgress,
        mut journal: Option<RunJournal>,
        resume: Option<ResumeInfo>,
        devices_lost: u32,
    ) -> Result<RunReport> {
        // Whatever happens next, don't hand the failed device(s) to a later
        // run: drop them (and any depth tables resident on them). The
        // journal stays on disk when we surface the error, so a later
        // --resume picks up from the last committed slab.
        self.release(&mut self.shared.devices.lock().expect(POISONED));
        if self.on_gpu_failure != GpuFailurePolicy::FallbackCpu || !err.is_gpu_failure() {
            return Err(err.into());
        }
        // cpu-seq and the GPU engines share deposit order, and cropped-band
        // reconstruction is bit-exact against the full frame, so the
        // salvaged image is bit-identical to a clean GPU run.
        let cpu = Engine::Cpu { threads: 1 };
        let dims = (source.n_images(), source.n_rows(), source.n_cols());
        let salvaged = progress.committed_slabs();
        let mut recomputed = 0usize;
        let mut cpu_time = 0.0;
        let mut slab_densities = Vec::new();
        // A journalled band must fit one journal record, as a GPU slab does.
        let max_rows = match &journal {
            Some(j) => j.max_slab_rows()?,
            None => usize::MAX,
        };
        for band in split_bands(progress.uncovered(0..dims.1), max_rows) {
            let rows = band.len();
            let slab = source.read_slab(band.start, rows)?;
            let view = ScanView::new(&slab, dims.0, rows, dims.2)?;
            let band_geom = geom.crop(band.start, 0, rows, dims.2)?;
            let (out, t) = self.run_cpu(1, &view, &band_geom, cfg)?;
            cpu_time += t;
            slab_densities.extend(out.slab_densities);
            // A band image is already in slab layout.
            let cells = NonzeroWords::from_slice(&out.image.data).map_err(CoreError::from)?;
            progress.commit(journal.as_mut(), band.start, rows, &out.stats, &cells)?;
            recomputed += 1;
        }
        // Complete again — retire the journal with the run.
        if let Some(j) = journal.take() {
            j.remove()?;
        }
        // Whatever the GPU verified before dying is moot: the CPU
        // recomputed the uncovered bands from the source directly, so the
        // integrity block stays empty.
        Ok(RunReport {
            slab_densities,
            fallback: Some(format!(
                "{} failed ({err}); completed on {}",
                failed.label(),
                cpu.label()
            )),
            recovery: RecoveryAccounting {
                salvaged_slabs: salvaged,
                recomputed_slabs: recomputed,
                devices_lost,
                resume,
            },
            ..RunReport::host(cpu.label(), progress.image, progress.stats, cpu_time, dims)
        })
    }
}

/// `bands` cut into consecutive pieces of at most `max_rows` rows each.
fn split_bands(bands: Vec<Range<usize>>, max_rows: usize) -> impl Iterator<Item = Range<usize>> {
    bands.into_iter().flat_map(move |b| {
        b.clone()
            .step_by(max_rows)
            .map(move |row0| row0..row0 + (b.end - row0).min(max_rows))
    })
}

/// Assemble the [`RunReport`] of a successful GPU run of `plan`. The
/// makespan is the slowest node's, reduction tail included; the
/// comm/compute/transfer meters aggregate over every device, so on a fleet
/// total ≤ comm + compute. Only `gpu-cluster` engines report the `cluster`
/// block (at every node count); `fabric` names their interconnect preset.
fn gpu_report(
    engine: Engine,
    plan: &Plan,
    out: GpuReconstruction,
    dims: (usize, usize, usize),
    resume: Option<ResumeInfo>,
    fabric: &str,
) -> RunReport {
    let cluster = match engine {
        Engine::GpuCluster { .. } => Some(ClusterReport {
            options: plan.reduction.label(),
            interconnect: fabric.to_string(),
            compute_s: out.compute_s,
            reduction_exposed_s: out.reduction_exposed_s,
            net_wait_s: out.net_wait_s,
            net_bytes: out.net_bytes,
            net_messages: out.net_messages,
            nodes_lost: out.nodes_lost,
            nodes: out.nodes,
        }),
        _ => None,
    };
    RunReport {
        comm_time_s: out.meters.comm_time_s,
        bus_wait_s: out.meters.bus_wait_s,
        host_table_time_s: out.host_table_time_s,
        compute_time_s: out.meters.compute_time_s,
        rows_per_slab: out.rows_per_slab,
        n_slabs: out.n_slabs,
        transfers: out.meters.transfers,
        gpu_replans: out.recovery.replans,
        gpu_transfer_retries: out.recovery.transfer_retries,
        pipeline_depth: out.pipeline_depth,
        table_cache: out.table_cache,
        slab_densities: out.slab_densities,
        slab_privatized: out.slab_privatized,
        recovery: RecoveryAccounting {
            devices_lost: out.devices_lost,
            resume,
            ..RecoveryAccounting::default()
        },
        integrity: out.integrity,
        cluster,
        ..RunReport::host(engine.label(), out.image, out.stats, out.elapsed_s, dims)
    }
}

/// The identity a journal is keyed on: everything that must match for a
/// resume to be sound — scan fingerprint, dimensions, the resolved plan,
/// and the run's configuration, both in their `Debug` form (exact for
/// floats, which `validate()` keeps finite). Keying on the whole structs
/// means a new knob joins the key by itself. The plan's slab rows
/// deliberately participate too, so changing them invalidates old journals
/// even though replay would still be correct; under `--plan auto` the plan
/// is the chosen one, so a plan flip (flag or outcome) forces a clean
/// restart. The engine label does not: aliases of one plan share their
/// journals.
fn journal_key(
    plan: &Plan,
    cfg: &ReconstructionConfig,
    dims: (usize, usize, usize),
    fingerprint: Option<u64>,
) -> JournalKey {
    JournalKey::new(format!(
        "scan={:016x};dims={}x{}x{};plan={plan:?};cfg={cfg:?}",
        fingerprint.unwrap_or(0),
        dims.0,
        dims.1,
        dims.2,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use laue_core::gpu::{Layout, PipelineDepth};
    use laue_core::{AccumulationMode, CompactionMode, ReductionTopology};
    use laue_wire::{write_scan, SyntheticScanBuilder};
    use std::path::PathBuf;

    fn scan_file(name: &str) -> (PathBuf, laue_wire::SyntheticScan) {
        let scan = SyntheticScanBuilder::new(8, 8, 12)
            .scatterers(6)
            .seed(21)
            .build()
            .unwrap();
        let path = std::env::temp_dir().join(format!("pipeline_{}_{name}.mh5", std::process::id()));
        write_scan(&path, &scan.geometry, &scan.images, Some(&scan.truth), 2).unwrap();
        (path, scan)
    }

    fn cfg() -> ReconstructionConfig {
        ReconstructionConfig::new(-1500.0, 1500.0, 100)
    }

    /// Pins of `rows` slab rows, nothing else.
    fn rows(rows: usize) -> Pins {
        Pins {
            rows: Some(rows),
            ..Pins::default()
        }
    }

    #[test]
    fn salvage_bands_split_at_the_record_limit() {
        let split = |bands: Vec<Range<usize>>, max| split_bands(bands, max).collect::<Vec<_>>();
        assert_eq!(split(vec![0..10, 12..14], usize::MAX), vec![0..10, 12..14]);
        assert_eq!(
            split(vec![0..10, 12..14], 4),
            vec![0..4, 4..8, 8..10, 12..14]
        );
        assert_eq!(split(vec![3..4, 5..7], 1), vec![3..4, 5..6, 6..7]);
    }

    #[test]
    fn fingerprint_streams_blocks_to_the_whole_file_value() {
        // Three and a half blocks: the last read is a partial block.
        let bytes: Vec<u8> = (0..FINGERPRINT_BLOCK * 7 / 2)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let path =
            std::env::temp_dir().join(format!("pipeline_{}_fingerprint.bin", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let want = ((bytes.len() as u64) << 32) | mh5::crc::crc32(&bytes) as u64;
        assert_eq!(file_fingerprint(&path).unwrap(), want);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn all_engines_agree_on_a_file() {
        let (path, _) = scan_file("agree");
        let p = Pipeline::default();
        let engines = [
            Engine::Cpu { threads: 1 },
            Engine::Cpu { threads: 3 },
            Engine::Gpu {
                layout: Layout::Flat1d,
            },
            Engine::Gpu {
                layout: Layout::Pointer3d,
            },
            Engine::GpuTables,
            Engine::GpuPipelined,
        ];
        let reports: Vec<RunReport> = engines
            .iter()
            .map(|&e| p.run_scan_file(&path, &cfg(), e).unwrap())
            .collect();
        for r in &reports[1..] {
            assert_eq!(
                reports[0].image.data, r.image.data,
                "{} diverges from cpu-seq",
                r.engine
            );
            assert_eq!(reports[0].stats, r.stats);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gpu_report_accounts_for_transfers() {
        let (path, _) = scan_file("meters");
        let p = Pipeline::default();
        let r = p
            .run_scan_file(
                &path,
                &cfg(),
                Engine::Gpu {
                    layout: Layout::Flat1d,
                },
            )
            .unwrap();
        assert!(r.comm_time_s > 0.0);
        assert!(r.compute_time_s > 0.0);
        assert!((r.total_time_s - (r.comm_time_s + r.compute_time_s)).abs() < 1e-9);
        assert!(r.n_slabs >= 1);
        assert!(r.rows_per_slab >= 1);
        assert!(r.summary().contains("gpu-1d"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cpu_gpu_speedup_is_in_the_papers_ballpark() {
        // The headline claim (GPU ≈ 25–30 % of CPU) only holds once the
        // stack is big enough that per-pair work dominates the fixed launch
        // and PCIe latencies — on a tiny scan the GPU correctly *loses*.
        // Use a noisy mid-size scan where every pair is active.
        let scan = SyntheticScanBuilder::new(48, 48, 24)
            .scatterers(40)
            .noise(1.0)
            .background(20.0)
            .seed(3)
            .build()
            .unwrap();
        let path =
            std::env::temp_dir().join(format!("pipeline_{}_speedup.mh5", std::process::id()));
        write_scan(&path, &scan.geometry, &scan.images, None, 8).unwrap();
        let p = Pipeline::default();
        let cpu_r = p
            .run_scan_file(&path, &cfg(), Engine::Cpu { threads: 1 })
            .unwrap();
        let gpu_r = p
            .run_scan_file(
                &path,
                &cfg(),
                Engine::Gpu {
                    layout: Layout::Flat1d,
                },
            )
            .unwrap();
        let ratio = gpu_r.total_time_s / cpu_r.total_time_s;
        // This mid-size stack is still fairly transfer-heavy; the calibrated
        // 25–30 % figure needs the full-scale Fig 8 workloads (laue-bench).
        assert!(
            ratio < 0.75,
            "the modeled GPU must beat the modeled CPU at this scale (ratio {ratio})"
        );

        // And the inverse crossover: on a tiny scan the fixed overheads make
        // the GPU slower — the scalability story of the paper's Fig 8.
        let (tiny_path, _) = scan_file("speedup_tiny");
        let cpu_t = p
            .run_scan_file(&tiny_path, &cfg(), Engine::Cpu { threads: 1 })
            .unwrap();
        let gpu_t = p
            .run_scan_file(
                &tiny_path,
                &cfg(),
                Engine::Gpu {
                    layout: Layout::Flat1d,
                },
            )
            .unwrap();
        assert!(
            gpu_t.total_time_s > cpu_t.total_time_s,
            "fixed overheads must dominate a tiny scan"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&tiny_path).ok();
    }

    #[test]
    fn fallback_policy_degrades_to_cpu_on_dead_device() {
        let (path, _) = scan_file("fallback");
        let cpu = Pipeline::default()
            .run_scan_file(&path, &cfg(), Engine::Cpu { threads: 1 })
            .unwrap();

        // A device that dies almost immediately: abort surfaces the error…
        let dead_plan = cuda_sim::FaultPlan::new(1).fail_after(2);
        let abort = Pipeline {
            fault_plan: Some(dead_plan.clone()),
            ..Pipeline::default()
        };
        let gpu = Engine::Gpu {
            layout: Layout::Flat1d,
        };
        assert!(abort.run_scan_file(&path, &cfg(), gpu).is_err());

        // …and fallback-cpu completes on the CPU engine with the degradation
        // recorded, bitwise equal to cpu-seq.
        let degrade = Pipeline {
            fault_plan: Some(dead_plan),
            on_gpu_failure: GpuFailurePolicy::FallbackCpu,
            ..Pipeline::default()
        };
        let r = degrade.run_scan_file(&path, &cfg(), gpu).unwrap();
        let note = r.fallback.as_deref().expect("degradation recorded");
        assert!(
            note.contains("gpu-1d") && note.contains("cpu-seq"),
            "{note}"
        );
        assert_eq!(r.image.data, cpu.image.data);
        assert_eq!(r.stats, cpu.stats);
        assert!(r.summary().contains("DEGRADED"), "{}", r.summary());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_oom_replans_without_fallback() {
        let (path, _) = scan_file("replan");
        let clean = Pipeline::default();
        let gpu = Engine::Gpu {
            layout: Layout::Flat1d,
        };
        let baseline = clean.run_scan_file(&path, &cfg(), gpu).unwrap();
        assert_eq!(baseline.gpu_replans, 0);

        let p = Pipeline {
            fault_plan: Some(cuda_sim::FaultPlan::new(3).fail_nth_alloc(3)),
            ..Pipeline::default()
        };
        let r = p.run_scan_file(&path, &cfg(), gpu).unwrap();
        assert!(r.gpu_replans >= 1, "the engine must have re-planned");
        assert!(r.fallback.is_none(), "recovered without degrading");
        assert_eq!(r.image.data, baseline.image.data);
        assert_eq!(r.stats, baseline.stats);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pipelined_engine_overlaps_and_matches_serial() {
        let (path, _) = scan_file("pipe");
        // Several slabs, so the ring can overlap.
        let p = Pipeline {
            pins: rows(2),
            ..Pipeline::default()
        };
        let c = cfg();
        let serial = p
            .run_scan_file(
                &path,
                &c,
                Engine::Gpu {
                    layout: Layout::Flat1d,
                },
            )
            .unwrap();
        let piped = p.run_scan_file(&path, &c, Engine::GpuPipelined).unwrap();
        assert_eq!(
            piped.pipeline_depth, 3,
            "gpu-pipe defaults to a 3-slot ring"
        );
        assert_eq!(serial.pipeline_depth, 1);
        assert_eq!(piped.image.data, serial.image.data);
        assert!(
            piped.total_time_s < serial.total_time_s,
            "the ring must hide transfer time ({} vs {})",
            piped.total_time_s,
            serial.total_time_s
        );
        // A pinned ring depth overrides the engine default.
        let two = Pipeline {
            pins: Pins {
                depth: Some(PipelineDepth(2)),
                ..p.pins
            },
            ..Pipeline::default()
        }
        .run_scan_file(&path, &c, Engine::GpuPipelined)
        .unwrap();
        assert_eq!(two.pipeline_depth, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn warm_table_cache_speeds_up_the_second_run() {
        let (path, _) = scan_file("warm");
        let p = Pipeline::default();
        let cold = p.run_scan_file(&path, &cfg(), Engine::GpuTables).unwrap();
        assert_eq!(cold.table_cache.host_misses, 1);
        assert_eq!(cold.table_cache.device_misses, 1);
        // Same pipeline, same scan: tables are found host-side and already
        // resident on the persistent device.
        let warm = p.run_scan_file(&path, &cfg(), Engine::GpuTables).unwrap();
        assert_eq!(warm.table_cache.host_hits, 1);
        assert_eq!(warm.table_cache.device_hits, 1);
        assert_eq!(warm.image.data, cold.image.data);
        assert!(
            warm.total_time_s < cold.total_time_s,
            "skipping the table upload must shorten the run ({} vs {})",
            warm.total_time_s,
            cold.total_time_s
        );
        assert!(warm.summary().contains("cache"), "{}", warm.summary());

        // A pipeline with residency disabled still caches host-side.
        let no_res = Pipeline {
            table_cache_mb: Some(0),
            ..Pipeline::default()
        };
        let r1 = no_res
            .run_scan_file(&path, &cfg(), Engine::GpuTables)
            .unwrap();
        let r2 = no_res
            .run_scan_file(&path, &cfg(), Engine::GpuTables)
            .unwrap();
        assert_eq!(r1.table_cache.device_hits, 0);
        assert_eq!(r2.table_cache.device_hits, 0);
        assert_eq!(r2.table_cache.host_hits, 1);
        assert_eq!(r2.image.data, cold.image.data);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gpu_multi_engine_matches_single_gpu() {
        let (path, _) = scan_file("multi");
        let p = Pipeline {
            pins: rows(2),
            ..Pipeline::default()
        };
        let c = cfg();
        let single = p.run_scan_file(&path, &c, Engine::GpuPipelined).unwrap();
        let multi = p
            .run_scan_file(&path, &c, Engine::GpuMulti { devices: 3 })
            .unwrap();
        assert_eq!(multi.engine, "gpu-multi(3)");
        assert_eq!(multi.image.data, single.image.data);
        assert_eq!(multi.stats, single.stats);
        assert!(multi.n_slabs >= 3);
        assert_eq!(multi.recovery.devices_lost, 0);
        // The fleet shares one half-duplex PCIe bus, and this tiny scan is
        // transfer-bound: the extra devices mostly queue on the link, so
        // — honestly — three devices do NOT beat one pipelined device
        // here. The stall the fleet paid is on the meter.
        assert!(
            multi.bus_wait_s > 0.0,
            "fleet devices must contend for the shared bus"
        );
        assert!(
            multi.total_time_s >= single.total_time_s,
            "a transfer-bound fleet cannot beat the shared bus ({} vs {})",
            multi.total_time_s,
            single.total_time_s
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_resume_completes_an_interrupted_run_bit_identically() {
        let (path, _) = scan_file("resume");
        let jdir = std::env::temp_dir().join(format!("pipeline_{}_resume_jrn", std::process::id()));
        let _ = std::fs::remove_dir_all(&jdir);
        let c = cfg();
        let two_rows = Pipeline {
            pins: rows(2),
            ..Pipeline::default()
        };
        let baseline = two_rows
            .run_scan_file(
                &path,
                &c,
                Engine::Gpu {
                    layout: Layout::Flat1d,
                },
            )
            .unwrap();

        // The device dies at its third slab launch; abort policy surfaces
        // the loss but the journal keeps the two committed slabs.
        let dying = Pipeline {
            fault_plan: Some(cuda_sim::FaultPlan::new(0).fail_after_launches(2)),
            journal_dir: Some(jdir.clone()),
            pins: rows(2),
            ..Pipeline::default()
        };
        assert!(dying
            .run_scan_file(
                &path,
                &c,
                Engine::Gpu {
                    layout: Layout::Flat1d,
                }
            )
            .is_err());
        assert_eq!(std::fs::read_dir(&jdir).unwrap().count(), 1);

        // A fresh healthy pipeline with --resume replays them and computes
        // only the remainder — bit-identical, provenance recorded.
        let resumed_pipeline = Pipeline {
            journal_dir: Some(jdir.clone()),
            resume: true,
            pins: rows(2),
            ..Pipeline::default()
        };
        let r = resumed_pipeline
            .run_scan_file(
                &path,
                &c,
                Engine::Gpu {
                    layout: Layout::Flat1d,
                },
            )
            .unwrap();
        assert_eq!(r.image.data, baseline.image.data);
        assert_eq!(r.stats, baseline.stats);
        let resume = r.recovery.resume.as_ref().expect("resume provenance");
        assert_eq!(resume.slabs_replayed, 2);
        assert!(
            r.summary().contains("resumed from journal"),
            "{}",
            r.summary()
        );
        // The finished run retires its journal.
        assert_eq!(std::fs::read_dir(&jdir).unwrap().count(), 0);

        std::fs::remove_dir_all(&jdir).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipping_a_run_mode_forces_a_clean_restart() {
        let (path, _) = scan_file("modeflip");
        let c = cfg();
        let two_rows = Pipeline {
            pins: rows(2),
            ..Pipeline::default()
        };
        let gpu = Engine::Gpu {
            layout: Layout::Flat1d,
        };
        let baseline = two_rows.run_scan_file(&path, &c, gpu).unwrap();
        assert!(
            baseline.slab_privatized.is_empty(),
            "atomic run records no accumulation attribution"
        );

        type Flip = fn(&mut ReconstructionConfig);
        type Check = fn(&RunReport);
        let flips: [(&str, Flip, Check); 3] = [
            (
                "compaction",
                |c| c.compaction = CompactionMode::On,
                |r| {
                    assert!(
                        !r.slab_densities.is_empty(),
                        "compacted run reports density"
                    );
                    assert!(r.summary().contains("sparsity"), "{}", r.summary());
                },
            ),
            (
                "accumulation",
                |c| c.accumulation = AccumulationMode::Privatized,
                |r| {
                    assert!(
                        !r.slab_privatized.is_empty() && r.slab_privatized.iter().all(|&p| p),
                        "100 bins fit the M2070 tile, so every slab privatizes"
                    );
                    assert_eq!(r.stats.privatized_pairs, r.stats.pairs_total);
                    assert!(
                        r.summary().contains("accumulation: privatized"),
                        "{}",
                        r.summary()
                    );
                },
            ),
            (
                "plan",
                |c| c.plan = PlanMode::Auto,
                |r| {
                    let explain = r.plan.as_ref().expect("plan auto records an explain block");
                    assert!(!explain.candidates.is_empty());
                },
            ),
        ];
        for (mode, flip, check) in flips {
            let jdir = std::env::temp_dir()
                .join(format!("pipeline_{}_{mode}flip_jrn", std::process::id()));
            let _ = std::fs::remove_dir_all(&jdir);
            // Interrupt a run after two committed slabs.
            let dying = Pipeline {
                fault_plan: Some(cuda_sim::FaultPlan::new(0).fail_after_launches(2)),
                journal_dir: Some(jdir.clone()),
                pins: rows(2),
                ..Pipeline::default()
            };
            assert!(dying.run_scan_file(&path, &c, gpu).is_err());
            assert_eq!(std::fs::read_dir(&jdir).unwrap().count(), 1);

            // Resuming under another mode must NOT replay those slabs: the
            // mode, or the plan it resolves, is part of the journal key, so
            // the run restarts clean — and still matches the baseline
            // bitwise, since every mode only relabels work.
            let mut flipped = c.clone();
            flip(&mut flipped);
            let resumed = Pipeline {
                journal_dir: Some(jdir.clone()),
                resume: true,
                pins: rows(2),
                ..Pipeline::default()
            };
            let r = resumed.run_scan_file(&path, &flipped, gpu).unwrap();
            assert!(
                r.recovery.resume.is_none(),
                "a journal from another {mode} mode must not be replayed"
            );
            assert_eq!(r.image.data, baseline.image.data, "{mode}");
            check(&r);

            // Same mode, same key: the stale journal is still replayable.
            let r = resumed.run_scan_file(&path, &c, gpu).unwrap();
            let resume = r.recovery.resume.as_ref().expect("same-mode resume");
            assert_eq!(resume.slabs_replayed, 2, "{mode}");
            assert_eq!(r.image.data, baseline.image.data, "{mode}");
            std::fs::remove_dir_all(&jdir).ok();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn plan_auto_matches_fixed_bitwise_and_explains_itself() {
        let (path, _) = scan_file("planauto");
        let c = cfg();
        let gpu = Engine::Gpu {
            layout: Layout::Flat1d,
        };
        let fixed = Pipeline::default().run_scan_file(&path, &c, gpu).unwrap();
        assert!(fixed.plan.is_none(), "fixed plan records no explain block");

        // The planned run resolves compaction and accumulation per slab,
        // and still matches the dense, atomic fixed run bitwise.
        let mut auto_cfg = c.clone();
        auto_cfg.plan = PlanMode::Auto;
        auto_cfg.compaction = CompactionMode::Auto;
        auto_cfg.accumulation = AccumulationMode::Auto;
        let auto = Pipeline::default()
            .run_scan_file(&path, &auto_cfg, gpu)
            .unwrap();
        assert_eq!(auto.image.data, fixed.image.data);
        // The scan is sparse under this cutoff, so the planned run compacts.
        assert!(auto.stats.compacted_pairs > 0, "{:?}", auto.stats);
        let explain = auto.plan.as_ref().expect("plan auto explain block");
        assert!(explain.predicted_s > 0.0);
        assert!(explain.measured_s > 0.0);
        assert!(
            explain
                .candidates
                .iter()
                .any(|(label, _)| *label == explain.chosen),
            "chosen plan {} must appear among scored candidates",
            explain.chosen
        );
        // The chosen plan is the argmin over the scored candidates.
        let best = explain
            .candidates
            .iter()
            .map(|&(_, s)| s)
            .fold(f64::INFINITY, f64::min);
        assert!(explain.predicted_s <= best + 1e-12);
        assert!(
            auto.summary().contains("plan auto chose"),
            "{}",
            auto.summary()
        );

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn plan_auto_runs_the_configured_modes_and_searches_only_what_is_unpinned() {
        use laue_core::input::InMemorySlabSource;
        // `laue generate --rows 24 --cols 24 --steps 16 --noise 1 --seed 5`
        // under a -300..300 µm window: auto compaction culls rows there,
        // and auto accumulation privatizes.
        let scan = SyntheticScanBuilder::new(24, 24, 16)
            .scatterers(24)
            .background(10.0)
            .noise(1.0)
            .seed(5)
            .build()
            .unwrap();
        let source = || InMemorySlabSource::new(scan.images.clone(), 16, 24, 24).unwrap();
        let mut auto = ReconstructionConfig::new(-300.0, 300.0, 100);
        auto.plan = PlanMode::Auto;
        auto.compaction = CompactionMode::Auto;
        auto.accumulation = AccumulationMode::Auto;
        let cluster = Engine::GpuCluster {
            nodes: 4,
            devices_per_node: 1,
        };
        let pinned = |pins| Pipeline {
            pins,
            ..Pipeline::default()
        };
        let pinned_depth = pinned(Pins {
            depth: Some(PipelineDepth(2)),
            ..Pins::default()
        });
        let pinned_reduction = pinned(Pins {
            topology: Some(ReductionTopology::Ring),
            overlap: Some(false),
            ..Pins::default()
        });
        let off = ReconstructionConfig {
            compaction: CompactionMode::Off,
            ..auto.clone()
        };
        let atomic = ReconstructionConfig {
            accumulation: AccumulationMode::Atomic,
            ..auto.clone()
        };
        let runs = [
            (Pipeline::default(), &auto, Engine::GpuPipelined),
            (Pipeline::default(), &off, Engine::GpuPipelined),
            (Pipeline::default(), &atomic, Engine::GpuPipelined),
            (pinned_depth, &auto, Engine::GpuPipelined),
            (pinned_reduction, &auto, cluster),
        ];
        let mut reports = Vec::new();
        for (p, c, engine) in &runs {
            let r = p
                .run_source(&mut source(), &scan.geometry, c, *engine)
                .unwrap();
            // The explain block prices the run that executed: the cold
            // prediction for this very config and these pins.
            let fixed = engine.plan(p.pins).unwrap();
            let warmth = TableWarmth {
                resident_budget: p.table_cache_budget(),
                ..TableWarmth::default()
            };
            let priced = plan_auto(
                &p.device,
                &p.host,
                &p.interconnect,
                fixed.nodes,
                fixed.devices,
                p.pins,
                &mut source(),
                &scan.geometry,
                c,
                warmth,
                None,
            )
            .unwrap();
            let explain = r.plan.clone().expect("plan auto explain block");
            assert_eq!(explain.chosen, priced.label, "{engine:?} {c:?}");
            assert_eq!(explain.predicted_s, priced.predicted_s, "{engine:?} {c:?}");
            reports.push((r, explain));
        }
        let [(both, _), (off, _), (atomic, _), (_, k2), (_, ring)] = &reports[..] else {
            unreachable!()
        };
        assert!(both.stats.culled_rows > 0 && both.stats.privatized_pairs > 0);
        assert_eq!((off.stats.culled_rows, off.stats.compacted_pairs), (0, 0));
        assert_eq!(atomic.stats.privatized_pairs, 0);
        assert!(k2.chosen.contains("/k2/"), "{}", k2.chosen);
        assert!(k2
            .candidates
            .iter()
            .all(|(label, _)| label.contains("/k2/")));
        assert_eq!(ring.chosen, "n4x1/ring+barrier");
        // Node counts 1, 2 and 4, each priced only under the pins.
        assert_eq!(ring.candidates.len(), 3);
        for (r, _) in &reports {
            assert_eq!(r.image.data, both.image.data);
        }

        // A zero ring depth or zero slab rows is refused under either
        // plan and on every engine, before any work.
        let zero_depth = Pins {
            depth: Some(PipelineDepth(0)),
            ..Pins::default()
        };
        for zero in [pinned(zero_depth), pinned(rows(0))] {
            for (c, engine) in [
                (&auto, Engine::GpuPipelined),
                (&cfg(), Engine::GpuPipelined),
                (&cfg(), Engine::Cpu { threads: 1 }),
            ] {
                let err = zero
                    .run_source(&mut source(), &scan.geometry, c, engine)
                    .unwrap_err();
                assert!(
                    matches!(err, crate::PipelineError::Core(CoreError::InvalidConfig(_))),
                    "{:?}: {err}",
                    zero.pins
                );
            }
            assert!(zero.shared.devices.lock().unwrap().is_empty(), "no work");
        }
    }

    #[test]
    fn cpu_threaded_zero_resolves_to_available_parallelism() {
        let (path, _) = scan_file("autothreads");
        let p = Pipeline::default();
        let seq = p
            .run_scan_file(&path, &cfg(), Engine::Cpu { threads: 1 })
            .unwrap();
        let auto = p
            .run_scan_file(&path, &cfg(), Engine::Cpu { threads: 0 })
            .unwrap();
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // One thread is the sequential engine, so on a one-core host
        // `cpu-threaded:0` reports `cpu-seq`.
        let label = match cores {
            1 => "cpu-seq".to_string(),
            n => format!("cpu-threaded({n})"),
        };
        assert_eq!(auto.engine, label);
        assert_eq!(auto.image.data, seq.image.data);
        assert_eq!(auto.stats, seq.stats);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fallback_salvages_gpu_committed_slabs() {
        let (path, _) = scan_file("salvage");
        let c = cfg();
        let cpu = Pipeline::default()
            .run_scan_file(&path, &c, Engine::Cpu { threads: 1 })
            .unwrap();
        let p = Pipeline {
            fault_plan: Some(cuda_sim::FaultPlan::new(0).fail_after_launches(2)),
            on_gpu_failure: GpuFailurePolicy::FallbackCpu,
            pins: rows(2),
            ..Pipeline::default()
        };
        let r = p
            .run_scan_file(
                &path,
                &c,
                Engine::Gpu {
                    layout: Layout::Flat1d,
                },
            )
            .unwrap();
        assert_eq!(r.image.data, cpu.image.data);
        assert_eq!(r.stats, cpu.stats);
        assert_eq!(
            r.recovery.salvaged_slabs, 2,
            "the two GPU-committed slabs are kept"
        );
        assert_eq!(
            r.recovery.recomputed_slabs, 1,
            "the CPU recomputes one remaining band"
        );
        assert!(r.fallback.is_some());
        assert!(r.summary().contains("salvage:"), "{}", r.summary());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fallback_counts_the_devices_that_actually_died() {
        let (path, _) = scan_file("lost_count");
        // The only device of a single-GPU engine dies: one device lost.
        let p = Pipeline {
            fault_plan: Some(cuda_sim::FaultPlan::new(0).fail_after_launches(1)),
            on_gpu_failure: GpuFailurePolicy::FallbackCpu,
            pins: rows(2),
            ..Pipeline::default()
        };
        let r = p
            .run_scan_file(&path, &cfg(), Engine::GpuPipelined)
            .unwrap();
        assert!(r.fallback.is_some());
        assert_eq!(r.recovery.devices_lost, 1);

        // A fleet too small for one row fails on every device without
        // losing any of them: no loss is counted.
        let p = Pipeline {
            fault_plan: Some(cuda_sim::FaultPlan::new(0).report_mem_bytes(1024)),
            on_gpu_failure: GpuFailurePolicy::FallbackCpu,
            ..Pipeline::default()
        };
        let r = p
            .run_scan_file(&path, &cfg(), Engine::GpuMulti { devices: 2 })
            .unwrap();
        assert!(r.fallback.is_some());
        assert_eq!(r.recovery.devices_lost, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let p = Pipeline::default();
        assert!(p
            .run_scan_file("/nonexistent/scan.mh5", &cfg(), Engine::Cpu { threads: 1 })
            .is_err());
    }

    #[test]
    fn scrub_repairs_injected_transfer_corruption_bit_identically() {
        let (path, _) = scan_file("scrub_h2d");
        let gpu = Engine::Gpu {
            layout: Layout::Flat1d,
        };
        let clean = Pipeline::default()
            .run_scan_file(&path, &cfg(), gpu)
            .unwrap();

        let mut c = cfg();
        c.integrity = laue_core::IntegrityMode::Scrub;
        let p = Pipeline {
            fault_plan: Some(cuda_sim::FaultPlan::new(5).flip_nth_h2d(2)),
            ..Pipeline::default()
        };
        let r = p.run_scan_file(&path, &c, gpu).unwrap();
        let injected = r.faults_injected.expect("fault plan installed");
        assert!(injected.h2d_flipped >= 1, "{injected:?}");
        assert!(r.integrity.transfer_crc_failures >= 1, "{:?}", r.integrity);
        assert_eq!(
            r.integrity.corruptions_corrected, r.integrity.corruptions_detected,
            "every detection repaired: {:?}",
            r.integrity
        );
        assert_eq!(r.image.data, clean.image.data, "repaired bit-identically");
        assert_eq!(r.stats, clean.stats);
        assert!(
            r.summary().contains("INTEGRITY-DEGRADED"),
            "{}",
            r.summary()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scrub_reexecutes_a_slab_after_a_silent_kernel_flip() {
        let (path, _) = scan_file("scrub_kernel");
        let gpu = Engine::Gpu {
            layout: Layout::Flat1d,
        };
        let clean = Pipeline::default()
            .run_scan_file(&path, &cfg(), gpu)
            .unwrap();

        let mut c = cfg();
        c.integrity = laue_core::IntegrityMode::Scrub;
        let p = Pipeline {
            fault_plan: Some(
                cuda_sim::FaultPlan::new(5)
                    .flip_nth_kernel(1)
                    .flip_op_index(3),
            ),
            ..Pipeline::default()
        };
        let r = p.run_scan_file(&path, &c, gpu).unwrap();
        let injected = r.faults_injected.expect("fault plan installed");
        assert!(injected.kernel_flipped >= 1, "{injected:?}");
        assert!(r.integrity.abft_mismatches >= 1, "{:?}", r.integrity);
        assert!(
            r.integrity.scrub_retries >= 1,
            "the condemned slab re-executed: {:?}",
            r.integrity
        );
        assert_eq!(r.image.data, clean.image.data, "repaired bit-identically");
        assert_eq!(r.stats, clean.stats);
        assert!(
            r.summary().contains("INTEGRITY-DEGRADED"),
            "{}",
            r.summary()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn verify_aborts_on_silent_corruption_instead_of_exporting_it() {
        let (path, _) = scan_file("verify_abort");
        let mut c = cfg();
        c.integrity = laue_core::IntegrityMode::Verify;
        let p = Pipeline {
            fault_plan: Some(
                cuda_sim::FaultPlan::new(5)
                    .flip_nth_kernel(1)
                    .flip_op_index(3),
            ),
            ..Pipeline::default()
        };
        let err = p
            .run_scan_file(
                &path,
                &c,
                Engine::Gpu {
                    layout: Layout::Flat1d,
                },
            )
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("integrity"), "{msg}");
        assert!(msg.contains("scrub"), "points at the repair mode: {msg}");
        std::fs::remove_file(&path).ok();
    }

    /// A device that flips a deposit in every launch, retries included,
    /// spends scrub's whole retry budget on every slab: each slab is
    /// repaired from the host reference, and the run still ends
    /// bit-identical to the clean one. `verify` aborts on the first slab.
    #[test]
    fn scrub_repairs_every_slab_of_a_persistently_corrupting_device() {
        // Noise keeps every slab deposit-dense, so every launch has the
        // targeted deposit.
        let scan = SyntheticScanBuilder::new(8, 8, 12)
            .scatterers(4)
            .background(12.0)
            .noise(2.0)
            .seed(21)
            .build()
            .unwrap();
        let path =
            std::env::temp_dir().join(format!("pipeline_{}_persistent.mh5", std::process::id()));
        write_scan(&path, &scan.geometry, &scan.images, Some(&scan.truth), 2).unwrap();
        let gpu = Engine::Gpu {
            layout: Layout::Flat1d,
        };
        let mut c = cfg();
        let three_rows = Pipeline {
            pins: rows(3),
            ..Pipeline::default()
        };
        let clean = three_rows.run_scan_file(&path, &c, gpu).unwrap();

        let persistent = Pipeline {
            fault_plan: Some(
                cuda_sim::FaultPlan::new(5)
                    .flip_kernel_from(1)
                    .flip_op_index(3),
            ),
            pins: rows(3),
            ..Pipeline::default()
        };
        c.integrity = laue_core::IntegrityMode::Scrub;
        let r = persistent.run_scan_file(&path, &c, gpu).unwrap();
        assert_eq!(r.n_slabs, 3, "8 rows in slabs of 3");
        let retries = 3; // scrub's retry budget per slab
        let slabs = r.n_slabs as u64;
        assert_eq!(r.integrity.cpu_fallback_slabs, slabs, "{:?}", r.integrity);
        assert_eq!(r.integrity.abft_mismatches, slabs, "{:?}", r.integrity);
        assert_eq!(r.integrity.scrub_retries, slabs * retries);
        assert_eq!(r.integrity.corruptions_corrected, slabs);
        let injected = r.faults_injected.expect("fault plan installed");
        assert_eq!(
            injected.kernel_flipped,
            slabs * (1 + retries),
            "{injected:?}"
        );
        assert_eq!(r.image.data, clean.image.data, "repaired bit-identically");
        assert_eq!(r.stats, clean.stats);
        assert!(
            r.summary().contains("INTEGRITY-DEGRADED"),
            "{}",
            r.summary()
        );

        c.integrity = laue_core::IntegrityMode::Verify;
        let err = persistent.run_scan_file(&path, &c, gpu).unwrap_err();
        assert!(err.to_string().contains("integrity"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn watchdog_condemns_a_stalled_launch_under_scrub() {
        let (path, _) = scan_file("watchdog");
        let gpu = Engine::Gpu {
            layout: Layout::Flat1d,
        };
        let clean = Pipeline::default()
            .run_scan_file(&path, &cfg(), gpu)
            .unwrap();

        let mut c = cfg();
        c.integrity = laue_core::IntegrityMode::Scrub;
        let p = Pipeline {
            // A stall far past any cost-model prediction: the kernel
            // "succeeds" (sums intact) but blows its watchdog deadline.
            fault_plan: Some(cuda_sim::FaultPlan::new(5).stall_nth_kernel(1, 5.0)),
            ..Pipeline::default()
        };
        let r = p.run_scan_file(&path, &c, gpu).unwrap();
        let injected = r.faults_injected.expect("fault plan installed");
        assert!(injected.kernel_stalled >= 1, "{injected:?}");
        assert!(r.integrity.watchdog_timeouts >= 1, "{:?}", r.integrity);
        assert!(r.integrity.corruptions_detected >= 1, "{:?}", r.integrity);
        assert_eq!(r.image.data, clean.image.data, "repaired bit-identically");
        assert_eq!(r.stats, clean.stats);
        std::fs::remove_file(&path).ok();
    }

    /// Regression for submission-order-stable fault ordinals: one fault
    /// spec must fire on the same transfers/launches whether the ring runs
    /// serial or deep, because the dice are keyed on per-kind submission
    /// ordinals, not on completion times or wall-clock interleaving.
    #[test]
    fn fault_ordinals_are_stable_across_pipeline_depths() {
        let (path, _) = scan_file("ordinal_depth");
        let gpu = Engine::Gpu {
            layout: Layout::Flat1d,
        };
        let clean = Pipeline::default()
            .run_scan_file(&path, &cfg(), gpu)
            .unwrap();

        let spec = cuda_sim::FaultPlan::new(0)
            .h2d_fault_rate(0.25)
            .flip_nth_d2h(2);
        let run_at_depth = |depth: usize| {
            let mut c = cfg();
            c.integrity = laue_core::IntegrityMode::Scrub;
            let p = Pipeline {
                fault_plan: Some(spec.clone()),
                pins: Pins {
                    depth: Some(PipelineDepth(depth)),
                    ..Pins::default()
                },
                ..Pipeline::default()
            };
            p.run_scan_file(&path, &c, gpu).unwrap()
        };
        let serial = run_at_depth(1);
        let deep = run_at_depth(3);
        assert_eq!(
            serial.faults_injected, deep.faults_injected,
            "the same faults must fire at every ring depth"
        );
        assert_eq!(
            serial.gpu_transfer_retries, deep.gpu_transfer_retries,
            "identical transient-fault schedule"
        );
        assert_eq!(
            serial.integrity.transfer_crc_failures, deep.integrity.transfer_crc_failures,
            "identical silent-corruption detections"
        );
        for r in [&serial, &deep] {
            assert_eq!(r.image.data, clean.image.data);
            assert_eq!(r.stats, clean.stats);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_resolved_run_input_participates_in_the_journal_key() {
        use laue_core::gpu::{GpuOptions, Triangulation};
        use laue_core::{ClusterOptions, IntegrityMode};
        let plan = Engine::GpuCluster {
            nodes: 2,
            devices_per_node: 1,
        }
        .plan(Pins::default())
        .unwrap();
        let dims = (12, 8, 8);
        let base = journal_key(&plan, &cfg(), dims, Some(1)).hash;

        // Exhaustive: a new config field does not compile here until it
        // gets a flip below.
        let ReconstructionConfig {
            depth_start: _,
            depth_end: _,
            n_depth_bins: _,
            intensity_cutoff: _,
            wire_edge: _,
            compaction: _,
            accumulation: _,
            plan: _,
            integrity: _,
        } = cfg();
        type Flip = fn(&mut ReconstructionConfig);
        let cfg_flips: [(&str, Flip); 9] = [
            ("depth_start", |c| c.depth_start -= 0.5),
            ("depth_end", |c| c.depth_end += 0.5),
            ("n_depth_bins", |c| c.n_depth_bins += 1),
            ("intensity_cutoff", |c| c.intensity_cutoff += 0.25),
            ("wire_edge", |c| c.wire_edge = c.wire_edge.opposite()),
            ("compaction", |c| c.compaction = CompactionMode::On),
            ("accumulation", |c| c.accumulation = AccumulationMode::Auto),
            ("plan", |c| c.plan = PlanMode::Auto),
            ("integrity", |c| c.integrity = IntegrityMode::Verify),
        ];
        for (field, flip) in cfg_flips {
            let mut c = cfg();
            flip(&mut c);
            assert_ne!(c, cfg(), "the {field} flip must change the config");
            let key = journal_key(&plan, &c, dims, Some(1));
            assert_ne!(key.hash, base, "a {field} flip must force a clean restart");
        }

        // Exhaustive too: a new plan field does not compile here until it
        // gets a flip below.
        let Plan {
            nodes: _,
            devices: _,
            options,
            depth: _,
            rows_per_slab: _,
            reduction,
        } = plan;
        let GpuOptions {
            layout: _,
            triangulation: _,
        } = options;
        let ClusterOptions {
            topology: _,
            overlap: _,
        } = reduction;
        let with_options = |options| Plan { options, ..plan };
        let with_reduction = |reduction| Plan { reduction, ..plan };
        let plan_flips = [
            ("nodes", Plan { nodes: 4, ..plan }),
            ("devices", Plan { devices: 2, ..plan }),
            (
                "layout",
                with_options(GpuOptions {
                    layout: Layout::Pointer3d,
                    ..options
                }),
            ),
            (
                "triangulation",
                with_options(GpuOptions {
                    triangulation: Triangulation::HostTables,
                    ..options
                }),
            ),
            (
                "depth",
                Plan {
                    depth: PipelineDepth::SERIAL,
                    ..plan
                },
            ),
            (
                "rows_per_slab",
                Plan {
                    rows_per_slab: Some(3),
                    ..plan
                },
            ),
            (
                "reduction topology",
                with_reduction(ClusterOptions {
                    topology: ReductionTopology::Ring,
                    ..reduction
                }),
            ),
            (
                "overlap",
                with_reduction(ClusterOptions {
                    overlap: false,
                    ..reduction
                }),
            ),
        ];
        for (field, flipped) in plan_flips {
            assert_ne!(flipped, plan, "the {field} flip must change the plan");
            let key = journal_key(&flipped, &cfg(), dims, Some(1));
            assert_ne!(key.hash, base, "a {field} flip must force a clean restart");
        }

        let key = |dims, fingerprint| journal_key(&plan, &cfg(), dims, Some(fingerprint)).hash;
        let flips = [
            ("fingerprint", key(dims, 2)),
            ("image count", key((13, 8, 8), 1)),
            ("row count", key((12, 9, 8), 1)),
            ("column count", key((12, 8, 9), 1)),
        ];
        for (what, hash) in flips {
            assert_ne!(hash, base, "a {what} flip must force a clean restart");
        }

        // Neither the engine label nor what the plan resolves away (a
        // pinned ring depth, a one-node reduction) is part of the key:
        // aliases of one plan share their journals.
        let scan = SyntheticScanBuilder::new(8, 8, 12).build().unwrap();
        let alias_key = |engine: Engine, depth: Option<usize>, topology| {
            let p = Pipeline {
                pins: Pins {
                    depth: depth.map(PipelineDepth),
                    topology,
                    ..Pins::default()
                },
                ..Pipeline::default()
            };
            let mut source =
                laue_core::input::InMemorySlabSource::new(scan.images.clone(), 12, 8, 8).unwrap();
            let (plan, _) = p
                .resolve_plan(&mut source, &scan.geometry, &cfg(), engine)
                .unwrap();
            journal_key(&plan, &cfg(), dims, Some(1)).hash
        };
        let one = alias_key(Engine::GpuPipelined, None, None);
        let flat1d = Engine::Gpu {
            layout: Layout::Flat1d,
        };
        let cluster = Engine::GpuCluster {
            nodes: 1,
            devices_per_node: 1,
        };
        let ring = Some(ReductionTopology::Ring);
        for (engine, depth, reduction) in [
            (Engine::GpuPipelined, Some(3), None),
            (flat1d, Some(3), None),
            (Engine::GpuPipelined, None, ring),
            (Engine::GpuMulti { devices: 1 }, None, None),
            (cluster, Some(3), ring),
        ] {
            let key = alias_key(engine, depth, reduction);
            assert_eq!(key, one, "{} {depth:?} {reduction:?}", engine.label());
        }
    }

    #[test]
    fn plan_auto_credits_device_warmth_only_when_every_reused_device_holds_the_table() {
        let scan = SyntheticScanBuilder::new(8, 8, 12)
            .scatterers(6)
            .seed(21)
            .build()
            .unwrap();
        let geom = &scan.geometry;
        let source =
            || laue_core::input::InMemorySlabSource::new(scan.images.clone(), 12, 8, 8).unwrap();
        let mut c = cfg();
        c.plan = PlanMode::Auto;
        let engine = Engine::GpuMulti { devices: 2 };
        let p = Pipeline::default();
        // The first run provisions the 1×2 slot the next plan reuses; start
        // from no resident table on either device.
        p.run_source(&mut source(), geom, &c, engine).unwrap();
        let devices: Vec<Arc<Device>> = p.shared.devices.lock().unwrap().concat();
        assert_eq!(devices.len(), 2);
        let mut stats = TableCacheStats::default();
        for d in &devices {
            p.shared.cache.evict_device(d.id(), &mut stats);
        }
        let planned = || {
            let (_, explain) = p.resolve_plan(&mut source(), geom, &c, engine).unwrap();
            explain.unwrap().candidates
        };
        let key = TableKey::new(geom, &c);
        let priced = |device_warm| {
            let warmth = TableWarmth {
                host_warm: p.shared.cache.peek_host(&key),
                device_warm,
                resident_budget: p.table_cache_budget(),
            };
            let (net, host) = (&p.interconnect, &p.host);
            let cache = Some(&p.shared.cache);
            plan_auto(
                &p.device,
                host,
                net,
                1,
                2,
                Pins::default(),
                &mut source(),
                geom,
                &c,
                warmth,
                cache,
            )
            .unwrap()
            .candidates
            .into_iter()
            .map(|c| (c.label, c.predicted_s))
            .collect::<Vec<_>>()
        };
        let (cold, warm) = (priced(false), priced(true));
        assert_ne!(cold, warm, "a resident table must change some price");
        assert_eq!(planned(), cold);
        // The planner only peeks at residency, so a placeholder buffer
        // stands in for the table. One device holding it is not enough:
        // the other would still upload.
        let resident = |d: &Arc<Device>, stats: &mut TableCacheStats| {
            let buf = d.alloc::<f64>(1).unwrap();
            p.shared
                .cache
                .insert_device(d.id(), key.clone(), buf, stats);
        };
        resident(&devices[0], &mut stats);
        assert_eq!(planned(), cold);
        resident(&devices[1], &mut stats);
        assert_eq!(planned(), warm);
    }

    #[test]
    fn a_source_that_disagrees_with_its_geometry_is_refused_under_every_plan() {
        use laue_core::input::InMemorySlabSource;
        let scan = SyntheticScanBuilder::new(8, 8, 12)
            .scatterers(6)
            .seed(21)
            .build()
            .unwrap();
        let p = Pipeline::default();
        for plan in [PlanMode::Fixed, PlanMode::Auto] {
            for compaction in [CompactionMode::Off, CompactionMode::Auto] {
                for (images, rows) in [(13, 8), (11, 8), (12, 9), (12, 7)] {
                    let stack = (0..images * rows * 8)
                        .map(|i| 100.0 - (i % 13) as f64)
                        .collect();
                    let mut source = InMemorySlabSource::new(stack, images, rows, 8).unwrap();
                    let mut c = cfg();
                    c.plan = plan;
                    c.compaction = compaction;
                    let err = p
                        .run_source(&mut source, &scan.geometry, &c, Engine::GpuPipelined)
                        .unwrap_err();
                    assert!(
                        matches!(err, crate::PipelineError::Core(CoreError::ShapeMismatch(_))),
                        "{plan:?} {compaction:?} {images} images x {rows} rows: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_warm_run_equals_a_cold_run_bit_for_bit() {
        use laue_core::IntegrityMode;
        let (path, scan) = scan_file("warm_cold");
        let jdir = std::env::temp_dir().join(format!("pipeline_{}_warm_cold", std::process::id()));
        let _ = std::fs::remove_dir_all(&jdir);
        // The production path: plan, compaction and accumulation auto,
        // integrity verify, a journal; the window culls the outer rows.
        let mut c = ReconstructionConfig::new(-500.0, 500.0, 100);
        c.plan = PlanMode::Auto;
        c.compaction = CompactionMode::Auto;
        c.accumulation = AccumulationMode::Auto;
        c.integrity = IntegrityMode::Verify;
        let key = TableKey::new(&scan.geometry, &c);
        let edges = TableKey::edges(&scan.geometry, c.wire_edge);
        let pipeline = || Pipeline {
            journal_dir: Some(jdir.clone()),
            ..Pipeline::default()
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let times = |r: &RunReport| {
            [
                r.total_time_s,
                r.comm_time_s,
                r.compute_time_s,
                r.bus_wait_s,
                r.host_table_time_s,
            ]
            .map(f64::to_bits)
        };
        for engine in [
            Engine::GpuPipelined,
            Engine::GpuCluster {
                nodes: 3,
                devices_per_node: 1,
            },
        ] {
            let warm = pipeline();
            let first = warm.run_scan_file(&path, &c, engine).unwrap();
            let cached = || {
                let table = warm
                    .shared
                    .cache
                    .edge_table(&edges, || panic!("edge table not cached"));
                (Arc::clone(table.cull()), table)
            };
            let built = cached();
            let second = warm.run_scan_file(&path, &c, engine).unwrap();
            let kept = cached();
            assert!(
                Arc::ptr_eq(&built.0, &kept.0) && Arc::ptr_eq(&built.1, &kept.1),
                "{engine:?}: the warm run built its edge table or its cull again"
            );
            assert!(!warm.shared.cache.peek_host(&key));
            let cold = pipeline().run_scan_file(&path, &c, engine).unwrap();
            assert!(first.stats.culled_rows > 0, "{engine:?} must cull");
            // Every band, the one table or its own: charged its own rows.
            assert!(first.host_table_time_s > 0.0);
            for r in [&second, &cold] {
                assert_eq!(bits(&r.image.data), bits(&first.image.data), "{engine:?}");
                assert_eq!(r.stats, first.stats, "{engine:?}");
                assert_eq!(times(r), times(&first), "{engine:?}");
                let debug = |r: &RunReport| format!("{:?} {:?}", r.integrity, r.plan);
                assert_eq!(debug(r), debug(&first), "{engine:?}");
            }
        }
        std::fs::remove_dir_all(&jdir).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_cull_cache_leaves_depth_table_accounting_alone() {
        let (path, scan) = scan_file("cull_accounting");
        let mut c = cfg();
        c.compaction = CompactionMode::On;
        let key = TableKey::new(&scan.geometry, &c);
        let edges = TableKey::edges(&scan.geometry, c.wire_edge);
        let p = Pipeline::default();
        let mut culls = Vec::new();
        for _ in 0..2 {
            // gpu-pipe triangulates in kernel: no depth table anywhere, but
            // the edge table its kernel reads is cached with its cull.
            let r = p.run_scan_file(&path, &c, Engine::GpuPipelined).unwrap();
            let table = p
                .shared
                .cache
                .edge_table(&edges, || panic!("edge table not cached"));
            culls.push(Arc::clone(table.cull()));
            assert!(!p.shared.cache.peek_host(&key));
            assert!(!p.shared.cache.peek_host(&edges));
            assert_eq!(p.shared.cache.totals(), TableCacheStats::default());
            assert_eq!(r.table_cache, TableCacheStats::default());
        }
        assert!(Arc::ptr_eq(&culls[0], &culls[1]), "one cull for both runs");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_gpu_pipe_journal_resumes_under_gpu_multi_1_bit_identically() {
        let (path, _) = scan_file("alias_resume");
        let jdir =
            std::env::temp_dir().join(format!("pipeline_{}_alias_resume_jrn", std::process::id()));
        let _ = std::fs::remove_dir_all(&jdir);
        // Serial two-row slabs: every launched slab commits before the
        // next launch.
        let c = cfg();
        let serial = Pipeline {
            pins: Pins {
                depth: Some(PipelineDepth::SERIAL),
                ..rows(2)
            },
            ..Pipeline::default()
        };
        let baseline = serial
            .run_scan_file(&path, &c, Engine::GpuPipelined)
            .unwrap();

        // The gpu-pipe device dies at its third launch; the journal keeps
        // the two committed slabs.
        let dying = Pipeline {
            fault_plan: Some(cuda_sim::FaultPlan::new(0).fail_after_launches(2)),
            journal_dir: Some(jdir.clone()),
            ..serial.clone()
        };
        assert!(dying
            .run_scan_file(&path, &c, Engine::GpuPipelined)
            .is_err());
        assert_eq!(std::fs::read_dir(&jdir).unwrap().count(), 1);

        // gpu-multi:1 resolves the same plan, so it replays that journal
        // and computes only the remainder.
        let resumed = Pipeline {
            journal_dir: Some(jdir.clone()),
            resume: true,
            ..serial
        };
        let r = resumed
            .run_scan_file(&path, &c, Engine::GpuMulti { devices: 1 })
            .unwrap();
        let resume = r.recovery.resume.as_ref().expect("cross-alias resume");
        assert!(resume.slabs_replayed > 0, "{resume:?}");
        assert_eq!(r.image.data, baseline.image.data);
        assert_eq!(r.stats, baseline.stats);
        assert_eq!(std::fs::read_dir(&jdir).unwrap().count(), 0);

        std::fs::remove_dir_all(&jdir).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn multi_gpu_scrub_repairs_and_reports_fleet_integrity() {
        let (path, _) = scan_file("multi_scrub");
        let engine = Engine::GpuMulti { devices: 2 };
        let clean = Pipeline::default()
            .run_scan_file(&path, &cfg(), engine)
            .unwrap();

        let mut c = cfg();
        c.integrity = laue_core::IntegrityMode::Scrub;
        let p = Pipeline {
            fault_plan: Some(cuda_sim::FaultPlan::new(5).flip_nth_h2d(2)),
            // Corrupt one fleet device only — the report still aggregates.
            fault_device: Some(0),
            ..Pipeline::default()
        };
        let r = p.run_scan_file(&path, &c, engine).unwrap();
        let injected = r.faults_injected.expect("fault plan installed");
        assert!(injected.h2d_flipped >= 1, "{injected:?}");
        assert!(r.integrity.transfer_crc_failures >= 1, "{:?}", r.integrity);
        assert_eq!(r.image.data, clean.image.data, "repaired bit-identically");
        assert_eq!(r.stats, clean.stats);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cluster_matches_single_gpu_at_every_shape_and_topology() {
        let (path, _) = scan_file("cluster_agree");
        let baseline = Pipeline::default()
            .run_scan_file(&path, &cfg(), Engine::GpuPipelined)
            .unwrap();
        for (nodes, devices_per_node) in [(1, 1), (2, 1), (3, 1), (2, 2)] {
            for topology in [ReductionTopology::Tree, ReductionTopology::Ring] {
                for overlap in [true, false] {
                    let p = Pipeline {
                        pins: Pins {
                            topology: Some(topology),
                            overlap: Some(overlap),
                            ..Pins::default()
                        },
                        ..Pipeline::default()
                    };
                    let engine = Engine::GpuCluster {
                        nodes,
                        devices_per_node,
                    };
                    let r = p.run_scan_file(&path, &cfg(), engine).unwrap();
                    let label = format!(
                        "gpu-cluster:{nodes}x{devices_per_node} {}/{}",
                        topology.label(),
                        if overlap { "overlap" } else { "barrier" }
                    );
                    assert_eq!(
                        r.image.data, baseline.image.data,
                        "{label} diverges from gpu-pipe"
                    );
                    assert_eq!(r.stats, baseline.stats, "{label}");
                    let c = r.cluster.as_ref().expect("cluster accounting");
                    assert_eq!(c.nodes.len(), nodes, "{label}");
                    assert_eq!(c.nodes_lost, 0, "{label}");
                    if nodes > 1 {
                        assert!(c.net_messages > 0, "{label} moved no segments");
                        assert!(c.net_bytes > 0, "{label}");
                    }
                    assert!(r.summary().contains("cluster:"), "{}", r.summary());
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cluster_plan_auto_prices_the_sweep_and_stays_bit_identical() {
        let (path, _) = scan_file("cluster_auto");
        let baseline = Pipeline::default()
            .run_scan_file(&path, &cfg(), Engine::GpuPipelined)
            .unwrap();
        let cluster = Engine::GpuCluster {
            nodes: 4,
            devices_per_node: 1,
        };
        let mut c = cfg();
        c.plan = PlanMode::Auto;
        let r = Pipeline::default()
            .run_scan_file(&path, &c, cluster)
            .unwrap();
        assert_eq!(r.image.data, baseline.image.data);
        // The planned run keeps the configured dense, atomic modes.
        assert_eq!(r.stats, baseline.stats);
        let plan = r.plan.as_ref().expect("cluster plan explain");
        assert!(plan.chosen.starts_with("n4x1/"), "{}", plan.chosen);
        // Node-count ladder {1,2,4} × topology × overlap.
        assert_eq!(plan.candidates.len(), 12);
        assert!(plan.predicted_s > 0.0);

        // With both modes on auto each band resolves them per slab: the
        // attribution counters may differ from the dense baseline, the
        // image and the physics counters must not.
        c.compaction = CompactionMode::Auto;
        c.accumulation = AccumulationMode::Auto;
        let r = Pipeline::default()
            .run_scan_file(&path, &c, cluster)
            .unwrap();
        assert_eq!(r.image.data, baseline.image.data);
        assert_eq!(r.stats.pairs_deposited, baseline.stats.pairs_deposited);
        assert_eq!(r.stats.deposits, baseline.stats.deposits);
        assert!(r.stats.privatized_pairs > 0, "{:?}", r.stats);
        let plan = r.plan.as_ref().expect("cluster plan explain");
        assert!(plan.chosen.starts_with("n4x1/"), "{}", plan.chosen);
        assert_eq!(plan.candidates.len(), 12);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cluster_node_loss_rebands_rows_onto_survivors() {
        let (path, _) = scan_file("cluster_loss");
        let engine = Engine::GpuCluster {
            nodes: 3,
            devices_per_node: 1,
        };
        // One row per slab so the victim has launches left when it dies.
        let mut c = cfg();
        c.integrity = laue_core::IntegrityMode::Verify;
        let clean = Pipeline {
            pins: rows(1),
            ..Pipeline::default()
        }
        .run_scan_file(&path, &c, engine)
        .unwrap();

        // Flake one of node 0's uploads, then kill its device after its
        // first launch; the survivors must absorb its remaining rows and
        // still match bitwise.
        let p = Pipeline {
            fault_plan: Some(
                cuda_sim::FaultPlan::new(1)
                    .fail_nth_h2d(2)
                    .fail_after_launches(1),
            ),
            fault_device: Some(0),
            pins: rows(1),
            ..Pipeline::default()
        };
        let r = p.run_scan_file(&path, &c, engine).unwrap();
        assert_eq!(
            r.image.data, clean.image.data,
            "failover must stay bit-identical"
        );
        assert_eq!(r.stats, clean.stats);
        let c = r.cluster.as_ref().expect("cluster accounting");
        assert_eq!(c.nodes_lost, 1);
        assert!(c.nodes[0].lost, "node 0 held the scripted fault");
        // The lost node keeps what it counted before it died: the retried
        // upload and the checks on its verified slab.
        assert!(r.gpu_transfer_retries >= 1, "{}", r.gpu_transfer_retries);
        assert!(c.nodes[0].integrity.checks_run >= 1, "{:?}", c.nodes[0]);
        assert!(
            r.summary().contains("DEGRADED: 1 node(s) lost mid-run"),
            "{}",
            r.summary()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cluster_topology_flip_forces_a_clean_restart_end_to_end() {
        let (path, _) = scan_file("clusterflip");
        let jdir =
            std::env::temp_dir().join(format!("pipeline_{}_clusterflip_jrn", std::process::id()));
        let _ = std::fs::remove_dir_all(&jdir);
        let c = cfg();
        // Serial single-row slabs: each node commits its first slab to the
        // journal before the scripted fault kills its second launch.
        let serial = Pins {
            depth: Some(PipelineDepth::SERIAL),
            ..rows(1)
        };
        let reducing = |topology| Pipeline {
            pins: Pins {
                topology: Some(topology),
                ..serial
            },
            ..Pipeline::default()
        };
        let engine = Engine::GpuCluster {
            nodes: 2,
            devices_per_node: 1,
        };
        let baseline = reducing(ReductionTopology::Tree)
            .run_scan_file(&path, &c, engine)
            .unwrap();

        // Interrupt a tree-reduction run: the schedule dies on every node
        // (no survivor to fail over to), leaving the journal behind.
        let dying = Pipeline {
            fault_plan: Some(cuda_sim::FaultPlan::new(0).fail_after_launches(1)),
            journal_dir: Some(jdir.clone()),
            ..reducing(ReductionTopology::Tree)
        };
        assert!(dying.run_scan_file(&path, &c, engine).is_err());
        assert_eq!(std::fs::read_dir(&jdir).unwrap().count(), 1);

        // Resuming under ring reduction must NOT replay those slabs: the
        // topology is part of the journal key, so the run restarts clean.
        let ring = Pipeline {
            journal_dir: Some(jdir.clone()),
            resume: true,
            ..reducing(ReductionTopology::Ring)
        };
        let r = ring.run_scan_file(&path, &c, engine).unwrap();
        assert!(
            r.recovery.resume.is_none(),
            "a journal from another reduction topology must not be replayed"
        );
        assert_eq!(r.image.data, baseline.image.data);

        // Same topology, same key: the stale journal is still replayable.
        let tree = Pipeline {
            journal_dir: Some(jdir.clone()),
            resume: true,
            ..reducing(ReductionTopology::Tree)
        };
        let r = tree.run_scan_file(&path, &c, engine).unwrap();
        let resume = r.recovery.resume.as_ref().expect("same-topology resume");
        assert!(resume.slabs_replayed >= 1);
        assert_eq!(r.image.data, baseline.image.data);

        std::fs::remove_dir_all(&jdir).ok();
        std::fs::remove_file(&path).ok();
    }
}
