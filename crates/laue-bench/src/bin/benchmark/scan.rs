//! The three scan workloads. Each is a closed loop with one client: one
//! op reads a generated scan file from disk through
//! `Pipeline::run_scan_file` and writes the depth image back with
//! `export::write_mh5`, on one warm `Pipeline`, as `laue batch` does.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cuda_sim::{DeviceProps, HostProps};
use laue_bench::{delta_percentile, standard_config, Workload};
use laue_core::planner::{plan_run, TableWarmth};
use laue_core::{
    cpu, AccumulationMode, CompactionMode, InMemorySlabSource, IntegrityMode, PlanMode,
    ReconstructionConfig, ScanGeometry, ScanView, SlabSource,
};
use laue_pipeline::{export, file_fingerprint, Engine, Pipeline, PipelineError, RunReport};
use laue_wire::ScanFile;
use mh5::FileReader;

use crate::spans::{peak_rss_mib, Recorder, Span};
use crate::stats::median;
use crate::{Opts, Outcome};

const MIB: f64 = 1024.0 * 1024.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scan {
    /// `gpu-pipe`, every pair, fixed plan: the paper's Fig 8 point.
    PaperDense,
    /// Fig 9's 25 %-active cutoff with planner, compaction, accumulation
    /// auto, integrity verify and a fresh journal per op.
    ProductionSparse,
    /// The dense config on eight single-GPU nodes (ib-qdr, tree, overlap).
    Cluster8,
}

/// What one op runs.
struct Case {
    engine: Engine,
    cfg: ReconstructionConfig,
    journal: bool,
}

impl Case {
    fn new(kind: Scan, w: &Workload) -> Case {
        let mut cfg = standard_config();
        match kind {
            Scan::PaperDense => Case {
                engine: Engine::GpuPipelined,
                cfg,
                journal: false,
            },
            Scan::ProductionSparse => {
                cfg.intensity_cutoff = delta_percentile(w, 0.75);
                cfg.plan = PlanMode::Auto;
                cfg.compaction = CompactionMode::Auto;
                cfg.accumulation = AccumulationMode::Auto;
                cfg.integrity = IntegrityMode::Verify;
                Case {
                    engine: Engine::GpuPipelined,
                    cfg,
                    journal: true,
                }
            }
            Scan::Cluster8 => Case {
                engine: Engine::GpuCluster {
                    nodes: 8,
                    devices_per_node: 1,
                },
                cfg,
                journal: false,
            },
        }
    }

    /// The pipeline one op runs on: a clone of `warm`, sharing its warm
    /// devices and caches, with a fresh journal directory if the case
    /// journals.
    fn pipeline(&self, warm: &Pipeline, work: &Path, op: u64) -> Pipeline {
        let mut p = warm.clone();
        if self.journal {
            p.journal_dir = Some(work.join(format!("journal-{op}")));
        }
        p
    }
}

/// The op exactly as `laue reconstruct --out` runs it.
fn op(p: &Pipeline, case: &Case, scan: &Path, out: &Path) -> laue_pipeline::Result<RunReport> {
    let report = p.run_scan_file(scan, &case.cfg, case.engine)?;
    export::write_mh5(out, &report, &case.cfg)?;
    Ok(report)
}

/// The same op through the same public calls `run_scan_file` makes, each
/// timed as a span, with the scan file wrapped so every slab read is one.
fn traced_op(
    p: &Pipeline,
    case: &Case,
    scan: &Path,
    out: &Path,
    rec: &mut Recorder,
) -> laue_pipeline::Result<RunReport> {
    rec.span("op", "benchmark", |rec| {
        let fingerprint = rec.span("fingerprint", "laue-pipeline", |_| file_fingerprint(scan))?;
        let mut file = rec.span("open", "laue-wire", |_| ScanFile::open(scan))?;
        let geometry = file.geometry().clone();
        let report = rec.span("run", "laue-pipeline", |rec| {
            let mut source = TracedSource {
                inner: &mut file,
                rec,
            };
            p.run_source_keyed(
                &mut source,
                &geometry,
                &case.cfg,
                case.engine,
                Some(fingerprint),
            )
        })?;
        rec.span("export", "laue-pipeline", |_| {
            export::write_mh5(out, &report, &case.cfg)
        })?;
        Ok::<_, PipelineError>(report)
    })
}

struct TracedSource<'a> {
    inner: &'a mut ScanFile,
    rec: &'a mut Recorder,
}

impl SlabSource for TracedSource<'_> {
    fn n_images(&self) -> usize {
        self.inner.n_images()
    }

    fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }

    fn n_cols(&self) -> usize {
        self.inner.n_cols()
    }

    fn read_slab(&mut self, row0: usize, n_rows_slab: usize) -> laue_core::Result<Vec<f64>> {
        let inner = &mut *self.inner;
        self.rec.span("read_slab", "laue-wire", |_| {
            inner.read_slab(row0, n_rows_slab)
        })
    }
}

/// The single-threaded CPU reconstruction of the same file, which every
/// exported image must equal bit for bit.
pub struct Reference {
    pub image: Vec<f64>,
    /// Wall seconds of `cpu::reconstruct_seq` alone.
    pub wall_s: f64,
    /// Its modeled time on the paper's host, one core.
    pub model_s: f64,
}

/// Read `scan` and run `cpu::reconstruct_seq` with `cfg`'s depth grid and
/// cutoff, GPU-only options off. Also returns the stack and geometry.
pub fn reference(
    scan: &Path,
    cfg: &ReconstructionConfig,
) -> Result<(Reference, Vec<f64>, ScanGeometry), String> {
    let mut file = ScanFile::open(scan).map_err(|e| format!("reference open: {e}"))?;
    let geometry = file.geometry().clone();
    let (p, m, n) = (file.n_images(), file.n_rows(), file.n_cols());
    let stack = file
        .read_slab(0, m)
        .map_err(|e| format!("reference read: {e}"))?;
    let view = ScanView::new(&stack, p, m, n).map_err(|e| e.to_string())?;
    let ref_cfg = ReconstructionConfig {
        plan: PlanMode::Fixed,
        compaction: CompactionMode::Off,
        accumulation: AccumulationMode::default(),
        integrity: IntegrityMode::Off,
        ..cfg.clone()
    };
    let t = Instant::now();
    let out = cpu::reconstruct_seq(&view, &geometry, &ref_cfg).map_err(|e| e.to_string())?;
    let wall_s = t.elapsed().as_secs_f64();
    let model_s = out.modeled_time_s(&HostProps::xeon_e5630(), 1);
    Ok((
        Reference {
            image: out.image.data,
            wall_s,
            model_s,
        },
        stack,
        geometry,
    ))
}

/// Read the exported image back and compare it bit for bit.
pub fn check_export(out: &Path, reference: &[f64]) -> Result<(), String> {
    let f = FileReader::open(out).map_err(|e| format!("reopen export: {e}"))?;
    let ds = f
        .resolve_path("/reconstruction/depth_image")
        .map_err(|e| format!("export has no depth image: {e}"))?;
    let data: Vec<f64> = f.read_all(ds).map_err(|e| format!("read export: {e}"))?;
    if data.len() != reference.len() {
        return Err(format!(
            "export holds {} cells, reference {}",
            data.len(),
            reference.len()
        ));
    }
    match data
        .iter()
        .zip(reference)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "cell {i} differs: {:e} exported vs {:e} reference",
            data[i], reference[i]
        )),
    }
}

/// State shared by every op of one run.
struct Run<'a> {
    case: Case,
    scan: PathBuf,
    out: PathBuf,
    work: &'a Path,
    reference: Reference,
    /// Virtual time of the first op; every later op must repeat it.
    model_s: Option<f64>,
    ops: u64,
    outcome: Outcome,
}

impl Run<'_> {
    /// Run one op (traced when `rec` is given) and check it; returns its
    /// wall seconds, which stop before the check, and its report when it
    /// succeeded and was correct.
    fn once(&mut self, warm: &Pipeline, rec: Option<&mut Recorder>) -> Option<(f64, RunReport)> {
        self.ops += 1;
        self.outcome.attempted += 1;
        let p = self.case.pipeline(warm, self.work, self.ops);
        let t = Instant::now();
        let result = match rec {
            Some(rec) => {
                rec.op = self.ops;
                traced_op(&p, &self.case, &self.scan, &self.out, rec)
            }
            None => op(&p, &self.case, &self.scan, &self.out),
        };
        let wall_s = t.elapsed().as_secs_f64();
        let verdict = result.map_err(|e| e.to_string()).and_then(|report| {
            check_export(&self.out, &self.reference.image)?;
            let model = *self.model_s.get_or_insert(report.total_time_s);
            if model.to_bits() != report.total_time_s.to_bits() {
                return Err(format!(
                    "virtual time {} differs from the first op's {model}",
                    report.total_time_s
                ));
            }
            Ok(report)
        });
        std::fs::remove_file(&self.out).ok();
        if let Some(dir) = &p.journal_dir {
            std::fs::remove_dir_all(dir).ok();
        }
        match verdict {
            Ok(report) => Some((wall_s, report)),
            Err(e) => {
                self.outcome.fail(1, format!("op {}: {e}", self.ops));
                None
            }
        }
    }

    /// Untraced ops on `warm` until `seconds` pass and `min_reps` ran.
    fn timed(&mut self, warm: &Pipeline, seconds: f64, min_reps: usize) -> Vec<f64> {
        let mut walls = Vec::new();
        let start = Instant::now();
        let mut reps = 0;
        while reps < min_reps || start.elapsed().as_secs_f64() < seconds {
            reps += 1;
            if let Some((wall, _)) = self.once(warm, None) {
                walls.push(wall);
            }
        }
        walls
    }
}

pub fn run(kind: Scan, opts: &Opts) -> Result<Outcome, String> {
    let scale = &opts.scale;
    let scan = opts.work.join("scan.mh5");
    let case = {
        let w = Workload::of_megabytes(scale.megabytes, opts.seed);
        let g = &w.scan;
        laue_wire::write_scan(&scan, &g.geometry, &g.images, Some(&g.truth), 8)
            .map_err(|e| format!("write scan: {e}"))?;
        Case::new(kind, &w)
    };
    let (reference, stack, geometry) = reference(&scan, &case.cfg)?;
    let mut run = Run {
        case,
        scan,
        out: opts.work.join("depth.mh5"),
        work: &opts.work,
        reference,
        model_s: None,
        ops: 0,
        outcome: Outcome::default(),
    };

    if !opts.trace {
        // Set-up: building a fresh pipeline plus its first, cold op, timed
        // as `wall_s` times an op (the readback check excluded), several
        // times. The last pipeline stays warm for the timed ops.
        let mut setup = Vec::new();
        let mut fresh = || {
            let t = Instant::now();
            let p = Pipeline::default();
            let build_s = t.elapsed().as_secs_f64();
            if let Some((op_s, _)) = run.once(&p, None) {
                setup.push(build_s + op_s);
            }
            p
        };
        let mut warm = fresh();
        for _ in 1..scale.setup_reps {
            warm = fresh();
        }
        let walls = run.timed(&warm, opts.seconds, scale.min_reps);
        let o = &mut run.outcome;
        o.put("wall_s", walls);
        o.put("setup_s", setup);
        o.put1("peak_rss_mb", peak_rss_mib());
        return Ok(run.outcome);
    }

    // Traced run: half the time untraced (the overhead baseline), half
    // traced. A direct planner call per traced op times the planner alone.
    let warm = Pipeline::default();
    run.once(&warm, None);
    let untraced = run.timed(&warm, 0.5 * opts.seconds, scale.min_reps);
    let mut rec = Recorder::new();
    let mut per_op = PerOp::default();
    let (props, host) = (DeviceProps::tesla_m2070(), HostProps::xeon_e5630());
    let warmth = TableWarmth {
        host_warm: false,
        device_warm: false,
        resident_budget: props.total_mem / 4,
    };
    let start = Instant::now();
    let mut reps = 0;
    while reps < scale.min_reps || start.elapsed().as_secs_f64() < 0.5 * opts.seconds {
        reps += 1;
        let first = rec.spans().len();
        let Some((wall, report)) = run.once(&warm, Some(&mut rec)) else {
            continue;
        };
        per_op.record(&rec.spans()[first..], wall);
        let (p, m, n) = report.dims;
        let mut source =
            InMemorySlabSource::new(stack.clone(), p, m, n).map_err(|e| e.to_string())?;
        let plan = rec.span("plan_run", "laue-core", |_| {
            plan_run(&props, &host, &mut source, &geometry, &run.case.cfg, warmth)
        });
        if let Err(e) = plan {
            run.outcome.fail(1, format!("plan_run: {e}"));
        }
        per_op
            .plan_s
            .push(rec.spans().last().map_or(0.0, |s| s.duration_s()));
        per_op.last = Some(report);
    }
    let reference = &run.reference;
    let mut o = std::mem::take(&mut run.outcome);
    per_op.emit(&mut o, reference, median(&untraced));
    o.spans = rec.into_spans();
    Ok(o)
}

/// Per-layer samples gathered from traced ops.
#[derive(Default)]
struct PerOp {
    walls: Vec<f64>,
    fingerprint_s: Vec<f64>,
    fingerprint_read_mb: Vec<f64>,
    open_s: Vec<f64>,
    read_s: Vec<f64>,
    read_calls: Vec<f64>,
    read_mb: Vec<f64>,
    run_self_s: Vec<f64>,
    journal_mb: Vec<f64>,
    export_s: Vec<f64>,
    export_mb: Vec<f64>,
    plan_s: Vec<f64>,
    last: Option<RunReport>,
}

impl PerOp {
    /// Fold one traced op's spans (its `op` envelope and what it opened).
    fn record(&mut self, spans: &[Span], wall: f64) {
        let sum = |name: &str, f: &dyn Fn(&Span) -> f64| -> f64 {
            spans.iter().filter(|s| s.name == name).map(f).sum()
        };
        let dur = |s: &Span| s.duration_s();
        let rd = |s: &Span| s.read_bytes as f64 / MIB;
        let wr = |s: &Span| s.write_bytes as f64 / MIB;
        self.walls.push(wall);
        self.fingerprint_s.push(sum("fingerprint", &dur));
        self.fingerprint_read_mb.push(sum("fingerprint", &rd));
        self.open_s.push(sum("open", &dur));
        let read_s = sum("read_slab", &dur);
        self.read_s.push(read_s);
        self.read_calls
            .push(spans.iter().filter(|s| s.name == "read_slab").count() as f64);
        self.read_mb.push(sum("read_slab", &rd));
        self.run_self_s.push(sum("run", &dur) - read_s);
        self.journal_mb.push(sum("run", &wr));
        self.export_s.push(sum("export", &dur));
        self.export_mb.push(sum("export", &wr));
    }

    fn emit(self, o: &mut Outcome, reference: &Reference, untraced_wall: f64) {
        if untraced_wall > 0.0 {
            let traced_wall = median(&self.walls);
            o.put1(
                "benchmark.trace_overhead_frac",
                traced_wall / untraced_wall - 1.0,
            );
        }
        o.put("laue-pipeline.fingerprint_s", self.fingerprint_s);
        o.put(
            "laue-pipeline.fingerprint_read_mb",
            self.fingerprint_read_mb,
        );
        o.put("laue-pipeline.run_self_s", self.run_self_s);
        o.put("laue-pipeline.export_s", self.export_s);
        o.put("laue-pipeline.export_mb", self.export_mb);
        o.put("laue-wire.open_s", self.open_s);
        o.put("laue-wire.read_s", self.read_s);
        o.put("laue-wire.read_calls", self.read_calls);
        o.put("laue-wire.read_mb", self.read_mb);
        o.put("laue-core.journal_mb", self.journal_mb);
        o.put("laue-core.plan_s", self.plan_s);
        o.put1("laue-core.cpu_ref_s", reference.wall_s);
        o.put1("laue-core.cpu_model_s", reference.model_s);
        let Some(r) = &self.last else {
            return;
        };
        o.put1("cuda-sim.model_s", r.total_time_s);
        o.put1(
            "laue-core.model_speedup",
            reference.model_s / r.total_time_s,
        );
        o.put1(
            "laue-core.plan_error",
            r.plan.as_ref().map_or(0.0, |p| p.prediction_error()),
        );
        o.put1("laue-core.pairs_total", r.stats.pairs_total as f64);
        o.put1("laue-core.pairs_deposited", r.stats.pairs_deposited as f64);
        o.put1("laue-core.compacted_pairs", r.stats.compacted_pairs as f64);
        o.put1("laue-core.culled_rows", r.stats.culled_rows as f64);
        o.put1("laue-core.n_slabs", r.n_slabs as f64);
        o.put1("laue-core.image_nonzero_frac", nonzero_frac(&r.image.data));
        o.put1("laue-core.verify_host_cpu_s", r.integrity.verify_host_cpu_s);
        o.put1("laue-core.integrity_checks", r.integrity.checks_run as f64);
        o.put1(
            "laue-core.table_hit_frac",
            hit_frac(r.table_cache.hits(), r.table_cache.misses()),
        );
        o.put1("cuda-sim.comm_s", r.comm_time_s);
        o.put1("cuda-sim.compute_s", r.compute_time_s);
        o.put1("cuda-sim.bus_wait_s", r.bus_wait_s);
        o.put1("cuda-sim.transfers", r.transfers as f64);
        // Computed from array sizes (the f64 intensity stack up, the dense
        // f64 depth image down), not metered.
        let (p, m, n) = r.dims;
        o.put1("cuda-sim.h2d_mb_computed", (p * m * n * 8) as f64 / MIB);
        o.put1(
            "cuda-sim.d2h_mb_computed",
            (r.image.data.len() * 8) as f64 / MIB,
        );
        if let Some(c) = &r.cluster {
            o.put1("laue-core.reduction_exposed_s", c.reduction_exposed_s);
            o.put1("cuda-sim.net_mb", c.net_bytes as f64 / MIB);
            o.put1("cuda-sim.net_messages", c.net_messages as f64);
            o.put1("cuda-sim.net_wait_s", c.net_wait_s);
        }
    }
}

fn nonzero_frac(cells: &[f64]) -> f64 {
    if cells.is_empty() {
        return 0.0;
    }
    cells.iter().filter(|&&v| v != 0.0).count() as f64 / cells.len() as f64
}

pub fn hit_frac(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}
