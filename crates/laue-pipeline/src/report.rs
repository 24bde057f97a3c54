//! Run reports: what happened and where the virtual time went.

use laue_core::cache::TableCacheStats;
use laue_core::{DepthImage, IntegrityReport, ReconStats};

/// How a run came back from interruption or device loss: slabs replayed
/// from a journal, slabs salvaged from a dead GPU run, rows recomputed on
/// the CPU, devices lost mid-run. All zero / `None` for a clean run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryAccounting {
    /// GPU-committed slabs kept when the run degraded to the CPU (the CPU
    /// recomputed only the remainder).
    pub salvaged_slabs: usize,
    /// Row bands the CPU recomputed after a GPU failure.
    pub recomputed_slabs: usize,
    /// Devices that died mid-run (multi-GPU failover).
    pub devices_lost: u32,
    /// Set when the run resumed from a journal instead of starting fresh.
    pub resume: Option<ResumeInfo>,
}

impl RecoveryAccounting {
    /// Did anything out of the ordinary happen?
    pub fn is_noteworthy(&self) -> bool {
        *self != RecoveryAccounting::default()
    }
}

/// Provenance of a resumed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeInfo {
    /// Journal key hash (hex) the resume matched on.
    pub journal_key: String,
    /// Committed slabs replayed from the journal instead of recomputed.
    pub slabs_replayed: usize,
}

/// How the cost-model planner chose this run's execution plan, and how
/// close its prediction came to the measured virtual time — the run's
/// "explain" block under `--plan auto`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanExplain {
    /// Label of the chosen plan (e.g. `flat1d/inkernel/k3/r128`).
    pub chosen: String,
    /// Predicted virtual makespan of the chosen plan, seconds.
    pub predicted_s: f64,
    /// Modeled host-CPU table/cull seconds (parallel; excluded from the
    /// makespan prediction like the measured report excludes it).
    pub host_s: f64,
    /// Measured virtual makespan of the run that actually executed.
    pub measured_s: f64,
    /// Every candidate the planner scored: `(label, predicted seconds)`.
    pub candidates: Vec<(String, f64)>,
}

impl PlanExplain {
    /// Relative prediction error `|predicted − measured| / measured`
    /// (0 when nothing was measured).
    pub fn prediction_error(&self) -> f64 {
        if self.measured_s <= 0.0 {
            return 0.0;
        }
        (self.predicted_s - self.measured_s).abs() / self.measured_s
    }
}

/// Multi-node accounting of a `gpu-cluster` run: fabric traffic, the
/// reduction's exposed cost, and one [`laue_core::NodeOutcome`] per node
/// (rows, virtual time, interconnect wait, node-granular integrity and
/// fault-injection counters). `None` for every other engine.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Reduction routing and overlap, e.g. `tree+overlap`.
    pub options: String,
    /// Interconnect preset the fabric was modeled on (e.g. `ib-qdr`).
    pub interconnect: String,
    /// Slowest node's compute finish (the reduction overlaps the rest).
    pub compute_s: f64,
    /// Reduction time *not* hidden behind compute, seconds.
    pub reduction_exposed_s: f64,
    /// Seconds reduction segments queued on busy fabric links beyond
    /// their uncontended message time, summed over nodes.
    pub net_wait_s: f64,
    /// Unique reduction payload bytes that left their origin node (the
    /// fabric moves more — each relay hop re-transmits).
    pub net_bytes: u64,
    /// Messages the fabric carried (every hop counts).
    pub net_messages: u64,
    /// Nodes whose devices all died mid-run (rows re-banded onto
    /// survivors).
    pub nodes_lost: u32,
    /// Per-node breakdown, head node first.
    pub nodes: Vec<laue_core::NodeOutcome>,
}

/// Everything a reconstruction run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Engine label (e.g. `cpu-seq`, `gpu-1d`).
    pub engine: String,
    /// The depth-resolved output.
    pub image: DepthImage,
    /// Outcome counters.
    pub stats: ReconStats,
    /// Modeled end-to-end time, seconds (virtual).
    pub total_time_s: f64,
    /// Time in host↔device transfers (zero for CPU engines).
    pub comm_time_s: f64,
    /// Extra time transfers spent queued on (or fragmented across) the
    /// host's shared PCIe bus beyond their uncontended duration. Zero for
    /// strictly serial single-device schedules; nonzero whenever streams
    /// or fleet devices contend for the link.
    pub bus_wait_s: f64,
    /// Host-CPU time spent producing depth tables (and culling masks) for
    /// the device. Accounted in parallel with device time — included here
    /// for visibility, not added to `total_time_s`.
    pub host_table_time_s: f64,
    /// Time computing.
    pub compute_time_s: f64,
    /// Logical input size (detector counts), bytes.
    pub input_bytes: u64,
    /// Stack dimensions `(images, rows, cols)`.
    pub dims: (usize, usize, usize),
    /// Rows per device slab (GPU engines; 0 for CPU).
    pub rows_per_slab: usize,
    /// Slabs processed (GPU engines; 0 for CPU).
    pub n_slabs: usize,
    /// Host↔device transfers performed (GPU engines; 0 for CPU).
    pub transfers: u64,
    /// Times the GPU engine re-planned with smaller slabs after device OOM.
    pub gpu_replans: u32,
    /// Transient transfer faults the GPU engine absorbed by retrying.
    pub gpu_transfer_retries: u32,
    /// Ring depth the GPU pipeline actually ran at (1 = serial; 0 for CPU
    /// engines). May be lower than requested if device memory was tight.
    pub pipeline_depth: usize,
    /// Depth-table cache counters for this run (all zero for CPU engines
    /// and for GPU engines that triangulate in-kernel).
    pub table_cache: TableCacheStats,
    /// Achieved active-pair density per processed slab (compaction runs
    /// only; empty when `--compaction off` or for engines that saw no
    /// slabs).
    pub slab_densities: Vec<f64>,
    /// Per processed slab, whether the shared-memory privatized accumulator
    /// ran (`false` = the slab fell back to the atomic path). Empty under
    /// `--accumulation atomic` and for CPU engines.
    pub slab_privatized: Vec<bool>,
    /// Set when `--plan auto` chose this run's execution plan: what was
    /// chosen, what it was predicted to cost, and the prediction error.
    pub plan: Option<PlanExplain>,
    /// Set when the run degraded to another engine after a GPU failure;
    /// records what failed and where execution landed.
    pub fallback: Option<String>,
    /// Checkpoint/resume and failover accounting (all zero when the run
    /// neither resumed, salvaged, nor lost a device).
    pub recovery: RecoveryAccounting,
    /// Integrity-layer accounting: checks run, corruptions detected and
    /// corrected, verification overhead. All zeros under `--integrity off`
    /// and for CPU engines.
    pub integrity: IntegrityReport,
    /// What the device's fault plan actually injected (fault-injection
    /// runs only; `None` when no plan was installed). Lets chaos harnesses
    /// compare detected corruption against injected ground truth.
    pub faults_injected: Option<cuda_sim::FaultStats>,
    /// Per-launch trace slots the simulator dropped because a kernel asked
    /// for more slots than the device records (diagnostic; normally 0).
    pub trace_dropped: u64,
    /// Multi-node accounting (`gpu-cluster` engines only).
    pub cluster: Option<ClusterReport>,
}

impl RunReport {
    /// The report of a run that never touched a device (CPU engines, CPU
    /// salvage, derived exports): engine, image, stats, and modeled time —
    /// all of it compute — over a `dims` stack of u16 counts. Every GPU,
    /// plan, recovery, and integrity field is zero or `None`.
    pub fn host(
        engine: String,
        image: DepthImage,
        stats: ReconStats,
        time_s: f64,
        dims: (usize, usize, usize),
    ) -> RunReport {
        RunReport {
            engine,
            image,
            stats,
            total_time_s: time_s,
            comm_time_s: 0.0,
            bus_wait_s: 0.0,
            host_table_time_s: 0.0,
            compute_time_s: time_s,
            input_bytes: (dims.0 * dims.1 * dims.2 * 2) as u64,
            dims,
            rows_per_slab: 0,
            n_slabs: 0,
            transfers: 0,
            gpu_replans: 0,
            gpu_transfer_retries: 0,
            pipeline_depth: 0,
            table_cache: TableCacheStats::default(),
            slab_densities: Vec::new(),
            slab_privatized: Vec::new(),
            plan: None,
            fallback: None,
            recovery: RecoveryAccounting::default(),
            integrity: IntegrityReport::default(),
            faults_injected: None,
            trace_dropped: 0,
            cluster: None,
        }
    }

    /// A one-paragraph human-readable summary.
    pub fn summary(&self) -> String {
        let (p, m, n) = self.dims;
        let mut s = format!(
            "engine {} reconstructed a {p}×{m}×{n} stack ({:.1} MiB) in {:.4} s \
             (compute {:.4} s, transfers {:.4} s)",
            self.engine,
            self.input_bytes as f64 / (1024.0 * 1024.0),
            self.total_time_s,
            self.compute_time_s,
            self.comm_time_s,
        );
        if self.bus_wait_s > 0.0 {
            s.push_str(&format!(
                "; bus contention added {:.4} s of transfer stall",
                self.bus_wait_s
            ));
        }
        if self.host_table_time_s > 0.0 {
            s.push_str(&format!(
                "; host tables took {:.4} s of CPU time (overlapped)",
                self.host_table_time_s
            ));
        }
        s.push_str(&format!(
            "; {} of {} pairs deposited ({:.1} % active), {} skipped by cutoff",
            self.stats.pairs_deposited,
            self.stats.pairs_total,
            100.0 * self.stats.active_fraction(),
            self.stats.pairs_below_cutoff,
        ));
        if self.n_slabs > 0 {
            if self.rows_per_slab > 0 {
                s.push_str(&format!(
                    "; {} slab(s) of {} row(s)",
                    self.n_slabs, self.rows_per_slab
                ));
            } else {
                s.push_str(&format!("; {} slab(s)", self.n_slabs));
            }
            if self.pipeline_depth > 1 {
                s.push_str(&format!(", ring depth {}", self.pipeline_depth));
            }
        }
        if self.table_cache.hits() + self.table_cache.misses() > 0 {
            s.push_str(&format!(
                "; table cache: {} hit(s), {} miss(es), {} eviction(s)",
                self.table_cache.hits(),
                self.table_cache.misses(),
                self.table_cache.evictions,
            ));
        }
        if !self.slab_densities.is_empty() {
            let mean = self.slab_densities.iter().sum::<f64>() / self.slab_densities.len() as f64;
            s.push_str(&format!(
                "; sparsity: {:.1} % mean active density over {} slab(s), \
                 {} pair(s) compacted, {} row-combo(s) culled",
                100.0 * mean,
                self.slab_densities.len(),
                self.stats.compacted_pairs,
                self.stats.culled_rows,
            ));
        }
        if !self.slab_privatized.is_empty() {
            let on = self.slab_privatized.iter().filter(|&&p| p).count();
            s.push_str(&format!(
                "; accumulation: privatized on {on} of {} slab(s)",
                self.slab_privatized.len()
            ));
            if self.stats.accum_fallback_pairs > 0 {
                s.push_str(&format!(
                    " ({} pair(s) fell back to atomic)",
                    self.stats.accum_fallback_pairs
                ));
            }
        }
        if let Some(plan) = &self.plan {
            s.push_str(&format!(
                "; plan auto chose {} (predicted {:.4} s, {:.1} % off, \
                 {} candidate(s) scored)",
                plan.chosen,
                plan.predicted_s,
                100.0 * plan.prediction_error(),
                plan.candidates.len(),
            ));
        }
        if let Some(c) = &self.cluster {
            let alive = c.nodes.iter().filter(|n| !n.lost).count();
            s.push_str(&format!(
                "; cluster: {} node(s) over {} ({}), reduction exposed {:.4} s, \
                 {} fabric message(s) moving {:.2} MiB of segments",
                alive,
                c.interconnect,
                c.options,
                c.reduction_exposed_s,
                c.net_messages,
                c.net_bytes as f64 / (1024.0 * 1024.0),
            ));
            if c.net_wait_s > 0.0 {
                s.push_str(&format!(" ({:.4} s queued on busy links)", c.net_wait_s));
            }
            if c.nodes_lost > 0 {
                s.push_str(&format!(
                    "; DEGRADED: {} node(s) lost mid-run, rows re-banded onto survivors",
                    c.nodes_lost
                ));
            }
        }
        if self.gpu_replans > 0 || self.gpu_transfer_retries > 0 {
            s.push_str(&format!(
                "; recovered from device faults ({} re-plan(s), {} transfer retry(ies))",
                self.gpu_replans, self.gpu_transfer_retries
            ));
        }
        if let Some(resume) = &self.recovery.resume {
            s.push_str(&format!(
                "; resumed from journal {}: {} slab(s) replayed",
                resume.journal_key, resume.slabs_replayed
            ));
        }
        if self.recovery.devices_lost > 0 {
            s.push_str(&format!(
                "; {} device(s) lost mid-run, rows requeued onto survivors",
                self.recovery.devices_lost
            ));
        }
        if self.recovery.salvaged_slabs > 0 || self.recovery.recomputed_slabs > 0 {
            s.push_str(&format!(
                "; salvage: {} GPU slab(s) kept, {} band(s) recomputed on the CPU",
                self.recovery.salvaged_slabs, self.recovery.recomputed_slabs
            ));
        }
        if self.integrity.checks_run > 0 {
            s.push_str(&format!(
                "; integrity: {} check(s), {} corruption(s) detected \
                 ({} CRC, {} ABFT, {} watchdog), {} corrected, \
                 verify host-CPU {:.4} s, exposed {:.4} s",
                self.integrity.checks_run,
                self.integrity.corruptions_detected,
                self.integrity.transfer_crc_failures,
                self.integrity.abft_mismatches,
                self.integrity.watchdog_timeouts,
                self.integrity.corruptions_corrected,
                self.integrity.verify_host_cpu_s,
                self.integrity.exposed_overhead_s,
            ));
            if self.integrity.cpu_fallback_slabs > 0 {
                s.push_str(&format!(
                    " ({} slab(s) repaired from the host reference)",
                    self.integrity.cpu_fallback_slabs
                ));
            }
        }
        if self.trace_dropped > 0 {
            s.push_str(&format!(
                "; {} launch-trace slot(s) dropped",
                self.trace_dropped
            ));
        }
        if let Some(fallback) = &self.fallback {
            s.push_str(&format!("; DEGRADED: {fallback}"));
        }
        if self.integrity.degraded() {
            s.push_str(
                "; INTEGRITY-DEGRADED: silent corruption was detected and \
                 repaired during this run",
            );
        }
        s
    }

    /// Fraction of total time spent communicating (GPU engines).
    pub fn comm_fraction(&self) -> f64 {
        if self.total_time_s <= 0.0 {
            return 0.0;
        }
        self.comm_time_s / self.total_time_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        let mut stats = ReconStats::default();
        stats.record(laue_core::stats::PairOutcome::Deposited { bins: 2 });
        stats.record(laue_core::stats::PairOutcome::BelowCutoff);
        RunReport {
            comm_time_s: 0.5,
            compute_time_s: 1.5,
            input_bytes: 4 * 1024 * 1024,
            rows_per_slab: 16,
            n_slabs: 4,
            transfers: 12,
            pipeline_depth: 1,
            ..RunReport::host(
                "gpu-1d".into(),
                DepthImage::zeroed(2, 2, 2),
                stats,
                2.0,
                (8, 64, 64),
            )
        }
    }

    #[test]
    fn host_reports_are_all_compute() {
        let r = RunReport::host(
            "cpu-seq".into(),
            DepthImage::zeroed(1, 1, 1),
            ReconStats::default(),
            0.75,
            (3, 4, 5),
        );
        assert_eq!((r.total_time_s, r.compute_time_s), (0.75, 0.75));
        assert_eq!(r.comm_time_s, 0.0);
        assert_eq!(r.input_bytes, 3 * 4 * 5 * 2, "u16 counts");
        assert_eq!((r.n_slabs, r.pipeline_depth), (0, 0));
        assert!(r.cluster.is_none() && r.plan.is_none() && r.fallback.is_none());
        assert!(!r.recovery.is_noteworthy());
    }

    #[test]
    fn summary_mentions_the_essentials() {
        let s = report().summary();
        assert!(s.contains("gpu-1d"));
        assert!(s.contains("8×64×64"));
        assert!(s.contains("4.0 MiB"));
        assert!(s.contains("slab"));
        assert!(s.contains("50.0 % active"));
        assert!(!s.contains("recovered"), "clean run mentions no recovery");
        assert!(!s.contains("DEGRADED"));
        assert!(!s.contains("ring depth"), "serial run mentions no ring");
        assert!(!s.contains("table cache"), "untouched cache stays silent");
        assert!(!s.contains("sparsity"), "dense run mentions no sparsity");
        assert!(
            !s.contains("accumulation"),
            "atomic run mentions no accumulation"
        );
    }

    #[test]
    fn summary_reports_bus_contention_and_host_tables() {
        let quiet = report().summary();
        assert!(!quiet.contains("bus contention"), "{quiet}");
        assert!(!quiet.contains("host tables"), "{quiet}");
        let mut r = report();
        r.bus_wait_s = 0.125;
        r.host_table_time_s = 0.25;
        let s = r.summary();
        assert!(
            s.contains("bus contention added 0.1250 s of transfer stall"),
            "{s}"
        );
        assert!(
            s.contains("host tables took 0.2500 s of CPU time (overlapped)"),
            "{s}"
        );
    }

    #[test]
    fn summary_reports_accumulation() {
        let mut r = report();
        r.slab_privatized = vec![true, true, true, false];
        let s = r.summary();
        assert!(
            s.contains("accumulation: privatized on 3 of 4 slab(s)"),
            "{s}"
        );
        assert!(!s.contains("fell back"), "no fallback pairs recorded: {s}");
        r.stats.accum_fallback_pairs = 9;
        let s = r.summary();
        assert!(s.contains("(9 pair(s) fell back to atomic)"), "{s}");
    }

    #[test]
    fn summary_reports_sparsity() {
        let mut r = report();
        r.slab_densities = vec![0.25, 0.35];
        r.stats.culled_rows = 7;
        r.stats.compacted_pairs = 41;
        let s = r.summary();
        assert!(
            s.contains("sparsity: 30.0 % mean active density over 2 slab(s)"),
            "{s}"
        );
        assert!(s.contains("41 pair(s) compacted"), "{s}");
        assert!(s.contains("7 row-combo(s) culled"), "{s}");
    }

    #[test]
    fn summary_reports_ring_depth_and_cache_traffic() {
        let mut r = report();
        r.pipeline_depth = 3;
        r.table_cache.host_hits = 1;
        r.table_cache.device_hits = 1;
        let s = r.summary();
        assert!(s.contains("ring depth 3"), "{s}");
        assert!(s.contains("table cache: 2 hit(s), 0 miss(es)"), "{s}");
    }

    #[test]
    fn summary_reports_recovery_and_degradation() {
        let mut r = report();
        r.gpu_replans = 2;
        r.gpu_transfer_retries = 5;
        let s = r.summary();
        assert!(s.contains("2 re-plan(s)") && s.contains("5 transfer retry(ies)"));
        r.fallback = Some("gpu-1d failed: device lost; completed on cpu-seq".into());
        assert!(r.summary().contains("DEGRADED: gpu-1d failed"));
    }

    #[test]
    fn summary_reports_resume_failover_and_salvage() {
        let mut r = report();
        r.recovery.resume = Some(ResumeInfo {
            journal_key: "00deadbeef00cafe".into(),
            slabs_replayed: 3,
        });
        r.recovery.devices_lost = 1;
        r.recovery.salvaged_slabs = 5;
        r.recovery.recomputed_slabs = 2;
        let s = r.summary();
        assert!(
            s.contains("resumed from journal 00deadbeef00cafe: 3 slab(s) replayed"),
            "{s}"
        );
        assert!(s.contains("1 device(s) lost"), "{s}");
        assert!(
            s.contains("salvage: 5 GPU slab(s) kept, 2 band(s) recomputed"),
            "{s}"
        );
        assert!(r.recovery.is_noteworthy());
        assert!(!report().recovery.is_noteworthy());

        // A multi-GPU run reports slabs without a fixed per-slab row count.
        let mut r = report();
        r.rows_per_slab = 0;
        let s = r.summary();
        assert!(s.contains("; 4 slab(s)"), "{s}");
        assert!(!s.contains("0 row(s)"), "{s}");
    }

    #[test]
    fn summary_reports_plan_choice() {
        let quiet = report().summary();
        assert!(!quiet.contains("plan auto"), "{quiet}");
        let mut r = report();
        r.plan = Some(PlanExplain {
            chosen: "flat1d/inkernel/k3/r16".into(),
            predicted_s: 1.8,
            host_s: 0.0,
            measured_s: 2.0,
            candidates: vec![
                ("flat1d/inkernel/k3/r16".into(), 1.8),
                ("ptr3d/tables/k1/r16".into(), 3.5),
            ],
        });
        let s = r.summary();
        assert!(s.contains("plan auto chose flat1d/inkernel/k3/r16"), "{s}");
        assert!(s.contains("predicted 1.8000 s, 10.0 % off"), "{s}");
        assert!(s.contains("2 candidate(s) scored"), "{s}");
        assert!((r.plan.unwrap().prediction_error() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn summary_reports_integrity() {
        let quiet = report().summary();
        assert!(!quiet.contains("integrity"), "{quiet}");
        assert!(!quiet.contains("INTEGRITY-DEGRADED"), "{quiet}");

        // Clean verified run: checks reported, no degradation marker.
        let mut r = report();
        r.integrity.checks_run = 9;
        r.integrity.verify_host_cpu_s = 0.0125;
        let s = r.summary();
        assert!(
            s.contains("integrity: 9 check(s), 0 corruption(s) detected"),
            "{s}"
        );
        assert!(
            s.contains("verify host-CPU 0.0125 s, exposed 0.0000 s"),
            "{s}"
        );
        assert!(!s.contains("INTEGRITY-DEGRADED"), "{s}");

        // Corruption caught and scrubbed: the run is marked degraded.
        r.integrity.corruptions_detected = 2;
        r.integrity.corruptions_corrected = 2;
        r.integrity.abft_mismatches = 1;
        r.integrity.transfer_crc_failures = 1;
        r.integrity.cpu_fallback_slabs = 1;
        let s = r.summary();
        assert!(
            s.contains("2 corruption(s) detected (1 CRC, 1 ABFT, 0 watchdog), 2 corrected"),
            "{s}"
        );
        assert!(
            s.contains("1 slab(s) repaired from the host reference"),
            "{s}"
        );
        assert!(s.contains("INTEGRITY-DEGRADED"), "{s}");
    }

    #[test]
    fn summary_reports_cluster_accounting() {
        let quiet = report().summary();
        assert!(!quiet.contains("cluster:"), "{quiet}");
        let mut r = report();
        let lost = laue_core::NodeOutcome {
            node: 2,
            lost: true,
            ..Default::default()
        };
        r.cluster = Some(ClusterReport {
            options: "tree+overlap".into(),
            interconnect: "ib-qdr".into(),
            compute_s: 1.25,
            reduction_exposed_s: 0.0625,
            net_wait_s: 0.5,
            net_bytes: 3 * 1024 * 1024,
            net_messages: 7,
            nodes_lost: 1,
            nodes: vec![
                laue_core::NodeOutcome::default(),
                laue_core::NodeOutcome {
                    node: 1,
                    ..laue_core::NodeOutcome::default()
                },
                lost,
            ],
        });
        let s = r.summary();
        assert!(
            s.contains("cluster: 2 node(s) over ib-qdr (tree+overlap)"),
            "{s}"
        );
        assert!(s.contains("reduction exposed 0.0625 s"), "{s}");
        assert!(s.contains("7 fabric message(s) moving 3.00 MiB"), "{s}");
        assert!(s.contains("0.5000 s queued on busy links"), "{s}");
        assert!(s.contains("DEGRADED: 1 node(s) lost mid-run"), "{s}");
    }

    #[test]
    fn summary_reports_trace_drops() {
        let mut r = report();
        r.trace_dropped = 3;
        assert!(r.summary().contains("3 launch-trace slot(s) dropped"));
    }

    #[test]
    fn comm_fraction() {
        assert!((report().comm_fraction() - 0.25).abs() < 1e-12);
        let mut r = report();
        r.total_time_s = 0.0;
        assert_eq!(r.comm_fraction(), 0.0);
    }
}
