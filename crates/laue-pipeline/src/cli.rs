//! Command-line interface (`laue` binary): argument parsing and command
//! execution, kept in the library so both are unit-testable.
//!
//! ```text
//! laue generate    --out scan.mh5 [--rows N] [--cols N] [--steps N] …
//! laue reconstruct --input scan.mh5 [--engine E] [--out recon.mh5] …
//! laue validate    --input scan.mh5 [--engine E] …
//! laue batch       --dir scans/ [--engine E] …
//! laue inspect     <file.mh5>
//! ```

use std::collections::BTreeMap;

use cuda_sim::{FaultPlan, InterconnectProps};
use laue_core::gpu::{Layout, PipelineDepth};
use laue_core::planner::Pins;
use laue_core::{
    AccumulationMode, CompactionMode, IntegrityMode, PlanMode, ReconstructionConfig,
    ReductionTopology,
};

use crate::engine::Engine;
use crate::{GpuFailurePolicy, Pipeline, PipelineError, Result};

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Generate(GenerateArgs),
    Reconstruct(ReconstructArgs),
    Validate(ReconstructArgs),
    /// Reconstruct every `.mh5` scan in a directory on one pipeline,
    /// printing one summary row per file (`args.input` is unused).
    Batch {
        dir: String,
        args: ReconstructArgs,
    },
    Inspect {
        path: String,
    },
    Help,
}

/// Arguments of `laue generate`.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateArgs {
    pub out: String,
    pub rows: usize,
    pub cols: usize,
    pub steps: usize,
    pub scatterers: usize,
    pub background: f64,
    pub noise: f64,
    pub seed: u64,
}

/// Arguments of `laue reconstruct`, `laue validate` and `laue batch`, from
/// one flag parser. `validate` and `batch` take none of the per-file
/// output flags (`out`, `histogram`, `trace`, `variance`, `roi`), and
/// `batch` reads a directory instead of `input`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconstructArgs {
    pub input: String,
    pub out: Option<String>,
    pub histogram: Option<String>,
    pub trace: Option<String>,
    pub variance: Option<String>,
    pub engine: Engine,
    pub depth_start: f64,
    pub depth_end: f64,
    pub bins: usize,
    pub cutoff: f64,
    /// Sparsity pass: shadow culling + active-pair compaction
    /// (`--compaction off|auto|on`; default `off` = dense traversal).
    pub compaction: CompactionMode,
    /// GPU depth-intensity accumulation strategy
    /// (`--accumulation atomic|privatized|auto`; default `atomic` = the
    /// paper's CAS-loop `atomicAdd(double)`).
    pub accumulation: AccumulationMode,
    /// Execution planning (`--plan fixed|auto`; default `fixed`). Under
    /// `auto` the cost-model planner picks, for every GPU engine's
    /// nodes × devices, the layout and table placement, plus whatever is
    /// not pinned among slab rows, ring depth, reduction and overlap. The
    /// configured compaction and accumulation modes run under both.
    pub plan: PlanMode,
    /// End-to-end data-integrity policy
    /// (`--integrity off|verify|scrub`; default `off`).
    pub integrity: IntegrityMode,
    /// What the flags pin, each `None` when unpinned, where `--plan auto`
    /// searches it: slab rows (`--rows-per-slab`; unpinned fits the slab
    /// to device memory), ring depth (`--pipeline-depth`; unpinned is 1 on
    /// gpu-1d, gpu-3d and gpu-tables, 3 on gpu-pipe, gpu-multi and
    /// gpu-cluster), reduction routing (`--reduction tree|ring|auto`;
    /// auto is tree) and overlap (`--overlap on|off|auto`; auto is on).
    /// The reduction moves time only on more than one node, so a one-node
    /// plan keeps tree.
    pub pins: Pins,
    /// Device-resident depth-table cache budget, MiB (`--table-cache-mb`;
    /// 0 disables residency).
    pub table_cache_mb: Option<u64>,
    /// Detector region of interest: `(r0, c0, rows, cols)`.
    pub roi: Option<(usize, usize, usize, usize)>,
    /// What to do when a GPU engine fails unrecoverably.
    pub on_gpu_failure: GpuFailurePolicy,
    /// Scripted device-fault schedule (`--inject-gpu-fault`, testing only).
    pub inject_fault: Option<FaultPlan>,
    /// Journal directory for checkpointed GPU runs (`--journal-dir`).
    pub journal_dir: Option<String>,
    /// Replay an interrupted run's journal instead of starting fresh
    /// (`--resume`; needs `--journal-dir`).
    pub resume: bool,
    /// Install the fault schedule on this fleet device only
    /// (`--fault-device`, testing only; node-major flattened index for
    /// `gpu-cluster` engines).
    pub fault_device: Option<usize>,
    /// Inter-node fabric preset (`--interconnect ib-qdr|ib-fdr|nvlink|
    /// gige`; default ib-qdr). Cluster engines only.
    pub interconnect: InterconnectProps,
}

/// Parse an engine name.
pub fn parse_engine(s: &str) -> std::result::Result<Engine, String> {
    if let Some(t) = s.strip_prefix("cpu-threaded:") {
        let threads: usize = t
            .parse()
            .map_err(|_| format!("bad thread count in engine {s:?}"))?;
        return Ok(Engine::Cpu { threads });
    }
    if let Some(t) = s.strip_prefix("gpu-multi:") {
        let devices: usize = t
            .parse()
            .map_err(|_| format!("bad device count in engine {s:?}"))?;
        if devices == 0 {
            return Err(format!("engine {s:?} needs at least one device"));
        }
        return Ok(Engine::GpuMulti { devices });
    }
    if let Some(t) = s.strip_prefix("gpu-cluster:") {
        // N nodes of M devices each: `gpu-cluster:4` or `gpu-cluster:4x2`.
        let (n, m) = match t.split_once('x') {
            Some((n, m)) => (n, Some(m)),
            None => (t, None),
        };
        let nodes: usize = n
            .parse()
            .map_err(|_| format!("bad node count in engine {s:?}"))?;
        let devices_per_node: usize = match m {
            Some(m) => m
                .parse()
                .map_err(|_| format!("bad per-node device count in engine {s:?}"))?,
            None => 1,
        };
        if nodes == 0 || devices_per_node == 0 {
            return Err(format!(
                "engine {s:?} needs at least one node and one device per node"
            ));
        }
        return Ok(Engine::GpuCluster {
            nodes,
            devices_per_node,
        });
    }
    match s {
        "cpu" | "cpu-seq" => Ok(Engine::Cpu { threads: 1 }),
        "gpu" | "gpu-1d" => Ok(Engine::Gpu {
            layout: Layout::Flat1d,
        }),
        "gpu-3d" => Ok(Engine::Gpu {
            layout: Layout::Pointer3d,
        }),
        "gpu-tables" => Ok(Engine::GpuTables),
        "gpu-pipe" => Ok(Engine::GpuPipelined),
        other => Err(format!(
            "unknown engine {other:?} (try cpu, cpu-threaded:N, gpu-1d, gpu-3d, gpu-tables, \
             gpu-pipe, gpu-multi:N, gpu-cluster:N[xM])"
        )),
    }
}

/// Parse a `--reduction` value: a routing topology, or `auto` for the
/// default (tree under `--plan fixed`, the cost model's argmin under
/// `--plan auto`).
pub fn parse_reduction(s: &str) -> std::result::Result<Option<ReductionTopology>, String> {
    if s == "auto" {
        return Ok(None);
    }
    ReductionTopology::parse(s)
        .map(Some)
        .ok_or_else(|| format!("bad --reduction {s:?} (try tree, ring, auto)"))
}

/// Parse an `--overlap` value: `on`, `off`, or `auto` (on under
/// `--plan fixed`, the cost model's argmin under `--plan auto`).
pub fn parse_overlap(s: &str) -> std::result::Result<Option<bool>, String> {
    match s {
        "auto" => Ok(None),
        "on" => Ok(Some(true)),
        "off" => Ok(Some(false)),
        other => Err(format!("bad --overlap {other:?} (try on, off, auto)")),
    }
}

/// Parse an `--interconnect` preset name.
pub fn parse_interconnect(s: &str) -> std::result::Result<InterconnectProps, String> {
    InterconnectProps::by_name(s)
        .ok_or_else(|| format!("unknown --interconnect {s:?} (try ib-qdr, ib-fdr, nvlink, gige)"))
}

/// Parse an `--on-gpu-failure` policy name.
pub fn parse_gpu_failure_policy(s: &str) -> std::result::Result<GpuFailurePolicy, String> {
    match s {
        "abort" => Ok(GpuFailurePolicy::Abort),
        "fallback-cpu" => Ok(GpuFailurePolicy::FallbackCpu),
        other => Err(format!(
            "unknown GPU failure policy {other:?} (try abort, fallback-cpu)"
        )),
    }
}

/// Parse an `--inject-gpu-fault` schedule: comma-separated `key=value`
/// items, e.g. `seed=7,alloc-nth=1,h2d-prob=0.1,free-mem=1048576`.
pub fn parse_fault_plan(spec: &str) -> std::result::Result<FaultPlan, String> {
    let mut plan = FaultPlan::new(0);
    for item in spec.split(',') {
        let Some((key, value)) = item.split_once('=') else {
            return Err(format!(
                "--inject-gpu-fault wants comma-separated key=value items, got {item:?}"
            ));
        };
        let num = || -> std::result::Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("bad --inject-gpu-fault {key}: {value:?}"))
        };
        let prob = || -> std::result::Result<f64, String> {
            let p: f64 = value
                .parse()
                .map_err(|_| format!("bad --inject-gpu-fault {key}: {value:?}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!(
                    "--inject-gpu-fault {key} wants a probability in [0, 1], got {value}"
                ));
            }
            Ok(p)
        };
        plan = match key {
            "seed" => FaultPlan {
                seed: num()?,
                ..plan
            },
            "alloc-nth" => plan.fail_nth_alloc(num()?),
            "h2d-nth" => plan.fail_nth_h2d(num()?),
            "d2h-nth" => plan.fail_nth_d2h(num()?),
            "h2d-prob" => plan.h2d_fault_rate(prob()?),
            "d2h-prob" => plan.d2h_fault_rate(prob()?),
            "free-mem" => plan.report_mem_bytes(num()?),
            "dead-after" => plan.fail_after(num()?),
            "dead-after-launches" => plan.fail_after_launches(num()?),
            "flip-h2d-nth" => plan.flip_nth_h2d(num()?),
            "flip-d2h-nth" => plan.flip_nth_d2h(num()?),
            "flip-byte" => plan.flip_byte_offset(num()?),
            "flip-kernel-nth" => plan.flip_nth_kernel(num()?),
            "flip-kernel-from" => plan.flip_kernel_from(num()?),
            "flip-op" => plan.flip_op_index(num()?),
            "stall-nth" => FaultPlan {
                stuck_kernel_nth: Some(num()?),
                ..plan
            },
            "stall-s" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --inject-gpu-fault {key}: {value:?}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err(format!(
                        "--inject-gpu-fault {key} wants a positive duration, got {value}"
                    ));
                }
                FaultPlan { stall_s: s, ..plan }
            }
            other => {
                return Err(format!(
                    "unknown --inject-gpu-fault key {other:?} (try seed, alloc-nth, \
                     h2d-nth, d2h-nth, h2d-prob, d2h-prob, free-mem, dead-after, \
                     dead-after-launches, flip-h2d-nth, flip-d2h-nth, flip-byte, \
                     flip-kernel-nth, flip-kernel-from, flip-op, stall-nth, stall-s)"
                ))
            }
        };
    }
    if plan.stuck_kernel_nth.is_some() && plan.stall_s <= 0.0 {
        return Err("--inject-gpu-fault stall-nth needs stall-s=<seconds>".into());
    }
    Ok(plan)
}

/// Flags that take no value; they parse to `"true"`.
const VALUELESS_FLAGS: &[&str] = &["resume"];

/// Split `--key value` pairs (and bare boolean flags, see
/// [`VALUELESS_FLAGS`]); positional arguments keep their order.
fn split_flags(
    args: &[String],
) -> std::result::Result<(BTreeMap<String, String>, Vec<String>), String> {
    let mut flags = BTreeMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            let value = if VALUELESS_FLAGS.contains(&key) {
                i += 1;
                "true".to_string()
            } else {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                i += 2;
                value.clone()
            };
            if flags.insert(key.to_string(), value).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    Ok((flags, positional))
}

fn get_parse<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> std::result::Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value for --{key}: {v:?}")),
    }
}

fn reject_unknown(
    cmd: &str,
    flags: &BTreeMap<String, String>,
    allowed: &[&str],
) -> std::result::Result<(), String> {
    for key in flags.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("{cmd} takes no --{key}"));
        }
    }
    Ok(())
}

/// Flags every reconstructing command (`reconstruct`, `validate`, `batch`)
/// takes.
const RUN_FLAGS: &[&str] = &[
    "engine",
    "depth-start",
    "depth-end",
    "bins",
    "cutoff",
    "compaction",
    "accumulation",
    "plan",
    "integrity",
    "rows-per-slab",
    "pipeline-depth",
    "table-cache-mb",
    "on-gpu-failure",
    "inject-gpu-fault",
    "journal-dir",
    "resume",
    "fault-device",
    "reduction",
    "overlap",
    "interconnect",
];

/// Per-file flags only `reconstruct` takes.
const OUTPUT_FLAGS: &[&str] = &["out", "histogram", "trace", "variance", "roi"];

/// Parse `flag`'s value with `parse`, `None` when the flag is absent; a
/// bad value names the flag and what it `expects`.
fn get_opt<T>(
    flags: &BTreeMap<String, String>,
    flag: &str,
    parse: impl Fn(&str) -> Option<T>,
    expects: &str,
) -> std::result::Result<Option<T>, String> {
    flags
        .get(flag)
        .map(|v| parse(v).ok_or_else(|| format!("bad --{flag} {v:?} (try {expects})")))
        .transpose()
}

/// [`get_opt`] for a count.
fn get_count<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    flag: &str,
) -> std::result::Result<Option<T>, String> {
    get_opt(flags, flag, |v| v.parse().ok(), "a count")
}

/// The one flag parser of `reconstruct`, `validate` and `batch`. Each
/// command rejects the flags it would ignore: only `reconstruct` writes
/// per-file outputs or crops to a region of interest, and `batch` reads
/// `--dir` where the others read `--input`.
fn parse_run(cmd: &str, rest: &[String]) -> std::result::Result<Command, String> {
    let (flags, positional) = split_flags(rest)?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument {:?}", positional[0]));
    }
    let scan_flag = if cmd == "batch" { "dir" } else { "input" };
    let mut allowed = vec![scan_flag];
    allowed.extend_from_slice(RUN_FLAGS);
    if cmd == "reconstruct" {
        allowed.extend_from_slice(OUTPUT_FLAGS);
    }
    reject_unknown(cmd, &flags, &allowed)?;
    let scan = flags
        .get(scan_flag)
        .ok_or(format!("{cmd} needs --{scan_flag} <path>"))?
        .clone();
    let engine = match flags.get("engine") {
        None => Engine::Gpu {
            layout: Layout::Flat1d,
        },
        Some(e) => parse_engine(e)?,
    };
    let roi = match flags.get("roi") {
        None => None,
        Some(spec) => {
            let parts: Vec<usize> = spec
                .split(':')
                .map(|t| t.parse().map_err(|_| format!("bad --roi component {t:?}")))
                .collect::<std::result::Result<_, String>>()?;
            let [r0, c0, rows, cols] = parts.as_slice() else {
                return Err(format!("--roi wants r0:c0:rows:cols, got {spec:?}"));
            };
            Some((*r0, *c0, *rows, *cols))
        }
    };
    let args = ReconstructArgs {
        input: if cmd == "batch" {
            String::new()
        } else {
            scan.clone()
        },
        out: flags.get("out").cloned(),
        histogram: flags.get("histogram").cloned(),
        trace: flags.get("trace").cloned(),
        variance: flags.get("variance").cloned(),
        engine,
        depth_start: get_parse(&flags, "depth-start", -4000.0)?,
        depth_end: get_parse(&flags, "depth-end", 4000.0)?,
        bins: get_parse(&flags, "bins", 400)?,
        cutoff: get_parse(&flags, "cutoff", 0.0)?,
        compaction: get_opt(&flags, "compaction", CompactionMode::parse, "off, auto, on")?
            .unwrap_or_default(),
        accumulation: get_opt(
            &flags,
            "accumulation",
            AccumulationMode::parse,
            "atomic, privatized, auto",
        )?
        .unwrap_or_default(),
        plan: get_opt(&flags, "plan", PlanMode::parse, "fixed, auto")?.unwrap_or_default(),
        integrity: get_opt(
            &flags,
            "integrity",
            IntegrityMode::parse,
            "off, verify, scrub",
        )?
        .unwrap_or_default(),
        pins: Pins {
            rows: get_count(&flags, "rows-per-slab")?,
            depth: get_count(&flags, "pipeline-depth")?.map(PipelineDepth),
            topology: match flags.get("reduction") {
                None => None,
                Some(s) => parse_reduction(s)?,
            },
            overlap: match flags.get("overlap") {
                None => None,
                Some(s) => parse_overlap(s)?,
            },
        },
        table_cache_mb: get_count(&flags, "table-cache-mb")?,
        roi,
        on_gpu_failure: match flags.get("on-gpu-failure") {
            None => GpuFailurePolicy::default(),
            Some(s) => parse_gpu_failure_policy(s)?,
        },
        inject_fault: flags
            .get("inject-gpu-fault")
            .map(|s| parse_fault_plan(s))
            .transpose()?,
        journal_dir: flags.get("journal-dir").cloned(),
        resume: flags.contains_key("resume"),
        fault_device: get_count(&flags, "fault-device")?,
        interconnect: match flags.get("interconnect") {
            None => InterconnectProps::ib_qdr(),
            Some(s) => parse_interconnect(s)?,
        },
    };
    if args.resume && args.journal_dir.is_none() {
        return Err("--resume needs --journal-dir".into());
    }
    Ok(match cmd {
        "reconstruct" => Command::Reconstruct(args),
        "validate" => Command::Validate(args),
        _ => Command::Batch { dir: scan, args },
    })
}

/// Parse a full argument vector (without the program name).
pub fn parse(args: &[String]) -> std::result::Result<Command, String> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "help" | "-h" | "--help" => Ok(Command::Help),
        "generate" => {
            let (flags, positional) = split_flags(rest)?;
            if !positional.is_empty() {
                return Err(format!("unexpected argument {:?}", positional[0]));
            }
            reject_unknown(
                cmd,
                &flags,
                &[
                    "out",
                    "rows",
                    "cols",
                    "steps",
                    "scatterers",
                    "background",
                    "noise",
                    "seed",
                ],
            )?;
            let out = flags
                .get("out")
                .ok_or("generate needs --out <file>")?
                .clone();
            Ok(Command::Generate(GenerateArgs {
                out,
                rows: get_parse(&flags, "rows", 32)?,
                cols: get_parse(&flags, "cols", 32)?,
                steps: get_parse(&flags, "steps", 32)?,
                scatterers: get_parse(&flags, "scatterers", 24)?,
                background: get_parse(&flags, "background", 10.0)?,
                noise: get_parse(&flags, "noise", 0.0)?,
                seed: get_parse(&flags, "seed", 0)?,
            }))
        }
        "reconstruct" | "validate" | "batch" => parse_run(cmd, rest),
        "inspect" => {
            let (flags, positional) = split_flags(rest)?;
            reject_unknown(cmd, &flags, &[])?;
            match positional.as_slice() {
                [path] => Ok(Command::Inspect { path: path.clone() }),
                _ => Err("inspect takes exactly one file".into()),
            }
        }
        other => Err(format!("unknown command {other:?} (try help)")),
    }
}

/// The help text.
pub const HELP: &str = "\
laue — wire-scan Laue depth reconstruction (CLUSTER 2015 reproduction)

USAGE:
  laue generate    --out <scan.mh5> [--rows N] [--cols N] [--steps N]
                   [--scatterers K] [--background B] [--noise X] [--seed S]
  laue reconstruct --input <scan.mh5> [--engine E] [--out <recon.mh5>]
                   [--histogram <file.txt>] [--trace <trace.json>]
                   [--variance <sigma.mh5>] [--roi r0:c0:rows:cols]
                   [--depth-start UM] [--depth-end UM] [--bins N]
                   [--cutoff C] [--compaction off|auto|on]
                   [--accumulation atomic|privatized|auto]
                   [--plan fixed|auto] [--integrity off|verify|scrub]
                   [--rows-per-slab R] [--pipeline-depth K]
                   [--table-cache-mb M]
                   [--on-gpu-failure abort|fallback-cpu]
                   [--inject-gpu-fault k=v,…] [--fault-device I]
                   [--journal-dir <dir>] [--resume]
                   [--interconnect ib-qdr|ib-fdr|nvlink|gige]
                   [--reduction tree|ring|auto] [--overlap on|off|auto]
  laue validate    --input <scan.mh5> [reconstruct's options except --out,
                   --histogram, --trace, --variance and --roi]
  laue batch       --dir <directory> [validate's options]: every .mh5 scan
                   in the directory, one summary row each, on one pipeline
  laue inspect     <file.mh5>

ENGINES:
  cpu | cpu-threaded:N | gpu-1d | gpu-3d | gpu-tables | gpu-pipe | gpu-multi:N
  | gpu-cluster:N[xM]
  (cpu-threaded:0 = one thread per available host core; gpu-cluster runs N
  chassis of M devices each — M defaults to 1 — joined by a metered fabric)

SPARSITY:
  --compaction off    dense traversal: every (pixel, pair) visited (default)
  --compaction on     wire-shadow row culling plus a prescan that compacts
                      the work-list to pairs with |ΔI| above the cutoff;
                      output stays bit-identical to the dense path
  --compaction auto   per-slab: prescan, then launch compact only when the
                      cost model prices the compacted launch cheaper

ACCUMULATION:
  --accumulation atomic      per-deposit CAS-loop atomicAdd(double) on device
                             memory — the paper's scheme (default)
  --accumulation privatized  per-block depth-bin tiles in shared memory,
                             committed by one global add per touched
                             (pixel, bin) cell; slabs whose tile exceeds the
                             device's shared memory fall back to atomic;
                             output stays bit-identical to the atomic path
  --accumulation auto        per-slab: privatize when the cost model prices
                             the tiled kernel cheaper than the atomic one

PLANNER:
  --plan fixed  run the engine's layout and table placement with each
                pinned --rows-per-slab, --pipeline-depth, --reduction and
                --overlap, the engine's default where unpinned (default)
  --plan auto   every GPU engine, for its nodes × devices: enumerate
                layout × table placement × ring depth × slab rows, predict
                each candidate's virtual cost with the device's calibrated
                cost model, and run the argmin; on more than one node also
                sweep node count × reduction × overlap. Only what is
                unpinned is searched: a pinned --rows-per-slab,
                --pipeline-depth, --reduction or --overlap is the one value
                priced. Under either plan the configured --compaction and
                --accumulation are the modes priced and run. The chosen
                plan, its predicted cost, and the prediction error land in
                the run report's plan block. The resolved plan is part of
                the journal key: a flip forces a clean restart. Aliases of
                one shape (gpu-pipe, gpu-multi:1, gpu-cluster:1x1) plan
                alike. CPU engines ignore --plan auto.

CHECKPOINT / RESUME:
  --journal-dir <dir>  journal every committed GPU slab under <dir>; an
                       interrupted run leaves the journal behind
  --resume             replay the journal of an interrupted run with the
                       same scan/config/plan and recompute only the
                       remaining slabs (bit-identical to an uninterrupted
                       run; needs --journal-dir)

GPU PIPELINE:
  --rows-per-slab R    detector rows shipped per slab (the paper's Fig 2
                       ships 2 of 6); unpinned, each slab is the largest
                       that fits device memory, and --plan auto picks one
                       unless pinned; the image never depends on it
  --pipeline-depth K   ring depth: slab slots in flight (1 = serial;
                       gpu-1d, gpu-3d and gpu-tables default to 1,
                       gpu-pipe, gpu-multi and gpu-cluster to 3, and
                       --plan auto picks one unless pinned)
  --table-cache-mb M   device-resident depth-table budget in MiB
                       (default: a quarter of device memory; 0 disables)

DATA INTEGRITY:
  --integrity off     no checking (default); silent corruption propagates
  --integrity verify  CRC64-checksummed transfers, ABFT per-slab depth-sum
                      verification against a host recompute, and a launch
                      watchdog (a launch slower than 4× its cost-model
                      prediction is hung); a detected corruption aborts
                      the run
  --integrity scrub   verify, plus recovery: the condemned slab is poisoned
                      in the journal and re-executed with backoff (host
                      repair if the device keeps corrupting); the run
                      completes bit-identical to a fault-free run and is
                      marked INTEGRITY-DEGRADED when anything was corrected

CLUSTER (gpu-cluster:N[xM]):
  --interconnect P     fabric preset joining the nodes: ib-qdr (default),
                       ib-fdr, nvlink, or gige; each link is a metered
                       shared resource, so concurrent reduction segments
                       queue and the wait lands in the run report
  --reduction T        inter-node depth-image routing: tree (hierarchical
                       gather, default under --plan fixed), ring (neighbour
                       relay — less head-link pressure on big clusters), or
                       auto (tree under --plan fixed)
  --overlap V          on (default) starts each node's reduction sends as
                       soon as its band is done, overlapping the fabric
                       with the compute tail of slower nodes; off inserts
                       a barrier first; auto is on under --plan fixed
  Under --plan auto the planner sweeps node count × whichever of topology
  and overlap are unpinned, runs the argmin at N nodes, and reports the
  full candidate table. On more than one node the resolved
  topology is part of the journal key (one node sends nothing, so there
  it stays tree); node loss re-bands remaining rows onto survivors and
  the run completes DEGRADED but bit-identical.

GPU FAULT HANDLING:
  --on-gpu-failure abort         surface GPU errors (default)
  --on-gpu-failure fallback-cpu  re-run on the CPU engine and mark the
                                 run report DEGRADED
  --inject-gpu-fault             scripted fault schedule for testing:
                                 comma-separated key=value with keys
                                 seed, alloc-nth, h2d-nth, d2h-nth,
                                 h2d-prob, d2h-prob, free-mem, dead-after,
                                 dead-after-launches, and silent-corruption
                                 keys flip-h2d-nth, flip-d2h-nth, flip-byte,
                                 flip-kernel-nth, flip-kernel-from (every
                                 launch from the nth), flip-op, stall-nth,
                                 stall-s
  --fault-device I               install the schedule on fleet device I
                                 only (gpu-multi failover testing)
";

fn recon_config(args: &ReconstructArgs) -> ReconstructionConfig {
    let mut cfg = ReconstructionConfig::new(args.depth_start, args.depth_end, args.bins);
    cfg.intensity_cutoff = args.cutoff;
    cfg.compaction = args.compaction;
    cfg.accumulation = args.accumulation;
    cfg.plan = args.plan;
    cfg.integrity = args.integrity;
    cfg
}

fn recon_pipeline(args: &ReconstructArgs) -> Pipeline {
    Pipeline {
        on_gpu_failure: args.on_gpu_failure,
        fault_plan: args.inject_fault.clone(),
        table_cache_mb: args.table_cache_mb,
        journal_dir: args.journal_dir.clone().map(std::path::PathBuf::from),
        resume: args.resume,
        fault_device: args.fault_device,
        pins: args.pins,
        interconnect: args.interconnect.clone(),
        ..Pipeline::default()
    }
}

/// Execute a parsed command, writing human output to `out`.
pub fn run<W: std::io::Write>(cmd: &Command, out: &mut W) -> Result<()> {
    match cmd {
        Command::Help => {
            write!(out, "{HELP}")?;
            Ok(())
        }
        Command::Generate(a) => {
            let scan = laue_wire::SyntheticScanBuilder::new(a.rows, a.cols, a.steps)
                .scatterers(a.scatterers)
                .background(a.background)
                .noise(a.noise)
                .seed(a.seed)
                .build()?;
            laue_wire::write_scan(&a.out, &scan.geometry, &scan.images, Some(&scan.truth), 8)?;
            let bytes = std::fs::metadata(&a.out).map(|m| m.len()).unwrap_or(0);
            writeln!(
                out,
                "wrote {} ({} images of {}×{}, {} scatterers, {} bytes)",
                a.out,
                a.steps,
                a.rows,
                a.cols,
                scan.truth.len(),
                bytes
            )?;
            Ok(())
        }
        Command::Reconstruct(a) => {
            let cfg = recon_config(a);
            let pipeline = recon_pipeline(a);
            let fingerprint = crate::run::file_fingerprint(&a.input)?;
            let mut scan = laue_wire::ScanFile::open(&a.input)?;
            let geometry = scan.geometry().clone();
            let report = match a.roi {
                None => pipeline.run_source_keyed(
                    &mut scan,
                    &geometry,
                    &cfg,
                    a.engine,
                    Some(fingerprint),
                )?,
                Some((r0, c0, rows, cols)) => {
                    let roi_geom = geometry.crop(r0, c0, rows, cols)?;
                    let mut roi = laue_core::input::RoiSlabSource::new(scan, r0, c0, rows, cols)?;
                    pipeline.run_source_keyed(
                        &mut roi,
                        &roi_geom,
                        &cfg,
                        a.engine,
                        Some(fingerprint),
                    )?
                }
            };
            writeln!(out, "{}", report.summary())?;
            if let Some(path) = &a.out {
                crate::export::write_mh5(path, &report, &cfg)?;
                writeln!(out, "wrote {path}")?;
            }
            if let Some(path) = &a.histogram {
                let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
                crate::export::write_histogram_text(&mut f, &report.image, &cfg)?;
                writeln!(out, "wrote {path}")?;
            }
            if let Some(path) = &a.variance {
                // Variance runs the sequential CPU path (exact propagation).
                let mut scan = laue_wire::ScanFile::open(&a.input)?;
                let geometry = scan.geometry().clone();
                let (geom_v, stack) = match a.roi {
                    None => {
                        let rows = geometry.detector.n_rows;
                        (
                            geometry.clone(),
                            laue_core::SlabSource::read_slab(&mut scan, 0, rows)?,
                        )
                    }
                    Some((r0, c0, rows, cols)) => {
                        let g = geometry.crop(r0, c0, rows, cols)?;
                        let mut roi =
                            laue_core::input::RoiSlabSource::new(scan, r0, c0, rows, cols)?;
                        let slab = laue_core::SlabSource::read_slab(&mut roi, 0, rows)?;
                        (g, slab)
                    }
                };
                let view = laue_core::ScanView::new(
                    &stack,
                    geom_v.wire.n_steps,
                    geom_v.detector.n_rows,
                    geom_v.detector.n_cols,
                )?;
                let var = laue_core::uncertainty::reconstruct_with_variance(&view, &geom_v, &cfg)?;
                let var_report = crate::report::RunReport::host(
                    "variance(cpu-seq)".into(),
                    var.variance,
                    var.stats,
                    0.0,
                    report.dims,
                );
                crate::export::write_mh5(path, &var_report, &cfg)?;
                writeln!(out, "wrote {path} (per-bin variance; σ = sqrt)")?;
            }
            if let Some(path) = &a.trace {
                match pipeline.chrome_trace() {
                    Some(trace) => {
                        std::fs::write(path, trace)?;
                        writeln!(out, "wrote {path} (open in chrome://tracing)")?;
                    }
                    None => writeln!(out, "--trace: the run finished on the CPU; skipped")?,
                }
            }
            Ok(())
        }
        Command::Validate(a) => {
            let cfg = recon_config(a);
            let pipeline = recon_pipeline(a);
            let scan = laue_wire::ScanFile::open(&a.input)?;
            let Some(truth) = scan.truth().cloned() else {
                return Err(PipelineError::Wire(laue_wire::WireError::MissingField(
                    "/entry/truth (validate needs a synthetic scan)".into(),
                )));
            };
            let step = scan.geometry().wire.step.norm();
            let report = pipeline.run_scan_file(&a.input, &cfg, a.engine)?;
            let tol = 2.0 * step + 2.0 * cfg.bin_width();
            let mut recovered = 0usize;
            let mut worst: f64 = 0.0;
            for s in &truth.scatterers {
                if let Some(p) = report.image.pixel_peak_depth(s.row, s.col, &cfg) {
                    let err = (p - s.depth).abs();
                    if err <= tol {
                        recovered += 1;
                        worst = worst.max(err);
                    }
                }
            }
            writeln!(out, "{}", report.summary())?;
            writeln!(
                out,
                "validation: {recovered}/{} scatterers recovered within ±{tol:.1} µm \
                 (worst accepted error {worst:.1} µm)",
                truth.len()
            )?;
            Ok(())
        }
        Command::Batch { dir, args } => {
            let cfg = recon_config(args);
            let pipeline = recon_pipeline(args);
            let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "mh5"))
                .collect();
            paths.sort();
            if paths.is_empty() {
                writeln!(out, "no .mh5 files in {dir}")?;
                return Ok(());
            }
            writeln!(
                out,
                "{:<32} {:>14} {:>12} {:>12} {:>9}",
                "file", "stack", "total (ms)", "xfer (ms)", "active"
            )?;
            let mut failures = 0usize;
            for path in &paths {
                let name = path
                    .file_name()
                    .map(|n| n.to_string_lossy().to_string())
                    .unwrap_or_default();
                match pipeline.run_scan_file(path, &cfg, args.engine) {
                    Ok(r) => {
                        let (p, m, n) = r.dims;
                        writeln!(
                            out,
                            "{name:<32} {:>14} {:>12.3} {:>12.3} {:>8.1}%",
                            format!("{p}×{m}×{n}"),
                            r.total_time_s * 1e3,
                            r.comm_time_s * 1e3,
                            100.0 * r.stats.active_fraction(),
                        )?;
                    }
                    Err(e) => {
                        failures += 1;
                        writeln!(out, "{name:<32} ERROR: {e}")?;
                    }
                }
            }
            writeln!(out, "{} file(s), {failures} failure(s)", paths.len())?;
            if failures > 0 {
                return Err(PipelineError::BatchFailed {
                    failed: failures,
                    files: paths.len(),
                });
            }
            Ok(())
        }
        Command::Inspect { path } => {
            let reader = mh5::FileReader::open(path)?;
            write!(out, "{}", mh5::tools::dump_tree(&reader)?)?;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn engine_names_parse() {
        assert_eq!(parse_engine("cpu").unwrap(), Engine::Cpu { threads: 1 });
        assert_eq!(parse_engine("cpu-seq").unwrap(), Engine::Cpu { threads: 1 });
        assert_eq!(
            parse_engine("cpu-threaded:4").unwrap(),
            Engine::Cpu { threads: 4 }
        );
        // 0 is "one thread per available core", resolved inside the
        // pipeline so the report and journal see the real count.
        assert_eq!(
            parse_engine("cpu-threaded:0").unwrap(),
            Engine::Cpu { threads: 0 }
        );
        // One thread is the sequential engine under either name.
        assert_eq!(parse_engine("cpu-threaded:1"), parse_engine("cpu"));
        assert_eq!(
            parse_engine("gpu").unwrap(),
            Engine::Gpu {
                layout: Layout::Flat1d
            }
        );
        assert_eq!(
            parse_engine("gpu-3d").unwrap(),
            Engine::Gpu {
                layout: Layout::Pointer3d
            }
        );
        assert_eq!(parse_engine("gpu-tables").unwrap(), Engine::GpuTables);
        assert_eq!(parse_engine("gpu-pipe").unwrap(), Engine::GpuPipelined);
        assert!(parse_engine("tpu").is_err());
        assert!(
            parse_engine("gpu-overlap").is_err(),
            "superseded by gpu-pipe"
        );
        assert!(parse_engine("cpu-threaded:x").is_err());
    }

    #[test]
    fn cluster_engine_names_parse() {
        assert_eq!(
            parse_engine("gpu-cluster:3").unwrap(),
            Engine::GpuCluster {
                nodes: 3,
                devices_per_node: 1
            }
        );
        assert_eq!(
            parse_engine("gpu-cluster:4x2").unwrap(),
            Engine::GpuCluster {
                nodes: 4,
                devices_per_node: 2
            }
        );
        assert!(parse_engine("gpu-cluster:0").is_err());
        assert!(parse_engine("gpu-cluster:2x0").is_err());
        assert!(parse_engine("gpu-cluster:").is_err());
        assert!(parse_engine("gpu-cluster:2xtwo").is_err());
    }

    #[test]
    fn cluster_flags_parse() {
        let cmd = parse(&sv(&[
            "reconstruct",
            "--input",
            "scan.mh5",
            "--engine",
            "gpu-cluster:4x2",
            "--reduction",
            "ring",
            "--overlap",
            "off",
            "--interconnect",
            "nvlink",
        ]))
        .unwrap();
        let Command::Reconstruct(a) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(
            a.engine,
            Engine::GpuCluster {
                nodes: 4,
                devices_per_node: 2
            }
        );
        assert_eq!(a.pins.topology, Some(ReductionTopology::Ring));
        assert_eq!(a.pins.overlap, Some(false));
        assert_eq!(a.interconnect.name, "nvlink");

        // Absent flags: auto topology/overlap over the default fabric.
        let cmd = parse(&sv(&["reconstruct", "--input", "scan.mh5"])).unwrap();
        let Command::Reconstruct(a) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(a.pins.topology, None);
        assert_eq!(a.pins.overlap, None);
        assert_eq!(a.interconnect, InterconnectProps::ib_qdr());

        // "auto" is the explicit spelling of the default.
        let cmd = parse(&sv(&[
            "reconstruct",
            "--input",
            "scan.mh5",
            "--reduction",
            "auto",
            "--overlap",
            "auto",
        ]))
        .unwrap();
        let Command::Reconstruct(a) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(a.pins.topology, None);
        assert_eq!(a.pins.overlap, None);

        // Bad values are parse errors that name the flag.
        assert!(
            parse(&sv(&["reconstruct", "--input", "x", "--reduction", "star"]))
                .unwrap_err()
                .contains("--reduction")
        );
        assert!(
            parse(&sv(&["reconstruct", "--input", "x", "--overlap", "maybe"]))
                .unwrap_err()
                .contains("--overlap")
        );
        assert!(parse(&sv(&[
            "reconstruct",
            "--input",
            "x",
            "--interconnect",
            "ethernet"
        ]))
        .unwrap_err()
        .contains("--interconnect"));
    }

    #[test]
    fn pipeline_flags_parse() {
        let cmd = parse(&sv(&[
            "reconstruct",
            "--input",
            "scan.mh5",
            "--engine",
            "gpu-pipe",
            "--pipeline-depth",
            "4",
            "--table-cache-mb",
            "64",
        ]))
        .unwrap();
        let Command::Reconstruct(a) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(a.engine, Engine::GpuPipelined);
        assert_eq!(a.pins.depth, Some(PipelineDepth(4)));
        assert_eq!(a.table_cache_mb, Some(64));
        // The ring depth pins the pipeline's plans, not the config.
        assert_eq!(recon_pipeline(&a).pins.depth, Some(PipelineDepth(4)));

        // Absent flags keep the deterministic defaults.
        let cmd = parse(&sv(&["reconstruct", "--input", "scan.mh5"])).unwrap();
        let Command::Reconstruct(a) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(a.pins.depth, None);
        assert_eq!(a.table_cache_mb, None);
        assert!(parse(&sv(&[
            "reconstruct",
            "--input",
            "x",
            "--pipeline-depth",
            "deep"
        ]))
        .unwrap_err()
        .contains("pipeline-depth"));
    }

    #[test]
    fn compaction_flag_parses() {
        for (spec, mode) in [
            ("off", CompactionMode::Off),
            ("auto", CompactionMode::Auto),
            ("on", CompactionMode::On),
        ] {
            let cmd = parse(&sv(&[
                "reconstruct",
                "--input",
                "scan.mh5",
                "--compaction",
                spec,
            ]))
            .unwrap();
            let Command::Reconstruct(a) = cmd else {
                panic!("wrong command")
            };
            assert_eq!(a.compaction, mode);
            assert_eq!(recon_config(&a).compaction, mode);
        }

        // Default stays dense; bad values are parse errors.
        let cmd = parse(&sv(&["validate", "--input", "scan.mh5"])).unwrap();
        let Command::Validate(a) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(a.compaction, CompactionMode::Off);
        assert!(parse(&sv(&[
            "reconstruct",
            "--input",
            "x",
            "--compaction",
            "dense"
        ]))
        .unwrap_err()
        .contains("--compaction"));
    }

    #[test]
    fn accumulation_flag_parses() {
        for (spec, mode) in [
            ("atomic", AccumulationMode::Atomic),
            ("privatized", AccumulationMode::Privatized),
            ("auto", AccumulationMode::Auto),
        ] {
            let cmd = parse(&sv(&[
                "reconstruct",
                "--input",
                "scan.mh5",
                "--accumulation",
                spec,
            ]))
            .unwrap();
            let Command::Reconstruct(a) = cmd else {
                panic!("wrong command")
            };
            assert_eq!(a.accumulation, mode);
            assert_eq!(recon_config(&a).accumulation, mode);
        }

        // Default stays atomic; bad values are parse errors.
        let cmd = parse(&sv(&["validate", "--input", "scan.mh5"])).unwrap();
        let Command::Validate(a) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(a.accumulation, AccumulationMode::Atomic);
        assert!(parse(&sv(&[
            "reconstruct",
            "--input",
            "x",
            "--accumulation",
            "shared"
        ]))
        .unwrap_err()
        .contains("--accumulation"));
    }

    #[test]
    fn plan_flag_parses() {
        for (spec, mode) in [("fixed", PlanMode::Fixed), ("auto", PlanMode::Auto)] {
            let cmd = parse(&sv(&["reconstruct", "--input", "scan.mh5", "--plan", spec])).unwrap();
            let Command::Reconstruct(a) = cmd else {
                panic!("wrong command")
            };
            assert_eq!(a.plan, mode);
            assert_eq!(recon_config(&a).plan, mode);
        }

        // Default stays fixed; bad values are parse errors.
        let cmd = parse(&sv(&["validate", "--input", "scan.mh5"])).unwrap();
        let Command::Validate(a) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(a.plan, PlanMode::Fixed);
        assert!(
            parse(&sv(&["reconstruct", "--input", "x", "--plan", "best"]))
                .unwrap_err()
                .contains("--plan")
        );
    }

    #[test]
    fn integrity_flags_parse() {
        for (spec, mode) in [
            ("off", IntegrityMode::Off),
            ("verify", IntegrityMode::Verify),
            ("scrub", IntegrityMode::Scrub),
        ] {
            let cmd = parse(&sv(&[
                "reconstruct",
                "--input",
                "scan.mh5",
                "--integrity",
                spec,
            ]))
            .unwrap();
            let Command::Reconstruct(a) = cmd else {
                panic!("wrong command")
            };
            assert_eq!(a.integrity, mode);
            assert_eq!(recon_config(&a).integrity, mode);
        }

        // Default: off.
        let cmd = parse(&sv(&["reconstruct", "--input", "scan.mh5"])).unwrap();
        let Command::Reconstruct(a) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(a.integrity, IntegrityMode::Off);
        assert!(parse(&sv(&[
            "reconstruct",
            "--input",
            "x",
            "--integrity",
            "paranoid"
        ]))
        .unwrap_err()
        .contains("--integrity"));

        // Silent-corruption fault keys round-trip into the plan.
        let plan = parse_fault_plan(
            "seed=9,flip-h2d-nth=2,flip-d2h-nth=3,flip-byte=17,\
             flip-kernel-nth=1,flip-op=5,stall-nth=2,stall-s=0.5",
        )
        .unwrap();
        assert_eq!(plan.flip_h2d_nth, Some(2));
        assert_eq!(plan.flip_d2h_nth, Some(3));
        assert_eq!(plan.flip_byte, 17);
        assert_eq!(plan.flip_kernel_nth, Some(1));
        assert_eq!(plan.flip_op, 5);
        assert_eq!(plan.stuck_kernel_nth, Some(2));
        assert_eq!(plan.stall_s, 0.5);
        assert!(plan.is_active());
        let plan = parse_fault_plan("flip-kernel-from=2,flip-op=3").unwrap();
        assert_eq!(plan.flip_kernel_from, Some(2));
        assert_eq!(plan.flip_kernel_nth, None);
        assert_eq!(plan.flip_op, 3);
        assert!(parse_fault_plan("stall-nth=2")
            .unwrap_err()
            .contains("stall-s"));
        assert!(parse_fault_plan("stall-nth=2,stall-s=-1")
            .unwrap_err()
            .contains("positive"));
    }

    #[test]
    fn generate_parses_with_defaults() {
        let cmd = parse(&sv(&[
            "generate", "--out", "x.mh5", "--rows", "8", "--seed", "9",
        ]))
        .unwrap();
        let Command::Generate(a) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(a.out, "x.mh5");
        assert_eq!(a.rows, 8);
        assert_eq!(a.cols, 32, "default");
        assert_eq!(a.seed, 9);
    }

    #[test]
    fn reconstruct_parses() {
        let cmd = parse(&sv(&[
            "reconstruct",
            "--input",
            "scan.mh5",
            "--engine",
            "gpu-3d",
            "--bins",
            "128",
            "--rows-per-slab",
            "2",
        ]))
        .unwrap();
        let Command::Reconstruct(a) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(a.input, "scan.mh5");
        assert_eq!(
            a.engine,
            Engine::Gpu {
                layout: Layout::Pointer3d
            }
        );
        assert_eq!(a.bins, 128);
        assert_eq!(a.pins.rows, Some(2));
        // So do the slab rows.
        assert_eq!(recon_pipeline(&a).pins.rows, Some(2));
        assert_eq!(a.cutoff, 0.0);
    }

    #[test]
    fn gpu_failure_flags_parse() {
        let cmd = parse(&sv(&[
            "reconstruct",
            "--input",
            "scan.mh5",
            "--on-gpu-failure",
            "fallback-cpu",
            "--inject-gpu-fault",
            "seed=7,alloc-nth=1,h2d-prob=0.25,free-mem=1048576,dead-after=40",
        ]))
        .unwrap();
        let Command::Reconstruct(a) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(a.on_gpu_failure, GpuFailurePolicy::FallbackCpu);
        let plan = a.inject_fault.unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.fail_alloc_nth, Some(1));
        assert_eq!(plan.h2d_fail_prob, 0.25);
        assert_eq!(plan.report_mem, Some(1 << 20));
        assert_eq!(plan.fail_after_ops, Some(40));
        assert!(plan.is_active());

        // Defaults: abort, no injection.
        let cmd = parse(&sv(&["reconstruct", "--input", "scan.mh5"])).unwrap();
        let Command::Reconstruct(a) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(a.on_gpu_failure, GpuFailurePolicy::Abort);
        assert_eq!(a.inject_fault, None);

        // Bad values are parse errors, not panics.
        assert!(parse_gpu_failure_policy("explode")
            .unwrap_err()
            .contains("abort"));
        assert!(parse_fault_plan("alloc-nth")
            .unwrap_err()
            .contains("key=value"));
        assert!(parse_fault_plan("h2d-prob=1.5")
            .unwrap_err()
            .contains("[0, 1]"));
        assert!(parse_fault_plan("alloc-nth=x")
            .unwrap_err()
            .contains("alloc-nth"));
        assert!(parse_fault_plan("warp-core=1")
            .unwrap_err()
            .contains("warp-core"));
    }

    #[test]
    fn errors_are_helpful() {
        assert!(parse(&sv(&["generate"])).unwrap_err().contains("--out"));
        assert!(parse(&sv(&["reconstruct"]))
            .unwrap_err()
            .contains("--input"));
        assert!(parse(&sv(&["reconstruct", "--input"]))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&sv(&["frobnicate"]))
            .unwrap_err()
            .contains("unknown command"));
        assert!(parse(&sv(&["generate", "--out", "x", "--bogus", "1"]))
            .unwrap_err()
            .contains("--bogus"));
        assert!(parse(&sv(&["generate", "--out", "a", "--out", "b"]))
            .unwrap_err()
            .contains("twice"));
        assert!(parse(&sv(&["inspect"])).is_err());
        assert!(parse(&sv(&["inspect", "a", "b"])).is_err());
    }

    #[test]
    fn help_paths() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&sv(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse(&sv(&["--help"])).unwrap(), Command::Help);
        let mut buf = Vec::new();
        run(&Command::Help, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("USAGE"));
    }

    #[test]
    fn generate_reconstruct_validate_inspect_round_trip() {
        let dir = std::env::temp_dir();
        let scan = dir.join(format!("cli_scan_{}.mh5", std::process::id()));
        let recon = dir.join(format!("cli_recon_{}.mh5", std::process::id()));
        let scan_s = scan.to_string_lossy().to_string();
        let recon_s = recon.to_string_lossy().to_string();

        let mut buf = Vec::new();
        let cmd = parse(&sv(&[
            "generate",
            "--out",
            &scan_s,
            "--rows",
            "8",
            "--cols",
            "8",
            "--steps",
            "12",
            "--scatterers",
            "4",
            "--seed",
            "5",
        ]))
        .unwrap();
        run(&cmd, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("wrote"));

        let mut buf = Vec::new();
        let cmd = parse(&sv(&[
            "reconstruct",
            "--input",
            &scan_s,
            "--out",
            &recon_s,
            "--engine",
            "gpu-1d",
            "--depth-start",
            "-1500",
            "--depth-end",
            "1500",
            "--bins",
            "300",
        ]))
        .unwrap();
        run(&cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("gpu-1d"), "{text}");
        assert!(std::fs::metadata(&recon).is_ok());

        let mut buf = Vec::new();
        let cmd = parse(&sv(&[
            "validate",
            "--input",
            &scan_s,
            "--depth-start",
            "-1500",
            "--depth-end",
            "1500",
            "--bins",
            "300",
        ]))
        .unwrap();
        run(&cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("validation:"), "{text}");
        assert!(
            text.contains("4 scatterers") || text.contains("/4"),
            "{text}"
        );

        let mut buf = Vec::new();
        run(
            &Command::Inspect {
                path: scan_s.clone(),
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("/entry/images"), "{text}");

        std::fs::remove_file(&scan).ok();
        std::fs::remove_file(&recon).ok();
    }

    #[test]
    fn batch_reconstructs_a_directory() {
        let dir = std::env::temp_dir().join(format!("laue_batch_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dir_s = dir.to_string_lossy().to_string();
        for (i, seed) in [3u64, 4].iter().enumerate() {
            let scan_path = dir.join(format!("scan_{i}.mh5"));
            let cmd = parse(&sv(&[
                "generate",
                "--out",
                &scan_path.to_string_lossy(),
                "--rows",
                "6",
                "--cols",
                "6",
                "--steps",
                "10",
                "--scatterers",
                "3",
                "--seed",
                &seed.to_string(),
            ]))
            .unwrap();
            run(&cmd, &mut Vec::new()).unwrap();
        }
        // A decoy non-mh5 file is ignored; a corrupt mh5 is reported.
        std::fs::write(dir.join("notes.txt"), b"ignore me").unwrap();
        std::fs::write(dir.join("broken.mh5"), b"not a container").unwrap();

        let mut buf = Vec::new();
        let cmd = parse(&sv(&[
            "batch",
            "--dir",
            &dir_s,
            "--engine",
            "cpu",
            "--depth-start",
            "-1500",
            "--depth-end",
            "1500",
            "--bins",
            "100",
        ]))
        .unwrap();
        // A failed file fails the command (`laue` exits 1), after every
        // row and the summary line are printed.
        let err = run(&cmd, &mut buf).unwrap_err();
        assert_eq!(err.to_string(), "1 of 3 file(s) failed");
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("scan_0.mh5"), "{text}");
        assert!(text.contains("scan_1.mh5"), "{text}");
        assert!(text.contains("broken.mh5"), "{text}");
        assert!(text.contains("ERROR"), "{text}");
        assert!(text.ends_with("3 file(s), 1 failure(s)\n"), "{text}");
        assert!(!text.contains("notes.txt"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn roi_and_variance_flags_work_end_to_end() {
        let dir = std::env::temp_dir();
        let scan = dir.join(format!("cli_roi_{}.mh5", std::process::id()));
        let var = dir.join(format!("cli_var_{}.mh5", std::process::id()));
        let trace = dir.join(format!("cli_roi_trace_{}.json", std::process::id()));
        let scan_s = scan.to_string_lossy().to_string();
        let var_s = var.to_string_lossy().to_string();
        let trace_s = trace.to_string_lossy().to_string();

        let mut buf = Vec::new();
        let cmd = parse(&sv(&[
            "generate",
            "--out",
            &scan_s,
            "--rows",
            "10",
            "--cols",
            "10",
            "--steps",
            "12",
            "--scatterers",
            "5",
            "--seed",
            "8",
        ]))
        .unwrap();
        run(&cmd, &mut buf).unwrap();

        let mut buf = Vec::new();
        let cmd = parse(&sv(&[
            "reconstruct",
            "--input",
            &scan_s,
            "--roi",
            "2:3:4:5",
            "--variance",
            &var_s,
            "--depth-start",
            "-1500",
            "--depth-end",
            "1500",
            "--bins",
            "150",
            "--engine",
            "gpu-multi:2",
            "--rows-per-slab",
            "1",
            "--trace",
            &trace_s,
        ]))
        .unwrap();
        run(&cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("12×4×5"), "ROI dims in summary: {text}");
        assert!(text.contains("variance"), "{text}");
        // The variance file holds a 150×4×5 dataset.
        let f = mh5::FileReader::open(&var).unwrap();
        let ds = f.resolve_path("/reconstruction/depth_image").unwrap();
        assert_eq!(f.dataset_info(ds).unwrap().shape, vec![150, 4, 5]);
        // The trace is the run's own: both fleet devices, one kernel per
        // one-row slab of the 4-row ROI.
        let json = std::fs::read_to_string(&trace).unwrap();
        assert_eq!(json.matches("\"process_name\"").count(), 2, "{json}");
        assert_eq!(json.matches("\"name\":\"set_two\"").count(), 4, "{json}");

        // Bad ROI specs are parse errors.
        assert!(
            parse(&sv(&["reconstruct", "--input", "x", "--roi", "1:2:3"]))
                .unwrap_err()
                .contains("r0:c0:rows:cols")
        );
        assert!(
            parse(&sv(&["reconstruct", "--input", "x", "--roi", "a:2:3:4"]))
                .unwrap_err()
                .contains("bad --roi")
        );

        std::fs::remove_file(&scan).ok();
        std::fs::remove_file(&var).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn each_command_rejects_the_flags_it_would_ignore() {
        // Only reconstruct writes per-file outputs or crops to an ROI.
        for flag in ["--out", "--histogram", "--trace", "--variance", "--roi"] {
            for (cmd, scan) in [("validate", "--input"), ("batch", "--dir")] {
                let err = parse(&sv(&[cmd, scan, "x", flag, "v"])).unwrap_err();
                assert_eq!(err, format!("{cmd} takes no {flag}"));
            }
            assert!(parse(&sv(&["reconstruct", "--input", "x", flag, "0:0:1:1"])).is_ok());
        }
        // A batch reads a directory, never one input.
        assert!(parse(&sv(&["batch", "--dir", "d", "--input", "x"]))
            .unwrap_err()
            .contains("--input"));
        assert!(parse(&sv(&["batch"])).unwrap_err().contains("--dir"));
        assert!(parse(&sv(&["validate", "--dir", "d"]))
            .unwrap_err()
            .contains("--dir"));
    }

    #[test]
    fn batch_runs_the_production_configuration_like_reconstruct() {
        let dir = std::env::temp_dir().join(format!("laue_batch_prod_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dir_s = dir.to_string_lossy().to_string();
        let jdir = dir.join("journal").to_string_lossy().to_string();
        for seed in [3u64, 4] {
            let scan = dir.join(format!("scan_{seed}.mh5"));
            let cmd = parse(&sv(&[
                "generate",
                "--out",
                &scan.to_string_lossy(),
                "--rows",
                "8",
                "--cols",
                "8",
                "--steps",
                "12",
                "--seed",
                &seed.to_string(),
            ]))
            .unwrap();
            run(&cmd, &mut Vec::new()).unwrap();
        }
        let flags = [
            "--engine",
            "gpu-pipe",
            "--depth-start",
            "-500",
            "--depth-end",
            "500",
            "--bins",
            "100",
            "--plan",
            "auto",
            "--compaction",
            "auto",
            "--accumulation",
            "auto",
            "--integrity",
            "verify",
            "--journal-dir",
            &jdir,
        ];
        let mut batch = sv(&["batch", "--dir", &dir_s]);
        batch.extend(sv(&flags));
        let cmd = parse(&batch).unwrap();
        let Command::Batch { dir: parsed, args } = &cmd else {
            panic!("wrong command")
        };
        assert_eq!(parsed, &dir_s);
        assert_eq!(
            (
                args.plan,
                args.compaction,
                args.accumulation,
                args.integrity
            ),
            (
                PlanMode::Auto,
                CompactionMode::Auto,
                AccumulationMode::Auto,
                IntegrityMode::Verify
            )
        );
        let mut buf = Vec::new();
        run(&cmd, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("2 file(s), 0 failure(s)"), "{text}");

        // Each file's image is the one reconstruct exports under the same
        // flags.
        for seed in [3u64, 4] {
            let scan = dir
                .join(format!("scan_{seed}.mh5"))
                .to_string_lossy()
                .to_string();
            let out = dir.join(format!("recon_{seed}.mh5"));
            let mut recon = sv(&["reconstruct", "--input", &scan, "--out"]);
            recon.push(out.to_string_lossy().to_string());
            recon.extend(sv(&flags));
            run(&parse(&recon).unwrap(), &mut Vec::new()).unwrap();
            let f = mh5::FileReader::open(&out).unwrap();
            let ds = f.resolve_path("/reconstruction/depth_image").unwrap();
            let exported: Vec<f64> = f.read_all(ds).unwrap();
            let batched = recon_pipeline(args)
                .run_scan_file(&scan, &recon_config(args), args.engine)
                .unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&exported), bits(&batched.image.data), "seed {seed}");
            assert!(batched.plan.is_some(), "batch planned its run");
            assert!(batched.integrity.checks_run > 0, "batch verified its run");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_surfaces_io_errors() {
        let cmd = Command::Inspect {
            path: "/nonexistent/nope.mh5".into(),
        };
        let mut buf = Vec::new();
        assert!(run(&cmd, &mut buf).is_err());
    }
}
