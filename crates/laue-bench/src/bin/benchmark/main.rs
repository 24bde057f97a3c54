//! The disk-to-disk benchmark: four workloads over the whole
//! reconstruction stack, on the wall clock and the virtual clock, with
//! per-layer spans taken around the public calls the harness makes.
//!
//! ```text
//! benchmark --seed S [--seconds T] [--out results.json] [--chrome-trace trace.json]
//! benchmark --workload NAME --seed S [--seconds T] [--trace 0|1]
//!           [--out results.json] [--chrome-trace trace.json]
//! benchmark --compare A.json B.json
//! ```
//!
//! Without `--workload` every workload runs twice in a child process of
//! its own, one at a time: once untraced for the end-to-end metrics
//! (`--trace 0`) and once traced for the per-layer ones (`--trace 1`).
//! Each run prints one `metric workload value unit` line per metric and,
//! last, one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `BENCHMARK.json` at the repository root names the metrics, units,
//! directions and bounds; see `README.md` beside this file.

mod compare;
mod json;
mod scan;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::{obj, Json};
use spans::Span;

/// The benchmark's declared metrics, bounds and run length.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

const WORKLOADS: [&str; 4] = ["paper-dense", "production-sparse", "cluster-8", "serve-mix"];

/// Where runs keep their scan, export and journal files, relative to the
/// directory the benchmark runs in.
const WORK_DIR: &str = ".bench_work";

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// Repeats exactly for a seed: every per-layer metric but the wall
    /// times (unit `s`) and the harness's own overhead ratio. That leaves
    /// virtual-clock times and ratios, counts, and byte totals.
    pub fn is_exact(&self) -> bool {
        self.bound.is_none() && self.unit != "s" && !self.name.starts_with("benchmark.")
    }
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// The compiled-in `BENCHMARK.json`.
pub fn spec() -> Spec {
    let j = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let metrics = |key: &str| -> Vec<MetricSpec> {
        j.get(key)
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect("metric field");
                MetricSpec {
                    name: field("name").to_string(),
                    unit: field("unit").to_string(),
                    lower_is_better: field("better") == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                }
            })
            .collect()
    };
    Spec {
        run_seconds: j
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds"),
        workloads: j
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name").into())
            .collect(),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    }
}

/// Input sizes and repetition counts of a run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Detector counts in the scan stack, MB (`Workload::of_megabytes`).
    pub megabytes: f64,
    /// Jobs per serve trace.
    pub serve_jobs: usize,
    /// Serve traces per run, each from its own seed.
    pub traces: usize,
    /// Fresh instances timed for `setup_s`.
    pub setup_reps: usize,
    /// Fewest timed ops, however short `--seconds`.
    pub min_reps: usize,
}

impl Scale {
    /// The Fig 8 5.2 MB stack and 2000-job traces.
    pub const FULL: Scale = Scale {
        megabytes: 5.2,
        serve_jobs: 2000,
        traces: 16,
        setup_reps: 5,
        min_reps: 3,
    };
}

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub work: PathBuf,
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Samples per metric name; a metric's value is their median.
    pub metrics: BTreeMap<&'static str, Vec<f64>>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, samples: Vec<f64>) {
        self.metrics.insert(name, samples);
    }

    pub fn put1(&mut self, name: &'static str, value: f64) {
        self.put(name, vec![value]);
    }

    /// Count `n` failed ops, keeping the message.
    pub fn fail(&mut self, n: u64, message: String) {
        self.failed += n;
        if self.errors.len() < 20 {
            self.errors.push(message);
        }
    }
}

/// Run workload `name` in this process.
pub fn run_workload(name: &str, opts: &Opts) -> Result<Outcome, String> {
    match name {
        "paper-dense" => scan::run(scan::Scan::PaperDense, opts),
        "production-sparse" => scan::run(scan::Scan::ProductionSparse, opts),
        "cluster-8" => scan::run(scan::Scan::Cluster8, opts),
        "serve-mix" => serve::run(opts),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// A run's result: the contract line and the detailed record.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(spec, samples)` for every metric the run reports.
    metrics: Vec<(MetricSpec, Vec<f64>)>,
}

impl Report {
    /// Pick the metrics `trace` selects out of `o`. A per-layer metric the
    /// workload never exercises reads 0; a missing end-to-end metric makes
    /// the run incorrect.
    fn new(spec: &Spec, o: &Outcome, trace: bool) -> Report {
        let list = if trace {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let mut correct = o.failed == 0 && o.attempted > 0;
        let metrics = list
            .iter()
            .map(|m| {
                let samples = match o.metrics.get(m.name.as_str()) {
                    Some(s) if !s.is_empty() => s.clone(),
                    _ => {
                        if !trace {
                            correct = false;
                        }
                        vec![0.0]
                    }
                };
                correct &= samples.iter().all(|x| x.is_finite());
                (m.clone(), samples)
            })
            .collect();
        Report {
            correct,
            attempted: o.attempted.max(1),
            failed: o.failed,
            metrics,
        }
    }

    /// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`,
    /// the line the run ends with; `detailed` adds each metric's sample
    /// count and quartiles, for result files.
    fn to_json(&self, detailed: bool) -> Json {
        let metric = |(m, s): &(MetricSpec, Vec<f64>)| {
            let mut fields = vec![
                ("value", Json::Num(stats::median(s))),
                ("unit", Json::Str(m.unit.clone())),
            ];
            if detailed {
                let (q1, q3) = stats::quartiles(s);
                fields.push(("n", Json::Num(s.len() as f64)));
                fields.push(("q1", Json::Num(q1)));
                fields.push(("q3", Json::Num(q3)));
            }
            (m.name.clone(), obj(fields))
        };
        obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", obj(self.metrics.iter().map(metric))),
        ])
    }
}

/// Command-line options.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    chrome_trace: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str = "usage: benchmark --seed S [--workload NAME] [--seconds T] [--trace 0|1] \
                     [--out FILE] [--chrome-trace FILE]\n       benchmark --compare A.json B.json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => {
                a.seed = Some(value()?.parse().map_err(|_| "bad --seed".to_string())?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a finite number >= 0".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out" => a.out = Some(value()?.into()),
            "--chrome-trace" => a.chrome_trace = Some(value()?.into()),
            "--compare" => {
                let first = value()?;
                a.compare = Some((first.into(), value()?.into()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.compare.is_none() && a.seed.is_none() {
        return Err("--seed is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = spec();
    let result = match (&args.compare, &args.workload) {
        (Some((a, b)), _) => compare_files(&spec, a, b),
        (None, Some(w)) => one_workload(&spec, &args, w),
        (None, None) => all_workloads(&spec, &args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one workload here; `Ok(false)` when any output was wrong.
fn one_workload(spec: &Spec, args: &Args, name: &str) -> Result<bool, String> {
    let index = WORKLOADS.iter().position(|w| *w == name).ok_or_else(|| {
        format!(
            "unknown workload {name:?} (one of {})",
            WORKLOADS.join(", ")
        )
    })?;
    let work = Path::new(WORK_DIR).join(format!(
        "{name}-t{}-{}",
        u8::from(args.trace),
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let opts = Opts {
        seed: args.seed.expect("checked by parse_args"),
        seconds: args.seconds.unwrap_or(spec.run_seconds),
        trace: args.trace,
        scale: Scale::FULL,
        work: work.clone(),
    };
    let outcome = run_workload(name, &opts);
    std::fs::remove_dir_all(&work).ok();
    std::fs::remove_dir(WORK_DIR).ok();
    let outcome = outcome?;

    let report = Report::new(spec, &outcome, args.trace);
    println!(
        "# workload {name}, seed {}, trace {}, {} host core(s), simulated kernels sequential",
        opts.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for (m, s) in &report.metrics {
        let (q1, q3) = stats::quartiles(s);
        println!(
            "{} {name} {} {}  (n={}, q1={}, q3={})",
            m.name,
            json::num(stats::median(s)),
            m.unit,
            s.len(),
            json::num(q1),
            json::num(q3)
        );
    }
    if args.trace {
        print_layer_table(&outcome.spans);
    }
    for e in &outcome.errors {
        println!("# FAILED: {e}");
    }
    if let Some(path) = &args.out {
        let file = obj([
            ("seed", Json::Num(opts.seed as f64)),
            ("workloads", obj([(name.to_string(), report.to_json(true))])),
        ]);
        write_file(path, &format!("{file}\n"))?;
    }
    if let Some(path) = &args.chrome_trace {
        let events = spans::chrome_events(&outcome.spans, index + 1, name);
        write_file(path, &spans::chrome_trace(&events))?;
    }
    println!("{}", report.to_json(false));
    Ok(report.correct)
}

/// Self seconds per layer per traced op.
fn print_layer_table(spans: &[Span]) {
    let mut ops: Vec<u64> = spans.iter().map(|s| s.op).collect();
    ops.dedup();
    let n_ops = ops.len().max(1) as f64;
    let layers = spans::layer_self_times(spans);
    let total: f64 = layers.iter().map(|(_, t)| t).sum();
    println!("# layer self time per traced op ({} op(s))", ops.len());
    for (layer, t) in layers {
        println!(
            "#   {layer:<14} {:>10.6} s  {:>5.1} %",
            t / n_ops,
            if total > 0.0 { 100.0 * t / total } else { 0.0 }
        );
    }
}

/// Every workload, each in a child process of its own, one at a time.
fn all_workloads(spec: &Spec, args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let tmp = Path::new(WORK_DIR).join(format!("all-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let seed = args.seed.expect("checked by parse_args");
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let mut all_correct = true;
    let mut workloads: Vec<(String, Json)> = Vec::new();
    let mut events: Vec<Json> = Vec::new();
    for name in WORKLOADS {
        let mut merged: Option<Json> = None;
        for trace in ["0", "1"] {
            let out = tmp.join(format!("{name}-{trace}.json"));
            let chrome = tmp.join(format!("{name}-{trace}.trace.json"));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--trace", trace])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .arg("--out")
                .arg(&out);
            if trace == "1" && args.chrome_trace.is_some() {
                cmd.arg("--chrome-trace").arg(&chrome);
            }
            let child = cmd
                .output()
                .map_err(|e| format!("spawn {name} (trace {trace}): {e}"))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let lines: Vec<&str> = stdout.lines().collect();
            // Everything but the trailing contract line, which the merged
            // results replace.
            for line in &lines[..lines.len().saturating_sub(1)] {
                println!("{line}");
            }
            eprint!("{}", String::from_utf8_lossy(&child.stderr));
            if !child.status.success() {
                all_correct = false;
                println!("# {name} (trace {trace}) exited with {}", child.status);
            }
            let Ok(text) = std::fs::read_to_string(&out) else {
                all_correct = false;
                continue;
            };
            let result = Json::parse(&text)?
                .get("workloads")
                .and_then(|w| w.get(name))
                .cloned()
                .ok_or_else(|| format!("{} lacks workload {name}", out.display()))?;
            merged = Some(match merged {
                None => result,
                Some(prev) => merge(&prev, &result),
            });
            if let Ok(text) = std::fs::read_to_string(&chrome) {
                if let Some(ev) = Json::parse(&text)?
                    .get("traceEvents")
                    .and_then(Json::as_arr)
                {
                    events.extend(ev.iter().cloned());
                }
            }
        }
        if let Some(m) = merged {
            all_correct &= m.get("correct").and_then(Json::as_bool) == Some(true);
            workloads.push((name.to_string(), m));
        }
    }
    std::fs::remove_dir_all(&tmp).ok();
    std::fs::remove_dir(WORK_DIR).ok();

    let results = obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("workloads", Json::Obj(workloads)),
    ]);
    if let Some(path) = &args.out {
        write_file(path, &format!("{results}\n"))?;
    }
    if let Some(path) = &args.chrome_trace {
        write_file(
            path,
            &format!("{}\n", obj([("traceEvents", Json::Arr(events))])),
        )?;
    }
    println!(
        "# {}",
        if all_correct {
            "OK: every output matched its reference"
        } else {
            "FAILED: see the lines above"
        }
    );
    Ok(all_correct)
}

/// Union of two runs' records of one workload: metrics from both, op
/// counts summed, correct only if both were.
fn merge(a: &Json, b: &Json) -> Json {
    let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let ok = |j: &Json| j.get("correct").and_then(Json::as_bool) == Some(true);
    let mut metrics: Vec<(String, Json)> = Vec::new();
    for j in [a, b] {
        if let Some(ms) = j.get("metrics").and_then(Json::as_obj) {
            metrics.extend(ms.iter().cloned());
        }
    }
    obj([
        ("correct", Json::Bool(ok(a) && ok(b))),
        (
            "attempted",
            Json::Num(num(a, "attempted") + num(b, "attempted")),
        ),
        ("failed", Json::Num(num(a, "failed") + num(b, "failed"))),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn compare_files(spec: &Spec, a: &Path, b: &Path) -> Result<bool, String> {
    let read = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let rows = compare::compare(spec, &read(a)?, &read(b)?)?;
    let mut regressed = false;
    for r in &rows {
        regressed |= r.verdict == compare::Verdict::Regressed;
        println!(
            "{:<10} {} {} A={} [{}, {}] B={} [{}, {}] {} bound={}",
            r.verdict.label(),
            r.metric.name,
            r.workload,
            json::num(r.a.value),
            json::num(r.a.q1),
            json::num(r.a.q3),
            json::num(r.b.value),
            json::num(r.b.q1),
            json::num(r.b.q3),
            r.metric.unit,
            if r.metric.is_exact() {
                "exact".to_string()
            } else {
                json::num(r.metric.bound.unwrap_or(0.0))
            },
        );
    }
    if rows.is_empty() {
        return Err("the two files share no (metric, workload) pair".into());
    }
    Ok(!regressed)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: Scale = Scale {
        megabytes: 0.2,
        serve_jobs: 48,
        traces: 1,
        setup_reps: 2,
        min_reps: 2,
    };

    fn smoke(name: &str, trace: bool) -> Outcome {
        let work = std::env::temp_dir().join(format!(
            "benchmark-smoke-{name}-{}-{}",
            u8::from(trace),
            std::process::id()
        ));
        std::fs::create_dir_all(&work).unwrap();
        let opts = Opts {
            seed: 3,
            seconds: 0.0,
            trace,
            scale: SMOKE,
            work: work.clone(),
        };
        let o = run_workload(name, &opts).unwrap();
        std::fs::remove_dir_all(&work).unwrap();
        assert_eq!(o.failed, 0, "{name}: {:?}", o.errors);
        o
    }

    #[test]
    fn spec_lists_the_workloads_this_binary_runs() {
        let spec = spec();
        assert_eq!(spec.workloads, WORKLOADS);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn every_workload_reports_every_metric_correctly_at_smoke_scale() {
        let spec = spec();
        let mut layer_seen: Vec<&str> = Vec::new();
        for name in WORKLOADS {
            let e2e = smoke(name, false);
            let report = Report::new(&spec, &e2e, false);
            assert!(report.correct, "{name}");
            for (m, s) in &report.metrics {
                assert!(stats::median(s) > 0.0, "{name}: {} reads 0", m.name);
            }
            assert_eq!(
                e2e.metrics.get("wall_s").map(Vec::len),
                Some(SMOKE.min_reps),
                "{name}"
            );

            let traced = smoke(name, true);
            assert!(Report::new(&spec, &traced, true).correct, "{name}");
            for key in traced.metrics.keys() {
                assert!(
                    spec.per_layer.iter().any(|m| m.name == *key),
                    "{name} reports {key}, which BENCHMARK.json does not declare"
                );
                layer_seen.push(key);
            }
            assert!(!traced.spans.is_empty(), "{name} recorded no spans");
        }
        for m in &spec.per_layer {
            assert!(
                layer_seen.contains(&m.name.as_str()),
                "no workload reports {}",
                m.name
            );
        }
    }

    #[test]
    fn a_flipped_bit_in_the_reference_is_caught() {
        let work = std::env::temp_dir().join(format!("benchmark-flip-{}", std::process::id()));
        std::fs::create_dir_all(&work).unwrap();
        let w = laue_bench::Workload::of_megabytes(0.05, 9);
        let scan = work.join("scan.mh5");
        let g = &w.scan;
        laue_wire::write_scan(&scan, &g.geometry, &g.images, Some(&g.truth), 8).unwrap();
        let cfg = laue_bench::standard_config();
        let (mut reference, _, _) = scan::reference(&scan, &cfg).unwrap();
        let report = laue_pipeline::Pipeline::default()
            .run_scan_file(&scan, &cfg, laue_pipeline::Engine::GpuPipelined)
            .unwrap();
        let out = work.join("depth.mh5");
        laue_pipeline::export::write_mh5(&out, &report, &cfg).unwrap();
        assert_eq!(scan::check_export(&out, &reference.image), Ok(()));
        let i = reference.image.iter().position(|&v| v != 0.0).unwrap();
        reference.image[i] = f64::from_bits(reference.image[i].to_bits() ^ 1);
        let err = scan::check_export(&out, &reference.image).unwrap_err();
        assert!(err.contains(&format!("cell {i} differs")), "{err}");
        std::fs::remove_dir_all(&work).unwrap();
    }

    #[test]
    fn arguments_parse_as_documented() {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let a = parse_args(&argv(
            "--workload cluster-8 --seed 4 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("cluster-8"), Some(4), Some(10.0), true)
        );
        assert!(parse_args(&argv("--seed 4 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload cluster-8")).is_err());
        assert!(parse_args(&argv("--compare a.json b.json")).is_ok());
    }
}
