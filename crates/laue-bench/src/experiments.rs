//! EXPERIMENTS.md's measured tables, rendered from the BENCH files.
//!
//! Each measured table in EXPERIMENTS.md sits in a fenced block right
//! under a `<!-- table: ID -->` marker. [`tables`] renders every such
//! table from `BENCH_pipeline.json`, `BENCH_scaling.json` and
//! `BENCH_serve.json`, and [`check`] fails naming each table whose block
//! differs from its rendering, so a stale table fails CI (the tests below
//! read the repository's files; CI runs them again after regenerating
//! `BENCH_pipeline.json` at full scale).

use crate::json::Json;
use Col::*;

/// `rows` under `headers`, every column right-aligned to its widest
/// cell, two spaces apart.
fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| {
        let cells: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, &w)| format!("{c:>w$}"))
            .collect();
        cells.join("  ")
    };
    let mut lines = vec![line(headers.to_vec())];
    lines.extend(
        rows.iter()
            .map(|r| line(r.iter().map(String::as_str).collect())),
    );
    lines.join("\n")
}

/// How a column shows the field at a dotted path of its row.
#[derive(Clone, Copy)]
enum Col {
    /// A string.
    Text(&'static str),
    /// A number with this many decimals.
    Fixed(&'static str, usize),
    /// Seconds, shown in milliseconds.
    Ms(&'static str),
    /// Seconds, shown in microseconds.
    Us(&'static str),
    /// A fraction, shown as a percentage with this many decimals.
    Pct(&'static str, usize),
    /// A ratio, shown as `N.NN×`.
    Times(&'static str),
    /// Bytes, shown in MiB.
    Mib(&'static str),
    /// A square detector's side, shown as `N×N`.
    Square(&'static str),
    /// The first column with the second in parentheses.
    Paren(&'static Col, &'static Col),
    /// The column, or `-` where the row has no such field.
    Opt(&'static Col),
    /// A slab height, `auto(N)` where the `auto` field is true.
    SlabRows(&'static str),
}

/// The value at a dotted `path` below `v`.
fn at<'a>(v: &'a Json, path: &str) -> Result<&'a Json, String> {
    path.split('.').try_fold(v, |v, key| {
        v.get(key).ok_or_else(|| format!("no field {path:?}"))
    })
}

fn num(v: &Json, path: &str) -> Result<f64, String> {
    at(v, path)?
        .as_f64()
        .ok_or_else(|| format!("field {path:?} is not a number"))
}

impl Col {
    fn path(&self) -> &'static str {
        match *self {
            Text(p) | Fixed(p, _) | Ms(p) | Us(p) | Pct(p, _) | Times(p) | Mib(p) => p,
            Square(p) | SlabRows(p) => p,
            Paren(c, _) | Opt(c) => c.path(),
        }
    }

    fn cell(&self, r: &Json) -> Result<String, String> {
        Ok(match *self {
            Text(p) => at(r, p)?
                .as_str()
                .ok_or_else(|| format!("field {p:?} is not a string"))?
                .to_string(),
            Fixed(p, digits) => format!("{:.digits$}", num(r, p)?),
            Ms(p) => format!("{:.3}", num(r, p)? * 1e3),
            Us(p) => format!("{:.0}", num(r, p)? * 1e6),
            Pct(p, digits) => format!("{:.digits$} %", 100.0 * num(r, p)?),
            Times(p) => format!("{:.2}×", num(r, p)?),
            Mib(p) => format!("{:.1} MiB", num(r, p)? / (1024.0 * 1024.0)),
            Square(p) => format!("{0:.0}×{0:.0}", num(r, p)?),
            Paren(a, b) => format!("{} ({})", a.cell(r)?, b.cell(r)?),
            Opt(c) if at(r, c.path()).is_err() => "-".into(),
            Opt(c) => c.cell(r)?,
            SlabRows(p) => match at(r, "auto")?.as_bool() {
                Some(true) => format!("auto({:.0})", num(r, p)?),
                _ => format!("{:.0}", num(r, p)?),
            },
        })
    }
}

/// A table's `(header, column)` pairs.
type Columns = &'static [(&'static str, Col)];

/// One table: a row per element of `rows`, a column per `(header, col)`.
fn table(rows: &[Json], cols: &[(&str, Col)]) -> Result<String, String> {
    let cells = rows
        .iter()
        .map(|r| cols.iter().map(|(_, c)| c.cell(r)).collect())
        .collect::<Result<Vec<_>, _>>()?;
    let headers: Vec<&str> = cols.iter().map(|(h, _)| *h).collect();
    Ok(format_table(&headers, &cells))
}

/// The list at `path` of `report`.
fn list<'a>(report: &'a Json, path: &str) -> Result<&'a [Json], String> {
    at(report, path)?
        .as_arr()
        .ok_or_else(|| format!("field {path:?} is not a list"))
}

/// Parse one BENCH file, refusing a `--quick` one: the docs quote full
/// scale.
fn full_report(name: &str, json: &str) -> Result<Json, String> {
    let report = Json::parse(json).map_err(|e| format!("{name}: {e}"))?;
    match report.get("quick").and_then(Json::as_bool) {
        Some(false) => Ok(report),
        _ => Err(format!(
            "{name} is not a full-scale report; regenerate it without --quick"
        )),
    }
}

/// Every measured table of EXPERIMENTS.md as `(id, text)`, rendered from
/// the three BENCH files' contents.
pub fn tables(
    pipeline: &str,
    scaling: &str,
    serve: &str,
) -> Result<Vec<(&'static str, String)>, String> {
    let p = full_report("BENCH_pipeline.json", pipeline)?;
    let sc = full_report("BENCH_scaling.json", scaling)?;
    let sv = full_report("BENCH_serve.json", serve)?;
    let lists: [(&str, &Json, &str, Columns); 14] = [
        (
            "E1",
            &p,
            "layout",
            &[
                ("layout", Text("engine")),
                ("total (ms)", Ms("total_s")),
                ("compute (ms)", Ms("compute_s")),
                ("transfer (ms)", Ms("comm_s")),
                ("transfers", Fixed("transfers", 0)),
                ("slabs", Fixed("n_slabs", 0)),
            ],
        ),
        (
            "E2",
            &p,
            "datasize",
            &[
                ("dataset", Text("label")),
                ("detector", Square("side")),
                ("CPU (ms)", Ms("cpu_seq.total_s")),
                ("GPU (ms)", Ms("gpu_serial.total_s")),
                ("GPU xfer (ms)", Ms("gpu_serial.comm_s")),
                ("GPU kern (ms)", Ms("gpu_serial.compute_s")),
                ("GPU/CPU", Pct("gpu_over_cpu", 1)),
            ],
        ),
        (
            "E3",
            &p,
            "pixel_percentage",
            &[
                ("target", Pct("target_fraction", 0)),
                ("active pairs", Pct("active_fraction", 1)),
                ("cutoff", Fixed("cutoff", 2)),
                ("CPU (ms)", Ms("cpu_total_s")),
                ("GPU (ms)", Ms("gpu_total_s")),
                ("GPU-compact (ms)", Ms("compact_total_s")),
                ("GPU/CPU", Pct("gpu_over_cpu", 1)),
                ("compact/dense kernel", Pct("compact_over_dense_kernel", 1)),
            ],
        ),
        (
            "A1",
            &p,
            "slab_size",
            &[
                ("rows/slab", SlabRows("rows_per_slab")),
                ("slabs", Fixed("n_slabs", 0)),
                ("total (ms)", Ms("total_s")),
                ("transfer (ms)", Ms("comm_s")),
                ("transfers", Fixed("transfers", 0)),
                ("peak dev mem", Mib("peak_device_bytes")),
            ],
        ),
        (
            "A2",
            &p,
            "atomics",
            &[
                ("variant", Text("variant")),
                ("kernel time (ms)", Ms("kernel_s")),
                ("atomic ops", Fixed("atomic_ops", 0)),
                ("deposits", Fixed("deposits", 0)),
            ],
        ),
        (
            "A3",
            &p,
            "depth_ablation",
            &[
                ("ring k", Fixed("requested_depth", 0)),
                ("used", Fixed("ring_depth", 0)),
                ("slabs", Fixed("n_slabs", 0)),
                ("xfer (ms)", Ms("comm_s")),
                ("kernel (ms)", Ms("compute_s")),
                ("elapsed (ms)", Ms("total_s")),
                ("saved", Pct("saved_frac", 1)),
            ],
        ),
        (
            "A4",
            &p,
            "depth_table",
            &[
                ("dataset", Text("dataset")),
                ("triangulation", Text("triangulation")),
                ("total (ms)", Ms("total_s")),
                ("kernel (ms)", Ms("compute_s")),
                ("transfer (ms)", Ms("comm_s")),
                ("host prep (ms)", Ms("host_prep_s")),
            ],
        ),
        (
            "A5",
            &p,
            "hardware",
            &[
                ("machine", Text("machine")),
                ("total (ms)", Ms("total_s")),
                ("transfer (ms)", Opt(&Ms("comm_s"))),
                ("kernel (ms)", Opt(&Ms("compute_s"))),
                (
                    "kernel priv (ms)",
                    Opt(&Paren(
                        &Ms("privatized_compute_s"),
                        &Pct("privatized_over_atomic", 0),
                    )),
                ),
                ("vs CPU", Pct("over_cpu", 1)),
            ],
        ),
        (
            "A5-accumulation",
            &p,
            "hardware_accumulation",
            &[
                ("machine", Text("machine")),
                ("kernel (ms)", Ms("atomic_compute_s")),
                ("kernel priv (ms)", Ms("privatized_compute_s")),
                ("priv/atomic", Pct("privatized_over_atomic", 0)),
            ],
        ),
        (
            "A6",
            &p,
            "multi_gpu",
            &[
                ("devices", Fixed("devices", 0)),
                ("private links (ms)", Ms("private_total_s")),
                ("shared bus (ms)", Ms("shared_total_s")),
                ("bus stall (ms)", Ms("bus_wait_s")),
                ("speedup", Times("speedup")),
                ("efficiency", Pct("efficiency", 1)),
                ("vs 1-core CPU", Pct("over_cpu", 1)),
            ],
        ),
        (
            "A7",
            &p,
            "fullscale",
            &[
                ("dataset", Text("dataset")),
                ("detector", Square("side")),
                ("CPU (s)", Fixed("cpu_s", 1)),
                ("GPU (s)", Fixed("gpu_s", 1)),
                ("GPU xfer (s)", Fixed("gpu_comm_s", 1)),
                ("GPU/CPU", Pct("gpu_over_cpu", 1)),
            ],
        ),
        (
            "A9",
            &p,
            "planner_sweep",
            &[
                ("machine", Text("machine")),
                ("stack", Text("stack")),
                ("auto chose", Text("chosen")),
                ("predicted (ms)", Ms("predicted_s")),
                ("measured (ms)", Ms("measured_s")),
                ("error", Pct("prediction_error", 1)),
                (
                    "best fixed (ms)",
                    Paren(&Ms("best_fixed_total_s"), &Text("best_fixed")),
                ),
                ("auto/best", Fixed("auto_over_best", 3)),
            ],
        ),
        (
            "A10-strong",
            &sc,
            "strong_scaling",
            &[
                ("nodes", Fixed("nodes", 0)),
                ("total (ms)", Ms("total_s")),
                ("compute (ms)", Ms("compute_s")),
                ("reduction exposed (ms)", Ms("reduction_exposed_s")),
                ("efficiency", Fixed("efficiency", 3)),
            ],
        ),
        (
            "A10-fabrics",
            &sc,
            "fabrics",
            &[
                ("fabric", Text("fabric")),
                ("GB/s", Fixed("bandwidth_gb_s", 3)),
                ("lat (µs)", Fixed("latency_us", 2)),
                ("total (ms)", Ms("total_s")),
                ("exposed (ms)", Ms("reduction_exposed_s")),
                ("fabric wait (ms)", Ms("net_wait_s")),
            ],
        ),
    ];
    let mut out = Vec::new();
    for (id, report, path, cols) in lists {
        out.push((id, table(list(report, path)?, cols)?));
    }

    // Three tables read single objects, one row per run they compare.
    let cache = at(&p, "table_cache")?;
    let run = |name: &str| -> Result<Vec<String>, String> {
        let n = |field: &str| num(cache, &format!("{name}{field}"));
        Ok(vec![
            name.into(),
            format!("{:.3}", n("_total_s")? * 1e3),
            format!("{:.0}/{:.0}", n(".host_hits")?, n(".host_misses")?),
            format!("{:.0}/{:.0}", n(".device_hits")?, n(".device_misses")?),
            format!("{:.1} MiB", n(".resident_bytes")? / (1024.0 * 1024.0)),
        ])
    };
    let headers = [
        "run",
        "total (ms)",
        "host hits/misses",
        "device hits/misses",
        "resident",
    ];
    out.push(("A8", format_table(&headers, &[run("cold")?, run("warm")?])));
    let (o, t) = (at(&sc, "overlap")?, at(&sc, "topology")?);
    let topology = [
        [
            "tree + overlap".into(),
            Ms("on_total_s").cell(o)?,
            Ms("on_exposed_s").cell(o)?,
            Fixed("tree_byte_hops", 0).cell(t)?,
        ],
        [
            "tree + barrier".into(),
            Ms("off_total_s").cell(o)?,
            Ms("off_exposed_s").cell(o)?,
            Fixed("off_byte_hops", 0).cell(o)?,
        ],
        [
            "ring + overlap".into(),
            Ms("ring_total_s").cell(t)?,
            Ms("ring_exposed_s").cell(t)?,
            Fixed("ring_byte_hops", 0).cell(t)?,
        ],
    ]
    .map(Vec::from);
    let headers = ["reduction", "total (ms)", "exposed (ms)", "byte-hops"];
    out.push(("A10-topology", format_table(&headers, &topology)));
    let batching = [
        ("batched (jobs/s)", Fixed("batched_goodput_jobs_per_s", 0)),
        ("FIFO (jobs/s)", Fixed("unbatched_goodput_jobs_per_s", 0)),
        ("batched/FIFO", Fixed("goodput_ratio", 3)),
        ("mean batch", Fixed("mean_batch", 2)),
    ];
    out.push((
        "A11-batching",
        table(&[at(&sv, "batching")?.clone()], &batching)?,
    ));
    let saturation = [
        ("run", Text("label")),
        ("goodput (jobs/s)", Fixed("goodput_jobs_per_s", 0)),
        ("p50 (µs)", Us("p50_s")),
        ("p99 (µs)", Us("p99_s")),
        ("util", Fixed("utilization", 2)),
    ];
    out.push((
        "A11-saturation",
        table(list(&sv, "saturation_sweep")?, &saturation)?,
    ));
    Ok(out)
}

/// Compare every rendered table with the fenced block under its marker in
/// `md`: the error names each table that is stale or missing and shows
/// its rendering.
pub fn check(md: &str, tables: &[(&str, String)]) -> Result<(), String> {
    let stale: Vec<String> = tables
        .iter()
        .filter_map(|(id, want)| {
            let marker = format!("<!-- table: {id} -->\n```\n");
            let block = md
                .split_once(&marker)
                .and_then(|(_, rest)| rest.split_once("\n```"))
                .map(|(block, _)| block);
            match block {
                Some(block) if block == want => None,
                Some(_) => Some(format!(
                    "table {id} is stale; the BENCH files give:\n{want}"
                )),
                None => Some(format!("table {id} has no `<!-- table: {id} -->` block")),
            }
        })
        .collect();
    if stale.is_empty() {
        Ok(())
    } else {
        Err(stale.join("\n\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_file(name: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    fn repo_tables() -> Vec<(&'static str, String)> {
        tables(
            &repo_file("BENCH_pipeline.json"),
            &repo_file("BENCH_scaling.json"),
            &repo_file("BENCH_serve.json"),
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn experiments_md_matches_the_bench_files() {
        check(&repo_file("EXPERIMENTS.md"), &repo_tables()).unwrap_or_else(|e| panic!("{e}"));
    }

    /// `table` with the last digit of its first row bumped, or that row
    /// deleted.
    fn perturbed(table: &str, delete: bool) -> String {
        let mut lines: Vec<String> = table.lines().map(str::to_string).collect();
        if delete {
            lines.remove(1);
        } else {
            let row = &mut lines[1];
            let i = row.rfind(|c: char| c.is_ascii_digit()).expect("a digit");
            let digit = (row.as_bytes()[i] - b'0' + 1) % 10;
            row.replace_range(i..=i, &digit.to_string());
        }
        lines.join("\n")
    }

    #[test]
    fn a_perturbed_value_or_a_deleted_row_fails_naming_its_table() {
        let md = repo_file("EXPERIMENTS.md");
        let tables = repo_tables();
        assert_eq!(tables.len(), 18);
        for (id, table) in &tables {
            let marked = format!("<!-- table: {id} -->\n```\n{table}\n```");
            assert!(md.contains(&marked), "table {id} is not in EXPERIMENTS.md");
            for delete in [false, true] {
                let broken = perturbed(table, delete);
                let broken = format!("<!-- table: {id} -->\n```\n{broken}\n```");
                let err = check(&md.replacen(&marked, &broken, 1), &tables).unwrap_err();
                assert!(err.starts_with(&format!("table {id} is stale")), "{err}");
                assert_eq!(err.matches(" is stale").count(), 1, "{err}");
            }
        }
    }

    #[test]
    fn a_quick_report_or_a_missing_field_is_refused() {
        let scaling = repo_file("BENCH_scaling.json");
        let serve = repo_file("BENCH_serve.json");
        let pipeline = repo_file("BENCH_pipeline.json");
        let quick = pipeline.replacen("\"quick\": false", "\"quick\": true", 1);
        let err = tables(&quick, &scaling, &serve).unwrap_err();
        assert!(
            err.contains("BENCH_pipeline.json is not a full-scale"),
            "{err}"
        );
        let renamed = pipeline.replace("\"gpu_over_cpu\"", "\"gpu_cpu\"");
        let err = tables(&renamed, &scaling, &serve).unwrap_err();
        assert_eq!(err, "no field \"gpu_over_cpu\"");
    }

    #[test]
    fn tables_right_align_every_column() {
        let rows = [vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]];
        let t = format_table(&["a", "bbbb"], &rows);
        assert_eq!(t, "  a  bbbb\n  1     2\n333     4");
    }
}
