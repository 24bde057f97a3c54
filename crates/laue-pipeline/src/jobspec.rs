//! Served-job records: the service's submission/outcome log format.
//!
//! A service run is a stream of jobs, and operations wants a durable,
//! line-oriented record of each one — what was submitted (tenant, class,
//! arrival, scan shape, data seed) and what the service did with it
//! (engine path, timing, quanta, migrations, deposit counters). This
//! module defines that record and its JSON-lines serialization.
//!
//! The field vocabulary deliberately **reuses the [`RunReport`] schema**:
//! `engine`, `dims`, `total_time_s`, `pairs_deposited` mean exactly what
//! they mean in single-run reports and in `BENCH_pipeline.json`, so the
//! same tooling can aggregate a service log and a batch of standalone
//! runs without a translation layer. [`JobRecord::absorb_report`] fills
//! the outcome half of a record directly from a [`RunReport`].
//!
//! The format is one flat JSON object per line — append-friendly (a
//! crash loses at most the line being written, like the run journal) and
//! greppable. [`read_job_log`] round-trips exactly what
//! [`write_job_log`] wrote; it is a reader for this log format, not a
//! general JSON parser.

use std::io::{BufRead, Write};

use crate::report::RunReport;
use crate::{PipelineError, Result};

/// One served (or submitted) job: the submission fields plus, once the
/// job completed, its outcome in [`RunReport`] vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Service-wide job id.
    pub job_id: u64,
    /// Owning tenant.
    pub tenant: usize,
    /// Scheduling class, `"interactive"` or `"batch"`.
    pub class: String,
    /// Fleet arrival time, seconds.
    pub arrival_s: f64,
    /// Synthetic-scan seed (with `dims`, fully determines the input).
    pub seed: u64,
    /// Stack dimensions `(images, rows, cols)` — [`RunReport::dims`].
    pub dims: (usize, usize, usize),
    /// Depth bins of the output grid.
    pub n_depth_bins: usize,
    /// Engine label in [`RunReport::engine`] style (`"serve-fused"`,
    /// `"serve-quantum"`); empty until the job is served.
    pub engine: String,
    /// Fleet time the job first occupied a device.
    pub start_s: f64,
    /// Fleet completion time.
    pub finish_s: f64,
    /// Device seconds consumed — [`RunReport::total_time_s`]'s analogue
    /// for one job's share of the fleet.
    pub total_time_s: f64,
    /// Dispatches the job took (1 = uninterrupted).
    pub quanta: u32,
    /// Device changes between quanta.
    pub migrations: u32,
    /// Deposit counter from the job's stats — the cheap output
    /// fingerprint single-run reports carry.
    pub pairs_deposited: u64,
}

impl JobRecord {
    /// A submission-only record: outcome fields zeroed, engine empty.
    pub fn submitted(
        job_id: u64,
        tenant: usize,
        class: &str,
        arrival_s: f64,
        seed: u64,
        dims: (usize, usize, usize),
        n_depth_bins: usize,
    ) -> JobRecord {
        JobRecord {
            job_id,
            tenant,
            class: class.to_string(),
            arrival_s,
            seed,
            dims,
            n_depth_bins,
            engine: String::new(),
            start_s: 0.0,
            finish_s: 0.0,
            total_time_s: 0.0,
            quanta: 0,
            migrations: 0,
            pairs_deposited: 0,
        }
    }

    /// Fill the outcome half from a single-run [`RunReport`] — the path
    /// for jobs executed through the ordinary pipeline (dims and stats
    /// vocabulary carry over unchanged).
    pub fn absorb_report(&mut self, report: &RunReport) {
        self.engine = report.engine.clone();
        self.dims = report.dims;
        self.total_time_s = report.total_time_s;
        self.pairs_deposited = report.stats.pairs_deposited;
        if self.quanta == 0 {
            self.quanta = 1;
        }
    }

    /// Submission-to-completion latency, seconds (0 until served).
    pub fn latency_s(&self) -> f64 {
        (self.finish_s - self.arrival_s).max(0.0)
    }

    /// One-line JSON object, keys in fixed order.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"job_id\": {}, \"tenant\": {}, \"class\": \"{}\", \"arrival_s\": {:.9}, \
             \"seed\": {}, \"dims\": [{}, {}, {}], \"n_depth_bins\": {}, \
             \"engine\": \"{}\", \"start_s\": {:.9}, \"finish_s\": {:.9}, \
             \"total_time_s\": {:.9}, \"quanta\": {}, \"migrations\": {}, \
             \"pairs_deposited\": {}}}",
            self.job_id,
            self.tenant,
            self.class,
            self.arrival_s,
            self.seed,
            self.dims.0,
            self.dims.1,
            self.dims.2,
            self.n_depth_bins,
            self.engine,
            self.start_s,
            self.finish_s,
            self.total_time_s,
            self.quanta,
            self.migrations,
            self.pairs_deposited,
        )
    }

    /// Parse one log line written by [`to_json`](Self::to_json).
    pub fn from_json(line: &str) -> Result<JobRecord> {
        let dims = field(line, "dims")?;
        let dims_parts: Vec<usize> = dims
            .trim_start_matches('[')
            .trim_end_matches(']')
            .split(',')
            .map(|t| t.trim().parse().map_err(|_| bad(line, "dims")))
            .collect::<std::result::Result<_, _>>()?;
        if dims_parts.len() != 3 {
            return Err(bad(line, "dims"));
        }
        Ok(JobRecord {
            job_id: num(line, "job_id")?,
            tenant: num(line, "tenant")?,
            class: string(line, "class")?,
            arrival_s: float(line, "arrival_s")?,
            seed: num(line, "seed")?,
            dims: (dims_parts[0], dims_parts[1], dims_parts[2]),
            n_depth_bins: num(line, "n_depth_bins")?,
            engine: string(line, "engine")?,
            start_s: float(line, "start_s")?,
            finish_s: float(line, "finish_s")?,
            total_time_s: float(line, "total_time_s")?,
            quanta: num(line, "quanta")?,
            migrations: num(line, "migrations")?,
            pairs_deposited: num(line, "pairs_deposited")?,
        })
    }
}

/// Append records as JSON lines.
pub fn write_job_log<W: Write>(out: &mut W, records: &[JobRecord]) -> Result<()> {
    for r in records {
        writeln!(out, "{}", r.to_json())?;
    }
    Ok(())
}

/// Read a whole job log (blank lines ignored).
pub fn read_job_log<R: BufRead>(input: R) -> Result<Vec<JobRecord>> {
    let mut records = Vec::new();
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        records.push(JobRecord::from_json(&line)?);
    }
    Ok(records)
}

fn bad(line: &str, key: &str) -> PipelineError {
    PipelineError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("job log line missing/invalid \"{key}\": {line}"),
    ))
}

/// Raw text of one `"key": value` field (up to the next top-level comma).
fn field<'a>(line: &'a str, key: &str) -> Result<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat).ok_or_else(|| bad(line, key))? + pat.len();
    let rest = &line[start..];
    // Value ends at the first comma or closing brace outside brackets
    // and quotes (values are flat scalars or a fixed-length array).
    let mut depth = 0usize;
    let mut quoted = false;
    for (i, c) in rest.char_indices() {
        match c {
            '"' => quoted = !quoted,
            '[' if !quoted => depth += 1,
            ']' if !quoted => depth = depth.saturating_sub(1),
            ',' | '}' if !quoted && depth == 0 => return Ok(rest[..i].trim()),
            _ => {}
        }
    }
    Err(bad(line, key))
}

fn num<T: std::str::FromStr>(line: &str, key: &str) -> Result<T> {
    field(line, key)?.parse().map_err(|_| bad(line, key))
}

fn float(line: &str, key: &str) -> Result<f64> {
    field(line, key)?.parse().map_err(|_| bad(line, key))
}

fn string(line: &str, key: &str) -> Result<String> {
    Ok(field(line, key)?.trim_matches('"').to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> JobRecord {
        let mut r = JobRecord::submitted(7, 2, "interactive", 0.125, 99, (8, 6, 6), 40);
        r.engine = "serve-fused".into();
        r.start_s = 0.25;
        r.finish_s = 0.5;
        r.total_time_s = 0.125;
        r.quanta = 1;
        r.pairs_deposited = 1234;
        r
    }

    #[test]
    fn records_round_trip_through_the_log() {
        let records = vec![
            record(),
            JobRecord::submitted(8, 0, "batch", 1.5, 100, (10, 24, 12), 80),
        ];
        let mut buf = Vec::new();
        write_job_log(&mut buf, &records).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        let back = read_job_log(&buf[..]).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn latency_and_report_vocabulary() {
        let r = record();
        assert!((r.latency_s() - 0.375).abs() < 1e-12);
        // The outcome half can come straight from a RunReport.
        let mut fresh = JobRecord::submitted(9, 1, "batch", 0.0, 1, (8, 6, 6), 40);
        let report = crate::report::RunReport::host(
            "gpu-1d".into(),
            laue_core::DepthImage::zeroed(1, 1, 1),
            laue_core::ReconStats::default(),
            0.25,
            (8, 6, 6),
        );
        fresh.absorb_report(&report);
        assert_eq!(fresh.engine, "gpu-1d");
        assert_eq!(fresh.total_time_s, 0.25);
        assert_eq!(fresh.quanta, 1);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(JobRecord::from_json("{}").is_err());
        assert!(JobRecord::from_json("{\"job_id\": x}").is_err());
        let mangled = record()
            .to_json()
            .replace("\"dims\": [8, 6, 6]", "\"dims\": [8]");
        assert!(JobRecord::from_json(&mangled).is_err());
    }
}
