//! Harness-side spans: the benchmark times each call it makes into a
//! public function of one layer (crate), with the `/proc/self/io` byte
//! counters read at the same boundaries. Nothing inside the program is
//! instrumented; a layer's self time is its span minus the child spans
//! the harness opened inside it (e.g. `run` minus the slab reads its
//! `SlabSource` served).

use std::time::Instant;

use crate::json::{num, quote};

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Crate the call enters (`laue-pipeline`, `laue-wire`, …), or
    /// `benchmark` for the harness's own op envelope.
    pub layer: &'static str,
    /// Op the span belongs to; spans of one op share it.
    pub op: u64,
    /// Index of the enclosing span in the recorder.
    pub parent: Option<usize>,
    /// Seconds since the recorder started.
    pub start_s: f64,
    pub end_s: f64,
    /// `rchar` / `wchar` deltas of `/proc/self/io` over the span: bytes
    /// the process read and wrote through system calls, cache hits
    /// included.
    pub read_bytes: u64,
    pub write_bytes: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Collects spans in memory; they are written out when the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Op id given to spans opened from now on.
    pub op: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Time `f` as a span nested in whichever span is open.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let (rchar, wchar) = io_counters();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            op: self.op,
            parent: self.open.last().copied(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: 0.0,
            read_bytes: rchar,
            write_bytes: wchar,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let (rchar, wchar) = io_counters();
        let s = &mut self.spans[idx];
        s.end_s = self.origin.elapsed().as_secs_f64();
        s.read_bytes = rchar.saturating_sub(s.read_bytes);
        s.write_bytes = wchar.saturating_sub(s.write_bytes);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// `(rchar, wchar)` of this process; zeros where `/proc` is unavailable.
pub fn io_counters() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    (field("rchar:"), field("wchar:"))
}

/// Peak resident set (`VmHWM`) of this process, MiB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Self time of every span: its duration minus the part of it its direct
/// children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_s, s.end_s));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_s;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_s));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_s() - covered
        })
        .collect()
}

/// Self seconds per layer, summed over `spans`, in first-seen order.
pub fn layer_self_times(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, sum)) => *sum += t,
            None => out.push((s.layer, t)),
        }
    }
    out
}

/// Chrome trace events (`ph: "X"`) for `spans`, one process per workload.
pub fn chrome_events(spans: &[Span], pid: usize, workload: &str) -> Vec<String> {
    let mut events = vec![format!(
        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 1, \
         \"args\": {{\"name\": {}}}}}",
        quote(workload)
    )];
    for (i, (s, self_s)) in spans.iter().zip(self_times(spans)).enumerate() {
        events.push(format!(
            "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": {pid}, \"tid\": 1, \
             \"ts\": {}, \"dur\": {}, \"args\": {{\"span\": {i}, \"op\": {}, \"parent\": {}, \
             \"self_s\": {}, \"read_bytes\": {}, \"write_bytes\": {}}}}}",
            quote(s.name),
            quote(s.layer),
            num(s.start_s * 1e6),
            num(s.duration_s() * 1e6),
            s.op,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            num(self_s),
            s.read_bytes,
            s.write_bytes,
        ));
    }
    events
}

/// A whole Chrome trace file from pre-rendered events.
pub fn chrome_trace(events: &[String]) -> String {
    format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_s: f64, end_s: f64, layer: &'static str) -> Span {
        Span {
            name: "s",
            layer,
            op: 0,
            parent,
            start_s,
            end_s,
            read_bytes: 0,
            write_bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        let spans = vec![
            span(None, 0.0, 10.0, "benchmark"),
            span(Some(0), 1.0, 4.0, "laue-pipeline"),
            span(Some(1), 2.0, 3.0, "laue-wire"),
            // Overlaps its sibling by one second and runs past the parent
            // by one: only [4, 10] of it lies inside the parent and
            // outside the sibling.
            span(Some(0), 3.0, 11.0, "laue-pipeline"),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![1.0, 2.0, 1.0, 8.0]);
        let layers = layer_self_times(&spans);
        assert_eq!(
            layers,
            vec![
                ("benchmark", 1.0),
                ("laue-pipeline", 10.0),
                ("laue-wire", 1.0)
            ]
        );
    }

    #[test]
    fn recorder_nests_and_counts_io() {
        let mut rec = Recorder::new();
        rec.op = 7;
        let dir = std::env::temp_dir().join(format!("benchmark-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f");
        rec.span("outer", "benchmark", |rec| {
            rec.span("write", "test", |_| {
                std::fs::write(&path, vec![1u8; 4096]).unwrap()
            });
        });
        let spans = rec.into_spans();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_s >= s.start_s));
        if std::path::Path::new("/proc/self/io").exists() {
            assert!(spans[1].write_bytes >= 4096);
        }
        let trace = chrome_trace(&chrome_events(&spans, 1, "w"));
        let parsed = crate::json::Json::parse(&trace).unwrap();
        assert_eq!(
            parsed.get("traceEvents").unwrap().as_arr().unwrap().len(),
            3
        );
    }
}
