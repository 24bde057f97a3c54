//! Chrome-trace export of the virtual timeline.
//!
//! [`crate::Device::export_chrome_trace`] renders every transfer and kernel
//! as a complete ("ph":"X") event in the Trace Event Format, so the virtual
//! schedule — including stream overlap — can be inspected in
//! `chrome://tracing` / Perfetto.

use std::collections::VecDeque;

/// One operation on the virtual timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord {
    /// Operation kind: `"h2d"`, `"d2h"` or `"kernel"`.
    pub kind: &'static str,
    /// Label (kernel name; byte count for copies).
    pub name: String,
    /// Stream index (rendered as the trace "thread").
    pub stream: usize,
    /// Virtual start, seconds.
    pub start_s: f64,
    /// Virtual end, seconds.
    pub end_s: f64,
}

/// Default capacity of the bounded op-trace ring.
pub const DEFAULT_TRACE_CAP: usize = 16_384;

/// How much of the operation log a device keeps.
///
/// Every transfer and launch used to push an eagerly-`format!`-ed
/// [`OpRecord`] into an unbounded `Vec` — a slow memory leak for
/// service-style runs that never reset. The default is now a generous ring
/// (more than any single reconstruction issues, so traces of normal runs
/// are complete) and `Off` skips even the name formatting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Record nothing; op names are never formatted.
    Off,
    /// Keep the newest `n` records; older ones fall off the front.
    Ring(usize),
    /// Unbounded log (the old behavior) — for short diagnostic runs only.
    Full,
}

impl Default for TraceMode {
    fn default() -> Self {
        TraceMode::Ring(DEFAULT_TRACE_CAP)
    }
}

/// Bounded operation log behind [`crate::Device::ops`] and the Chrome
/// trace export.
#[derive(Debug)]
pub struct TraceBuf {
    mode: TraceMode,
    ops: VecDeque<OpRecord>,
    dropped: u64,
}

impl TraceBuf {
    /// Empty buffer in the given mode.
    pub fn new(mode: TraceMode) -> TraceBuf {
        TraceBuf {
            mode,
            ops: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Record one operation. `name` is only invoked when the record is
    /// actually kept, so `TraceMode::Off` pays no formatting cost.
    pub fn push_with(
        &mut self,
        kind: &'static str,
        stream: usize,
        start_s: f64,
        end_s: f64,
        name: impl FnOnce() -> String,
    ) {
        match self.mode {
            TraceMode::Off => {
                self.dropped += 1;
                return;
            }
            TraceMode::Ring(cap) => {
                if cap == 0 {
                    self.dropped += 1;
                    return;
                }
                while self.ops.len() >= cap {
                    self.ops.pop_front();
                    self.dropped += 1;
                }
            }
            TraceMode::Full => {}
        }
        self.ops.push_back(OpRecord {
            kind,
            name: name(),
            stream,
            start_s,
            end_s,
        });
    }

    /// Change the mode; an over-full ring sheds its oldest records.
    pub fn set_mode(&mut self, mode: TraceMode) {
        self.mode = mode;
        if let TraceMode::Ring(cap) = mode {
            while self.ops.len() > cap {
                self.ops.pop_front();
                self.dropped += 1;
            }
        }
    }

    /// Records currently held, oldest first.
    pub fn ops(&self) -> Vec<OpRecord> {
        self.ops.iter().cloned().collect()
    }

    /// Records not retained (ring overflow or `Off`).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Forget everything (meter reset).
    pub fn clear(&mut self) {
        self.ops.clear();
        self.dropped = 0;
    }
}

/// Minimal JSON string escaping for names.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render ops as a Trace Event Format JSON document: one process per
/// `(name, ops)` entry, in order (pid 1, 2, …), each op on its stream's
/// thread.
pub fn chrome_trace(processes: &[(String, Vec<OpRecord>)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, (name, ops)) in processes.iter().enumerate() {
        let pid = i + 1;
        if i > 0 {
            out.push(',');
        }
        // Each process's name record leads its ops, so every op needs a
        // comma.
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
            escape(name)
        ));
        for op in ops {
            out.push(',');
            let ts_us = op.start_s * 1e6;
            let dur_us = (op.end_s - op.start_s) * 1e6;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts_us:.3},\"dur\":{dur_us:.3},\"pid\":{pid},\"tid\":{}}}",
                escape(&op.name),
                op.kind,
                op.stream
            ));
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_buf_ring_bounds_memory_and_counts_drops() {
        let mut t = TraceBuf::new(TraceMode::Ring(2));
        for i in 0..5 {
            t.push_with("h2d", 0, i as f64, i as f64 + 1.0, || format!("op{i}"));
        }
        assert_eq!(t.ops().len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.ops()[0].name, "op3", "oldest shed first");
        t.clear();
        assert_eq!(t.ops().len(), 0);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn trace_buf_off_never_formats() {
        let mut t = TraceBuf::new(TraceMode::Off);
        t.push_with("h2d", 0, 0.0, 1.0, || panic!("name must not be built"));
        assert!(t.ops().is_empty());
        assert_eq!(t.dropped(), 1);
    }

    #[test]
    fn trace_buf_mode_change_sheds_overflow() {
        let mut t = TraceBuf::new(TraceMode::Full);
        for i in 0..4 {
            t.push_with("kernel", 0, i as f64, i as f64 + 1.0, || "k".to_string());
        }
        t.set_mode(TraceMode::Ring(1));
        assert_eq!(t.ops().len(), 1);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn escaping() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("nl\n"), "nl\\n");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn trace_document_shape() {
        let ops = vec![
            OpRecord {
                kind: "h2d",
                name: "1024 B".into(),
                stream: 0,
                start_s: 0.0,
                end_s: 1e-5,
            },
            OpRecord {
                kind: "kernel",
                name: "set_two".into(),
                stream: 1,
                start_s: 1e-5,
                end_s: 3e-5,
            },
        ];
        let json = chrome_trace(&[("Tesla M2070 (simulated)".to_string(), ops.clone())]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"set_two\""));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"cat\":\"h2d\""));
        assert!(json.contains("Tesla M2070"));
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());

        // Several devices: one process each, in the order given.
        let two = chrome_trace(&[("a".to_string(), ops.clone()), ("b".to_string(), ops)]);
        assert_eq!(two.matches("\"process_name\"").count(), 2);
        assert!(two.contains("\"pid\":2,\"args\":{\"name\":\"b\"}"));
        assert_eq!(two.matches("\"pid\":2,\"tid\"").count(), 2);
        assert_eq!(two.matches('{').count(), two.matches('}').count());
    }
}
