//! The one row type every `bench_report` section writes.

use crate::json::quote;

/// One BENCH row: named fields in the order they were added, written as
/// one JSON object on one line. Seconds carry nine decimals and ratios
/// six, so a regenerated report reproduces every committed value.
#[derive(Debug, Clone, Default)]
pub struct Row(Vec<(&'static str, String)>);

impl Row {
    /// A virtual time, seconds.
    pub fn secs(self, key: &'static str, seconds: f64) -> Row {
        self.raw(key, format!("{seconds:.9}"))
    }

    /// A dimensionless ratio or fraction.
    pub fn ratio(self, key: &'static str, ratio: f64) -> Row {
        self.raw(key, format!("{ratio:.6}"))
    }

    /// A count or flag, written as Rust displays it.
    pub fn value(self, key: &'static str, value: impl std::fmt::Display) -> Row {
        self.raw(key, value.to_string())
    }

    /// A string.
    pub fn text(self, key: &'static str, text: &str) -> Row {
        self.raw(key, quote(text))
    }

    /// A nested row.
    pub fn row(self, key: &'static str, row: &Row) -> Row {
        self.raw(key, row.to_string())
    }

    /// A list of rows, one per line.
    pub fn rows(self, key: &'static str, rows: &[Row]) -> Row {
        let lines: Vec<String> = rows.iter().map(|r| format!("    {r}")).collect();
        self.raw(key, format!("[\n{}\n  ]", lines.join(",\n")))
    }

    /// Every field of `other`, after this row's own.
    pub fn extend(mut self, other: &Row) -> Row {
        self.0.extend(other.0.iter().cloned());
        self
    }

    /// A field whose value is already JSON.
    pub fn raw(mut self, key: &'static str, json: String) -> Row {
        self.0.push((key, json));
        self
    }

    /// The row as a JSON document, one top-level field per line.
    pub fn document(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("  {}: {v}", quote(k)))
            .collect();
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        write!(f, "{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn rows_write_json_with_fixed_precision() {
        let inner = Row::default().value("hits", 2u64);
        let row = Row::default()
            .value("quick", false)
            .text("label", "5.2 \"MB\"")
            .secs("total_s", 0.0129707561)
            .ratio("ratio", 0.25)
            .row("cache", &inner);
        assert_eq!(
            row.to_string(),
            "{\"quick\": false, \"label\": \"5.2 \\\"MB\\\"\", \"total_s\": 0.012970756, \
             \"ratio\": 0.250000, \"cache\": {\"hits\": 2}}"
        );
        let doc = Row::default()
            .rows("ladder", &[row.clone(), row])
            .raw("wall_clock_s", "1.000".into())
            .document();
        let parsed = Json::parse(&doc).unwrap();
        let ladder = parsed.get("ladder").unwrap().as_arr().unwrap();
        assert_eq!(ladder.len(), 2);
        assert_eq!(
            ladder[1].get("total_s").unwrap().as_f64(),
            Some(0.012970756)
        );
        assert_eq!(doc.lines().count(), 7, "{doc}");
    }
}
