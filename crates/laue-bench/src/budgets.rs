//! Named perf budgets: the one checker behind every bench bin's
//! `--check FILE`.
//!
//! The budget file (`ci/perf_smoke_baseline.txt`) holds `name = value`
//! lines; blank lines and `#` comments are ignored. A name ending in
//! `_max` is the largest value its measurement may take, one ending in
//! `_min` the smallest, so each gate names its budget and the file says
//! which way it cuts.

/// A parsed budget file.
#[derive(Debug)]
pub struct Budgets {
    path: String,
    entries: Vec<(String, f64)>,
}

impl Budgets {
    /// Read and parse `path`; an unreadable or malformed file panics,
    /// which fails the CI step.
    pub fn load(path: &str) -> Budgets {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("--check: cannot read {path}: {e}"));
        Budgets::parse(path, &text).unwrap_or_else(|e| panic!("--check: {e}"))
    }

    /// Parse budget-file `text`; `path` only labels messages.
    pub fn parse(path: &str, text: &str) -> Result<Budgets, String> {
        let mut entries = Vec::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parsed = line
                .split_once('=')
                .and_then(|(name, value)| Some((name.trim(), value.trim().parse().ok()?)));
            let Some((name, value)) = parsed else {
                return Err(format!(
                    "bad budget line {line:?} in {path}: want `name = value`"
                ));
            };
            entries.push((name.to_string(), value));
        }
        Ok(Budgets {
            path: path.to_string(),
            entries,
        })
    }

    /// Gate `measured` against the budget `name`: the pass line, or why the
    /// gate failed (over a maximum, under a minimum, or no such budget).
    /// A NaN measurement fails every gate.
    pub fn check(&self, name: &str, measured: f64) -> Result<String, String> {
        let Some(&(_, budget)) = self.entries.iter().find(|(n, _)| n == name) else {
            return Err(format!("{} holds no budget named {name}", self.path));
        };
        let within = if name.ends_with("_max") {
            measured <= budget
        } else if name.ends_with("_min") {
            measured >= budget
        } else {
            return Err(format!("budget {name} must end in _max or _min"));
        };
        if within {
            Ok(format!(
                "perf gate: {name}: {measured:.4} within budget {budget:.4}"
            ))
        } else {
            Err(format!(
                "PERF REGRESSION: {name}: {measured:.4} is past the committed budget \
                 {budget:.4} ({})",
                self.path
            ))
        }
    }

    /// [`Budgets::check`] as a CI gate: print the pass line, or print the
    /// failure and exit non-zero.
    pub fn enforce(&self, name: &str, measured: f64) {
        match self.check(name, measured) {
            Ok(line) => println!("{line}"),
            Err(why) => {
                eprintln!("{why}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = "# comment\n\nratio_max = 0.80\n  efficiency_min = 0.5  \n";

    #[test]
    fn gates_fail_past_their_budget_and_on_missing_names() {
        let b = Budgets::parse("budgets.txt", FILE).unwrap();
        assert!(b.check("ratio_max", 0.80).is_ok());
        assert!(b.check("ratio_max", 0.81).is_err(), "above a maximum");
        assert!(b.check("efficiency_min", 0.5).is_ok());
        assert!(b.check("efficiency_min", 0.49).is_err(), "below a minimum");
        assert!(b.check("ratio_max", f64::NAN).is_err());
        let missing = b.check("tail_max", 1.0).unwrap_err();
        assert!(missing.contains("no budget named tail_max"), "{missing}");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Budgets::parse("b", "0.87\n").is_err(), "positional line");
        assert!(Budgets::parse("b", "ratio_max = fast\n").is_err());
        let b = Budgets::parse("b", "ratio = 1.0\n").unwrap();
        assert!(b.check("ratio", 0.5).is_err(), "no direction suffix");
    }
}
