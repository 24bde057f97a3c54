//! `--compare A.json B.json`: judge run B against run A, one verdict per
//! (metric, workload). End-to-end metrics are held to the bounds
//! `BENCHMARK.json` fixes; per-layer metrics that repeat exactly for a
//! seed (everything but wall times, see [`MetricSpec::is_exact`]) must
//! not move at all.

use crate::json::Json;
use crate::{MetricSpec, Spec};

/// Relative change an exact metric may show before it counts as moved:
/// float formatting noise only.
const EXACT_REL: f64 = 1e-6;

/// A metric's median and quartiles as a result file records them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    fn from_json(v: &Json) -> Option<Summary> {
        let value = v.get("value")?.as_f64()?;
        let q = |k| v.get(k).and_then(Json::as_f64).unwrap_or(value);
        Some(Summary {
            value,
            q1: q("q1"),
            q3: q("q3"),
        })
    }

    /// Quartile spread as a share of the median.
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Agree,
    Regressed,
    Improved,
    /// The run-to-run spread is wider than the bound: no call either way.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against `a` for metric `m`: an exact metric by
/// [`EXACT_REL`], any other by its bound.
pub fn verdict(m: &MetricSpec, a: Summary, b: Summary) -> Verdict {
    let tol = if m.is_exact() {
        EXACT_REL
    } else {
        let bound = m.bound.unwrap_or(0.0);
        if a.spread().max(b.spread()) > bound {
            return Verdict::Unresolved;
        }
        bound
    };
    let change = if a.value == 0.0 {
        if b.value == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(b.value)
        }
    } else {
        (b.value - a.value) / a.value.abs()
    };
    let worse = if m.lower_is_better { change } else { -change };
    if worse > tol {
        Verdict::Regressed
    } else if worse < -tol {
        Verdict::Improved
    } else {
        Verdict::Agree
    }
}

/// One compared pair, ready to print.
pub struct Row {
    pub metric: MetricSpec,
    pub workload: String,
    pub verdict: Verdict,
    pub a: Summary,
    pub b: Summary,
}

/// Every (metric, workload) pair present in both result files, for the
/// end-to-end metrics and the exact per-layer ones.
pub fn compare(spec: &Spec, a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let judged: Vec<&MetricSpec> = spec
        .end_to_end
        .iter()
        .chain(spec.per_layer.iter().filter(|m| m.is_exact()))
        .collect();
    let workloads = |r: &Json| -> Result<Vec<(String, Json)>, String> {
        r.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .ok_or_else(|| "result file has no \"workloads\" object".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            continue;
        };
        for m in &judged {
            let get = |r: &Json| {
                r.get("metrics")
                    .and_then(|ms| ms.get(&m.name))
                    .and_then(Summary::from_json)
            };
            if let (Some(sa), Some(sb)) = (get(ra), get(rb)) {
                rows.push(Row {
                    metric: (*m).clone(),
                    workload: name.clone(),
                    verdict: verdict(m, sa, sb),
                    a: sa,
                    b: sb,
                });
            }
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, unit: &str, bound: Option<f64>) -> MetricSpec {
        MetricSpec {
            name: name.into(),
            unit: unit.into(),
            lower_is_better: true,
            bound,
        }
    }

    fn s(value: f64, q1: f64, q3: f64) -> Summary {
        Summary { value, q1, q3 }
    }

    #[test]
    fn an_injected_20_percent_wall_slowdown_regresses() {
        let spec = crate::spec();
        let wall = spec.end_to_end.iter().find(|m| m.name == "wall_s").unwrap();
        let a = s(0.750, 0.741, 0.762);
        let scaled = |f: f64| s(a.value * f, a.q1 * f, a.q3 * f);
        assert_eq!(verdict(wall, a, scaled(1.20)), Verdict::Regressed);
        assert_eq!(verdict(wall, a, scaled(0.80)), Verdict::Improved);
        assert_eq!(verdict(wall, a, scaled(1.02)), Verdict::Agree);
        // Spread wider than the bound: no call.
        assert_eq!(verdict(wall, a, s(0.9, 0.7, 1.1)), Verdict::Unresolved);
    }

    #[test]
    fn every_per_layer_metric_but_wall_times_is_exact() {
        let spec = crate::spec();
        let exact = |name: &str| {
            spec.per_layer
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .is_exact()
        };
        for name in [
            "laue-core.model_speedup",
            "laue-core.plan_error",
            "laue-core.image_nonzero_frac",
            "cuda-sim.net_mb",
            "cuda-sim.h2d_mb_computed",
            "laue-pipeline.export_mb",
            "laue-serve.utilization",
            "laue-serve.accepted_frac",
        ] {
            assert!(exact(name), "{name}");
        }
        for name in [
            "laue-pipeline.export_s",
            "laue-core.cpu_ref_s",
            "benchmark.trace_overhead_frac",
        ] {
            assert!(!exact(name), "{name}");
        }
        assert!(spec.end_to_end.iter().all(|m| !m.is_exact()));
    }

    #[test]
    fn identical_virtual_metrics_agree_and_any_change_counts() {
        let model = metric("cuda-sim.model_s", "virtual_s", None);
        let a = s(0.012970756, 0.012970756, 0.012970756);
        assert_eq!(verdict(&model, a, a), Verdict::Agree);
        // A 0.2 % move of a deterministic metric is a real change.
        let b = s(0.0130, 0.0130, 0.0130);
        assert_eq!(verdict(&model, a, b), Verdict::Regressed);
        let mut rate = metric("laue-serve.max_rate_hz", "1/virtual_s", None);
        rate.lower_is_better = false;
        assert_eq!(
            verdict(
                &rate,
                s(27_000.0, 26_000.0, 28_000.0),
                s(26_000.0, 25_000.0, 27_000.0)
            ),
            Verdict::Regressed
        );
        let count = metric("laue-core.n_slabs", "count", None);
        assert_eq!(
            verdict(&count, s(8.0, 8.0, 8.0), s(8.0, 8.0, 8.0)),
            Verdict::Agree
        );
    }

    #[test]
    fn compare_pairs_workloads_present_in_both_files() {
        let spec = crate::spec();
        let file = |wall: f64| {
            Json::parse(&format!(
                "{{\"workloads\": {{\"paper-dense\": {{\"metrics\": {{\
                 \"wall_s\": {{\"value\": {wall}, \"unit\": \"s\", \"q1\": {wall}, \"q3\": {wall}}}}}}}, \
                 \"serve-mix\": {{\"metrics\": {{}}}}}}}}"
            ))
            .unwrap()
        };
        let rows = compare(&spec, &file(1.0), &file(1.3)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].metric.name.as_str(), rows[0].workload.as_str()),
            ("wall_s", "paper-dense")
        );
        assert_eq!(rows[0].verdict, Verdict::Regressed);
    }
}
