//! Order statistics shared by the workload runs and `--compare`.

/// Median of `xs` (mean of the middle pair for an even count; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// First and third quartiles by the exclusive method of Python's
/// `statistics.quantiles(xs, n=4)`, so a spread printed here is the spread
/// computed from the result files. One sample gives `(x, x)`.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    match xs.len() {
        0 => (0.0, 0.0),
        1 => (xs[0], xs[0]),
        len => {
            let v = sorted(xs);
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// Nearest-rank percentile, `q ∈ (0, 1]`: the rule
/// `ServeReport::latency_percentile` uses, over a caller-built list that
/// may hold `+∞` for jobs the service turned away. 0 when empty.
pub fn nearest_rank(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Highest rate for which `meets` holds, for a `meets` that passes below
/// some threshold and fails above it. Doubles (or halves) from `start`
/// until the verdict flips, then bisects until the bracket is within
/// `rel_tol` of its lower end. Returns 0 when no probed rate passes.
pub fn max_rate(mut meets: impl FnMut(f64) -> bool, start: f64, rel_tol: f64) -> f64 {
    const MAX_STEPS: usize = 40;
    let (mut lo, mut hi) = if meets(start) {
        let (mut lo, mut hi) = (start, 2.0 * start);
        for _ in 0..MAX_STEPS {
            if !meets(hi) {
                break;
            }
            lo = hi;
            hi *= 2.0;
        }
        (lo, hi)
    } else {
        let (mut lo, mut hi) = (0.5 * start, start);
        let mut found = false;
        for _ in 0..MAX_STEPS {
            if meets(lo) {
                found = true;
                break;
            }
            hi = lo;
            lo *= 0.5;
        }
        if !found {
            return 0.0;
        }
        (lo, hi)
    };
    for _ in 0..MAX_STEPS {
        if hi <= lo * (1.0 + rel_tol) {
            break;
        }
        let mid = 0.5 * (lo + hi);
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use laue_core::{DepthImage, ReconStats};
    use laue_serve::{AdmissionStats, BatchStats, JobClass, JobOutcome, ServeReport};

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    fn outcome(id: u64, arrival_s: f64, finish_s: f64) -> JobOutcome {
        JobOutcome {
            id,
            tenant: 0,
            class: JobClass::Interactive,
            arrival_s,
            start_s: arrival_s,
            finish_s,
            service_s: finish_s - arrival_s,
            batched: false,
            quanta: 1,
            migrations: 0,
            image: DepthImage::zeroed(1, 1, 1),
            stats: ReconStats::default(),
        }
    }

    #[test]
    fn nearest_rank_agrees_with_serve_report() {
        // 37 latencies in a scrambled order, so ranks land between samples.
        let outcomes: Vec<JobOutcome> = (0..37u64)
            .map(|i| {
                outcome(
                    i,
                    0.1 * i as f64,
                    0.1 * i as f64 + ((i * 17) % 37) as f64 * 1e-4,
                )
            })
            .collect();
        let lats: Vec<f64> = outcomes.iter().map(|o| o.latency_s()).collect();
        let report = ServeReport {
            outcomes,
            rejected: Vec::new(),
            admission: AdmissionStats::default(),
            batch: BatchStats::default(),
            makespan_s: 4.0,
            utilization: 0.5,
            preemptions: 0,
            migrations: 0,
            cache: Default::default(),
        };
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                nearest_rank(&lats, q),
                report.latency_percentile(q),
                "q = {q}"
            );
        }
        // A rejected job counts as +∞ and so lands in the tail.
        let mut with_reject = lats.clone();
        with_reject.push(f64::INFINITY);
        assert_eq!(nearest_rank(&with_reject, 1.0), f64::INFINITY);
        assert!(nearest_rank(&with_reject, 0.5).is_finite());
    }

    #[test]
    fn max_rate_bisects_a_monotone_curve_to_one_percent() {
        let threshold = 27_345.0;
        let mut probes = 0;
        let found = max_rate(
            |r| {
                probes += 1;
                r <= threshold
            },
            16_000.0,
            0.01,
        );
        assert!((threshold / 1.01..=threshold).contains(&found), "{found}");
        assert!(probes < 15, "{probes} probes");
        // A start above the threshold walks down first.
        let found = max_rate(|r| r <= 3_000.0, 16_000.0, 0.01);
        assert!((3_000.0 / 1.01..=3_000.0).contains(&found), "{found}");
        assert_eq!(max_rate(|_| false, 16_000.0, 0.01), 0.0);
    }
}
