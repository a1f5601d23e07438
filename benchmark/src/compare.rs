//! `benchmark compare <a.jsonl> <b.jsonl>`: applies each metric's bound
//! to two sets of runs of the same workloads (result documents appended
//! by `--out`). One row per metric × workload; `a` is the reference.

use crate::spec::{MetricSpec, Spec, EXACT};
use crate::stats;
use std::collections::BTreeMap;
use std::process::ExitCode;
use stellar_telemetry::Json;

/// `(workload, traced) → metric → [(seed, value)]`.
type Runs = BTreeMap<(String, bool), BTreeMap<String, Vec<(u64, f64)>>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("{path}:{}: {e:?}", i + 1))?;
        let fp = doc.get("fingerprint");
        let field = |k: &str| fp.and_then(|f| f.get(k));
        let (Some(workload), Some(seed), Some(traced), Some(Json::Obj(metrics))) = (
            field("workload").and_then(Json::as_str),
            field("seed").and_then(Json::as_f64),
            field("trace").and_then(Json::as_f64),
            doc.get("metrics"),
        ) else {
            return Err(format!("{path}:{}: not a result document", i + 1));
        };
        let per_metric = runs
            .entry((workload.to_string(), traced != 0.0))
            .or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                per_metric
                    .entry(name.clone())
                    .or_default()
                    .push((seed as u64, v));
            }
        }
    }
    Ok(runs)
}

fn values(runs: &[(u64, f64)]) -> Vec<f64> {
    runs.iter().map(|(_, v)| *v).collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(m: &MetricSpec, a: f64, b: f64) -> f64 {
    let change = stats::ratio(b - a, a.abs());
    if m.higher_is_better {
        -change
    } else {
        change
    }
}

/// The verdict on one metric × workload.
fn verdict(m: &MetricSpec, a: &[(u64, f64)], b: &[(u64, f64)]) -> &'static str {
    if EXACT.contains(&m.name.as_str()) {
        // Exact counters must repeat bit for bit on every seed both have.
        let by_seed: BTreeMap<u64, f64> = a.iter().copied().collect();
        let same = b
            .iter()
            .all(|(seed, v)| by_seed.get(seed).is_none_or(|x| x == v));
        return if same { "exact" } else { "EXACT-MISMATCH" };
    }
    let Some(bound) = m.bound else {
        return "layer";
    };
    let (va, vb) = (values(a), values(b));
    if stats::spread(&va).max(stats::spread(&vb)) > bound {
        "unresolved"
    } else if worsening(m, stats::median(&va), stats::median(&vb)) > bound {
        "REGRESSED"
    } else {
        "ok"
    }
}

/// Compares two run sets; non-zero when a metric regressed past its
/// bound or an exact counter differs.
pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::load();
    let mut bad = 0;
    println!(
        "{:<9} {:<38} {:>9} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "median a",
        "median b",
        "worse %",
        "iqr a %",
        "iqr b %",
        "bound"
    );
    for workload in &spec.workloads {
        for traced in [false, true] {
            let key = (workload.clone(), traced);
            let (Some(ra), Some(rb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            for m in spec.metrics(traced) {
                let (Some(va), Some(vb)) = (ra.get(&m.name), rb.get(&m.name)) else {
                    continue;
                };
                let (xa, xb) = (values(va), values(vb));
                let (ma, mb) = (stats::median(&xa), stats::median(&xb));
                let verdict = verdict(m, va, vb);
                if verdict == "REGRESSED" || verdict == "EXACT-MISMATCH" {
                    bad += 1;
                }
                println!(
                    "{:<9} {:<38} {:>9} {:>14.4} {:>14.4} {:>8.2} {:>8.2} {:>8.2} {:>6}  {}",
                    workload,
                    m.name,
                    m.unit,
                    ma,
                    mb,
                    100.0 * worsening(m, ma, mb),
                    100.0 * stats::spread(&xa),
                    100.0 * stats::spread(&xb),
                    m.bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
                    verdict
                );
            }
        }
    }
    if bad > 0 {
        eprintln!("compare: {bad} metric(s) regressed or broke exactness");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, higher: bool, bound: Option<f64>) -> MetricSpec {
        MetricSpec {
            name: name.into(),
            unit: "x".into(),
            higher_is_better: higher,
            bound,
        }
    }

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, *v))
            .collect()
    }

    #[test]
    fn bound_applies_in_the_worse_direction_only() {
        let lower = metric("close_ms_p50", false, Some(0.05));
        let a = runs(&[100.0, 100.5, 99.5, 100.2, 99.8]);
        assert_eq!(
            verdict(&lower, &a, &runs(&[104.0, 104.1, 103.9, 104.0, 104.2])),
            "ok"
        );
        assert_eq!(
            verdict(&lower, &a, &runs(&[106.0, 106.1, 105.9, 106.0, 106.2])),
            "REGRESSED"
        );
        assert_eq!(
            verdict(&lower, &a, &runs(&[50.0, 50.1, 49.9, 50.0, 50.2])),
            "ok"
        );
        let higher = metric("tx_per_s", true, Some(0.05));
        assert_eq!(
            verdict(&higher, &a, &runs(&[93.0, 93.1, 92.9, 93.0, 93.2])),
            "REGRESSED"
        );
        assert_eq!(
            verdict(&higher, &a, &runs(&[120.0, 120.1, 119.9, 120.0, 120.2])),
            "ok"
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let m = metric("close_ms_p95", false, Some(0.05));
        let noisy = runs(&[100.0, 80.0, 120.0, 90.0, 110.0]);
        assert_eq!(verdict(&m, &noisy, &noisy), "unresolved");
    }

    #[test]
    fn exact_counters_must_match_per_seed() {
        let m = metric("sim.events_per_ledger", false, None);
        let a = runs(&[10.0, 20.0]);
        assert_eq!(verdict(&m, &a, &runs(&[10.0, 20.0])), "exact");
        assert_eq!(verdict(&m, &a, &runs(&[10.0, 21.0])), "EXACT-MISMATCH");
        assert_eq!(verdict(&metric("other", false, None), &a, &a), "layer");
    }
}
