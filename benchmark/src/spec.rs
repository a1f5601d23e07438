//! The benchmark's contract, read from the `BENCHMARK.json` compiled into
//! the binary: workload names, metric names, units, directions and
//! bounds. The file is the single source of truth; this module only adds
//! what its fixed schema cannot carry (which counters repeat exactly).

use stellar_telemetry::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
    /// Share of the reference median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (reported with `--trace 0`).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (reported with `--trace 1`).
    pub per_layer: Vec<MetricSpec>,
    /// Seconds one run measures.
    pub run_seconds: u64,
}

/// Per-layer metrics that are counts of simulated or single-threaded
/// work and repeat bit for bit for a given seed and `--seconds`.
pub const EXACT: &[&str] = &[
    "ledger.parallel.waves",
    "ledger.parallel.conflict_reruns",
    "ledger.parallel.footprint_fallbacks",
    "store.disk.read_bytes_per_tx",
    "store.disk.written_bytes_per_tx",
    "store.disk.fsyncs_per_ledger",
    "store.disk.segments",
    "store.disk.compactions",
    "store.disk.cache_hit_ratio",
    "persist.bytes_written_per_ledger",
    "ledger.sigcache.hit_ratio",
    "scp.nomination_ms_p50",
    "scp.balloting_ms_p50",
    "scp.nomination_timeouts",
    "scp.ballot_timeouts",
    "scp.envelopes_per_ledger",
    "overlay.msgs_per_ledger",
    "overlay.bytes_per_ledger",
    "overlay.bytes_per_tx",
    "overlay.dup_suppressed_ratio",
    "overlay.pull.fulfilled",
    "overlay.pull.timeouts",
    "overlay.flood_lag_ms_p50",
    "overlay.flood_lag_ms_p99",
    "herder.admit_to_nominate_ms_p50",
    "herder.nominate_to_externalize_ms_p50",
    "sim.events_per_ledger",
    "sim.rejoin_ms",
];

fn metric_list(doc: &Json, key: &str) -> Vec<MetricSpec> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json {key} entry lacks {k}"))
                    .to_string()
            };
            MetricSpec {
                name: text("name"),
                unit: text("unit"),
                higher_is_better: text("better") == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

impl Spec {
    /// Parses the compiled-in `BENCHMARK.json`.
    pub fn load() -> Spec {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("BENCHMARK.json lists workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("workload has a name")
                    .to_string()
            })
            .collect();
        Spec {
            workloads,
            end_to_end: metric_list(&doc, "end_to_end"),
            per_layer: metric_list(&doc, "per_layer"),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json has run_seconds") as u64,
        }
    }

    /// The metrics a run with the given trace mode must report.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Looks a metric up by name in either list.
    pub fn find(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_is_well_formed() {
        let spec = Spec::load();
        assert_eq!(
            spec.workloads,
            ["pay_mem", "dex_mem", "pay_disk", "net_scp", "net_load"]
        );
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        for m in &spec.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!((1..=60).contains(&spec.run_seconds));
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .chain(spec.workloads.iter().map(String::as_str))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "names are used once");
        for exact in EXACT {
            assert!(
                spec.per_layer.iter().any(|m| m.name == *exact),
                "{exact} is declared"
            );
        }
    }
}
