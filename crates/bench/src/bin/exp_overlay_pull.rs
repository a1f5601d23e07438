//! E15 — pull-mode overlay flooding: advert/demand vs naïve push.
//!
//! Runs the same loaded network twice per sweep point — once with §7.5
//! push flooding, once with pull-mode advert/demand gossip — and
//! compares total flooded bytes per closed ledger. Production
//! stellar-core moved to exactly this advert/demand scheme to cut the
//! duplicate-payload waste of naïve flooding; the flagship 36-node
//! tiered topology must show at least a 30% reduction.
//!
//! The committed `BENCH_overlay_pull.json` doubles as the regression
//! baseline: reruns fail if the schema drifts or pull-mode flood bytes
//! regress more than 10% above the committed figures.
//!
//! ```sh
//! cargo run --release -p stellar-bench --bin exp_overlay_pull [-- --quick]
//! ```

use stellar_bench::{print_table, write_bench_json};
use stellar_overlay::{FloodMode, MsgKind, TrafficStats};
use stellar_sim::scenario::Scenario;
use stellar_sim::{SimConfig, Simulation};
use stellar_telemetry::Json;

/// One sweep point: a tiered topology under a given load.
#[derive(Clone, Copy)]
struct Config {
    n_orgs: u32,
    validators_per_org: u32,
    n_watchers: u32,
    tx_rate: f64,
    target_ledgers: u64,
    /// The acceptance-gated flagship (36 nodes, §7.2-level load).
    flagship: bool,
}

impl Config {
    fn nodes(&self) -> u32 {
        self.n_orgs * self.validators_per_org + self.n_watchers
    }
}

/// Network-wide traffic outcome of one run.
struct Outcome {
    ledgers: u64,
    bytes_per_ledger: f64,
    net: TrafficStats,
}

fn run_mode(cfg: &Config, mode: FloodMode) -> Outcome {
    let mut sim = Simulation::new(SimConfig {
        scenario: Scenario::PublicNetwork {
            n_orgs: cfg.n_orgs,
            validators_per_org: cfg.validators_per_org,
            n_watchers: cfg.n_watchers,
        },
        n_accounts: 2_000,
        tx_rate: cfg.tx_rate,
        target_ledgers: cfg.target_ledgers,
        seed: 0xE15,
        flood_mode: mode,
        ..SimConfig::default()
    });
    let report = sim.run();
    let mut net = TrafficStats::default();
    for t in report.traffic.values() {
        net.merge(t);
    }
    let ledgers = report.ledgers.len().max(1) as u64;
    assert!(
        report.ledgers.len() as u64 >= cfg.target_ledgers,
        "{:?} run closed only {} of {} ledgers",
        mode,
        report.ledgers.len(),
        cfg.target_ledgers
    );
    Outcome {
        ledgers,
        bytes_per_ledger: net.bytes_out as f64 / ledgers as f64,
        net,
    }
}

/// Loads the committed previous results, if present (they double as the
/// regression baseline).
fn load_committed() -> Option<Json> {
    let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| ".".to_string());
    for candidate in [
        std::path::Path::new(&dir).join("BENCH_overlay_pull.json"),
        std::path::PathBuf::from("BENCH_overlay_pull.json"),
    ] {
        if let Ok(text) = std::fs::read_to_string(&candidate) {
            if let Ok(doc) = Json::parse(&text) {
                return Some(doc);
            }
        }
    }
    None
}

/// Committed pull-mode bytes/ledger for a config, if recorded.
fn committed_pull_rate(doc: &Json, cfg: &Config) -> Option<f64> {
    for r in doc.get("results")?.as_arr()? {
        let matches = |key: &str, v: f64| r.get(key).and_then(Json::as_f64) == Some(v);
        if matches("n_orgs", cfg.n_orgs as f64)
            && matches("validators_per_org", cfg.validators_per_org as f64)
            && matches("n_watchers", cfg.n_watchers as f64)
            && matches("tx_rate", cfg.tx_rate)
        {
            return r.get("pull_bytes_per_ledger").and_then(Json::as_f64);
        }
    }
    None
}

/// Validates the committed document's shape before using it as a gate.
fn check_schema(doc: &Json) {
    let schema = doc.get("schema").and_then(Json::as_str);
    assert_eq!(
        schema,
        Some("stellar-bench/v2"),
        "committed BENCH_overlay_pull.json schema mismatch: {schema:?}"
    );
    let name = doc.get("name").and_then(Json::as_str);
    assert_eq!(
        name,
        Some("overlay_pull"),
        "committed BENCH_overlay_pull.json is not the overlay_pull document"
    );
    assert!(
        doc.get("results").and_then(Json::as_arr).is_some(),
        "committed BENCH_overlay_pull.json has no results array"
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // The quick config is the full sweep's smallest point, so the
    // committed baseline covers it and CI gets a real regression gate.
    let small = Config {
        n_orgs: 3,
        validators_per_org: 3,
        n_watchers: 6,
        tx_rate: 2.0,
        target_ledgers: 6,
        flagship: false,
    };
    let configs: Vec<Config> = if quick {
        vec![small]
    } else {
        vec![
            small,
            Config {
                n_orgs: 4,
                validators_per_org: 3,
                n_watchers: 12,
                tx_rate: 2.0,
                target_ledgers: 6,
                flagship: false,
            },
            // The 36-node tiered topology at the paper's production
            // average (§7.2: 4.5 tx/s): SCP envelopes, which cross each
            // link once in both modes, are a large share of the bytes,
            // so the saving is modest.
            Config {
                n_orgs: 4,
                validators_per_org: 3,
                n_watchers: 24,
                tx_rate: 4.5,
                target_ledgers: 8,
                flagship: false,
            },
            // Flagship: the same 36 nodes under real payment load
            // (§7.3 ramps ledgers into the hundreds of ops). Here
            // Tx/TxSet payloads dominate the flood and pull-mode's
            // once-per-node transfer must cut total bytes ≥30% —
            // acceptance-gated below.
            Config {
                n_orgs: 4,
                validators_per_org: 3,
                n_watchers: 24,
                tx_rate: 20.0,
                target_ledgers: 8,
                flagship: true,
            },
        ]
    };

    let committed = load_committed();
    if let Some(doc) = &committed {
        check_schema(doc);
    }

    println!("=== E15: pull-mode flooding vs push (total flooded bytes/ledger) ===\n");
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for cfg in &configs {
        eprintln!(
            "running {} nodes ({} orgs × {} validators + {} watchers) at {} tx/s, push vs pull …",
            cfg.nodes(),
            cfg.n_orgs,
            cfg.validators_per_org,
            cfg.n_watchers,
            cfg.tx_rate
        );
        let push = run_mode(cfg, FloodMode::Push);
        let pull = run_mode(cfg, FloodMode::Pull);
        let reduction = 1.0 - pull.bytes_per_ledger / push.bytes_per_ledger;

        if cfg.flagship {
            assert!(
                reduction >= 0.30,
                "flagship {}-node topology: pull saved only {:.1}% of flooded bytes (need ≥30%)",
                cfg.nodes(),
                reduction * 100.0
            );
        }
        if let Some(doc) = &committed {
            if let Some(base) = committed_pull_rate(doc, cfg) {
                assert!(
                    pull.bytes_per_ledger <= base * 1.10,
                    "pull-mode flood bytes regressed: {:.0}/ledger vs committed {:.0}/ledger",
                    pull.bytes_per_ledger,
                    base
                );
            }
        }

        rows.push(vec![
            format!("{}", cfg.nodes()),
            format!("{:.1}", cfg.tx_rate),
            format!("{:.0}", push.bytes_per_ledger),
            format!("{:.0}", pull.bytes_per_ledger),
            format!("{:.1}%", reduction * 100.0),
            format!("{}", pull.net.out_count(MsgKind::Advert)),
            format!("{}", pull.net.out_count(MsgKind::Demand)),
            format!("{}", pull.net.pull_timeouts),
        ]);
        results.push(
            Json::obj()
                .set("n_orgs", u64::from(cfg.n_orgs))
                .set("validators_per_org", u64::from(cfg.validators_per_org))
                .set("n_watchers", u64::from(cfg.n_watchers))
                .set("nodes", u64::from(cfg.nodes()))
                .set("tx_rate", cfg.tx_rate)
                .set("target_ledgers", cfg.target_ledgers)
                .set("ledgers_push", push.ledgers)
                .set("ledgers_pull", pull.ledgers)
                .set("push_bytes_per_ledger", push.bytes_per_ledger)
                .set("pull_bytes_per_ledger", pull.bytes_per_ledger)
                .set("bytes_reduction", reduction)
                .set("push_dup_suppressed", push.net.dup_suppressed)
                .set("pull_dup_suppressed", pull.net.dup_suppressed)
                .set("adverts_sent", pull.net.out_count(MsgKind::Advert))
                .set("demands_sent", pull.net.out_count(MsgKind::Demand))
                .set("pull_fulfilled", pull.net.pull_fulfilled)
                .set("pull_timeouts", pull.net.pull_timeouts)
                .set("flagship", cfg.flagship),
        );
    }
    print_table(
        &[
            "nodes",
            "tx/s",
            "push B/ledger",
            "pull B/ledger",
            "saved",
            "adverts",
            "demands",
            "timeouts",
        ],
        &rows,
    );
    println!(
        "\n(push baseline measured in-run with the same seed; committed \
         BENCH_overlay_pull.json gates schema + pull-byte regressions)"
    );

    let doc = Json::obj()
        .set("schema", "stellar-bench/v2")
        .set("name", "overlay_pull")
        .set("quick", quick)
        .set("results", Json::Arr(results));
    write_bench_json("overlay_pull", &doc).expect("write BENCH_overlay_pull.json");
}
