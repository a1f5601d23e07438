//! The paper's evaluation as asserted shapes: for every artefact `repro`
//! regenerates, what the paper reports, the shape asserted and the
//! predicate that tests it against what this tree measures (`ours`).
//!
//! `ours` holds only simulated-time and exact values, so
//! `PAPER_REPRO.json` is byte-identical across runs, machines, SHA-256
//! kernels and store backends, and anyone can re-check a shape by hand.
//! Wall-clock context is printed beside a row, never written or asserted.

#![forbid(unsafe_code)]

use stellar_telemetry::Json;

/// One artefact: the paper's claim, the shape asserted, and its test.
pub struct Shape {
    /// Artefact id (`E1`–`E21`; `A1` is the §3.2.5 ablation).
    pub id: &'static str,
    /// What the paper reports.
    pub paper: &'static str,
    /// The asserted shape, in words.
    pub shape: &'static str,
    /// The shape as a predicate over the row's `ours` object.
    pub holds: fn(&Json) -> bool,
}

/// One reproduced artefact: its shape, what this tree measures
/// (simulated-time and exact values only) and whether that has the shape.
pub struct Row {
    /// The artefact.
    pub shape: &'static Shape,
    /// What this tree measures.
    pub ours: Json,
    /// Whether `ours` has the shape.
    pub holds: bool,
    /// Wall-clock context, printed and never written.
    pub wall: String,
}

impl Row {
    /// Judges `ours` against the [`SHAPES`] entry `id` (panics if none).
    pub fn new(id: &str, ours: Json) -> Row {
        let shape = SHAPES.iter().find(|s| s.id == id).expect("a registered id");
        let holds = (shape.holds)(&ours);
        Row {
            shape,
            ours,
            holds,
            wall: String::new(),
        }
    }

    /// Attaches wall-clock context to print beside the row.
    pub fn wall(self, wall: String) -> Row {
        Row { wall, ..self }
    }
}

fn num(o: &Json, key: &str) -> f64 {
    o.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn nums(o: &Json, key: &str) -> Vec<f64> {
    let arr = o.get(key).and_then(Json::as_arr).unwrap_or(&[]);
    arr.iter().map(|x| x.as_f64().unwrap_or(f64::NAN)).collect()
}

/// True when `key` is `true`, or a non-empty array of `true`s.
fn yes(o: &Json, key: &str) -> bool {
    match o.get(key) {
        Some(Json::Bool(b)) => *b,
        Some(Json::Arr(a)) => !a.is_empty() && a.iter().all(|x| *x == Json::Bool(true)),
        _ => false,
    }
}

/// Every value in `[lo, hi]` (and at least one value).
fn within(xs: &[f64], lo: f64, hi: f64) -> bool {
    !xs.is_empty() && xs.iter().all(|x| (lo..=hi).contains(x))
}

/// Every value of `key` is 0.
fn zeros(o: &Json, key: &str) -> bool {
    within(&nums(o, key), 0.0, 0.0)
}

/// Every value of `key` is at least 1.
fn positive(o: &Json, key: &str) -> bool {
    within(&nums(o, key), 1.0, f64::INFINITY)
}

/// A flat series: positive, every value within `ratio`× of the smallest.
fn flat(xs: &[f64], ratio: f64) -> bool {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    min > 0.0 && within(xs, min, ratio * min)
}

/// Strictly increasing, over at least two points.
fn rising(xs: &[f64]) -> bool {
    xs.len() >= 2 && xs.windows(2).all(|w| w[0] < w[1])
}

/// `f(a[i], b[i])` for every `i` of equal-length, non-empty series.
fn pairwise(o: &Json, a: &str, b: &str, f: fn(f64, f64) -> bool) -> bool {
    let (a, b) = (nums(o, a), nums(o, b));
    !a.is_empty() && a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| f(*x, *y))
}

/// The values of `key` at the points where `axis` equals `at`.
fn at(o: &Json, key: &str, axis: &str, at: f64) -> Vec<f64> {
    let (xs, axis) = (nums(o, key), nums(o, axis));
    (0..xs.len().min(axis.len()))
        .filter(|i| axis[*i] == at)
        .map(|i| xs[i])
        .collect()
}

/// §7.3's ledger cadence: the 5 s close timer plus consensus.
fn five_second_close(xs: &[f64]) -> bool {
    within(xs, 4.95, 5.2)
}

/// Every artefact `repro` regenerates, in document order.
pub const SHAPES: [Shape; 19] = [
    Shape {
        id: "E1",
        paper: "§7.2 public network (68 h): consensus 1061 ms mean, 2252 ms p99; ledger update 46 ms mean, 142 ms p99; a ledger every ~5 s",
        shape: "consensus at most the paper's 1061 ms mean and 2252 ms p99 (WAN round trips without leader-timeout spikes); a ledger every 4.95-5.2 s",
        holds: |o| {
            num(o, "consensus_ms_mean") <= 1061.0 && num(o, "consensus_ms_p99") <= 2252.0
                && five_second_close(&[num(o, "close_s")])
        },
    },
    Shape {
        id: "E2",
        paper: "§7.2: about 7 logical SCP messages per validator per ledger (6-7 measured), 1.3 per second",
        shape: "6-8 SCP messages per validator per ledger, 1.0-1.6 per second",
        holds: |o| {
            within(&[num(o, "scp_msgs_per_ledger_per_validator")], 6.0, 8.0)
                && within(&[num(o, "scp_msgs_per_s_per_validator")], 1.0, 1.6)
        },
    },
    Shape {
        id: "E3",
        paper: "Fig. 8 (68 h): timeouts per ledger, nomination / balloting: p75 0 / 0, p99 1 / 0, max 4 / 1",
        shape: "p75 is 0 for both kinds; the maximum is at most the paper's 4 nomination and 1 ballot timeouts",
        holds: |o| {
            num(o, "nomination_p75") == 0.0 && num(o, "ballot_p75") == 0.0
                && num(o, "nomination_max") <= 4.0 && num(o, "ballot_max") <= 1.0
        },
    },
    Shape {
        id: "E4",
        paper: "Fig. 9 (4 validators, 100 tx/s, 1e5-5e7 accounts): nomination and balloting flat in accounts; bucket merging grows",
        shape: "over 50x the accounts, nomination and balloting each stay within 1.25x of their minimum; bucket merge work rises with accounts",
        holds: |o| {
            flat(&nums(o, "nomination_ms"), 1.25) && flat(&nums(o, "balloting_ms"), 1.25)
                && rising(&nums(o, "bucket_merge_work"))
        },
    },
    Shape {
        id: "E5",
        paper: "Fig. 10 (100k accounts, 4 validators, 100-350 tx/s): consensus grows slowly; ledger update grows with transactions per ledger",
        shape: "transactions per ledger rise with load; nomination + balloting stays within 1.25x of its minimum (ledger update is wall-clock: printed, not asserted)",
        holds: |o| {
            let (nom, bal) = (nums(o, "nomination_ms"), nums(o, "balloting_ms"));
            let consensus: Vec<f64> = nom.iter().zip(&bal).map(|(n, b)| n + b).collect();
            rising(&nums(o, "tx_per_ledger")) && flat(&consensus, 1.25)
        },
    },
    Shape {
        id: "E6",
        paper: "Fig. 11 (100 tx/s, 4-43 validators, every validator in every slice): nomination grows slowly; balloting grows and is the bottleneck; ledger update independent",
        shape: "full mesh, simple-majority slices, 20k accounts: nomination at 43 validators is at least 1.3x that at 4; balloting stays within 1.2x of its minimum; 6.75-7.25 SCP messages per validator per ledger at every size. Deviation: balloting does not grow here (the simulated overlay has unbounded bandwidth)",
        holds: |o| {
            let nom = nums(o, "nomination_ms");
            nom.len() >= 2 && nom[nom.len() - 1] >= 1.3 * nom[0]
                && flat(&nums(o, "balloting_ms"), 1.2)
                && within(&nums(o, "scp_msgs_per_ledger_per_validator"), 6.75, 7.25)
        },
    },
    Shape {
        id: "E7",
        paper: "§7.3 baseline (100k accounts, 4 validators, 100 tx/s): 507 +/- 49 transactions per ledger; nomination 82.53 ms, balloting 95.96 ms, ledger update 174.08 ms",
        shape: "mean transactions per ledger inside the paper's 507 +/- 49; nomination shorter than balloting",
        holds: |o| {
            within(&[num(o, "tx_per_ledger")], 458.0, 556.0)
                && num(o, "nomination_ms") < num(o, "balloting_ms")
        },
    },
    Shape {
        id: "E8",
        paper: "§7.3: mean close interval 5.03 s, 5.10 s and 5.15 s across the three sweeps",
        shape: "every run of E4-E7 closes a ledger every 4.95-5.2 s",
        holds: |o| {
            let sweeps = ["fig9_close_s", "fig10_close_s", "fig11_close_s"];
            sweeps.iter().all(|k| five_second_close(&nums(o, k)))
                && five_second_close(&[num(o, "baseline_close_s")])
        },
    },
    Shape {
        id: "E9",
        paper: "§7.4: a production validator with 28 peers moves 2.78 Mbit/s in and 2.56 Mbit/s out",
        shape: "a core validator moves under 10 Mbit/s each way, in and out within 2x of each other",
        holds: |o| {
            let (i, out) = (num(o, "mbit_per_s_in"), num(o, "mbit_per_s_out"));
            i > 0.0 && i < 10.0 && out < 10.0 && within(&[out / i], 0.5, 2.0)
        },
    },
    Shape {
        id: "E10",
        paper: "§6.2.1: quorum closures of 20-30 nodes check for intersection in seconds on one CPU",
        shape: "every tiered configuration of 12-32 validators intersects with no critical org and no search branch (check time: benchmark row quorum.intersection.check_ms)",
        holds: |o| yes(o, "intersects") && zeros(o, "critical_orgs") && zeros(o, "branches"),
    },
    Shape {
        id: "E11",
        paper: "Fig. 6 / §6.1: each org a 51% inner set; quality groups at 67%, the critical group at 100%",
        shape: "the critical level needs every entry, each lower level at least 67%, each org a majority of its validators; no warning; the configuration intersects",
        holds: |o| {
            let (t, n) = (nums(o, "level_thresholds"), nums(o, "level_entries"));
            t.first().is_some_and(|t0| Some(t0) == n.first())
                && pairwise(o, "level_thresholds", "level_entries", |t, n| 3.0 * t >= 2.0 * n)
                && pairwise(o, "org_thresholds", "org_sizes", |t, n| 2.0 * t > n)
                && num(o, "warnings") == 0.0 && yes(o, "intersects")
        },
    },
    Shape {
        id: "A1",
        paper: "§3.2.5: Europe runs 4 nodes, China 1000, each puts 3 in every slice; an unweighted leader choice lets China lead 99.6% of slots",
        shape: "unweighted strawman: China leads over 95% of slots; SCP's slice-weighted neighbours: under 50%",
        holds: |o| {
            num(o, "strawman_china_led") > 0.95 * num(o, "slots")
                && num(o, "weighted_china_led") < 0.5 * num(o, "slots")
        },
    },
    Shape {
        id: "E13",
        paper: "§3, §6: nodes stay safe while the ill-behaved set is dispensable, and live while their quorum is intact",
        shape: "7 validators, n - f slices, f = 2: with k <= 2 Byzantine nodes 7 - k stay intact; at k = 3 nobody is intact (no promise left to break); no run has a safety violation or a stall; every fault cocktail keeps all 7 intact with no violation",
        holds: |o| {
            nums(o, "adversaries") == [0.0, 1.0, 2.0, 3.0]
                && nums(o, "intact") == [7.0, 6.0, 5.0, 0.0]
                && zeros(o, "safety_violations") && zeros(o, "liveness_stalls")
                && within(&nums(o, "cocktail_intact"), 7.0, 7.0) && zeros(o, "cocktail_violations")
        },
    },
    Shape {
        id: "E15",
        paper: "§7.5: naive flooding sends every payload over every link (production later moved to advert/demand pull)",
        shape: "every run closes its target; pull never floods more bytes than push, saves more as load grows at 36 nodes, and at 36 nodes / 20 tx/s saves at least 40% (41.4% since a set crosses only when SCP names it, which cuts push bytes more than pull; 43.7% when every proposer pushed its set; 41.9% when only SCP originators pushed; 33.8% when SCP relays pushed too); no demand times out",
        holds: |o| {
            let at36 = at(o, "saving", "nodes", 36.0);
            pairwise(o, "ledgers", "target_ledgers", |l, t| l >= t)
                && pairwise(o, "pull_bytes_per_ledger", "push_bytes_per_ledger", |a, b| a <= b)
                && rising(&at36) && at36.last().is_some_and(|s| *s >= 0.40)
                && zeros(o, "pull_timeouts")
        },
    },
    Shape {
        id: "E16",
        paper: "§5.4: a rebooted validator rebuilds from its own history archive; the cost follows how far it fell behind",
        shape: "at every gap the replay covers exactly the gap, all 20 payments per ledger apply and the tip equals the archive's; archive bytes per ledger stay within 2x across gaps; the write-ahead LCL record has one size",
        holds: |o| {
            let (gap, archive) = (nums(o, "gap"), nums(o, "archive_bytes"));
            let per_ledger: Vec<f64> = archive.iter().zip(&gap).map(|(b, g)| b / g).collect();
            gap == nums(o, "replayed")
                && pairwise(o, "payments_applied", "gap", |p, g| p == 20.0 * g)
                && yes(o, "tip_matches") && flat(&per_ledger, 2.0)
                && flat(&nums(o, "lcl_bytes"), 1.0)
        },
    },
    Shape {
        id: "E17",
        paper: "§4.3 / Fig. 3: validators hold the whole ledger in RAM; the bucket list is log-structured",
        shape: "mem and disk twins end on identical header and bucket hashes; every close applies all its payments and flushes; each disk run misses the cache and reads at most 256 B per miss (one record); at 1M accounts disk residency stays under 96 MiB + 96 B per account and below the mem twin's",
        holds: |o| {
            let disk = at(o, "disk_resident_bytes", "accounts", 1e6);
            let mem = at(o, "mem_resident_bytes", "accounts", 1e6);
            yes(o, "twins_identical") && yes(o, "closes_clean")
                && within(&nums(o, "disk_cache_hit_ratio"), 0.0, 0.999)
                && within(&nums(o, "disk_read_bytes_per_miss"), 1.0, 256.0)
                && disk.len() == 1 && within(&disk, 0.0, 96.0 * 1048576.0 + 96e6) && disk < mem
        },
    },
    Shape {
        id: "E18",
        paper: "§7.3 / Fig. 7: a payment is applied about 5 s after submission",
        shape: "every run closes its target; every applied transaction completes submit -> apply; a same-seed twin renders identical trace rows; no watchdog alert; submit -> apply p50 within one 5 s close, p99 within two (tracing overhead: benchmark row bench.trace_overhead_pct)",
        holds: |o| {
            pairwise(o, "ledgers", "target_ledgers", |l, t| l >= t)
                && yes(o, "complete") && yes(o, "twin_identical") && zeros(o, "alerts")
                && within(&nums(o, "submit_to_apply_ms_p50"), 0.0, 5000.0)
                && within(&nums(o, "submit_to_apply_ms_p99"), 0.0, 10000.0)
        },
    },
    Shape {
        id: "E20",
        paper: "§5: Horizon ingests ledger changes and serves clients off the consensus path",
        shape: "every run closes its target and serves queries; per-close ingestion keeps the indexer at the head with lag 0, an 8 s cadence shows lag; pipeline on/off twins externalize identical headers; a 10x burst is shed at the door while closes stay within 1.6x of the unburdened interval; 1M distinct clients leave the admission table within its bound by recycling (query latency: benchmark row horizon.query_ms_p50)",
        holds: |o| {
            pairwise(o, "ledgers", "target_ledgers", |l, t| l >= t)
                && positive(o, "queries") && positive(o, "ingested") && yes(o, "indexer_at_head")
                && within(&at(o, "lag_max", "cadence_ms", 0.0), 0.0, 0.0)
                && within(&at(o, "lag_max", "cadence_ms", 8000.0), 1.0, f64::INFINITY)
                && yes(o, "twin_identical") && positive(o, "burst_shed")
                && pairwise(o, "burst_close_ms", "base_close_ms", |b, a| b <= 1.6 * a + 1.0)
                && num(o, "front_door_tracked") <= num(o, "front_door_max_sources")
                && num(o, "front_door_recycles") > 0.0
        },
    },
    Shape {
        id: "E21",
        paper: "§6.2 at internet scale; Kim et al., Is Stellar As Secure As You Think?: the trust graph is centralized, so losing top-tier orgs cascades",
        shape: "all 15 generated FBAS (20-500 orgs, 3 families) intersect, each check (the 500-org tier-weighted one included) with 0 search branches; in every family top-tier-first failures hit the fatal stage sooner than random ones; a twin regeneration of every failure order and frontier is identical (check time: benchmark row quorum.intersection.check_ms; the simulated cross-check below and past the frontier: crates/chaos/tests/cascade.rs)",
        holds: |o| {
            nums(o, "checker_branches").len() == 15
                && yes(o, "checker_intersects") && zeros(o, "checker_branches")
                && pairwise(o, "frontier_top_tier_first", "frontier_random", |t, r| t < r)
                && yes(o, "twin_identical")
        },
    },
];

/// Renders rows as the committed document: one object per row, one
/// `ours` field per line with a compact value.
pub fn render(rows: &[Row]) -> String {
    let quote = |s: &str| Json::from(s).render();
    let row = |r: &Row| {
        let Json::Obj(ours) = &r.ours else {
            panic!("{}: ours must be an object", r.shape.id)
        };
        let fields: Vec<String> = ours
            .iter()
            .map(|(k, v)| format!("      {}: {}", quote(k), v.render()))
            .collect();
        let (id, paper, shape) = (
            quote(r.shape.id),
            quote(r.shape.paper),
            quote(r.shape.shape),
        );
        let (ours, holds) = (fields.join(",\n"), r.holds);
        let head = format!("  {{\n    \"id\": {id},\n    \"paper\": {paper},\n    \"ours\": {{\n");
        format!("{head}{ours}\n    }},\n    \"shape\": {shape},\n    \"holds\": {holds}\n  }}")
    };
    let rows: Vec<String> = rows.iter().map(row).collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Prints every row: id, verdict and paper claim, then what we measured,
/// the shape, and any wall-clock context.
pub fn print_table(rows: &[Row]) {
    for r in rows {
        let verdict = if r.holds { "ok" } else { "FAIL" };
        println!("{:<4} {verdict:<4}  {}", r.shape.id, r.shape.paper);
        let Json::Obj(ours) = &r.ours else { continue };
        for (k, v) in ours {
            println!("{:11}{k} = {}", "", v.render());
        }
        println!("{:11}shape: {}", "", r.shape.shape);
        if !r.wall.is_empty() {
            println!("{:11}wall-clock (not asserted): {}", "", r.wall);
        }
        println!();
    }
}

/// Rounds to `places` decimals, so the document reads as measured.
pub fn round(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}
