//! Every shape accepts the committed `PAPER_REPRO.json` and rejects a
//! hand-built counterexample: the committed `ours` with one value moved
//! the way a regression would move it.

use stellar_bench::SHAPES;
use stellar_telemetry::Json;

/// The committed `ours` of artefact `id`.
fn committed(id: &str) -> Json {
    let doc = Json::parse(include_str!("../../../PAPER_REPRO.json")).expect("parses");
    let mut rows = doc.as_arr().unwrap_or(&[]).iter();
    let row = rows.find(|r| r.get("id").and_then(Json::as_str) == Some(id));
    let ours = row.and_then(|r| r.get("ours")).cloned();
    ours.unwrap_or_else(|| panic!("{id} missing from PAPER_REPRO.json"))
}

#[test]
fn every_shape_holds_on_the_committed_document_and_rejects_a_counterexample() {
    // (artefact, key, element of an array key, regressed value)
    let cases: Vec<(&str, &str, Option<usize>, Json)> = vec![
        ("E1", "consensus_ms_p99", None, 2300.0.into()),
        ("E2", "scp_msgs_per_ledger_per_validator", None, 14.0.into()),
        ("E3", "nomination_p75", None, 1.0.into()),
        ("E4", "balloting_ms", Some(4), 70.0.into()),
        ("E4", "bucket_merge_work", Some(4), 25_000.0.into()),
        ("E5", "tx_per_ledger", Some(5), 1_200.0.into()),
        // The paper's Fig. 11 balloting growth is a stated deviation,
        // not a passing shape.
        ("E6", "balloting_ms", Some(5), 80.0.into()),
        ("E6", "nomination_ms", Some(5), 45.0.into()),
        ("E7", "nomination_ms", None, 60.0.into()),
        ("E8", "fig11_close_s", Some(5), 5.5.into()),
        ("E9", "mbit_per_s_in", None, 12.0.into()),
        ("E10", "critical_orgs", Some(4), 1.0.into()),
        ("E11", "level_thresholds", Some(0), 2.0.into()),
        ("A1", "weighted_china_led", None, 4_980.0.into()),
        ("E13", "safety_violations", Some(1), 1.0.into()),
        ("E13", "intact", Some(3), 4.0.into()),
        ("E15", "saving", Some(3), 0.338.into()),
        ("E15", "pull_timeouts", Some(2), 3.0.into()),
        ("E16", "lcl_bytes", Some(2), 600.0.into()),
        ("E17", "disk_read_bytes_per_miss", Some(0), 852.0.into()),
        ("E17", "twins_identical", Some(1), false.into()),
        ("E18", "twin_identical", Some(1), false.into()),
        ("E18", "submit_to_apply_ms_p50", Some(0), 5_200.0.into()),
        ("E20", "burst_shed", Some(0), 0.0.into()),
        ("E20", "lag_max", Some(0), 1.0.into()),
        ("E21", "frontier_top_tier_first", Some(0), 11.0.into()),
        ("E21", "checker_branches", Some(9), 3.0.into()),
        ("E21", "twin_identical", None, false.into()),
    ];
    for s in &SHAPES {
        let ours = committed(s.id);
        assert!((s.holds)(&ours), "{} fails on the committed values", s.id);
        let mine: Vec<_> = cases.iter().filter(|c| c.0 == s.id).collect();
        assert!(!mine.is_empty(), "{} has no counterexample", s.id);
        for (_, key, i, v) in mine {
            let value = match i {
                None => v.clone(),
                Some(i) => {
                    let mut a = ours.get(key).and_then(Json::as_arr).expect(key).to_vec();
                    a[*i] = v.clone();
                    Json::Arr(a)
                }
            };
            let bad = ours.clone().set(key, value);
            assert!(
                !(s.holds)(&bad),
                "{} accepts {key}[{i:?}] = {}",
                s.id,
                v.render()
            );
        }
    }
}
