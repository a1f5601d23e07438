//! The crates export only what something calls.
//!
//! The rule: every `pub fn` in the non-test code of `crates/*/src` has a
//! reader — its name, as a whole identifier, in the non-test code of
//! another file under `crates/*/src`, `benchmark/src`, `examples/` or the
//! facade's `src/`. Non-test code is each file with its
//! `#[cfg(test)]`-gated items and its `//` comments cut off (the scan
//! `panic_budget.rs` uses), so a test, a doc comment or a gated helper
//! reads nothing. rustc's `dead_code` lint cannot see across crates; this
//! scan can, by name, so it is a lower bound on what is unread.
//!
//! A function nothing reads is deleted, made private or `pub(crate)`
//! (where `dead_code` then guards it), moved under `#[cfg(test)]`, or
//! moved into the test that calls it. What stays is [`ALLOWED`]: each
//! name with a test file that reads it. An entry whose function is gone
//! or has gained a non-test reader is stale and fails too. The list is a
//! budget that may only shrink.

#[path = "support/source_scan.rs"]
mod source_scan;

use std::collections::BTreeSet;

/// The `pub fn`s read only by tests: defining file, name, and a test file
/// that reads it.
#[rustfmt::skip]
const ALLOWED: [(&str, &str, &str); 30] = [
    // The definitions the compiled quorum kernel is checked against.
    ("crates/scp/src/quorum.rs", "satisfied_by", "tests/proptests.rs"),
    ("crates/scp/src/quorum.rs", "blocked_by", "tests/proptests.rs"),
    ("crates/scp/src/quorum.rs", "compile", "tests/proptests.rs"),
    ("crates/scp/src/quorum.rs", "federated_accept", "tests/proptests.rs"),
    ("crates/scp/src/quorum.rs", "federated_confirm", "tests/proptests.rs"),
    ("crates/scp/src/quorum_set.rs", "is_quorum_slice", "tests/proptests.rs"),
    ("crates/scp/src/quorum_set.rs", "is_v_blocking", "tests/proptests.rs"),
    // The write-ahead record format, pinned byte for byte.
    ("crates/persist/src/lib.rs", "frame", "tests/proptests.rs"),
    ("crates/persist/src/lib.rs", "unframe", "tests/proptests.rs"),
    ("crates/herder/src/herder.rs", "scp_record_key", "tests/wire_format.rs"),
    // The archive's readers, which bootstrap from state will decide.
    ("crates/buckets/src/archive.rs", "tx_set_bytes", "tests/tx_sharing.rs"),
    ("crates/buckets/src/archive.rs", "latest_checkpoint_at", "tests/catchup.rs"),
    ("crates/buckets/src/archive.rs", "bucket_blob", "tests/catchup.rs"),
    ("crates/buckets/src/bucket_list.rs", "reconstruct_state", "tests/catchup.rs"),
    // Harness entry points: the SCP network, fault storms and builders.
    ("crates/scp/src/test_harness.rs", "harness_keys", "tests/consensus_safety.rs"),
    ("crates/scp/src/test_harness.rs", "with_qsets", "tests/randomized_faults.rs"),
    ("crates/scp/src/test_harness.rs", "decisions", "tests/consensus_safety.rs"),
    ("crates/scp/src/test_harness.rs", "inject", "tests/consensus_safety.rs"),
    ("crates/chaos/src/recovery.rs", "disk_fault_storm", "crates/chaos/tests/recovery.rs"),
    ("crates/chaos/src/schedule.rs", "link_fault_at", "crates/chaos/tests/acceptance.rs"),
    ("crates/overlay/src/fault.rs", "with_reorder", "tests/pull_flood.rs"),
    ("crates/ledger/src/tx.rs", "with_preimage", "tests/payment_network.rs"),
    // What tests inspect: Horizon lookups and streams, traffic, state sizes.
    ("crates/horizon/src/api.rs", "find_transaction_exhaustive", "tests/horizon_flow.rs"),
    ("crates/horizon/src/ingest.rs", "participants", "tests/horizon_ingest.rs"),
    ("crates/horizon/src/stream.rs", "subscribe", "tests/horizon_determinism.rs"),
    ("crates/overlay/src/stats.rs", "in_count", "tests/scp_traffic.rs"),
    ("crates/overlay/src/stats.rs", "out_bytes", "tests/scp_traffic.rs"),
    ("crates/overlay/src/topology.rs", "is_connected", "crates/sim/src/scenario.rs"),
    ("crates/overlay/src/engine.rs", "seen_ids", "crates/sim/src/simulation.rs"),
    ("crates/scp/src/node.rs", "live_slots", "crates/herder/src/validator.rs"),
];

/// An exported function: its file, line and name.
type Export = (String, usize, String);

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifiers of `code`.
fn identifiers(code: &str) -> BTreeSet<&str> {
    code.split(|c: char| !is_ident(c))
        .filter(|word| !word.is_empty())
        .collect()
}

/// Each `pub fn` (or `pub const fn`) defined in `code`, by line and name.
fn exports(code: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    for (n, line) in code.lines().enumerate() {
        for (at, _) in line.match_indices("pub ") {
            if line[..at].chars().next_back().is_some_and(is_ident) {
                continue;
            }
            let rest = &line[at + 4..];
            let rest = rest.strip_prefix("const ").unwrap_or(rest);
            if let Some(rest) = rest.strip_prefix("fn ") {
                let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
                found.push((n + 1, name));
            }
        }
    }
    found
}

/// Each `pub fn` in a `crates/*/src` file of `sources` whose name no
/// other file of `sources` reads.
fn unread(sources: &[(String, String)]) -> Vec<Export> {
    let readers: Vec<(&str, BTreeSet<&str>)> = sources
        .iter()
        .map(|(path, code)| (path.as_str(), identifiers(code)))
        .collect();
    let mut found = Vec::new();
    for (path, code) in sources {
        if !(path.starts_with("crates/") && path.contains("/src/")) {
            continue;
        }
        for (line, name) in exports(code) {
            let read = readers
                .iter()
                .any(|(other, words)| other != path && words.contains(name.as_str()));
            if !read {
                found.push((path.clone(), line, name));
            }
        }
    }
    found
}

/// What breaks the rule: each unread export not in `allowed`, and each
/// entry of `allowed` that names no unread export (stale).
fn audit(sources: &[(String, String)], allowed: &[(&str, &str, &str)]) -> Vec<String> {
    let hits = unread(sources);
    let listed = |path: &str, name: &str| allowed.iter().any(|(p, n, _)| *p == path && *n == name);
    let mut problems: Vec<String> = hits
        .iter()
        .filter(|(path, _, name)| !listed(path, name))
        .map(|(path, line, name)| format!("unread: {path}:{line} `pub fn {name}`"))
        .collect();
    problems.extend(
        allowed
            .iter()
            .filter(|(path, name, _)| !hits.iter().any(|(p, _, n)| p == path && n == name))
            .map(|(path, name, _)| format!("stale: {path} `{name}` is gone or has a reader")),
    );
    problems
}

#[test]
fn the_scan_tells_unread_exports_from_read_ones() {
    let file = |path: &str, code: &str| (path.to_string(), code.to_string());
    let lib = "crates/a/src/lib.rs";
    let defs = "pub fn called() {}\npub fn uncalled() {}\npub(crate) fn inner() {}\n\
                pub const fn folded() -> u8 { 0 }\nfn private() {}\n";
    let names = |sources: &[(String, String)]| -> Vec<String> {
        unread(sources)
            .into_iter()
            .map(|(_, _, name)| name)
            .collect()
    };

    // A planted uncalled `pub fn` is reported, with its line.
    let sources = [
        file(lib, defs),
        file("benchmark/src/main.rs", "called(); folded();"),
    ];
    assert_eq!(
        unread(&sources),
        [(lib.to_string(), 2, "uncalled".to_string())]
    );

    // A call in its own file is not a reader.
    let own = format!("{defs}fn f() {{ uncalled(); }}");
    assert_eq!(names(&[file(lib, &own), sources[1].clone()]), ["uncalled"]);

    // A call below a gated field still counts: the cut stops at the field.
    let user = "pub struct S {\n    pub x: u8,\n    #[cfg(test)]\n    reference: u8,\n}\n\
                fn f() { called(); uncalled(); folded(); }";
    let sources = [
        file(lib, defs),
        file("crates/b/src/user.rs", &source_scan::non_test_code(user)),
    ];
    assert_eq!(names(&sources), Vec::<String>::new());

    // A doc comment (cut with every `//` comment) or a gated item reads nothing.
    let user = "/// Calls [`uncalled`].\n#[cfg(test)]\nfn g() {\n    uncalled();\n}\n\
                #[cfg(test)]\nuse crate::uncalled;\nfn f() { called(); folded(); }";
    let sources = [
        file(lib, defs),
        file("examples/x.rs", &source_scan::non_test_code(user)),
    ];
    assert_eq!(names(&sources), ["uncalled"]);

    // An allowed name that is gone, or that gained a non-test reader, is stale.
    let sources = [
        file(lib, defs),
        file("benchmark/src/main.rs", "called(); folded();"),
    ];
    let allowed = [(lib, "uncalled", "tests/a.rs")];
    assert!(audit(&sources, &allowed).is_empty());
    let stale = [format!("stale: {lib} `uncalled` is gone or has a reader")];
    let gone = [
        file(lib, "pub fn called() {}\npub const fn folded() {}"),
        sources[1].clone(),
    ];
    assert_eq!(audit(&gone, &allowed), stale);
    let read = [
        file(lib, defs),
        file("src/lib.rs", "called(); folded(); uncalled();"),
    ];
    assert_eq!(audit(&read, &allowed), stale);
    assert_eq!(
        audit(&sources, &[]),
        [format!("unread: {lib}:2 `pub fn uncalled`")]
    );
}

#[test]
fn every_exported_function_has_a_reader() {
    let sources = source_scan::non_test_sources();
    for reach in [
        "crates/scp/src/quorum.rs",
        "benchmark/src/main.rs",
        "examples/quickstart.rs",
    ] {
        assert!(
            sources.iter().any(|(p, _)| p == reach),
            "scan did not reach {reach}"
        );
    }
    let problems = audit(&sources, &ALLOWED);
    assert!(
        problems.is_empty(),
        "{} problems: {problems:#?}",
        problems.len()
    );
    for (path, name, reader) in ALLOWED {
        let text = std::fs::read_to_string(source_scan::root().join(reader))
            .unwrap_or_else(|e| panic!("{reader}, the reader of {path} `{name}`: {e}"));
        assert!(
            identifiers(&text).contains(name),
            "{reader} does not read {path} `{name}`"
        );
    }
}
