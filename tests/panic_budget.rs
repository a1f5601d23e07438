//! The workspace's panic budget: per crate, how many calls outside tests
//! can panic. The counts may only fall.
//!
//! The rule: in each crate's `src/` (the facade's `src/` is `stellar`),
//! in the non-test code, count `.unwrap()`, `.expect(`, `panic!(`,
//! `unreachable!(`, `todo!(` and `unimplemented!(`. A crate over its pin
//! fails, as does a crate with no pin. A change that removes such calls
//! lowers the pin with it, so the next one cannot spend the room.
//!
//! Non-test code is each file with its `//` comments cut off and every
//! `#[cfg(test)]`-gated item cut out, wherever it stands: a brace-balanced
//! block, or one line up to its `;` or `,`. A gated field halfway down a
//! file hides only itself, not the code below it. A file that a
//! `#[cfg(test)] mod name;` declares is test code all through.

#[path = "support/source_scan.rs"]
mod source_scan;

use std::collections::BTreeMap;

const PANICKING: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Each crate's pinned count.
const BUDGET: [(&str, usize); 15] = [
    ("stellar", 0),
    ("stellar-bench", 6),
    ("stellar-buckets", 14),
    ("stellar-chaos", 2),
    ("stellar-crypto", 0),
    ("stellar-herder", 1),
    ("stellar-horizon", 2),
    ("stellar-ledger", 4),
    ("stellar-overlay", 1),
    ("stellar-persist", 0),
    ("stellar-quorum", 4),
    ("stellar-scp", 4),
    ("stellar-sim", 4),
    ("stellar-store", 5),
    ("stellar-telemetry", 2),
];

/// The package a workspace source path belongs to; `None` for the shims.
fn package(path: &str) -> Option<String> {
    if path.starts_with("src/") {
        return Some("stellar".to_string());
    }
    let dir = path.strip_prefix("crates/")?.split('/').next()?;
    Some(format!("stellar-{dir}"))
}

/// The panicking calls in `code`.
fn panicking_calls(code: &str) -> usize {
    PANICKING.iter().map(|p| code.matches(p).count()).sum()
}

#[test]
fn the_cut_skips_each_gated_item_and_nothing_below_it() {
    let count = |text: &str| panicking_calls(&source_scan::non_test_code(text));
    // A gated field halfway down a file hides only itself.
    let field = "struct S {\n    #[cfg(test)]\n    oracle: bool,\n}\nfn f() { x.unwrap(); }";
    assert_eq!(count(field), 1);
    // A gated block goes whole, braces in its string and char literals too.
    let block = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = (\"}\", '{'); x.unwrap(); }\n\
                 fn u() { panic!(\"no\"); }\n}\nfn g() { y.expect(\"why\"); }";
    assert_eq!(count(block), 1);
    // So do the doc comments and attributes between the gate and the item.
    let docs = "#[cfg(test)]\n/// Only for tests.\n#[allow(dead_code)]\nfn h() { z.unwrap(); }\n\
                fn k() { unreachable!() }";
    assert_eq!(count(docs), 1);
    assert_eq!(count("// .unwrap() in a comment\nfn m() {}"), 0);
}

#[test]
fn no_crate_exceeds_its_panic_budget() {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for (path, code) in source_scan::non_test_sources() {
        let Some(package) = package(&path) else {
            continue;
        };
        *counts.entry(package).or_default() += panicking_calls(&code);
    }
    let budget: BTreeMap<String, usize> = BUDGET.iter().map(|(p, n)| (p.to_string(), *n)).collect();
    assert_eq!(
        counts.keys().collect::<Vec<_>>(),
        budget.keys().collect::<Vec<_>>(),
        "every crate needs a pin: {counts:?}"
    );
    let over: Vec<String> = counts
        .iter()
        .filter(|(p, n)| **n > budget[*p])
        .map(|(p, n)| format!("{p}: {n} > {}", budget[p]))
        .collect();
    assert!(
        over.is_empty(),
        "over budget: {over:?}; all counts: {counts:?}"
    );
}
