//! The workspace's panic budget: per crate, how many calls outside tests
//! can panic. The counts may only fall.
//!
//! The rule: in each crate's `src/` (the facade's `src/` is `stellar`),
//! on every line above the file's first `#[cfg(test)]`, with `//`
//! comments cut off, count `.unwrap()`, `.expect(`, `panic!(`,
//! `unreachable!(`, `todo!(` and `unimplemented!(`. A crate over its pin
//! fails, as does a crate with no pin. A change that removes such calls
//! lowers the pin with it, so the next one cannot spend the room.

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
    ("stellar-horizon", 0),
    ("stellar-ledger", 4),
    ("stellar-overlay", 1),
    ("stellar-persist", 0),
    ("stellar-quorum", 4),
    ("stellar-scp", 2),
    ("stellar-sim", 4),
    ("stellar-store", 8),
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

#[test]
fn no_crate_exceeds_its_panic_budget() {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for (path, code) in source_scan::sources() {
        let Some(package) = package(&path) else {
            continue;
        };
        let code = code
            .find("#[cfg(test)]")
            .map_or(&code[..], |at| &code[..at]);
        let n: usize = PANICKING.iter().map(|p| code.matches(p).count()).sum();
        *counts.entry(package).or_default() += n;
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
