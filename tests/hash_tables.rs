//! Every hash table in the crates hashes with `stellar_crypto::IdState`.
//!
//! The rule: in the non-test code of each `crates/*/src` — every file with
//! its `//` comments and each `#[cfg(test)]`-gated item cut off, wherever
//! the gate stands (the scan `panic_budget.rs` uses) — no `HashMap` or
//! `HashSet` may take std's default hasher — not as
//! a type that leaves the hasher parameter out, and not through
//! `::new(` or `::with_capacity(`, which exist only for it. Use
//! `IdMap`/`IdSet` and `IdState::default()` instead: the tables are keyed
//! by peer-chosen ids, and std's SipHash spends most of a probe re-mixing
//! bytes a SHA-256 already spread.

#[path = "support/source_scan.rs"]
mod source_scan;

/// Each table type and how many type parameters name its hasher too.
const TABLES: [(&str, usize); 2] = [("HashMap", 3), ("HashSet", 2)];

/// The file that defines the aliases, which the scan must reach.
const ALIASES: &str = "crates/crypto/src/idhash.rs";

/// The number of top-level type arguments in `generics`, which starts
/// just after a `<`; `None` if it never closes.
fn type_args(generics: &str) -> Option<usize> {
    let (mut depth, mut args, mut prev) = (0usize, 1, ' ');
    for c in generics.chars() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' if prev == '-' => {}
            '>' | ')' | ']' if depth == 0 => return Some(args),
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => args += 1,
            _ => {}
        }
        prev = c;
    }
    None
}

/// Each use of a default-hasher table in `code`, as the text that starts it.
fn default_hasher_tables(code: &str) -> Vec<String> {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut found = Vec::new();
    for (table, with_hasher) in TABLES {
        for (at, _) in code.match_indices(table) {
            let after = &code[at + table.len()..];
            if ident(code[..at].chars().next_back()) || ident(after.chars().next()) {
                continue;
            }
            let rest = after.trim_start().trim_start_matches("::").trim_start();
            let defaulted = if let Some(generics) = rest.strip_prefix('<') {
                type_args(generics).is_some_and(|n| n < with_hasher)
            } else {
                rest.starts_with("new(") || rest.starts_with("with_capacity(")
            };
            if defaulted {
                let line = after.chars().take_while(|c| !matches!(c, '\n' | ';'));
                found.push(format!("{table}{}", line.take(40).collect::<String>()));
            }
        }
    }
    found
}

#[test]
fn the_detector_tells_default_tables_from_keyed_ones() {
    let flagged = |code: &str| default_hasher_tables(code).len();
    assert_eq!(flagged("let m: HashMap<u64, u64> = HashMap::new();"), 2);
    assert_eq!(flagged("seen: std::collections::HashSet<Hash256>,"), 1);
    assert_eq!(flagged("HashMap::with_capacity(n)"), 1);
    assert_eq!(flagged("x.collect::<HashSet<_>>()"), 1);
    assert_eq!(flagged("HashMap<(AccountId, Asset), Vec<u8>>"), 1);
    assert_eq!(flagged("HashMap<u64, fn(u8) -> u8>"), 1);
    assert_eq!(flagged("HashMap<K, V, IdState>"), 0);
    assert_eq!(flagged("HashSet<(u8, u8), IdState>"), 0);
    assert_eq!(flagged("use std::collections::{HashMap, HashSet};"), 0);
    assert_eq!(flagged("IdMap::default(); MyHashMap::new()"), 0);
    // Gated code may use the default hasher; code below a gated field may not.
    let file = "#[cfg(test)]\nfn t() { HashMap::<u8, u8>::new(); }\n\
                struct S {\n    #[cfg(test)]\n    x: u8,\n}\nfn f() { HashSet::<u8>::new(); }";
    assert_eq!(flagged(&source_scan::non_test_code(file)), 1);
}

#[test]
fn no_crate_table_uses_the_default_hasher() {
    let sources = source_scan::non_test_sources();
    assert!(
        sources.iter().any(|(path, _)| path == ALIASES),
        "scan did not reach {ALIASES}"
    );
    let found: Vec<String> = sources
        .iter()
        .filter(|(path, _)| path.starts_with("crates/"))
        .flat_map(|(path, code)| {
            default_hasher_tables(code)
                .into_iter()
                .map(move |hit| format!("{path}: {hit}"))
        })
        .collect();
    assert!(
        found.is_empty(),
        "default-hasher tables (use IdMap/IdSet): {found:#?}"
    );
}
