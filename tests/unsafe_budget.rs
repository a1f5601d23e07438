//! The workspace's unsafe budget: one `unsafe` block.
//!
//! It is the call from `stellar_crypto::sha256::compress` into the SHA
//! extension kernel, made only after run-time CPU feature detection. That
//! function is the only one marked `#[allow(unsafe_code)]`; the crypto
//! crate root denies unsafe code so the one function can opt out, and
//! every other crate root forbids it. This test scans the sources and
//! fails on a second `unsafe`, a second opt-out, or a crate root that lost
//! its lint.

#[path = "support/source_scan.rs"]
mod source_scan;

use source_scan::{root, source_dirs, sources};
use std::fs;
use std::path::PathBuf;

/// The function allowed to hold the block, and the file it lives in.
const ALLOWED_FN: &str = "fn compress(";
const ALLOWED_FILE: &str = "crates/crypto/src/sha256.rs";
const CRYPTO_ROOT: &str = "crates/crypto/src/lib.rs";

/// Byte offsets of `word` in `code` where it stands as a whole identifier.
fn word_offsets(code: &str, word: &str) -> Vec<usize> {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    code.match_indices(word)
        .map(|(at, _)| at)
        .filter(|&at| {
            !ident(code[..at].chars().next_back()) && !ident(code[at + word.len()..].chars().next())
        })
        .collect()
}

/// The byte range of the body of the function whose signature starts at
/// `sig`: from its first `{` to the matching `}`.
fn body(code: &str, sig: usize) -> std::ops::Range<usize> {
    let open = sig + code[sig..].find('{').expect("function body");
    let mut depth = 0usize;
    for (i, c) in code[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return open..open + i + 1;
                }
            }
            _ => {}
        }
    }
    panic!("unbalanced braces after offset {sig}");
}

#[test]
fn one_unsafe_block_in_the_sha256_dispatcher() {
    let sources = sources();
    assert!(
        sources.iter().any(|(path, _)| path == ALLOWED_FILE),
        "scan did not reach {ALLOWED_FILE}"
    );

    let blocks: Vec<(&str, usize)> = sources
        .iter()
        .flat_map(|(path, code)| {
            word_offsets(code, "unsafe")
                .into_iter()
                .map(move |at| (path.as_str(), at))
        })
        .collect();
    let opt_outs: Vec<(&str, usize)> = sources
        .iter()
        .flat_map(|(path, code)| {
            code.match_indices("allow(unsafe_code)")
                .map(move |(at, _)| (path.as_str(), at))
        })
        .collect();
    assert_eq!(blocks.len(), 1, "`unsafe` outside the budget: {blocks:?}");
    assert_eq!(
        opt_outs.len(),
        1,
        "more than one `allow(unsafe_code)`: {opt_outs:?}"
    );

    let (path, block) = blocks[0];
    let (allow_path, allow) = opt_outs[0];
    assert_eq!((path, allow_path), (ALLOWED_FILE, ALLOWED_FILE));
    let code = &sources
        .iter()
        .find(|(p, _)| p == ALLOWED_FILE)
        .expect("file")
        .1;
    let after_attr = allow + code[allow..].find(']').expect("attribute end") + 1;
    let sig = after_attr + code[after_attr..].find(ALLOWED_FN).expect("allowed fn");
    assert!(
        code[after_attr..sig].trim().is_empty(),
        "`#[allow(unsafe_code)]` must sit on `{ALLOWED_FN}..)` and nothing else"
    );
    assert!(
        body(code, sig).contains(&block),
        "the one `unsafe` must be inside `{ALLOWED_FN}..)`"
    );
}

#[test]
fn every_other_crate_root_forbids_unsafe_code() {
    let roots: Vec<PathBuf> = source_dirs()
        .iter()
        .map(|d| d.join("lib.rs"))
        .filter(|p| p.is_file())
        .collect();
    assert!(roots.len() >= 15, "found only {} crate roots", roots.len());
    for path in roots {
        let rel = path
            .strip_prefix(root())
            .expect("under root")
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(&path).expect("read crate root");
        let lint = if rel == CRYPTO_ROOT {
            "#![deny(unsafe_code)]"
        } else {
            "#![forbid(unsafe_code)]"
        };
        assert!(
            text.lines().any(|l| l.trim() == lint),
            "{rel} lacks `{lint}`"
        );
    }
}
