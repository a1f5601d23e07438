//! The source scan the budget tests share: every workspace `.rs` file
//! under a `src/` directory, read as code with its comments cut off, and
//! its non-test part, with every `#[cfg(test)]`-gated item cut out.

use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// The workspace root.
pub(crate) fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `src/` directory of the workspace: the facade's, each crate's and
/// each shim's.
pub(crate) fn source_dirs() -> Vec<PathBuf> {
    let mut dirs = vec![root().join("src")];
    for parent in ["crates", "shims"] {
        for entry in fs::read_dir(root().join(parent)).expect("read crate dir") {
            let src = entry.expect("dir entry").path().join("src");
            if src.is_dir() {
                dirs.push(src);
            }
        }
    }
    dirs.sort();
    dirs
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `text` with `//` comments cut off: comments may name what the code
/// may not use.
fn cut_comments(text: &str) -> String {
    let code: Vec<&str> = text
        .lines()
        .map(|line| line.find("//").map_or(line, |at| &line[..at]))
        .collect();
    code.join("\n")
}

/// Each `.rs` file under `dirs`, relative path and text with `//`
/// comments cut off.
fn read_sources(dirs: &[PathBuf]) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for dir in dirs {
        rust_files(dir, &mut files);
    }
    files.sort();
    files
        .iter()
        .map(|path| {
            let text = fs::read_to_string(path).expect("read source");
            let rel = path.strip_prefix(root()).expect("under root");
            (
                rel.to_string_lossy().replace('\\', "/"),
                cut_comments(&text),
            )
        })
        .collect()
}

/// Each workspace source file, test code included.
pub(crate) fn sources() -> Vec<(String, String)> {
    read_sources(&source_dirs())
}

/// The `{` and `}` on one line of code, outside string and char literals.
fn braces(line: &str) -> (usize, usize) {
    let (mut opens, mut closes) = (0, 0);
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                while let Some(c) = chars.next() {
                    if c == '\\' {
                        chars.next();
                    } else if c == '"' {
                        break;
                    }
                }
            }
            // A char literal (`'{'`, `'\''`); a lifetime has no closing quote.
            '\'' => {
                let mut ahead = chars.clone();
                match ahead.next() {
                    Some('\\') => {
                        chars.next();
                        chars.next();
                        while chars.next().is_some_and(|c| c != '\'') {}
                    }
                    Some(_) if ahead.next() == Some('\'') => {
                        chars.next();
                        chars.next();
                    }
                    _ => {}
                }
            }
            '{' => opens += 1,
            '}' => closes += 1,
            _ => {}
        }
    }
    (opens, closes)
}

/// Each item `#[cfg(test)]` gates in `code`, as the range of its lines:
/// the gate, any attributes and blank lines after it, and the item — a
/// brace-balanced block (a `mod tests`, an `impl`, a function), or else
/// the lines up to one that ends in `;` or `,` (a field, a `use`, a
/// declaration). The rule `scripts/nontest_lines.sh` counts by.
fn gated_items(code: &str) -> Vec<Range<usize>> {
    let lines: Vec<&str> = code.lines().collect();
    let mut items = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let Some(rest) = lines[i].trim_start().strip_prefix("#[cfg(test)]") else {
            i += 1;
            continue;
        };
        let start = i;
        let mut line = rest;
        while line.trim().is_empty() || line.trim_start().starts_with("#[") {
            i += 1;
            match lines.get(i) {
                Some(next) => line = next,
                None => break,
            }
        }
        let (mut depth, mut opened) = (0isize, false);
        while i < lines.len() {
            let (opens, closes) = braces(line);
            depth += opens as isize - closes as isize;
            opened |= opens > 0;
            let end = line.trim_end();
            if (opened && depth <= 0) || (!opened && (end.ends_with(';') || end.ends_with(','))) {
                break;
            }
            i += 1;
            line = lines.get(i).copied().unwrap_or_default();
        }
        i += 1;
        items.push(start..i.min(lines.len()));
    }
    items
}

/// `code` with every `#[cfg(test)]`-gated item blanked out, anywhere in
/// the file: a gate halfway down hides only its own item. The line count
/// is kept, so a line number still points into the file.
fn cut_gated(code: &str) -> String {
    let mut lines: Vec<&str> = code.lines().collect();
    for item in gated_items(code) {
        lines[item].fill("");
    }
    lines.join("\n")
}

/// The files that a `#[cfg(test)] mod name;` in `path` declares: test
/// code all through.
fn test_modules(path: &str, code: &str) -> Vec<String> {
    let lines: Vec<&str> = code.lines().collect();
    let (dir, file) = path.rsplit_once('/').unwrap_or(("", path));
    let dir = match file.trim_end_matches(".rs") {
        "lib" | "main" | "mod" => dir.to_string(),
        stem => format!("{dir}/{stem}"),
    };
    gated_items(code)
        .into_iter()
        .filter_map(|item| {
            let decl = lines[item.end - 1].trim();
            let decl = decl.strip_prefix("pub ").unwrap_or(decl);
            let name = decl.strip_prefix("mod ")?.strip_suffix(';')?;
            Some(name.trim().to_string())
        })
        .flat_map(|name| [format!("{dir}/{name}.rs"), format!("{dir}/{name}/mod.rs")])
        .collect()
}

/// The non-test code of one file's `text`: its comments cut off, then
/// its gated items.
pub(crate) fn non_test_code(text: &str) -> String {
    cut_gated(&cut_comments(text))
}

/// The non-test code of the workspace's `src/` directories, the
/// benchmark's and the examples': each file with its gated items cut
/// ([`cut_gated`]), and without the files a `#[cfg(test)] mod name;`
/// declares.
pub(crate) fn non_test_sources() -> Vec<(String, String)> {
    let mut files = sources();
    files.extend(read_sources(&[
        root().join("benchmark/src"),
        root().join("examples"),
    ]));
    let test_only: Vec<String> = files
        .iter()
        .flat_map(|(path, code)| test_modules(path, code))
        .collect();
    files
        .into_iter()
        .filter(|(path, _)| !test_only.contains(path))
        .map(|(path, code)| (path, cut_gated(&code)))
        .collect()
}
