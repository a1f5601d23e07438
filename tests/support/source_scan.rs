//! The source scan the budget tests share: every workspace `.rs` file
//! under a `src/` directory, read as code with its comments cut off.

use std::fs;
use std::path::{Path, PathBuf};

/// The workspace root.
pub fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `src/` directory of the workspace: the facade's, each crate's and
/// each shim's.
pub fn source_dirs() -> Vec<PathBuf> {
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

/// Each workspace source file, relative path and text with `//` comments
/// cut off: comments may name what the code may not use.
pub fn sources() -> Vec<(String, String)> {
    let mut files = Vec::new();
    for dir in source_dirs() {
        rust_files(&dir, &mut files);
    }
    files.sort();
    files
        .iter()
        .map(|path| {
            let text = fs::read_to_string(path).expect("read source");
            let code: Vec<&str> = text
                .lines()
                .map(|line| line.find("//").map_or(line, |at| &line[..at]))
                .collect();
            let rel = path.strip_prefix(root()).expect("under root");
            (rel.to_string_lossy().replace('\\', "/"), code.join("\n"))
        })
        .collect()
}
