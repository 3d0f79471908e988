#![forbid(unsafe_code)]
//! `cdcs-analyze` — workspace-invariant static analysis for the CDCS repo.
//!
//! Every result this workspace ships is pinned by byte-exact goldens and
//! bit-identity suites; the invariants that make those pins hold are
//! otherwise only enforced *dynamically*, by tests that must happen to
//! execute the offending line. This crate enforces them at the source
//! level with a dependency-free, syn-free lexer (in the same spirit as the
//! vendored syn-free `serde_derive`) and six passes:
//!
//! | lint | invariant |
//! |------|-----------|
//! | `determinism` | no `HashMap`/`HashSet`/`Instant::now`/`SystemTime`/`thread::current`/`std::fs` in result-affecting crates |
//! | `panic-freedom` | no `.lock().unwrap()`-style poison panics in `cdcs-serve` |
//! | `zero-alloc` | no allocation inside `lint: zero-alloc` fences (the `plan_into` call graph) |
//! | `lock-order` | `cdcs-serve` mutexes acquired in one declared order |
//! | `golden-coupling` | every `SimConfig`/`ConfigPatch` field carries `#[serde(default)]` |
//! | `safety-comment` | every `unsafe` block carries `// SAFETY:`; every crate but `cdcs-cache` forbids unsafe |
//!
//! Findings are waivable inline — reason mandatory:
//!
//! ```text
//! // lint: allow(determinism) — deadline clock; never reaches a SimResult
//! ```
//!
//! Run as `cargo run -p cdcs-analyze -- --deny` (the CI gate) or with
//! `--json` for machine-readable output.

pub mod diag;
pub mod lexer;
pub mod lints;
pub mod source;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use diag::Diagnostic;
use source::SourceFile;

/// Walks `root` and returns every analyzable source file, lexed and
/// classified, in a deterministic (sorted-path) order. Scanned: the root
/// crate's `src/` and each `crates/<name>/src/` tree. Not scanned: vendor
/// stand-ins (external code), `target/`, and test/bench/example trees
/// (the invariants govern shipped code; fixtures under
/// `crates/analyze/tests/` deliberately violate them).
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let mut roots: Vec<(PathBuf, String)> = vec![(root.join("src"), "cdcs".to_string())];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<_> = fs::read_dir(&crates_dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        entries.sort();
        for e in entries {
            if let Some(name) = e.file_name().and_then(|n| n.to_str()) {
                if e.join("src").is_dir() {
                    roots.push((e.join("src"), name.to_string()));
                }
            }
        }
    }
    for (dir, crate_name) in roots {
        let mut paths = Vec::new();
        collect_rs(&dir, &mut paths)?;
        paths.sort();
        for p in paths {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            let src = fs::read_to_string(&p)?;
            files.push(SourceFile::parse(&rel, &crate_name, &src));
        }
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Runs the requested lints (all when `only` is `None`) over the whole
/// workspace at `root`. Returned diagnostics are unwaived findings, sorted
/// by file/line/lint.
pub fn analyze_workspace(root: &Path, only: Option<&[String]>) -> io::Result<Vec<Diagnostic>> {
    let files = load_workspace(root)?;
    let mut diags = Vec::new();
    for file in &files {
        lints::check_file(file, only, &mut diags);
    }
    let safety_on = only.is_none_or(|names| names.iter().any(|n| n == "safety-comment"));
    if safety_on {
        lints::check_forbid_unsafe(&files, &mut diags);
    }
    diag::sort(&mut diags);
    Ok(diags)
}

/// Analyzes one file as if it lived in `crate_name` — the fixture-test
/// entry point.
pub fn analyze_source_as(
    rel: &str,
    crate_name: &str,
    src: &str,
    only: Option<&[String]>,
) -> Vec<Diagnostic> {
    let file = SourceFile::parse(rel, crate_name, src);
    let mut diags = Vec::new();
    lints::check_file(&file, only, &mut diags);
    diag::sort(&mut diags);
    diags
}

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` contains a `[workspace]` table.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
