//! `determinism` — result-affecting crates must be reproducible from the
//! seed alone.
//!
//! Every committed golden (`out/fig5.json`, `out/fig12_small.json`) and
//! every bit-identity suite (engine equivalence, sharded equivalence,
//! hierarchical equivalence) assumes that `core`/`sim`/`cache`/`mesh`/
//! `workload` compute the same bytes on every run and every machine. Two
//! things silently break that:
//!
//! * **Randomized-iteration maps.** `std::collections::HashMap`/`HashSet`
//!   seed their hasher per process, so any iteration (even one feeding a
//!   later sort with ties) can reorder results between runs. Use
//!   `FxHashMap` (fixed hasher, insertion-stable across runs — already the
//!   LLC's choice) or `BTreeMap`/`BTreeSet` (ordered by construction).
//! * **Wall-clock and thread identity.** `Instant::now`, `SystemTime`, and
//!   `std::thread::current` leak the machine into the computation.
//! * **File I/O.** A `std::fs` read makes a result depend on more than
//!   `(config, seed)`, and a write is a side effect no result crate
//!   should have. The trace loader and writer are the one waived
//!   exception (`workload/src/trace.rs`).
//!
//! Scope: non-test lines of the result crates. Waive with
//! `lint: allow(determinism) — <why the use cannot reach a result>`.

use crate::diag::Diagnostic;
use crate::lexer::Tok;
use crate::source::SourceFile;

const LINT: &str = "determinism";

fn diag(file: &SourceFile, line: u32, message: String, out: &mut Vec<Diagnostic>) {
    out.push(Diagnostic {
        lint: LINT.to_string(),
        file: file.rel.clone(),
        line,
        message,
    });
}

/// `toks[j..]` starts with `::`.
fn path_sep_at(toks: &[Tok], j: usize) -> bool {
    toks.get(j).is_some_and(|t| t.is_punct(':')) && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
}

/// `toks[i..]` starts with the given idents separated by `::`.
fn path_seq(toks: &[Tok], i: usize, segs: &[&str]) -> bool {
    let mut j = i;
    for (k, seg) in segs.iter().enumerate() {
        if !toks.get(j).is_some_and(|t| t.is_ident(seg)) {
            return false;
        }
        j += 1;
        if k + 1 < segs.len() {
            if !path_sep_at(toks, j) {
                return false;
            }
            j += 2;
        }
    }
    true
}

pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if file.is_test_line(t.line) {
            continue;
        }
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            diag(
                file,
                t.line,
                format!(
                    "`{}` iterates in a per-process random order; use `Fx{}` or `BTree{}` in \
                     result-affecting crates",
                    t.text,
                    t.text,
                    t.text.replace("Hash", "")
                ),
                out,
            );
        } else if path_seq(toks, i, &["Instant", "now"]) {
            diag(
                file,
                t.line,
                "`Instant::now` reads the wall clock inside a result-affecting crate".to_string(),
                out,
            );
        } else if t.is_ident("SystemTime") {
            diag(
                file,
                t.line,
                "`SystemTime` reads the wall clock inside a result-affecting crate".to_string(),
                out,
            );
        } else if t.is_ident("fs")
            && (path_sep_at(toks, i + 1) || i >= 3 && path_seq(toks, i - 3, &["std", "fs"]))
        {
            diag(
                file,
                t.line,
                "`std::fs` file I/O inside a result-affecting crate".to_string(),
                out,
            );
        } else if path_seq(toks, i, &["thread", "current"]) {
            diag(
                file,
                t.line,
                "`thread::current` leaks thread identity into a result-affecting crate".to_string(),
                out,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::analyze_source_as;

    fn lines(crate_name: &str, src: &str) -> Vec<u32> {
        let only = vec!["determinism".to_string()];
        analyze_source_as("src/x.rs", crate_name, src, Some(&only))
            .iter()
            .map(|d| d.line)
            .collect()
    }

    #[test]
    fn file_io_is_flagged_in_result_crates_unless_waived_or_in_tests() {
        let src = "use std::fs;\n\
                   fn a() { let _ = std::fs::read(\"x\"); }\n\
                   fn b() { fs::write(\"x\", b\"\").ok(); }\n\
                   // lint: allow(determinism) — writes an artifact, never read back\n\
                   fn c() { std::fs::write(\"x\", b\"\").ok(); }\n\
                   fn d(fs: u32) -> u32 { fs + 1 }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn e() { std::fs::remove_file(\"x\").ok(); }\n\
                   }\n";
        assert_eq!(lines("workload", src), [1, 2, 3]);
        // Orchestration crates may touch files.
        assert!(lines("serve", src).is_empty());
    }
}
