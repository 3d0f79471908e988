//! Output digests: the benchmark's check that a faster program still
//! computes the same reports.
//!
//! `digests.txt` holds one committed digest per `(key, seed)`: the FNV-1a
//! hash of the in-process report bytes that seed produces. The key is the
//! workload's name, or `serve` for the job stream both served workloads
//! share. A run on a seed with a committed digest must reproduce it
//! exactly; a run on any other seed still checks that every repetition of
//! its work produced the same bytes, and that served reports equal the
//! in-process ones, and warns on stderr that the digest was not checked.

const COMMITTED: &str = include_str!("../digests.txt");

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds several reports into one digest, order-sensitively.
pub fn fold<'a>(reports: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut joined = Vec::new();
    for r in reports {
        joined.extend_from_slice(&fnv1a(r.as_bytes()).to_le_bytes());
    }
    fnv1a(&joined)
}

/// The outcome of comparing a digest with the committed table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// The committed digest matches.
    Match,
    /// The committed digest differs: the program's output changed.
    Mismatch { expected: u64 },
    /// No digest is committed for this workload and seed.
    Uncommitted,
}

impl std::fmt::Display for Check {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Check::Match => write!(f, "matches the committed digest"),
            Check::Mismatch { expected } => write!(f, "the committed digest is {expected:016x}"),
            Check::Uncommitted => write!(f, "no digest committed for this seed"),
        }
    }
}

impl Check {
    /// Whether the check passes (an uncommitted seed is not a failure;
    /// the run's own consistency checks still apply).
    pub fn ok(self) -> bool {
        !matches!(self, Check::Mismatch { .. })
    }
}

/// Looks `digest` up for `(workload, seed)` in a digest table (lines of
/// `<workload> <seed> <16 hex digits>`, `#` comments).
pub fn check_in(table: &str, workload: &str, seed: u64, digest: u64) -> Check {
    for line in table.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        let mut fields = line.split_whitespace();
        let (Some(w), Some(s), Some(d)) = (fields.next(), fields.next(), fields.next()) else {
            continue;
        };
        if w == workload && s.parse::<u64>().ok() == Some(seed) {
            return match u64::from_str_radix(d, 16) {
                Ok(expected) if expected == digest => Check::Match,
                Ok(expected) => Check::Mismatch { expected },
                // An unreadable committed entry can never match.
                Err(_) => Check::Mismatch { expected: 0 },
            };
        }
    }
    Check::Uncommitted
}

/// [`check_in`] against the committed table.
pub fn check(key: &str, seed: u64, digest: u64) -> Check {
    check_in(COMMITTED, key, seed, digest)
}

/// Prints the digest on stderr in the line format of `digests.txt`, and a
/// warning when no digest is committed for the seed.
pub fn report(key: &str, seed: u64, digest: u64, check: Check) {
    eprintln!("report digest {key} {seed} {digest:016x} ({check})");
    if check == Check::Uncommitted {
        eprintln!(
            "WARNING: no digest committed for {key} seed {seed}: the reports were checked \
             for consistency only, not against known-good output"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fold_is_order_sensitive() {
        assert_ne!(fold(["a", "b"]), fold(["b", "a"]));
        assert_eq!(fold(["a", "b"]), fold(["a", "b"]));
    }

    #[test]
    fn table_lookup_matches_mismatches_and_misses() {
        let table = "# comment\nsweep 3 00000000000000ff\nreplan 3 0000000000000010 # x\n";
        assert_eq!(check_in(table, "sweep", 3, 0xff), Check::Match);
        assert_eq!(
            check_in(table, "sweep", 3, 0xfe),
            Check::Mismatch { expected: 0xff }
        );
        assert!(!check_in(table, "sweep", 3, 0xfe).ok());
        assert_eq!(check_in(table, "replan", 3, 0x10), Check::Match);
        assert_eq!(check_in(table, "sweep", 4, 0xff), Check::Uncommitted);
        assert!(check_in(table, "sweep", 4, 0xff).ok());
        assert_eq!(
            check_in("sweep 1 zz", "sweep", 1, 0),
            Check::Mismatch { expected: 0 }
        );
    }

    #[test]
    fn committed_table_covers_seeds_0_to_99() {
        for key in ["sweep", "replan", "serve"] {
            for seed in 0..100 {
                assert_ne!(check(key, seed, 0), Check::Uncommitted, "{key} {seed}");
            }
        }
    }

    #[test]
    fn committed_table_parses() {
        for line in COMMITTED.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 3, "{line}");
            assert!(f[1].parse::<u64>().is_ok(), "{line}");
            assert_eq!(f[2].len(), 16, "{line}");
            assert!(u64::from_str_radix(f[2], 16).is_ok(), "{line}");
        }
    }
}
