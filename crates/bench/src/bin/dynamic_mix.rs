//! Dynamic-workload scenario: the simulator running a scripted
//! mix — a third app arrives mid-run, one process bursts, another idles,
//! and the burster departs — under S-NUCA and CDCS.
//!
//! The spec's epochs and event times are pinned (see
//! [`cdcs_bench::specs::dynamic_mix`]), so `--small` only renames the
//! artifact; the scenario itself is identical everywhere it runs, which is
//! what lets CI byte-compare the artifact against a committed golden.

use cdcs_bench::{fmt, run_and_save, specs};

fn main() -> Result<(), String> {
    let report = run_and_save(specs::dynamic_mix())?;
    fmt::dynamic_mix(&report);
    Ok(())
}
