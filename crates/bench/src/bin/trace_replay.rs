//! Trace replay: runs the committed `specs/traces/calculix_milc` recording
//! through S-NUCA and CDCS (see
//! [`cdcs_bench::specs::trace_replay`] for how the fixture is produced and
//! why the S-NUCA cell reproduces the recording run bit-exactly).

use cdcs_bench::{fmt, run_and_save, specs};

fn main() -> Result<(), String> {
    let report = run_and_save(specs::trace_replay())?;
    fmt::trace_replay(&report);
    Ok(())
}
