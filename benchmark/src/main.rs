//! The repository benchmark: one workload per run, measured end to end
//! (tracing off) or layer by layer (tracing on).
//!
//! ```sh
//! cdcs-benchmark --workload sweep --seed 1 --seconds 25 --trace 0 \
//!     [--bin-dir target/release]
//! ```
//!
//! The last line of stdout is the result: `correct`, `attempted`, `failed`
//! and every metric of the mode with its unit. Stderr carries sample
//! counts, digests and any failure messages. See `benchmark/README.md`.

mod digest;
mod inproc;
mod metrics;
mod pass;
mod replay;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, by the names `BENCHMARK.json` declares.
const WORKLOADS: &[&str] = &["sweep", "replan", "serve-local", "serve-fleet"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the `cdcs-serve` and `cdcs-runner` binaries are.
    pub bin_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |name: &str| -> Option<&str> {
        let at = args.iter().position(|a| a == name)?;
        args.get(at + 1).map(String::as_str)
    };
    let workload = value("--workload")
        .ok_or("--workload is required")?
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let bin_dir = value("--bin-dir").map_or_else(|| target_dir().join("release"), PathBuf::from);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        bin_dir,
    })
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Where traced runs leave their span files and artifacts.
pub fn out_dir() -> PathBuf {
    target_dir().join("benchmark")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cdcs-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "sweep" => inproc::run("sweep", workloads::sweep, &args),
        "replan" => inproc::run("replan", workloads::replan, &args),
        "serve-local" => serve::run("serve-local", serve::LOCAL, &args),
        _ => serve::run("serve-fleet", serve::FLEET, &args),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cdcs-benchmark: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for (name, value) in outcome.metrics.notes() {
        eprintln!("note {name} = {value}");
    }
    eprintln!(
        "note failed_frac = {} ({} of {} operations)",
        outcome.tally.failed_frac(),
        outcome.tally.failed,
        outcome.tally.attempted
    );
    for f in outcome.failures.iter().take(20) {
        eprintln!("FAILED: {f}");
    }
    let names = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    match metrics::result_line(&outcome, names) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cdcs-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("x --workload replan --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("replan", 7, 12.0, true)
        );
        assert!(parse_args(&argv("x --workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("x --workload sweep")).is_err());
        assert!(parse_args(&argv("x --workload sweep --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("x --workload sweep --seed 1 --seconds 0")).is_err());
    }
}
