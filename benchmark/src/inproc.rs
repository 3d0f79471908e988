//! The in-process workloads (`sweep`, `replan`): repeated passes of one
//! spec through `ExperimentSpec::run` and report serialization.

use crate::digest;
use crate::metrics::{self, Metrics, Outcome};
use crate::pass::{self, Pass};
use crate::stats::{median, percentile, Tally};
use crate::trace::Tracer;
use crate::{replay, workloads, Args};
use cdcs_bench::exp::{ExperimentSpec, SpecKind};
use std::time::Instant;

/// Set-up repetitions before the first pass, and after each pass one per
/// `SETUP_EVERY_S` of that pass (at least `SETUP_REPS_MIN`); `setup_s` is
/// the median of all of them. The host's speed wanders over tenths of a
/// second, so samples spread over the whole run in proportion to its time
/// give a steadier median than one burst: 125 per 2.5 s pass of `sweep`,
/// 5 per 0.1 s pass of `replan`, about 0.5% of either run.
const SETUP_REPS_MIN: usize = 5;
const SETUP_EVERY_S: f64 = 0.02;

/// Spec generation, the JSON hand-off, and expansion: what a caller pays
/// before the first cell runs.
fn setup_once(generate: fn(u64) -> ExperimentSpec, seed: u64) -> Result<ExperimentSpec, String> {
    let json = serde_json::to_string(&generate(seed)).map_err(|e| e.to_string())?;
    let spec: ExperimentSpec = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    let SpecKind::Grid(grid) = &spec.kind else {
        return Err("workload spec is not a grid".into());
    };
    grid.expand()?;
    Ok(spec)
}

/// Times `reps` set-ups into `out`; returns the last spec.
fn time_setups(
    generate: fn(u64) -> ExperimentSpec,
    seed: u64,
    reps: usize,
    out: &mut Vec<f64>,
) -> Result<ExperimentSpec, String> {
    let mut spec = Err("no set-up ran".to_string());
    for _ in 0..reps {
        let t = Instant::now();
        spec = setup_once(generate, seed);
        out.push(t.elapsed().as_secs_f64());
        spec.as_ref()?;
    }
    spec
}

/// Repeats `pass` until `budget` seconds have gone (at least once), running
/// `between` with the pass's seconds after each. A pass returns its result
/// and its report digest.
fn repeat<T>(
    budget: f64,
    mut pass: impl FnMut() -> (T, Option<u64>),
    mut between: impl FnMut(f64) -> Result<(), String>,
) -> Result<Vec<(T, Option<u64>)>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        out.push(pass());
        between(t.elapsed().as_secs_f64())?;
    }
    Ok(out)
}

/// An untraced pass: the report is reduced to its digest (the first pass
/// keeps its bytes), so earlier reports do not count toward the
/// benchmark's own peak memory.
fn plain_pass(spec: &ExperimentSpec, keep: bool) -> (pass::Plain, Option<u64>) {
    let mut p = pass::plain(spec);
    let d = p.report.as_ref().ok().map(|r| digest::fnv1a(r.as_bytes()));
    if !keep {
        if let Ok(r) = &mut p.report {
            *r = String::new();
        }
    }
    (p, d)
}

/// A traced pass; only its digest is kept of the report.
fn traced_pass(spec: &ExperimentSpec, tracer: &Tracer) -> (Pass, Option<u64>) {
    let mut p = pass::run(std::slice::from_ref(spec), &[0], tracer);
    let d = p.reports[0].as_deref().map(|r| digest::fnv1a(r.as_bytes()));
    p.reports.clear();
    (p, d)
}

pub fn run(
    name: &str,
    generate: fn(u64) -> ExperimentSpec,
    args: &Args,
) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let spec = time_setups(generate, args.seed, SETUP_REPS_MIN, &mut setups)?;
    let mut between = |pass_s: f64| {
        let reps = ((pass_s / SETUP_EVERY_S) as usize).max(SETUP_REPS_MIN);
        time_setups(generate, args.seed, reps, &mut setups).map(drop)
    };

    let tracer = Tracer::new(args.trace);
    // With tracing on, half the seconds run untraced, half traced.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut n = 0;
    let plain = repeat(
        budget,
        || {
            n += 1;
            plain_pass(&spec, n == 1)
        },
        &mut between,
    )?;
    let traced = if args.trace {
        repeat(budget, || traced_pass(&spec, &tracer), &mut between)?
    } else {
        Vec::new()
    };

    // Output checks: every cell succeeds, every pass reproduces the same
    // report bytes, and a committed digest for this seed matches.
    let mut tally = Tally::default();
    let mut failures = Vec::new();
    for (p, _) in &plain {
        match &p.report {
            Ok(_) => (0..p.cells).for_each(|_| tally.record(true)),
            Err(e) => {
                tally.record(false);
                failures.push(e.clone());
            }
        }
    }
    for (p, _) in &traced {
        for c in &p.cells {
            tally.record(c.ok);
        }
        failures.extend(p.failures.iter().cloned());
    }
    let mut first: Option<u64> = None;
    for d in plain
        .iter()
        .map(|(_, d)| *d)
        .chain(traced.iter().map(|(_, d)| *d))
    {
        let same = match (d, first) {
            (Some(d), None) => {
                first = Some(d);
                true
            }
            (Some(d), Some(f)) => d == f,
            (None, _) => false,
        };
        tally.record(same);
        if !same {
            failures.push("a pass produced different report bytes".into());
        }
    }
    let digest = first.unwrap_or(0);
    let check = digest::check(name, args.seed, digest);
    tally.record(check.ok());
    if !check.ok() {
        failures.push(format!("report digest {digest:016x}: {check}"));
    }

    let plain: Vec<pass::Plain> = plain.into_iter().map(|(p, _)| p).collect();
    let traced: Vec<Pass> = traced.into_iter().map(|(p, _)| p).collect();
    let mut m = Metrics::default();
    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let wall = median(&walls);
    let cells = plain[0].cells as f64;
    let c = &plain[0].counters;
    // Job latency in process: a job is one run of the spec, from expansion
    // to the serialized report (as a served job runs from submit to the
    // report bytes), so every pass is one sample.
    let latencies: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    m.set("wall_s", wall);
    m.set("cells_per_s", cells / wall);
    m.set("sim_accesses_per_s", c.accesses as f64 / wall);
    m.set("job_latency_p50_ms", percentile(&latencies, 50.0));
    m.set("job_latency_p90_ms", percentile(&latencies, 90.0));
    m.set("setup_s", median(&setups));
    m.note("setup_samples", setups.len() as f64);
    m.set(
        "peak_rss_mb",
        metrics::vm_hwm_mb(std::process::id()).unwrap_or(0.0),
    );
    eprintln!("pass walls (s): {walls:?}");
    m.note("job_latency_samples", latencies.len() as f64);
    metrics::note_tail(&mut m, latencies.len());
    digest::report(name, args.seed, digest, check);

    if args.trace {
        let report = plain[0].report.as_deref().unwrap_or("");
        let dir = crate::out_dir().join("artifacts");
        let written = pass::time_artifact_write(report, &dir, &tracer);
        tally.record(written.is_ok());
        let write_ms = written.map(|s| s * 1e3).unwrap_or_else(|e| {
            failures.push(e);
            0.0
        });
        let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
        metrics::layer_bench(&mut m, &traced, report.len(), write_ms);
        metrics::layer_session(&mut m, &traced);
        metrics::layer_sim(&mut m, &traced, c);
        let base = match &spec.kind {
            SpecKind::Grid(grid) => grid.base.config(),
            _ => unreachable!("set-up checked the spec is a grid"),
        };
        let r = replay::run(&base, &workloads::mixes(&spec), &tracer)?;
        metrics::layer_replay(&mut m, &r);
        // No daemon on this path.
        for &(name, _) in metrics::PER_LAYER {
            if name.starts_with("serve.") {
                m.set(name, 0.0);
            }
        }
        m.set(
            "trace.overhead_pct",
            (median(&traced_walls) / wall - 1.0) * 100.0,
        );
        metrics::layer_self_times(&mut m, &tracer, name, args.seed)?;
    }
    Ok(Outcome {
        tally,
        failures,
        metrics: m,
    })
}
