//! Metric names, units, and the result line.

use crate::pass::{Counters, Pass};
use crate::replay::Replay;
use crate::stats::{self, median, Tally};
use crate::trace::{self, Tracer};
use std::collections::BTreeMap;

/// End-to-end metrics, printed with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("cells_per_s", "1/s"),
    ("sim_accesses_per_s", "1/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.expand_ms", "ms"),
    ("bench.assemble_ms", "ms"),
    ("bench.report_bytes", "bytes"),
    ("bench.report_write_ms", "ms"),
    ("sim.session.cell_ms_p50", "ms"),
    ("sim.session.cell_ms_max", "ms"),
    ("sim.session.busy_frac", "ratio"),
    ("sim.session.tail_idle_s", "s"),
    ("sim.new_ms_total", "ms"),
    ("sim.run_ms_total", "ms"),
    ("sim.ns_per_access", "ns"),
    ("sim.accesses", "count"),
    ("sim.hit_ratio", "ratio"),
    ("sim.reconfigurations", "count"),
    ("sim.demand_moves", "count"),
    ("sim.invalidations", "count"),
    ("sim.pause_cycles", "cycles"),
    ("core.alloc_us", "us"),
    ("core.thread_place_us", "us"),
    ("core.data_place_us", "us"),
    ("core.plan_flat_us", "us"),
    ("core.plan_hier_cold_us", "us"),
    ("core.plan_hier_warm_us", "us"),
    ("cache.pool_ns_per_access", "ns"),
    ("cache.pool_hit_ratio", "ratio"),
    ("cache.gmon_record_ns", "ns"),
    ("cache.gmon_curve_us", "us"),
    ("workload.mix_build_us", "us"),
    ("workload.draw_ns_per_access", "ns"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.status_ms_p50", "ms"),
    ("serve.status_calls_per_job", "count"),
    ("serve.status_cpu_share", "ratio"),
    ("serve.report_ms_p50", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.rejected_429", "count"),
    ("serve.fleet.completed", "count"),
    ("serve.fleet.requeued", "count"),
    ("serve.fleet.runner_skew", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.self_s.bench", "s"),
    ("trace.self_s.sim.session", "s"),
    ("trace.self_s.sim", "s"),
    ("trace.self_s.serve", "s"),
    ("trace.self_s.core", "s"),
    ("trace.self_s.cache", "s"),
    ("trace.self_s.workload", "s"),
];

/// Metric values of one run, plus free-form notes for stderr.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    notes: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// A number worth stating that is not a metric (sample counts, ...).
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.push((name, value));
    }

    pub fn notes(&self) -> &[(&'static str, f64)] {
        &self.notes
    }
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    pub tally: Tally,
    pub failures: Vec<String>,
    pub metrics: Metrics,
}

/// Renders the result line: every metric of `names`, in order.
///
/// # Errors
///
/// Names a metric the run did not produce, or one that is not finite.
pub fn result_line(outcome: &Outcome, names: &[(&str, &str)]) -> Result<String, String> {
    let mut parts = Vec::new();
    for &(name, unit) in names {
        let value = *outcome
            .metrics
            .values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let t = outcome.tally;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0 && outcome.failures.is_empty(),
        t.attempted,
        t.failed,
        parts.join(", ")
    ))
}

/// A finite f64 as a JSON number with all its digits.
/// `Debug` prints the shortest round-trip form, possibly with an exponent
/// (`1e-7`), which JSON accepts.
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

/// States whether the latency samples support the reported p90 (at least
/// [`stats::MIN_BEYOND`] samples beyond it) and the highest tail they do.
pub fn note_tail(m: &mut Metrics, samples: usize) {
    m.note(
        "job_latency_p90_supported",
        f64::from(u8::from(stats::supports(samples, 90.0))),
    );
    m.note(
        "job_latency_highest_supported_pct",
        stats::highest_supported(samples).unwrap_or(0.0),
    );
}

/// `VmHWM` (peak resident set) of process `pid`, in MB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU time of process `pid`, in clock ticks.
pub fn cpu_ticks(pid: u32) -> Option<u64> {
    stat_cpu_ticks(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// utime + stime of a `/proc/<pid>/stat` line.
fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    // Fields after the parenthesised command name (which may itself hold
    // spaces and parentheses) start at field 3, the state; utime and
    // stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn ms(xs: impl Iterator<Item = f64>) -> f64 {
    median(&xs.map(|s| s * 1e3).collect::<Vec<_>>())
}

/// `bench.*` from traced passes: per-spec expansion, assembly (with
/// serialization to the report bytes), report size and artifact write.
pub fn layer_bench(m: &mut Metrics, passes: &[Pass], report_bytes: usize, write_ms: f64) {
    m.set(
        "bench.expand_ms",
        ms(passes.iter().flat_map(|p| p.expand_s.iter().copied())),
    );
    let assemble: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.assemble_s.iter().zip(&p.serialize_s).map(|(a, s)| a + s))
        .collect();
    m.set("bench.assemble_ms", ms(assemble.into_iter()));
    m.set("bench.report_bytes", report_bytes as f64);
    m.set("bench.report_write_ms", write_ms);
}

/// `sim.session.*` from traced passes (medians over passes).
pub fn layer_session(m: &mut Metrics, passes: &[Pass]) {
    let cell = |c: &crate::pass::CellTiming| c.done - c.claim;
    m.set(
        "sim.session.cell_ms_p50",
        ms(passes.iter().flat_map(|p| p.cells.iter().map(cell))),
    );
    m.set(
        "sim.session.cell_ms_max",
        passes
            .iter()
            .flat_map(|p| p.cells.iter().map(cell))
            .fold(0.0, f64::max)
            * 1e3,
    );
    let busy: Vec<f64> = passes
        .iter()
        .map(|p| {
            let sum: f64 = p.cells.iter().map(cell).sum();
            sum / (p.workers as f64 * p.session_end.max(1e-9))
        })
        .collect();
    m.set("sim.session.busy_frac", median(&busy));
    let idle: Vec<f64> = passes
        .iter()
        .map(|p| p.worker_finish.iter().map(|f| p.session_end - f).sum())
        .collect();
    m.set("sim.session.tail_idle_s", median(&idle));
}

/// `sim.*`: construction and run time per pass (medians over traced
/// passes) and the work counters of one pass.
pub fn layer_sim(m: &mut Metrics, passes: &[Pass], c: &Counters) {
    let new: Vec<f64> = passes
        .iter()
        .map(|p| p.cells.iter().map(|c| c.new_s).sum::<f64>() * 1e3)
        .collect();
    let run: Vec<f64> = passes
        .iter()
        .map(|p| p.cells.iter().map(|c| c.run_s).sum::<f64>() * 1e3)
        .collect();
    let run_ms = median(&run);
    m.set("sim.new_ms_total", median(&new));
    m.set("sim.run_ms_total", run_ms);
    m.set("sim.ns_per_access", run_ms * 1e6 / c.accesses.max(1) as f64);
    m.set("sim.accesses", c.accesses as f64);
    m.set("sim.hit_ratio", c.hits as f64 / c.accesses.max(1) as f64);
    m.set("sim.reconfigurations", c.reconfigurations as f64);
    m.set("sim.demand_moves", c.demand_moves as f64);
    m.set("sim.invalidations", c.invalidations as f64);
    m.set("sim.pause_cycles", c.pause_cycles as f64);
}

/// `workload.*`, `cache.*` and `core.*` from the replays.
pub fn layer_replay(m: &mut Metrics, r: &Replay) {
    m.set("workload.mix_build_us", r.mix_build_us);
    m.set("workload.draw_ns_per_access", r.draw_ns_per_access);
    m.set("cache.pool_ns_per_access", r.pool_ns_per_access);
    m.set("cache.pool_hit_ratio", r.pool_hit_ratio);
    m.set("cache.gmon_record_ns", r.gmon_record_ns);
    m.set("cache.gmon_curve_us", r.gmon_curve_us);
    m.set("core.alloc_us", r.alloc_us);
    m.set("core.thread_place_us", r.thread_place_us);
    m.set("core.data_place_us", r.data_place_us);
    m.set("core.plan_flat_us", r.plan_flat_us);
    m.set("core.plan_hier_cold_us", r.plan_hier_cold_us);
    m.set("core.plan_hier_warm_us", r.plan_hier_warm_us);
    m.note("replay_region_side", f64::from(r.region_side));
    m.note("replay_planner_threads", r.planner_threads as f64);
}

/// Writes the recorded spans once, as JSON lines, and reports each
/// layer's self time.
///
/// # Errors
///
/// Returns the I/O error of writing the span file.
pub fn layer_self_times(
    m: &mut Metrics,
    tracer: &Tracer,
    workload: &str,
    seed: u64,
) -> Result<(), String> {
    let spans = tracer.spans();
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    std::fs::write(&path, trace::to_json_lines(&spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("spans: {} written to {}", spans.len(), path.display());
    let own = trace::self_seconds(&spans);
    for (layer, name) in [
        ("bench", "trace.self_s.bench"),
        ("sim.session", "trace.self_s.sim.session"),
        ("sim", "trace.self_s.sim"),
        ("serve", "trace.self_s.serve"),
        ("core", "trace.self_s.core"),
        ("cache", "trace.self_s.cache"),
        ("workload", "trace.self_s.workload"),
    ] {
        m.set(name, own.get(layer).copied().unwrap_or(0.0));
    }
    m.note("spans", spans.len() as f64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("a", 1.5);
        m.set("b", 1e-7);
        let mut tally = Tally::default();
        tally.record(true);
        let outcome = Outcome {
            tally,
            failures: Vec::new(),
            metrics: m,
        };
        let line = result_line(&outcome, &[("a", "ms"), ("b", "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 1e-7, \"unit\": \"s\"}}}"
        );
        assert!(result_line(&outcome, &[("c", "s")]).is_err());
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut tally = Tally::default();
        tally.record(true);
        tally.record(false);
        let mut m = Metrics::default();
        m.set("a", 2.0);
        let outcome = Outcome {
            tally,
            failures: vec!["x".into()],
            metrics: m,
        };
        let line = result_line(&outcome, &[("a", "s")]).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
    }

    #[test]
    fn cpu_ticks_are_utime_plus_stime() {
        let stat = "42 (cdcs (x) y) S 1 42 42 0 -1 4194560 900 0 0 0 120 30 0 0 20 0 9 0";
        assert_eq!(stat_cpu_ticks(stat), Some(150));
        assert_eq!(stat_cpu_ticks("42 (short) S 1"), None);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }
}
