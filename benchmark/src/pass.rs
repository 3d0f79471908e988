//! In-process passes over specs. An untraced pass is the program's own
//! entry point, `ExperimentSpec::run`, plus the pretty-printed report.
//! A traced pass takes the same path — expand, run the cells on a
//! `GridSession`, assemble, serialize — with every call into a layer timed
//! from outside.

use crate::trace::{id_of, Tracer};
use cdcs_bench::artifact;
use cdcs_bench::exp::{ExperimentReport, ExperimentSpec, ReportData, SpecKind};
use cdcs_sim::runner::{CellRun, GridCell};
use cdcs_sim::session::clamp_intra_cell;
use cdcs_sim::{GridSession, SimConfig, SimResult, Simulation};
use std::path::Path;
use std::time::Instant;

/// Timings of one cell, in seconds from the pass start.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellTiming {
    /// Index of the spec the cell belongs to.
    pub spec: usize,
    pub claim: f64,
    pub done: f64,
    pub ok: bool,
    /// `Simulation::new` and `Simulation::run` times.
    pub new_s: f64,
    pub run_s: f64,
}

/// Work counters summed over every `SimResult` of a pass. They depend only
/// on the inputs, never on the host.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub accesses: u64,
    pub hits: u64,
    pub reconfigurations: u64,
    pub demand_moves: u64,
    pub invalidations: u64,
    pub pause_cycles: u64,
}

impl Counters {
    pub fn add(&mut self, r: &SimResult) {
        for t in &r.threads {
            self.accesses += t.accesses;
            self.hits += t.hits;
        }
        let s = &r.system;
        self.reconfigurations += s.reconfigurations;
        self.demand_moves += s.demand_moves;
        self.invalidations += s.background_invalidations + s.bulk_invalidations;
        self.pause_cycles += s.pause_cycles;
    }

    pub fn merge(&mut self, o: &Counters) {
        self.accesses += o.accesses;
        self.hits += o.hits;
        self.reconfigurations += o.reconfigurations;
        self.demand_moves += o.demand_moves;
        self.invalidations += o.invalidations;
        self.pause_cycles += o.pause_cycles;
    }
}

/// Everything one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds from the first expansion to the last serialized report.
    pub wall_s: f64,
    /// Session workers the pass ran.
    pub workers: usize,
    /// Pretty-printed report per spec (`None` when a cell failed).
    pub reports: Vec<Option<String>>,
    pub cells: Vec<CellTiming>,
    pub counters: Counters,
    /// Seconds from the pass start until the session had drained.
    pub session_end: f64,
    /// Each worker's last cell completion, seconds from the pass start.
    pub worker_finish: Vec<f64>,
    pub expand_s: Vec<f64>,
    pub assemble_s: Vec<f64>,
    pub serialize_s: Vec<f64>,
    /// Cell and assembly failures, with their messages.
    pub failures: Vec<String>,
}

/// Runs `cell` the way `runner::run_cell` does, timing `Simulation::new`
/// and `Simulation::run` separately. Panics become the cell's error.
fn run_split(
    config: &SimConfig,
    cell: &GridCell,
    tracer: &Tracer,
    parent: Option<u32>,
    job: u64,
) -> (Result<SimResult, String>, f64, f64) {
    let mut new_s = 0.0;
    let mut run_s = 0.0;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut cfg = config.clone();
        if let Some(patch) = &cell.patch {
            patch.apply(&mut cfg);
        }
        cfg.scheme = cell.scheme;
        if let Some(seed) = cell.seed {
            cfg.seed = seed;
        }
        let t = Instant::now();
        let sim = {
            let _s = tracer.open("sim", "Simulation::new", parent, job);
            Simulation::new(cfg, cell.mix.clone())
        };
        new_s = t.elapsed().as_secs_f64();
        let sim = sim?;
        let t = Instant::now();
        let result = {
            let _s = tracer.open("sim", "Simulation::run", parent, job);
            match cell.run {
                CellRun::Steady => sim.run(),
                CellRun::Trace {
                    pre_intervals,
                    post_intervals,
                } => sim.run_trace(pre_intervals, post_intervals),
            }
        };
        run_s = t.elapsed().as_secs_f64();
        Ok(result)
    }));
    let result = outcome.unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(format!("cell panicked: {msg}"))
    });
    (result, new_s, run_s)
}

/// One untraced pass of `spec`.
#[derive(Debug)]
pub struct Plain {
    /// Host seconds of `ExperimentSpec::run` plus serialization.
    pub wall_s: f64,
    /// The pretty-printed report, or why there is none.
    pub report: Result<String, String>,
    /// Cells the report holds.
    pub cells: usize,
    pub counters: Counters,
}

/// Runs `spec` through `ExperimentSpec::run` and serializes the report
/// the way `cdcs` writes it and the daemon serves it.
pub fn plain(spec: &ExperimentSpec) -> Plain {
    let t = Instant::now();
    let report = spec.run().and_then(|r| {
        let json = serde_json::to_string_pretty(&r).map_err(|e| format!("serializing: {e}"))?;
        Ok((r, json))
    });
    let wall_s = t.elapsed().as_secs_f64();
    let mut counters = Counters::default();
    let mut cells = 0;
    if let Ok((
        ExperimentReport {
            data: ReportData::Grid(grid),
            ..
        },
        _,
    )) = &report
    {
        cells = grid.cells.len();
        for c in &grid.cells {
            counters.add(&c.result);
        }
    }
    Plain {
        wall_s,
        report: report.map(|(_, json)| json),
        cells,
        counters,
    }
}

/// Runs one traced pass over `specs` (all grid specs sharing one base
/// config), as `GridSpec::run` does (`runner::run_grid`: one session
/// worker per core, at most one per cell), but runs each cell through
/// [`run_split`] so construction and simulation time separately.
/// `jobs[i]` labels spec `i` in the trace.
pub fn run(specs: &[ExperimentSpec], jobs: &[u64], tracer: &Tracer) -> Pass {
    let t0 = Instant::now();
    let since = |t: Instant| t.duration_since(t0).as_secs_f64();
    let mut pass = Pass::default();
    let root = tracer.open("bench", "pass", None, jobs.first().copied().unwrap_or(0));
    let root_id = id_of(&root);

    let mut config: Option<SimConfig> = None;
    let mut cells: Vec<GridCell> = Vec::new();
    let mut owner: Vec<usize> = Vec::new();
    let mut assemblies = Vec::new();
    for (k, spec) in specs.iter().enumerate() {
        let SpecKind::Grid(grid) = &spec.kind else {
            pass.failures
                .push(format!("spec {} is not a grid", spec.name));
            assemblies.push(None);
            continue;
        };
        let t = Instant::now();
        let expanded = {
            let _s = tracer.open("bench", "GridSpec::expand", root_id, jobs[k]);
            grid.expand()
        };
        pass.expand_s.push(t.elapsed().as_secs_f64());
        let (cfg, spec_cells, assembly) = match expanded {
            Ok(e) => e.into_parts(),
            Err(e) => {
                pass.failures.push(format!("expanding {}: {e}", spec.name));
                assemblies.push(None);
                continue;
            }
        };
        match &config {
            None => config = Some(cfg),
            Some(c) if *c != cfg => {
                pass.failures
                    .push(format!("spec {} has a different base config", spec.name));
                assemblies.push(None);
                continue;
            }
            Some(_) => {}
        }
        owner.extend(std::iter::repeat_n(k, spec_cells.len()));
        cells.extend(spec_cells);
        assemblies.push(Some(assembly));
    }
    let Some(config) = config else {
        pass.wall_s = t0.elapsed().as_secs_f64();
        return pass;
    };

    let n = cells.len();
    let mut slots: Vec<Option<Result<SimResult, String>>> = (0..n).map(|_| None).collect();
    pass.cells = owner
        .iter()
        .map(|&spec| CellTiming {
            spec,
            ..CellTiming::default()
        })
        .collect();
    let machine = std::thread::available_parallelism().map_or(1, usize::from);
    pass.workers = machine.min(n.max(1));
    let session = {
        let _s = tracer.open("sim.session", "GridSession::queued", root_id, jobs[0]);
        GridSession::queued(&clamp_intra_cell(&config, pass.workers), cells)
    };
    let per_worker: Vec<Vec<(usize, CellTiming)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..pass.workers)
            .map(|_| {
                let session = &session;
                let owner = &owner;
                scope.spawn(move || {
                    let mut log = Vec::new();
                    while let Some(i) = session.try_claim() {
                        let claim = since(Instant::now());
                        let job = jobs[owner[i]];
                        let cell_span = tracer.open("sim.session", "cell", root_id, job);
                        let (result, new_s, run_s) = run_split(
                            session.config(),
                            &session.cells()[i],
                            tracer,
                            id_of(&cell_span),
                            job,
                        );
                        session.deliver(i, result);
                        drop(cell_span);
                        let timing = CellTiming {
                            spec: owner[i],
                            claim,
                            done: since(Instant::now()),
                            new_s,
                            run_s,
                            ..CellTiming::default()
                        };
                        log.push((i, timing));
                    }
                    log
                })
            })
            .collect();
        while let Some(done) = session.recv() {
            slots[done.index] = Some(done.result);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("session worker panicked outside a cell"))
            .collect()
    });
    pass.session_end = since(Instant::now());
    for log in &per_worker {
        pass.worker_finish
            .push(log.last().map_or(0.0, |(_, t)| t.done));
        for &(i, timing) in log {
            pass.cells[i] = timing;
        }
    }

    // Results back in cell order, per spec.
    let mut per_spec: Vec<Vec<SimResult>> = (0..specs.len()).map(|_| Vec::new()).collect();
    let mut spec_ok = vec![true; specs.len()];
    for (i, slot) in slots.into_iter().enumerate() {
        let k = owner[i];
        match slot {
            Some(Ok(r)) => {
                pass.cells[i].ok = true;
                pass.counters.add(&r);
                per_spec[k].push(r);
            }
            Some(Err(e)) => {
                spec_ok[k] = false;
                pass.failures
                    .push(format!("{} cell {i}: {e}", specs[k].name));
            }
            None => {
                spec_ok[k] = false;
                pass.failures
                    .push(format!("{} cell {i}: never delivered", specs[k].name));
            }
        }
    }
    for (k, (assembly, results)) in assemblies.into_iter().zip(per_spec).enumerate() {
        let Some(assembly) = assembly.filter(|_| spec_ok[k]) else {
            pass.reports.push(None);
            continue;
        };
        let t = Instant::now();
        let grid = {
            let _s = tracer.open("bench", "GridAssembly::assemble", root_id, jobs[k]);
            assembly.assemble(results)
        };
        pass.assemble_s.push(t.elapsed().as_secs_f64());
        let report = ExperimentReport {
            spec: specs[k].clone(),
            data: ReportData::Grid(grid),
        };
        let t = Instant::now();
        let json = {
            let _s = tracer.open("bench", "to_string_pretty", root_id, jobs[k]);
            serde_json::to_string_pretty(&report)
        };
        pass.serialize_s.push(t.elapsed().as_secs_f64());
        match json {
            Ok(json) => pass.reports.push(Some(json)),
            Err(e) => {
                pass.failures
                    .push(format!("serializing {}: {e}", specs[k].name));
                pass.reports.push(None);
            }
        }
    }
    drop(root);
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass
}

/// Times `artifact::write` (serialize, write, read back, compare) for a
/// report given as JSON. Returns the seconds taken, or the error.
pub fn time_artifact_write(report_json: &str, dir: &Path, tracer: &Tracer) -> Result<f64, String> {
    let report: ExperimentReport =
        serde_json::from_str(report_json).map_err(|e| format!("parsing report: {e}"))?;
    let t = Instant::now();
    let _s = tracer.open("bench", "artifact::write", None, 0);
    artifact::write(&report, dir)?;
    Ok(t.elapsed().as_secs_f64())
}
