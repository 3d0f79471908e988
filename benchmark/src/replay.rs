//! Per-layer replays for the crates the engine calls internally
//! (`cdcs-workload`, `cdcs-cache`, `cdcs-core`). Each replay is fed the
//! workload's own inputs — its mixes, their access streams, and planner
//! problems built from those streams at the workload's mesh size — and
//! times the crate's public functions directly.

use crate::stats::median;
use crate::trace::Tracer;
use cdcs_cache::monitor::{Gmon, GmonConfig, Monitor};
use cdcs_cache::{hash, Line, LruPool, MissCurve, StackProfiler};
use cdcs_core::alloc::latency_aware_sizes_into;
use cdcs_core::place::{
    greedy_place_into, optimistic_place_into, place_threads_into, trade_refine_with,
    OptimisticPlacement,
};
use cdcs_core::policy::{clustered_cores, CdcsPlanner, HierarchicalPlanner};
use cdcs_core::{
    Placement, PlacementProblem, PlanScratch, SystemParams, ThreadInfo, VcInfo, VcKind,
};
use cdcs_mesh::TileId;
use cdcs_sim::{MonitorKind, SimConfig};
use cdcs_workload::{AccessStream, MixSpec, StreamTarget, WorkloadMix};
use std::hint::black_box;
use std::time::Instant;

/// Accesses drawn per mix (split evenly over its threads).
const ACCESSES_PER_MIX: usize = 600_000;
/// Repetitions of each timed planner step (the median is reported).
const PLAN_REPS: usize = 5;
/// Repetitions of each mix build.
const BUILD_REPS: usize = 20;
/// Hierarchical change threshold, as in the `replan` workload.
const HIER_THRESHOLD: f64 = 0.02;

/// Per-layer replay results.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    pub mix_build_us: f64,
    pub draw_ns_per_access: f64,
    pub pool_ns_per_access: f64,
    pub pool_hit_ratio: f64,
    pub gmon_record_ns: f64,
    pub gmon_curve_us: f64,
    pub alloc_us: f64,
    pub thread_place_us: f64,
    pub data_place_us: f64,
    pub plan_flat_us: f64,
    pub plan_hier_cold_us: f64,
    pub plan_hier_warm_us: f64,
    /// Region side the hierarchical planner replays with.
    pub region_side: u16,
    /// Threads of the mix the planner replay is built from.
    pub planner_threads: usize,
}

/// One mix's drawn accesses: packed lines (VC in the top bits, as the
/// engine packs them) in round-robin thread order, plus the VC per access.
struct Drawn {
    lines: Vec<u64>,
    vcs: Vec<u32>,
    threads: usize,
}

fn draw(mix: &WorkloadMix) -> (Drawn, f64) {
    let mut streams: Vec<AccessStream> = Vec::new();
    for (p, app) in mix.processes().iter().enumerate() {
        for t in 0..app.threads {
            streams.push(AccessStream::for_thread(app, t, mix.stream_seed(p, t)));
        }
    }
    let threads = streams.len();
    let per_thread = (ACCESSES_PER_MIX / threads.max(1)).max(1);
    // Shared-VC ids follow the private ones, one per process.
    let mut shared_vc = Vec::new();
    for (p, app) in mix.processes().iter().enumerate() {
        for _ in 0..app.threads {
            shared_vc.push((threads + p) as u32);
        }
    }
    let mut offsets = vec![(0u32, 0u64); per_thread * threads];
    let t = Instant::now();
    for (i, s) in streams.iter_mut().enumerate() {
        for k in 0..per_thread {
            let (target, off) = s.next_access();
            let vc = match target {
                StreamTarget::ThreadPrivate => i as u32,
                // Streams never draw global data; fold it into the process VC.
                StreamTarget::ProcessShared | StreamTarget::Global => shared_vc[i],
            };
            offsets[k * threads + i] = (vc, off);
        }
    }
    let secs = t.elapsed().as_secs_f64();
    black_box(&offsets);
    let lines = offsets
        .iter()
        .map(|&(vc, off)| (u64::from(vc) << 40) | off)
        .collect();
    let vcs = offsets.iter().map(|&(vc, _)| vc).collect();
    (
        Drawn {
            lines,
            vcs,
            threads,
        },
        secs * 1e9 / (per_thread * threads) as f64,
    )
}

/// Exact per-VC miss curves and access counts over `lines[range]`.
fn profile(drawn: &Drawn, lo: usize, hi: usize, vcs: usize) -> (Vec<MissCurve>, Vec<f64>) {
    let mut profilers: Vec<StackProfiler> = (0..vcs).map(|_| StackProfiler::new()).collect();
    for k in lo..hi {
        profilers[drawn.vcs[k] as usize].record(Line(drawn.lines[k]));
    }
    let counts = profilers.iter().map(|p| p.accesses() as f64).collect();
    (
        profilers.iter().map(StackProfiler::miss_curve).collect(),
        counts,
    )
}

/// A planner problem for single-threaded mixes: one private VC per thread.
fn problem(
    config: &SimConfig,
    curves: Vec<MissCurve>,
    counts: &[f64],
    threads: usize,
) -> PlacementProblem {
    let vcs = curves
        .into_iter()
        .take(threads)
        .enumerate()
        .map(|(i, c)| VcInfo::new(i as u32, VcKind::thread_private(i as u32), c))
        .collect();
    let infos = (0..threads)
        .map(|i| ThreadInfo::new(i as u32, vec![(i as u32, counts[i].max(1.0))]))
        .collect();
    PlacementProblem::new(
        SystemParams::default_for_mesh(config.mesh, config.bank_lines),
        vcs,
        infos,
    )
    .expect("replay builds a consistent problem")
}

fn time_us(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..PLAN_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Replays every layer on `mixes` (the workload's mixes) under `config`.
/// The planner replay uses the mix with the most threads (single-threaded
/// apps only, so each thread owns one VC).
pub fn run(config: &SimConfig, mixes: &[MixSpec], tracer: &Tracer) -> Result<Replay, String> {
    let mut out = Replay::default();
    let _root = tracer.open("replay", "replay", None, 0);

    // workload: mix materialization and stream draws.
    let mut builds = Vec::new();
    let mut built = Vec::new();
    {
        let _s = tracer.open("workload", "WorkloadMix::from_spec", None, 0);
        for spec in mixes {
            let mut mix = None;
            for _ in 0..BUILD_REPS {
                let t = Instant::now();
                mix = Some(black_box(WorkloadMix::from_spec(spec)?));
                builds.push(t.elapsed().as_secs_f64() * 1e6);
            }
            built.extend(mix);
        }
    }
    out.mix_build_us = median(&builds);

    let mut drawn = Vec::new();
    let mut draw_ns = Vec::new();
    {
        let _s = tracer.open("workload", "AccessStream::next_access", None, 0);
        for mix in &built {
            let (d, ns) = draw(mix);
            drawn.push(d);
            draw_ns.push(ns);
        }
    }
    out.draw_ns_per_access = median(&draw_ns);

    // cache: the LRU pool per bank (S-NUCA line interleaving) and GMONs.
    let banks = config.num_banks();
    let (mut hits, mut total, mut pool_secs) = (0u64, 0u64, 0.0);
    {
        let _s = tracer.open("cache", "LruPool::access_insert", None, 0);
        for d in &drawn {
            let mut pools: Vec<LruPool> = (0..banks)
                .map(|_| LruPool::new(config.bank_lines as usize))
                .collect();
            let t = Instant::now();
            for &line in &d.lines {
                let (hit, _) = pools[hash::bucket(line, banks)].access_insert(Line(line));
                hits += u64::from(hit);
            }
            pool_secs += t.elapsed().as_secs_f64();
            total += d.lines.len() as u64;
        }
    }
    out.pool_ns_per_access = pool_secs * 1e9 / total.max(1) as f64;
    out.pool_hit_ratio = hits as f64 / total.max(1) as f64;

    let ways = match config.monitor_kind {
        MonitorKind::Gmon { ways } => ways,
        MonitorKind::Umon { .. } => 64,
    };
    let gmon_config = GmonConfig::covering(
        config.monitor_sets,
        ways,
        config.monitor_sample_period,
        config.total_lines(),
    );
    let (mut record_secs, mut curve_secs, mut curves) = (0.0, 0.0, 0usize);
    {
        let _s = tracer.open("cache", "Gmon", None, 0);
        for d in &drawn {
            let vcs = d.vcs.iter().copied().max().map_or(0, |m| m as usize + 1);
            let mut gmons: Vec<Gmon> = (0..vcs).map(|_| Gmon::new(gmon_config)).collect();
            let t = Instant::now();
            for (k, &line) in d.lines.iter().enumerate() {
                gmons[d.vcs[k] as usize].record(Line(line));
            }
            record_secs += t.elapsed().as_secs_f64();
            let t = Instant::now();
            for g in &gmons {
                black_box(g.miss_curve());
            }
            curve_secs += t.elapsed().as_secs_f64();
            curves += vcs;
        }
    }
    out.gmon_record_ns = record_secs * 1e9 / total.max(1) as f64;
    out.gmon_curve_us = curve_secs * 1e6 / curves.max(1) as f64;

    // core: the planner steps on problems profiled from two consecutive
    // windows of the largest mix's streams (the second drives the warm
    // hierarchical replan).
    let Some(big) = (0..drawn.len()).max_by_key(|&i| drawn[i].threads) else {
        return Ok(out);
    };
    let d = &drawn[big];
    let threads = d.threads;
    out.planner_threads = threads;
    let vcs = d.vcs.iter().copied().max().map_or(0, |m| m as usize + 1);
    if vcs != threads {
        return Err("the planner replay needs single-threaded mixes".into());
    }
    let half = d.lines.len() / 2;
    let (curves_a, counts_a) = profile(d, 0, half, vcs);
    let (curves_b, counts_b) = profile(d, half, d.lines.len(), vcs);
    let pa = problem(config, curves_a, &counts_a, threads);
    let pb = problem(config, curves_b, &counts_b, threads);
    let cores: Vec<TileId> = clustered_cores(threads, &config.mesh);
    let planner = CdcsPlanner::default();
    let mut scratch = PlanScratch::new();
    let mut sizes = Vec::new();
    let mut opt = OptimisticPlacement::default();
    let mut placed = Vec::new();
    let mut placement = Placement::default();

    {
        let _s = tracer.open("core", "latency_aware_sizes_into", None, 0);
        out.alloc_us = time_us(|| {
            latency_aware_sizes_into(&pa, planner.granularity, &mut scratch, &mut sizes);
        });
    }
    {
        let _s = tracer.open("core", "place_threads_into", None, 0);
        out.thread_place_us = time_us(|| {
            optimistic_place_into(&pa, &sizes, Some(&cores), &mut scratch, &mut opt);
            place_threads_into(
                &pa,
                &sizes,
                &opt,
                Some(&cores),
                planner.stability_bias,
                &mut scratch,
                &mut placed,
            );
        });
    }
    {
        let _s = tracer.open("core", "greedy_place_into", None, 0);
        out.data_place_us = time_us(|| {
            greedy_place_into(
                &pa,
                &sizes,
                &placed,
                planner.chunk,
                &mut scratch,
                &mut placement,
            );
            black_box(trade_refine_with(&pa, &mut placement, &mut scratch));
        });
    }
    {
        let _s = tracer.open("core", "CdcsPlanner::plan_into", None, 0);
        out.plan_flat_us = time_us(|| {
            planner.plan_into(&pa, &cores, &mut scratch, &mut placement);
        });
    }

    let side = if config.mesh.cols() >= 8 { 4 } else { 2 };
    out.region_side = side;
    let hier = HierarchicalPlanner::new(side, HIER_THRESHOLD);
    let mut hscratch = PlanScratch::new();
    let mut cold = Placement::default();
    let mut warm = Placement::default();
    let (mut cold_us, mut warm_us) = (Vec::new(), Vec::new());
    let _s = tracer.open("core", "HierarchicalPlanner::plan_into", None, 0);
    for _ in 0..PLAN_REPS {
        let t = Instant::now();
        hier.plan_into(&pa, None, &cores, &mut hscratch, &mut cold);
        cold_us.push(t.elapsed().as_secs_f64() * 1e6);
        let moved = cold.thread_cores.clone();
        let t = Instant::now();
        hier.plan_into(&pb, Some(&cold), &moved, &mut hscratch, &mut warm);
        warm_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.plan_hier_cold_us = median(&cold_us);
    out.plan_hier_warm_us = median(&warm_us);
    Ok(out)
}
